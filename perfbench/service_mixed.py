"""Workload ``service-mixed``: a ``repro serve`` process under a closed loop.

Two client threads drive one server subprocess; each sends its next
request only after the previous reply (``ServiceClient.wait`` callers block
on every reply, so the loop is closed).  A round is one batch per client:
20 reads and 1 write, so reads outnumber writes 20:1; after each write the
client drops the fresh graph again, so server memory does not grow with
the number of rounds a run completes.

* Reads are repeat ``count`` queries answered from the job memo, and
  cursor-paginated triangle pages of a stored enumeration.
* A write registers a *fresh* seeded graph and runs its first count job to
  completion, which pushes ``graph`` ingest and the engine through the
  service layer.

Set-up is server start -> healthy -> registrations and their first jobs.
Every answer is compared with a direct in-process engine run, outside the
timed sections.  The server must exit 0 with "shutdown complete" on
SIGTERM and leave no shared-memory segment behind.
"""

from __future__ import annotations

import itertools
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from harness import SETUP_REPS, SETUP_ROUND, Calibrator, Outcome, Tracer, leaked_segments, median, percentile, proc_status_mib
from inputs import chung_lu_edges

CLIENTS = 2
COUNT_READS = 15
PAGE_READS = 5
WRITES = 1
PAGE = 64
READ_GRAPHS = 4
READ_SIZE = (400, 1200)
WRITE_SIZE = (120, 240)
QUERY = {"algorithm": "cache_aware", "memory": 512, "block": 16, "seed": 0}
MANAGER_READS = 2000


def _expected(edges: list[tuple[int, int]], collect: bool = False) -> dict[str, Any]:
    """The direct engine answer the service must reproduce."""
    from repro.analysis.model import MachineParams
    from repro.core.engine import TriangleEngine

    result = TriangleEngine(edges).run(
        QUERY["algorithm"],
        params=MachineParams(QUERY["memory"], QUERY["block"]),
        seed=QUERY["seed"],
        collect=collect,
    )
    answer: dict[str, Any] = {
        "triangles": result.triangle_count,
        "reads": result.io.reads,
        "writes": result.io.writes,
    }
    if collect:
        answer["set"] = {tuple(sorted(triangle)) for triangle in result.triangles}
    return answer


class Server:
    """One ``repro serve`` subprocess with its log in the run directory."""

    def __init__(self, work: Path, index: int) -> None:
        self.log_path = work / f"server-{index}.log"
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(CLIENTS), "--no-store"],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            cwd=work,
        )
        self.url = ""

    def wait_listening(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("listening on "):
                    self.url = line.split()[2]
                    return self.url
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start: {self.log_path.read_text()[-2000:]}")

    def stop(self, outcome: Outcome) -> None:
        """SIGTERM; the server must drain, exit 0 and say so."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            code = None
        self.log.close()
        text = self.log_path.read_text()
        outcome.check(
            code == 0 and "shutdown complete" in text,
            f"server exit {code} on SIGTERM; log tail: {text[-500:]!r}",
        )
        leaked = leaked_segments({self.process.pid})
        outcome.check(not leaked, f"server leaked shared-memory segments: {leaked}")


class ServiceMixed:
    def __init__(
        self, seed: int, tracer: Tracer, cal: Calibrator, outcome: Outcome, work: Path
    ) -> None:
        self.seed = seed
        self.tracer = tracer
        self.cal = cal
        self.outcome = outcome
        self.work = work
        self.read_graphs = [
            chung_lu_edges(*READ_SIZE, seed=seed * 7919 + index) for index in range(READ_GRAPHS)
        ]
        self.server: Server | None = None
        self.servers_started = 0

    # -- set-up ----------------------------------------------------------
    def _setup_once(self) -> float:
        from repro.service.client import ServiceClient

        factor = self.cal.factor("py")
        started = time.perf_counter()
        with self.tracer.span("setup"):
            with self.tracer.span("service.start"):
                self.server = Server(self.work, self.servers_started)
                self.servers_started += 1
                client = ServiceClient(self.server.wait_listening())
                while True:
                    try:
                        client.health()
                        break
                    except Exception:  # not accepting yet
                        time.sleep(0.005)
            with self.tracer.span("service.register"):
                self.graph_ids = [
                    client.register_graph(edges=edges)["graph"]["id"] for edges in self.read_graphs
                ]
            with self.tracer.span("service.first_count"):
                self.count_jobs = [client.count(graph_id, **QUERY) for graph_id in self.graph_ids]
                enum = client.submit(self.graph_ids[0], mode="enum", **QUERY)["job"]
                self.enum_job = client.wait(enum["id"], poll=0.005)
        return (time.perf_counter() - started) * factor

    def setup(self, reps: int) -> list[tuple[bool, float]]:
        times = []
        for rep in range(reps):
            if self.server is not None:
                self.server.stop(self.outcome)
            traced = self.tracer.enabled and rep % 2 == 1
            with self.tracer.sample(traced, SETUP_ROUND + rep):
                times.append((traced, self._setup_once()))
        return times

    def references(self) -> None:
        self.expected = [_expected(edges) for edges in self.read_graphs]
        self.expected_set = _expected(self.read_graphs[0], collect=True)["set"]
        for job, expected in zip(self.count_jobs, self.expected):
            self._check_count(job, expected, "first count")

    def _check_count(self, job: dict[str, Any], expected: dict[str, Any], what: str) -> None:
        result = job.get("result") or {}
        got = {key: result.get(key) for key in ("triangles", "reads", "writes")}
        want = {key: expected[key] for key in ("triangles", "reads", "writes")}
        self.outcome.check(got == want, f"{what}: service {got} != engine {want}")

    # -- the closed loop -------------------------------------------------
    def _client_batch(self, client: Any, index: int, pages: dict[str, Any], fresh: list) -> list:
        """One client's share of a round; returns ``(kind, start, end, payload)``."""
        plan = ["count"] * COUNT_READS + ["page"] * PAGE_READS + ["write"] * WRITES
        # Interleave deterministically so both kinds of read meet the write.
        plan = [plan[(step * 5) % len(plan)] for step in range(len(plan))]
        records = []
        for step, kind in enumerate(plan):
            started = time.perf_counter()
            try:
                if kind == "count":
                    graph = (index + step) % READ_GRAPHS
                    job = client.submit(self.graph_ids[graph], **QUERY)["job"]
                    payload: Any = (graph, job)
                elif kind == "page":
                    batch = list(itertools.islice(pages["iter"], PAGE))
                    payload = batch
                    if len(batch) < PAGE:
                        pages["iter"] = client.triangles(self.enum_job["id"], limit=PAGE)
                else:
                    edges = fresh.pop()
                    registered = client.register_graph(edges=edges)
                    middle = time.perf_counter()
                    job = client.submit(registered["graph"]["id"], **QUERY)["job"]
                    if job["state"] != "done":
                        job = client.wait(job["id"], poll=0.005)
                    payload = (edges, registered["created"], job, middle)
            except Exception as error:  # a failed request is a failed operation
                payload = error
            records.append((kind, started, time.perf_counter(), payload))
            if kind == "write" and not isinstance(payload, Exception):
                # Unregister the fresh graph again, so the server's memory
                # does not grow with the number of rounds a run completes.
                started = time.perf_counter()
                try:
                    client.drop_graph(registered["graph"]["id"])
                    payload = None
                except Exception as error:
                    payload = error
                records.append(("drop", started, time.perf_counter(), payload))
        return records

    def run_loop(self, seconds: float) -> list[dict[str, Any]]:
        from repro.service.client import ServiceClient

        assert self.server is not None
        clients = [ServiceClient(self.server.url) for _ in range(CLIENTS)]
        pages = [
            {"iter": client.triangles(self.enum_job["id"], limit=PAGE)} for client in clients
        ]
        self.rss_after_setup = proc_status_mib("VmRSS", self.server.process.pid)
        rounds: list[dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        with ThreadPoolExecutor(max_workers=CLIENTS, thread_name_prefix="bench-client") as pool:
            while len(rounds) < 2 or time.perf_counter() < deadline:
                number = len(rounds)
                fresh = [
                    [chung_lu_edges(*WRITE_SIZE, seed=(self.seed * 1_000_003 + number) * 8 + index)]
                    for index in range(CLIENTS)
                ]
                traced = self.tracer.enabled and number % 2 == 1
                factor = self.cal.factor("py")
                with self.tracer.sample(traced, number), self.tracer.span("round") as span_args:
                    started = time.perf_counter()
                    batch_args = zip(clients, range(CLIENTS), pages, fresh)
                    # repro-lint: ignore[RPR103] -- a thread pool: nothing is pickled
                    futures = [pool.submit(self._client_batch, *args) for args in batch_args]
                    batches = [future.result() for future in futures]
                    elapsed = time.perf_counter() - started
                    parent = self.tracer.current()
                    span_args["requests"] = sum(len(batch) for batch in batches)
                if traced:
                    for index, batch in enumerate(batches):
                        for kind, begin, end, _payload in batch:
                            self.tracer.add(f"service.{kind}", begin, end, parent, number, tid=index + 1)
                rounds.append(
                    {
                        "traced": traced,
                        "norm": {"round": elapsed * factor},
                        "raw": {"round": elapsed},
                        "factor": factor,
                        "batches": batches,
                    }
                )
        return rounds

    def verify(self, rounds: list[dict[str, Any]]) -> None:
        """Check every reply of the loop against direct engine runs."""
        seen: list[tuple[int, int, int]] = []
        for entry in rounds:
            for batch in entry["batches"]:
                for kind, _begin, _end, payload in batch:
                    if isinstance(payload, Exception):
                        self.outcome.fail(f"{kind} request raised {payload!r}")
                    elif kind == "count":
                        graph, job = payload
                        self.outcome.check(job.get("state") == "done", f"count read not memoised: {job}")
                        self._check_count(job, self.expected[graph], "count read")
                    elif kind == "page":
                        triangles = {tuple(sorted(triangle)) for triangle in payload}
                        seen.extend(triangles)
                        self.outcome.check(
                            triangles <= self.expected_set, "page holds triangles not in the graph"
                        )
                    elif kind == "drop":
                        self.outcome.check(payload is None, f"drop returned {payload!r}")
                    else:
                        edges, created, job, _middle = payload
                        self.outcome.check(created, "write registered an already known graph")
                        self._check_count(job, _expected(edges), "write")
        if len(seen) >= len(self.expected_set):
            self.outcome.check(set(seen) == self.expected_set, "paginated walks missed triangles")

    def manager_reads(self) -> float:
        """The count-read mix sent in-process to a ``JobManager``: ms per read."""
        from repro.service.jobs import JobManager

        manager = JobManager(store=None, max_workers=CLIENTS)
        try:
            graph_ids = [manager.register_graph({"edges": edges})[0].graph_id for edges in self.read_graphs]
            for graph_id in graph_ids:
                job, _created = manager.submit(graph_id, dict(QUERY))
                deadline = time.monotonic() + 60
                while not job.terminal and time.monotonic() < deadline:
                    time.sleep(0.005)
            factor = self.cal.factor("py")
            started = time.perf_counter()
            for step in range(MANAGER_READS):
                manager.submit(graph_ids[step % READ_GRAPHS], dict(QUERY))
            elapsed = time.perf_counter() - started
        finally:
            manager.close()
        return elapsed * factor / MANAGER_READS * 1000.0

    def finish(self) -> tuple[float, dict[str, Any]]:
        from repro.service.client import ServiceClient

        assert self.server is not None
        pid = self.server.process.pid
        stats = ServiceClient(self.server.url).stats()["manager"]
        peak = proc_status_mib("VmHWM", pid)
        growth = proc_status_mib("VmRSS", pid) - self.rss_after_setup
        self.server.stop(self.outcome)
        self.server = None
        return peak, {"stats": stats, "growth": growth}


def run(
    seconds: float, seed: int, tracer: Tracer, cal: Calibrator, outcome: Outcome, work: Path
) -> dict[str, Any]:
    workload = ServiceMixed(seed, tracer, cal, outcome, work)
    try:
        setup_times = workload.setup(SETUP_REPS + (1 if tracer.enabled else 0))
        workload.references()
        rounds = workload.run_loop(seconds)
        cal.both()
        peak, server = workload.finish()
    finally:
        if workload.server is not None:
            workload.server.stop(outcome)
    workload.verify(rounds)
    untraced = [entry for entry in rounds if not entry["traced"]]
    reads: list[float] = []
    count_reads: list[float] = []
    writes: list[float] = []
    registers: list[float] = []
    first_counts: list[float] = []
    for entry in untraced:
        scale = entry["factor"] * 1000.0
        for batch in entry["batches"]:
            for kind, begin, end, payload in batch:
                if kind == "write" and not isinstance(payload, Exception):
                    middle = payload[3]
                    writes.append((end - begin) * scale)
                    registers.append((middle - begin) * scale)
                    first_counts.append((end - middle) * scale)
                elif kind in ("count", "page"):
                    reads.append((end - begin) * scale)
                    if kind == "count":
                        count_reads.append((end - begin) * scale)
    requests_per_round = CLIENTS * (COUNT_READS + PAGE_READS + 2 * WRITES)
    totals = [entry["norm"]["round"] for entry in untraced]
    stats = server["stats"]
    layer = {
        "service.http_read_ms": median(count_reads),
        "service.register_ms": median(registers),
        "service.first_count_ms": median(first_counts),
        "service.memo_hit_ratio": stats["cache_hits_memo"]
        / max(1, stats["jobs_submitted"] + stats["cache_hits_memo"]),
        "service.jobs_executed": stats["jobs_executed"],
        "service.server_rss_growth_mib": server["growth"],
    }
    if tracer.enabled:
        layer["service.manager_read_ms"] = workload.manager_reads()
    for entry in rounds:
        del entry["batches"]
    return {
        "setup": setup_times,
        "rounds": rounds,
        "ops_per_round": requests_per_round,
        "peak_rss_mib": peak,
        "calibration": "py",
        "prefix": "service",
        "layer": layer,
        "stages": {
            "service.rps": requests_per_round / median(totals),
            "service.read_ms": median(reads),
            "service.read_p99_ms": percentile(reads, 0.99),
            "service.write_ms": median(writes),
        },
        "stage_spans": {"round"},
    }
