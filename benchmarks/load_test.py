#!/usr/bin/env python
"""Concurrent load test for the triangle-analytics service (``repro serve``).

Many clients hammer one server with the paper's workload shape -- repeated
count/enum queries over registered graphs, mixed with idempotent graph
registrations and triangle-page fetches -- and the harness reports what
"heavy traffic" actually measures:

* throughput (requests/second across all clients),
* latency percentiles (p50/p90/p99/max, milliseconds),
* the cache-hit rate, and -- the load-bearing assertion -- that the
  measured phase re-executed **zero** jobs: every repeat query must be
  answered from the job memo / artifact store over the warm engine.
* bit-identical correctness: every count the service returned is compared
  against a direct in-process :class:`TriangleEngine` run of the same
  query (same triangles, same simulated I/O counters).

Results are merged into ``BENCH_substrate.json`` as ``service_*``
benchmarks under ``--label`` (same merge semantics as
``run_benchmarks.py``).  With ``--url`` the harness drives an external
server (the CI ``service-smoke`` job does this); without it, it starts an
in-process :class:`TriangleService` on a free port.

Usage::

    python benchmarks/load_test.py                  # self-hosted, full mix
    python benchmarks/load_test.py --quick --url http://127.0.0.1:8765 \
        --graph-file graph.txt --report report.json --output ''
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.core.registry import algorithm_specs
from repro.experiments.store import atomic_write_json
from repro.experiments.workloads import build_workload
from repro.graph.files import read_edge_list
from repro.service.client import ServiceClient

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"

#: Machine configuration of every query in the mix (matches the CLI
#: defaults, so ``repro compare GRAPH`` reproduces the counts verbatim).
MACHINE = {"memory": 512, "block": 16, "seed": 0}

#: Workload the self-registered benchmark graph comes from.
SIZES = {
    "full": {"workload": ["sparse_random", {"num_edges": 1600, "seed": 11}]},
    "quick": {"workload": ["sparse_random", {"num_edges": 420, "seed": 11}]},
}


def machine_algorithms() -> list[str]:
    """The explicit-machine algorithms, in registry order: the comparable set.

    The first, ``cache_aware``, is shardable; the sharded query uses it.
    """
    return [spec.name for spec in algorithm_specs() if spec.substrate == "machine"]


def build_query_mix(quick: bool) -> list[dict[str, Any]]:
    """The distinct queries the clients repeat.

    Counts across every machine algorithm, one enumeration (exercises the
    stream/SSE path and triangle storage) and one sharded count on the
    persistent pool (exercises shared-memory segments, which the shutdown
    gate then checks for leaks).
    """
    algorithms = machine_algorithms()
    if quick:
        algorithms = algorithms[:2]
    mix: list[dict[str, Any]] = [
        {"mode": "count", "algorithm": algorithm, **MACHINE} for algorithm in algorithms
    ]
    mix.append({"mode": "enum", "algorithm": algorithms[0], **MACHINE})
    mix.append(
        {"mode": "count", "algorithm": algorithms[0], "shards": 2, "jobs": 2, **MACHINE}
    )
    return mix


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 on empty input)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_clients(
    url: str,
    graph_id: str,
    mix: list[dict[str, Any]],
    workload: list,
    enum_job_id: str,
    num_clients: int,
    requests_per_client: int,
) -> tuple[list[float], list[str]]:
    """The measured phase: ``num_clients`` threads of mixed repeat traffic.

    Each client round-robins through its own rotation of the operation
    list (re-submit every query in the mix, re-register the graph, fetch a
    triangle page), so concurrent clients hit different endpoints at any
    instant.  Returns per-request latencies (seconds) and error strings.
    """
    operations: list[tuple[str, dict[str, Any]]] = [("submit", query) for query in mix]
    operations.append(("register", {}))
    operations.append(("page", {}))
    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()

    def client_loop(client_index: int) -> None:
        client = ServiceClient(url, timeout=60.0)
        local: list[float] = []
        for request_index in range(requests_per_client):
            kind, payload = operations[(client_index + request_index) % len(operations)]
            started = time.perf_counter()
            try:
                if kind == "submit":
                    response = client.submit(graph_id, **payload)
                    job = response["job"]
                    if job["state"] not in ("done", "failed"):
                        job = client.wait(job["id"], timeout=60.0)
                    if job["state"] != "done":
                        raise RuntimeError(f"job ended {job['state']}: {job.get('error')}")
                elif kind == "register":
                    client.register_graph(workload=workload)
                else:
                    client._request(
                        "GET", f"/v1/jobs/{enum_job_id}/triangles?limit=64"
                    )
            except Exception as error:  # collect, don't abort the fleet
                with lock:
                    errors.append(f"client {client_index} {kind}: {error}")
            local.append(time.perf_counter() - started)
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client_loop, args=(index,), name=f"load-client-{index}")
        for index in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, errors


def verify_against_engine(
    graph, mix: list[dict[str, Any]], service_results: dict[str, dict[str, Any]]
) -> list[str]:
    """Re-run every count query in-process; service answers must match bit-for-bit."""
    problems: list[str] = []
    with TriangleEngine(graph) as engine:
        for query in mix:
            if query["mode"] != "count":
                continue
            key = json.dumps(query, sort_keys=True)
            served = service_results[key]
            result = engine.run(
                query["algorithm"],
                params=MachineParams(query["memory"], query["block"]),
                seed=query["seed"],
                shards=query.get("shards"),
                jobs=1,
            )
            expected = {
                "triangles": result.triangle_count,
                "total_ios": result.io.total,
                "reads": result.io.reads,
                "writes": result.io.writes,
            }
            measured = {field: served.get(field) for field in expected}
            if measured != expected:
                problems.append(f"{key}: service {measured} != engine {expected}")
    return problems


def count_file_graph(url: str, path: str) -> dict[str, dict[str, Any]]:
    """Register an edge-list file and count with every machine algorithm.

    The CI ``service-smoke`` job diffs this table against a direct
    ``repro compare`` run of the same file -- the same graph travelling
    through HTTP+JSON must produce the same triangles and counters as the
    serial CLI.
    """
    client = ServiceClient(url, timeout=60.0)
    graph = read_edge_list(path)
    graph_id = client.register_graph(edges=list(graph.edges()), name=Path(path).name)[
        "graph"
    ]["id"]
    table: dict[str, dict[str, Any]] = {}
    for algorithm in machine_algorithms():
        job = client.count(graph_id, algorithm=algorithm, **MACHINE)
        result = job["result"]
        table[algorithm] = {
            "triangles": result["triangles"],
            "total_ios": result["total_ios"],
            "reads": result["reads"],
            "writes": result["writes"],
        }
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None, help="server URL; default: self-host in-process")
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients (default 8)")
    parser.add_argument(
        "--requests", type=int, default=None, help="requests per client (default 25; quick 10)"
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run (a few seconds)")
    parser.add_argument(
        "--graph-file",
        default=None,
        help="also register this edge-list file and report per-algorithm counts "
        "(CI diffs them against `repro compare`)",
    )
    parser.add_argument("--report", default=None, help="write the full JSON report here")
    parser.add_argument(
        "--output",
        default=str(DEFAULT_OUTPUT),
        help="BENCH_substrate.json to merge service_* numbers into ('' disables)",
    )
    parser.add_argument("--label", default="service", help="runs[] label (default service)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    requests_per_client = args.requests or (10 if args.quick else 25)
    workload = SIZES[mode]["workload"]
    mix = build_query_mix(args.quick)

    service = None
    if args.url is None:
        # Self-hosted: an in-process server on a free port with a private
        # store, so the harness is one command with no external setup.
        from repro.experiments.store import ResultStore
        from repro.service.server import TriangleService

        store = ResultStore(Path(tempfile.mkdtemp(prefix="repro-load-")) / "results")
        service = TriangleService(port=0, store=store)
        service.start()
        url = service.url
    else:
        url = args.url.rstrip("/")

    try:
        client = ServiceClient(url, timeout=60.0)
        graph_id = client.register_graph(workload=workload, name=f"load-{mode}")["graph"]["id"]

        # Warm-up: execute each distinct query once.  Everything after this
        # must be a cache hit.
        service_results: dict[str, dict[str, Any]] = {}
        enum_job_id = ""
        for query in mix:
            response = client.submit(graph_id, **query)
            job = response["job"]
            if job["state"] != "done":
                job = client.wait(job["id"], timeout=120.0)
            service_results[json.dumps(query, sort_keys=True)] = job["result"]
            if query["mode"] == "enum":
                enum_job_id = job["id"]

        before = client.stats()["manager"]
        started = time.perf_counter()
        latencies, errors = run_clients(
            url, graph_id, mix, workload, enum_job_id, args.clients, requests_per_client
        )
        elapsed = time.perf_counter() - started
        after = client.stats()["manager"]

        executed_during_load = after["jobs_executed"] - before["jobs_executed"]
        total_requests = len(latencies)
        latencies.sort()
        result = {
            "mode": mode,
            "clients": args.clients,
            "requests_per_client": requests_per_client,
            "total_requests": total_requests,
            "wall_seconds": round(elapsed, 4),
            "throughput_rps": round(total_requests / elapsed, 1) if elapsed > 0 else None,
            "latency_ms": {
                "p50": round(percentile(latencies, 0.50) * 1000, 2),
                "p90": round(percentile(latencies, 0.90) * 1000, 2),
                "p99": round(percentile(latencies, 0.99) * 1000, 2),
                "max": round(percentile(latencies, 1.00) * 1000, 2),
            },
            "jobs_executed_during_load": executed_during_load,
            "cache_hit_rate": after["cache_hit_rate"],
            "cache_hits_memo": after["cache_hits_memo"],
            "cache_hits_store": after["cache_hits_store"],
            "distinct_queries": len(mix),
            "errors": len(errors),
            "io": {"reads": 0, "writes": 0, "operations": 0},  # service-level bench
        }

        # Correctness: every count the service returned must match a direct
        # engine run bit-for-bit.
        verification = verify_against_engine(build_workload(workload).graph, mix, service_results)

        report: dict[str, Any] = {"benchmark": result, "url": url}
        if args.graph_file:
            report["file_graph_counts"] = count_file_graph(url, args.graph_file)

        print(f"load test [{mode}]: {args.clients} clients x {requests_per_client} requests")
        print(
            f"  {total_requests} requests in {elapsed:.2f}s "
            f"({result['throughput_rps']} req/s)"
        )
        latency = result["latency_ms"]
        print(
            f"  latency ms: p50={latency['p50']} p90={latency['p90']} "
            f"p99={latency['p99']} max={latency['max']}"
        )
        print(
            f"  cache: hit_rate={result['cache_hit_rate']} "
            f"(memo={result['cache_hits_memo']}, store={result['cache_hits_store']})"
        )
        print(f"  jobs executed during measured phase: {executed_during_load}")

        status = 0
        for message in errors[:5]:
            print(f"ERROR {message}", file=sys.stderr)
            status = 1
        if executed_during_load != 0:
            print(
                f"GATE repeat queries re-executed {executed_during_load} jobs "
                "(expected 0: all traffic must be served from the cache)",
                file=sys.stderr,
            )
            status = 1
        else:
            print("  gate: 0 re-executions (warm cache served everything)")
        for problem in verification:
            print(f"MISMATCH {problem}", file=sys.stderr)
            status = 1
        if not verification:
            print("  verification: service counts bit-identical to direct engine runs")

        if args.report:
            atomic_write_json(Path(args.report), report)
        if args.output:
            output = Path(args.output)
            data: dict = {}
            if output.exists():
                data = json.loads(output.read_text())
            runs = data.setdefault("runs", {})
            entry = runs.setdefault(args.label, {"benchmarks": {}})
            entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            entry["python"] = platform.python_version()
            entry.setdefault("benchmarks", {})[f"service_load_{mode}"] = result
            atomic_write_json(output, data)
            print(f"[{args.label}] merged service_load_{mode} into {output}")
        return status
    finally:
        if service is not None:
            service.close()
            from repro.poolexec.pool import shared_pool

            shared_pool().shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
