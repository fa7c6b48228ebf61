"""Tests for the triangle-analytics service (``repro serve`` / ``repro client``).

Most tests run an in-process :class:`TriangleService` on a free port and
talk to it over real HTTP through the bundled :class:`ServiceClient` --
the full wire path (routing, JSON envelopes, SSE framing, pagination
cursors) is exercised, not the manager in isolation.  The graceful
shutdown path runs the actual ``repro serve`` CLI in a subprocess and
SIGTERMs it, extending the poolexec teardown guarantees (no leaked
``/dev/shm`` segments, no resource_tracker complaints) to the server.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.parse

import pytest

from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.experiments.store import ResultStore
from repro.experiments.workloads import build_workload
from repro.graph.generators import erdos_renyi_gnm
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager, normalize_graph_payload, normalize_query, query_spec
from repro.service.protocol import (
    ServiceError,
    as_int,
    decode_cursor,
    encode_cursor,
    parse_sse,
    sse_event,
)
from repro.service.server import TriangleService

WORKLOAD = ["sparse_random", {"num_edges": 240, "seed": 5}]


@pytest.fixture()
def service(tmp_path):
    """An in-process service on a free port, with a store under tmp_path."""
    svc = TriangleService(port=0, store=ResultStore(tmp_path / "results"))
    svc.start()
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=30.0)


def register(client: ServiceClient) -> str:
    return client.register_graph(workload=WORKLOAD)["graph"]["id"]


# ----------------------------------------------------------------------
# protocol: cursors, SSE framing, validation helpers
# ----------------------------------------------------------------------
class TestProtocol:
    def test_cursor_round_trip(self):
        cursor = encode_cursor("a" * 16, 1234)
        assert decode_cursor(cursor, "a" * 16) == 1234

    def test_cursor_rejects_other_jobs(self):
        cursor = encode_cursor("a" * 16, 10)
        with pytest.raises(ServiceError) as excinfo:
            decode_cursor(cursor, "b" * 16)
        assert excinfo.value.code == "bad_cursor"

    @pytest.mark.parametrize("cursor", ["", "!!!", "bm90anNvbg", encode_cursor("a" * 16, 3)[:-4]])
    def test_malformed_cursors(self, cursor):
        with pytest.raises(ServiceError):
            decode_cursor(cursor, "a" * 16)

    def test_sse_round_trip(self):
        frames = sse_event("status", {"state": "running"}, event_id=0)
        frames += sse_event("done", {"triangles": 3}, event_id=1)
        parsed = list(parse_sse(frames.decode().splitlines(keepends=True)))
        assert parsed == [
            ("status", 0, {"state": "running"}),
            ("done", 1, {"triangles": 3}),
        ]

    def test_parse_sse_skips_heartbeats(self):
        lines = [": heartbeat\n", "\n", "event: done\n", "data: {}\n", "\n"]
        assert list(parse_sse(lines)) == [("done", None, {})]

    def test_as_int_accepts_strings_rejects_bools(self):
        assert as_int("42", "x") == 42
        assert as_int(None, "x", default=7) == 7
        assert as_int(99, "x", maximum=10) == 10
        with pytest.raises(ServiceError):
            as_int(True, "x")
        with pytest.raises(ServiceError):
            as_int("nope", "x")
        with pytest.raises(ServiceError):
            as_int(0, "x", minimum=1)


# ----------------------------------------------------------------------
# graph / query normalisation (no HTTP)
# ----------------------------------------------------------------------
class TestNormalisation:
    def test_graph_id_ignores_display_name(self):
        _, plain = normalize_graph_payload({"edges": [[1, 2]]})
        _, named = normalize_graph_payload({"edges": [[1, 2]], "name": "mine"})
        assert plain == named

    def test_graph_payload_shapes_rejected(self):
        for bad in (
            None,
            [],
            {},
            {"edges": [[1, 2]], "workload": WORKLOAD},
            {"edges": "nope"},
            {"edges": [[1]]},
            {"edges": [[1, 2.5]]},
            {"edges": [[1, True]]},
            {"workload": ["clique"]},
            {"workload": [3, {}]},
            {"edges": [[1, 2]], "name": 7},
        ):
            with pytest.raises(ServiceError):
                normalize_graph_payload(bad)

    def test_query_defaults_and_jobs_excluded_from_hash(self):
        query = normalize_query({})
        assert query["algorithm"] == "cache_aware" and query["mode"] == "count"
        serial = query_spec("g" * 16, normalize_query({"shards": 2, "jobs": 1}))
        parallel = query_spec("g" * 16, normalize_query({"shards": 2, "jobs": 4}))
        assert serial.spec_hash == parallel.spec_hash  # results are bit-identical

    def test_query_validation_errors(self):
        for bad in (
            {"algorithm": "no_such"},
            {"mode": "sing"},
            {"memory": 1, "block": 16},  # M < B fails MachineParams validation
            {"memory": "many"},
            {"surprise": 1},
            {"options": {"no_such_option": 3}},
            {"shards": 0},
        ):
            with pytest.raises(ServiceError):
                normalize_query(bad)


# ----------------------------------------------------------------------
# HTTP endpoints end to end
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health_and_stats(self, client):
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["manager"]["jobs"] == 0
        assert "segments" in stats

    def test_register_is_idempotent_and_content_addressed(self, client):
        first = client.register_graph(workload=WORKLOAD, name="one")
        second = client.register_graph(workload=WORKLOAD, name="two")
        assert first["created"] is True and second["created"] is False
        assert first["graph"]["id"] == second["graph"]["id"]
        workload = build_workload(WORKLOAD)
        assert first["graph"]["num_edges"] == workload.num_edges

    def test_register_edge_list_and_string_labels(self, client):
        response = client.register_graph(edges=[["a", "b"], ["b", "c"], ["a", "c"]])
        graph_id = response["graph"]["id"]
        job = client.count(graph_id)
        assert job["result"]["triangles"] == 1

    def test_register_rejects_self_loops(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.register_graph(edges=[[1, 1]])
        assert excinfo.value.status == 400

    def test_unknown_ids_are_404(self, client):
        for call in (
            lambda: client.graph("0" * 16),
            lambda: client.job("0" * 16),
            lambda: client.submit("0" * 16),
            lambda: client._request("GET", f"/v1/jobs/{'0' * 16}/triangles"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_bad_json_body_is_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/v1/graphs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_count_matches_direct_engine_run(self, client):
        graph_id = register(client)
        job = client.count(graph_id, algorithm="cache_aware", memory=512, block=16, seed=0)
        result = job["result"]
        with TriangleEngine(build_workload(WORKLOAD).graph) as engine:
            direct = engine.run(
                "cache_aware", params=MachineParams(512, 16), seed=0, collect=False
            )
        assert result["triangles"] == direct.triangle_count
        assert result["total_ios"] == direct.io.total
        assert result["reads"] == direct.io.reads
        assert result["writes"] == direct.io.writes

    def test_repeat_query_is_memo_cache_hit(self, client):
        graph_id = register(client)
        first = client.count(graph_id)
        executed = client.stats()["manager"]["jobs_executed"]
        second = client.count(graph_id)
        stats = client.stats()["manager"]
        assert second["id"] == first["id"]
        assert second["cache_hit"] is True
        assert stats["jobs_executed"] == executed  # nothing re-ran
        assert stats["cache_hits_memo"] >= 1

    def test_store_answers_across_restart(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        with TriangleService(port=0, store=store) as svc:
            client = ServiceClient(svc.url)
            graph_id = register(client)
            first = client.count(graph_id)
        with TriangleService(port=0, store=store) as svc:
            client = ServiceClient(svc.url)
            graph_id = register(client)
            job = client.count(graph_id)
            stats = client.stats()["manager"]
        assert job["id"] == first["id"]
        assert job["source"] == "store"
        assert job["result"]["triangles"] == first["result"]["triangles"]
        assert stats["jobs_executed"] == 0 and stats["cache_hits_store"] == 1

    def test_sharded_count_on_persistent_pool(self, client):
        graph_id = register(client)
        serial = client.count(graph_id)
        sharded = client.count(graph_id, shards=2, jobs=2)
        assert sharded["id"] != serial["id"]  # shard count is result-affecting
        assert sharded["result"]["triangles"] == serial["result"]["triangles"]

    def test_drop_graph_releases_it(self, client):
        graph_id = register(client)
        client.drop_graph(graph_id)
        with pytest.raises(ServiceError) as excinfo:
            client.graph(graph_id)
        assert excinfo.value.status == 404

    def test_failed_job_is_reported_not_crashed(self, service, client, monkeypatch):
        graph_id = register(client)
        entry = service.manager._graphs[graph_id]

        def boom(*args, **kwargs):
            raise RuntimeError("simulated mid-run failure")

        monkeypatch.setattr(entry.engine, "run", boom)
        response = client.submit(graph_id)
        with pytest.raises(ServiceError) as excinfo:
            client.wait(response["job"]["id"], timeout=30.0)
        assert excinfo.value.code == "job_failed"
        assert "simulated mid-run failure" in str(excinfo.value)
        assert client.stats()["manager"]["jobs_failed"] == 1


class TestEventsAndPagination:
    def test_enum_events_stream_to_terminal(self, client):
        graph_id = register(client)
        job_id = client.submit(graph_id, mode="enum")["job"]["id"]
        events = list(client.events(job_id))
        names = [name for name, _ in events]
        assert names[0] == "status" and names[-1] == "done"
        assert "progress" in names
        done = dict(events)["done"]
        assert done["result"]["triangles"] == done["result"]["num_stored_triangles"]

    def test_events_replay_for_finished_job(self, client):
        graph_id = register(client)
        job_id = client.submit(graph_id, mode="enum")["job"]["id"]
        client.wait(job_id)
        first = list(client.events(job_id))
        second = list(client.events(job_id))  # replay is repeatable
        assert [name for name, _ in first] == [name for name, _ in second]

    def test_events_resume_after_last_event_id(self, client):
        graph_id = register(client)
        job_id = client.submit(graph_id, mode="enum")["job"]["id"]
        client.wait(job_id)
        full = list(client.events(job_id))
        resumed = list(client.events(job_id, after=len(full) - 2))
        assert [name for name, _ in resumed] == ["done"]

    def test_pagination_walks_all_triangles_once(self, client):
        graph_id = register(client)
        job_id = client.submit(graph_id, mode="enum")["job"]["id"]
        client.wait(job_id)
        paged = list(client.triangles(job_id, limit=7))
        with TriangleEngine(build_workload(WORKLOAD).graph) as engine:
            direct = engine.run("cache_aware", params=MachineParams(512, 16), seed=0, collect=True)
        assert paged == list(direct.triangles)

    def test_triangles_percent_encodes_cursor_params(self):
        """The pagination walker urlencodes its query string (no raw splicing).

        Regression: ``triangles`` used to hand-concatenate ``cursor=<raw>``,
        which breaks the moment a cursor carries ``=`` padding or any other
        reserved character.  Pin the exact encoded URLs against a canned
        transport.
        """
        stub = ServiceClient("http://example.invalid")
        paths: list[str] = []
        pages = [
            {"triangles": [[0, 1, 2]], "next_cursor": "abc+/=="},
            {"triangles": [[3, 4, 5]], "next_cursor": None},
        ]

        def canned(method, path, **_kwargs):
            paths.append(path)
            return pages[len(paths) - 1]

        stub._request = canned  # type: ignore[method-assign]
        assert list(stub.triangles("job-1", limit=7)) == [(0, 1, 2), (3, 4, 5)]
        assert paths[0] == "/v1/jobs/job-1/triangles?limit=7"
        assert paths[1] == "/v1/jobs/job-1/triangles?limit=7&cursor=abc%2B%2F%3D%3D"

    def test_padded_cursor_round_trips_through_client(self, client):
        """A cursor carrying explicit ``=`` padding survives the wire encoded.

        The server mints cursors with padding stripped, but ``decode_cursor``
        accepts the padded form too -- so a padded cursor is a valid client
        input and must arrive intact through the percent-encoded query.
        """
        graph_id = register(client)
        job_id = client.submit(graph_id, mode="enum")["job"]["id"]
        client.wait(job_id)
        expected = list(client.triangles(job_id))
        padded = None
        for offset in (1, 10, 100):  # json lengths differ, one needs padding
            cursor = encode_cursor(job_id, offset)
            if len(cursor) % 4:
                padded = cursor + "=" * (-len(cursor) % 4)
                break
        assert padded is not None and padded.endswith("=")
        query = urllib.parse.urlencode({"cursor": padded, "limit": 5})
        page = client._request("GET", f"/v1/jobs/{job_id}/triangles?{query}")
        assert [tuple(t) for t in page["triangles"]] == expected[offset : offset + 5]

    def test_pagination_cursor_errors(self, client):
        graph_id = register(client)
        job_id = client.submit(graph_id, mode="enum")["job"]["id"]
        client.wait(job_id)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{job_id}/triangles?cursor=garbage")
        assert excinfo.value.code == "bad_cursor"
        foreign = encode_cursor("f" * 16, 0)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{job_id}/triangles?cursor={foreign}")
        assert excinfo.value.code == "bad_cursor"

    def test_count_job_has_no_triangle_pages(self, client):
        graph_id = register(client)
        job_id = client.count(graph_id)["id"]
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{job_id}/triangles")
        assert excinfo.value.code == "no_triangles"

    def test_jobs_index_merges_live_and_stored(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        with TriangleService(port=0, store=store) as svc:
            client = ServiceClient(svc.url)
            client.count(register(client))
        # Sidecar files must not pollute the stored listing.
        (tmp_path / "results" / "results.json").write_text('{"summary": true}')
        (tmp_path / "results" / "deadbeef.json.corrupt").write_text("{broken")
        (tmp_path / "results" / "feedface.failed").write_text("{}")
        with TriangleService(port=0, store=store) as svc:
            client = ServiceClient(svc.url)
            listing = client.jobs()
        assert listing["jobs"] == []
        assert [job["state"] for job in listing["stored"]] == ["done"]


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_eight_concurrent_clients_warm_cache(self, client):
        graph_id = register(client)
        client.count(graph_id)  # warm the one distinct query
        executed = client.stats()["manager"]["jobs_executed"]
        errors: list[str] = []

        def hammer(index: int) -> None:
            local = ServiceClient(client.base_url, timeout=30.0)
            for _ in range(5):
                try:
                    job = local.count(graph_id)
                    assert job["state"] == "done"
                except Exception as error:  # noqa: BLE001 - collected for the assert
                    errors.append(f"client {index}: {error}")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = client.stats()["manager"]
        assert not errors, errors
        assert stats["jobs_executed"] == executed  # every repeat was a cache hit
        assert stats["cache_hits_memo"] >= 40

    def test_concurrent_identical_submissions_collapse(self, service):
        manager = service.manager
        entry, _ = manager.register_graph({"workload": WORKLOAD})
        results: list[str] = []

        def submit() -> None:
            job, _created = manager.submit(entry.graph_id, {"mode": "count"})
            results.append(job.id)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1  # one job, many submitters
        assert manager.counters["jobs_submitted"] == 1


# ----------------------------------------------------------------------
# manager lifecycle (no HTTP)
# ----------------------------------------------------------------------
class TestManagerLifecycle:
    def test_close_is_idempotent_and_cancels_nothing_running(self):
        manager = JobManager(store=None)
        entry, _ = manager.register_graph({"workload": WORKLOAD})
        job, _ = manager.submit(entry.graph_id, {"mode": "count"})
        assert manager.drain(timeout=30.0)
        manager.close()
        manager.close()
        assert job.state == "done"

    def test_submit_after_close_is_refused(self):
        manager = JobManager(store=None)
        entry, _ = manager.register_graph({"workload": WORKLOAD})
        manager.close()
        with pytest.raises(ServiceError) as excinfo:
            manager.submit(entry.graph_id, {"mode": "count"})
        assert excinfo.value.status == 503


# ----------------------------------------------------------------------
# the CLI client against a live server
# ----------------------------------------------------------------------
class TestClientCli:
    def test_count_and_jobs_round_trip(self, service, tmp_path, capsys, monkeypatch):
        from repro.cli import main as cli_main
        from repro.graph.files import write_edge_list

        graph = erdos_renyi_gnm(40, 120, seed=2)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        monkeypatch.setenv("REPRO_SERVICE_URL", service.url)
        assert cli_main(["client", "count", str(path)]) == 0
        first = capsys.readouterr().out
        assert "registered graph" in first and "triangles:" in first
        assert cli_main(["client", "count", str(path)]) == 0
        second = capsys.readouterr().out
        assert "cache_hit=True" in second
        assert cli_main(["client", "jobs"]) == 0
        assert "done" in capsys.readouterr().out
        assert cli_main(["client", "stats"]) == 0
        assert '"cache_hits_memo": 1' in capsys.readouterr().out

    def test_enum_prints_triangles(self, service, tmp_path, capsys, monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_SERVICE_URL", service.url)
        path = tmp_path / "triangle.txt"
        path.write_text("1 2\n2 3\n1 3\n")
        assert cli_main(["client", "enum", str(path)]) == 0
        out = capsys.readouterr().out
        assert "num_stored_triangles" not in out  # human format, not raw JSON
        assert len([line for line in out.splitlines() if line.count("\t") == 2]) == 1

    def test_unreachable_server_is_a_clean_error(self, tmp_path, monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_SERVICE_URL", "http://127.0.0.1:9")  # discard port
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["client", "health"])
        assert "error:" in str(excinfo.value)


# ----------------------------------------------------------------------
# graceful shutdown of the real CLI server (extends poolexec teardown)
# ----------------------------------------------------------------------
def _wait_for_line(stream, needle: str, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = stream.readline()
        if needle in line:
            return line
        if line == "":
            time.sleep(0.05)
    raise TimeoutError(f"server never printed {needle!r}")


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform")
def test_serve_sigterm_drains_and_unlinks_segments(tmp_path):
    """``repro serve`` + SIGTERM: exit 0, drained jobs, no /dev/shm leaks.

    The sharded job makes the server publish shared-memory segments and
    boot persistent pool workers; after SIGTERM neither may survive --
    the same guarantee the poolexec teardown tests pin for direct engine
    use, extended to the server path.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    command += ["--results", str(tmp_path / "results")]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.getcwd(),
    )
    try:
        banner = _wait_for_line(process.stdout, "listening on")
        url = banner.split()[2]
        client = ServiceClient(url, timeout=30.0)
        graph_id = client.register_graph(workload=WORKLOAD)["graph"]["id"]
        job = client.count(graph_id, shards=2, jobs=2)
        assert job["state"] == "done"
        segments = glob.glob(f"/dev/shm/repro-seg-{process.pid}-*")
        assert segments, "sharded run should have published a segment"
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, f"stdout: {stdout}\nstderr: {stderr}"
    assert "shutdown complete" in stdout
    assert "resource_tracker" not in stderr, stderr
    leaked = glob.glob(f"/dev/shm/repro-seg-{process.pid}-*")
    assert not leaked, f"leaked segments: {leaked}"


def test_store_persists_across_serve_restarts_via_cli(tmp_path):
    """Artifacts written by one server process answer the next (the
    restart path of the ISSUE's 'near-free cache hits' requirement),
    exercised through the real CLI server rather than in-process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )

    def run_once() -> dict:
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        command += ["--results", str(tmp_path / "results")]
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.getcwd(),
        )
        try:
            banner = _wait_for_line(process.stdout, "listening on")
            client = ServiceClient(banner.split()[2], timeout=30.0)
            graph_id = client.register_graph(workload=WORKLOAD)["graph"]["id"]
            job = client.count(graph_id)
            stats = client.stats()["manager"]
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=60)
            return {"job": job, "stats": stats}
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    first = run_once()
    second = run_once()
    assert first["job"]["result"]["triangles"] == second["job"]["result"]["triangles"]
    assert first["stats"]["jobs_executed"] == 1
    assert second["stats"]["jobs_executed"] == 0
    assert second["job"]["source"] == "store"
    artifact_path = tmp_path / "results" / f"{first['job']['id']}.json"
    assert json.loads(artifact_path.read_text())["schema"] == "repro-run/v3"
