"""Tests for the colour-sharded execution path (repro.core.sharding).

The contract under test: a sharded run of a shardable algorithm
(cache_aware, deterministic) *is* the serial run with its high-degree and
colour-triple phases distributed -- aggregated counters, phase attribution,
triangle list (including order) and disk peak are bit-identical to the
serial run with ``num_colors=shards``, for any job count and any shard
completion order.  Every other algorithm rejects ``shards`` on every entry
path with the same :class:`OptionsError`.

Process-pool tests are kept to a handful: a spawn pool costs ~0.5 s on CI,
and jobs=1 exercises the identical merge path in-process.
"""

import math
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.model import MachineParams
from repro.cli import main
from repro.core.engine import TriangleEngine
from repro.core.registry import MAX_SHARDS, ShardingOptions, get_algorithm
from repro.core.sharding import ShardingStats
from repro.exceptions import OptionsError
from repro.experiments.runner import run_on_edges
from repro.experiments.store import ResultStore
from repro.graph.files import write_edge_list
from repro.graph.generators import clique, erdos_renyi_gnm
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import TriangleService

SMALL_PARAMS = MachineParams(memory_words=64, block_words=8)


def make_engine(graph_seed: int = 3, edges: int = 240) -> TriangleEngine:
    graph = erdos_renyi_gnm(max(30, edges // 4), edges, seed=graph_seed)
    return TriangleEngine(graph, params=SMALL_PARAMS)


class TestTriplesModeParity:
    """cache_aware: sharded == serial, bit for bit."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("graph_seed", [3, 5])
    def test_sharded_run_is_bit_identical_to_serial(self, shards, graph_seed):
        engine = make_engine(graph_seed)
        serial = engine.run("cache_aware", seed=1, options={"num_colors": shards}, collect=True)
        sharded = engine.run("cache_aware", seed=1, shards=shards, collect=True)
        assert sharded.io == serial.io
        assert sharded.phases == serial.phases
        assert sharded.triangle_count == serial.triangle_count
        # The merge re-emits in triple order, so even the *order* matches.
        assert sharded.triangles == serial.triangles
        assert sharded.disk_peak_words == serial.disk_peak_words

    def test_count_only_fast_path_matches(self):
        engine = make_engine()
        serial = engine.run("cache_aware", seed=1, options={"num_colors": 2})
        sharded = engine.run("cache_aware", seed=1, shards=2)
        assert sharded.io == serial.io
        assert sharded.triangle_count == serial.triangle_count
        assert sharded.triangles is None

    def test_report_is_the_algorithm_report(self):
        engine = make_engine()
        serial = engine.run("cache_aware", seed=1, options={"num_colors": 2})
        sharded = engine.run("cache_aware", seed=1, shards=2)
        assert sharded.report.num_colors == 2
        assert sharded.report.x_xi == serial.report.x_xi
        assert sharded.report.low_degree_triangles == serial.report.low_degree_triangles
        assert sharded.report.high_degree_triangles == serial.report.high_degree_triangles

    def test_sharding_metadata_populated(self):
        engine = make_engine()
        result = engine.run("cache_aware", seed=1, shards=2)
        meta = result.sharding
        assert isinstance(meta, ShardingStats)
        assert meta.num_colors == 2
        assert meta.num_shards == len(meta.shard_seconds) == len(meta.shard_triples)
        assert engine.run("cache_aware", seed=1).sharding is None

    def test_clique_triangles_survive_sharding(self):
        engine = TriangleEngine(clique(12), params=SMALL_PARAMS)
        serial = engine.run("cache_aware", seed=1, options={"num_colors": 2}, collect=True)
        sharded = engine.run("cache_aware", seed=1, shards=2, collect=True)
        assert serial.triangle_count == math.comb(12, 3)
        assert sharded.triangles == serial.triangles
        assert sharded.io == serial.io

    def test_high_degree_triangles_survive_sharding(self):
        # Two hubs joined to every leaf (and to each other) cross the
        # sqrt(E*M) degree threshold, exercising the distributed Lemma 1
        # high-degree phase -- including the processed-prefix exclusion
        # that keeps each hub-hub-leaf triangle unique.
        leaves = list(range(2, 151))
        edges = [(0, 1)] + [(0, leaf) for leaf in leaves] + [(1, leaf) for leaf in leaves]
        engine = TriangleEngine(edges, params=SMALL_PARAMS)
        serial = engine.run("cache_aware", seed=1, options={"num_colors": 2}, collect=True)
        sharded = engine.run("cache_aware", seed=1, shards=2, collect=True)
        assert len(serial.report.high_degree_vertices) == 2  # the premise
        assert serial.triangle_count == len(leaves)
        assert sharded.triangles == serial.triangles
        assert sharded.io == serial.io
        # One per-vertex task per high-degree vertex, timed separately from
        # the colour-triple shards.
        assert sharded.sharding.hd_tasks == len(sharded.report.high_degree_vertices) > 0
        assert len(sharded.sharding.hd_seconds) == sharded.sharding.hd_tasks

    @pytest.mark.parametrize("shards", [1, 2])
    def test_deterministic_sharded_is_bit_identical_to_serial(self, shards):
        # The deterministic algorithm shards through the same colour-triple
        # executors (its greedy colouring stays on the coordinator), so its
        # sharded counters reproduce the serial run with the same colour
        # count bit for bit.
        engine = make_engine()
        serial = engine.run("deterministic", options={"num_colors": shards}, collect=True)
        sharded = engine.run("deterministic", shards=shards, collect=True)
        assert sharded.io == serial.io
        assert sharded.phases == serial.phases
        assert sharded.triangles == serial.triangles
        assert sharded.disk_peak_words == serial.disk_peak_words
        assert sharded.sharding.num_colors == shards


class TestShardedAndSerialAgree:
    """The satellite property test: random graphs x shards x jobs.

    ``jobs`` only changes *where* shards execute, never what they compute:
    the in-process path (jobs=1) and the merge of pool outcomes share the
    same deterministic reassembly, so the property runs the cheap jobs=1
    grid under hypothesis and a separate class covers real pools.
    """

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        shards=st.sampled_from([1, 2, 4]),
    )
    def test_property_sharded_equals_serial(self, graph_seed, shards):
        engine = make_engine(graph_seed, edges=150)
        serial = engine.run("cache_aware", seed=1, options={"num_colors": shards}, collect=True)
        sharded = engine.run("cache_aware", seed=1, shards=shards, collect=True)
        assert sharded.io == serial.io
        assert sharded.triangles == serial.triangles

    @pytest.mark.parametrize("shards", [2, 4])
    def test_repeated_runs_are_bit_identical(self, shards):
        engine = make_engine()
        first = engine.run("cache_aware", seed=1, shards=shards, collect=True)
        second = engine.run("cache_aware", seed=1, shards=shards, collect=True)
        assert first.io == second.io
        assert first.triangles == second.triangles
        assert first.phases == second.phases


class TestProcessPool:
    """Spawn-pool execution: same results regardless of jobs or finish order."""

    def test_triples_mode_jobs_invariant(self):
        engine = make_engine()
        inline = engine.run("cache_aware", seed=1, shards=2, jobs=1, collect=True)
        pooled = engine.run("cache_aware", seed=1, shards=2, jobs=4, collect=True)
        assert pooled.io == inline.io
        assert pooled.phases == inline.phases
        assert pooled.triangles == inline.triangles
        assert pooled.sharding.jobs == 4

    def test_engine_count_with_sharding(self):
        engine = TriangleEngine(clique(10), params=SMALL_PARAMS)
        assert engine.count("cache_aware", seed=1, shards=2, jobs=2) == math.comb(10, 3)


class TestValidation:
    """ShardingOptions and spec-level gating."""

    @pytest.mark.parametrize(
        "algorithm", ["cache_oblivious", "in_memory", "hu_tao_chung", "dementiev", "bnlj"]
    )
    def test_non_machine_algorithms_reject_sharding(self, algorithm, tmp_path, capsys):
        # Only the shardable algorithms distribute colour triples; every
        # other one -- off the machine substrate or a machine baseline --
        # is refused with one error on every entry path.
        engine = make_engine()
        with pytest.raises(OptionsError, match="is not shardable"):
            engine.run(algorithm, shards=2)
        with pytest.raises(OptionsError, match="is not shardable"):
            run_on_edges(engine.edges, algorithm, SMALL_PARAMS, shards=2)

        service = TriangleService(port=0, store=ResultStore(tmp_path / "results"))
        service.start()
        try:
            client = ServiceClient(service.url, timeout=30.0)
            graph_id = client.register_graph(edges=engine.edges)["graph"]["id"]
            with pytest.raises(ServiceError, match="is not shardable") as excinfo:
                client.submit(graph_id, algorithm=algorithm, shards=2)
            assert excinfo.value.status == 400
        finally:
            service.close()

        # ``repro compare --shards`` runs it serially: the same row as the
        # unsharded table, marked as such.
        graph_file = tmp_path / "graph.txt"
        write_edge_list(erdos_renyi_gnm(30, 90, seed=1), graph_file)

        def row(*extra):
            arguments = ["compare", str(graph_file), "--algorithms", algorithm]
            assert main([*arguments, "--memory", "64", "--block", "8", *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            return next(line for line in lines if line.startswith(algorithm))

        sharded = row("--shards", "2")
        assert sharded.endswith("  (serial: not shardable)")
        assert sharded.removesuffix("  (serial: not shardable)") == row()

    def test_jobs_without_shards_rejected(self):
        engine = make_engine()
        with pytest.raises(OptionsError, match="requires shards"):
            engine.run("cache_aware", jobs=4)

    @pytest.mark.parametrize("shards", [0, -1, True, 2.5, MAX_SHARDS + 1])
    def test_bad_shard_counts_rejected(self, shards):
        engine = make_engine()
        with pytest.raises(OptionsError):
            engine.run("cache_aware", shards=shards)

    def test_conflicting_num_colors_rejected(self):
        engine = make_engine()
        with pytest.raises(OptionsError, match="num_colors"):
            engine.run("cache_aware", shards=2, num_colors=3)
        # An *agreeing* num_colors is fine.
        result = engine.run("cache_aware", shards=2, num_colors=2)
        assert result.report.num_colors == 2

    def test_resolve_sharding_returns_none_for_serial(self):
        spec = get_algorithm("cache_aware")
        assert spec.resolve_sharding(None, 1) is None
        resolved = spec.resolve_sharding(4, 2)
        assert resolved == ShardingOptions(shards=4, jobs=2)

    def test_options_validate_directly(self):
        ShardingOptions(shards=2, jobs=2).validate()
        with pytest.raises(OptionsError):
            ShardingOptions(shards=2, jobs=0).validate()


class TestStreamTeardown:
    """Regression: abandoning a stream must kill the worker thread, bounded.

    A slow consumer-side close used to be able to race the drain loop (the
    queue refilling between ``get_nowait`` and ``join``) and the final
    ``done`` put was not stop-aware.  The worker below emits one triangle
    at a time with an artificial delay, so it is mid-emission with a full
    queue when the consumer walks away.
    """

    def _stream_threads(self):
        return [t for t in threading.enumerate() if t.name == "triangle-stream"]

    def test_close_mid_stream_under_slow_worker_kills_thread(self):
        from repro.core.registry import register_algorithm, unregister_algorithm

        @register_algorithm(
            "slow_emitter_test",
            summary="test-only slow emitter",
            section="-",
            io_bound="-",
            substrate="in-memory",
            accepts_seed=False,
        )
        def _slow(context, sink, options):
            for i in range(500):
                time.sleep(0.002)
                sink.emit(3 * i, 3 * i + 1, 3 * i + 2)

        try:
            engine = TriangleEngine(clique(4), params=SMALL_PARAMS)
            stream = engine.stream("slow_emitter_test", batch_size=1)
            assert len(next(stream)) == 1
            started = time.perf_counter()
            stream.close()  # worker is mid-emission with a full queue
            closed_in = time.perf_counter() - started
            assert closed_in < 5.0, f"stream.close() took {closed_in:.1f}s"
            deadline = time.monotonic() + 5.0
            while self._stream_threads() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not self._stream_threads(), "stream worker thread outlived its consumer"
        finally:
            unregister_algorithm("slow_emitter_test")
