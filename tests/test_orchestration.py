"""Tests for the experiment orchestration layer.

Covers the pieces the parallel runner is built from: spec expansion
determinism, the content-addressed artifact store (round-trip, resume,
corruption handling), serial/parallel result equivalence, the new workload
generators (triangle counts cross-checked against the in-memory oracle),
and the ``run_all`` failure paths.
"""

import json

import pytest

from repro.core.baselines.in_memory import count_triangles_in_memory
from repro.experiments.parallel import (
    ParallelRunner,
    ResultSet,
    SpecExecutionError,
    dedupe_specs,
    execute_specs,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.run_all import main, run_experiments, write_summary
from repro.experiments.specs import RunSpec, make_spec, workload_ref
from repro.experiments.store import (
    ARTIFACT_SCHEMA,
    ResultStore,
    atomic_write_json,
    atomic_write_text,
)
from repro.experiments.tasks import TASKS, execute_spec
from repro.experiments.workloads import (
    WORKLOAD_FACTORIES,
    bipartite_random,
    build_workload,
    community,
    file_workload_ref,
    from_file,
    power_law,
)
from repro.graph.generators import planted_partition, random_bipartite
from repro.graph.validation import check_canonical_edges


def tiny_spec(num_edges=60, algorithm="hu_tao_chung", seed=1):
    return make_spec(
        "edges",
        workload=workload_ref("sparse_random", num_edges=num_edges),
        algorithm=algorithm,
        memory=64,
        block=8,
        seed=seed,
    )


class TestSpecs:
    def test_payload_canonicalisation_is_key_order_independent(self):
        a = RunSpec("edges", json.dumps({"x": 1, "y": 2}, sort_keys=True, separators=(",", ":")))
        b = make_spec("edges", y=2, x=1)
        assert a == b
        assert a.spec_hash == b.spec_hash

    def test_different_payloads_hash_differently(self):
        assert tiny_spec(seed=1).spec_hash != tiny_spec(seed=2).spec_hash
        assert tiny_spec().spec_hash != make_spec("kclique", **tiny_spec().payload).spec_hash

    def test_non_json_payload_raises_immediately(self):
        with pytest.raises(TypeError):
            make_spec("edges", workload=object())

    def test_every_experiment_expands_deterministically(self):
        for module in EXPERIMENTS.values():
            first = module.specs(quick=True)
            second = module.specs(quick=True)
            assert [s.spec_hash for s in first] == [s.spec_hash for s in second]
            assert first, f"{module.EXPERIMENT_ID} expanded to no specs"
            for spec in first:
                assert spec.task in TASKS
                # payloads must already be canonical JSON
                assert spec == make_spec(spec.task, **spec.payload)

    def test_dedupe_keeps_first_occurrence_order(self):
        a, b = tiny_spec(seed=1), tiny_spec(seed=2)
        assert dedupe_specs([a, b, a, b, a]) == [a, b]


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        spec = tiny_spec()
        assert store.get(spec) is None
        path = store.put(spec, {"triangles": 3})
        assert path == store.path_for(spec)
        assert store.get(spec) == {"triangles": 3}
        assert spec in store
        artifact = json.loads(path.read_text())
        assert artifact["schema"] == ARTIFACT_SCHEMA
        assert artifact["spec_hash"] == spec.spec_hash
        assert artifact["payload"] == spec.payload

    def test_corrupt_or_mismatching_artifacts_are_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        store.put(spec, {"triangles": 3})

        store.path_for(spec).write_text("{ not json")
        assert store.get(spec) is None

        artifact = {
            "schema": "other/v9",
            "spec_hash": spec.spec_hash,
            "task": spec.task,
            "result": {},
        }
        # repro-lint: ignore[RPR105] -- writes a foreign artifact on purpose
        store.path_for(spec).write_text(json.dumps(artifact))
        assert store.get(spec) is None

    def test_list_skips_sidecars_and_foreign_files(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        good = tiny_spec(seed=1)
        store.put(good, {"triangles": 3})
        # Every kind of non-artifact neighbour the directory accumulates in
        # practice: failure sidecars, quarantined corruption, in-flight temp
        # files, run summaries, and plain junk.
        store.put_failure(tiny_spec(seed=2), "worker died")
        (store.root / "deadbeefdeadbeef.json.corrupt").write_text("{ not json")
        (store.root / "feedfacefeedface.json.tmp123").write_text("in flight")
        (store.root / "cafecafecafecafe.json").write_text("{ also not json")
        atomic_write_json(store.root / "results.json", {"summary": True})
        store.put(good, {"triangles": 3})  # re-put after the litter

        artifacts = store.list()
        assert [a["spec_hash"] for a in artifacts] == [good.spec_hash]
        assert artifacts[0]["result"] == {"triangles": 3}
        assert [a["spec_hash"] for a in store] == [good.spec_hash]

    def test_list_on_missing_directory_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "never-created").list() == []

    def test_resume_does_zero_new_work(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        specs = [tiny_spec(seed=seed) for seed in (1, 2)]

        first = ParallelRunner(store=store, jobs=1).run(specs)
        assert first.executed == 2 and first.cached == 0
        assert len(store.artifact_paths()) == 2

        second = ParallelRunner(store=store, jobs=1).run(specs)
        assert second.executed == 0 and second.cached == 2
        for spec in specs:
            assert first[spec] == second[spec]


    def test_artifact_of_an_older_schema_is_a_miss_and_re_executes(self, tmp_path):
        """A v2 artifact predates the persisted greedy levels: it is stale."""
        store = ResultStore(tmp_path / "results")
        spec = tiny_spec()
        first = ParallelRunner(store=store, jobs=1).run([spec])
        path = store.path_for(spec)
        artifact = json.loads(path.read_text())
        assert artifact["schema"] == ARTIFACT_SCHEMA == "repro-run/v3"
        artifact["schema"] = "repro-run/v2"
        artifact["result"] = {**artifact["result"], "triangles": -1}
        # repro-lint: ignore[RPR105] -- plants a stale artifact on purpose
        path.write_text(json.dumps(artifact))
        assert store.get(spec) is None
        assert store.list() == []

        second = ParallelRunner(store=store, jobs=1).run([spec])
        assert second.executed == 1 and second.cached == 0
        wall = "wall_time_seconds"
        assert {**second[spec], wall: 0} == {**first[spec], wall: 0}
        assert json.loads(path.read_text())["schema"] == ARTIFACT_SCHEMA


class TestAtomicWrites:
    def test_atomic_write_json_round_trip_and_no_temp_litter(self, tmp_path):
        target = tmp_path / "deep" / "results.json"
        atomic_write_json(target, {"b": 2, "a": 1})
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        assert [p.name for p in target.parent.iterdir()] == ["results.json"]

    def test_failed_write_leaves_previous_content_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "summary.json"
        atomic_write_json(target, {"generation": 1})

        import repro.experiments.store as store_module

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "{ torn garbage")
        monkeypatch.undo()
        # The crash mid-write neither corrupted the target nor left a temp file.
        assert json.loads(target.read_text()) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_temp_files_never_match_the_artifact_glob(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        path = store.put(spec, {"triangles": 3})
        temp_name = path.with_name(f"{path.name}.tmp123").name
        (tmp_path / temp_name).write_text("in flight")
        assert [p.name for p in store.artifact_paths()] == [path.name]


class TestConcurrentWriters:
    """The service answers concurrent clients from one store: many threads
    may ``put`` the same spec while others ``get`` it.  ``atomic_write_json``
    (write to ``.tmp<pid>``, then ``os.replace``) is what makes that safe --
    these tests pin the guarantee."""

    def test_same_spec_hash_never_tears_or_double_writes(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "results")
        spec = tiny_spec()
        result = {"triangles": 7, "blob": "x" * 4096}  # big enough to tear
        errors: list[str] = []
        start = threading.Barrier(12)

        def writer() -> None:
            start.wait()
            for _ in range(50):
                store.put(spec, result)

        def reader() -> None:
            start.wait()
            for _ in range(200):
                seen = store.get(spec)
                if seen is not None and seen != result:
                    errors.append(f"torn read: {seen!r}")

        threads = [threading.Thread(target=writer) for _ in range(8)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        # Exactly one artifact, intact, and no quarantine or temp litter.
        names = sorted(p.name for p in store.root.iterdir())
        assert names == [f"{spec.spec_hash}.json"]
        assert store.get(spec) == result

    def test_distinct_specs_written_concurrently_all_land(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "results")
        specs = [tiny_spec(seed=seed) for seed in range(16)]
        start = threading.Barrier(16)

        def writer(spec) -> None:
            start.wait()
            store.put(spec, {"seed_echo": spec.payload["seed"]})

        threads = [threading.Thread(target=writer, args=(spec,)) for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for spec in specs:
            assert store.get(spec) == {"seed_echo": spec.payload["seed"]}
        assert len(store.list()) == 16


class TestParallelRunner:
    def test_serial_execution_matches_oracle(self):
        spec = tiny_spec()
        results = execute_specs([spec])
        workload = build_workload(spec.payload["workload"])
        assert results[spec]["triangles"] == count_triangles_in_memory(workload.edges)

    def test_parallel_results_identical_to_serial(self, tmp_path):
        specs = [tiny_spec(seed=seed) for seed in (1, 2, 3)]
        serial = ParallelRunner(store=None, jobs=1).run(specs)
        parallel = ParallelRunner(store=ResultStore(tmp_path), jobs=2).run(specs)

        def counters(result):
            # everything but wall-clock time must be bit-identical
            return {k: v for k, v in result.items() if k != "wall_time_seconds"}

        for spec in specs:
            assert counters(serial[spec]) == counters(parallel[spec])

    def test_failed_cell_is_reported_not_raised(self):
        bad = make_spec("edges", workload=workload_ref("nope"), algorithm="x", memory=1, block=1)
        results = ParallelRunner(store=None, jobs=1).run([bad])
        assert results.executed == 0
        assert list(results.errors) == [bad.spec_hash]
        with pytest.raises(SpecExecutionError):
            results[bad]
        assert results.get(bad) is None

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_unknown_task_raises_with_candidates(self):
        with pytest.raises(KeyError, match="unknown task"):
            execute_spec(make_spec("no_such_task"))

    def test_edges_task_accepts_sharding(self):
        serial = execute_spec(tiny_spec(algorithm="cache_aware"))
        sharded_spec = make_spec(
            "edges",
            workload=workload_ref("sparse_random", num_edges=60),
            algorithm="cache_aware",
            memory=64,
            block=8,
            seed=1,
            shards=2,
        )
        sharded = execute_spec(sharded_spec)
        assert sharded["triangles"] == serial["triangles"]
        assert sharded["shards"] == 2
        # Sharded execution keeps the counters bit-identical to
        # the serial run with the same colouring.
        colored = execute_spec(
            make_spec(
                "edges",
                workload=workload_ref("sparse_random", num_edges=60),
                algorithm="cache_aware",
                memory=64,
                block=8,
                seed=1,
                options={"num_colors": 2},
            )
        )
        for field in ("reads", "writes", "operations", "total_ios", "phases"):
            assert sharded[field] == colored[field]


class TestNewWorkloads:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: power_law(300),
            lambda: community(300),
            lambda: bipartite_random(300),
        ],
    )
    def test_canonical_named_and_reproducible(self, factory):
        workload = factory()
        check_canonical_edges(workload.edges)
        assert workload.name
        assert workload.num_edges > 0
        assert workload.edges == factory().edges

    def test_bipartite_random_is_triangle_free(self):
        assert count_triangles_in_memory(bipartite_random(400).edges) == 0

    def test_community_is_triangle_rich(self):
        workload = community(600)
        assert count_triangles_in_memory(workload.edges) > 0

    def test_power_law_triangles_match_oracle_through_runner(self):
        spec = make_spec(
            "edges",
            workload=workload_ref("power_law", num_edges=200),
            algorithm="cache_aware",
            memory=64,
            block=8,
            seed=1,
        )
        results = execute_specs([spec])
        oracle = count_triangles_in_memory(power_law(200).edges)
        assert results[spec]["triangles"] == oracle

    def test_from_file_loads_snap_style_edge_lists(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("# SNAP-style comment\n0 1\n1 2\n0 2\n2 3\n")
        workload = from_file(str(path))
        check_canonical_edges(workload.edges)
        assert workload.num_edges == 4
        assert count_triangles_in_memory(workload.edges) == 1
        assert workload.name == "file-toy"

    def test_generators_reject_impossible_edge_counts(self):
        with pytest.raises(ValueError):
            planted_partition(2, 3, intra_edges=20, inter_edges=0)
        with pytest.raises(ValueError):
            planted_partition(2, 3, intra_edges=6, inter_edges=20)
        with pytest.raises(ValueError):
            random_bipartite(3, 3, 10)

    def test_file_workload_ref_pins_content_digest(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        reference = file_workload_ref(path)
        spec = make_spec("edges", workload=reference, algorithm="x", memory=64, block=8)
        assert build_workload(reference).num_edges == 3

        path.write_text("0 1\n1 2\n0 2\n2 3\n")
        changed = file_workload_ref(path)
        assert changed != reference  # edits re-address every dependent spec
        changed_spec = make_spec("edges", workload=changed, algorithm="x", memory=64, block=8)
        assert changed_spec.spec_hash != spec.spec_hash
        # a stale spec fails loudly instead of computing on the wrong graph
        with pytest.raises(ValueError, match="changed since the spec was built"):
            build_workload(reference)

    def test_factory_registry_round_trip(self):
        for name in ("power_law", "community", "bipartite_random"):
            assert name in WORKLOAD_FACTORIES
            built = build_workload([name, {"num_edges": 120}])
            assert built.num_edges > 0

    def test_malformed_workload_reference(self):
        with pytest.raises(ValueError):
            build_workload("not-a-pair")
        with pytest.raises(KeyError, match="unknown workload factory"):
            build_workload(["nope", {}])


class _BrokenExperiment:
    EXPERIMENT_ID = "EXP99"
    TITLE = "broken"
    CLAIM = "broken"

    @staticmethod
    def specs(quick=True):
        raise RuntimeError("boom in specs")

    @staticmethod
    def tabulate(results, quick=True):  # pragma: no cover - never reached
        raise AssertionError

    run = None


class TestRunAll:
    def test_failing_experiment_yields_nonzero_exit(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "EXP99", _BrokenExperiment)
        exit_code = main(["--quick", "--no-store", "EXP99"])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "boom in specs" in captured.err

    def test_unknown_experiment_id_yields_exit_2(self, capsys):
        assert main(["--quick", "--no-store", "EXP0"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_output_file_and_summary_written(self, tmp_path, capsys):
        output = tmp_path / "tables.txt"
        summary = tmp_path / "summary.json"
        exit_code = main(
            [
                "--quick",
                "--jobs",
                "1",
                "--results-dir",
                str(tmp_path / "results"),
                "--output",
                str(output),
                "--json",
                str(summary),
                "EXP4",
            ]
        )
        assert exit_code == 0
        text = output.read_text()
        assert text.startswith("=== EXP4")
        assert "cells:" in text

        payload = json.loads(summary.read_text())
        assert payload["schema"] == "repro-results/v1"
        assert payload["cells"]["executed"] > 0
        assert "EXP4" in payload["experiments"]
        assert not payload["failures"]

        # every executed cell left a JSON artifact behind
        store = ResultStore(tmp_path / "results")
        assert len(store.artifact_paths()) >= payload["cells"]["executed"]

    def test_rerun_resumes_from_store_with_identical_tables(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        first = run_experiments(["EXP4"], quick=True, jobs=1, store=store)
        second = run_experiments(["EXP4"], quick=True, jobs=1, store=store)
        assert first.ok and second.ok
        assert first.executed > 0
        assert second.executed == 0
        assert second.cached == first.total_cells
        assert first.render_tables() == second.render_tables()

    def test_write_summary_creates_parent_directories(self, tmp_path):
        report = run_experiments(["EXP4"], quick=True, jobs=1, store=None)
        target = tmp_path / "nested" / "dir" / "results.json"
        write_summary(report, target)
        assert json.loads(target.read_text())["schema"] == "repro-results/v1"

    def test_tabulate_failure_is_reported(self, monkeypatch):
        module = EXPERIMENTS["EXP4"]

        def broken_tabulate(results, quick=True):
            raise RuntimeError("boom in tabulate")

        monkeypatch.setattr(module, "tabulate", broken_tabulate)
        report = run_experiments(["EXP4"], quick=True, jobs=1, store=None)
        assert not report.ok
        assert report.failures[0].stage == "tabulate"
        assert report.failures[0].experiment_id == "EXP4"


class TestResultSetApi:
    def test_missing_spec_raises_key_error(self):
        results = ResultSet({})
        with pytest.raises(KeyError):
            results[tiny_spec()]
        assert tiny_spec() not in results
        assert len(results) == 0
