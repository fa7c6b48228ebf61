"""Tests for the cost model, bounds and verification helpers (repro.analysis)."""

import math

import pytest

from repro.analysis.bounds import (
    bnlj_io,
    cache_aware_io,
    cache_oblivious_io,
    colour_count,
    dementiev_io,
    enumeration_lower_bound_for_clique,
    expected_colour_collisions,
    high_degree_threshold,
    hu_tao_chung_io,
    improvement_factor,
    lower_bound_io,
    scan_io,
    sort_io,
    work_upper_bound,
)
from repro.analysis.model import MachineParams
from repro.analysis.verification import (
    bounded_ratio_band,
    fit_power_law,
    geometric_mean,
    ratio_series,
)
from repro.exceptions import InvalidConfigurationError


class TestMachineParams:
    def test_valid_configuration(self):
        params = MachineParams(memory_words=512, block_words=16)
        assert params.blocks_in_memory == 32
        assert params.is_tall_cache

    def test_block_must_be_positive(self):
        with pytest.raises(InvalidConfigurationError):
            MachineParams(memory_words=16, block_words=0)

    def test_memory_must_hold_two_blocks(self):
        with pytest.raises(InvalidConfigurationError):
            MachineParams(memory_words=16, block_words=16)

    def test_tall_cache_detection(self):
        assert not MachineParams(memory_words=64, block_words=16).is_tall_cache

    def test_scaled_memory(self):
        params = MachineParams(memory_words=128, block_words=16)
        doubled = params.scaled_memory(2)
        assert doubled.memory_words == 256
        assert doubled.block_words == 16
        floor = params.scaled_memory(0.01)
        assert floor.memory_words == 32  # never below 2 blocks

    def test_default_is_valid_and_tall(self):
        assert MachineParams.default().is_tall_cache


class TestBounds:
    def setup_method(self):
        self.params = MachineParams(memory_words=256, block_words=16)

    def test_scan_io(self):
        assert scan_io(0, self.params) == 0
        assert scan_io(1, self.params) == 1
        assert scan_io(1600, self.params) == 100

    def test_sort_io_in_memory_regime(self):
        assert sort_io(100, self.params) == pytest.approx(100 / 16)

    def test_sort_io_grows_superlinearly_but_gently(self):
        small = sort_io(10_000, self.params)
        large = sort_io(20_000, self.params)
        assert 2.0 <= large / small <= 3.0

    def test_algorithm_ordering_in_the_large_e_regime(self):
        """For E >> M the paper's ordering must hold:
        cache-aware < Hu-Tao-Chung < BNLJ, and cache-aware < Dementiev."""
        edges = 100_000
        ours = cache_aware_io(edges, self.params)
        assert ours < hu_tao_chung_io(edges, self.params)
        assert hu_tao_chung_io(edges, self.params) < bnlj_io(edges, self.params)
        assert ours < dementiev_io(edges, self.params)

    def test_cache_oblivious_matches_cache_aware(self):
        assert cache_oblivious_io(5000, self.params) == cache_aware_io(5000, self.params)

    def test_improvement_factor_formula(self):
        edges = 64 * 256
        assert improvement_factor(edges, 256) == pytest.approx(
            min(math.sqrt(edges / 256), math.sqrt(256))
        )

    def test_lower_bound_monotone_in_t(self):
        values = [lower_bound_io(t, self.params) for t in (0, 10, 1000, 10_000)]
        assert values[0] == 0
        assert values == sorted(values)

    def test_lower_bound_for_clique(self):
        assert enumeration_lower_bound_for_clique(30, self.params) == pytest.approx(
            lower_bound_io(math.comb(30, 3), self.params)
        )

    def test_colour_count(self):
        assert colour_count(100, 200) == 1
        assert colour_count(256 * 16, 256) == 4
        assert colour_count(0, 256) == 1

    def test_high_degree_threshold(self):
        assert high_degree_threshold(1024, 256) == pytest.approx(512.0)

    def test_expected_colour_collisions_is_em(self):
        assert expected_colour_collisions(1000, 256) == 256_000

    def test_work_upper_bound(self):
        assert work_upper_bound(100) == pytest.approx(1000.0)


class TestVerification:
    def test_fit_power_law_recovers_exponent(self):
        xs = [2**k for k in range(5, 12)]
        ys = [3.7 * x**1.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)
        assert fit.scale == pytest.approx(3.7, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_power_law_with_noise(self):
        xs = [100, 200, 400, 800, 1600]
        ys = [x**2 * (1.0 + 0.05 * ((i % 2) * 2 - 1)) for i, x in enumerate(xs)]
        fit = fit_power_law(xs, ys)
        assert 1.9 <= fit.exponent <= 2.1

    def test_fit_power_law_input_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_power_law([3, 3], [1, 2])

    def test_ratio_series_and_band(self):
        ratios = ratio_series([10, 20, 40], [5, 8, 10])
        assert ratios == [2.0, 2.5, 4.0]
        assert bounded_ratio_band(ratios) == pytest.approx(2.0)

    def test_ratio_series_handles_zero_prediction(self):
        ratios = ratio_series([1.0], [0.0])
        assert math.isinf(ratios[0])
        assert math.isinf(bounded_ratio_band([]))

    def test_ratio_series_length_mismatch(self):
        with pytest.raises(ValueError):
            ratio_series([1, 2], [1])

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([4, 4, 4]) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# repro lint: the AST-based invariant analyzer
# ----------------------------------------------------------------------
import json
import textwrap
from pathlib import Path

from repro.analysis.lint import (
    DEFAULT_TARGETS,
    Baseline,
    Finding,
    lint_source,
    render_human,
    render_json,
    rule_catalog,
    run_lint,
)
from repro.analysis.lint.runner import PARSE_ERROR_CODE
from repro.analysis.lint.suppressions import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default virtual path: on RPR102's counted paths, no rule exemptions.
CORE_PATH = "src/repro/core/module.py"


def lint_codes(source: str, path: str = CORE_PATH) -> list[str]:
    return [finding.code for finding in lint_source(textwrap.dedent(source), path)]


class TestRegistryDispatchRule:
    def test_branch_on_algorithm_name_is_flagged(self):
        assert "RPR101" in lint_codes(
            """
            def run(algorithm):
                if algorithm == "cache_aware":
                    return 1
                return 2
            """
        )

    def test_membership_test_on_algorithm_names_is_flagged(self):
        assert "RPR101" in lint_codes(
            """
            def run(algorithm):
                return 1 if algorithm in ("bnlj", "dementiev") else 2
            """
        )

    def test_dispatch_table_of_callables_is_flagged(self):
        assert "RPR101" in lint_codes(
            """
            TABLE = {"cache_aware": run_a, "bnlj": run_b}
            """
        )

    def test_config_map_of_values_is_not_dispatch(self):
        # Mapping algorithm names to specs/results is configuration, the
        # exact shape of the experiment sweep cells.
        assert lint_codes(
            """
            cells = {"cache_aware": make_spec(1), "bnlj": make_spec(2)}
            """
        ) == []

    def test_non_algorithm_string_comparison_is_fine(self):
        assert lint_codes(
            """
            def run(kind):
                if kind == "edges":
                    return 1
                return 2
            """
        ) == []

    def test_registry_module_is_exempt(self):
        source = """
        def dispatch(algorithm):
            if algorithm == "cache_aware":
                return 1
        """
        assert lint_codes(source, path="src/repro/core/registry.py") == []
        assert "RPR101" in lint_codes(source)

    def test_suppression_silences_the_finding(self):
        assert lint_codes(
            """
            def run(algorithm):
                # repro-lint: ignore[RPR101] -- test helper mirrors the registry
                if algorithm == "cache_aware":
                    return 1
            """
        ) == []


class TestDeterminismRule:
    def test_for_loop_over_set_is_flagged(self):
        assert "RPR102" in lint_codes(
            """
            def total(edges):
                seen = set(edges)
                acc = []
                for e in seen:
                    acc.append(e)
                return acc
            """
        )

    def test_sorted_iteration_is_fine(self):
        assert lint_codes(
            """
            def total(edges):
                seen = set(edges)
                acc = []
                for e in sorted(seen):
                    acc.append(e)
                return acc
            """
        ) == []

    def test_order_insensitive_consumer_is_fine(self):
        assert lint_codes(
            """
            def total(edges):
                seen = set(edges)
                return sum(e for e in seen)
            """
        ) == []

    def test_list_comprehension_over_set_is_flagged(self):
        assert "RPR102" in lint_codes(
            """
            def collect(edges):
                seen = set(edges)
                return [e for e in seen]
            """
        )

    def test_only_counted_paths_are_in_scope(self):
        source = """
        def collect(edges):
            seen = set(edges)
            return [e for e in seen]
        """
        assert lint_codes(source, path="src/repro/service/helper.py") == []

    def test_global_rng_is_flagged_seeded_rng_is_fine(self):
        assert "RPR102" in lint_codes(
            """
            import random

            def pick():
                return random.random()
            """
        )
        assert lint_codes(
            """
            import random

            def pick(seed):
                return random.Random(seed).random()
            """
        ) == []

    def test_wall_clock_is_flagged_perf_counter_is_fine(self):
        assert "RPR102" in lint_codes(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert lint_codes(
            """
            import time

            def stamp():
                return time.perf_counter()
            """
        ) == []

    def test_suppression_silences_the_finding(self):
        assert lint_codes(
            """
            def total(edges):
                seen = set(edges)
                acc = 0
                # repro-lint: ignore[RPR102] -- integer addition commutes
                for e in seen:
                    acc += e
                return acc
            """
        ) == []


class TestSpawnSafetyRule:
    def test_lambda_to_submit_is_flagged(self):
        assert "RPR103" in lint_codes(
            """
            def run(pool):
                return pool.submit(lambda: 1)
            """
        )

    def test_nested_function_to_submit_is_flagged(self):
        assert "RPR103" in lint_codes(
            """
            def run(pool):
                def work():
                    return 1
                return pool.submit(work)
            """
        )

    def test_bound_method_to_supervised_map_is_flagged(self):
        assert "RPR103" in lint_codes(
            """
            class Runner:
                def run(self, shards):
                    return supervised_map_unordered(self._work, shards)
            """
        )

    def test_module_level_callable_is_fine(self):
        assert lint_codes(
            """
            def work(shard):
                return shard

            def run(pool, shards):
                return [pool.submit(work, shard) for shard in shards]
            """
        ) == []

    def test_suppression_silences_the_finding(self):
        assert lint_codes(
            """
            class Runner:
                def run(self, pool):
                    # repro-lint: ignore[RPR103] -- thread pool, same process
                    return pool.submit(self._work)
            """
        ) == []


class TestResourceLifecycleRule:
    def test_bare_shared_memory_create_is_flagged(self):
        assert "RPR104" in lint_codes(
            """
            def make():
                shm = SharedMemory(create=True, size=64)
                shm.buf[:1] = b"x"
                return shm.name
            """
        )

    def test_attach_without_create_is_fine(self):
        assert lint_codes(
            """
            def attach(name):
                shm = SharedMemory(name=name)
                return shm
            """
        ) == []

    def test_with_block_is_fine(self):
        assert lint_codes(
            """
            def make():
                with closing(SharedMemory(create=True, size=64)) as shm:
                    return bytes(shm.buf[:1])
            """
        ) == []

    def test_acquire_then_try_is_fine(self):
        assert lint_codes(
            """
            def make():
                shm = SharedMemory(create=True, size=64)
                try:
                    shm.buf[:1] = b"x"
                finally:
                    shm.close()
            """
        ) == []

    def test_returned_acquisition_transfers_ownership(self):
        assert lint_codes(
            """
            def make():
                return SharedMemory(create=True, size=64)
            """
        ) == []

    def test_bare_lock_acquire_is_flagged(self):
        assert "RPR104" in lint_codes(
            """
            def hold(self):
                self._lock.acquire()
                self.value += 1
                self._lock.release()
            """
        )

    def test_tempfile_delete_false_is_flagged(self):
        assert "RPR104" in lint_codes(
            """
            def scratch():
                handle = NamedTemporaryFile(delete=False)
                handle.write(b"x")
            """
        )


class TestAtomicWriteRule:
    def test_json_dump_is_flagged(self):
        assert "RPR105" in lint_codes(
            """
            def save(path, data):
                with open(path) as fh:
                    json.dump(data, fh)
            """
        )

    def test_write_text_of_json_dumps_is_flagged(self):
        assert "RPR105" in lint_codes(
            """
            def save(path, data):
                path.write_text(json.dumps(data))
            """
        )

    def test_open_json_path_for_write_is_flagged(self):
        assert "RPR105" in lint_codes(
            """
            def save(data):
                with open("results/out.json", "w") as fh:
                    fh.write(str(data))
            """
        )

    def test_atomic_writer_and_plain_text_are_fine(self):
        assert lint_codes(
            """
            def save(path, data):
                atomic_write_json(path, data)
                path.write_text("plain text, not json")
            """
        ) == []

    def test_store_module_is_exempt(self):
        source = """
        def save(path, data):
            path.write_text(json.dumps(data))
        """
        assert lint_codes(source, path="src/repro/experiments/store.py") == []


class TestLockDisciplineRule:
    SEGMENTS_PATH = "src/repro/poolexec/segments.py"

    def test_unguarded_global_mutation_is_flagged(self):
        source = """
        _STATS = {"published_segments": 0}

        def bump():
            _STATS["published_segments"] += 1
        """
        codes = lint_codes(source, path=self.SEGMENTS_PATH)
        assert "RPR106" in codes

    def test_guarded_mutation_is_fine(self):
        source = """
        _STATS = {"published_segments": 0}

        def bump():
            with _LOCK:
                _STATS["published_segments"] += 1
        """
        assert lint_codes(source, path=self.SEGMENTS_PATH) == []

    def test_init_may_bind_guarded_attributes(self):
        source = """
        class SegmentHandle:
            def __init__(self):
                self._refs = 1

            def bump(self):
                self._refs += 1
        """
        findings = lint_source(textwrap.dedent(source), self.SEGMENTS_PATH)
        assert [finding.code for finding in findings] == ["RPR106"]
        assert findings[0].line == 7  # the bump, not the __init__

    def test_other_files_have_no_contract(self):
        source = """
        _STATS = {"x": 0}

        def bump():
            _STATS["x"] += 1
        """
        assert lint_codes(source, path="src/repro/graph/other.py") == []


class TestReseededRngRule:
    #: Not a counted path: RPR107 applies everywhere, RPR102 stays out.
    PATH = "tests/test_module.py"

    def test_rng_rebuilt_per_draw_in_a_comprehension_is_flagged(self):
        assert lint_codes(
            """
            import random

            data = [random.Random(0).randrange(10**6) for _ in range(2000)]
            """,
            self.PATH,
        ) == ["RPR107"]

    def test_rng_rebuilt_in_a_loop_body_is_flagged(self):
        assert lint_codes(
            """
            import numpy as np

            def draws(seed, n):
                out = []
                for _ in range(n):
                    out.append(np.random.default_rng(seed).integers(100))
                return out
            """,
            self.PATH,
        ) == ["RPR107"]

    def test_seed_invariant_in_the_inner_comprehension_is_flagged(self):
        assert lint_codes(
            """
            import random

            rows = [[random.Random(i).random() for _ in range(3)] for i in range(5)]
            """,
            self.PATH,
        ) == ["RPR107"]

    def test_one_generator_per_list_is_fine(self):
        assert lint_codes(
            """
            import random

            rng = random.Random(0)
            data = [rng.randrange(10**6) for _ in range(2000)]
            """,
            self.PATH,
        ) == []

    def test_per_item_seed_and_once_evaluated_iterable_are_fine(self):
        assert lint_codes(
            """
            import random

            streams = [random.Random(seed).random() for seed in range(8)]
            picked = [v for v in random.Random(0).sample(range(9), 3)]
            single = random.Random(0).random()
            for step in range(3):
                value = random.Random(step).random()
            """,
            self.PATH,
        ) == []

    def test_suppression_silences_the_finding(self):
        assert lint_codes(
            """
            import random

            # repro-lint: ignore[RPR107] -- a constant array is the point of this fixture
            data = [random.Random(0).randrange(10) for _ in range(8)]
            """,
            self.PATH,
        ) == []


class TestSuppressions:
    def test_own_line_comment_targets_next_code_line(self):
        source = textwrap.dedent(
            """
            # repro-lint: ignore[RPR101]
            value = 1
            """
        )
        (suppression,) = parse_suppressions(source)
        assert suppression.target_line == 3
        assert suppression.matches("RPR101")
        assert not suppression.matches("RPR102")

    def test_marker_inside_string_literal_is_not_a_suppression(self):
        source = 'text = "# repro-lint: ignore[RPR101]"\n'
        assert parse_suppressions(source) == []

    def test_wildcard_matches_every_code(self):
        source = "value = 1  # repro-lint: ignore[*]\n"
        (suppression,) = parse_suppressions(source)
        assert suppression.matches("RPR104")

    def test_unused_suppressions_are_reported(self, tmp_path):
        clean = tmp_path / "src" / "clean.py"
        clean.parent.mkdir()
        clean.write_text("value = 1  # repro-lint: ignore[RPR105]\n")
        report = run_lint(["src"], root=tmp_path)
        assert report.new == []
        assert len(report.unused_suppressions) == 1
        assert report.unused_suppressions[0].codes == ("RPR105",)


class TestBaseline:
    def finding(self, line=3, source="x = 1"):
        return Finding(
            file="src/a.py", line=line, column=0, code="RPR105", message="m", source=source
        )

    def test_round_trip_through_disk(self, tmp_path):
        baseline = Baseline.from_findings([self.finding()])
        path = tmp_path / ".repro-lint-baseline.json"
        baseline.write(path)
        loaded = Baseline.load(path)
        assert [entry.to_json() for entry in loaded.entries] == [
            entry.to_json() for entry in baseline.entries
        ]

    def test_missing_file_is_empty_and_wrong_schema_raises(self, tmp_path):
        assert len(Baseline.load(tmp_path / "missing.json")) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError):
            Baseline.load(bad)

    def test_baselined_findings_do_not_fail_new_ones_do(self):
        baseline = Baseline.from_findings([self.finding()])
        match = baseline.match([self.finding(line=30)])  # moved: still matched
        assert match.new == [] and len(match.baselined) == 1 and match.stale == []
        match = baseline.match([self.finding(line=30), self.finding(line=40, source="y = 2")])
        assert len(match.new) == 1 and match.new[0].source == "y = 2"

    def test_fixed_finding_leaves_a_stale_entry(self):
        baseline = Baseline.from_findings([self.finding()])
        match = baseline.match([])
        assert match.stale == baseline.entries
        report = run_lint([], root=".", baseline=baseline)
        report.stale = match.stale
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1


class TestRunnerAndReporters:
    def test_unparseable_file_is_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = run_lint([bad.name], root=tmp_path)
        assert [finding.code for finding in report.new] == [PARSE_ERROR_CODE]

    def test_json_report_round_trips_findings(self, tmp_path):
        offender = tmp_path / "src" / "save.py"
        offender.parent.mkdir()
        offender.write_text("def save(path, data):\n    path.write_text(json.dumps(data))\n")
        report = run_lint(["src"], root=tmp_path)
        document = json.loads(json.dumps(render_json(report, strict=True)))
        assert document["schema"] == "repro-lint/v1"
        assert document["summary"]["new"] == 1
        assert document["summary"]["exit_code"] == 1
        restored = [Finding.from_json(entry) for entry in document["findings"]]
        assert restored == report.new
        expected = {"RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106", "RPR107"}
        assert {rule["code"] for rule in document["rules"]} == expected

    def test_human_report_names_the_finding(self, tmp_path):
        offender = tmp_path / "src" / "save.py"
        offender.parent.mkdir()
        offender.write_text("def save(path, data):\n    path.write_text(json.dumps(data))\n")
        report = run_lint(["src"], root=tmp_path)
        rendered = render_human(report)
        assert "src/save.py:2:" in rendered and "RPR105" in rendered

    def test_rule_catalog_is_complete(self):
        catalog = rule_catalog()
        expected = ["RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106", "RPR107"]
        assert [rule["code"] for rule in catalog] == expected
        assert all(rule["rationale"] for rule in catalog)


class TestSelfCheck:
    def test_repo_tree_is_clean_under_strict(self):
        """`repro lint --strict` over the actual tree: the gate CI enforces."""
        baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
        report = run_lint(DEFAULT_TARGETS, root=REPO_ROOT, baseline=baseline)
        assert report.files_checked > 100
        problems = [finding.render() for finding in report.new]
        assert problems == [], "\n".join(problems)
        assert report.exit_code(strict=True) == 0

    def test_cli_lint_subcommand_strict_exit_zero(self, capsys):
        from repro.cli import main

        status = main(["lint", "--strict", "--root", str(REPO_ROOT)])
        captured = capsys.readouterr()
        assert status == 0, captured.out
        assert "clean" in captured.out

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR106" in out

    def test_benchmark_writers_are_atomic(self):
        """Regression: the benchmark scripts' JSON writers stay on atomic_write_json."""
        targets = [
            "benchmarks/load_test.py",
            "benchmarks/oocore_bench.py",
            "benchmarks/shard_gate.py",
        ]
        assert all((REPO_ROOT / target).is_file() for target in targets)
        report = run_lint(targets, root=REPO_ROOT)
        atomicity = [finding.render() for finding in report.new if finding.code == "RPR105"]
        assert atomicity == []
