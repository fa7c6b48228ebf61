"""Tests for the experiment harness (repro.experiments)."""

import pytest

from repro.experiments import exp_coloring, exp_e_scaling, exp_lower_bound
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.runner import run_on_edges
from repro.experiments.tables import Table
from repro.experiments.workloads import (
    clique_with_edges,
    clique_workload,
    dense_random,
    hub,
    join_instance,
    planted,
    skewed,
    sparse_random,
    triangle_free,
    tripartite,
)
from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import count_triangles_in_memory
from repro.exceptions import AlgorithmError
from repro.graph.validation import check_canonical_edges

PARAMS = MachineParams(memory_words=64, block_words=8)


class TestWorkloads:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: sparse_random(300),
            lambda: dense_random(300),
            lambda: skewed(300),
            lambda: hub(300),
            lambda: triangle_free(300),
            lambda: planted(10, 100),
            lambda: tripartite(6),
            lambda: clique_workload(12),
            lambda: clique_with_edges(300),
        ],
    )
    def test_workloads_are_canonical_and_named(self, factory):
        workload = factory()
        check_canonical_edges(workload.edges)
        assert workload.name
        assert workload.num_edges == len(workload.edges)
        assert workload.num_edges > 0

    def test_sparse_random_is_reproducible(self):
        assert sparse_random(200).edges == sparse_random(200).edges

    def test_planted_has_exact_triangle_count(self):
        workload = planted(7, 50)
        assert count_triangles_in_memory(workload.edges) == 7

    def test_clique_with_edges_hits_target_roughly(self):
        workload = clique_with_edges(500)
        assert 350 <= workload.num_edges <= 700

    def test_hub_has_a_vertex_adjacent_to_everything(self):
        workload = hub(300)
        top_rank = max(v for edge in workload.edges for v in edge)
        hub_degree = sum(1 for u, v in workload.edges if top_rank in (u, v))
        assert hub_degree >= workload.num_edges // 4

    def test_join_instance_is_tripartite(self):
        instance = join_instance(5)
        assert instance.graph.num_vertices == 15


class TestRunner:
    def test_run_on_edges_matches_oracle(self):
        workload = sparse_random(200)
        expected = count_triangles_in_memory(workload.edges)
        for algorithm in ("cache_aware", "hu_tao_chung", "dementiev"):
            result = run_on_edges(workload.edges, algorithm, PARAMS, seed=1)
            assert result.triangle_count == expected
            assert result.total_ios == result.reads + result.writes
            assert result.num_edges == workload.num_edges

    def test_run_on_edges_cache_oblivious(self):
        workload = sparse_random(120)
        expected = count_triangles_in_memory(workload.edges)
        result = run_on_edges(workload.edges, "cache_oblivious", PARAMS, seed=1)
        assert result.triangle_count == expected
        assert result.phases is None

    def test_run_on_edges_reports_phases_for_cache_aware(self):
        workload = sparse_random(200)
        result = run_on_edges(workload.edges, "cache_aware", PARAMS, seed=1)
        assert result.phases and "triples" in result.phases

    def test_unknown_algorithm_raises(self):
        with pytest.raises(AlgorithmError):
            run_on_edges([(0, 1)], "nope", PARAMS)


class TestTables:
    def test_add_row_arity_checked(self):
        table = Table("X", "t", "c", headers=("a", "b"))
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_extraction(self):
        table = Table("X", "t", "c", headers=("a", "b"))
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]
        assert table.column("b") == ["x", "y"]

    def test_render_contains_everything(self):
        table = Table("EXPX", "some title", "some claim", headers=("col",))
        table.add_row(3.14159)
        table.add_note("a note")
        text = table.render()
        assert "EXPX" in text
        assert "some claim" in text
        assert "3.142" in text
        assert "a note" in text

    def test_to_dict_round_trip(self):
        table = Table("EXPX", "t", "c", headers=("a",))
        table.add_row(1)
        payload = table.to_dict()
        assert payload["rows"] == [[1]]
        assert payload["headers"] == ["a"]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 13
        assert list_experiments() == [f"EXP{i}" for i in range(1, 14)]

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("exp1") is EXPERIMENTS["EXP1"]

    def test_get_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("EXP99")

    def test_every_module_declares_metadata(self):
        for experiment_id, module in EXPERIMENTS.items():
            assert module.EXPERIMENT_ID == experiment_id
            assert module.TITLE
            assert module.CLAIM
            assert callable(module.run)


class TestQuickExperimentsEndToEnd:
    """Smoke-run the two fastest experiments end to end (the others are
    exercised by the benchmark harness to keep the unit suite quick)."""

    def test_exp4_lower_bound_quick(self):
        table = exp_lower_bound.run(quick=True)
        assert table.experiment_id == "EXP4"
        ratios = table.column("ratio")
        assert all(ratio >= 1 for ratio in ratios)

    def test_exp1_columns_are_monotone(self):
        table = exp_e_scaling.run(quick=True)
        ours = table.column("cache_aware")
        htc = table.column("hu_tao_chung")
        assert ours == sorted(ours)
        assert htc == sorted(htc)

    def test_exp5_family_sweep_quick(self):
        """Every workload gets one deterministic row per family size: each level
        certified (Phi/budget <= 1), charged operations growing with the family."""
        table = exp_coloring.run(quick=True)
        families = table.column("family")
        per_workload = len(exp_coloring.FAMILY_SIZES)
        assert families == list(exp_coloring.FAMILY_SIZES) * len(exp_coloring.WORKLOAD_FAMILIES)
        assert all(table.column("certified"))
        for ratios in table.column("Phi/budget by level"):
            assert all(0 < float(ratio) <= 1 for ratio in ratios.split())
        operations = table.column("operations")
        for start in range(0, len(operations), per_workload):
            row = operations[start : start + per_workload]
            assert row == sorted(row) and len(set(row)) == per_workload


class TestRunAllCli:
    def test_cli_quick_subset(self, capsys, tmp_path):
        from repro.experiments.run_all import main

        output_file = tmp_path / "results.txt"
        exit_code = main(
            [
                "--quick",
                "--results-dir",
                str(tmp_path / "results"),
                "--output",
                str(output_file),
                "EXP4",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "EXP4" in captured
        assert output_file.read_text().startswith("=== EXP4")
