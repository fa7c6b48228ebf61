"""Tests for the experiment harness (repro.experiments) and the paper's shapes.

``TestPaperShapes`` runs every registered experiment in quick mode and
asserts the shape of the paper claim its table reproduces: Theorem 4
against Hu et al. (EXP1, EXP2), Theorem 1's growth (EXP3), Theorem 3's
tightness (EXP4), Lemmas 3 and 4 (EXP5, EXP6) and the extensions after
them.  Wall-clock columns (EXP13's speedup) are never asserted.
"""

from functools import cache

import pytest

from repro.experiments import exp_coloring
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


@cache
def _quick(experiment_id):
    """One quick run per experiment, shared by every test that reads its table."""
    return EXPERIMENTS[experiment_id].run(quick=True)


class TestQuickExperimentsEndToEnd:
    """Column-level checks of three quick experiment tables."""

    def test_exp4_lower_bound_quick(self):
        table = _quick("EXP4")
        assert table.experiment_id == "EXP4"
        ratios = table.column("ratio")
        assert all(ratio >= 1 for ratio in ratios)

    def test_exp1_columns_are_monotone(self):
        table = _quick("EXP1")
        ours = table.column("cache_aware")
        htc = table.column("hu_tao_chung")
        assert ours == sorted(ours)
        assert htc == sorted(htc)

    def test_exp5_family_sweep_quick(self):
        """Every workload gets one deterministic row per family size: each level
        certified (Phi/budget <= 1), charged operations growing with the family."""
        table = _quick("EXP5")
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


def exp1_e_scaling(table):
    """Theorem 4 against Hu et al.: the sqrt(E/M) separation widens with E."""
    edge_counts = table.column("E")
    ours = table.column("cache_aware")
    hu_tao_chung = table.column("hu_tao_chung")
    assert edge_counts == sorted(edge_counts)
    # Hu-Tao-Chung grows faster than our algorithm, so the ratio ours/htc
    # must shrink as E grows.
    assert ours[-1] / hu_tao_chung[-1] < ours[0] / hu_tao_chung[0]
    # The cubic BNLJ baseline is far worse than everything else at the
    # largest size it was run on.
    bnlj = [value for value in table.column("bnlj") if value != "-"]
    assert bnlj[-1] > 10 * ours[len(bnlj) - 1]


def exp2_m_scaling(table):
    """The sqrt(M) improvement factor: Hu et al. gains from memory faster."""
    ours = table.column("cache_aware")
    hu_tao_chung = table.column("hu_tao_chung")
    # More memory never hurts either algorithm.
    assert ours == sorted(ours, reverse=True)
    assert hu_tao_chung == sorted(hu_tao_chung, reverse=True)
    # Hu-Tao-Chung benefits from memory about twice as fast (M^-1 against
    # M^-1/2): from the smallest to the largest M its I/Os shrink by more.
    assert hu_tao_chung[0] / hu_tao_chung[-1] > ours[0] / ours[-1]


def exp3_cache_oblivious(tables):
    """Theorem 1 under LRU: growth in E far below quadratic, regular in M."""
    e_table, m_table = tables
    ios = e_table.column("cache_oblivious")
    edges = e_table.column("E")
    assert ios == sorted(ios)
    assert ios[-1] / ios[0] < (edges[-1] / edges[0]) ** 2
    # More cache never hurts, and the regularity ratio Q(M)/Q(2M) stays
    # bounded by a small constant.
    m_ios = m_table.column("cache_oblivious")
    assert m_ios == sorted(m_ios, reverse=True)
    ratios = [value for value in m_table.column("Q(M)/Q(2M)") if value != "-"]
    assert all(ratio < 8 for ratio in ratios)


def exp4_lower_bound(table):
    """Theorem 3: never below the lower bound, and within a constant band of it."""
    ratios = table.column("ratio")
    assert all(ratio >= 1 for ratio in ratios)
    # The spread between the best and worst ratio stays small even as t
    # grows by about 10x.
    assert max(ratios) / min(ratios) < 3


def exp5_coloring(table):
    """Lemma 3 and Section 4: the collision statistic stays O(E M)."""
    # The seed-averaged statistic stays at or below E*M (1.0 in the
    # table's normalised units), with slack for the finite number of seeds.
    assert all(value <= 1.2 for value in table.column("mean X/EM (random)"))
    # The deterministic colouring stays below e * E * M, certified per level.
    assert all(value <= 2.72 for value in table.column("X/EM (deterministic)"))
    assert all(table.column("certified"))


def exp6_recursion(table):
    """Lemma 4: the mean subproblem size decays geometrically with depth."""
    means = table.column("mean size")
    assert means == sorted(means, reverse=True)
    # From level 2 onwards the per-level decay factor is well below 1/2.
    decays = [value for value in table.column("decay vs previous") if value != "-"]
    assert all(decay < 0.75 for decay in decays)
    assert all(decay < 0.5 for decay in decays[1:])


def exp7_output_sensitivity(table):
    """The upper bound depends on E only; the lower bound on t."""
    triangles = table.column("t")
    ios = table.column("cache_aware I/O")
    ratios = [value for value in table.column("I/O / bound") if value != "-"]
    # From triangle-free to clique the measured I/Os stay within a small
    # band, while the gap to the output-sensitive bound shrinks in t.
    assert max(ios) / min(ios) < 3
    assert ratios[-1] < ratios[0] / 10
    assert max(triangles) > 100 * max(1, min(t for t in triangles if t > 0))


def exp8_join(table):
    """The 3-way cyclic join via triangles: correct, and ahead of BNLJ."""
    assert all(table.column("correct"))
    # The gap to the block-nested-loop plan exceeds 1 and widens with size.
    gaps = [b / o for o, b in zip(table.column("cache_aware I/O"), table.column("bnlj I/O"))]
    assert all(gap > 1 for gap in gaps)
    assert gaps[-1] > gaps[0]


def exp9_work(table):
    """The cache-aware algorithm's work grows like E^{3/2}."""
    normalised = [
        value
        for algorithm, value in zip(table.column("algorithm"), table.column("operations / E^1.5"))
        if algorithm == "cache_aware"
    ]
    assert max(normalised) / min(normalised) < 2.5
    assert all(value < 10 for value in normalised)


def exp10_ablation(table):
    """Skipping the high-degree phase hurts on hubs and is a no-op elsewhere."""
    assert all(table.column("triangles agree"))
    rows = zip(
        table.column("workload"),
        table.column("full algo colour-phase I/O"),
        table.column("ablated colour-phase I/O"),
        table.column("full X/EM"),
        table.column("ablated X/EM"),
    )
    for name, full_io, ablated_io, full_x, ablated_x in rows:
        if name.startswith("hub"):
            assert ablated_x > 1.5 * full_x
            assert ablated_io > 1.5 * full_io
        else:
            assert abs(ablated_x - full_x) < 1e-9


def exp11_kclique(table):
    """Section 6: k-clique I/Os grow with E far below the naive E^k join."""
    rows = list(zip(table.column("E"), table.column("k"), table.column("I/Os")))
    by_k = {}
    for num_edges, k, ios in rows:
        by_k.setdefault(k, []).append((num_edges, ios))
    for series in by_k.values():
        series.sort()
        ios = [value for _, value in series]
        assert ios == sorted(ios)
        assert ios[-1] / ios[0] < (series[-1][0] / series[0][0]) ** 3
    # 4-cliques cost at least as much as triangles on the same input.
    for num_edges in set(table.column("E")):
        k3 = next(i for e, k, i in rows if e == num_edges and k == 3)
        k4 = next(i for e, k, i in rows if e == num_edges and k == 4)
        assert k4 >= k3


def exp12_multilevel(table):
    """One run on a multilevel LRU hierarchy gives every level's own count."""
    assert all(table.column("match"))
    # Larger levels never see more I/Os (LRU inclusion plus regularity).
    ios = table.column("I/Os (multilevel run)")
    ordered = [io for _, io in sorted(zip(table.column("M (words)"), ios))]
    assert ordered == sorted(ordered, reverse=True)


def exp13_fastpath(table):
    """in_memory, vector_count and vector_enum count the same triangles."""
    assert table.rows
    assert table.column("parity") == ["ok"] * len(table.rows)


#: Experiment id -> the shape check of its quick table(s).
SHAPE_CHECKS = {
    "EXP1": exp1_e_scaling,
    "EXP2": exp2_m_scaling,
    "EXP3": exp3_cache_oblivious,
    "EXP4": exp4_lower_bound,
    "EXP5": exp5_coloring,
    "EXP6": exp6_recursion,
    "EXP7": exp7_output_sensitivity,
    "EXP8": exp8_join,
    "EXP9": exp9_work,
    "EXP10": exp10_ablation,
    "EXP11": exp11_kclique,
    "EXP12": exp12_multilevel,
    "EXP13": exp13_fastpath,
}


class TestPaperShapes:
    @pytest.mark.parametrize("experiment_id", list_experiments())
    def test_quick_table_has_the_claimed_shape(self, experiment_id):
        SHAPE_CHECKS[experiment_id](_quick(experiment_id))


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
