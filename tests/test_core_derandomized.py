"""Tests for the deterministic cache-aware algorithm (repro.core.derandomized)."""

import math

import pytest

from repro.analysis.bounds import expected_colour_collisions
from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.derandomized import (
    _candidate_bit_tables,
    _round_up_to_power_of_two,
    deterministic_cache_aware,
    greedy_coloring,
)
from repro.core.emit import DedupCheckingSink
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import clique, erdos_renyi_gnm
from repro.hashing.coloring import TableColoring
from repro.hashing.small_bias import SmallBiasFamily


def make_machine(memory=128, block=8):
    return Machine(MachineParams(memory, block), IOStats())


class TestHelpers:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (17, 32), (64, 64)],
    )
    def test_round_up_to_power_of_two(self, value, expected):
        assert _round_up_to_power_of_two(value) == expected


class TestGreedyColoring:
    def test_produces_requested_number_of_colors(self):
        edges = erdos_renyi_gnm(60, 250, seed=0).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        coloring, levels, family_size = greedy_coloring(
            machine, edge_file, num_colors=4, total_edges=len(edges), max_family_size=64
        )
        assert isinstance(coloring, TableColoring)
        assert coloring.num_colors == 4
        assert len(levels) == 2
        assert family_size == 64
        assert all(0 <= coloring.color_of(v) < 4 for v in range(60))

    def test_single_color_needs_no_levels(self):
        machine = make_machine()
        edge_file = machine.file_from_records([(0, 1)])
        coloring, levels, family_size = greedy_coloring(
            machine, edge_file, num_colors=1, total_edges=1
        )
        assert coloring.num_colors == 1
        assert levels == []
        assert family_size == 0

    def test_deterministic_across_runs(self):
        edges = erdos_renyi_gnm(50, 200, seed=1).degree_order().edges
        colorings = []
        for _ in range(2):
            machine = make_machine()
            edge_file = machine.file_from_records(edges)
            coloring, _, _ = greedy_coloring(
                machine, edge_file, num_colors=4, total_edges=len(edges), max_family_size=64
            )
            colorings.append([coloring.color_of(v) for v in range(50)])
        assert colorings[0] == colorings[1]

    def test_balance_guarantee_x_xi_below_e_times_em(self):
        """The greedy construction should certify X_xi <= e * E * M (Section 4)."""
        edges = erdos_renyi_gnm(100, 1200, seed=2).degree_order().edges
        machine = make_machine(memory=64, block=8)
        edge_file = machine.file_from_records(edges)
        num_colors = 4
        coloring, levels, _ = greedy_coloring(
            machine, edge_file, num_colors=num_colors, total_edges=len(edges), max_family_size=64
        )
        class_sizes: dict[tuple[int, int], int] = {}
        for u, v in edges:
            pair = (coloring.color_of(u), coloring.color_of(v))
            class_sizes[pair] = class_sizes.get(pair, 0) + 1
        x_xi = sum(size * (size - 1) // 2 for size in class_sizes.values())
        bound = math.e * expected_colour_collisions(len(edges), machine.memory_size)
        assert x_xi <= bound
        assert all(level.certified for level in levels)


def _reference_potentials(edges, colors, table, level, num_colors):
    """Inequality (4)'s potential for one candidate, tallied edge pair by edge pair."""
    recoloured = {v: 2 * colors.get(v, 0) + table[v] for e in edges for v in e}
    x_adj = x_nonadj = 0
    for i, (u1, v1) in enumerate(edges):
        for u2, v2 in edges[i + 1 :]:
            same_class = (recoloured[u1], recoloured[v1]) == (recoloured[u2], recoloured[v2])
            if not same_class:
                continue
            if {u1, v1} & {u2, v2}:
                x_adj += 1
            else:
                x_nonadj += 1
    return (4.0**level) / num_colors**2 * x_nonadj + (2.0**level) / num_colors * x_adj


class TestGreedyAgainstReference:
    def test_bit_tables_use_the_field_inner_product(self):
        family = SmallBiasFamily.with_size_at_most(64)
        tables = _candidate_bit_tables(family, 40)
        assert len(tables) == family.size
        for index, table in enumerate(tables):
            bit = family.function(index)
            assert table == [bit(v) for v in range(40)]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_choices_match_pairwise_reference(self, seed):
        """Each level picks the first candidate of least potential, where the
        potential counts colliding edge pairs directly (O(E^2) per candidate)."""
        edges = erdos_renyi_gnm(30, 70, seed=seed).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        num_colors = 4
        coloring, levels, _ = greedy_coloring(
            machine, edge_file, num_colors=num_colors, total_edges=len(edges), max_family_size=16
        )
        num_vertices = 1 + max(max(e) for e in edges)
        tables = _candidate_bit_tables(SmallBiasFamily.with_size_at_most(16), num_vertices)
        colors: dict[int, int] = {}
        for level in levels:
            potentials = [
                _reference_potentials(edges, colors, table, level.level, num_colors)
                for table in tables
            ]
            best = min(potentials)
            assert level.potential == pytest.approx(best)
            assert level.chosen_candidate == potentials.index(best)
            chosen = tables[level.chosen_candidate]
            colors = {v: 2 * colors.get(v, 0) + chosen[v] for v in range(num_vertices)}
        expected = [colors[v] for v in range(num_vertices)]
        assert [coloring.color_of(v) for v in range(num_vertices)] == expected


class TestFullAlgorithm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle_on_random_graphs(self, seed):
        graph = erdos_renyi_gnm(60, 260, seed=seed)
        edges = graph.degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = deterministic_cache_aware(machine, edge_file, sink, max_family_size=64)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert report.triangles_emitted == sink.count

    def test_matches_oracle_on_clique(self):
        edges = clique(14).degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        deterministic_cache_aware(machine, edge_file, sink, max_family_size=64)
        assert sink.count == math.comb(14, 3)

    def test_is_fully_deterministic(self):
        """Two runs on the same input must produce identical I/O counts and
        identical reports -- there is no randomness left."""
        edges = erdos_renyi_gnm(70, 400, seed=5).degree_order().edges
        outcomes = []
        for _ in range(2):
            machine = make_machine(memory=64)
            edge_file = machine.file_from_records(edges)
            sink = DedupCheckingSink()
            report = deterministic_cache_aware(machine, edge_file, sink, max_family_size=64)
            outcomes.append((machine.stats.total, sink.as_set(), report.partition_sizes))
        assert outcomes[0] == outcomes[1]

    def test_number_of_colors_is_a_power_of_two(self):
        edges = erdos_renyi_gnm(80, 600, seed=3).degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        report = deterministic_cache_aware(
            machine, edge_file, DedupCheckingSink(), max_family_size=64
        )
        assert report.num_colors & (report.num_colors - 1) == 0

    def test_empty_graph(self):
        machine = make_machine()
        report = deterministic_cache_aware(machine, machine.empty_file(), DedupCheckingSink())
        assert report.triangles_emitted == 0

    def test_report_certification_flag(self):
        edges = erdos_renyi_gnm(60, 300, seed=9).degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        report = deterministic_cache_aware(
            machine, edge_file, DedupCheckingSink(), max_family_size=64
        )
        assert isinstance(report.certified, bool)
        assert report.family_size in (0, 64)
