"""Tests for the deterministic cache-aware algorithm (repro.core.derandomized)."""

import math
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import expected_colour_collisions
from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.derandomized import (
    _candidate_lanes,
    _lane_bytes,
    _round_up_to_power_of_two,
    deterministic_cache_aware,
    greedy_coloring,
)
from repro.core.emit import DedupCheckingSink
from repro.core.engine import TriangleEngine
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import chung_lu_power_law, clique, erdos_renyi_gnm
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


def _candidate_bit_tables(family, num_vertices):
    """Every family member's bit for every vertex id, one list per member."""
    gf = family.field
    tables = []
    for x in gf.elements():
        powers = []
        power = x
        for _ in range(num_vertices):
            powers.append(power)
            power = gf.multiply(power, x)
        for y in gf.elements():
            tables.append([(p & y).bit_count() & 1 for p in powers])
    return tables


def _pairs_within(counts):
    return sum(count * (count - 1) // 2 for count in counts.values())


def _reference_greedy(edges, num_colors, max_family_size):
    """The per-candidate evaluation: three ``Counter``s over every edge, per candidate.

    Returns ``(chosen_candidate, potential)`` per level and the colouring.
    """
    num_vertices = 1 + max(max(e) for e in edges)
    family = SmallBiasFamily.with_size_at_most(max(16, max_family_size))
    tables = _candidate_bit_tables(family, num_vertices)
    sources = [u for u, _ in edges]
    targets = [v for _, v in edges]
    colors = [0] * num_vertices
    levels = []
    for level in range(1, int(math.log2(num_colors)) + 1):
        scale_nonadj = (4.0**level) / float(num_colors) ** 2
        scale_adj = (2.0**level) / float(num_colors)
        shifted_u = [2 * colors[u] for u in sources]
        shifted_v = [2 * colors[v] for v in targets]
        best_index, best_potential = -1, math.inf
        for index, table in enumerate(tables):
            new_cu = list(map(add, shifted_u, map(table.__getitem__, sources)))
            new_cv = list(map(add, shifted_v, map(table.__getitem__, targets)))
            class_sizes = Counter(zip(new_cu, new_cv))
            vertex_counts = Counter(zip(sources, new_cu, new_cv))
            vertex_counts.update(zip(targets, new_cu, new_cv))
            x_adj = _pairs_within(vertex_counts)
            x_nonadj = _pairs_within(class_sizes) - x_adj
            potential = scale_nonadj * x_nonadj + scale_adj * x_adj
            if potential < best_potential:
                best_index, best_potential = index, potential
        levels.append((best_index, best_potential))
        colors = [2 * color + bit for color, bit in zip(colors, tables[best_index])]
    return levels, colors


def _run_greedy(edges, num_colors, max_family_size, memory=128):
    machine = make_machine(memory=memory)
    edge_file = machine.file_from_records(edges)
    return greedy_coloring(
        machine, edge_file, num_colors, total_edges=len(edges), max_family_size=max_family_size
    )


@st.composite
def skewed_edges(draw):
    """Small graphs where a few hubs take about half the edges.

    Hub incidence groups outgrow the pairwise comparison of every family
    size (more than 23 edges at 256 candidates) while the other vertices'
    groups stay below it.
    """
    num_vertices = draw(st.integers(6, 48))
    hubs = draw(st.integers(1, 3))
    vertex = st.integers(0, num_vertices - 1)
    draws = draw(st.lists(st.tuples(vertex, vertex, st.booleans()), min_size=1, max_size=160))
    edges = set()
    for a, b, to_hub in draws:
        u = a % hubs if to_hub else a
        if u != b:
            edges.add((min(u, b), max(u, b)))
    return sorted(edges) or [(0, 1)]


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
    @pytest.mark.parametrize("max_family_size", [16, 64])
    def test_candidate_lanes_hold_the_family_bits(self, max_family_size):
        """Lane c of spread[v] is candidate c's AGHP bit for v, past the period |F| - 1."""
        family = SmallBiasFamily.with_size_at_most(max_family_size)
        lane_bytes = _lane_bytes(70)
        spread = _candidate_lanes(family, 40, lane_bytes)
        lane_mask = (1 << (8 * lane_bytes)) - 1
        for v, packed in enumerate(spread):
            assert packed >> (8 * lane_bytes * family.size) == 0
            for index in range(family.size):
                lane = packed >> (8 * lane_bytes * index) & lane_mask
                assert lane == family.function(index)(v)

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


    @settings(max_examples=30, deadline=None)
    @given(
        edges=skewed_edges(),
        num_colors=st.sampled_from([2, 4, 8]),
        max_family_size=st.sampled_from([16, 64, 256]),
    )
    def test_lane_counters_equal_the_per_candidate_counters(
        self, edges, num_colors, max_family_size
    ):
        """Every level picks the candidate, and reports the potential, that
        the per-candidate Counter evaluation does -- exactly."""
        coloring, levels, _ = _run_greedy(edges, num_colors, max_family_size)
        expected_levels, expected_colors = _reference_greedy(edges, num_colors, max_family_size)
        assert len(levels) == len(expected_levels)
        for level, (chosen, potential) in zip(levels, expected_levels):
            assert level.chosen_candidate == chosen
            assert level.potential == potential
        assert [coloring.color_of(v) for v in range(len(expected_colors))] == expected_colors

    @pytest.mark.parametrize("num_colors", [2, 4, 8])
    @pytest.mark.parametrize("max_family_size", [16, 64, 256])
    def test_hub_graph_crosses_the_pairwise_switch(self, num_colors, max_family_size):
        """A 30-edge hub next to degree-2..4 vertices: incidence groups on both
        sides of the pairwise / lane-extraction switch at every family size."""
        hub = [(0, v) for v in range(1, 31)]
        ring = [(v, v + 1) for v in range(1, 40)] + [(v, v + 7) for v in range(5, 33, 3)]
        edges = sorted(set(hub + ring))
        degrees = Counter(w for edge in edges for w in edge)
        assert math.comb(max(degrees.values()), 2) > 256 + 30
        assert math.comb(min(degrees.values()), 2) <= 16
        coloring, levels, _ = _run_greedy(edges, num_colors, max_family_size)
        expected_levels, expected_colors = _reference_greedy(edges, num_colors, max_family_size)
        assert [(level.chosen_candidate, level.potential) for level in levels] == expected_levels
        assert [coloring.color_of(v) for v in range(len(expected_colors))] == expected_colors


#: ``deterministic`` at c = 8 (three greedy levels) and the full 256-member
#: family on a 1k-edge Chung-Lu graph, recorded from the per-candidate
#: ``Counter`` evaluation: per level ``(chosen_candidate, potential)``, then
#: the triangle count and ``(reads, writes, operations)``.
MULTI_LEVEL_PINS = {
    7: ([(157, 8843.8125), (147, 8475.5), (149, 7899.0)], 224, (3671, 593, 812843)),
    8: ([(33, 8830.25), (46, 8554.25), (38, 8317.0)], 197, (3671, 593, 812861)),
}


class TestMultiLevelPins:
    @pytest.mark.parametrize("seed", sorted(MULTI_LEVEL_PINS))
    def test_three_levels_match_the_recorded_answer(self, seed):
        levels, triangles, io = MULTI_LEVEL_PINS[seed]
        engine = TriangleEngine(chung_lu_power_law(500, 1000, seed=seed))
        result = engine.run(
            "deterministic", params=MachineParams(256, 16), num_colors=8, max_family_size=256
        )
        assert [(l.chosen_candidate, l.potential) for l in result.report.levels] == levels
        assert all(level.certified for level in result.report.levels)
        assert result.triangle_count == triangles
        assert (result.io.reads, result.io.writes, result.io.operations) == io


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
