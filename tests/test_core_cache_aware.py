"""Tests for the randomized cache-aware algorithm (repro.core.cache_aware)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import expected_colour_collisions, high_degree_threshold
from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.cache_aware import (
    cache_aware_randomized,
    compute_degrees,
    enumerate_colored_triples,
    find_high_degree_vertices,
    high_degree_phase,
    partition_by_coloring,
)
from repro.core.emit import DedupCheckingSink
from repro.core.ordering import degrees_from_edges
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import barabasi_albert, clique, erdos_renyi_gnm, planted_triangles
from repro.hashing.coloring import ConstantColoring, RandomColoring, TableColoring
from repro.hashing.coloring import colors_of as bulk_colors


def make_machine(memory=128, block=8):
    return Machine(MachineParams(memory, block), IOStats())


class TestBuildingBlocks:
    def test_compute_degrees_matches_in_memory(self):
        edges = erdos_renyi_gnm(60, 200, seed=1).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        degree_file = compute_degrees(machine, edge_file)
        external = dict(machine.load(degree_file, 0, min(len(degree_file), 128)))
        expected = degrees_from_edges(edges)
        for vertex, degree in external.items():
            assert expected[vertex] == degree

    def test_find_high_degree_vertices_threshold(self):
        # A star graph: the hub has the top rank and a huge degree.
        hub_edges = [(i, 40) for i in range(40)]
        machine = make_machine()
        edge_file = machine.file_from_records(sorted(hub_edges))
        high = find_high_degree_vertices(machine, edge_file, threshold=10)
        assert high == [40]
        assert find_high_degree_vertices(machine, edge_file, threshold=100) == []

    def test_high_degree_phase_emits_hub_triangles_once(self):
        # Wheel-like graph: hub 20 connected to a cycle of 20 low-degree vertices.
        edges = []
        for i in range(20):
            edges.append((i, 20))
            edges.append(tuple(sorted((i, (i + 1) % 20))))
        edges = sorted(set(edges))
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        high, low_file, emitted = high_degree_phase(machine, edge_file, sink, threshold=10)
        assert high == [20]
        assert emitted == 20  # one triangle per cycle edge
        # E_l must not contain any edge incident to the hub.
        assert all(20 not in edge for edge in machine.load(low_file, 0, len(low_file)))

    def test_high_degree_phase_without_high_degree_vertices_copies_edges(self):
        edges = erdos_renyi_gnm(30, 60, seed=0).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        high, low_file, emitted = high_degree_phase(machine, edge_file, sink, threshold=10**9)
        assert high == []
        assert emitted == 0
        assert len(low_file) == len(edges)

    def test_partition_by_coloring_is_a_partition(self):
        edges = erdos_renyi_gnm(50, 200, seed=7).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        coloring = RandomColoring(3, seed=4)
        partitioned, slices, sizes = partition_by_coloring(machine, edge_file, coloring)
        assert sum(sizes.values()) == len(edges)
        seen = []
        for pair, view in slices.items():
            for u, v in view._read_range(0, len(view)):
                assert (coloring.color_of(u), coloring.color_of(v)) == pair
                seen.append((u, v))
        assert sorted(seen) == sorted(edges)

    def test_partition_slices_are_lexicographically_sorted(self):
        edges = clique(12).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        coloring = RandomColoring(2, seed=0)
        _, slices, _ = partition_by_coloring(machine, edge_file, coloring)
        for view in slices.values():
            records = view._read_range(0, len(view))
            assert records == sorted(records)

    def test_enumerate_colored_triples_covers_all_low_degree_triangles(self):
        edges = erdos_renyi_gnm(40, 160, seed=11).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        coloring = RandomColoring(3, seed=5)
        _, slices, _ = partition_by_coloring(machine, edge_file, coloring)
        sink = DedupCheckingSink()
        emitted = enumerate_colored_triples(machine, slices, coloring, sink)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert emitted == len(sink.as_set())


class TestFullAlgorithm:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_oracle_on_random_graphs(self, seed):
        graph = erdos_renyi_gnm(60, 240, seed=seed)
        edges = graph.degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = cache_aware_randomized(machine, edge_file, sink, seed=seed)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert report.triangles_emitted == sink.count

    def test_matches_oracle_on_clique(self):
        edges = clique(16).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = cache_aware_randomized(machine, edge_file, sink, seed=1)
        assert sink.count == math.comb(16, 3)
        assert report.triangles_emitted == math.comb(16, 3)

    def test_matches_oracle_on_skewed_graph(self):
        graph = barabasi_albert(150, 4, seed=2)
        edges = graph.degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = cache_aware_randomized(machine, edge_file, sink, seed=7)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert report.triangles_emitted == sink.count

    def test_hub_graph_triggers_high_degree_phase(self):
        """A hub adjacent to everything exceeds the sqrt(E*M) threshold and
        must be handled by the Lemma 1 phase, not the colour partitions."""
        graph = erdos_renyi_gnm(120, 240, seed=2)
        for vertex in range(120):
            graph.add_edge(vertex, 200)  # the hub
        edges = graph.degree_order().edges
        machine = make_machine(memory=16, block=8)
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = cache_aware_randomized(machine, edge_file, sink, seed=7)
        assert sink.as_set() == set(triangles_in_memory(edges))
        # The hub's rank is the largest one (highest degree).
        assert report.high_degree_vertices
        assert report.high_degree_triangles > 0

    def test_triangle_free_graph_emits_nothing(self):
        edges = planted_triangles(0, filler_bipartite_edges=120, seed=1).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = cache_aware_randomized(machine, edge_file, sink, seed=0)
        assert report.triangles_emitted == 0

    def test_empty_graph(self):
        machine = make_machine()
        edge_file = machine.empty_file()
        report = cache_aware_randomized(machine, edge_file, DedupCheckingSink())
        assert report.triangles_emitted == 0
        assert report.num_colors == 1

    def test_report_partition_sizes_cover_low_degree_edges(self):
        graph = erdos_renyi_gnm(80, 400, seed=3)
        edges = graph.degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        report = cache_aware_randomized(machine, edge_file, DedupCheckingSink(), seed=5)
        threshold = high_degree_threshold(len(edges), machine.memory_size)
        degrees = degrees_from_edges(edges)
        low_degree_edges = [
            e for e in edges if degrees[e[0]] <= threshold and degrees[e[1]] <= threshold
        ]
        assert sum(report.partition_sizes.values()) == len(low_degree_edges)

    def test_x_xi_is_usually_below_lemma3_bound(self):
        """Lemma 3 bounds E[X_xi] by E*M; a fixed seed should land well below a
        small multiple of that bound (the statistic concentrates)."""
        graph = erdos_renyi_gnm(120, 1500, seed=4)
        edges = graph.degree_order().edges
        machine = make_machine(memory=64, block=8)
        edge_file = machine.file_from_records(edges)
        report = cache_aware_randomized(machine, edge_file, DedupCheckingSink(), seed=13)
        assert report.x_xi <= 4 * expected_colour_collisions(len(edges), machine.memory_size)

    def test_explicit_colour_override(self):
        edges = clique(12).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = cache_aware_randomized(machine, edge_file, sink, seed=2, num_colors=3)
        assert report.num_colors == 3
        assert sink.count == math.comb(12, 3)

    def test_phases_recorded(self):
        edges = erdos_renyi_gnm(50, 200, seed=6).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        cache_aware_randomized(machine, edge_file, DedupCheckingSink(), seed=0)
        assert {"high-degree", "partition", "triples"} <= set(machine.stats.phases)

    def test_input_file_not_modified(self):
        edges = clique(10).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        cache_aware_randomized(machine, edge_file, DedupCheckingSink(), seed=0)
        assert machine.load(edge_file, 0, len(edges)) == edges

    def test_disk_space_stays_linear(self):
        """Theorem 4 also claims O(E) words on disk."""
        edges = erdos_renyi_gnm(120, 2000, seed=8).degree_order().edges
        machine = make_machine(memory=128, block=16)
        edge_file = machine.file_from_records(edges)
        cache_aware_randomized(machine, edge_file, DedupCheckingSink(), seed=3)
        assert machine.disk.peak_words <= 8 * len(edges)


# ----------------------------------------------------------------------
# Partition differential oracle: the block-scan class boundaries
# ----------------------------------------------------------------------
def reference_partition_by_coloring(machine, low_degree_edges, coloring):
    """Sort by colour pair, then find the class bounds in a block scan.

    The scan colours every block again and charges one read per block and
    one operation per record.  The production partition must match its
    slices, sizes, counters and disk peak.
    """

    def sort_key(edge):
        u, v = edge
        return (coloring.color_of(u), coloring.color_of(v), u, v)

    partitioned = machine.sort(low_degree_edges, key=sort_key)
    slices, sizes = {}, {}
    current, start, index = None, 0, 0
    for block in machine.scan_blocks(partitioned):
        machine.stats.charge_operations(len(block))
        colors_u = bulk_colors(coloring, [edge[0] for edge in block])
        colors_v = bulk_colors(coloring, [edge[1] for edge in block])
        for pair, group in itertools.groupby(zip(colors_u, colors_v)):
            group_size = sum(1 for _ in group)
            if pair != current:
                if current is not None:
                    slices[current] = partitioned.slice(start, index)
                    sizes[current] = index - start
                current, start = pair, index
            index += group_size
    if current is not None:
        slices[current] = partitioned.slice(start, index)
        sizes[current] = index - start
    return partitioned, slices, sizes


def _partition_run(function, params, edges, coloring):
    machine = Machine(params, IOStats())
    edge_file = machine.file_from_records(edges)
    partitioned, slices, sizes = function(machine, edge_file, coloring)
    views = {
        pair: (view.start, view.stop, view._read_range(0, len(view)))
        for pair, view in slices.items()
    }
    stats = machine.stats
    return (
        partitioned._read_range(0, len(partitioned)),
        views,
        sizes,
        (stats.reads, stats.writes, stats.operations),
        machine.disk.peak_words,
    )


class TestPartitionMatchesBlockScan:
    @settings(max_examples=60, deadline=None)
    @given(
        num_vertices=st.integers(min_value=3, max_value=40),
        data=st.data(),
        memory_blocks=st.integers(min_value=2, max_value=6),
        block=st.sampled_from([1, 2, 4, 8]),
        num_colors=st.integers(min_value=1, max_value=5),
        used=st.integers(min_value=1, max_value=5),
    )
    def test_random_coloring_with_empty_classes(
        self, num_vertices, data, memory_blocks, block, num_colors, used
    ):
        pairs = [(a, b) for a in range(num_vertices) for b in range(a + 1, num_vertices)]
        edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=150)))
        # Colours drawn from the first ``used`` of ``num_colors``: the rest
        # stay empty, and so do the classes that involve them.
        table = {
            v: data.draw(st.integers(0, min(used, num_colors) - 1))
            for v in range(num_vertices)
        }
        coloring = TableColoring(table, num_colors)
        params = MachineParams(memory_blocks * block, block)
        result = _partition_run(partition_by_coloring, params, edges, coloring)
        reference = _partition_run(reference_partition_by_coloring, params, edges, coloring)
        assert result == reference
        assert list(result[2]) == sorted(result[2])

    @pytest.mark.parametrize("memory,block", [(8, 2), (32, 4), (128, 8)])
    def test_constant_coloring(self, memory, block):
        edges = erdos_renyi_gnm(40, 150, seed=3).degree_order().edges
        params = MachineParams(memory, block)
        result = _partition_run(partition_by_coloring, params, edges, ConstantColoring())
        reference = _partition_run(
            reference_partition_by_coloring, params, edges, ConstantColoring()
        )
        assert result == reference
        assert result[2] == {(0, 0): len(edges)}

    def test_empty_input(self):
        params = MachineParams(16, 4)
        coloring = RandomColoring(3, seed=1)
        result = _partition_run(partition_by_coloring, params, [], coloring)
        assert result == _partition_run(reference_partition_by_coloring, params, [], coloring)
        assert result[1] == {} and result[2] == {}
