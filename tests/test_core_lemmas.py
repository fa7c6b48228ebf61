"""Tests for the paper's subroutines: Lemma 1 and Lemma 2."""

from collections import Counter
from itertools import groupby
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import sort_io
from repro.analysis.model import MachineParams
from repro.core import lemma2
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.emit import DedupCheckingSink, emit_all, sorted_triangle
from repro.core.lemma1 import triangles_through_vertex
from repro.core.lemma2 import DEFAULT_MEMORY_FRACTION, triangles_with_pivot_in
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import clique, erdos_renyi_gnm
from repro.graph.graph import Graph


def make_machine(memory=64, block=8):
    return Machine(MachineParams(memory, block), IOStats())


def oracle_through_vertex(edges, vertex):
    return {t for t in triangles_in_memory(edges) if vertex in t}


def oracle_with_pivot_in(edges, pivot_edges):
    pivots = set(pivot_edges)
    return {t for t in triangles_in_memory(edges) if (t[1], t[2]) in pivots}


class TestLemma1:
    def test_enumerates_triangles_through_vertex(self):
        graph = erdos_renyi_gnm(40, 150, seed=2)
        edges = graph.degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        for vertex in (0, 10, 25, 39):
            sink = DedupCheckingSink()
            triangles_through_vertex(machine, [edge_file], vertex, sink)
            assert sink.as_set() == oracle_through_vertex(edges, vertex)

    def test_vertex_with_no_triangles(self):
        edges = [(0, 1), (1, 2), (2, 3)]  # a path
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        count = triangles_through_vertex(machine, [edge_file], 1, sink)
        assert count == 0
        assert sink.count == 0

    def test_excluded_vertices_suppress_their_triangles(self):
        # two triangles sharing the edge (3, 4): {2,3,4} and {1,3,4}
        edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_through_vertex(machine, [edge_file], 3, sink, excluded=frozenset({2}))
        assert sink.as_set() == {(1, 3, 4)}

    def test_excluded_target_vertex_returns_nothing(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        assert triangles_through_vertex(machine, [edge_file], 0, sink, excluded={0}) == 0

    def test_triangle_filter_applied(self):
        edges = clique(6).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_through_vertex(
            machine, [edge_file], 0, sink, triangle_filter=lambda t: t[2] == 5
        )
        assert all(t[2] == 5 and t[0] == 0 for t in sink.as_set())

    def test_multiple_sources_equivalent_to_union(self):
        edges = clique(8).degree_order().edges
        machine = make_machine()
        first = machine.file_from_records(edges[: len(edges) // 2])
        second = machine.file_from_records(edges[len(edges) // 2 :])
        sink = DedupCheckingSink()
        triangles_through_vertex(machine, [first, second], 2, sink)
        assert sink.as_set() == oracle_through_vertex(edges, 2)

    def test_io_cost_within_constant_of_sort(self):
        """Lemma 1 promises O(sort(E)) I/Os."""
        graph = erdos_renyi_gnm(120, 2000, seed=5)
        edges = graph.degree_order().edges
        params = MachineParams(128, 16)
        machine = Machine(params, IOStats())
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_through_vertex(machine, [edge_file], 60, sink)
        assert machine.stats.total <= 20 * sort_io(len(edges), params)

    def test_temporary_files_cleaned_up(self):
        edges = clique(10).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        live_before = set(machine.disk.files)
        triangles_through_vertex(machine, [edge_file], 3, DedupCheckingSink())
        assert set(machine.disk.files) == live_before


class TestLemma2:
    def test_pivot_set_equal_to_edges_enumerates_everything(self):
        graph = erdos_renyi_gnm(50, 220, seed=9)
        edges = graph.degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        count = triangles_with_pivot_in(machine, edge_file, [edge_file], sink)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert count == len(sink.as_set())

    def test_restricted_pivot_set(self):
        edges = clique(9).degree_order().edges
        pivot_edges = edges[::3]
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        pivot_file = machine.file_from_records(pivot_edges)
        sink = DedupCheckingSink()
        triangles_with_pivot_in(machine, pivot_file, [edge_file], sink)
        assert sink.as_set() == oracle_with_pivot_in(edges, pivot_edges)

    def test_empty_pivot_set(self):
        edges = clique(5).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        empty = machine.empty_file()
        assert triangles_with_pivot_in(machine, empty, [edge_file], DedupCheckingSink()) == 0

    def test_cone_filter_restricts_cone_vertices(self):
        edges = clique(8).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_with_pivot_in(
            machine, edge_file, [edge_file], sink, cone_filter=lambda v: v < 2
        )
        expected = {t for t in triangles_in_memory(edges) if t[0] < 2}
        assert sink.as_set() == expected

    def test_triangle_filter(self):
        edges = clique(7).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_with_pivot_in(
            machine, edge_file, [edge_file], sink, triangle_filter=lambda t: sum(t) % 2 == 0
        )
        expected = {t for t in triangles_in_memory(edges) if sum(t) % 2 == 0}
        assert sink.as_set() == expected

    def test_multiple_adjacency_sources(self):
        """Splitting the (sorted) edge set into consecutive sorted slices must not
        change the outcome -- this is how the colour-class iteration uses it."""
        edges = clique(10).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        third = len(edges) // 3
        sources = [
            edge_file.slice(0, third),
            edge_file.slice(third, 2 * third),
            edge_file.slice(2 * third, len(edges)),
        ]
        # NOTE: slices of a lexicographically sorted file are themselves sorted.
        sink = DedupCheckingSink()
        triangles_with_pivot_in(machine, edge_file, sources, sink)
        assert sink.as_set() == set(triangles_in_memory(edges))

    def test_invalid_memory_fraction_rejected(self):
        machine = make_machine()
        edge_file = machine.file_from_records([(0, 1)])
        with pytest.raises(ValueError):
            triangles_with_pivot_in(
                machine, edge_file, [edge_file], DedupCheckingSink(), memory_fraction=0.9
            )

    def test_io_scales_with_pivot_batches(self):
        """Halving memory should roughly double the I/Os (the E'E/(MB) term)."""
        graph = erdos_renyi_gnm(150, 3000, seed=3)
        edges = graph.degree_order().edges
        totals = {}
        for memory in (512, 256, 128):
            machine = Machine(MachineParams(memory, 16), IOStats())
            edge_file = machine.file_from_records(edges)
            triangles_with_pivot_in(machine, edge_file, [edge_file], DedupCheckingSink())
            totals[memory] = machine.stats.total
        assert totals[256] >= 1.5 * totals[512]
        assert totals[128] >= 1.5 * totals[256]


# ----------------------------------------------------------------------
# Lemma 2 differential oracle: the group-at-a-time stream
# ----------------------------------------------------------------------
def reference_triangles_with_pivot_in(
    machine,
    pivot_source,
    adjacency_sources,
    sink,
    cone_filter=None,
    triangle_filter=None,
    spectator_sources=(),
):
    """Lemma 2 as the paper streams it: one cone-vertex group at a time.

    Each adjacency source is grouped by cone vertex ``v`` (stitched across
    block boundaries), the per-source groups are merged by ``v``, and each
    ``Gamma_v`` probes the closing lists of the memory-resident batch;
    spectators are scanned block by block.  The production join must match
    its triangles and its counters.
    """
    batch_size = max(1, int(DEFAULT_MEMORY_FRACTION * machine.memory_size))
    emitted = 0
    position = 0
    while position < len(pivot_source):
        count = min(batch_size, len(pivot_source) - position)
        batch = machine.load(pivot_source, position, count)
        for spectator in spectator_sources:
            for block in machine.scan_blocks(spectator):
                machine.stats.charge_operations(len(block))
        emitted += _reference_batch(
            machine, batch, adjacency_sources, sink, cone_filter, triangle_filter
        )
        position += count
    return emitted


def _reference_batch(machine, batch, adjacency_sources, sink, cone_filter, triangle_filter):
    batch_endpoints = set()
    batch_adjacency = {}
    for u, w in batch:
        batch_endpoints.add(u)
        batch_endpoints.add(w)
        batch_adjacency.setdefault(u, []).append(w)
    machine.stats.charge_operations(len(batch))

    operations = 0
    triangles = []
    for v, gamma in _merged_groups(machine, adjacency_sources, batch_endpoints):
        if cone_filter is not None and not cone_filter(v):
            continue
        gamma_set = set(gamma)
        for u in gamma:
            closing = batch_adjacency.get(u)
            if not closing:
                continue
            operations += len(closing)
            triangles.extend(sorted_triangle(v, u, w) for w in closing if w in gamma_set)
    machine.stats.charge_operations(operations)
    if triangle_filter is not None:
        triangles = [t for t in triangles if triangle_filter(t)]
    emit_all(sink, triangles)
    return len(triangles)


def _groups(machine, readable, batch_endpoints):
    """``(cone vertex, batch-touching neighbours)`` of one sorted source."""
    current_vertex = None
    current_gamma = []
    for block in machine.scan_blocks(readable):
        machine.stats.charge_operations(len(block))
        candidates = [edge for edge in block if edge[1] in batch_endpoints]
        for v, group in groupby(candidates, key=itemgetter(0)):
            gamma = [u for _, u in group]
            if v == current_vertex:
                current_gamma.extend(gamma)
            else:
                if current_gamma:
                    yield current_vertex, current_gamma
                current_vertex = v
                current_gamma = gamma
    if current_gamma:
        yield current_vertex, current_gamma


def _merged_groups(machine, sources, batch_endpoints):
    """Merge the per-source group streams by cone vertex."""
    streams = [_groups(machine, source, batch_endpoints) for source in sources]
    heads = [next(stream, None) for stream in streams]
    while True:
        live = [head[0] for head in heads if head is not None]
        if not live:
            return
        vertex = min(live)
        gamma = []
        for index, head in enumerate(heads):
            if head is not None and head[0] == vertex:
                gamma.extend(head[1])
                heads[index] = next(streams[index], None)
        yield vertex, gamma


class BatchMarkingMachine(Machine):
    """A machine that logs a ``None`` marker each time a pivot batch loads."""

    def __init__(self, params, log):
        super().__init__(params, IOStats())
        self.log = log

    def load(self, readable, start=0, count=None):
        self.log.append(None)
        return super().load(readable, start, count)


class DeliveryLog:
    """A sink recording each delivery (one ``emit_many`` call) as a list."""

    def __init__(self, log):
        self.log = log

    def emit(self, a, b, c):
        self.log.append([(a, b, c)])

    def emit_many(self, triangles):
        self.log.append(list(triangles))


@st.composite
def lemma2_inputs(draw):
    """A canonical edge set, a pivot subset and a split into sources."""
    num_vertices = draw(st.integers(min_value=3, max_value=11))
    pairs = [(a, b) for a in range(num_vertices) for b in range(a + 1, num_vertices)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph(edges=[p for p, k in zip(pairs, keep) if k], vertices=range(num_vertices))
    edges = graph.degree_order().edges
    # A random pivot subset in random order (Lemma 2 takes E' in any order).
    chosen = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    pivots = draw(st.permutations([e for e, c in zip(edges, chosen) if c]))
    num_adjacency = draw(st.integers(min_value=1, max_value=3))
    num_spectators = draw(st.integers(min_value=0, max_value=2))
    parts = num_adjacency + num_spectators
    owner = draw(st.lists(st.integers(0, parts - 1), min_size=len(edges), max_size=len(edges)))
    split = [sorted(e for e, o in zip(edges, owner) if o == part) for part in range(parts)]
    return edges, pivots, split[:num_adjacency], split[num_adjacency:]


class TestLemma2MatchesGroupStream:
    """The hash join emits and charges exactly what the group stream does."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        inputs=lemma2_inputs(),
        memory=st.sampled_from([8, 16, 32, 64]),
        block=st.sampled_from([1, 2, 4]),
        cone_mod=st.sampled_from([None, 2, 3]),
        triangle_mod=st.sampled_from([None, 2, 3]),
        emit_batch=st.sampled_from([1, 2, 4096]),
    )
    def test_join_matches_reference(
        self, inputs, memory, block, cone_mod, triangle_mod, emit_batch
    ):
        edges, pivots, adjacency, spectators = inputs
        params = MachineParams(memory, block)
        cone_filter = None if cone_mod is None else (lambda v: v % cone_mod != 0)
        triangle_filter = None if triangle_mod is None else (lambda t: sum(t) % triangle_mod != 0)

        def run(function, machine, sink):
            pivot_file = machine.file_from_records(pivots)
            sources = [machine.file_from_records(part) for part in adjacency]
            if function is reference_triangles_with_pivot_in:
                spectator = {
                    "spectator_sources": [machine.file_from_records(p) for p in spectators]
                }
            else:
                spectator = {"spectator_lengths": [len(part) for part in spectators]}
            emitted = function(
                machine,
                pivot_file,
                sources,
                sink,
                cone_filter=cone_filter,
                triangle_filter=triangle_filter,
                **spectator,
            )
            stats = machine.stats
            return emitted, (stats.reads, stats.writes, stats.operations)

        log = []
        with mock.patch.object(lemma2, "_EMIT_BATCH", emit_batch):
            emitted, counters = run(
                triangles_with_pivot_in, BatchMarkingMachine(params, log), DeliveryLog(log)
            )
        reference_log = []
        reference_emitted, reference_counters = run(
            reference_triangles_with_pivot_in,
            Machine(params, IOStats()),
            DeliveryLog(reference_log),
        )

        triangles = [t for delivery in log if delivery is not None for t in delivery]
        reference = [t for delivery in reference_log for t in delivery]
        assert Counter(triangles) == Counter(reference)
        assert counters == reference_counters
        assert emitted == reference_emitted == len(triangles)

        # Independent of both evaluations: pivot in E', both other edges
        # in a (non-spectator) adjacency source, both filters passed.
        pivot_set = set(pivots)
        adjacent = {edge for part in adjacency for edge in part}
        expected = {
            (v, u, w)
            for v, u, w in triangles_in_memory(edges)
            if (u, w) in pivot_set
            and (v, u) in adjacent
            and (v, w) in adjacent
            and (cone_filter is None or cone_filter(v))
            and (triangle_filter is None or triangle_filter((v, u, w)))
        }
        assert Counter(triangles) == Counter(expected)

        assert all(v < u < w for v, u, w in triangles)
        batches = [[]]
        for delivery in log:
            if delivery is None:
                batches.append([])
            else:
                assert 0 < len(delivery) <= emit_batch
                batches[-1].extend(delivery)
        assert not batches[0]  # nothing is delivered before the first batch
        for delivered in batches:
            assert delivered == sorted(delivered)
