"""Section 2: the randomized cache-aware triangle-enumeration algorithm.

The algorithm (Theorem 4) runs in three steps:

1. **High-degree phase.**  Vertices with degree above ``sqrt(E * M)`` form
   ``V_h`` (fewer than ``sqrt(E/M)`` of them).  For each, all triangles
   containing it are enumerated with the Lemma 1 subroutine, after which its
   edges are conceptually removed; the remaining edges form ``E_l``.
2. **Colouring.**  A 4-wise independent colouring ``xi`` with
   ``c = sqrt(E/M)`` colours partitions ``E_l`` into ``c^2`` classes
   ``E_{tau1,tau2}`` by the colours of the (degree-ordered) endpoints.
3. **Triple enumeration.**  For every colour triple ``(tau1, tau2, tau3)``
   the Lemma 2 subroutine is invoked with pivot set ``E_{tau2,tau3}`` and
   edge set ``E_{tau1,tau2} ∪ E_{tau1,tau3} ∪ E_{tau2,tau3}``, keeping only
   triangles whose cone vertex has colour ``tau1``.

Expected I/O complexity ``O(E^{3/2} / (sqrt(M) B))`` by Lemma 3
(``E[X_xi] <= E*M``).  The module also exports the building blocks
(:func:`high_degree_phase`, :func:`partition_by_coloring`,
:func:`enumerate_colored_triples`) reused by the deterministic variant in
:mod:`repro.core.derandomized`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.analysis.bounds import colour_count, high_degree_threshold
from repro.core.emit import TriangleSink
from repro.core.lemma1 import triangles_through_vertex
from repro.core.lemma2 import triangles_with_pivot_in
from repro.extmem.disk import ExtFile, FileSlice
from repro.extmem.machine import Machine
from repro.hashing.coloring import Coloring, ConstantColoring, RandomColoring
from repro.hashing.coloring import colors_of as bulk_colors

RankedEdge = tuple[int, int]
ColorPair = tuple[int, int]


@dataclass
class CacheAwareReport:
    """Diagnostics returned by the cache-aware algorithms.

    The fields feed the experiments: ``x_xi`` is the colour-collision
    statistic of Lemma 3, ``partition_sizes`` the colour-class sizes, and
    ``triangles_emitted`` the total output count.
    """

    num_edges: int
    num_colors: int
    high_degree_vertices: list[int] = field(default_factory=list)
    high_degree_triangles: int = 0
    low_degree_triangles: int = 0
    partition_sizes: dict[ColorPair, int] = field(default_factory=dict)

    @property
    def triangles_emitted(self) -> int:
        """Total number of triangles emitted by the run."""
        return self.high_degree_triangles + self.low_degree_triangles

    @property
    def x_xi(self) -> int:
        """The collision statistic ``X_xi = sum_{tau1,tau2} C(|E_{tau1,tau2}|, 2)``."""
        return sum(size * (size - 1) // 2 for size in self.partition_sizes.values())


# ----------------------------------------------------------------------
# step 1: high-degree phase
# ----------------------------------------------------------------------
def compute_degrees(machine: Machine, edge_file: ExtFile) -> ExtFile:
    """External degree computation: a sorted file of ``(vertex, degree)`` records.

    Costs ``O(sort(E))`` I/Os: write the 2E endpoints, sort them, and count
    runs in one scan.  Both scans consume their whole file, so each is
    charged in one step (:meth:`Machine.scan_all`).
    """
    edges = machine.scan_all(edge_file)
    endpoints = machine.write_file([endpoint for edge in edges for endpoint in edge])
    sorted_endpoints = machine.sort(endpoints)
    endpoints.delete()

    # The endpoints are sorted, so the counts come out in vertex order.
    degrees = machine.write_file(list(Counter(machine.scan_all(sorted_endpoints)).items()))
    sorted_endpoints.delete()
    return degrees


def find_high_degree_vertices(
    machine: Machine, edge_file: ExtFile, threshold: float
) -> list[int]:
    """Vertices with degree strictly above ``threshold`` (ascending rank order)."""
    degree_file = compute_degrees(machine, edge_file)
    high = [vertex for vertex, degree in machine.scan_all(degree_file) if degree > threshold]
    degree_file.delete()
    return high


def high_degree_phase(
    machine: Machine,
    edge_file: ExtFile,
    sink: TriangleSink,
    threshold: float,
    vertex_executor: "VertexExecutor | None" = None,
) -> tuple[list[int], ExtFile, int]:
    """Enumerate triangles with a high-degree vertex and build ``E_l``.

    Returns ``(high_degree_vertices, low_degree_edge_file, triangles_emitted)``.
    Processing the high-degree vertices one at a time while excluding the
    previously processed ones guarantees that a triangle containing two or
    three high-degree vertices is emitted exactly once.  ``vertex_executor``
    optionally replaces the serial per-vertex loop (the sharded engine
    distributes the independent per-vertex Lemma 1 subproblems through it);
    it must deliver exactly the triangles and charge exactly the I/Os the
    serial loop would.
    """
    high_vertices = find_high_degree_vertices(machine, edge_file, threshold)
    emitted = 0
    if high_vertices and vertex_executor is not None:
        emitted = vertex_executor(machine, edge_file, sink, high_vertices)
    else:
        processed: set[int] = set()
        for vertex in high_vertices:
            emitted += triangles_through_vertex(
                machine, [edge_file], vertex, sink, excluded=frozenset(processed)
            )
            processed.add(vertex)

    # E_l is the input minus the edges of V_h; with V_h empty it is a copy,
    # so callers can delete it without touching the caller-owned input.
    # Either way every edge is inspected: one scan, charged in one step.
    edges = machine.scan_all(edge_file)
    if high_vertices:
        high_set = set(high_vertices)
        edges = [edge for edge in edges if edge[0] not in high_set and edge[1] not in high_set]
    return high_vertices, machine.write_file(edges, "low-degree-edges"), emitted


# ----------------------------------------------------------------------
# step 2: colour partitioning
# ----------------------------------------------------------------------
def partition_by_coloring(
    machine: Machine,
    low_degree_edges: ExtFile,
    coloring: Coloring,
) -> tuple[ExtFile, dict[ColorPair, FileSlice], dict[ColorPair, int]]:
    """Sort ``E_l`` by endpoint-colour pair and expose each class as a slice.

    Returns the sorted file (owned by the caller), a mapping from colour pair
    to :class:`repro.extmem.disk.FileSlice`, and the class sizes.  Inside a
    class, edges remain sorted lexicographically, which is what Lemma 2
    requires of its adjacency sources.

    The sort key colours every edge exactly once; the class sizes are
    counted there, and since the file is sorted by colour pair first, the
    class bounds are their prefix sums.  The scan that finds the bounds
    consumes the whole file and is charged in one step.
    """
    sizes: Counter[ColorPair] = Counter()

    def sort_key_many(edges: list[RankedEdge]) -> list[tuple[int, int, int, int]]:
        # Bulk path: two colour lookups per chunk instead of two per edge.
        colors_u = bulk_colors(coloring, [edge[0] for edge in edges])
        colors_v = bulk_colors(coloring, [edge[1] for edge in edges])
        sizes.update(zip(colors_u, colors_v))
        return [
            (cu, cv, edge[0], edge[1])
            for cu, cv, edge in zip(colors_u, colors_v, edges)
        ]

    partitioned = machine.sort(low_degree_edges, key_many=sort_key_many)
    machine.charge_scan(len(partitioned))
    slices: dict[ColorPair, FileSlice] = {}
    start = 0
    for pair in sorted(sizes):
        slices[pair] = partitioned.slice(start, start + sizes[pair])
        start += sizes[pair]
    return partitioned, slices, dict(sorted(sizes.items()))


# ----------------------------------------------------------------------
# step 3: triple enumeration
# ----------------------------------------------------------------------
ColorTriple = tuple[int, int, int]


def iter_colour_triples(
    slices: dict[ColorPair, FileSlice],
    num_colors: int,
) -> "Iterator[tuple[ColorTriple, FileSlice, list[FileSlice], list[int]]]":
    """Yield the independent subproblems of the colour-triple enumeration.

    For every triple ``(tau1, tau2, tau3)`` with a non-empty pivot class
    ``E_{tau2,tau3}`` yields ``(triple, pivot, adjacency, spectators)``:
    the pivot slice, the adjacency classes whose cone colour is ``tau1``,
    and the lengths of the spectator classes (charged by Lemma 2 as a
    scan, never read).  This is the shared iteration of the serial loop below and the
    sharded executor in :mod:`repro.core.sharding`; the order is the
    deterministic lexicographic triple order.
    """
    for tau1 in range(num_colors):
        for tau2 in range(num_colors):
            for tau3 in range(num_colors):
                pivot = slices.get((tau2, tau3))
                if pivot is None or len(pivot) == 0:
                    continue
                # A class ``(a, b)`` holds edges whose cone endpoint has
                # colour ``a`` (the partition sorts by the first endpoint's
                # colour), so the Lemma 2 cone filter is constant per class:
                # classes with ``a == tau1`` contribute all their records and
                # need no per-vertex filter, the others are pure spectators
                # that Lemma 2 charges as a scan of their length.
                adjacency_keys = {(tau1, tau2), (tau1, tau3), (tau2, tau3)}
                adjacency: list[FileSlice] = []
                spectators: list[int] = []
                for key in sorted(adjacency_keys):
                    source = slices.get(key)
                    if source is None or len(source) == 0:
                        continue
                    if key[0] == tau1:
                        adjacency.append(source)
                    else:
                        spectators.append(len(source))
                yield (tau1, tau2, tau3), pivot, adjacency, spectators


def enumerate_colored_triples(
    machine: Machine,
    slices: dict[ColorPair, FileSlice],
    coloring: Coloring,
    sink: TriangleSink,
) -> int:
    """Run Lemma 2 for every colour triple ``(tau1, tau2, tau3)``.

    The pivot set is ``E_{tau2,tau3}``; the adjacency sources are the up-to
    three distinct classes touching the triple; only triangles whose cone
    vertex has colour ``tau1`` are emitted, which makes every triangle of
    ``E_l`` appear in exactly one triple.
    """
    emitted = 0
    for _triple, pivot, adjacency, spectators in iter_colour_triples(slices, coloring.num_colors):
        emitted += triangles_with_pivot_in(
            machine,
            pivot,
            adjacency,
            sink,
            spectator_lengths=spectators,
        )
    return emitted


# ----------------------------------------------------------------------
# the full algorithm
# ----------------------------------------------------------------------
#: Drop-in replacement for the serial colour-triple loop; same signature and
#: return value as :func:`enumerate_colored_triples`.
TriplesExecutor = Callable[[Machine, dict[ColorPair, FileSlice], Coloring, TriangleSink], int]

#: Drop-in replacement for the serial per-vertex Lemma 1 loop of the
#: high-degree phase: ``(machine, edge_file, sink, high_vertices) -> emitted``.
VertexExecutor = Callable[[Machine, ExtFile, TriangleSink, list[int]], int]


def cache_aware_randomized(
    machine: Machine,
    edge_file: ExtFile,
    sink: TriangleSink,
    seed: int | None = 0,
    num_colors: int | None = None,
    triples_executor: TriplesExecutor | None = None,
    high_degree_executor: "VertexExecutor | None" = None,
) -> CacheAwareReport:
    """Run the randomized cache-aware algorithm of Section 2.

    Parameters
    ----------
    edge_file:
        The canonical (degree-ordered, lexicographically sorted) edge list,
        already resident on the machine's disk.
    seed:
        Seed for the 4-wise independent colouring; fix it for reproducible
        runs.
    num_colors:
        Override for the number of colours ``c``; defaults to the paper's
        ``sqrt(E / M)``.
    triples_executor:
        Optional replacement for the serial triple loop (the sharded engine
        distributes the independent colour-triple subproblems over worker
        processes through this hook); it must deliver exactly the triangles
        and charge exactly the I/Os :func:`enumerate_colored_triples` would.
    high_degree_executor:
        Optional replacement for the serial per-vertex loop of the
        high-degree phase, under the same bit-identical contract.

    Returns a :class:`CacheAwareReport`; triangles are delivered to ``sink``.
    """
    num_edges = len(edge_file)
    report = CacheAwareReport(num_edges=num_edges, num_colors=1)
    if num_edges == 0:
        return report

    threshold = high_degree_threshold(num_edges, machine.memory_size)
    with machine.phase("high-degree"):
        high_vertices, low_edges, high_triangles = high_degree_phase(
            machine, edge_file, sink, threshold, vertex_executor=high_degree_executor
        )
    report.high_degree_vertices = high_vertices
    report.high_degree_triangles = high_triangles

    c = num_colors if num_colors is not None else colour_count(num_edges, machine.memory_size)
    c = max(1, c)
    report.num_colors = c
    coloring: Coloring = ConstantColoring() if c == 1 else RandomColoring(c, seed=seed)

    with machine.phase("partition"):
        partitioned, slices, sizes = partition_by_coloring(machine, low_edges, coloring)
    report.partition_sizes = sizes
    low_edges.delete()

    run_triples = triples_executor if triples_executor is not None else enumerate_colored_triples
    with machine.phase("triples"):
        report.low_degree_triangles = run_triples(machine, slices, coloring, sink)
    partitioned.delete()
    return report
