"""Section 3: the cache-oblivious randomized enumeration algorithm.

The algorithm solves the general ``(c0, c1, c2)``-enumeration problem: emit
every triangle ``u < v < w`` whose colours under the current colouring are
exactly ``(c0, c1, c2)``.  Enumerating all triangles is the ``(0, 0, 0)``
problem under the constant colouring.  Each recursive call:

1. enumerates (and then removes) the triangles through *local high-degree*
   vertices -- vertices of degree at least ``E/8`` within the current edge
   set, of which there are at most 16 -- using a cache-oblivious version of
   the Lemma 1 subroutine;
2. refines the colouring by appending one 4-wise independent random bit to
   every vertex colour (``xi'(v) = 2 xi(v) + b(v)``);
3. recurses on the 8 colour vectors ``(z0, z1, z2)`` with
   ``z_i in {2 c_i, 2 c_i + 1}``, each child keeping only the edges
   compatible with its vector.

The recursion stops at depth ``log4 E`` (or when fewer than three edges
remain), where the remaining triangles are enumerated with a sort-based
wedge join in the style of Dementiev's algorithm.

The whole algorithm runs on the :class:`repro.extmem.oblivious.ObliviousVM`:
it never reads ``M`` or ``B``; its I/Os are whatever the LRU block cache
charges.  Scans that touch several vectors at once report every record
access to the VM's :class:`repro.extmem.oblivious.Run`, which hands the
cache one entry per block of each run; the counters are those of one cache
call per access.  Edge records carry the colours of their endpoints --
``(u, v, colour_u, colour_v)`` -- matching the paper's assumption that "the
color of each vertex is stored within the vertex".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.emit import TriangleSink, sorted_triangle
from repro.extmem.cache import FRESH, WRITE
from repro.extmem.co_sort import cache_oblivious_sort
from repro.extmem.oblivious import Cursor, ExtVector, ObliviousVM, transfer
from repro.hashing.kwise import KWiseIndependentHash

ColorVector = tuple[int, int, int]
#: Edge record layout: (smaller endpoint, larger endpoint, colour of smaller, colour of larger).
EdgeRecord = tuple[int, int, int, int]


@dataclass
class CacheObliviousReport:
    """Diagnostics of a cache-oblivious run, used by the recursion experiment."""

    num_edges: int
    max_depth: int
    triangles_emitted: int = 0
    base_case_invocations: int = 0
    local_high_degree_processed: int = 0
    subproblem_sizes: dict[int, list[int]] = field(default_factory=dict)

    def record_subproblem(self, depth: int, size: int) -> None:
        """Record the input size of one recursive subproblem."""
        self.subproblem_sizes.setdefault(depth, []).append(size)

    def subproblems_at(self, depth: int) -> list[int]:
        """Sizes of all subproblems seen at the given depth."""
        return self.subproblem_sizes.get(depth, [])


def cache_oblivious_randomized(
    vm: ObliviousVM,
    edges: ExtVector,
    sink: TriangleSink,
    seed: int = 0,
    max_depth: int | None = None,
    size_recorder: Callable[[int, int], None] | None = None,
) -> CacheObliviousReport:
    """Enumerate all triangles of ``edges`` cache-obliviously.

    Parameters
    ----------
    edges:
        Input vector of canonical ranked edges ``(u, v)`` with ``u < v``,
        sorted lexicographically (as produced by
        :func:`repro.graph.io.edges_to_vector`).  The input is not modified.
    seed:
        Master seed for the per-level 4-wise independent refinement bits.
    max_depth:
        Override of the recursion depth limit; defaults to the paper's
        ``log4 E``.
    size_recorder:
        Optional callback ``(depth, size)`` invoked for every subproblem, in
        addition to the sizes recorded in the report.
    """
    num_edges = len(edges)
    depth_limit = max_depth if max_depth is not None else _default_depth(num_edges)
    report = CacheObliviousReport(num_edges=num_edges, max_depth=depth_limit)
    if num_edges == 0:
        return report

    # Working copy with colour-annotated records; the constant colouring is 0.
    working = vm.vector("colored-edges")
    transfer(edges, 0, num_edges, working, transform=_uncoloured)

    solver = _Solver(vm, sink, seed, depth_limit, report, size_recorder)
    solver.solve(working, (0, 0, 0), 0)
    vm.flush()
    return report


def _uncoloured(edge: tuple[int, int]) -> EdgeRecord:
    return (edge[0], edge[1], 0, 0)


def _default_depth(num_edges: int) -> int:
    if num_edges <= 1:
        return 0
    return max(1, math.ceil(math.log(num_edges, 4)))


class _Solver:
    """Recursive state of the cache-oblivious algorithm."""

    def __init__(
        self,
        vm: ObliviousVM,
        sink: TriangleSink,
        seed: int,
        max_depth: int,
        report: CacheObliviousReport,
        size_recorder: Callable[[int, int], None] | None,
    ) -> None:
        self.vm = vm
        self.sink = sink
        self.seed = seed
        self.max_depth = max_depth
        self.report = report
        self.size_recorder = size_recorder
        self._node_counter = 0

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------
    def solve(self, edges: ExtVector, target: ColorVector, depth: int) -> None:
        """Solve one ``(c0, c1, c2)``-enumeration subproblem; frees ``edges``."""
        size = len(edges)
        self.report.record_subproblem(depth, size)
        if self.size_recorder is not None:
            self.size_recorder(depth, size)
        if size < 3:
            edges.free()
            return
        if depth >= self.max_depth:
            self.report.base_case_invocations += 1
            self._base_case(edges, target)
            edges.free()
            return

        edges = self._local_high_degree_phase(edges, target)
        if len(edges) < 3:
            edges.free()
            return

        self._refine_colors(edges, depth)
        children = self._split_children(edges, target)
        edges.free()
        for child_target, child_edges in children:
            self.solve(child_edges, child_target, depth + 1)

    # ------------------------------------------------------------------
    # step 1: local high-degree vertices
    # ------------------------------------------------------------------
    def _local_high_degree_phase(self, edges: ExtVector, target: ColorVector) -> ExtVector:
        """Enumerate triangles through local high-degree vertices, then drop them."""
        size = len(edges)
        threshold = size / 8.0
        high_vertices = self._find_local_high_degree(edges, threshold)
        if not high_vertices:
            return edges
        current = edges
        for vertex in high_vertices:
            self.report.local_high_degree_processed += 1
            self._triangles_through_vertex(current, vertex, target)
            current = self._remove_vertex(current, vertex)
        return current

    def _find_local_high_degree(self, edges: ExtVector, threshold: float) -> list[int]:
        """Vertices with degree at least ``threshold`` in ``edges`` (at most 16)."""
        endpoints = self.vm.vector("endpoints")
        run = self.vm.run
        reader = edges.cursor()
        writer = endpoints.cursor()
        out = writer.data
        move = run.move
        enter = run.enter
        read_end = reader.bound(0)
        size = len(out)
        write_end = writer.bound(size)
        t = run.stamp
        for index, record in enumerate(reader.data):
            if index >= read_end:
                read_end = move(reader, index, t)
            elif reader.first < 0:
                enter(reader, t)
            reader.last = t
            t += 1
            for vertex in (record[0], record[1]):
                if size >= write_end:
                    write_end = move(writer, size, t, FRESH)
                elif writer.first < 0:
                    enter(writer, t, FRESH)
                writer.last = t
                t += 1
                out.append(vertex)
                size += 1
        run.release(t, writer)
        cache_oblivious_sort(self.vm, endpoints)
        high: list[int] = []
        current: int | None = None
        count = 0
        for vertex in self.vm.run.read(endpoints, 0, len(endpoints)):
            if vertex != current:
                if current is not None and count >= threshold:
                    high.append(current)
                current = vertex
                count = 0
            count += 1
        if current is not None and count >= threshold:
            high.append(current)
        endpoints.free()
        return high

    def _triangles_through_vertex(
        self, edges: ExtVector, vertex: int, target: ColorVector
    ) -> None:
        """Cache-oblivious Lemma 1: emit proper triangles containing ``vertex``."""
        gamma = self.vm.vector("gamma")
        vertex_color: int | None = None
        run = self.vm.run
        reader = edges.cursor()
        writer = gamma.cursor()
        out = writer.data
        move = run.move
        enter = run.enter
        read_end = reader.bound(0)
        size = len(out)
        write_end = writer.bound(size)
        t = run.stamp
        for index, (u, v, cu, cv) in enumerate(reader.data):
            if index >= read_end:
                read_end = move(reader, index, t)
            elif reader.first < 0:
                enter(reader, t)
            reader.last = t
            t += 1
            if u == vertex:
                neighbour = (v, cv)
                vertex_color = cu
            elif v == vertex:
                neighbour = (u, cu)
                vertex_color = cv
            else:
                continue
            if size >= write_end:
                write_end = move(writer, size, t, FRESH)
            elif writer.first < 0:
                enter(writer, t, FRESH)
            writer.last = t
            t += 1
            out.append(neighbour)
            size += 1
        run.release(t, writer)
        if len(gamma) < 2 or vertex_color is None:
            gamma.free()
            return
        cache_oblivious_sort(self.vm, gamma, key=lambda record: record[0])

        # Keep edges whose smaller endpoint lies in Gamma_v (merge join; the
        # edge vector is sorted lexicographically so it is sorted by smaller
        # endpoint).
        candidates = self.vm.vector("gamma-candidates")
        self._merge_filter(edges, gamma, key_index=0, skip_vertex=vertex, output=candidates)
        # Of those, keep edges whose larger endpoint also lies in Gamma_v.
        cache_oblivious_sort(self.vm, candidates, key=lambda r: (r[1], r[0]))
        closing = self.vm.vector("gamma-closing")
        self._merge_filter(candidates, gamma, key_index=1, skip_vertex=vertex, output=closing)
        candidates.free()
        gamma.free()

        for u, w, cu, cw in self.vm.run.read(closing, 0, len(closing)):
            self._emit_if_proper(
                (vertex, u, w), (vertex_color, cu, cw), target
            )
        closing.free()

    def _merge_filter(
        self,
        records: ExtVector,
        gamma: ExtVector,
        key_index: int,
        skip_vertex: int,
        output: ExtVector,
    ) -> None:
        """Append to ``output`` the records whose ``key_index`` endpoint is in ``gamma``.

        ``records`` must be sorted by the chosen endpoint and ``gamma`` by
        vertex id; the filter is a single parallel scan of both vectors.
        """
        run = self.vm.run
        reader = records.cursor()
        probe = gamma.cursor()
        writer = output.cursor()
        neighbours = probe.data
        out = writer.data
        move = run.move
        enter = run.enter
        read_end = reader.bound(0)
        probe_end = probe.bound(0)
        size = len(out)
        write_end = writer.bound(size)
        t = run.stamp
        gamma_length = len(neighbours)
        gamma_position = 0
        gamma_value: int | None = None
        if gamma_length:
            if 0 >= probe_end:
                probe_end = move(probe, 0, t)
            elif probe.first < 0:
                enter(probe, t)
            probe.last = t
            t += 1
            gamma_value = neighbours[0][0]
        for index, record in enumerate(reader.data):
            if index >= read_end:
                read_end = move(reader, index, t)
            elif reader.first < 0:
                enter(reader, t)
            reader.last = t
            t += 1
            if record[0] == skip_vertex or record[1] == skip_vertex:
                continue
            value = record[key_index]
            while gamma_value is not None and gamma_value < value:
                gamma_position += 1
                if gamma_position < gamma_length:
                    if gamma_position >= probe_end:
                        probe_end = move(probe, gamma_position, t)
                    elif probe.first < 0:
                        enter(probe, t)
                    probe.last = t
                    t += 1
                    gamma_value = neighbours[gamma_position][0]
                else:
                    gamma_value = None
            if gamma_value is not None and gamma_value == value:
                if size >= write_end:
                    write_end = move(writer, size, t, FRESH)
                elif writer.first < 0:
                    enter(writer, t, FRESH)
                writer.last = t
                t += 1
                out.append(record)
                size += 1
        run.release(t, writer)

    def _remove_vertex(self, edges: ExtVector, vertex: int) -> ExtVector:
        """Return a new vector without the edges incident to ``vertex``."""
        filtered = self.vm.vector("minus-high-degree")
        run = self.vm.run
        reader = edges.cursor()
        writer = filtered.cursor()
        out = writer.data
        move = run.move
        enter = run.enter
        read_end = reader.bound(0)
        size = len(out)
        write_end = writer.bound(size)
        t = run.stamp
        for index, record in enumerate(reader.data):
            if index >= read_end:
                read_end = move(reader, index, t)
            elif reader.first < 0:
                enter(reader, t)
            reader.last = t
            t += 1
            if record[0] != vertex and record[1] != vertex:
                if size >= write_end:
                    write_end = move(writer, size, t, FRESH)
                elif writer.first < 0:
                    enter(writer, t, FRESH)
                writer.last = t
                t += 1
                out.append(record)
                size += 1
        run.release(t, writer)
        edges.free()
        return filtered

    # ------------------------------------------------------------------
    # step 2: colour refinement
    # ------------------------------------------------------------------
    def _refine_colors(self, edges: ExtVector, depth: int) -> None:
        """Append one random bit to every colour, in place (one read+write scan)."""
        self._node_counter += 1
        bit = KWiseIndependentHash(
            2, independence=4, seed=(self.seed * 1_000_003 + self._node_counter * 7919 + depth)
        )
        # Each record is read and then overwritten: two accesses to one block.
        run = self.vm.run
        cursor = edges.cursor()
        records = cursor.data
        end = cursor.bound(0)
        if end and cursor.first >= 0:
            # The first access below is to the block the cursor already
            # holds in this run, and the write follows it directly.
            cursor.wrote()
        t = run.stamp
        for index, (u, v, cu, cv) in enumerate(records):
            if index >= end:
                end = run.move(cursor, index, t, WRITE)
            elif cursor.first < 0:
                run.enter(cursor, t, WRITE)
            cursor.last = t + 1
            t += 2
            records[index] = (u, v, 2 * cu + bit(u), 2 * cv + bit(v))
        run.release(t)

    # ------------------------------------------------------------------
    # step 3: children
    # ------------------------------------------------------------------
    def _split_children(
        self, edges: ExtVector, target: ColorVector
    ) -> list[tuple[ColorVector, ExtVector]]:
        """Build the 8 child edge sets in a single scan of the parent."""
        c0, c1, c2 = target
        child_targets = [
            (z0, z1, z2)
            for z0 in (2 * c0, 2 * c0 + 1)
            for z1 in (2 * c1, 2 * c1 + 1)
            for z2 in (2 * c2, 2 * c2 + 1)
        ]
        # Deduplicate targets that coincide when parent colours are equal
        # (e.g. the very first level, where c0 = c1 = c2): recursing twice on
        # an identical target would emit its triangles twice.
        unique_targets = list(dict.fromkeys(child_targets))
        children: list[tuple[ColorVector, ExtVector]] = [
            (zeta, self.vm.vector(f"child-{zeta}")) for zeta in unique_targets
        ]
        # Up to nine vectors take part in this scan, so on a small cache the
        # run ends whenever one more block would not fit.
        run = self.vm.run
        reader = edges.cursor()
        writers = [child.cursor() for _, child in children]
        write_ends = [writer.bound(len(writer.data)) for writer in writers]
        compatible = [
            ({(zeta[0], zeta[1]), (zeta[1], zeta[2]), (zeta[0], zeta[2])}, position)
            for position, zeta in enumerate(unique_targets)
        ]
        move = run.move
        enter = run.enter
        read_end = reader.bound(0)
        t = run.stamp
        for index, record in enumerate(reader.data):
            if index >= read_end:
                read_end = move(reader, index, t)
            elif reader.first < 0:
                enter(reader, t)
            reader.last = t
            t += 1
            pair = (record[2], record[3])
            for pairs, position in compatible:
                if pair in pairs:
                    writer = writers[position]
                    out = writer.data
                    if len(out) >= write_ends[position]:
                        write_ends[position] = move(writer, len(out), t, FRESH)
                    elif writer.first < 0:
                        enter(writer, t, FRESH)
                    writer.last = t
                    t += 1
                    out.append(record)
        run.release(t, *writers)
        return children

    # ------------------------------------------------------------------
    # base case: sort-based wedge join (Dementiev-style)
    # ------------------------------------------------------------------
    def _base_case(self, edges: ExtVector, target: ColorVector) -> None:
        """Enumerate the remaining proper triangles with a wedge join."""
        n = len(edges)
        if n < 3:
            return
        wedges = self.vm.vector("wedges")
        # The group scan, the wedge's first edge and its second edge are
        # three cursors over ``edges``; the second one jumps back for each
        # first edge.
        run = self.vm.run
        scan = edges.cursor()
        first_cursor = Cursor(edges)
        second_cursor = Cursor(edges)
        writer = wedges.cursor()
        records = scan.data
        out = writer.data
        move = run.move
        enter = run.enter
        scan_end = scan.bound(0)
        first_end = 0
        size = len(out)
        write_end = writer.bound(size)
        t = run.stamp
        index = 0
        while index < n:
            if index >= scan_end:
                scan_end = move(scan, index, t)
            elif scan.first < 0:
                enter(scan, t)
            scan.last = t
            t += 1
            group_vertex = records[index][0]
            group_end = index + 1
            while group_end < n:
                if group_end >= scan_end:
                    scan_end = move(scan, group_end, t)
                elif scan.first < 0:
                    enter(scan, t)
                scan.last = t
                t += 1
                if records[group_end][0] != group_vertex:
                    break
                group_end += 1
            for a in range(index, group_end):
                if a >= first_end:
                    first_end = move(first_cursor, a, t)
                elif first_cursor.first < 0:
                    enter(first_cursor, t)
                first_cursor.last = t
                t += 1
                first = records[a]
                for b in range(a + 1, group_end):
                    if not second_cursor.start <= b < second_cursor.end:
                        move(second_cursor, b, t)
                    elif second_cursor.first < 0:
                        enter(second_cursor, t)
                    second_cursor.last = t
                    t += 1
                    second = records[b]
                    # Wedge (v; u, w) with v < u < w; colours travel with it.
                    if size >= write_end:
                        write_end = move(writer, size, t, FRESH)
                    elif writer.first < 0:
                        enter(writer, t, FRESH)
                    writer.last = t
                    t += 1
                    out.append((first[1], second[1], group_vertex, first[3], second[3], first[2]))
                    size += 1
            index = group_end
        run.release(t, writer)
        cache_oblivious_sort(self.vm, wedges, key=lambda r: (r[0], r[1]))

        # Merge the wedges with the edge vector (both sorted by (u, w)).
        run = self.vm.run
        edge_cursor = edges.cursor()
        wedge_cursor = wedges.cursor()
        move = run.move
        enter = run.enter
        wedge_end = wedge_cursor.bound(0)
        edge_end = edge_cursor.bound(0)
        edge_position = 0
        t = run.stamp
        if 0 >= edge_end:
            edge_end = move(edge_cursor, 0, t)
        elif edge_cursor.first < 0:
            enter(edge_cursor, t)
        edge_cursor.last = t
        t += 1
        edge_record: EdgeRecord | None = records[0]
        for wedge_index, (u, w, v, cu, cw, cv) in enumerate(wedge_cursor.data):
            if wedge_index >= wedge_end:
                wedge_end = move(wedge_cursor, wedge_index, t)
            elif wedge_cursor.first < 0:
                enter(wedge_cursor, t)
            wedge_cursor.last = t
            t += 1
            while edge_record is not None and (edge_record[0], edge_record[1]) < (u, w):
                edge_position += 1
                if edge_position < n:
                    if edge_position >= edge_end:
                        edge_end = move(edge_cursor, edge_position, t)
                    elif edge_cursor.first < 0:
                        enter(edge_cursor, t)
                    edge_cursor.last = t
                    t += 1
                    edge_record = records[edge_position]
                else:
                    edge_record = None
            if edge_record is not None and (edge_record[0], edge_record[1]) == (u, w):
                self._emit_if_proper((v, u, w), (cv, cu, cw), target)
        run.release(t)
        wedges.free()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit_if_proper(
        self,
        vertices: tuple[int, int, int],
        colors: tuple[int, int, int],
        target: ColorVector,
    ) -> None:
        """Emit the triangle if its colour vector (in vertex order) matches the target."""
        paired = sorted(zip(vertices, colors))
        ordered_vertices = tuple(p[0] for p in paired)
        ordered_colors = tuple(p[1] for p in paired)
        if ordered_colors != target:
            return
        triangle = sorted_triangle(*ordered_vertices)
        self.sink.emit(*triangle)
        self.report.triangles_emitted += 1
