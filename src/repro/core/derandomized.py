"""Section 4: the deterministic cache-aware algorithm.

The randomized algorithm of Section 2 only uses randomness to pick the
colouring ``xi``; all that is needed of ``xi`` is that its collision
statistic ``X_xi`` (pairs of edges landing in the same colour class) is
``O(E * M)``.  Section 4 derandomizes the choice greedily: the colouring is
built one bit at a time, and at every level the refinement bit function
``b_{i-1} : V -> {0, 1}`` is chosen from a small-bias (almost 4-wise
independent) family so that the potential

    ``Phi_i = 4^i * X^nonadj_{xi_i} / c^2  +  2^i * X^adj_{xi_i} / c``

satisfies ``Phi_i <= (1 + alpha)^i * E * M`` with ``alpha = 1 / log2(c)``
(inequality (4) of the paper).  After ``log2(c)`` levels this certifies
``X_xi <= e * E * M``, and the rest of the algorithm is identical to the
randomized one.

Faithfulness notes
------------------
* The candidate family is the AGHP construction of
  :mod:`repro.hashing.small_bias`.  Its full size for Lemma 6 can be large;
  the ``max_family_size`` parameter caps it for practicality.  When the cap
  is active the existence guarantee of the paper no longer applies a priori,
  so certification is *checked*, not guaranteed: the implementation
  verifies inequality (4) at every level and reports whether the run was
  fully certified.  EXP5's ``certified`` column records the outcome per
  workload and family size (``run_all`` writes it to
  ``results/results.json``).  A passing check does not make the capped
  family faithful to Lemma 6: its bits repeat with the vertex id, so the
  colouring can use fewer colours than asked (ROADMAP open item 1).
* The paper evaluates all candidates in a single scan keeping ``O(1)``
  counters per candidate.  We also use a single charged scan of the edge
  list per level, charging the operations of every candidate on every
  edge.  The counters are lane-packed: ``spread[v]`` is one int holding
  candidate ``c``'s bit for ``v`` in lane ``c``, so one big-int addition
  advances a counter of every candidate.  Per old class pair, lane sums
  of ``spread[u]``, ``spread[v]`` and their AND give every candidate's
  new class sizes; per ``(vertex, old class pair)``, small groups add a
  packed "differ" bit per edge pair and large groups take the class-size
  tally of their own (see :func:`_collision_counts`).  These tallies live
  in simulator RAM uncharged; the measured I/O complexity -- the quantity
  the theorems are about -- is unaffected.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import add, and_

from repro.analysis.bounds import colour_count, high_degree_threshold
from repro.core.cache_aware import (
    CacheAwareReport,
    TriplesExecutor,
    VertexExecutor,
    enumerate_colored_triples,
    high_degree_phase,
    partition_by_coloring,
)
from repro.core.emit import TriangleSink
from repro.extmem.disk import ExtFile
from repro.extmem.machine import Machine
from repro.hashing.coloring import Coloring, ConstantColoring, TableColoring
from repro.hashing.small_bias import SmallBiasFamily


@dataclass
class GreedyLevel:
    """Diagnostics for one level of the greedy bit-fixing."""

    level: int
    chosen_candidate: int
    potential: float
    budget: float
    certified: bool


@dataclass
class DerandomizedReport(CacheAwareReport):
    """Report of the deterministic algorithm: cache-aware report plus greedy info."""

    levels: list[GreedyLevel] = field(default_factory=list)
    family_size: int = 0

    @property
    def certified(self) -> bool:
        """Whether inequality (4) held at every level of the greedy construction."""
        return all(level.certified for level in self.levels)


def _round_up_to_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def _lane_bytes(num_edges: int) -> int:
    """Bytes per candidate lane: room for any pair count over ``num_edges`` edges."""
    return ((2 * num_edges * num_edges).bit_length() + 1 + 7) // 8


def _candidate_lanes(family: SmallBiasFamily, num_vertices: int, lane_bytes: int) -> list[int]:
    """``spread[v]``: every candidate's bit for vertex ``v``, one lane each.

    Lane ``c`` (``lane_bytes`` bytes from byte ``c * lane_bytes``) holds
    ``family.function(c)(v)``, the AGHP bit ``<x^{v+1}, y>`` of candidate
    ``c = x * |F| + y``.  For a fixed power ``p = x^{v+1}`` the bits over
    every ``y`` form the Hadamard row of ``p``, so ``spread[v]`` is ``|F|``
    precomputed rows laid end to end.  Every non-zero ``x`` has
    ``x^{|F|-1} = 1`` (and ``0^{v+1} = 0``), so ``spread[v]`` depends only on
    ``v mod (|F| - 1)``: the list repeats ``|F| - 1`` distinct ints.
    """
    gf = family.field
    one = (1).to_bytes(lane_bytes, "little")
    zero = bytes(lane_bytes)
    rows = [
        b"".join(one if (p & y).bit_count() & 1 else zero for y in gf.elements())
        for p in gf.elements()
    ]
    period = gf.size - 1
    columns: list[int] = []
    powers = list(gf.elements())  # x^1 for every x
    for _ in range(min(period, num_vertices)):
        columns.append(int.from_bytes(b"".join(map(rows.__getitem__, powers)), "little"))
        powers = [gf.multiply(p, x) for x, p in zip(gf.elements(), powers)]
    return [columns[v % period] for v in range(num_vertices)]


def _lanes(packed: int, candidates: int, lane_bytes: int) -> list[int]:
    """The lane values of a packed int, one per candidate, in candidate order."""
    data = packed.to_bytes(candidates * lane_bytes, "little")
    return [
        int.from_bytes(data[start : start + lane_bytes], "little")
        for start in range(0, len(data), lane_bytes)
    ]


def _quadrant_pairs(
    members: list[int], spread_u: list[int], spread_v: list[int], candidates: int, lane_bytes: int
) -> list[int]:
    """Per candidate: the pairs of ``members`` (edges of one old class) that stay together.

    Two edges of one old class pair land in the same new class exactly when
    their endpoint bits ``(b(u), b(v))`` agree, so the answer is
    ``sum C(n, 2)`` over the four bit quadrants.  Lane-wise sums of
    ``b(u)``, ``b(v)`` and ``b(u) & b(v)`` give every quadrant's ``n``.
    """
    group_u = [spread_u[i] for i in members]
    group_v = [spread_v[i] for i in members]
    size = len(members)
    ones_u = _lanes(sum(group_u), candidates, lane_bytes)
    ones_v = _lanes(sum(group_v), candidates, lane_bytes)
    ones_uv = _lanes(sum(map(and_, group_u, group_v)), candidates, lane_bytes)
    # sum C(n, 2) = (sum n^2 - size) / 2 over n11, n10, n01 and n00.
    return [
        (n11 * n11 + (nu - n11) ** 2 + (nv - n11) ** 2 + (size - nu - nv + n11) ** 2 - size) // 2
        for nu, nv, n11 in zip(ones_u, ones_v, ones_uv)
    ]


def _collision_counts(
    spread: list[int],
    colors: list[int],
    sources: list[int],
    targets: list[int],
    candidates: int,
    lane_bytes: int,
) -> tuple[list[int], list[int]]:
    """Per candidate: colliding edge pairs, and how many of them share a vertex.

    Edges are grouped by their old class pair and edge incidences by
    ``(vertex, old class pair)``; only pairs inside one group can collide
    under any candidate.  A class group is tallied by
    :func:`_quadrant_pairs`.  An incidence group of ``k`` edges is compared
    pair by pair when ``C(k, 2) <= candidates + k`` -- one packed
    "differ" bit per candidate, ``(su1 ^ su2) | (sv1 ^ sv2)``, summed over
    every such group and unpacked once -- and by :func:`_quadrant_pairs`
    otherwise.  Both are exact.
    """
    spread_u = [spread[u] for u in sources]
    spread_v = [spread[v] for v in targets]
    # Group keys are ints: an old class pair ``cu * n + cv`` and an
    # incidence ``(w * n + cu) * n + cv``, for ``n`` old colours.
    n = 1 + max(colors)
    classes: defaultdict[int, list[int]] = defaultdict(list)
    incidences: defaultdict[int, list[int]] = defaultdict(list)
    for index, (u, v) in enumerate(zip(sources, targets)):
        pair = colors[u] * n + colors[v]
        classes[pair].append(index)
        incidences[u * n * n + pair].append(index)
        incidences[v * n * n + pair].append(index)

    totals = [0] * candidates
    for members in classes.values():
        pairs_kept = _quadrant_pairs(members, spread_u, spread_v, candidates, lane_bytes)
        totals = list(map(add, totals, pairs_kept))

    adjacent = [0] * candidates
    compared = 0
    differ = 0
    for members in incidences.values():
        size = len(members)
        pairs = size * (size - 1) // 2
        if pairs == 0:
            continue
        if pairs > candidates + size:
            pairs_kept = _quadrant_pairs(members, spread_u, spread_v, candidates, lane_bytes)
            adjacent = list(map(add, adjacent, pairs_kept))
            continue
        compared += pairs
        group = [(spread_u[i], spread_v[i]) for i in members]
        for index in range(1, size):
            su1, sv1 = group[index]
            for su2, sv2 in group[:index]:
                differ += (su1 ^ su2) | (sv1 ^ sv2)
    adjacent = [
        total + compared - apart
        for total, apart in zip(adjacent, _lanes(differ, candidates, lane_bytes))
    ]
    return totals, adjacent


def greedy_coloring(
    machine: Machine,
    low_degree_edges: ExtFile,
    num_colors: int,
    total_edges: int,
    max_family_size: int = 256,
) -> tuple[TableColoring, list[GreedyLevel], int]:
    """Build the deterministic colouring by greedy bit fixing.

    Returns the colouring, the per-level diagnostics and the size of the
    candidate family used.
    """
    levels_needed = int(math.log2(num_colors)) if num_colors > 1 else 0
    if levels_needed == 0:
        return TableColoring({}, 1), [], 0

    # Discover the vertex universe of E_l (one charged block-granular scan).
    max_vertex = -1
    for block in machine.scan_blocks(low_degree_edges):
        machine.stats.charge_operations(len(block))
        block_max = max(map(max, block))
        if block_max > max_vertex:
            max_vertex = block_max
    num_vertices = max_vertex + 1
    if num_vertices <= 0:
        return TableColoring({}, num_colors), [], 0

    family = SmallBiasFamily.with_size_at_most(max(16, max_family_size))
    lane_bytes = _lane_bytes(len(low_degree_edges))
    spread = _candidate_lanes(family, num_vertices, lane_bytes)

    alpha = 1.0 / levels_needed
    budget_base = float(total_edges) * float(machine.memory_size)
    colors = [0] * num_vertices
    diagnostics: list[GreedyLevel] = []

    for level in range(1, levels_needed + 1):
        scale_nonadj = (4.0**level) / float(num_colors) ** 2
        scale_adj = (2.0**level) / float(num_colors)

        # One charged scan of E_l per level scores every candidate.
        sources: list[int] = []
        targets: list[int] = []
        for block in machine.scan_blocks(low_degree_edges):
            machine.stats.charge_operations(len(block) * family.size)
            for u, v in block:
                sources.append(u)
                targets.append(v)
        # Two edges collide when they land in the same colour class; they
        # are "adjacent" when they also share a vertex.
        totals, adjacent = _collision_counts(
            spread, colors, sources, targets, family.size, lane_bytes
        )

        best_index = -1
        best_potential = math.inf
        for index, (x_all, x_adj) in enumerate(zip(totals, adjacent)):
            potential = scale_nonadj * (x_all - x_adj) + scale_adj * x_adj
            if potential < best_potential:
                best_potential = potential
                best_index = index

        budget = ((1.0 + alpha) ** level) * budget_base
        certified = best_potential <= budget
        diagnostics.append(
            GreedyLevel(
                level=level,
                chosen_candidate=best_index,
                potential=best_potential,
                budget=budget,
                certified=certified,
            )
        )

        shift = 8 * lane_bytes * best_index
        colors = [2 * color + (lanes >> shift & 1) for color, lanes in zip(colors, spread)]

    return TableColoring(dict(enumerate(colors)), num_colors), diagnostics, family.size


def deterministic_cache_aware(
    machine: Machine,
    edge_file: ExtFile,
    sink: TriangleSink,
    num_colors: int | None = None,
    max_family_size: int = 256,
    triples_executor: "TriplesExecutor | None" = None,
    high_degree_executor: "VertexExecutor | None" = None,
) -> DerandomizedReport:
    """Run the deterministic cache-aware algorithm of Section 4 (Theorem 2).

    ``triples_executor`` and ``high_degree_executor`` are the sharded
    engine's hooks into the colour-triple and high-degree phases, with the
    same bit-identical contract as on
    :func:`repro.core.cache_aware.cache_aware_randomized`; the greedy
    colouring itself always runs in the coordinating process (it is one
    inherently sequential scan per level, not a parallel phase).
    """
    num_edges = len(edge_file)
    report = DerandomizedReport(num_edges=num_edges, num_colors=1)
    if num_edges == 0:
        return report

    threshold = high_degree_threshold(num_edges, machine.memory_size)
    with machine.phase("high-degree"):
        high_vertices, low_edges, high_triangles = high_degree_phase(
            machine, edge_file, sink, threshold, vertex_executor=high_degree_executor
        )
    report.high_degree_vertices = high_vertices
    report.high_degree_triangles = high_triangles

    base_colors = num_colors if num_colors is not None else colour_count(
        num_edges, machine.memory_size
    )
    c = _round_up_to_power_of_two(max(1, base_colors))
    report.num_colors = c

    coloring: Coloring
    if c == 1:
        coloring = ConstantColoring()
    else:
        with machine.phase("greedy-coloring"):
            coloring, levels, family_size = greedy_coloring(
                machine,
                low_edges,
                c,
                total_edges=num_edges,
                max_family_size=max_family_size,
            )
        report.levels = levels
        report.family_size = family_size

    with machine.phase("partition"):
        partitioned, slices, sizes = partition_by_coloring(machine, low_edges, coloring)
    report.partition_sizes = sizes
    low_edges.delete()

    run_triples = triples_executor if triples_executor is not None else enumerate_colored_triples
    with machine.phase("triples"):
        report.low_degree_triangles = run_triples(machine, slices, coloring, sink)
    partitioned.delete()
    return report
