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
  so the implementation *verifies* inequality (4) at every level and reports
  whether the run was fully certified (empirically it always is, see
  EXPERIMENTS.md, experiment EXP5).
* The paper evaluates all candidates in a single scan keeping ``O(1)``
  counters per candidate.  We also use a single charged scan of the edge
  list per level, charging the operations of every candidate on every
  edge, but the scan only copies the edge endpoints into simulator RAM.
  The decorated edge arrays (endpoints and their current colours) and the
  per-candidate tallies (class sizes and per-vertex split counters) live
  there too, uncharged, and are built for one candidate at a time; only
  the best candidate so far is kept.  The measured I/O complexity -- the
  quantity the theorems are about -- is unaffected; only the internal
  bookkeeping is simpler than the paper's.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add
from typing import Any

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


def _candidate_bit_tables(family: SmallBiasFamily, num_vertices: int) -> list[list[int]]:
    """Precompute, for every family member, its bit for every vertex id.

    The AGHP bit for vertex ``v`` is ``<x^{v+1}, y>``; iterating ``v`` in
    order lets us maintain ``x^{v+1}`` with one field multiplication per
    step instead of a fresh exponentiation.  The inner product is the
    parity of ``x^{v+1} & y``, as in :meth:`GF2Field.inner_product_bit`.
    """
    gf = family.field
    tables: list[list[int]] = []
    for x in gf.elements():
        powers: list[int] = []
        power = x
        for _ in range(num_vertices):
            powers.append(power)
            power = gf.multiply(power, x)
        for y in gf.elements():
            tables.append([(p & y).bit_count() & 1 for p in powers])
    return tables


def _pairs_within(counts: Counter[Any]) -> int:
    """``sum(k * (k - 1) / 2)`` over the tallies: the pairs sharing a key."""
    return sum(count * (count - 1) // 2 for count in counts.values())


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
    bit_tables = _candidate_bit_tables(family, num_vertices)

    alpha = 1.0 / levels_needed
    budget_base = float(total_edges) * float(machine.memory_size)
    colors = [0] * num_vertices
    diagnostics: list[GreedyLevel] = []

    for level in range(1, levels_needed + 1):
        scale_nonadj = (4.0**level) / float(num_colors) ** 2
        scale_adj = (2.0**level) / float(num_colors)

        # One charged scan of E_l per level; the endpoints it reads are
        # then swept once per candidate.
        sources: list[int] = []
        targets: list[int] = []
        for block in machine.scan_blocks(low_degree_edges):
            machine.stats.charge_operations(len(block) * len(bit_tables))
            for u, v in block:
                sources.append(u)
                targets.append(v)
        shifted_u = [2 * colors[u] for u in sources]
        shifted_v = [2 * colors[v] for v in targets]

        best_index = -1
        best_potential = math.inf
        for index, table in enumerate(bit_tables):
            new_cu = list(map(add, shifted_u, map(table.__getitem__, sources)))
            new_cv = list(map(add, shifted_v, map(table.__getitem__, targets)))
            # Two edges collide when they land in the same colour class; they
            # are "adjacent" when they also share a vertex, so that tally is
            # keyed by the shared vertex together with the class pair.
            class_sizes = Counter(zip(new_cu, new_cv))
            vertex_counts = Counter(zip(sources, new_cu, new_cv))
            vertex_counts.update(zip(targets, new_cu, new_cv))
            x_adj = _pairs_within(vertex_counts)
            x_nonadj = _pairs_within(class_sizes) - x_adj
            potential = scale_nonadj * x_nonadj + scale_adj * x_adj
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

        chosen_table = bit_tables[best_index]
        colors = [2 * color + bit for color, bit in zip(colors, chosen_table)]

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
