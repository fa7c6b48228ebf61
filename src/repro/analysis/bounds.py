"""Closed-form I/O and work bounds from the paper.

These functions evaluate the *asymptotic* expressions of the paper with unit
constants.  They are not meant to predict absolute I/O counts (constants
differ between the formulas and the operational simulator); experiments use
them to check the *shape* of measured curves: ratios of measured to predicted
values should stay within a bounded band as ``E``, ``M``, ``B`` and ``t``
vary.
"""

from __future__ import annotations

import math

from repro.analysis.model import MachineParams


def scan_io(n: int, params: MachineParams) -> float:
    """``scan(n) = ceil(n / B)``: I/Os to read ``n`` records sequentially."""
    return math.ceil(n / params.block_words)


def sort_io(n: int, params: MachineParams) -> float:
    """``sort(n)``: I/Os of external multiway merge sort.

    Uses the standard ``(n/B) * (1 + ceil(log_{M/B}(n/M)))`` form (run
    formation plus merge passes); the logarithm is clamped at zero for inputs
    that fit in memory.
    """
    if n <= 0:
        return 0.0
    memory = params.memory_words
    blocks = n / params.block_words
    if n <= memory:
        return max(1.0, blocks)
    fan_in = max(2, params.blocks_in_memory - 1)
    passes = math.ceil(math.log(n / memory, fan_in)) if n > memory else 0
    return blocks * (1 + max(0, passes))


def bnlj_io(edges: int, params: MachineParams) -> float:
    """Block-nested-loop-join baseline: ``E^3 / (M^2 B)`` I/Os (plus a scan)."""
    memory = params.memory_words
    block = params.block_words
    return edges**3 / (memory**2 * block) + scan_io(edges, params)


def hu_tao_chung_io(edges: int, params: MachineParams) -> float:
    """Hu-Tao-Chung (SIGMOD 2013): ``E^2 / (M B)`` I/Os (plus a scan)."""
    memory = params.memory_words
    block = params.block_words
    return edges**2 / (memory * block) + scan_io(edges, params)


def dementiev_io(edges: int, params: MachineParams) -> float:
    """Dementiev's sort-based algorithm: ``sort(E^{3/2})`` I/Os."""
    return sort_io(int(edges**1.5), params)


def cache_aware_io(edges: int, params: MachineParams) -> float:
    """Theorem 4: the randomized cache-aware algorithm, ``E^{3/2} / (sqrt(M) B)``."""
    memory = params.memory_words
    block = params.block_words
    return edges**1.5 / (math.sqrt(memory) * block) + scan_io(edges, params)


def cache_oblivious_io(edges: int, params: MachineParams) -> float:
    """Theorem 1: the cache-oblivious algorithm, ``E^{3/2} / (sqrt(M) B)``.

    The asymptotic bound coincides with the cache-aware one; the operational
    difference (an extra log factor from binary merge sort) shows in EXP3's
    fitted slope, noted under its table (``run_all`` writes it to
    ``results/results.json``).
    """
    return cache_aware_io(edges, params)


def lower_bound_io(triangles: int, params: MachineParams) -> float:
    """Theorem 3: ``t / (sqrt(M) B) + t^{2/3} / B`` I/Os to emit ``t`` triangles."""
    if triangles <= 0:
        return 0.0
    memory = params.memory_words
    block = params.block_words
    return triangles / (math.sqrt(memory) * block) + triangles ** (2.0 / 3.0) / block


def enumeration_lower_bound_for_clique(vertices: int, params: MachineParams) -> float:
    """Lower bound instantiated for a ``vertices``-clique (``t = C(n, 3)``)."""
    triangles = math.comb(vertices, 3)
    return lower_bound_io(triangles, params)


def work_upper_bound(edges: int) -> float:
    """Work bound: every algorithm in the paper performs ``O(E^{3/2})`` operations."""
    return float(edges) ** 1.5


def colour_count(edges: int, memory: int) -> int:
    """The number of colours ``c = sqrt(E / M)`` used by the cache-aware algorithm.

    The paper assumes ``sqrt(E/M)`` is an integer; we round it *up* so that
    the number of colour classes ``c^2`` is at least ``E/M``, which is what
    the Lemma 3 bound ``E[X_xi] <= E*M`` needs.  The deterministic variant
    additionally rounds up to a power of two.
    """
    if edges <= memory:
        return 1
    return max(1, math.ceil(math.sqrt(edges / memory)))


def high_degree_threshold(edges: int, memory: int) -> float:
    """Degree threshold ``sqrt(E * M)`` separating ``V_h`` from ``V_l`` (Section 2)."""
    return math.sqrt(edges * memory)


def expected_colour_collisions(edges: int, memory: int) -> float:
    """Lemma 3: upper bound ``E * M`` on ``E[X_xi]`` for the random colouring."""
    return float(edges) * float(memory)


def improvement_factor(edges: int, memory: int) -> float:
    """The paper's headline improvement ``min(sqrt(E/M), sqrt(M))`` over prior work."""
    if memory <= 0 or edges <= 0:
        return 1.0
    return min(math.sqrt(edges / memory), math.sqrt(memory))
