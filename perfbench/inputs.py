"""Seeded input generators of the benchmark.

The benchmark owns its generators so a change to the program's own
generators cannot change what is measured.  Every input is a pure function
of its arguments: the same seed gives the same graph.  Vertex weights are
deterministic (``w_i = (i + 1)^(-1/(beta - 1))``, the Chung-Lu power law
with exponent ``beta``); only the edge draws are random, which keeps the
work per graph close across seeds while the structure changes.
"""

from __future__ import annotations

import bisect
import random
from itertools import accumulate
from typing import Any


def chung_lu_edges(
    num_vertices: int, num_edges: int, seed: int, exponent: float = 2.5
) -> list[tuple[int, int]]:
    """A simple Chung-Lu power-law graph with exactly ``num_edges`` edges."""
    rng = random.Random(seed)
    alpha = 1.0 / (exponent - 1.0)
    cumulative = list(accumulate((index + 1) ** -alpha for index in range(num_vertices)))
    total = cumulative[-1]
    # Shuffled labels, so a vertex's label says nothing about its degree.
    labels = list(range(num_vertices))
    rng.shuffle(labels)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < num_edges:
        u = labels[bisect.bisect_left(cumulative, rng.random() * total)]
        v = labels[bisect.bisect_left(cumulative, rng.random() * total)]
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return sorted(chosen)


def heavy_tail_array(num_rows: int, num_vertices: int, seed: int, exponent: float = 2.5) -> Any:
    """A raw int64 ``(num_rows, 2)`` edge array: heavy-tailed, with duplicates.

    About a tenth of the rows repeat an earlier edge, half of those in the
    reverse orientation, and the rows are shuffled -- the shape of a raw
    edge dump that ingestion has to orient, deduplicate and rank.  No row
    is a self-loop (ingestion rejects those).
    """
    import numpy

    rng = numpy.random.default_rng(seed)
    alpha = 1.0 / (exponent - 1.0)
    weights = numpy.arange(1, num_vertices + 1, dtype=numpy.float64) ** -alpha
    cumulative = numpy.cumsum(weights)
    labels = rng.permutation(num_vertices).astype(numpy.int64)
    fresh = num_rows - num_rows // 10
    rows = numpy.empty((0, 2), dtype=numpy.int64)
    while rows.shape[0] < fresh:
        draws = numpy.searchsorted(cumulative, rng.random((fresh, 2)) * cumulative[-1])
        pairs = labels[numpy.minimum(draws, num_vertices - 1)]
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        rows = numpy.concatenate([rows, pairs])[:fresh]
    repeats = rows[rng.integers(0, fresh, num_rows - fresh)]
    repeats[::2] = repeats[::2, ::-1]
    edges = numpy.concatenate([rows, repeats])
    return numpy.ascontiguousarray(edges[rng.permutation(num_rows)])
