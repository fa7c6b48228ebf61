"""Batch colour assignment over vertex arrays.

The sharded execution path (:mod:`repro.core.sharding`) colours both
endpoints of every canonical edge to partition the list into colour-pair
classes.  The colourings themselves (:mod:`repro.hashing.coloring`) evaluate
a degree-3 polynomial over the Mersenne field ``2^61 - 1`` -- arbitrary-
precision arithmetic that NumPy cannot vectorise directly without 128-bit
intermediates.  What *can* be vectorised is the redundancy: an edge list
touches each distinct vertex many times, so the hash is evaluated once per
**unique** vertex (through the colouring's own ``colors_of``, bit-identical
to the serial path, cache included) and scattered back to all occurrences
with one :func:`~repro.fastpath.arrays.unique_sorted` relabel and one
fancy index.
"""

from __future__ import annotations

from typing import Any

from repro.fastpath.arrays import require_numpy, unique_sorted
from repro.hashing.coloring import Coloring
from repro.hashing.coloring import colors_of as bulk_colors


def colors_for_vertices(coloring: Coloring, vertices: Any) -> Any:
    """Colours of a vertex array, hashing each distinct vertex once.

    ``vertices`` is any integer array (or array-like); the result is an
    int64 array of the same shape.  Exactly equivalent to mapping
    ``coloring.color_of`` over the array -- the polynomial is evaluated by
    the colouring itself, so cached values and seeds behave identically.
    """
    module = require_numpy("batch colour assignment")
    array = module.asarray(vertices, dtype=module.int64)
    if array.size == 0:
        return module.empty(array.shape, dtype=module.int64)
    unique, inverse = unique_sorted(array.reshape(-1), return_inverse=True)
    unique_colors = module.array(bulk_colors(coloring, unique.tolist()), dtype=module.int64)
    return unique_colors[inverse].reshape(array.shape)


def edge_color_pairs(coloring: Coloring, edges: Any) -> tuple[Any, Any]:
    """Endpoint colours ``(colors_u, colors_v)`` of a packed ``(E, 2)`` array.

    Both columns are coloured through one shared unique-vertex pass, so the
    hash work is ``O(distinct vertices)`` rather than ``O(2 E)``.
    """
    module = require_numpy("batch colour assignment")
    both = colors_for_vertices(coloring, module.asarray(edges, dtype=module.int64).reshape(-1))
    pairs = both.reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]
