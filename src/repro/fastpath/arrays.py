"""Packed edge arrays and vectorized canonicalisation.

The canonical representation used across the package is the ranked edge
set ``(u, v)`` with ``u < v``, deduplicated and sorted lexicographically
(:meth:`repro.graph.graph.Graph.degree_order`).  This module builds it as
one ``(E, 2)`` array -- the form the array path carries from ingest to the
kernels -- in a handful of sorts (Section 1.3's sort(E) preprocessing):

* orientation is a ``minimum``/``maximum``;
* deduplication sorts the packed 64-bit edge keys ``low * span + high``
  and keeps the first of each run of equal neighbours;
* labels become dense indices through :func:`unique_sorted`: a presence
  table when the id span is no wider than the id count, one ``argsort``
  otherwise;
* the degree ranking is a ``bincount`` plus one stable ``argsort``
  (:func:`degree_rank_order`), and the ranked rows are ordered by one sort
  of their packed rank keys.

The tuple list other layers consume (:meth:`CanonicalArrays.edge_list`) is
derived from the array only when such a consumer asks for it.

Tie-breaking differs deliberately from :class:`~repro.graph.graph.Graph`:
equal-degree vertices are ranked by *label* here (``repr``-string order
there, a historical artefact).  Rank-space output may therefore differ
between the two canonicalisers, but the triangle sets they induce are
identical in label space -- which is what the differential test suite pins.

Everything is gated on :data:`HAVE_NUMPY`; callers that need a guaranteed
array backend call :func:`require_numpy` and get a clear
:class:`~repro.exceptions.FastPathUnavailableError` instead of an
``ImportError`` from deep inside a kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exceptions import FastPathUnavailableError, GraphFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

try:  # NumPy is optional: the container may be a bare interpreter.
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via force_python tests
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Accepted ``dtype`` option values of the vectorized algorithms.
DTYPES = ("auto", "int32", "int64")

#: Vertex-id ceiling of the packed edge keys: keys are ``u * n + v`` in
#: int64, so ``n`` must stay below ``2**31`` for the product to fit.
MAX_PACKED_VERTICES = 2**31


def require_numpy(feature: str = "the vectorized fast path") -> "numpy":
    """Return the ``numpy`` module or raise a descriptive error."""
    if not HAVE_NUMPY:
        raise FastPathUnavailableError(
            f"{feature} requires NumPy, which is not installed; "
            "use force_python=True (or the pure-Python algorithms) instead"
        )
    return np


def resolve_dtype(dtype: str, num_vertices: int) -> Any:
    """Map a ``dtype`` option value to a concrete NumPy integer dtype.

    ``auto`` picks ``int32`` while vertex ids fit (half the memory traffic
    of the kernels) and ``int64`` beyond; an explicit ``int32`` is rejected
    when the graph does not fit rather than silently overflowing.
    """
    module = require_numpy("dtype resolution")
    if dtype not in DTYPES:
        raise ValueError(f"dtype must be one of {', '.join(DTYPES)}, got {dtype!r}")
    fits32 = num_vertices < 2**31
    if dtype == "int32" and not fits32:
        raise ValueError(
            f"dtype='int32' cannot index {num_vertices} vertices; use 'auto' or 'int64'"
        )
    if dtype == "int64" or not fits32:
        return module.int64
    return module.int32


def pack_edges(edges: "Sequence[tuple[int, int]] | numpy.ndarray", dtype: str = "auto") -> Any:
    """Pack an edge sequence into a contiguous ``(E, 2)`` integer array.

    Already-array inputs are passed through (re-typed only if needed), so
    kernels can be fed either the engine's canonical tuple list or a
    previously packed array without copying twice.
    """
    module = require_numpy("edge packing")
    if isinstance(edges, module.ndarray):
        array = edges
        if array.ndim != 2 or (array.size and array.shape[1] != 2):
            raise GraphFormatError(f"edge array must have shape (E, 2), got {array.shape}")
    else:
        # ``fromiter`` over the flattened pairs is ~3x faster than
        # ``np.array`` on a list of tuples (no per-tuple sequence protocol).
        flat = module.fromiter(
            itertools.chain.from_iterable(edges), dtype=module.int64, count=2 * len(edges)
        )
        array = flat.reshape(-1, 2)
    if array.size == 0:
        # Route the empty shape through resolve_dtype too: an invalid
        # ``dtype`` option must raise here exactly as it would on a
        # non-empty input (and ``auto`` stays int32 -- zero vertices fit).
        return array.reshape(0, 2).astype(resolve_dtype(dtype, 0))
    if int(array.min()) < 0:
        # Negative ids would otherwise flow silently into ``num_vertices``
        # (via ``max() + 1``) and corrupt CSR indexing downstream.
        raise GraphFormatError("vertex ids must be non-negative")
    num_vertices = int(array.max()) + 1
    return module.ascontiguousarray(array, dtype=resolve_dtype(dtype, num_vertices))


@dataclass(frozen=True)
class CanonicalArrays:
    """The array-native canonical form of a raw edge list.

    ``edges`` is the ``(E, 2)`` ranked edge array (``u < v`` per row, rows
    sorted lexicographically, no duplicates); ``vertex_of[rank]`` maps a
    rank back to the original integer vertex label.
    """

    edges: Any
    vertex_of: Any

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_of.shape[0])

    def edge_list(self) -> list[tuple[int, int]]:
        """The canonical edges as the package-wide list-of-tuples form."""
        return [tuple(edge) for edge in self.edges.tolist()]


def canonicalize_edge_array(
    edges: "Iterable[tuple[int, int]] | numpy.ndarray", dtype: str = "auto"
) -> CanonicalArrays:
    """Vectorized dedup / orient / degree-rank of a raw integer edge list.

    Mirrors the semantics of building a :class:`~repro.graph.graph.Graph`
    and taking its degree order: self-loops raise
    :class:`~repro.exceptions.GraphFormatError`, duplicate edges (in either
    orientation) are merged, and vertices are ranked by ascending degree
    (ties broken by label; see the module docstring).  Isolated vertices
    cannot occur in an edge list, so ``vertex_of`` covers exactly the
    vertices with at least one edge.
    """
    module = require_numpy("vectorized canonicalisation")
    raw = edges if isinstance(edges, module.ndarray) else module.array(list(edges))
    if raw.size == 0:
        empty = module.empty((0, 2), dtype=module.int64)
        return CanonicalArrays(edges=empty, vertex_of=module.empty(0, dtype=module.int64))
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphFormatError(f"edge array must have shape (E, 2), got {raw.shape}")
    if not module.issubdtype(raw.dtype, module.integer):
        raise GraphFormatError(f"edge array must hold integers, got dtype {raw.dtype}")
    raw = raw.astype(module.int64, copy=False)
    if bool((raw < 0).any()):
        raise GraphFormatError("vertex ids must be non-negative")
    loops = raw[:, 0] == raw[:, 1]
    if bool(loops.any()):
        vertex = int(raw[loops][0, 0])
        raise GraphFormatError(f"self-loop on vertex {vertex} is not allowed in a simple graph")

    low = module.minimum(raw[:, 0], raw[:, 1])
    high = module.maximum(raw[:, 0], raw[:, 1])
    if int(high.max()) + 1 > MAX_PACKED_VERTICES:
        raise GraphFormatError(
            f"vertex ids beyond {MAX_PACKED_VERTICES} overflow the packed 64-bit edge keys"
        )
    span = int(high.max()) + 1
    unique_keys = unique_sorted(low * span + high)
    low, high = module.divmod(unique_keys, span)

    labels, inverse = unique_sorted(module.concatenate([low, high]), return_inverse=True)
    num_vertices = labels.shape[0]
    order = degree_rank_order(module.bincount(inverse, minlength=num_vertices))
    rank_of = module.empty(num_vertices, dtype=module.int64)
    rank_of[order] = module.arange(num_vertices, dtype=module.int64)

    ranked = rank_of[inverse].reshape(2, -1)
    rank_keys = module.minimum(ranked[0], ranked[1]) * num_vertices
    rank_keys += module.maximum(ranked[0], ranked[1])
    rank_keys.sort()
    packed = module.stack(module.divmod(rank_keys, num_vertices), axis=1)
    target = resolve_dtype(dtype, num_vertices)
    return CanonicalArrays(
        edges=module.ascontiguousarray(packed, dtype=target), vertex_of=labels[order]
    )


def unique_sorted(values: Any, *, return_inverse: bool = False) -> Any:
    """The distinct values of a 1-D integer array, ascending.

    Equal to :func:`numpy.unique` (``return_inverse=True`` adds each
    element's index into the result, as an ``intp`` array) at a fraction of
    its cost.  The distinct values are a sort plus a neighbour-diff mask.
    With ``return_inverse`` and a value span no wider than the array, a
    presence table over the span relabels in O(n) without sorting;
    otherwise one ``argsort`` yields both the values and their indices.
    """
    module = require_numpy("sorted unique")
    values = module.asarray(values)
    if values.shape[0] == 0:
        empty = module.empty(0, dtype=values.dtype)
        return (empty, module.empty(0, dtype=module.intp)) if return_inverse else empty
    if not return_inverse:
        ordered = module.sort(values)
        return ordered[_first_of_runs(module, ordered)]
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span <= values.shape[0]:
        offsets = values - low
        present = module.zeros(span, dtype=bool)
        present[offsets] = True
        distinct = module.flatnonzero(present)
        index_of = module.empty(span, dtype=module.intp)
        index_of[distinct] = module.arange(distinct.shape[0], dtype=module.intp)
        return (distinct + low).astype(values.dtype, copy=False), index_of[offsets]
    order = module.argsort(values, kind="stable")
    ordered = values[order]
    first = _first_of_runs(module, ordered)
    inverse = module.empty(values.shape[0], dtype=module.intp)
    inverse[order] = module.cumsum(first) - 1
    return ordered[first], inverse


def _first_of_runs(module: Any, ordered: Any) -> Any:
    """Mask of the first element of every run of equal values in a sorted array."""
    first = module.empty(ordered.shape[0], dtype=bool)
    first[0] = True
    module.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def degree_rank_order(degrees: Any) -> Any:
    """Vertex indices in rank order: ascending degree, ties by ascending index.

    ``degrees[i]`` is the degree of the vertex with the ``i``-th smallest
    label, so index order is label order and a stable sort by degree is
    exactly the ascending ``(degree, label)`` ranking both array
    canonicalisers (this module and :mod:`repro.fastpath.oocore`) use.
    """
    module = require_numpy("degree ranking")
    return module.argsort(degrees, kind="stable")


def canonicalize_edges_python(
    edges: Iterable[tuple[int, int]],
) -> tuple[list[tuple[int, int]], list[int]]:
    """Pure-Python mirror of :func:`canonicalize_edge_array`.

    The NumPy-absent fallback: returns ``(ranked_edges, vertex_of)`` with
    the same semantics -- and the same (degree, label) tie-breaking -- as
    the array version, so the two backends produce identical canonical
    forms.
    """
    unique: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop on vertex {u} is not allowed in a simple graph")
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        unique.add((u, v) if u < v else (v, u))
    degrees: dict[int, int] = {}
    # repro-lint: ignore[RPR102] -- integer increments commute; `degrees` is only read via sorted()
    for u, v in unique:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    ranked = sorted(degrees, key=lambda vertex: (degrees[vertex], vertex))
    rank_of = {vertex: rank for rank, vertex in enumerate(ranked)}
    out = []
    # repro-lint: ignore[RPR102] -- visit order cannot leak: `out` is sorted before returning
    for u, v in unique:
        ru, rv = rank_of[u], rank_of[v]
        out.append((ru, rv) if ru < rv else (rv, ru))
    out.sort()
    return out, ranked
