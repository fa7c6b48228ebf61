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

This module is the one place that decides the canonical form: vertices
rank by ``(degree, label_key)``, and labelled input (a ``Graph``, any
iterable of label pairs) is numbered in label-key order and then takes the
integer path (:func:`canonicalize_labelled_edges`), so every entry point
yields the same rank-space edges and ``vertex_of`` for the same graph.

Everything is gated on :data:`HAVE_NUMPY`; callers that need a guaranteed
array backend call :func:`require_numpy` and get a clear
:class:`~repro.exceptions.FastPathUnavailableError` instead of an
``ImportError`` from deep inside a kernel.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Sequence

from repro.exceptions import FastPathUnavailableError, GraphFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

try:  # NumPy is optional: the container may be a bare interpreter.
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via force_python tests
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

_INTEGER_TYPES: tuple[type, ...] = (int, np.integer) if HAVE_NUMPY else (int,)

#: Accepted ``dtype`` option values of the vectorized algorithms.
DTYPES = ("auto", "int32", "int64")

#: Vertex-id ceiling of the packed edge keys: keys are ``u * n + v`` in
#: int64, so ``n`` must stay below ``2**31`` for the product to fit.
MAX_PACKED_VERTICES = 2**31


def _is_integer(value: Any) -> bool:
    """Whether ``value`` is a Python or NumPy integer (``bool`` is not)."""
    return isinstance(value, _INTEGER_TYPES) and not isinstance(value, bool)


def _self_loop(vertex: Any) -> GraphFormatError:
    return GraphFormatError(f"self-loop on vertex {vertex!r} is not allowed in a simple graph")


def _check_id_range(low: int, high: int) -> None:
    if low < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    if high >= MAX_PACKED_VERTICES:
        raise GraphFormatError(
            f"vertex ids beyond {MAX_PACKED_VERTICES} overflow the packed 64-bit edge keys"
        )


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
    """The canonical form of an edge list: ranked edges plus rank -> label.

    ``edges`` is the ``(E, 2)`` ranked edge array (``u < v`` per row, rows
    sorted lexicographically, no duplicates), or the equal tuple list
    without NumPy; ``vertex_of[rank]`` is the label of a rank (``None`` when
    ranks are the labels).
    """

    edges: Any
    vertex_of: Any

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_of)

    def edge_list(self) -> list[tuple[int, int]]:
        """The canonical edges as the package-wide list-of-tuples form."""
        if isinstance(self.edges, list):
            return self.edges
        return [tuple(edge) for edge in self.edges.tolist()]

    def labels(self) -> tuple[Any, ...]:
        """``vertex_of`` as a tuple of Python labels."""
        vertex_of = self.vertex_of
        return tuple(vertex_of if isinstance(vertex_of, (tuple, list)) else vertex_of.tolist())


def check_integer_edges(edges: Any) -> Any:
    """The one check of raw integer edges, on every backend.

    Each edge must be two distinct integer ids (not ``bool``) in
    ``[0, MAX_PACKED_VERTICES)``, else :class:`GraphFormatError` is raised.
    Returns an int64 ``(E, 2)`` array for an array, else a list of pairs.
    """
    if np is not None and isinstance(edges, np.ndarray):
        if edges.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphFormatError(f"edge array must have shape (E, 2), got {edges.shape}")
        if not np.issubdtype(edges.dtype, np.integer):
            raise GraphFormatError(f"vertex ids must be integers, got dtype {edges.dtype}")
        raw = edges.astype(np.int64, copy=False)
        _check_id_range(int(raw.min()), int(raw.max()))
        loops = raw[:, 0] == raw[:, 1]
        if bool(loops.any()):
            raise _self_loop(int(raw[loops][0, 0]))
        return raw
    pairs = []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphFormatError(f"an edge must have two endpoints, got {edge!r}") from None
        if not (_is_integer(u) and _is_integer(v)):
            raise GraphFormatError(f"vertex ids must be integers, got {edge!r}")
        _check_id_range(min(u, v), max(u, v))
        if u == v:
            raise _self_loop(u)
        pairs.append((u, v))
    return pairs


def _plain_int_pairs(edges: list[Any]) -> bool:
    """Whether every edge is a pair of plain ``int`` ids in range, in C-speed passes.

    ``True`` means the edges pack into int64 exactly (``bool`` is not
    ``int`` here); the self-loop check is left to the packed array.
    """
    try:
        if set(map(len, edges)) - {2}:
            return False
        ids = list(itertools.chain.from_iterable(edges))
    except TypeError:  # an edge without len() or iteration
        return False
    if set(map(type, ids)) - {int}:
        return False
    return not ids or (min(ids) >= 0 and max(ids) < MAX_PACKED_VERTICES)


def canonicalize_edge_array(
    edges: "Iterable[tuple[int, int]] | numpy.ndarray", dtype: str = "auto"
) -> CanonicalArrays:
    """Vectorized dedup / orient / degree-rank of a raw integer edge list.

    Input passes :func:`check_integer_edges` (self-loops and bad ids
    raise), duplicate edges (in either orientation) are merged, and
    vertices are ranked by ascending ``(degree, label)``.  Isolated vertices
    cannot occur in an edge list, so ``vertex_of`` covers exactly the
    vertices with at least one edge.
    """
    module = require_numpy("vectorized canonicalisation")
    if isinstance(edges, module.ndarray):
        raw = check_integer_edges(edges)
    else:
        pairs = edges if isinstance(edges, list) else list(edges)
        if not _plain_int_pairs(pairs):
            # The per-edge check raises the pure-Python leg's typed error (a
            # ragged pair, a bool id) or accepts NumPy integer ids.
            pairs = check_integer_edges(pairs)
        flat = itertools.chain.from_iterable(pairs)
        raw = check_integer_edges(
            module.fromiter(flat, dtype=module.int64, count=2 * len(pairs)).reshape(-1, 2)
        )
    if raw.size == 0:
        return CanonicalArrays(edges=raw, vertex_of=module.empty(0, dtype=module.int64))
    low = module.minimum(raw[:, 0], raw[:, 1])
    high = module.maximum(raw[:, 0], raw[:, 1])
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

    The NumPy-absent fallback: returns ``(ranked_edges, vertex_of)``, equal
    to the array version's -- same checks, same (degree, label) ranks.
    """
    unique = sorted({(min(u, v), max(u, v)) for u, v in check_integer_edges(edges)})
    degrees = Counter(itertools.chain.from_iterable(unique))
    ranked = sorted(degrees, key=lambda vertex: (degrees[vertex], vertex))
    rank_of = {vertex: rank for rank, vertex in enumerate(ranked)}
    ranked_pairs = [(rank_of[u], rank_of[v]) for u, v in unique]
    return sorted((min(pair), max(pair)) for pair in ranked_pairs), ranked


def canonicalize_integer_edges(edges: Any) -> CanonicalArrays:
    """:func:`canonicalize_edge_array`, or its pure-Python mirror without NumPy."""
    if HAVE_NUMPY:
        return canonicalize_edge_array(edges)
    return CanonicalArrays(*canonicalize_edges_python(edges))


def label_key(label: Any) -> tuple[Any, ...]:
    """Canonical tie-break key: integers (not ``bool``) by value, then others by ``(repr, str)``."""
    if _is_integer(label):
        return (0, int(label))
    return (1, repr(label), str(label))


def canonicalize_labelled_edges(
    edges: Iterable[tuple[Hashable, Hashable]], vertices: Iterable[Hashable] = ()
) -> CanonicalArrays:
    """The canonical form of edges over arbitrary hashable labels.

    Labels are numbered densely in :func:`label_key` order and the numbered
    pairs take :func:`canonicalize_integer_edges`, so a labelled graph ranks
    exactly like the same graph given as integer ids.  ``vertices`` may add
    isolated vertices, which (degree 0) take the lowest ranks.  An integer
    ``(E, 2)`` array is numbered in one vectorised pass instead.
    """
    if np is not None and isinstance(edges, np.ndarray) and np.issubdtype(edges.dtype, np.integer):
        return _canonicalize_label_array(edges, vertices)
    pairs = []
    for u, v in edges:
        if u == v:
            raise _self_loop(u)
        pairs.append((u, v))
    endpoints = set(itertools.chain.from_iterable(pairs))
    isolated = sorted(set(vertices) - endpoints, key=label_key)
    numbered = sorted(endpoints, key=label_key)
    index = {label: number for number, label in enumerate(numbered)}
    form = canonicalize_integer_edges([(index[u], index[v]) for u, v in pairs])
    vertex_of = (*isolated, *(numbered[number] for number in form.labels()))
    ranked, shift = form.edges, len(isolated)
    if shift and isinstance(ranked, list):
        ranked = [(u + shift, v + shift) for u, v in ranked]
    elif shift:
        ranked = ranked + shift
    return CanonicalArrays(edges=ranked, vertex_of=vertex_of)


def _canonicalize_label_array(edges: Any, vertices: Iterable[Hashable]) -> CanonicalArrays:
    """:func:`canonicalize_labelled_edges` of an integer ``(E, 2)`` array.

    :func:`label_key` orders integers by value, so the dense numbering is
    :func:`unique_sorted`'s inverse and the numbered array takes
    :func:`canonicalize_edge_array` directly; labels stay unrestricted
    (negative or beyond the packed-key range), as on the per-pair path.
    """
    isolated = tuple(vertices)
    if isolated or edges.size == 0:
        return canonicalize_labelled_edges(edges.tolist(), isolated)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(f"edge array must have shape (E, 2), got {edges.shape}")
    loops = edges[:, 0] == edges[:, 1]
    if bool(loops.any()):
        raise _self_loop(edges[loops][0, 0].item())
    labels, numbers = unique_sorted(edges.reshape(-1), return_inverse=True)
    form = canonicalize_edge_array(numbers.reshape(-1, 2))
    return CanonicalArrays(edges=form.edges, vertex_of=labels[form.vertex_of])
