"""Vectorized compact-forward triangle kernels.

A triangle with ranked vertices ``a < b < c`` is discovered -- exactly once
-- from its lowest edge ``(a, b)``: ``c`` lies in ``N+(a)`` after ``b``, and
``(b, c)`` must also be an edge.  In the canonical CSR the edge ``(a, b)``
is entry ``i`` of ``a``'s row, so its candidates are the rest of that row,
``indices[i + 1 : indptr[a + 1]]``.  The kernels turn that into arrays:

1. take a window of edge rows ``(u, v)`` and sort it by ``v``;
2. expand every row's suffix ``c`` with one repeat/arange segment expansion
   (no Python loop over edges);
3. probe each candidate pair ``(v, c)`` against the sorted edge-key array
   with one :func:`numpy.searchsorted` call per window;
4. count the hits, or gather them into ``(k, 3)`` triangle chunks.

Work is ``sum over u of C(d+(u), 2)`` probes -- the pairs of forward
neighbours -- instead of the ``sum over edges (u, v) of d+(v)`` that
expanding ``N+(v)`` for every edge ``(u, v)`` costs.  On a 626k-edge
heavy-tailed graph (exponent 2.5) that is 1.48M probes instead of 6.15M,
4.2x fewer.  Sorting each window by ``v`` makes the probe keys ``v * n + c``
nearly ascending, so the ``searchsorted`` walk stays in cache: on that
graph a probe costs 45 ns sorted and 102 ns in row order (2-core Xeon VM).
The enumeration kernel
puts the hits back in row order with one stable argsort, so triangles
arrive lexicographic by lowest edge, then by ``c``.  Windowing
(``chunk_size`` edge rows each) bounds the transient arrays to roughly
``chunk_size * max forward degree`` entries regardless of graph size.

Every public function falls back to the pure-Python oracle when NumPy is
absent (or ``force_python`` is requested), so callers never have to gate on
:data:`repro.fastpath.arrays.HAVE_NUMPY` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.emit import Triangle
from repro.exceptions import OptionsError
from repro.fastpath.arrays import HAVE_NUMPY, require_numpy
from repro.fastpath.csr import CSRAdjacency

#: Edges per kernel chunk; at the default the transient candidate arrays
#: stay in the tens of megabytes even on dense graphs.
DEFAULT_CHUNK_SIZE = 65_536


@dataclass
class KernelTally:
    """Running totals of one kernel pass: windows walked, membership probes."""

    windows: int = 0
    probes: int = 0


@dataclass(frozen=True)
class _Expansion:
    """The probes of one window (see :func:`_chunk_expansion`)."""

    rows: Any
    counts: Any
    take: Any
    keys: Any


def _expand_segments(module: Any, starts: Any, counts: Any) -> Any:
    """Indices selecting ``counts[i]`` consecutive items from ``starts[i]`` on.

    The standard repeat/arange trick: for segments ``[starts[i], starts[i] +
    counts[i])`` it returns their concatenation without a Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return module.empty(0, dtype=module.int64)
    offsets = starts - (module.cumsum(counts) - counts)
    return module.repeat(offsets, counts) + module.arange(total, dtype=module.int64)


def _chunk_expansion(module: Any, csr: Any, lo: int, hi: int) -> _Expansion:
    """Suffix expansion of the edge rows ``[lo, hi)``, sorted by upper endpoint.

    ``rows`` are the window's row numbers ordered by ``v = indices[row]``;
    ``counts[j]`` is the length of row ``rows[j]``'s suffix in its source's
    row; ``take`` holds the flat ``indices`` positions of the candidates
    ``c``; ``keys`` is the probe key ``v * n + c`` of each candidate, in the
    edge keys' dtype.
    """
    upper = csr.indices[lo:hi]
    order = module.argsort(upper)
    rows = order + lo
    ends = csr.indptr[csr.sources[lo:hi][order] + 1]
    counts = ends - rows - 1
    take = _expand_segments(module, rows + 1, counts)
    key_dtype = csr.edge_keys.dtype
    keys = module.repeat(upper[order].astype(key_dtype) * csr.num_vertices, counts)
    keys += csr.indices[take].astype(key_dtype, copy=False)
    return _Expansion(rows=rows, counts=counts, take=take, keys=keys)


def _probe_hits(module: Any, padded_keys: Any, keys: Any) -> Any:
    """Boolean mask: is each probe key an edge key?  One searchsorted per call.

    ``padded_keys`` is the sorted edge-key array with one trailing sentinel
    (-1, never a valid key), so out-of-range ``searchsorted`` positions
    resolve to the sentinel instead of needing a clamp pass.
    """
    positions = module.searchsorted(padded_keys[:-1], keys)
    return padded_keys[positions] == keys


def _windows(
    module: Any,
    csr: Any,
    chunk_size: int,
    on_window: Callable[[], None] | None,
    tally: KernelTally | None,
) -> Iterator[tuple[_Expansion, Any]]:
    """Yield ``(expansion, hits)`` for every window that has probes.

    ``csr`` is a :class:`~repro.fastpath.csr.CSRAdjacency` or anything with
    the same attributes (the out-of-core store); ``on_window`` runs after
    each window is consumed, ``tally`` accumulates windows and probes.
    Raises :class:`~repro.exceptions.OptionsError` unless ``chunk_size`` is
    an int >= 1, as the registered algorithms' options do.
    """
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int) or chunk_size < 1:
        raise OptionsError(f"chunk_size must be an int >= 1, got {chunk_size!r}")
    if csr.num_edges == 0:
        return
    padded = csr.edge_keys_padded
    for lo in range(0, csr.num_edges, chunk_size):
        expansion = _chunk_expansion(module, csr, lo, min(lo + chunk_size, csr.num_edges))
        probes = int(expansion.keys.shape[0])
        if tally is not None:
            tally.windows += 1
            tally.probes += probes
        if probes:
            yield expansion, _probe_hits(module, padded, expansion.keys)
        if on_window is not None:
            on_window()


def count_triangles_csr(
    csr: CSRAdjacency,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    on_window: Callable[[], None] | None = None,
    tally: KernelTally | None = None,
) -> int:
    """Number of triangles of a CSR adjacency (never materialises them).

    ``on_window`` is called after every window (the out-of-core store drops
    its resident pages there); ``tally``, if given, accumulates the windows
    walked and the membership probes made.
    """
    module = require_numpy("the vectorized count kernel")
    return sum(
        int(module.count_nonzero(hits))
        for _expansion, hits in _windows(module, csr, chunk_size, on_window, tally)
    )


def iter_triangle_chunks_csr(
    csr: CSRAdjacency,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    on_window: Callable[[], None] | None = None,
    tally: KernelTally | None = None,
) -> Iterator[Any]:
    """Yield ``(k, 3)`` int64 arrays of ranked triangles, ascending within each row.

    One array per window that closes a triangle.  Triangles arrive in a
    deterministic compact-forward discovery order: lexicographic by their
    lowest edge ``(a, b)``, then by the closing vertex ``c`` (the reference
    oracle emits in set-iteration order, so only the *sets* coincide).
    ``on_window`` and ``tally`` work as in :func:`count_triangles_csr`.
    """
    module = require_numpy("the vectorized enumeration kernel")
    for expansion, hits in _windows(module, csr, chunk_size, on_window, tally):
        positions = module.flatnonzero(hits)
        if positions.shape[0] == 0:
            continue
        # The window was sorted by v; a stable sort on each hit's row puts
        # the hits back in row order, and each row's hits stay c-ascending.
        segment = module.searchsorted(module.cumsum(expansion.counts), positions, side="right")
        hit_rows = expansion.rows[segment]
        restore = module.argsort(hit_rows, kind="stable")
        hit_rows = hit_rows[restore]
        closing = csr.indices[expansion.take[positions][restore]]
        yield module.stack(
            [
                csr.sources[hit_rows].astype(module.int64),
                csr.indices[hit_rows].astype(module.int64),
                closing.astype(module.int64),
            ],
            axis=1,
        )


# ----------------------------------------------------------------------
# backend-agnostic entry points (automatic pure-Python fallback)
# ----------------------------------------------------------------------
def _use_python(force_python: bool) -> bool:
    return force_python or not HAVE_NUMPY


def count_triangles_fast(
    edges: "Sequence[tuple[int, int]] | Any",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    dtype: str = "auto",
    force_python: bool = False,
) -> int:
    """Triangle count of a canonical edge list, vectorized when possible."""
    if _use_python(force_python):
        return len(triangles_in_memory(_as_edge_list(edges)))
    return count_triangles_csr(
        CSRAdjacency.from_canonical_edges(edges, dtype=dtype), chunk_size=chunk_size
    )


def iter_triangle_chunks(
    edges: "Sequence[tuple[int, int]] | Any",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    dtype: str = "auto",
    force_python: bool = False,
) -> Iterator[list[Triangle]]:
    """Yield batches of ranked triangle tuples (list-of-tuples per chunk).

    The tuple-list form feeds :func:`repro.core.emit.emit_all` directly; the
    array-native variant is :func:`iter_triangle_chunks_csr`.
    """
    if _use_python(force_python):
        triangles = triangles_in_memory(_as_edge_list(edges))
        for lo in range(0, len(triangles), chunk_size):
            yield triangles[lo : lo + chunk_size]
        return
    csr = CSRAdjacency.from_canonical_edges(edges, dtype=dtype)
    for chunk in iter_triangle_chunks_csr(csr, chunk_size=chunk_size):
        yield [tuple(row) for row in chunk.tolist()]


def enumerate_triangles_fast(
    edges: "Sequence[tuple[int, int]] | Any",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    dtype: str = "auto",
    force_python: bool = False,
) -> list[Triangle]:
    """Materialised ranked triangle list of a canonical edge list."""
    out: list[Triangle] = []
    for chunk in iter_triangle_chunks(
        edges, chunk_size=chunk_size, dtype=dtype, force_python=force_python
    ):
        out.extend(chunk)
    return out


def _as_edge_list(edges: "Sequence[tuple[int, int]] | Any") -> list[tuple[int, int]]:
    """Normalise array inputs back to tuples for the pure-Python oracle."""
    if HAVE_NUMPY:
        module = require_numpy()
        if isinstance(edges, module.ndarray):
            return [tuple(edge) for edge in edges.tolist()]
    return list(edges)
