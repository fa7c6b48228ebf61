"""Out-of-core triangle backend: the canonical graph lives in spill files.

The simulated substrates (:mod:`repro.extmem`) *model* the external-memory
cost of Pagh & Silvestri's algorithms; this module actually pays it.  A raw
edge stream of any length is canonicalised in bounded-memory passes over
``numpy`` arrays spilled to disk, and the compact-forward kernels then walk
the resulting CSR through ``numpy.memmap`` windows -- resident memory stays
``O(chunk_rows + V)`` regardless of E, so graphs 10-100x larger than RAM
stream through the same kernels the in-memory backend uses.

Canonicalisation pipeline (every O(E) structure on disk)
--------------------------------------------------------
1. **Ingest** -- stream edges in ``chunk_rows`` batches, validate
   (non-negative ids, no self-loops), orient each pair ``(low, high)`` and
   append the int64 pairs to ``raw.mmap``.
2. **Runs** -- re-read ``raw.mmap`` chunk by chunk, pack each chunk into
   64-bit label keys ``low * span + high``, sort in memory and append one
   sorted run per chunk to ``runs.mmap``.
3. **Merge** -- blocked k-way NumPy merge of the runs
   (:func:`_merged_key_chunks`: each step takes every windowed key up to
   the smallest last key among unfinished runs and sorts that block);
   deduplicate with a chunked diff-with-carry, scatter degree increments
   into a label-indexed memmap and write the unique oriented pairs to
   ``dedup.mmap``.
4. **Rank** -- scan the degree memmap for present labels, rank them by
   ascending ``(degree, label)`` with the ranking function of
   :func:`~repro.fastpath.arrays.canonicalize_edge_array`
   (:func:`~repro.fastpath.arrays.degree_rank_order`) and materialise
   ``vertex_of`` (rank -> label) on disk plus a label-indexed ``rank_of``
   memmap.  This is the one pass holding ``O(V)`` in memory -- E never is.
5. **Remap** -- stream ``dedup.mmap``, map both endpoints through
   ``rank_of``, re-orient in rank space and external-sort the rank keys
   ``u * V + v`` into a second run file.
6. **CSR** -- merge the rank-key runs (already duplicate-free; the same
   blocked merge) into the final ``edges.mmap`` (the ``(E, 2)`` canonical
   array, whose columns are the CSR ``sources``/``indices``), ``keys.mmap``
   (sorted probe keys with the kernels' trailing ``-1`` sentinel stored on
   disk) and a chunked cumsum-with-carry ``indptr.mmap``.

Sequential passes use buffered file reads/writes (``fromfile``/``tofile``)
so the bytes they move are visible to ``/proc/self/io`` -- the hook
``benchmarks/oocore_bench.py`` uses to cross-check the substrate's simulated
I/O counters against reality.  Memory maps are reserved for the structures
that are genuinely random-access (degrees, ranks, the final CSR), and the
kernels drop their resident pages with ``madvise(MADV_DONTNEED)`` after
every window so peak RSS stays near the chunk budget.

Intermediate files are deleted as soon as the next pass has consumed them;
everything lives in a per-store spill directory (``*.mmap`` files) that
:meth:`OocoreStore.close` removes -- with a ``weakref.finalize`` backstop,
so an abandoned store cannot leak spill past garbage collection.

Registered as ``oocore_count`` / ``oocore_enum`` (substrate ``in-memory``:
an engine built from an edge array hands its canonical array straight to
:func:`build_store`, which windows it in place), which buys differential parity coverage from ``tests/test_differential.py``
for free; the direct :func:`build_store` API is the entry point for inputs
too large to hold as a Python edge list (it accepts a stream of ``(E, 2)``
array chunks as well as plain pairs).
"""

from __future__ import annotations

import itertools
import mmap as mmap_module
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.core.emit import emit_all
from repro.core.registry import (
    AlgorithmOptions,
    SubstrateContext,
    register_algorithm,
)
from repro.exceptions import GraphFormatError, OptionsError
from repro.fastpath.arrays import (
    DTYPES,
    MAX_PACKED_VERTICES,
    degree_rank_order,
    require_numpy,
    resolve_dtype,
)
from repro.fastpath.kernels import _chunk_expansion, _probe_hits

#: Suffix of every spill file; the leak tests glob for it.
SPILL_SUFFIX = ".mmap"

#: Edges (or keys) resident per pass at the default setting: 256k int64
#: pairs is ~4 MiB of array data per transient chunk.
DEFAULT_CHUNK_ROWS = 1 << 18

#: Same key-narrowing policy as :class:`~repro.fastpath.csr.CSRAdjacency`:
#: probe keys span [0, n^2), and 46340^2 is the largest square below 2^31.
_INT32_KEY_VERTICES = 46_340


# ----------------------------------------------------------------------
# spill directory lifecycle
# ----------------------------------------------------------------------
class _SpillDir:
    """A per-store scratch directory of ``*.mmap`` files, removed on close."""

    def __init__(self, base: str | None) -> None:
        if base is not None:
            os.makedirs(base, exist_ok=True)
        # mkdtemp gives a mode-0700 directory unique to this store, so many
        # stores (and many processes) can share one configured spill root.
        self.root = tempfile.mkdtemp(prefix="repro-oocore-", dir=base)
        self.bytes_written = 0

    def path(self, name: str) -> str:
        return os.path.join(self.root, name + SPILL_SUFFIX)

    def account(self, path: str) -> None:
        """Add a fully-written file to the spill-volume tally."""
        if os.path.exists(path):
            self.bytes_written += os.path.getsize(path)

    def discard(self, path: str) -> None:
        """Delete an intermediate file its consumer pass is done with."""
        if os.path.exists(path):
            os.remove(path)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# chunked input normalisation
# ----------------------------------------------------------------------
def _edge_chunk_stream(module: Any, edges: Any, chunk_rows: int) -> Iterator[Any]:
    """Yield ``(k, 2)`` int64 chunks from any supported edge input.

    Accepts a packed ``(E, 2)`` array (windowed in place), an iterable of
    ``(u, v)`` pairs (batched through one transient list per chunk), or an
    iterable of ``(k, 2)`` array chunks -- the streaming form callers use
    when even the raw edge list never fits in memory.
    """
    if isinstance(edges, module.ndarray):
        if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
            raise GraphFormatError(f"edge array must have shape (E, 2), got {edges.shape}")
        for lo in range(0, edges.shape[0], chunk_rows):
            yield module.asarray(edges[lo : lo + chunk_rows], dtype=module.int64)
        return
    iterator = iter(edges)
    first = next(iterator, None)
    if first is None:
        return
    if isinstance(first, module.ndarray):
        for item in itertools.chain([first], iterator):
            array = module.asarray(item, dtype=module.int64)
            if array.ndim != 2 or (array.size and array.shape[1] != 2):
                raise GraphFormatError(
                    f"edge chunk must have shape (k, 2), got {array.shape}"
                )
            for lo in range(0, array.shape[0], chunk_rows):
                yield array[lo : lo + chunk_rows]
        return
    chained = itertools.chain([first], iterator)
    while True:
        batch = list(itertools.islice(chained, chunk_rows))
        if not batch:
            return
        array = module.array(batch, dtype=module.int64)
        if array.ndim != 2 or array.shape[1] != 2:
            raise GraphFormatError(f"edge pairs must have two endpoints, got {array.shape}")
        yield array


# ----------------------------------------------------------------------
# the canonicalisation passes
# ----------------------------------------------------------------------
def _ingest_oriented(
    module: Any, spill: _SpillDir, edges: Any, chunk_rows: int
) -> tuple[str, int, int]:
    """Pass 1: validate, orient and append raw int64 pairs; returns span."""
    path = spill.path("raw")
    rows = 0
    max_id = -1
    with open(path, "wb") as out:
        for chunk in _edge_chunk_stream(module, edges, chunk_rows):
            if chunk.shape[0] == 0:
                continue
            if int(chunk.min()) < 0:
                raise GraphFormatError("vertex ids must be non-negative")
            loops = chunk[:, 0] == chunk[:, 1]
            if bool(loops.any()):
                vertex = int(chunk[loops][0, 0])
                raise GraphFormatError(
                    f"self-loop on vertex {vertex} is not allowed in a simple graph"
                )
            low = module.minimum(chunk[:, 0], chunk[:, 1])
            high = module.maximum(chunk[:, 0], chunk[:, 1])
            max_id = max(max_id, int(high.max()))
            module.stack([low, high], axis=1).tofile(out)
            rows += int(chunk.shape[0])
    if max_id + 1 > MAX_PACKED_VERTICES:
        raise GraphFormatError(
            f"vertex ids beyond {MAX_PACKED_VERTICES} overflow the packed 64-bit edge keys"
        )
    spill.account(path)
    return path, rows, max_id + 1


def _sorted_key_runs(
    module: Any,
    spill: _SpillDir,
    name: str,
    pairs_path: str,
    rows: int,
    pack: Any,
    chunk_rows: int,
) -> tuple[str, list[tuple[int, int]]]:
    """External-sort pass: per-chunk key packing + in-memory sort into runs.

    ``pack(pairs)`` maps a ``(k, 2)`` int64 chunk to its int64 sort keys;
    the returned bounds are half-open key ranges of each sorted run inside
    the run file.
    """
    runs_path = spill.path(name)
    bounds: list[tuple[int, int]] = []
    offset = 0
    with open(pairs_path, "rb") as src, open(runs_path, "wb") as out:
        while offset < rows:
            take = min(chunk_rows, rows - offset)
            pairs = module.fromfile(src, dtype=module.int64, count=take * 2).reshape(-1, 2)
            keys = pack(pairs)
            keys.sort()
            keys.tofile(out)
            bounds.append((offset, offset + take))
            offset += take
    spill.account(runs_path)
    return runs_path, bounds


def _merged_key_chunks(
    module: Any, runs_path: str, bounds: list[tuple[int, int]], chunk_rows: int
) -> Iterator[Any]:
    """Blocked k-way merge of the sorted runs into ascending int64 key chunks.

    Each run is read through a window of about ``chunk_rows / k`` keys.  A
    step refills the empty windows, sets the cutoff to the smallest last
    key among runs that still have unread keys (no cutoff once every run is
    fully buffered), takes every key at or below it from each window, and
    yields their sorted concatenation.  Everything after the step is at
    least the cutoff, so the chunks concatenate to the merged sequence; the
    run that set the cutoff empties its window, so every step advances.
    Equal keys may straddle two chunks (the dedup pass carries the last
    key across).  Resident keys stay ``O(k * window)``.
    """
    window = max(1024, chunk_rows // max(1, len(bounds)))
    cursors = [lo for lo, _hi in bounds]
    stops = [hi for _lo, hi in bounds]
    buffered = [module.empty(0, dtype=module.int64)] * len(bounds)
    with open(runs_path, "rb") as src:
        while True:
            for run, keys in enumerate(buffered):
                if keys.shape[0] == 0 and cursors[run] < stops[run]:
                    take = min(window, stops[run] - cursors[run])
                    src.seek(cursors[run] * 8)  # int64 keys
                    buffered[run] = module.fromfile(src, dtype=module.int64, count=take)
                    cursors[run] += take
            unfinished = [
                int(keys[-1]) for run, keys in enumerate(buffered) if cursors[run] < stops[run]
            ]
            cutoff = min(unfinished) if unfinished else None
            taken = []
            for run, keys in enumerate(buffered):
                cut = keys.shape[0]
                if cutoff is not None:
                    cut = int(module.searchsorted(keys, cutoff, side="right"))
                if cut:
                    taken.append(keys[:cut])
                    buffered[run] = keys[cut:]
            if not taken:
                return
            merged = module.concatenate(taken)
            merged.sort()
            yield merged


def _merge_dedup_degrees(
    module: Any,
    spill: _SpillDir,
    runs_path: str,
    bounds: list[tuple[int, int]],
    span: int,
    chunk_rows: int,
) -> tuple[str, str, int]:
    """Pass 3: merge runs, drop duplicate keys, stream degree increments."""
    dedup_path = spill.path("dedup")
    degree_path = spill.path("degree")
    degrees = module.memmap(degree_path, dtype=module.int64, mode="w+", shape=(span,))
    unique = 0
    previous = -1
    with open(dedup_path, "wb") as out:
        for keys in _merged_key_chunks(module, runs_path, bounds, chunk_rows):
            mask = module.empty(keys.shape[0], dtype=bool)
            mask[0] = keys[0] != previous
            mask[1:] = keys[1:] != keys[:-1]
            previous = int(keys[-1])
            keys = keys[mask]
            if keys.shape[0] == 0:
                continue
            low = keys // span
            high = keys - low * span
            module.add.at(degrees, low, 1)
            module.add.at(degrees, high, 1)
            module.stack([low, high], axis=1).tofile(out)
            unique += int(keys.shape[0])
    degrees.flush()
    del degrees
    spill.account(dedup_path)
    spill.account(degree_path)
    return dedup_path, degree_path, unique


def _rank_vertices(
    module: Any, spill: _SpillDir, degree_path: str, span: int, chunk_rows: int
) -> tuple[str, str, int]:
    """Pass 4: ascending (degree, label) ranking; O(V) resident, E on disk."""
    degrees = module.memmap(degree_path, dtype=module.int64, mode="r", shape=(span,))
    label_parts = []
    degree_parts = []
    for lo in range(0, span, chunk_rows):
        window = module.asarray(degrees[lo : lo + chunk_rows])
        present = module.flatnonzero(window)
        if present.shape[0]:
            label_parts.append(present + lo)
            degree_parts.append(window[present])
    if label_parts:
        labels = module.concatenate(label_parts)
        vertex_degrees = module.concatenate(degree_parts)
    else:  # pragma: no cover - empty graphs short-circuit before this pass
        labels = module.empty(0, dtype=module.int64)
        vertex_degrees = labels
    # Labels come out ascending, so the shared stable degree sort is the
    # exact (degree, label) tie-break of canonicalize_edge_array.
    order = degree_rank_order(vertex_degrees)
    vertex_of = labels[order]
    num_vertices = int(vertex_of.shape[0])
    vertex_of_path = spill.path("vertex_of")
    with open(vertex_of_path, "wb") as out:
        vertex_of.tofile(out)
    rank_path = spill.path("rank_of")
    rank_of = module.memmap(rank_path, dtype=module.int64, mode="w+", shape=(span,))
    for lo in range(0, num_vertices, chunk_rows):
        hi = min(lo + chunk_rows, num_vertices)
        rank_of[vertex_of[lo:hi]] = module.arange(lo, hi, dtype=module.int64)
    rank_of.flush()
    del rank_of
    spill.account(vertex_of_path)
    spill.account(rank_path)
    return rank_path, vertex_of_path, num_vertices


def _remap_to_rank_runs(
    module: Any,
    spill: _SpillDir,
    dedup_path: str,
    unique: int,
    rank_path: str,
    span: int,
    num_vertices: int,
    chunk_rows: int,
) -> tuple[str, list[tuple[int, int]]]:
    """Pass 5: endpoint remap through ``rank_of`` + external sort of rank keys."""
    rank_of = module.memmap(rank_path, dtype=module.int64, mode="r", shape=(span,))

    def pack(pairs: Any) -> Any:
        ranked_a = rank_of[pairs[:, 0]]
        ranked_b = rank_of[pairs[:, 1]]
        u = module.minimum(ranked_a, ranked_b)
        v = module.maximum(ranked_a, ranked_b)
        return u * num_vertices + v

    return _sorted_key_runs(module, spill, "rankruns", dedup_path, unique, pack, chunk_rows)


def _write_csr(
    module: Any,
    spill: _SpillDir,
    runs_path: str,
    bounds: list[tuple[int, int]],
    num_vertices: int,
    dtype: str,
    chunk_rows: int,
) -> tuple[str, str, str, int, Any, Any]:
    """Pass 6: merge rank-key runs into the final edges/keys/indptr files."""
    edge_dtype = resolve_dtype(dtype, num_vertices)
    key_dtype = module.int32 if num_vertices <= _INT32_KEY_VERTICES else module.int64
    edges_path = spill.path("edges")
    keys_path = spill.path("keys")
    counts_path = spill.path("counts")
    counts = module.memmap(counts_path, dtype=module.int64, mode="w+", shape=(num_vertices,))
    written = 0
    with open(edges_path, "wb") as edges_out, open(keys_path, "wb") as keys_out:
        for keys in _merged_key_chunks(module, runs_path, bounds, chunk_rows):
            # The label-space dedup made keys globally unique, and the
            # label->rank remap is a bijection, so no second dedup here.
            u = keys // num_vertices
            v = keys - u * num_vertices
            module.add.at(counts, u, 1)
            module.stack([u, v], axis=1).astype(edge_dtype).tofile(edges_out)
            keys.astype(key_dtype).tofile(keys_out)
            written += int(keys.shape[0])
        # The kernels' probe sentinel lives on disk too: keys.mmap holds
        # E + 1 entries, the last being -1 (never a valid key).
        module.array([-1], dtype=key_dtype).tofile(keys_out)
    indptr_path = spill.path("indptr")
    indptr = module.memmap(indptr_path, dtype=module.int64, mode="w+", shape=(num_vertices + 1,))
    indptr[0] = 0
    carry = 0
    for lo in range(0, num_vertices, chunk_rows):
        hi = min(lo + chunk_rows, num_vertices)
        prefix = module.cumsum(module.asarray(counts[lo:hi])) + carry
        indptr[lo + 1 : hi + 1] = prefix
        carry = int(prefix[-1])
    indptr.flush()
    del indptr
    del counts
    spill.account(edges_path)
    spill.account(keys_path)
    spill.account(counts_path)
    spill.account(indptr_path)
    spill.discard(counts_path)
    return edges_path, keys_path, indptr_path, written, edge_dtype, key_dtype


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class OocoreStore:
    """A canonical graph spilled to disk, duck-typing the CSR protocol.

    Exposes the attribute set the compact-forward kernels consume
    (``sources`` / ``indices`` / ``indptr`` / ``edge_keys`` /
    ``num_vertices``), each backed by a read-only ``numpy.memmap`` over the
    spill files, plus ``vertex_of`` to translate store ranks back to the
    input's vertex labels.  Build through :func:`build_store`; release with
    :meth:`close` (also a context manager), which removes the spill
    directory.  A ``weakref.finalize`` backstop removes it on garbage
    collection if ``close`` was never called.
    """

    def __init__(
        self,
        spill: _SpillDir,
        edges: Any,
        edge_keys_padded: Any,
        indptr: Any,
        vertex_of: Any,
        num_vertices: int,
        num_edges: int,
        chunk_rows: int,
    ) -> None:
        self._spill = spill
        self._edges = edges
        self._edge_keys_padded = edge_keys_padded
        self._indptr = indptr
        self._vertex_of = vertex_of
        self.num_vertices = num_vertices
        self._num_edges = num_edges
        self.chunk_rows = chunk_rows
        self.spill_bytes = spill.bytes_written
        self._closed = False
        self._finalizer = weakref.finalize(self, shutil.rmtree, spill.root, ignore_errors=True)

    # -- CSR protocol (what the kernels consume) ------------------------
    @property
    def edges(self) -> Any:
        """The ``(E, 2)`` canonical rank-space edge array (memmap)."""
        return self._edges

    @property
    def sources(self) -> Any:
        return self._edges[:, 0]

    @property
    def indices(self) -> Any:
        return self._edges[:, 1]

    @property
    def indptr(self) -> Any:
        return self._indptr

    @property
    def edge_keys(self) -> Any:
        return self._edge_keys_padded[:-1]

    @property
    def edge_keys_padded(self) -> Any:
        """Sorted probe keys including the trailing ``-1`` sentinel slot."""
        return self._edge_keys_padded

    @property
    def vertex_of(self) -> Any:
        """Store rank -> input vertex label (memmap, length ``num_vertices``)."""
        return self._vertex_of

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def spill_root(self) -> str:
        """The spill directory owned (and removed on close) by this store."""
        return self._spill.root

    # -- resource lifecycle ---------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def release_pages(self) -> None:
        """Drop resident pages of the read-only maps (data stays on disk).

        ``MADV_DONTNEED`` on a read-only file-backed mapping discards the
        in-core pages; later accesses refault from the page cache (or
        disk).  The kernels call this after every window so peak RSS tracks
        the chunk budget rather than the file sizes.
        """
        for array in (self._edges, self._edge_keys_padded, self._indptr, self._vertex_of):
            backing = getattr(array, "_mmap", None)
            if backing is None:
                continue
            try:
                backing.madvise(mmap_module.MADV_DONTNEED)
            except (AttributeError, OSError, ValueError):  # pragma: no cover - platform
                pass

    def close(self) -> None:
        """Release the memmaps and remove the spill directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        empty = _empty_arrays(require_numpy("the out-of-core store"), "auto")
        # Drop the mapped views before unlinking their files.
        self._edges, self._edge_keys_padded, self._indptr, self._vertex_of = empty
        self._finalizer()

    def __enter__(self) -> "OocoreStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"spill={self._spill.root}"
        return f"OocoreStore(V={self.num_vertices}, E={self._num_edges}, {state})"


def _empty_arrays(module: Any, dtype: str) -> tuple[Any, Any, Any, Any]:
    """In-RAM stand-ins for the zero-edge graph (memmaps cannot be empty)."""
    edge_dtype = resolve_dtype(dtype, 0)
    return (
        module.empty((0, 2), dtype=edge_dtype),
        module.array([-1], dtype=module.int32),
        module.zeros(1, dtype=module.int64),
        module.empty(0, dtype=module.int64),
    )


def build_store(
    edges: "Sequence[tuple[int, int]] | Iterable[Any] | Any",
    *,
    spill_dir: str | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    dtype: str = "auto",
) -> OocoreStore:
    """Canonicalise an edge stream into a spill-backed :class:`OocoreStore`.

    ``edges`` may be a packed ``(E, 2)`` array, any iterable of ``(u, v)``
    integer pairs, or an iterable of ``(k, 2)`` array chunks (the streaming
    form for inputs that never fit in memory).  Semantics match
    :func:`~repro.fastpath.arrays.canonicalize_edge_array` exactly:
    self-loops and negative ids raise
    :class:`~repro.exceptions.GraphFormatError`, duplicates (in either
    orientation) merge, vertices rank by ascending ``(degree, label)``.
    ``chunk_rows`` bounds the rows resident per pass; ``spill_dir`` roots
    the scratch files (a private temp directory by default).
    """
    module = require_numpy("the out-of-core backend")
    resolve_dtype(dtype, 0)  # validate the option before any file I/O
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    spill = _SpillDir(spill_dir)
    try:
        raw_path, rows, span = _ingest_oriented(module, spill, edges, chunk_rows)
        if rows == 0:
            spill.discard(raw_path)
            empty = _empty_arrays(module, dtype)
            return OocoreStore(spill, *empty, num_vertices=0, num_edges=0, chunk_rows=chunk_rows)
        runs_path, bounds = _sorted_key_runs(
            module, spill, "runs", raw_path, rows, lambda p: p[:, 0] * span + p[:, 1], chunk_rows
        )
        spill.discard(raw_path)
        dedup_path, degree_path, unique = _merge_dedup_degrees(
            module, spill, runs_path, bounds, span, chunk_rows
        )
        spill.discard(runs_path)
        rank_path, vertex_of_path, num_vertices = _rank_vertices(
            module, spill, degree_path, span, chunk_rows
        )
        spill.discard(degree_path)
        rank_runs_path, rank_bounds = _remap_to_rank_runs(
            module, spill, dedup_path, unique, rank_path, span, num_vertices, chunk_rows
        )
        spill.discard(dedup_path)
        spill.discard(rank_path)
        edges_path, keys_path, indptr_path, num_edges, edge_dtype, key_dtype = _write_csr(
            module, spill, rank_runs_path, rank_bounds, num_vertices, dtype, chunk_rows
        )
        spill.discard(rank_runs_path)
        return OocoreStore(
            spill,
            module.memmap(edges_path, dtype=edge_dtype, mode="r", shape=(num_edges, 2)),
            module.memmap(keys_path, dtype=key_dtype, mode="r", shape=(num_edges + 1,)),
            module.memmap(indptr_path, dtype=module.int64, mode="r", shape=(num_vertices + 1,)),
            module.memmap(vertex_of_path, dtype=module.int64, mode="r", shape=(num_vertices,)),
            num_vertices=num_vertices,
            num_edges=num_edges,
            chunk_rows=chunk_rows,
        )
    except BaseException:
        spill.close()
        raise


# ----------------------------------------------------------------------
# windowed compact-forward kernels over the store
# ----------------------------------------------------------------------
def count_triangles_store(store: OocoreStore, chunk_rows: int | None = None) -> int:
    """Triangle count of a spilled store; resident arrays stay window-sized."""
    module = require_numpy("the out-of-core count kernel")
    if store.num_edges == 0:
        return 0
    step = chunk_rows or store.chunk_rows
    padded = store.edge_keys_padded
    total = 0
    for lo in range(0, store.num_edges, step):
        hi = min(lo + step, store.num_edges)
        _counts, _w, keys = _chunk_expansion(module, store, lo, hi)
        if keys.shape[0]:
            total += int(module.count_nonzero(_probe_hits(module, padded, keys)))
        store.release_pages()
    return total


def iter_triangle_chunks_store(
    store: OocoreStore, chunk_rows: int | None = None
) -> Iterator[Any]:
    """Yield ``(k, 3)`` int64 arrays of store-rank triangles per edge window.

    Same deterministic discovery order as
    :func:`~repro.fastpath.kernels.iter_triangle_chunks_csr`: lexicographic
    by lowest edge, then closing vertex.  Map rows through
    :attr:`OocoreStore.vertex_of` to translate back to input labels.
    """
    module = require_numpy("the out-of-core enumeration kernel")
    if store.num_edges == 0:
        return
    step = chunk_rows or store.chunk_rows
    padded = store.edge_keys_padded
    for lo in range(0, store.num_edges, step):
        hi = min(lo + step, store.num_edges)
        counts, w, keys = _chunk_expansion(module, store, lo, hi)
        if keys.shape[0] == 0:
            store.release_pages()
            continue
        hits = _probe_hits(module, padded, keys)
        if bool(hits.any()):
            uu = keys[hits].astype(module.int64) // store.num_vertices
            vv = module.repeat(store.indices[lo:hi].astype(module.int64), counts)[hits]
            yield module.stack([uu, vv, w[hits].astype(module.int64)], axis=1)
        store.release_pages()


# ----------------------------------------------------------------------
# colour-pair partitioning for the sharder
# ----------------------------------------------------------------------
def color_partition(store: OocoreStore, coloring: Any) -> dict[tuple[int, int], Any]:
    """Partition the canonical edges by endpoint-colour pair, on disk.

    The memmap twin of the sharder's ``_partition_by_color_pairs``: classes
    hold identical edges in identical (canonical) order, but live as
    half-open row ranges of one grouped spill file instead of Python lists
    -- each returned :class:`~repro.poolexec.segments.MemmapSlice` is a
    picklable pointer shard workers resolve straight from disk.  Two
    streaming passes: count class sizes per window, then stable-group each
    window into its classes' file cursors.  The grouped file lives in the
    store's spill directory, so slices stay valid until ``store.close()``.
    """
    module = require_numpy("out-of-core colour partitioning")
    from repro.fastpath.coloring import edge_color_pairs
    from repro.poolexec.segments import MemmapSlice

    num_colors = coloring.num_colors
    num_classes = num_colors * num_colors
    step = store.chunk_rows
    class_sizes = module.zeros(num_classes, dtype=module.int64)
    for lo in range(0, store.num_edges, step):
        window = store.edges[lo : lo + step]
        colors_u, colors_v = edge_color_pairs(coloring, window)
        class_sizes += module.bincount(
            colors_u * num_colors + colors_v, minlength=num_classes
        )
    grouped_path = store._spill.path("classes")
    if store.num_edges == 0:
        return {}
    edge_dtype = store.edges.dtype
    grouped = module.memmap(grouped_path, dtype=edge_dtype, mode="w+", shape=(store.num_edges, 2))
    starts = module.zeros(num_classes, dtype=module.int64)
    module.cumsum(class_sizes[:-1], out=starts[1:])
    cursors = starts.copy()
    for lo in range(0, store.num_edges, step):
        window = module.asarray(store.edges[lo : lo + step])
        colors_u, colors_v = edge_color_pairs(coloring, window)
        keys = colors_u * num_colors + colors_v
        order = module.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_window = window[order]
        boundaries = module.flatnonzero(module.diff(sorted_keys)) + 1
        seg_starts = module.concatenate(([0], boundaries)).tolist()
        seg_stops = module.concatenate((boundaries, [sorted_keys.shape[0]])).tolist()
        for seg_lo, seg_hi in zip(seg_starts, seg_stops):
            key = int(sorted_keys[seg_lo])
            cursor = int(cursors[key])
            grouped[cursor : cursor + (seg_hi - seg_lo)] = sorted_window[seg_lo:seg_hi]
            cursors[key] = cursor + (seg_hi - seg_lo)
    grouped.flush()
    del grouped
    store._spill.account(grouped_path)
    dtype_name = module.dtype(edge_dtype).name
    slices: dict[tuple[int, int], Any] = {}
    for key in range(num_classes):
        size = int(class_sizes[key])
        if size == 0:
            continue
        start = int(starts[key])
        slices[(key // num_colors, key % num_colors)] = MemmapSlice(
            path=grouped_path, dtype=dtype_name, start=start, stop=start + size
        )
    return slices


# ----------------------------------------------------------------------
# registry entries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OocoreOptions(AlgorithmOptions):
    """Knobs of the out-of-core algorithms."""

    #: Root directory of the spill files; each run creates (and removes) a
    #: private subdirectory inside it.  Default: the system temp dir.
    spill_dir: str | None = None
    #: Rows resident per canonicalisation pass and per kernel window.
    chunk_rows: int = DEFAULT_CHUNK_ROWS
    #: Index dtype of the spilled edge array: ``auto`` / ``int32`` / ``int64``.
    dtype: str = "auto"

    def validate(self) -> None:
        if self.spill_dir is not None and not isinstance(self.spill_dir, str):
            raise OptionsError(f"spill_dir must be a string path, got {self.spill_dir!r}")
        if isinstance(self.chunk_rows, bool) or not isinstance(self.chunk_rows, int):
            raise OptionsError(f"chunk_rows must be an int, got {self.chunk_rows!r}")
        if self.chunk_rows < 1:
            raise OptionsError(f"chunk_rows must be >= 1, got {self.chunk_rows}")
        if self.dtype not in DTYPES:
            raise OptionsError(f"dtype must be one of {', '.join(DTYPES)}, got {self.dtype!r}")


@dataclass(frozen=True)
class OocoreReport:
    """Per-run metadata of an out-of-core run (spill volume, windowing)."""

    backend: str
    num_vertices: int
    num_edges: int
    chunk_rows: int
    spill_bytes: int
    windows: int


def _store_for_context(context: SubstrateContext, options: OocoreOptions) -> OocoreStore:
    """The engine's spilled store, built once per (engine, options) and cached.

    Cached in :attr:`SubstrateContext.cache` like the vectorized CSR, so
    sweeps re-run kernels without re-canonicalising; the engine's ``close``
    releases every cached store (removing its spill directory).
    """
    cache = context.cache
    key = f"oocore-store:{options.dtype}:{options.chunk_rows}:{options.spill_dir or ''}"
    if cache is not None:
        cached = cache.get(key)
        if cached is not None and not cached.closed:
            return cached
    store = build_store(
        context.canonical_edges,
        spill_dir=options.spill_dir,
        chunk_rows=options.chunk_rows,
        dtype=options.dtype,
    )
    if cache is not None:
        cache[key] = store
    return store


def _report(store: OocoreStore, windows: int) -> OocoreReport:
    return OocoreReport(
        backend="oocore",
        num_vertices=store.num_vertices,
        num_edges=store.num_edges,
        chunk_rows=store.chunk_rows,
        spill_bytes=store.spill_bytes,
        windows=windows,
    )


def _enumerate(context: SubstrateContext, sink: Any, options: OocoreOptions) -> OocoreReport:
    """Shared runner: windowed enumeration, translated back to engine ranks."""
    module = require_numpy("the out-of-core backend")
    store = _store_for_context(context, options)
    vertex_of = store.vertex_of
    windows = 0
    for chunk in iter_triangle_chunks_store(store, chunk_rows=options.chunk_rows):
        # Store ranks -> the engine's vertex labels (for engine-canonical
        # input these coincide, but the mapping keeps the algorithm correct
        # for any integer edge list), re-sorted ascending per row.
        mapped = module.sort(vertex_of[chunk], axis=1)
        emit_all(sink, [tuple(row) for row in mapped.tolist()])
        windows += 1
    return _report(store, windows)


def _count(context: SubstrateContext, options: OocoreOptions) -> tuple[int, OocoreReport]:
    """Count-only adapter: never materialises or translates a triangle."""
    store = _store_for_context(context, options)
    count = count_triangles_store(store, chunk_rows=options.chunk_rows)
    windows = -(-store.num_edges // options.chunk_rows)
    return count, _report(store, windows)


@register_algorithm(
    "oocore_count",
    summary="Out-of-core compact-forward count (memmap CSR, spill-backed canonicalisation)",
    section="1.3 (compact-forward, external arrays)",
    io_bound="real disk I/O (O(chunk_rows + V) resident)",
    substrate="in-memory",
    accepts_seed=False,
    options=OocoreOptions,
    counter=_count,
)
def _run_oocore_count(context: SubstrateContext, sink: Any, options: OocoreOptions) -> Any:
    # Reached only when the caller wants the triangles (sink / collect);
    # pure count queries dispatch to the counter adapter above.
    return _enumerate(context, sink, options)


@register_algorithm(
    "oocore_enum",
    summary="Out-of-core compact-forward enumeration (memmap CSR, windowed emission)",
    section="1.3 (compact-forward, external arrays)",
    io_bound="real disk I/O (O(chunk_rows + V) resident)",
    substrate="in-memory",
    accepts_seed=False,
    options=OocoreOptions,
)
def _run_oocore_enum(context: SubstrateContext, sink: Any, options: OocoreOptions) -> Any:
    return _enumerate(context, sink, options)
