"""Registry entries of the vectorized in-memory backend.

Two algorithms join the registry, both on the ``in-memory`` substrate:

``vector_count``
    The counting specialist: its count-only adapter never materialises a
    triangle (one running total per kernel chunk), which is what the engine's
    :meth:`~repro.core.engine.TriangleEngine.count` fast path dispatches to.
    When a sink or ``collect=True`` is supplied it enumerates like
    ``vector_enum``.

``vector_enum``
    The enumeration twin: yields every triangle through the sink's
    ``emit_many`` batch path, one kernel chunk at a time, so streaming
    consumers (``engine.stream``) hold one chunk of triangles at most.

Both carry :class:`VectorOptions` -- dtype selection, kernel chunk size and
a ``force_python`` escape hatch -- and both silently use the pure-Python
reference path when NumPy is absent, so registration (and every CLI /
experiment that sweeps the registry) never depends on NumPy being
installed.  The CSR is packed straight from the engine's canonical edges
(``SubstrateContext.canonical_edges``, the array of an engine built from an
edge array); only the pure-Python path asks the context for the tuple list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.emit import emit_all
from repro.core.registry import (
    AlgorithmOptions,
    SubstrateContext,
    register_algorithm,
)
from repro.core.baselines.in_memory import triangles_in_memory
from repro.exceptions import OptionsError
from repro.fastpath.arrays import DTYPES, HAVE_NUMPY
from repro.fastpath.csr import CSRAdjacency
from repro.fastpath.kernels import (
    DEFAULT_CHUNK_SIZE,
    count_triangles_csr,
    iter_triangle_chunks_csr,
)


@dataclass(frozen=True)
class VectorOptions(AlgorithmOptions):
    """Knobs of the vectorized in-memory algorithms."""

    #: Index dtype of the CSR arrays: ``auto`` (int32 while vertex ids fit,
    #: the default), or an explicit ``int32`` / ``int64``.
    dtype: str = "auto"
    #: Edges per kernel chunk; bounds the transient candidate arrays (and
    #: the size of each ``emit_many`` batch).
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Force the pure-Python reference path even when NumPy is available
    #: (differential tests pin backend parity with this).
    force_python: bool = False

    def validate(self) -> None:
        if self.dtype not in DTYPES:
            raise OptionsError(f"dtype must be one of {', '.join(DTYPES)}, got {self.dtype!r}")
        if isinstance(self.chunk_size, bool) or not isinstance(self.chunk_size, int):
            raise OptionsError(f"chunk_size must be an int, got {self.chunk_size!r}")
        if self.chunk_size < 1:
            raise OptionsError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not isinstance(self.force_python, bool):
            raise OptionsError(f"force_python must be a bool, got {self.force_python!r}")


@dataclass(frozen=True)
class VectorReport:
    """Per-run metadata of a vectorized algorithm (which backend actually ran)."""

    backend: str
    chunks: int


def _backend(options: VectorOptions) -> str:
    return "python" if options.force_python or not HAVE_NUMPY else "numpy"


def _csr_for_context(context: SubstrateContext, options: VectorOptions) -> CSRAdjacency:
    """The context's CSR adjacency, built once per engine and dtype.

    The engine canonicalises the graph once and shares a scratch dict
    across runs (:attr:`SubstrateContext.cache`); the packed CSR is a pure
    function of the canonical edges and the dtype option, so repeat runs --
    the ``repro compare`` sweep, the experiment grids, ``engine.count`` in
    a loop -- skip the array packing entirely.
    """
    cache = context.cache
    key = f"fastpath-csr:{options.dtype}"
    if cache is not None and key in cache:
        return cache[key]
    csr = CSRAdjacency.from_canonical_edges(context.canonical_edges, dtype=options.dtype)
    if cache is not None:
        cache[key] = csr
    return csr


def _enumerate(context: SubstrateContext, sink: Any, options: VectorOptions) -> VectorReport:
    """Shared runner: stream kernel chunks into the sink's batch path."""
    chunks = 0
    if _backend(options) == "python":
        triangles = triangles_in_memory(context.edge_records())
        for lo in range(0, len(triangles), options.chunk_size):
            emit_all(sink, triangles[lo : lo + options.chunk_size])
            chunks += 1
        return VectorReport(backend="python", chunks=chunks)
    csr = _csr_for_context(context, options)
    for chunk in iter_triangle_chunks_csr(csr, chunk_size=options.chunk_size):
        emit_all(sink, [tuple(row) for row in chunk.tolist()])
        chunks += 1
    return VectorReport(backend="numpy", chunks=chunks)


def _count(context: SubstrateContext, options: VectorOptions) -> tuple[int, VectorReport]:
    """Shared counter: one running total, no triangle ever materialised.

    Returns ``(count, report)`` so a count-only run still records which
    backend executed (``RunResult.report.backend``).
    """
    if _backend(options) == "python":
        triangles = triangles_in_memory(context.edge_records())
        return len(triangles), VectorReport(backend="python", chunks=0)
    csr = _csr_for_context(context, options)
    count = count_triangles_csr(csr, chunk_size=options.chunk_size)
    chunks = -(-csr.num_edges // options.chunk_size)
    return count, VectorReport(backend="numpy", chunks=chunks)


@register_algorithm(
    "vector_count",
    summary="Vectorized compact-forward count (NumPy CSR kernels, no simulated I/O)",
    section="1.3 (compact-forward, array-native)",
    io_bound="none (internal memory)",
    substrate="in-memory",
    accepts_seed=False,
    options=VectorOptions,
    counter=_count,
)
def _run_vector_count(context: SubstrateContext, sink: Any, options: VectorOptions) -> Any:
    # Only reached when the caller wants the triangles themselves (a sink or
    # collect=True); pure count queries dispatch to the counter above.
    return _enumerate(context, sink, options)


@register_algorithm(
    "vector_enum",
    summary="Vectorized compact-forward enumeration (NumPy CSR kernels, no simulated I/O)",
    section="1.3 (compact-forward, array-native)",
    io_bound="none (internal memory)",
    substrate="in-memory",
    accepts_seed=False,
    options=VectorOptions,
)
def _run_vector_enum(context: SubstrateContext, sink: Any, options: VectorOptions) -> Any:
    return _enumerate(context, sink, options)
