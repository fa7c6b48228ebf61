"""Array-native fast path: a vectorized in-memory backend.

The simulated substrates (:mod:`repro.extmem`) measure I/O; this package
measures nothing and simply runs as fast as the hardware allows.  It holds
the canonical edge list in packed NumPy arrays, builds a CSR adjacency over
them, and counts / enumerates triangles with compact-forward kernels whose
inner loops are array operations (``searchsorted`` membership probes over a
sorted edge-key array) instead of per-edge Python bytecode.

The package degrades gracefully: every entry point has a pure-Python
fallback (delegating to the reference oracle in
:mod:`repro.core.baselines.in_memory`) that is selected automatically when
NumPy is not importable, so the package -- and the registered
``vector_count`` / ``vector_enum`` algorithms -- work, merely slower, on a
bare interpreter.  :data:`HAVE_NUMPY` reports which backend is active.

Layout:

* :mod:`repro.fastpath.arrays` -- the NumPy gate, packed edge arrays and
  vectorized canonicalisation (dedup / orient / degree-rank).
* :mod:`repro.fastpath.csr` -- the CSR adjacency builder.
* :mod:`repro.fastpath.kernels` -- vectorized compact-forward count and
  enumeration kernels.
* :mod:`repro.fastpath.algorithms` -- the ``vector_count`` / ``vector_enum``
  registry entries (imported lazily with the built-ins).
* :mod:`repro.fastpath.oocore` -- the out-of-core sibling: spill-backed
  canonicalisation and memmapped CSR kernels, registered as
  ``oocore_count`` / ``oocore_enum`` (imported lazily with the built-ins
  too; like the rest of the package it degrades to a clear
  :class:`~repro.exceptions.FastPathUnavailableError` without NumPy).
"""

from repro.fastpath.arrays import (
    HAVE_NUMPY,
    CanonicalArrays,
    canonicalize_edge_array,
    pack_edges,
)
from repro.fastpath.csr import CSRAdjacency
from repro.fastpath.kernels import (
    count_triangles_fast,
    enumerate_triangles_fast,
    iter_triangle_chunks,
)

__all__ = [
    "CSRAdjacency",
    "CanonicalArrays",
    "HAVE_NUMPY",
    "canonicalize_edge_array",
    "count_triangles_fast",
    "enumerate_triangles_fast",
    "iter_triangle_chunks",
    "pack_edges",
]
