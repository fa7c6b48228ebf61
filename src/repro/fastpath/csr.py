"""Compressed-sparse-row adjacency over the canonical (forward) edge list.

The canonical edge list is already grouped by source and sorted by target
within each group, so the CSR build is just a ``bincount`` for the row
pointer and a view of the target column for the index array -- no sorting,
no hashing.  Only *forward* neighbourhoods are stored (``N+(u) = {v : (u, v)
in E, u < v}``), which is exactly what the compact-forward kernels consume.

Alongside the adjacency, :class:`CSRAdjacency` keeps the sorted 64-bit edge
keys ``u * n + v`` that turn "is ``(v, c)`` an edge?" into one
``searchsorted`` probe -- the membership test at the heart of the vectorized
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.exceptions import GraphFormatError
from repro.fastpath.arrays import MAX_PACKED_VERTICES, pack_edges, require_numpy


@dataclass(frozen=True)
class CSRAdjacency:
    """Forward adjacency of a canonical edge list in CSR form.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` row pointer; ``indices[indptr[u]:indptr[u+1]]`` is the
        ascending forward neighbourhood of ``u``.
    indices:
        ``(E,)`` concatenated forward neighbourhoods (the target column).
    sources:
        ``(E,)`` source column, aligned with ``indices`` (the canonical edge
        list split by column, kept for the kernels' chunk iteration).
    edge_keys:
        ``(E,)`` sorted keys ``u * num_vertices + v`` for membership probes
        (int32 while ``n^2`` fits, int64 beyond; the kernels build their
        probe keys in the same dtype).
    num_vertices:
        ``n``: one past the largest vertex id seen (ranks are dense, so this
        equals the vertex count for engine-canonical inputs).
    """

    indptr: Any
    indices: Any
    sources: Any
    edge_keys: Any
    num_vertices: int

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    @property
    def edge_keys_padded(self) -> Any:
        """The sorted edge keys plus one ``-1`` sentinel slot (a fresh copy).

        The kernels' probe reads ``padded[searchsorted(...)]``; the sentinel,
        never a valid key, absorbs the one-past-the-end position.  The
        out-of-core store keeps the same array on disk.
        """
        module = require_numpy("the CSR edge keys")
        return module.concatenate([self.edge_keys, module.array([-1], dtype=self.edge_keys.dtype)])

    def forward(self, vertex: int) -> Any:
        """The ascending forward neighbourhood of ``vertex`` (a view)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def out_degrees(self) -> Any:
        """Forward degree of every vertex (``indptr`` differences)."""
        module = require_numpy("CSR degrees")
        return module.diff(self.indptr)

    @classmethod
    def from_canonical_edges(
        cls, edges: "Sequence[tuple[int, int]] | Any", dtype: str = "auto"
    ) -> "CSRAdjacency":
        """Build the CSR from an already-canonical edge list or packed array.

        The input must be in canonical form (``u < v`` per edge, sorted
        lexicographically, deduplicated) -- the form every
        :class:`~repro.core.engine.TriangleEngine` run provides.  Raises
        :class:`~repro.exceptions.GraphFormatError` when the invariant is
        visibly violated (unsorted rows), because a silently mis-grouped CSR
        would produce wrong triangle counts rather than an error.
        """
        module = require_numpy("the CSR adjacency builder")
        array = pack_edges(edges, dtype=dtype)
        if array.shape[0] == 0:
            empty = module.empty(0, dtype=module.int64)
            return cls(
                indptr=module.zeros(1, dtype=module.int64),
                indices=empty,
                sources=empty,
                edge_keys=empty,
                num_vertices=0,
            )
        u = array[:, 0]
        v = array[:, 1]
        if bool((u >= v).any()):
            raise GraphFormatError("canonical edges must satisfy u < v in every row")
        num_vertices = int(v.max()) + 1
        if num_vertices > MAX_PACKED_VERTICES:
            raise GraphFormatError(
                f"{num_vertices} vertices overflow the packed 64-bit edge keys"
            )
        keys = u.astype(module.int64) * num_vertices + v.astype(module.int64)
        if bool((keys[1:] <= keys[:-1]).any()):
            raise GraphFormatError(
                "canonical edges must be sorted lexicographically without duplicates"
            )
        # Key dtype policy: keys span [0, n^2); while that fits int32 the
        # narrow keys halve the memory traffic of the kernels' searchsorted
        # probes.  46340^2 is the largest square below 2^31.
        if num_vertices <= 46_340:
            keys = keys.astype(module.int32)
        counts = module.bincount(u, minlength=num_vertices)
        indptr = module.zeros(num_vertices + 1, dtype=module.int64)
        module.cumsum(counts, out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=module.ascontiguousarray(v),
            sources=module.ascontiguousarray(u),
            edge_keys=keys,
            num_vertices=num_vertices,
        )
