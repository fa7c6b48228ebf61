"""Paper Lemma 2 (Hu, Tao and Chung): triangles with a pivot edge in ``E'``.

    "The set of triangles in an edge set E with a pivot edge in E' ⊆ E can
    be enumerated in O(E/B + E'E/(MB)) I/Os."

The algorithm loads ``alpha * M`` pivot edges at a time into internal memory
and, for each memory-resident batch, streams the edge set once: for every
cone vertex ``v`` it collects ``Gamma_v``, the forward neighbours of ``v``
that touch the batch, and reports every batch edge ``{u, w}`` with both
endpoints in ``Gamma_v`` as the triangle ``{v, u, w}``.

The host evaluates each batch as one hash join instead of one cone-vertex
group at a time: the stream is narrowed to its batch-touching records, which
are indexed by forward neighbour (``cones_of[u]`` lists every ``v`` with
``u`` in ``Gamma_v``), and each batch edge ``(u, w)`` closes the triangles
``(v, u, w)`` for every ``v`` in ``cones_of[u] ∩ cones_of[w]``.  The
simulated machine is charged exactly what the group-at-a-time stream
charges -- one read per streamed block, one operation per streamed record
and one operation per probe of a closing list, using

    Σ_(v,u) |closing(u)| = Σ_u |cones_of[u]| · |closing(u)|

-- so the counters do not depend on which of the two evaluations runs.

Rank-space orientation makes every triple ``v < u < w``; each batch's
triangles are delivered in ascending ``(v, u, w)`` order.

This subroutine is both:

* the inner loop of the cache-aware algorithms (Section 2 step 3 /
  Section 4), where ``E'`` is one colour-class partition and the edge set is
  the union of three partitions, and
* the whole of the Hu-Tao-Chung baseline (``E' = E``), see
  :mod:`repro.core.baselines.hu_tao_chung`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.core.emit import Triangle, TriangleSink, emit_all
from repro.extmem.disk import Readable
from repro.extmem.machine import Machine

RankedEdge = tuple[int, int]
TriangleFilter = Callable[[Triangle], bool]

#: Fraction of internal memory used for the pivot-edge batch.  The batch,
#: its endpoint set and its adjacency index together are leased as
#: ``_MEMORY_MULTIPLIER`` times the batch size, so the default keeps the
#: total comfortably under ``M``.
DEFAULT_MEMORY_FRACTION = 1.0 / 4.0
_MEMORY_MULTIPLIER = 3
#: Largest slice of a batch's sorted triangles handed to one ``emit_all``
#: call; purely a constant-factor knob (the enumeration still never writes
#: triangles to external memory).
_EMIT_BATCH = 4096


def triangles_with_pivot_in(
    machine: Machine,
    pivot_source: Readable,
    adjacency_sources: Sequence[Readable],
    sink: TriangleSink,
    cone_filter: Callable[[int], bool] | None = None,
    triangle_filter: TriangleFilter | None = None,
    memory_fraction: float = DEFAULT_MEMORY_FRACTION,
    spectator_lengths: Sequence[int] = (),
) -> int:
    """Emit every triangle whose pivot edge lies in ``pivot_source``.

    Parameters
    ----------
    pivot_source:
        The pivot-edge set ``E'`` (any order).
    adjacency_sources:
        Files/slices that together form the edge set ``E``, each holding
        rank-space edges ``(v, u)`` with ``v < u``.  Pass each distinct
        source once.  The paper streams their merge grouped by smaller
        endpoint (callers keep them sorted lexicographically); the join
        charges the same and does not depend on their order.
    cone_filter:
        Optional predicate on the cone vertex; records whose smaller
        endpoint fails it are dropped (a colour-class iteration can use it
        to keep only cone vertices of colour ``tau_1``).
    triangle_filter:
        Optional predicate on the triangle ``(v, u, w)`` applied just before
        emission.
    spectator_lengths:
        Lengths of the parts of the edge set whose cone vertices are known
        *a priori* to fail ``cone_filter`` (e.g. a colour class whose first
        colour is not ``tau_1``).  Each is charged exactly like a scan of an
        adjacency source on every batch -- the I/O model sees the same
        stream -- but no record of them is needed, since none can
        contribute.

    Each pivot batch delivers its triangles ``(v, u, w)``, ``v < u < w``,
    in ascending order.  Returns the number of triangles emitted.
    """
    if not 0 < memory_fraction <= 1.0 / float(_MEMORY_MULTIPLIER):
        raise ValueError(
            f"memory fraction must lie in (0, {1.0 / _MEMORY_MULTIPLIER:.3f}], got {memory_fraction}"
        )
    total_pivots = len(pivot_source)
    if total_pivots == 0:
        return 0
    batch_size = max(1, int(memory_fraction * machine.memory_size))
    emitted = 0
    position = 0
    while position < total_pivots:
        count = min(batch_size, total_pivots - position)
        with machine.lease(_MEMORY_MULTIPLIER * count, "lemma2 pivot batch"):
            batch = machine.load(pivot_source, position, count)
            for length in spectator_lengths:
                machine.charge_scan(length)
            emitted += _process_batch(
                machine,
                batch,
                adjacency_sources,
                sink,
                cone_filter,
                triangle_filter,
            )
        position += count
    return emitted


def _process_batch(
    machine: Machine,
    batch: list[RankedEdge],
    adjacency_sources: Sequence[Readable],
    sink: TriangleSink,
    cone_filter: Callable[[int], bool] | None,
    triangle_filter: TriangleFilter | None,
) -> int:
    """Join the edge set against one memory-resident pivot batch.

    Every adjacency source is scanned block by block (one read per block,
    one operation per record, as the stream is charged) and narrowed to the
    records ``(v, u)`` whose forward neighbour ``u`` touches the batch.
    Those survivors that pass ``cone_filter`` are indexed by ``u``; a batch
    edge ``(u, w)`` then closes ``(v, u, w)`` for every cone ``v`` of both
    ``u`` and ``w``.  Probing ``closing(u)`` once per record ``(v, u)`` is
    charged in bulk as ``|cones_of[u]| * |closing(u)|``.

    The batch's triangles are sorted ascending and delivered through
    :func:`emit_all` in slices of at most ``_EMIT_BATCH``.
    """
    charge_operations = machine.stats.charge_operations
    closing_of: dict[int, list[int]] = defaultdict(list)
    endpoints: set[int] = set()
    for u, w in batch:
        endpoints.add(u)
        endpoints.add(w)
        closing_of[u].append(w)
    charge_operations(len(batch))

    candidates: list[RankedEdge] = []
    for source in adjacency_sources:
        for block in machine.scan_blocks(source):
            charge_operations(len(block))
            candidates += [edge for edge in block if edge[1] in endpoints]
    if cone_filter is not None:
        candidates = [edge for edge in candidates if cone_filter(edge[0])]
    cones_of: dict[int, list[int]] = defaultdict(list)
    for v, u in candidates:
        cones_of[u].append(v)

    operations = 0
    triangles: list[Triangle] = []
    get_cones = cones_of.get
    for u, closing in closing_of.items():
        cones_u = get_cones(u)
        if not cones_u:
            continue
        operations += len(cones_u) * len(closing)
        cone_set = set(cones_u)
        for w in closing:
            cones_w = get_cones(w)
            if cones_w:
                triangles.extend([(v, u, w) for v in cone_set.intersection(cones_w)])
    charge_operations(operations)

    if triangle_filter is not None:
        triangles = [t for t in triangles if triangle_filter(t)]
    triangles.sort()
    for start in range(0, len(triangles), _EMIT_BATCH):
        emit_all(sink, triangles[start : start + _EMIT_BATCH])
    return len(triangles)
