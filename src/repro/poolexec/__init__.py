"""The persistent execution tier: shared-memory segments + warm worker pools.

Two halves, mirroring the two costs PR 4's spawn-pool sharding kept paying:

:mod:`repro.poolexec.segments`
    Zero-copy graph shipping.  The coordinator packs an edge list once into
    a ``multiprocessing.shared_memory`` segment
    (:func:`~repro.poolexec.segments.publish_edges`) and ships workers a
    tiny picklable :class:`~repro.poolexec.segments.SegmentSlice` instead
    of the records themselves; workers attach the segment read-only, keyed
    by its content hash, and cache the decoded edge list so a run over many
    shard tasks transfers the graph at most once per worker -- and a
    *repeated* run on the same graph transfers nothing at all.  Segments
    are refcounted and unlinked on close (engine close, interpreter exit),
    so ``/dev/shm`` never leaks.

:mod:`repro.poolexec.pool`
    Warm worker pools.  A :class:`~repro.poolexec.pool.PoolProvider` hands
    the resilience supervisor its pool:
    :class:`~repro.poolexec.pool.EphemeralPoolProvider` reproduces the old
    spawn-per-map behaviour, while
    :class:`~repro.poolexec.pool.PersistentPoolProvider` leases a
    process-wide :class:`~repro.poolexec.pool.SharedWorkerPool` that
    survives across ``engine.run`` calls and orchestrator cells, so the
    interpreter+import startup cost is paid once per process instead of
    once per run.  Supervision (retries, timeouts, dead-worker detection)
    composes unchanged: a crashed persistent worker is replaced by the
    pool itself, and the replacement simply re-attaches the warm segments.
    :func:`~repro.poolexec.pool.effective_jobs` is the one rule for when a
    map fans out at all (two or more jobs and items, and not inside a
    daemonic worker).
"""

from repro.poolexec.pool import (
    EphemeralPoolProvider,
    PersistentPoolProvider,
    PoolLease,
    SharedWorkerPool,
    effective_jobs,
    provider_for,
)
from repro.poolexec.segments import (
    EdgeSource,
    SegmentHandle,
    SegmentRef,
    SegmentSlice,
    attached_edges,
    publish_edges,
    resolve_edges,
    segment_stats,
)

#: The selectable pool strategies (the ``--pool`` flag / ``pool=`` knob).
POOL_MODES = ("persistent", "spawn")

__all__ = [
    "POOL_MODES",
    "EdgeSource",
    "EphemeralPoolProvider",
    "PersistentPoolProvider",
    "PoolLease",
    "SegmentHandle",
    "SegmentRef",
    "SegmentSlice",
    "SharedWorkerPool",
    "attached_edges",
    "effective_jobs",
    "provider_for",
    "publish_edges",
    "resolve_edges",
    "segment_stats",
]
