"""Worker-pool providers: ephemeral spawn pools and the shared warm pool.

The resilience supervisor (:mod:`repro.resilience.supervisor`) no longer
builds pools itself; it asks a *provider* for a :class:`PoolLease` and
hands it back when the map finishes.  Two strategies implement the
contract:

:class:`EphemeralPoolProvider` (``--pool spawn``)
    The pre-existing behaviour: a fresh spawn pool per supervised map,
    terminated on release.  Tests that assert pool teardown, and one-shot
    scripts that should leave nothing behind, keep this semantics -- it is
    the default when the supervisor is called without a provider.

:class:`PersistentPoolProvider` (``--pool persistent``)
    Leases the process-wide :class:`SharedWorkerPool`: one spawn pool that
    survives across supervised maps, ``engine.run`` calls and orchestrator
    cells, so the interpreter+import startup cost (~150 ms/worker on the
    recording host) is paid once per process.  ``release`` keeps the pool
    warm; ``invalidate`` (a broken pool) rebuilds the inner pool but keeps
    the coordinator's shared-memory segments, which replacement workers
    simply re-attach.

Every lease carries an *epoch* token.  The started-message queue of a
persistent pool outlives individual maps, so a worker announcement from a
previous map could otherwise collide with the current map's ``(index,
attempt)`` numbering; the supervisor stamps its epoch into every submitted
task and discards started messages from any other epoch.

Both providers are idempotent under double release/invalidate: the second
teardown of an already-reaped pool is a no-op, not a crash (the historical
double-``terminate()`` between the orchestrator and the supervisor).
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import threading
from dataclasses import dataclass
from typing import Any, Protocol

_EPOCHS = itertools.count(1)


def _next_epoch() -> str:
    return f"epoch-{next(_EPOCHS)}"


def effective_jobs(jobs: int, num_items: int) -> int:
    """The worker-process count a pool would actually use.

    Returns 1 (serial execution, no pool) when a pool is pointless --
    fewer than two jobs or fewer than two items -- or when the calling
    process is itself a daemonic pool worker, which ``multiprocessing``
    forbids from having children.
    """
    if jobs <= 1 or num_items <= 1:
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return min(jobs, num_items)


#: Worker-process handle to the started-message queue (set by the pool
#: initializer; ``None`` in the coordinating process).
_WORKER_STARTED_QUEUE: Any = None


def _init_worker(started_queue: Any) -> None:
    """Pool initializer: runs in every (re)spawned worker, including the
    replacements a persistent pool creates after a worker crash."""
    global _WORKER_STARTED_QUEUE
    _WORKER_STARTED_QUEUE = started_queue


def worker_started_queue() -> Any:
    """The started-message queue of the current worker process (or ``None``)."""
    return _WORKER_STARTED_QUEUE


@dataclass
class PoolLease:
    """One supervisor's claim on a pool: the pool, its queue, an epoch."""

    pool: Any
    started_queue: Any
    epoch: str
    persistent: bool


class PoolProvider(Protocol):
    """What the supervisor needs from a pool strategy."""

    def lease(self) -> PoolLease:  # pragma: no cover - protocol
        """A ready pool plus a fresh epoch."""
        ...

    def invalidate(self, lease: PoolLease) -> None:  # pragma: no cover - protocol
        """The leased pool broke: tear down / rebuild the backing pool."""
        ...

    def release(self, lease: PoolLease) -> None:  # pragma: no cover - protocol
        """The map is done with the lease (keep warm or terminate)."""
        ...


class EphemeralPoolProvider:
    """A fresh spawn pool per lease, terminated on release (PR 6 semantics)."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def lease(self) -> PoolLease:
        context = multiprocessing.get_context("spawn")
        queue = context.SimpleQueue()
        pool = context.Pool(processes=self.jobs, initializer=_init_worker, initargs=(queue,))
        return PoolLease(pool=pool, started_queue=queue, epoch=_next_epoch(), persistent=False)

    def invalidate(self, lease: PoolLease) -> None:
        self.release(lease)

    def release(self, lease: PoolLease) -> None:
        # Idempotent: the lease's references are nulled as they are reaped,
        # so a second release (supervisor finally + an outer teardown) is a
        # no-op instead of a double-terminate on a dead pool.
        pool, lease.pool = lease.pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        queue, lease.started_queue = lease.started_queue, None
        if queue is not None:
            queue.close()


class SharedWorkerPool:
    """The process-wide warm pool behind every persistent lease.

    One spawn pool (plus its started-message queue) kept alive for the
    lifetime of the process, grown on demand: ``ensure(jobs)`` reuses the
    current pool when it is at least ``jobs`` wide and rebuilds it wider
    otherwise.  Individual worker crashes do *not* go through here --
    ``multiprocessing.Pool`` replaces dead workers itself (re-running the
    initializer, so replacements get the queue) -- only a broken pool
    (failed submission) forces :meth:`rebuild`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Any = None
        self._queue: Any = None
        self._size = 0

    def ensure(self, jobs: int) -> tuple[Any, Any]:
        """The live ``(pool, queue)``, at least ``jobs`` workers wide."""
        with self._lock:
            if self._pool is None or self._size < jobs:
                self._rebuild_locked(max(jobs, self._size))
            return self._pool, self._queue

    def rebuild(self) -> None:
        """Replace a broken pool with a fresh one of the same width."""
        with self._lock:
            if self._size:
                self._rebuild_locked(self._size)

    def shutdown(self) -> None:
        """Terminate the warm pool (interpreter exit, explicit cleanup)."""
        with self._lock:
            self._stop_locked()
            self._size = 0

    @property
    def size(self) -> int:
        """Width of the current warm pool (0 when none is live)."""
        return self._size

    def worker_pids(self) -> list[int]:
        """Pids of the current pool's workers (tests introspect these)."""
        with self._lock:
            workers = getattr(self._pool, "_pool", None) or []
            return [w.pid for w in workers if w.pid is not None]

    def _stop_locked(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        queue, self._queue = self._queue, None
        if queue is not None:
            queue.close()

    def _rebuild_locked(self, jobs: int) -> None:
        self._stop_locked()
        context = multiprocessing.get_context("spawn")
        self._queue = context.SimpleQueue()
        self._pool = context.Pool(
            processes=jobs, initializer=_init_worker, initargs=(self._queue,)
        )
        self._size = jobs


#: The one shared pool of this process (created lazily, torn down atexit).
_SHARED = SharedWorkerPool()
atexit.register(_SHARED.shutdown)


def shared_pool() -> SharedWorkerPool:
    """The process-wide :class:`SharedWorkerPool` singleton."""
    return _SHARED


class PersistentPoolProvider:
    """Leases the shared warm pool; release keeps it warm for the next map."""

    def __init__(self, jobs: int, shared: SharedWorkerPool | None = None) -> None:
        self.jobs = jobs
        self.shared = shared if shared is not None else _SHARED

    def lease(self) -> PoolLease:
        pool, queue = self.shared.ensure(self.jobs)
        return PoolLease(pool=pool, started_queue=queue, epoch=_next_epoch(), persistent=True)

    def invalidate(self, lease: PoolLease) -> None:
        # Drop the lease's references first so a concurrent release is a
        # no-op, then swap the broken pool for a fresh one.  The published
        # shared-memory segments belong to the coordinator, not the pool:
        # the fresh workers re-attach them on their first task.
        broken, lease.pool = lease.pool, None
        lease.started_queue = None
        if broken is not None:
            self.shared.rebuild()

    def release(self, lease: PoolLease) -> None:
        lease.pool = None
        lease.started_queue = None


def provider_for(pool: str, jobs: int) -> PoolProvider:
    """The provider behind a ``--pool persistent|spawn`` selection."""
    if pool == "spawn":
        return EphemeralPoolProvider(jobs)
    if pool == "persistent":
        return PersistentPoolProvider(jobs)
    raise ValueError(f"unknown pool strategy {pool!r}; expected 'persistent' or 'spawn'")
