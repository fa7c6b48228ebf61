"""Shared-memory edge segments: publish once, attach everywhere.

The coordinator of a sharded run packs an edge list into one
``multiprocessing.shared_memory`` segment (int64 ``(u, v)`` pairs,
little-endian, NumPy when available, ``array('q')`` otherwise) and ships
workers a :class:`SegmentSlice` -- segment name, content token, half-open
record range -- instead of pickling the records into every task.  Workers
attach the segment read-only, decode it once, and serve every subsequent
slice of the same segment from an in-process cache, so one graph crosses
the process boundary at most once per worker regardless of how many shard
tasks reference it.

Lifecycle
---------
Segments are *owned by the publishing process*.  Publishing is deduplicated
by content hash: asking to publish bytes that are already live returns the
existing :class:`SegmentHandle` with its refcount bumped, and
:meth:`SegmentHandle.close` unlinks the segment only when the last holder
lets go.  Every live handle is also registered with ``atexit``, so an
abandoned run cannot leak ``/dev/shm`` entries past interpreter exit.

Attaching processes never own the segment: on Python <= 3.12 merely opening
a ``SharedMemory(name=...)`` registers it with the *attaching* process's
``resource_tracker``, which would both warn at worker exit and -- worse --
unlink a segment the coordinator still uses.  :func:`_open_untracked`
therefore immediately unregisters the attachment (or passes ``track=False``
on 3.13+), and workers close their mapping as soon as the records are
decoded, holding plain Python data instead of shared mappings.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence, Union

from repro.fastpath.arrays import HAVE_NUMPY

RankedEdge = tuple[int, int]

#: Bytes per packed edge: two little-endian int64 words.
_EDGE_BYTES = 16

#: ``/dev/shm`` name prefix of every segment this package creates; the
#: lifecycle tests glob for it to prove nothing leaks.
SEGMENT_PREFIX = "repro-seg"

_SEQUENCE = itertools.count(1)
_LOCK = threading.Lock()

#: Live handles owned by this process: segment name -> handle.
_LIVE: dict[str, "SegmentHandle"] = {}
#: Content-hash index over the live handles (publish deduplication).
_BY_TOKEN: dict[str, "SegmentHandle"] = {}

#: Coordinator-side publish counters (the zero-re-transfer tests read these).
_STATS = {
    "published_segments": 0,
    "published_bytes": 0,
    "deduplicated_publishes": 0,
    "attached_segments": 0,
    "attach_cache_hits": 0,
}


def segment_stats() -> dict[str, int]:
    """A snapshot of the publish/attach counters of *this* process."""
    with _LOCK:
        return dict(_STATS)


@dataclass(frozen=True)
class SegmentRef:
    """A picklable pointer to a published segment (no data)."""

    name: str
    length: int
    token: str


@dataclass(frozen=True)
class SegmentSlice:
    """A half-open record range ``[start, stop)`` of a published segment."""

    ref: SegmentRef
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


#: What shard tasks carry for an edge payload: a slice of a published
#: segment, or the records inline (the in-process / empty-input fallback).
EdgeSource = Union[SegmentSlice, list, tuple]


class SegmentHandle:
    """An owned, refcounted shared-memory segment of packed edges."""

    def __init__(self, shm: shared_memory.SharedMemory, length: int, token: str) -> None:
        self._shm = shm
        self.name = shm.name
        self.length = length
        self.token = token
        self._refs = 1
        self._unlinked = False

    def ref(self) -> SegmentRef:
        """The picklable pointer workers attach by."""
        return SegmentRef(name=self.name, length=self.length, token=self.token)

    def slice(self, start: int, stop: int) -> SegmentSlice:
        """A :class:`SegmentSlice` over ``[start, stop)`` of this segment."""
        if not (0 <= start <= stop <= self.length):
            raise ValueError(
                f"slice [{start}, {stop}) out of bounds for segment of {self.length} records"
            )
        return SegmentSlice(ref=self.ref(), start=start, stop=stop)

    def acquire(self) -> "SegmentHandle":
        """Add one holder (publish deduplication path)."""
        with _LOCK:
            self._refs += 1
        return self

    def close(self) -> None:
        """Release one holder; the last release unlinks the segment.

        Idempotent past zero: closing an already-unlinked handle (engine
        close racing the ``atexit`` sweep, a double teardown) is a no-op
        rather than an error.
        """
        with _LOCK:
            if self._unlinked:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._unlinked = True
            _LIVE.pop(self.name, None)
            _BY_TOKEN.pop(self.token, None)
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    @property
    def closed(self) -> bool:
        """True once the underlying segment has been unlinked."""
        with _LOCK:
            return self._unlinked

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        # repro-lint: ignore[RPR106] -- best-effort debug snapshot; repr must never block on a lock
        state = "closed" if self._unlinked else f"refs={self._refs}"
        return f"SegmentHandle({self.name}, {self.length} edges, {state})"


def _pack_edges(edges: Sequence[RankedEdge]) -> bytes:
    """Pack ``(u, v)`` pairs into little-endian int64 bytes."""
    if HAVE_NUMPY:
        import numpy as np

        return np.ascontiguousarray(edges, dtype="<i8").tobytes()
    import array

    flat = array.array("q", (value for edge in edges for value in edge))
    return flat.tobytes()


def _unpack_edges(raw: bytes, length: int) -> list[RankedEdge]:
    """Decode packed bytes back into a list of ``(u, v)`` tuples."""
    if HAVE_NUMPY:
        import numpy as np

        pairs = np.frombuffer(raw, dtype="<i8", count=length * 2).reshape(length, 2)
        return list(map(tuple, pairs.tolist()))
    import array

    flat = array.array("q")
    flat.frombytes(raw[: length * _EDGE_BYTES])
    endpoints = iter(flat)
    return list(zip(endpoints, endpoints))


def publish_edges(edges: Sequence[RankedEdge]) -> SegmentHandle | None:
    """Place an edge list in shared memory; return its (refcounted) handle.

    Returns ``None`` for an empty list (shared-memory segments cannot be
    zero-sized; callers fall back to inline records).  Publishing content
    that is already live returns the existing handle with one more holder
    instead of a second segment -- repeated runs on the same graph transfer
    nothing.
    """
    if not edges:
        return None
    payload = _pack_edges(edges)
    token = hashlib.sha256(payload).hexdigest()
    with _LOCK:
        existing = _BY_TOKEN.get(token)
        if existing is not None and not existing._unlinked:
            existing._refs += 1
            _STATS["deduplicated_publishes"] += 1
            return existing

    shm = _create_segment(len(payload))
    try:
        shm.buf[: len(payload)] = payload
        handle = SegmentHandle(shm, length=len(edges), token=token)
    except BaseException:
        # The segment exists but was never registered: unlink it here or
        # it leaks in /dev/shm until reboot.
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        raise
    with _LOCK:
        _LIVE[handle.name] = handle
        _BY_TOKEN[token] = handle
        _STATS["published_segments"] += 1
        _STATS["published_bytes"] += len(payload)
    return handle


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a named segment, retrying on (unlikely) name collisions."""
    while True:
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEQUENCE)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - pid reuse collision
            continue


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting ownership of it.

    On 3.13+ ``track=False`` skips resource-tracker registration.  Earlier
    interpreters register every attachment, and the right correction
    depends on *whose* tracker that was:

    - A pool worker shares its parent coordinator's tracker process (the
      fd is inherited across spawn), so the attach-registration is a
      set-level no-op -- and undoing it would strip the *coordinator's*
      registration, making the eventual owner unlink crash the tracker
      with a ``KeyError``.  Leave it alone.
    - An independent process (no multiprocessing parent) lazily starts its
      own tracker, which would warn about -- and unlink! -- a segment the
      coordinator still owns.  There the registration must be undone
      immediately.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no track parameter
        shm = shared_memory.SharedMemory(name=name)
        if multiprocessing.parent_process() is not None:
            return shm  # shared tracker: the registration belongs to the owner
        try:
            resource_tracker.unregister(getattr(shm, "_name", f"/{name}"), "shared_memory")
        except Exception:  # pragma: no cover - tracker internals drift
            pass
        return shm


#: Worker-side decoded-segment cache: segment name -> edge list.  Bounded
#: LRU; entries are plain Python data (the shared mapping is closed as soon
#: as it is decoded), so eviction frees memory without touching the segment.
_ATTACHED: "OrderedDict[str, list[RankedEdge]]" = OrderedDict()
_ATTACH_CACHE_LIMIT = 8


def attached_edges(ref: SegmentRef) -> list[RankedEdge]:
    """The full decoded edge list of ``ref``'s segment (cached per process)."""
    with _LOCK:
        cached = _ATTACHED.get(ref.name)
        if cached is not None:
            _ATTACHED.move_to_end(ref.name)
            _STATS["attach_cache_hits"] += 1
            return cached
    shm = _open_untracked(ref.name)
    try:
        raw = bytes(shm.buf[: ref.length * _EDGE_BYTES])
    finally:
        shm.close()
    edges = _unpack_edges(raw, ref.length)
    with _LOCK:
        _ATTACHED[ref.name] = edges
        while len(_ATTACHED) > _ATTACH_CACHE_LIMIT:
            _ATTACHED.popitem(last=False)
        _STATS["attached_segments"] += 1
    return edges


def resolve_edges(source: EdgeSource) -> list[RankedEdge]:
    """Materialise an edge payload: attach, or pass inline."""
    if isinstance(source, SegmentSlice):
        return attached_edges(source.ref)[source.start : source.stop]
    return list(source)


def _close_all_live() -> None:
    """``atexit`` sweep: unlink every segment this process still owns."""
    with _LOCK:
        handles = list(_LIVE.values())
    for handle in handles:
        with _LOCK:
            handle._refs = min(handle._refs, 1)
        handle.close()


atexit.register(_close_all_live)
