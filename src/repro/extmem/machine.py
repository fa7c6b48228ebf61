"""The explicit (cache-aware) external-memory machine.

Cache-aware algorithms interact with external memory exclusively through a
:class:`Machine`:

* :meth:`Machine.scan` -- sequential read of a file (or slice), charging one
  block read per ``B`` records consumed;
* :meth:`Machine.scan_all` / :meth:`Machine.charge_scan` -- a whole-range
  scan charged in one step (one read per block, one operation per record);
* :meth:`Machine.writer` / :meth:`Machine.write_file` -- buffered sequential
  writes, charging one block write per ``B`` records produced;
* :meth:`Machine.load` -- an explicit bulk load into internal memory, only
  allowed while a sufficient :class:`MemoryLease` is held;
* :meth:`Machine.sort` -- external multiway merge sort
  (:mod:`repro.extmem.sorting`).

Internal-memory usage for algorithm-visible data structures is tracked with
leases against the capacity ``M``; exceeding it raises
:class:`repro.exceptions.MemoryExceededError`.  Per-stream block buffers
(``O(B)`` words each) are not leased individually -- algorithms keep only a
constant number of streams open at a time, except the merge sort, which caps
its fan-in at ``M/B``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.model import MachineParams
from repro.exceptions import MemoryExceededError
from repro.extmem.disk import Disk, ExtFile, Readable, Record
from repro.extmem.stats import IOStats


class MemoryLease:
    """A reservation of internal-memory words, released on exit.

    Leases are context managers::

        with machine.lease(chunk_size, "pivot edges"):
            chunk = machine.load(pivot_file, offset, chunk_size)
            ...
    """

    def __init__(self, machine: "Machine", words: int, label: str) -> None:
        self.machine = machine
        self.words = words
        self.label = label
        self._active = False

    def __enter__(self) -> "MemoryLease":
        self.machine._acquire(self)
        self._active = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._active:
            self.machine._release(self)
            self._active = False


class BufferedWriter:
    """Accumulates records and charges one block write per ``B`` records."""

    def __init__(self, machine: "Machine", file: ExtFile) -> None:
        self.machine = machine
        self.file = file
        self._buffer: list[Record] = []
        self._closed = False

    def append(self, record: Record) -> None:
        """Append a single record to the output file."""
        self._buffer.append(record)
        if len(self._buffer) >= self.machine.block_size:
            self._flush_full_blocks()

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records, flushing whole blocks at a time.

        This is the block-granular fast path: the input is buffered in bulk
        and every complete block is appended with a single
        :meth:`ExtFile._append_many` call, charging exactly the same writes
        as record-by-record :meth:`append` would.
        """
        buffer = self._buffer
        buffer.extend(records)
        if len(buffer) >= self.machine.block_size:
            self._flush_full_blocks()

    def _flush_full_blocks(self) -> None:
        block = self.machine.block_size
        buffer = self._buffer
        count = (len(buffer) // block) * block
        self.machine.stats.charge_write(count // block)
        self.file._append_many(buffer[:count])
        del buffer[:count]

    def close(self) -> ExtFile:
        """Flush any partial block and return the written file."""
        if not self._closed:
            if self._buffer:
                self.machine.stats.charge_write(1)
                self.file._append_many(self._buffer)
                self._buffer = []
            self._closed = True
        return self.file

    def __enter__(self) -> "BufferedWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Machine:
    """Simulated cache-aware external-memory machine with parameters (M, B)."""

    def __init__(
        self,
        params: MachineParams,
        stats: IOStats | None = None,
        disk: Disk | None = None,
    ) -> None:
        self.params = params
        self.stats = stats if stats is not None else IOStats()
        self.disk = disk if disk is not None else Disk()
        self._memory_in_use = 0
        self._leases: list[MemoryLease] = []

    # ------------------------------------------------------------------
    # configuration shortcuts
    # ------------------------------------------------------------------
    @property
    def memory_size(self) -> int:
        """Internal memory capacity ``M`` in words."""
        return self.params.memory_words

    @property
    def block_size(self) -> int:
        """Block size ``B`` in words."""
        return self.params.block_words

    @property
    def memory_in_use(self) -> int:
        """Words currently leased by algorithm data structures."""
        return self._memory_in_use

    @property
    def memory_available(self) -> int:
        """Words of internal memory not currently leased."""
        return self.memory_size - self._memory_in_use

    def blocks(self, records: int) -> int:
        """Number of blocks needed to hold ``records`` records."""
        return math.ceil(records / self.block_size) if records > 0 else 0

    # ------------------------------------------------------------------
    # internal-memory accounting
    # ------------------------------------------------------------------
    def lease(self, words: int, label: str = "") -> MemoryLease:
        """Reserve ``words`` of internal memory for the duration of a block."""
        return MemoryLease(self, words, label)

    def _acquire(self, lease: MemoryLease) -> None:
        if lease.words < 0:
            raise ValueError(f"cannot lease a negative amount of memory: {lease.words}")
        if self._memory_in_use + lease.words > self.memory_size:
            raise MemoryExceededError(
                f"lease of {lease.words} words ({lease.label or 'unnamed'}) exceeds "
                f"internal memory: {self._memory_in_use}/{self.memory_size} already in use"
            )
        self._memory_in_use += lease.words
        self._leases.append(lease)

    def _release(self, lease: MemoryLease) -> None:
        self._memory_in_use -= lease.words
        try:
            self._leases.remove(lease)
        except ValueError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    # file creation and sequential access
    # ------------------------------------------------------------------
    def file_from_records(self, records: Iterable[Record], name: str | None = None) -> ExtFile:
        """Create an *input* file already resident on disk (no I/O charged)."""
        return self.disk.file(name=name, records=records)

    def empty_file(self, name: str | None = None) -> ExtFile:
        """Create an empty file on disk."""
        return self.disk.file(name=name)

    def writer(self, name: str | None = None) -> BufferedWriter:
        """Open a buffered writer to a new file."""
        return BufferedWriter(self, self.empty_file(name))

    def write_file(self, records: Iterable[Record], name: str | None = None) -> ExtFile:
        """Write ``records`` sequentially to a new file, charging block writes."""
        with self.writer(name) as out:
            out.extend(records)
        return out.file

    def scan_blocks(self, readable: Readable) -> Iterator[list[Record]]:
        """Sequentially read a file or slice one *block* at a time.

        Yields a list of at most ``B`` records per iteration and charges one
        block read per yielded list -- the block-granular primitive that
        :meth:`scan` and all batched algorithm loops are built on.  The
        charge is incurred lazily as blocks are consumed, so an early exit
        (e.g. a search that stops at the first match) is charged only for
        the blocks it actually touched.
        """
        block = self.block_size
        total = len(readable)
        charge_read = self.stats.charge_read
        read_range = readable._read_range
        position = 0
        while position < total:
            stop = min(position + block, total)
            charge_read(1)
            yield read_range(position, stop)
            position = stop

    def charge_scan(self, records: int) -> None:
        """Charge a whole-range sequential scan of ``records`` records in one step.

        ``ceil(records / B)`` block reads and one operation per record: what
        :meth:`scan_blocks` plus one operation per record charges when every
        block is consumed.  Use it for loops that consume a whole file
        unconditionally (or, like Lemma 2's spectator sources, are charged as
        a scan without being looked at).
        """
        self.stats.charge_read(self.blocks(records))
        self.stats.charge_operations(records)

    def scan_all(self, readable: Readable) -> list[Record]:
        """All records of a file or slice, charged by :meth:`charge_scan`."""
        total = len(readable)
        self.charge_scan(total)
        return readable._read_range(0, total)

    def scan(self, readable: Readable) -> Iterator[Record]:
        """Sequentially read a file or slice, charging one read per block."""
        for records in self.scan_blocks(readable):
            yield from records

    def scan_many(self, readables: Sequence[Readable]) -> Iterator[Record]:
        """Concatenated sequential scan over several files/slices."""
        for readable in readables:
            yield from self.scan(readable)

    def scan_many_blocks(self, readables: Sequence[Readable]) -> Iterator[list[Record]]:
        """Concatenated block-granular scan over several files/slices."""
        for readable in readables:
            yield from self.scan_blocks(readable)

    def load(self, readable: Readable, start: int = 0, count: int | None = None) -> list[Record]:
        """Load ``count`` records starting at ``start`` into internal memory.

        The caller must hold a lease covering ``count`` words; the machine
        enforces this indirectly by requiring the loaded amount to fit in the
        currently *leased* memory, which keeps cache-aware algorithms honest
        about the size of the chunks they claim fit in memory.
        """
        total = len(readable)
        if count is None:
            count = total - start
        stop = min(start + count, total)
        actual = max(0, stop - start)
        if actual > self.memory_size:
            raise MemoryExceededError(
                f"cannot load {actual} records into internal memory of {self.memory_size} words"
            )
        self.stats.charge_read(self.blocks(actual))
        return readable._read_range(start, stop)

    # ------------------------------------------------------------------
    # sorting (delegates to repro.extmem.sorting)
    # ------------------------------------------------------------------
    def sort(
        self,
        readable: Readable,
        key: Callable[[Record], Any] | None = None,
        name: str | None = None,
        key_many: Callable[[Sequence[Record]], list[Any]] | None = None,
    ) -> ExtFile:
        """External multiway merge sort of ``readable`` into a new file.

        ``key_many`` is the bulk variant of ``key``: it maps a chunk of
        records to their keys in one call, letting hot sort keys (e.g.
        colour pairs) be computed once per record instead of per comparison.
        """
        from repro.extmem.sorting import external_merge_sort

        return external_merge_sort(self, readable, key=key, name=name, key_many=key_many)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager attributing the enclosed I/Os to a named phase."""
        snapshot = self.stats.snapshot()
        try:
            yield
        finally:
            self.stats.record_phase(name, snapshot)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine(M={self.memory_size}, B={self.block_size}, {self.stats})"
