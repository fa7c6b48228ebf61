"""The cache-oblivious virtual machine.

Cache-oblivious algorithms may not mention ``M`` or ``B``.  They therefore do
not use the explicit :class:`repro.extmem.machine.Machine`; instead they
operate on :class:`ExtVector` objects obtained from an :class:`ObliviousVM`.
Every element read or write on a vector is charged through the VM's
:class:`repro.extmem.cache.LRUBlockCache`, which charges block reads on
misses and block writes on dirty evictions.

The charges are made run by run
(:meth:`repro.extmem.cache.LRUBlockCache.charge_run`).  The VM keeps one
open :class:`Run`: loops report their accesses to it through
:class:`Cursor` objects, and freeing a vector adds a discard to it.  It
hands the cache one entry per block and one per discard once the run is
full or the VM settles it -- before the cache is flushed or swapped, and at
the end of every public :class:`ExtVector` primitive other than
:meth:`ExtVector.free`.  The counters come out exactly as if every element
access had been its own cache call.  The block size stays inside this
module: algorithm code asks the run where a cursor's block ends and whether
vectors of a given length fit in it, and never reads ``M`` or ``B``.

The VM also tracks the number of words allocated on (simulated) disk so that
the paper's ``O(E)`` space claims can be checked.
"""

from __future__ import annotations

import itertools
import sys
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.model import MachineParams
from repro.exceptions import FileClosedError
from repro.extmem.cache import DISCARD, FRESH, READ, WRITE, BlockKey, LRUBlockCache
from repro.extmem.stats import IOStats

Record = Any


class ObliviousVM:
    """Owner of disk-resident vectors and the LRU cache that fronts them."""

    def __init__(self, params: MachineParams, stats: IOStats | None = None) -> None:
        self.params = params
        self.stats = stats if stats is not None else IOStats()
        #: Block size in records.  Used only by the VM itself, never by algorithms.
        self.block_size = params.block_words
        capacity_blocks = max(1, params.memory_words // params.block_words)
        self._cache = LRUBlockCache(capacity_blocks, self.stats)
        #: The open run every loop over this VM's vectors reports to.
        self.run = Run(self)
        self._storage_ids = itertools.count()
        self.current_words = 0
        self.peak_words = 0

    @property
    def cache(self) -> LRUBlockCache:
        """The block cache.

        Any object with :class:`LRUBlockCache`'s interface will do, such as
        a :class:`repro.extmem.multilevel.MultiLevelBlockCache`.  Assigning
        one settles the open run first, so the new cache sees every access
        made after the swap.
        """
        return self._cache

    @cache.setter
    def cache(self, cache: LRUBlockCache) -> None:
        self.run.settle()
        self._cache = cache
        self.run.resize(cache.capacity_blocks)

    # ------------------------------------------------------------------
    # vector creation
    # ------------------------------------------------------------------
    def input_vector(self, records: Iterable[Record], name: str = "input") -> "ExtVector":
        """Create a vector whose contents already reside on disk (no I/O)."""
        vector = ExtVector(self, name)
        vector._data = list(records)
        self._grow(len(vector._data))
        return vector

    def vector(self, name: str = "tmp") -> "ExtVector":
        """Create an empty vector; appends to it are charged through the cache."""
        return ExtVector(self, name)

    def flush(self) -> None:
        """Write back all dirty cached blocks (end-of-run accounting)."""
        self.run.settle()
        self.cache.flush()

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def _grow(self, words: int) -> None:
        self.current_words += words
        if self.current_words > self.peak_words:
            self.peak_words = self.current_words

    def _shrink(self, words: int) -> None:
        self.current_words = max(0, self.current_words - words)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObliviousVM(M={self.params.memory_words}, B={self.params.block_words}, "
            f"{self.stats})"
        )


class ExtVector:
    """A disk-resident array whose accesses are charged through the LRU cache.

    The bulk primitives :meth:`read_run`, :meth:`write_run` and
    :meth:`append_run` charge a contiguous range of one vector in index
    order; :meth:`get`, :meth:`set` and :meth:`append` are their length-1
    cases.  Each of them settles the VM's run, so the counters are current
    when it returns.  Loops that interleave several vectors report to the
    VM's :class:`Run` instead.  None of them expose ``M`` or ``B`` to the
    caller.
    """

    def __init__(self, vm: ObliviousVM, name: str = "tmp") -> None:
        self.vm = vm
        self.name = name
        self.storage_id = next(vm._storage_ids)
        self._data: list[Record] = []
        self._freed = False
        self._cursor: Cursor | None = None

    # -- bookkeeping ----------------------------------------------------
    def _check_open(self) -> None:
        if self._freed:
            raise FileClosedError(f"vector {self.name!r} has been freed")

    def _check_range(self, start: int, stop: int) -> None:
        """Reject a freed vector, then a range outside ``[0, len]``."""
        self._check_open()
        length = len(self._data)
        if start < 0 or stop < start or stop > length:
            raise IndexError(
                f"range [{start}, {stop}) out of range for vector of length {length}"
            )

    def __len__(self) -> int:
        self._check_open()
        return len(self._data)

    def free(self) -> None:
        """Release the vector: drop its cached blocks and its disk space.

        The blocks are dropped at this point of the VM's run
        (:meth:`Run.discard`), which stays open.  A vector that never held
        a record has no block in the cache, so freeing it charges nothing.
        """
        if self._freed:
            return
        vm = self.vm
        length = len(self._data)
        if length:
            vm.run.discard(self.storage_id, -(-length // vm.block_size))
            vm._shrink(length)
            self._data = []
        self._cursor = None
        self._freed = True

    def cursor(self) -> "Cursor":
        """This vector's cursor, which successive loops share."""
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = Cursor(self)
        elif self._freed:
            raise FileClosedError(f"vector {self.name!r} has been freed")
        return cursor

    # -- runs of one vector ---------------------------------------------
    def read_run(self, start: int, stop: int) -> list[Record]:
        """Read the records ``[start, stop)`` in index order."""
        self._check_range(start, stop)
        records = self.vm.run.read(self, start, stop)
        self.vm.run.settle()
        return records

    def write_run(self, start: int, records: Sequence[Record]) -> None:
        """Overwrite ``len(records)`` records from ``start`` on, in index order."""
        self._check_range(start, start + len(records))
        run = self.vm.run
        run.write(self, start, records)
        run.settle()

    def append_run(self, records: Sequence[Record]) -> None:
        """Append ``records`` to the end of the vector, in order."""
        self._check_open()
        run = self.vm.run
        run.append(self, records)
        run.settle()

    def get(self, index: int) -> Record:
        """Read one record."""
        return self.read_run(index, index + 1)[0]

    def set(self, index: int, record: Record) -> None:
        """Overwrite one record."""
        self.write_run(index, (record,))

    def append(self, record: Record) -> None:
        """Append one record to the end of the vector."""
        self.append_run((record,))

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records (``records`` is consumed before any charge)."""
        self.append_run(list(records))

    def __getitem__(self, index: int) -> Record:
        return self.get(index)

    def __setitem__(self, index: int, record: Record) -> None:
        self.set(index, record)

    def iterate(self) -> Iterator[Record]:
        """Sequentially read all records, one block at a time.

        Each block is charged when its first record is read, so the charges
        equal one read per record only when the consumer touches no other
        vector while iterating.  Loops that do must report to the VM's
        :class:`Run`.
        """
        size = self.vm.block_size
        index = 0
        while index < len(self):
            stop = min(len(self._data), index - index % size + size)
            for record in self.read_run(index, stop):
                self._check_open()
                yield record
            index = stop

    def to_list(self) -> list[Record]:
        """Copy the contents into a Python list *without* charging I/Os.

        Reserved for tests and oracles; algorithm code must not call it.
        """
        self._check_open()
        return list(self._data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"{len(self._data)} records"
        return f"ExtVector({self.name!r}, {state})"


def transfer(
    source: ExtVector,
    start: int,
    stop: int,
    target: ExtVector,
    at: int | None = None,
    transform: Callable[[Record], Record] | None = None,
) -> None:
    """Copy ``source[start:stop]`` into ``target``, writing each record right after reading it.

    The records overwrite ``target[at:]``, or are appended when ``at`` is
    ``None``; ``transform`` maps each record on the way.  Charged as the
    loop ``read source[i]; write target[j]`` over the range (:meth:`Run.copy`).
    """
    if source is target:
        raise ValueError("transfer needs two distinct vectors")
    source._check_range(start, stop)
    if at is not None:
        target._check_range(at, at + stop - start)
    run = source.vm.run
    writer = target.cursor()
    run.release(run.copy(source.cursor(), start, stop, writer, at, run.stamp, transform), writer)
    run.settle()


#: One block of a run: ``[(storage id, block index), mode, last stamp]``,
#: or a discard: ``[(storage id, block count), DISCARD, _FREED]``.
_Segment = list[Any]
_last_stamp = itemgetter(2)
#: The last stamp of a discard and of a block its storage's free dropped:
#: above every stamp, so that no cursor of the freed storage overwrites it.
_FREED = sys.maxsize
#: A run closes once it holds this many entries per block of capacity, so
#: that frees, which keep it open, cannot grow it without bound.
_ENTRIES_PER_BLOCK = 4


class Cursor:
    """A loop's position in one vector, as seen by the VM's :class:`Run`.

    ``data`` is the vector's record list: the loop reads, overwrites or
    appends to it directly and reports each access to the run.
    ``start``/``end`` bound the block the cursor is in and ``key`` names
    it; ``first``/``last`` are the stamps of the cursor's first and last
    access to that block in the current run (``first`` is negative before
    the first one), and ``segment`` is the run's entry for the block.  Each
    vector keeps one cursor (:meth:`ExtVector.cursor`), which successive
    loops share; a loop that walks one vector at two places at once makes a
    second one.
    """

    __slots__ = ("data", "storage_id", "start", "end", "key", "first", "last", "segment", "length")
    data: list[Record]
    storage_id: int
    start: int
    end: int
    key: BlockKey
    first: int
    last: int
    segment: _Segment
    length: int

    def __init__(self, vector: ExtVector) -> None:
        if vector._freed:
            raise FileClosedError(f"vector {vector.name!r} has been freed")
        self.data = vector._data
        self.storage_id = vector.storage_id
        self.start = self.end = 0
        self.first = self.last = -1
        #: Records accounted for in the VM's space counters.
        self.length = len(vector._data)

    def bound(self, index: int) -> int:
        """The end an advancing loop starting at ``index`` tests against.

        It is the end of the cursor's block if ``index`` lies in it, and
        ``index`` itself otherwise, so that the first access moves there.
        """
        return self.end if self.start <= index < self.end else index

    def wrote(self) -> None:
        """Record a write to the cursor's block made without a move or an enter.

        A block first read in the run is charged as written from here on.
        """
        segment = self.segment
        if segment[1] == READ:
            segment[1] = WRITE


class Run:
    """The VM's open run: charges interleaved accesses to several vectors.

    A loop numbers its accesses with a stamp ``t`` that starts at
    :attr:`stamp` and grows by one per access, and reports each access to a
    :class:`Cursor` with its mode (``READ``, ``WRITE``, or ``FRESH`` for an
    append) like this::

        if not cursor.start <= index < cursor.end:
            run.move(cursor, index, t, mode)    # enters the new block at stamp t
        elif cursor.first < 0:
            run.enter(cursor, t, mode)
        elif mode != READ:
            cursor.wrote()
        cursor.last = t
        t += 1

    A loop whose cursor only advances may test ``index >= end`` against
    :meth:`Cursor.bound` and the ends :meth:`move` returns.  A loop may drop
    the ``wrote`` test for a cursor whose block no read can have admitted
    to the run first, such as a new vector it appends to.  A loop ends with
    :meth:`release`.  The run keeps one segment per block it touched, in
    the order of first access, whichever cursors touched it: the block's
    mode (read, write, or a fresh append) and its last access stamp.  A
    free between two loops adds a discard segment (:meth:`discard`); the
    freed blocks keep their place but stop being *live*.  The run ends when
    admitting one more block would make more live blocks than the cache's
    ``capacity_blocks`` or more segments than ``_ENTRIES_PER_BLOCK`` times
    that, and when the VM settles it; its blocks and discards are then
    charged in first-access order and its live blocks re-ordered by last
    access (:meth:`repro.extmem.cache.LRUBlockCache.charge_run`).
    """

    __slots__ = (
        "vm",
        "capacity",
        "block_size",
        "active",
        "segments",
        "keyed",
        "dead",
        "full",
        "limit",
        "opened",
        "stamp",
    )

    def __init__(self, vm: ObliviousVM) -> None:
        self.vm = vm
        self.block_size = vm.block_size
        #: Cursors with a segment in the current run, freed or not.
        self.active: list[Cursor] = []
        self.segments: list[_Segment] = []
        #: The live segments by block key.
        self.keyed: dict[BlockKey, _Segment] = {}
        #: Segments that are not live blocks (discards and freed blocks).
        self.dead = 0
        self.resize(vm.cache.capacity_blocks)
        #: Stamp of the current run's first access, and the next stamp.
        self.opened = 0
        self.stamp = 0

    def resize(self, capacity: int) -> None:
        """Bound the runs that start from now on by ``capacity`` live blocks."""
        self.capacity = capacity
        #: The segment count at which admitting a block ends the run.
        self.full = capacity
        #: The most segments a run holds.
        self.limit = capacity * _ENTRIES_PER_BLOCK

    def move(self, cursor: Cursor, index: int, stamp: int, mode: int = READ) -> int:
        """Put ``cursor`` on the block holding ``index`` and enter it at ``stamp``.

        Returns the index where that block ends.  An append (``FRESH``)
        that starts a block installs it without a read.
        """
        active = cursor.first >= 0
        if active:
            left = cursor.segment
            if cursor.last > left[2]:
                left[2] = cursor.last
        size = self.block_size
        block = index // size
        cursor.start = start = block * size
        cursor.end = end = start + size
        cursor.key = key = (cursor.storage_id, block)
        if mode == FRESH and index != start:
            mode = WRITE
        segment = self.keyed.get(key)
        if segment is None:
            if len(self.segments) == self.full:
                self.close(stamp)
                active = False
            self.keyed[key] = segment = [key, mode, stamp]
            self.segments.append(segment)
        elif mode != READ and segment[1] == READ:
            segment[1] = WRITE
        if not active:
            self.active.append(cursor)
        cursor.segment = segment
        cursor.first = stamp
        return end

    def enter(self, cursor: Cursor, stamp: int, mode: int = READ) -> None:
        """Admit ``cursor``'s block to the current run at its first access there, ``stamp``."""
        key = cursor.key
        if mode == FRESH:
            mode = WRITE
        segment = self.keyed.get(key)
        if segment is None:
            if len(self.segments) == self.full:
                self.close(stamp)
            self.keyed[key] = segment = [key, mode, stamp]
            self.segments.append(segment)
        elif mode != READ and segment[1] == READ:
            segment[1] = WRITE
        self.active.append(cursor)
        cursor.segment = segment
        cursor.first = stamp

    def release(self, stamp: int, *appenders: Cursor) -> None:
        """End a loop at ``stamp``; the next loop carries on from it.

        The records that ``appenders`` added are counted in the VM's space
        counters here; nothing is freed inside a loop, so the peak comes out
        as with one count per append.
        """
        for cursor in appenders:
            grown = len(cursor.data) - cursor.length
            if grown:
                cursor.length += grown
                self.vm._grow(grown)
        self.stamp = stamp

    def settle(self) -> None:
        """Charge everything reported up to :attr:`stamp`."""
        if self.segments:
            self.close(self.stamp)

    def close(self, stamp: int) -> None:
        """Charge the accesses stamped before ``stamp`` and start a new run."""
        for cursor in self.active:
            segment = cursor.segment
            if cursor.last > segment[2]:
                segment[2] = cursor.last
            cursor.first = -1
        self.active = []
        self.keyed = {}
        segments = self.segments
        vm = self.vm
        accesses = stamp - self.opened
        if segments:
            live = [s for s in segments if s[2] != _FREED] if self.dead else segments
            last = None
            if len(live) > 1:
                by_last = sorted(live, key=_last_stamp)
                # Blocks whose first and last accesses come in the same
                # order at the front are already in place after the first
                # pass.
                keep = 0
                for segment in by_last:
                    if segment is not live[keep]:
                        break
                    keep += 1
                last = by_last[keep:] or None
            vm.cache.charge_run(segments, last, accesses)
            self.segments = []
            self.dead = 0
            self.full = self.capacity
        vm.stats.operations += accesses
        self.opened = stamp

    def discard(self, storage_id: int, block_count: int) -> None:
        """Free storage ``storage_id`` after every access reported so far.

        Its blocks have indices below ``block_count``.  Those the run holds
        keep their segments at their first-access place, so that the cache
        admits them and then drops them in the order the accesses came
        (:meth:`repro.extmem.cache.LRUBlockCache.charge_run`), but they stop
        counting towards the capacity and are not re-ordered by last
        access.  An empty run, or one whose segment list is at its bound,
        hands the discard to the cache at once (settling first).
        """
        segments = self.segments
        if not segments or len(segments) == self.limit:
            self.settle()
            self.vm.cache.discard_storage(storage_id, block_count)
            return
        keyed = self.keyed
        dead = self.dead + 1
        if block_count < len(keyed):
            for block in range(block_count):
                segment = keyed.pop((storage_id, block), None)
                if segment is not None:
                    segment[2] = _FREED
                    dead += 1
        else:
            for key in [key for key in keyed if key[0] == storage_id]:
                keyed.pop(key)[2] = _FREED
                dead += 1
        segments.append([(storage_id, block_count), DISCARD, _FREED])
        self.dead = dead
        self.full = min(self.capacity + dead, self.limit)

    def make_room(self, length: int, vectors: int) -> bool:
        """Whether ``vectors`` vectors of ``length`` records each can enter the run whole.

        That is, whether the run can admit every block of them without
        ending, even if none of those blocks is in it yet.  If only an
        empty run can, the run is settled first.
        """
        blocks = vectors * -(-length // self.block_size)
        if len(self.segments) + blocks <= self.full:
            return True
        if blocks > self.capacity:
            return False
        self.settle()
        return True

    def restamp(self, cursor: Cursor, last: Sequence[int], written: Sequence[bool]) -> None:
        """Record accesses to ``cursor``'s vector that a loop made without reporting them.

        Index ``i`` of the vector was last accessed at stamp ``last[i]``,
        and written if ``written[i]``; every block of the indices below
        ``len(last)`` is in the run already.
        """
        size = self.block_size
        keyed = self.keyed
        storage_id = cursor.storage_id
        for start in range(0, len(last), size):
            segment = keyed[(storage_id, start // size)]
            stamp = max(last[start : start + size])
            if stamp > segment[2]:
                segment[2] = stamp
            if segment[1] == READ and any(written[start : start + size]):
                segment[1] = WRITE

    # -- loops over one vector --------------------------------------------
    def _scan(self, cursor: Cursor, start: int, stop: int, mode: int) -> None:
        """Stamp one access of ``mode`` to each index of ``[start, stop)``, in order."""
        t = self.stamp
        index = start
        while index < stop:
            if not cursor.start <= index < cursor.end:
                self.move(cursor, index, t, mode)
            elif cursor.first < 0:
                self.enter(cursor, t, mode)
            elif mode != READ:
                cursor.wrote()
            count = min(stop, cursor.end) - index
            cursor.last = t + count - 1
            t += count
            index += count
        self.stamp = t

    def read(self, vector: ExtVector, start: int, stop: int) -> list[Record]:
        """Read ``vector[start:stop]`` in index order."""
        self._scan(vector.cursor(), start, stop, READ)
        return vector._data[start:stop]

    def write(self, vector: ExtVector, start: int, records: Sequence[Record]) -> None:
        """Overwrite ``vector[start:]`` with ``records`` in index order."""
        self._scan(vector.cursor(), start, start + len(records), WRITE)
        vector._data[start : start + len(records)] = records

    def append(self, vector: ExtVector, records: Sequence[Record]) -> None:
        """Append ``records`` to ``vector`` in order."""
        cursor = vector.cursor()
        start = len(vector._data)
        vector._data.extend(records)
        self._scan(cursor, start, start + len(records), FRESH)
        self.release(self.stamp, cursor)

    def copy(
        self,
        reader: Cursor,
        start: int,
        stop: int,
        writer: Cursor,
        at: int | None,
        stamp: int,
        transform: Callable[[Record], Record] | None = None,
    ) -> int:
        """Copy ``reader.data[start:stop]`` to ``writer.data[at:]`` (or its end).

        Stamps the loop ``read reader[i]; write writer[j]`` from ``stamp`` on
        and returns the next stamp.  Inside a stretch where neither cursor
        changes block the stamps are arithmetic: the reader is touched at
        every other stamp and the writer right after it.
        """
        records = reader.data[start:stop]
        if transform is not None:
            records = [transform(record) for record in records]
        target = writer.data
        first_target = len(target) if at is None else at
        mode = FRESH if at is None else WRITE
        index = start
        position = first_target
        while index < stop:
            if not reader.start <= index < reader.end:
                self.move(reader, index, stamp)
            elif reader.first < 0:
                self.enter(reader, stamp)
            reader.last = stamp
            if not writer.start <= position < writer.end:
                self.move(writer, position, stamp + 1, mode)
            elif writer.first < 0:
                self.enter(writer, stamp + 1, mode)
            else:
                writer.wrote()
            if reader.first < 0:
                # Admitting the writer's block ended the run between the two
                # accesses: the next read opens the following stretch.
                writer.last = stamp + 1
                stamp += 2
                index += 1
                position += 1
                continue
            length = min(stop - index, reader.end - index, writer.end - position)
            reader.last = stamp + 2 * length - 2
            writer.last = stamp + 2 * length - 1
            stamp += 2 * length
            index += length
            position += length
        if at is None:
            target.extend(records)
        else:
            target[first_target : first_target + len(records)] = records
        return stamp
