"""Cache-oblivious sorting over :class:`repro.extmem.oblivious.ExtVector`.

The paper's cache-oblivious algorithm only requires "any efficient
cache-oblivious sorting algorithm".  We provide the classic recursive
two-way merge sort: it is oblivious to ``M`` and ``B`` and, under the LRU
cache simulation, incurs ``O((n/B) * log2(n/M))`` block transfers -- the same
``n/B`` leading behaviour as funnelsort with an extra logarithmic factor.
This substitution is why the measured exponents of the cache-oblivious
algorithm carry a ``log(n/M)`` factor that funnelsort would not.

Every record movement is an access charged by the cache simulator, in the
order of the element-by-element merge sort; the accesses are handed to the
cache run by run (:class:`repro.extmem.oblivious.Run`,
:meth:`repro.extmem.oblivious.Run.copy`), which leaves the counters exactly
as one cache call per access would.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.extmem.cache import READ, WRITE
from repro.extmem.oblivious import Cursor, ExtVector, ObliviousVM

Record = Any
KeyFunc = Callable[[Record], Any]

#: Below this many records the sort falls back to insertion sort in place.
#: It is a constant, so using it does not make the algorithm cache-aware.
_BASE_CASE = 8


def _identity(record: Record) -> Any:
    return record


def cache_oblivious_sort(
    vm: ObliviousVM,
    vector: ExtVector,
    key: KeyFunc | None = None,
) -> None:
    """Sort ``vector`` in place using cache-oblivious merge sort."""
    n = len(vector)
    if n <= 1:
        return
    scratch = vm.vector(f"{vector.name}-scratch")
    sort = _MergeSort(vm, vector, scratch, key)
    sort.sort(0, n)
    vm.run.release(sort.stamp, sort.scratch)
    scratch.free()


class _MergeSort:
    """One sort: its cursors over ``data`` and ``scratch`` in the VM's :class:`Run`.

    Nothing is freed until the sort ends, so the copy into ``scratch`` and
    every loop of the recursion keep the same cursors, and the stamp carries
    over from one loop to the next.  The loops address ``data[lo:hi]`` and
    ``scratch[lo:hi]`` by offsets into the two whole vectors.  The LRU
    charges depend on the order of the record accesses: a change that
    reorders them moves the pinned counters.

    Each record's sort key is computed once and travels with it in
    ``keys`` (aligned with ``data``) and ``scratch_keys`` (aligned with
    ``scratch``); without a key function the records are their own keys.
    """

    def __init__(
        self, vm: ObliviousVM, data: ExtVector, scratch: ExtVector, key: KeyFunc | None
    ) -> None:
        self.run = run = vm.run
        self.read = data.cursor()
        self.write = Cursor(data)
        self.scratch = scratch.cursor()
        self.stamp = run.copy(self.read, 0, len(data), self.scratch, None, run.stamp)
        self.keys = self.read.data if key is None else list(map(key, self.read.data))
        if len(data) > _BASE_CASE:
            self.read_right = Cursor(data)
            self.scratch_keys = self.scratch.data if key is None else list(self.keys)

    def sort(self, lo: int, hi: int) -> None:
        """Recursively sort ``data[lo:hi]`` using ``scratch[lo:hi]`` as buffer."""
        if hi - lo <= _BASE_CASE:
            self.insertion_sort(lo, hi)
            return
        mid = lo + (hi - lo) // 2
        self.sort(lo, mid)
        self.sort(mid, hi)
        self.merge(lo, mid, hi)
        # Copy the merged result back from scratch into data.
        self.stamp = self.run.copy(self.scratch, lo, hi, self.write, lo, self.stamp)
        if self.keys is not self.read.data:
            self.keys[lo:hi] = self.scratch_keys[lo:hi]

    def insertion_sort(self, lo: int, hi: int) -> None:
        """In-place insertion sort of ``data[lo:hi]`` for constant-size base cases."""
        keys = self.keys
        reader = self.read
        writer = self.write
        records = reader.data
        move = self.run.move
        enter = self.run.enter
        t = self.stamp
        for i in range(lo + 1, hi):
            if not reader.start <= i < reader.end:
                move(reader, i, t)
            elif reader.first < 0:
                enter(reader, t)
            reader.last = t
            t += 1
            current = records[i]
            current_key = keys[i]
            j = i - 1
            while j >= lo:
                if not reader.start <= j < reader.end:
                    move(reader, j, t)
                elif reader.first < 0:
                    enter(reader, t)
                reader.last = t
                t += 1
                candidate_key = keys[j]
                if candidate_key <= current_key:
                    break
                if not writer.start <= j + 1 < writer.end:
                    move(writer, j + 1, t, WRITE)
                elif writer.first < 0:
                    enter(writer, t, WRITE)
                elif writer.segment[1] == READ:
                    writer.segment[1] = WRITE
                writer.last = t
                t += 1
                records[j + 1] = records[j]
                keys[j + 1] = candidate_key
                j -= 1
            if not writer.start <= j + 1 < writer.end:
                move(writer, j + 1, t, WRITE)
            elif writer.first < 0:
                enter(writer, t, WRITE)
            elif writer.segment[1] == READ:
                writer.segment[1] = WRITE
            writer.last = t
            t += 1
            records[j + 1] = current
            keys[j + 1] = current_key
        self.stamp = t

    def merge(self, lo: int, mid: int, hi: int) -> None:
        """Merge the sorted runs ``data[lo:mid]`` and ``data[mid:hi]`` into ``scratch[lo:hi]``.

        Both runs are non-empty.  The access order is that of the plain
        merge: read the head of each run, then per output record write it
        and read the next record of the run it came from; once a run is
        exhausted, the rest of the other is copied read-then-write, starting
        with its current head.
        """
        keys = self.keys
        out_keys = self.scratch_keys
        lc = self.read
        rc = self.read_right
        oc = self.scratch
        src = lc.data
        dst = oc.data
        move = self.run.move
        enter = self.run.enter
        left, right, out = lo, mid, lo
        t = self.stamp

        if not lc.start <= left < lc.end:
            move(lc, left, t)
        elif lc.first < 0:
            enter(lc, t)
        lc.last = t
        t += 1
        left_key = keys[left]
        if not rc.start <= right < rc.end:
            move(rc, right, t)
        elif rc.first < 0:
            enter(rc, t)
        rc.last = t
        t += 1
        right_key = keys[right]
        # Every cursor below only advances from here on.
        left_end, right_end, out_end = lc.end, rc.end, oc.bound(out)
        if out < out_end and oc.first >= 0:
            # The next access writes to the block ``oc`` already holds in
            # this run (a copy-back may have read it).
            oc.wrote()

        while True:
            if out >= out_end:
                out_end = move(oc, out, t, WRITE)
            elif oc.first < 0:
                enter(oc, t, WRITE)
            oc.last = t
            t += 1
            if left_key <= right_key:
                dst[out] = src[left]
                out_keys[out] = left_key
                out += 1
                left += 1
                if left == mid:
                    break
                if left >= left_end:
                    left_end = move(lc, left, t)
                elif lc.first < 0:
                    enter(lc, t)
                lc.last = t
                t += 1
                left_key = keys[left]
            else:
                dst[out] = src[right]
                out_keys[out] = right_key
                out += 1
                right += 1
                if right == hi:
                    break
                if right >= right_end:
                    right_end = move(rc, right, t)
                elif rc.first < 0:
                    enter(rc, t)
                rc.last = t
                t += 1
                right_key = keys[right]

        # One run is exhausted: copy the other, re-reading its current head.
        if left < mid:
            cursor, index, stop, end = lc, left, mid, left_end
        else:
            cursor, index, stop, end = rc, right, hi, right_end
        while index < stop:
            if index >= end:
                end = move(cursor, index, t)
            elif cursor.first < 0:
                enter(cursor, t)
            cursor.last = t
            t += 1
            if out >= out_end:
                out_end = move(oc, out, t, WRITE)
            elif oc.first < 0:
                enter(oc, t, WRITE)
            oc.last = t
            t += 1
            dst[out] = src[index]
            out_keys[out] = keys[index]
            out += 1
            index += 1
        self.stamp = t


def is_sorted(source: ExtVector, key: KeyFunc | None = None) -> bool:
    """Check whether ``source`` is sorted (one sequential scan)."""
    key = key if key is not None else _identity
    previous = None
    for record in source.iterate():
        current = key(record)
        if previous is not None and current < previous:
            return False
        previous = current
    return True
