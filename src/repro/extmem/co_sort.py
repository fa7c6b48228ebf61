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

A sort whose vector and scratch copy fit in the VM's open run
(:meth:`repro.extmem.oblivious.Run.make_room`) is charged in closed form
(:func:`_sort_in_run`): inside one run the charges depend only on the
number of accesses and on each block's mode and first and last access, and
those follow from the sort's shape and the leaves' keys.  Larger sorts walk
every access (:class:`_MergeSort`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.extmem.cache import READ, WRITE
from repro.extmem.oblivious import Cursor, ExtVector, ObliviousVM, Run

Record = Any
KeyFunc = Callable[[Record], Any]

#: Below this many records the sort falls back to insertion sort in place.
#: It is a constant, so using it does not make the algorithm cache-aware.
_BASE_CASE = 8


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
    run = vm.run
    if run.make_room(n, 2):
        stamp = _sort_in_run(run, vector, scratch, key)
    else:
        sort = _MergeSort(vm, vector, scratch, key)
        sort.sort(0, n)
        stamp = sort.stamp
    run.release(stamp, scratch.cursor())
    scratch.free()


def _sort_in_run(run: Run, data: ExtVector, scratch: ExtVector, key: KeyFunc | None) -> int:
    """Sort ``data`` as :class:`_MergeSort` does, inside the open run; returns the next stamp.

    The caller has made room in the run for ``data`` and ``scratch``
    (:meth:`Run.make_room`), so the copy into ``scratch`` (made as
    :class:`_MergeSort` makes it)
    admits every block the sort touches, in its first-access order, and
    nothing ends the run until the sort does.  What is left to charge is
    the number of accesses, each block's mode and its last access.

    * The merge sort is stable with left-first ties, so one stable sort
      gives its output.
    * A merge makes ``1 + 2 len`` accesses and a copy-back ``2 len``,
      whatever the keys; a leaf's insertion sort is counted by a dry run.
    * With a merge, the last loop is the copy-back of the whole vector,
      which touches every block; it is made for real (:meth:`Run.copy`),
      and it writes every block of ``data``.  An insertion-only sort takes
      its last accesses and written indices from the dry run.
    """
    reader = data.cursor()
    writer = scratch.cursor()
    records = reader.data
    n = len(records)
    stamp = run.copy(reader, 0, n, writer, None, run.stamp)
    keys = records if key is None else list(map(key, records))
    ordered = writer.data
    if key is None:
        ordered.sort()
    else:
        ordered[:] = [records[i] for i in sorted(range(n), key=keys.__getitem__)]
    if n <= _BASE_CASE:
        stamp, last, written = _insertion_dry_run(keys, 0, n, stamp)
        run.restamp(reader, last, written)
        records[:] = ordered
        return stamp
    stamp += _sort_accesses(keys, 0, n) - 2 * n
    return run.copy(writer, 0, n, reader, 0, stamp)


def _sort_accesses(keys: list[Any], lo: int, hi: int) -> int:
    """The number of accesses ``_MergeSort.sort(lo, hi)`` makes on these keys."""
    length = hi - lo
    if length <= _BASE_CASE:
        return _insertion_dry_run(keys, lo, hi, 0)[0]
    mid = lo + length // 2
    # The two halves, the merge (1 + 2 len) and the copy-back (2 len).
    return _sort_accesses(keys, lo, mid) + _sort_accesses(keys, mid, hi) + 1 + 4 * length


def _insertion_dry_run(
    keys: list[Any], lo: int, hi: int, stamp: int
) -> tuple[int, list[int], list[bool]]:
    """Stamp the accesses ``_MergeSort.insertion_sort(lo, hi)`` makes from ``stamp`` on.

    No record moves.  Returns the next stamp and, for each index from
    ``lo`` on, the stamp of its last access and whether it is written.
    """
    keys = keys[lo:hi]
    n = hi - lo
    last = [0] * n
    written = [False] * n
    t = stamp
    for i in range(1, n):
        last[i] = t
        t += 1
        current = keys[i]
        j = i - 1
        while j >= 0:
            last[j] = t
            t += 1
            candidate = keys[j]
            if candidate <= current:
                break
            last[j + 1] = t
            written[j + 1] = True
            t += 1
            keys[j + 1] = candidate
            j -= 1
        last[j + 1] = t
        written[j + 1] = True
        t += 1
        keys[j + 1] = current
    return t, last, written


class _MergeSort:
    """One sort, access by access: its cursors over ``data`` and ``scratch`` in the VM's :class:`Run`.

    It charges the sorts that do not fit in the open run, and it is the
    oracle of the closed form (:func:`_sort_in_run`).

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

