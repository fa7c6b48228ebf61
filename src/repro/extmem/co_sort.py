"""Cache-oblivious sorting over :class:`repro.extmem.oblivious.ExtVector`.

The paper's cache-oblivious algorithm only requires "any efficient
cache-oblivious sorting algorithm".  We provide the classic recursive
two-way merge sort: it is oblivious to ``M`` and ``B`` and, under the LRU
cache simulation, incurs ``O((n/B) * log2(n/M))`` block transfers -- the same
``n/B`` leading behaviour as funnelsort with an extra logarithmic factor.
EXPERIMENTS.md reports this substitution explicitly when discussing the
measured exponents of the cache-oblivious algorithm.

The sort is performed entirely through vector element accesses, so every
record movement is charged by the cache simulator.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.extmem.oblivious import ExtVector, ObliviousVM, VectorSlice

Record = Any
KeyFunc = Callable[[Record], Any]

#: Below this many records the sort falls back to binary-insertion in place.
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
    key = key if key is not None else _identity
    n = len(vector)
    if n <= 1:
        return
    scratch = vm.vector(f"{vector.name}-scratch")
    scratch.extend(vector.iterate())
    _merge_sort(vector, scratch, 0, n, key)
    scratch.free()


def sorted_copy(
    vm: ObliviousVM,
    source: ExtVector | VectorSlice,
    key: KeyFunc | None = None,
    name: str = "sorted",
) -> ExtVector:
    """Return a new sorted vector containing the records of ``source``."""
    out = vm.vector(name)
    out.extend(source.iterate())
    cache_oblivious_sort(vm, out, key=key)
    return out


# The helpers below address ``data[lo:hi]`` and ``scratch[lo:hi]`` by
# offsets into the two whole vectors, so each record access is a single
# ``get``/``set`` call.  The LRU charges depend on the order of those
# accesses: a change that reorders them moves the pinned counters.


def _merge_sort(data: ExtVector, scratch: ExtVector, lo: int, hi: int, key: KeyFunc) -> None:
    """Recursively sort ``data[lo:hi]`` using ``scratch[lo:hi]`` as buffer."""
    if hi - lo <= _BASE_CASE:
        _insertion_sort(data, lo, hi, key)
        return
    mid = lo + (hi - lo) // 2
    _merge_sort(data, scratch, lo, mid, key)
    _merge_sort(data, scratch, mid, hi, key)
    _merge(data, lo, mid, hi, scratch, key)
    # Copy the merged result back from scratch into data.
    get = scratch.get
    put = data.set
    for index in range(lo, hi):
        put(index, get(index))


def _insertion_sort(data: ExtVector, lo: int, hi: int, key: KeyFunc) -> None:
    """In-place insertion sort of ``data[lo:hi]`` for constant-size base cases."""
    get = data.get
    put = data.set
    for i in range(lo + 1, hi):
        current = get(i)
        current_key = key(current)
        j = i - 1
        while j >= lo:
            candidate = get(j)
            if key(candidate) <= current_key:
                break
            put(j + 1, candidate)
            j -= 1
        put(j + 1, current)


def _merge(data: ExtVector, lo: int, mid: int, hi: int, scratch: ExtVector, key: KeyFunc) -> None:
    """Merge the sorted runs ``data[lo:mid]`` and ``data[mid:hi]`` into ``scratch[lo:hi]``."""
    get = data.get
    put = scratch.set
    left = lo
    right = mid
    out = lo
    left_record = get(left) if left < mid else None
    right_record = get(right) if right < hi else None
    while left < mid and right < hi:
        if key(left_record) <= key(right_record):
            put(out, left_record)
            left += 1
            left_record = get(left) if left < mid else None
        else:
            put(out, right_record)
            right += 1
            right_record = get(right) if right < hi else None
        out += 1
    while left < mid:
        put(out, get(left))
        left += 1
        out += 1
    while right < hi:
        put(out, get(right))
        right += 1
        out += 1


def is_sorted(source: ExtVector | VectorSlice, key: KeyFunc | None = None) -> bool:
    """Check whether ``source`` is sorted (one sequential scan)."""
    key = key if key is not None else _identity
    previous = None
    for record in source.iterate():
        current = key(record)
        if previous is not None and current < previous:
            return False
        previous = current
    return True
