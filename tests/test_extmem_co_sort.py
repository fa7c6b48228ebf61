"""Tests for cache-oblivious sorting (repro.extmem.co_sort)."""

import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import MachineParams
from repro.extmem import co_sort
from repro.extmem.co_sort import _MergeSort, cache_oblivious_sort
from repro.extmem.oblivious import ExtVector, ObliviousVM, transfer
from repro.extmem.stats import IOStats


def make_vm(memory=64, block=8) -> ObliviousVM:
    return ObliviousVM(MachineParams(memory, block), IOStats())


def is_sorted(source: ExtVector, key=None) -> bool:
    """Whether ``source`` is sorted (one charged sequential scan)."""
    previous = None
    for record in source.iterate():
        current = record if key is None else key(record)
        if previous is not None and current < previous:
            return False
        previous = current
    return True


def sorted_copy(vm: ObliviousVM, source: ExtVector, key=None) -> ExtVector:
    """A new sorted vector holding the records of ``source`` (one copy, one sort)."""
    out = vm.vector("sorted")
    transfer(source, 0, len(source), out)
    cache_oblivious_sort(vm, out, key=key)
    return out


class TestCorrectness:
    def test_sorts_random_data(self):
        vm = make_vm()
        rng = random.Random(3)
        data = [rng.randrange(1000) for _ in range(500)]
        vector = vm.input_vector(data)
        cache_oblivious_sort(vm, vector)
        assert vector.to_list() == sorted(data)

    def test_sorts_with_key(self):
        vm = make_vm()
        data = [(i % 7, i) for i in range(100)]
        vector = vm.input_vector(data)
        cache_oblivious_sort(vm, vector, key=lambda record: record[0])
        assert [k for k, _ in vector.to_list()] == sorted(k for k, _ in data)

    def test_empty_and_singleton(self):
        vm = make_vm()
        empty = vm.input_vector([])
        cache_oblivious_sort(vm, empty)
        assert empty.to_list() == []
        single = vm.input_vector([42])
        cache_oblivious_sort(vm, single)
        assert single.to_list() == [42]

    def test_already_sorted_input(self):
        vm = make_vm()
        vector = vm.input_vector(range(200))
        cache_oblivious_sort(vm, vector)
        assert vector.to_list() == list(range(200))

    def test_reverse_sorted_input(self):
        vm = make_vm()
        vector = vm.input_vector(range(200, 0, -1))
        cache_oblivious_sort(vm, vector)
        assert vector.to_list() == list(range(1, 201))

    def test_duplicates(self):
        vm = make_vm()
        data = [5] * 50 + [3] * 50 + [5] * 10
        vector = vm.input_vector(data)
        cache_oblivious_sort(vm, vector)
        assert vector.to_list() == sorted(data)

    def test_scratch_vector_is_freed(self):
        vm = make_vm()
        vector = vm.input_vector(range(100, 0, -1))
        cache_oblivious_sort(vm, vector)
        assert vm.current_words == 100  # only the sorted vector remains

    def test_sorted_copy_leaves_source_untouched(self):
        vm = make_vm()
        source = vm.input_vector([3, 1, 2])
        result = sorted_copy(vm, source)
        assert source.to_list() == [3, 1, 2]
        assert result.to_list() == [1, 2, 3]

    def test_is_sorted_helper(self):
        vm = make_vm()
        assert is_sorted(vm.input_vector([1, 2, 2, 3]))
        assert not is_sorted(vm.input_vector([1, 3, 2]))
        assert is_sorted(vm.input_vector([]))


class TestIOBehaviour:
    def test_io_scales_near_linearithmically(self):
        """Doubling n should roughly double the I/Os (times a log factor),
        far from the quadratic blow-up a naive algorithm would show."""
        params = MachineParams(memory_words=128, block_words=8)
        totals = []
        for n in (512, 1024, 2048):
            vm = ObliviousVM(params, IOStats())
            rng = random.Random(n)
            data = [rng.randrange(10**6) for _ in range(n)]
            vector = vm.input_vector(data)
            cache_oblivious_sort(vm, vector)
            totals.append(vm.stats.total)
        growth_1 = totals[1] / totals[0]
        growth_2 = totals[2] / totals[1]
        assert 1.8 <= growth_1 <= 3.0
        assert 1.8 <= growth_2 <= 3.0

    def test_larger_cache_never_hurts(self):
        rng = random.Random(9)
        data = [rng.randrange(10**6) for _ in range(2000)]
        totals = {}
        for memory in (64, 256, 1024):
            vm = ObliviousVM(MachineParams(memory, 8), IOStats())
            vector = vm.input_vector(list(data))
            cache_oblivious_sort(vm, vector)
            totals[memory] = vm.stats.total
        assert totals[256] <= totals[64]
        assert totals[1024] <= totals[256]

    def test_fits_in_cache_costs_about_one_pass(self):
        vm = make_vm(memory=1024, block=8)
        data = list(range(256, 0, -1))
        vector = vm.input_vector(data)
        cache_oblivious_sort(vm, vector)
        blocks = math.ceil(256 / 8)
        # Everything stays resident: roughly the compulsory misses of the
        # vector and its scratch copy, well below a multi-pass sort.
        assert vm.stats.reads <= 4 * blocks


class TestPinnedCharges:
    """Exact (reads, writes, operations) of one fixed sort, flush included.

    The LRU charges depend on the exact order of element accesses, so any
    change to how the sort addresses its vectors that reorders, batches or
    skips an access moves these numbers.
    """

    @staticmethod
    def _charges(memory: int, block: int, keyed: bool) -> tuple[int, int, int]:
        rng = random.Random(11)
        data = [rng.randrange(10**4) for _ in range(600)]
        vm = ObliviousVM(MachineParams(memory, block), IOStats())
        if keyed:
            vector = vm.input_vector([(value % 13, value) for value in data])
            cache_oblivious_sort(vm, vector, key=lambda record: record[0])
            assert [k for k, _ in vector.to_list()] == sorted(v % 13 for v in data)
        else:
            vector = vm.input_vector(data)
            cache_oblivious_sort(vm, vector)
            assert vector.to_list() == sorted(data)
        vm.flush()
        return (vm.stats.reads, vm.stats.writes, vm.stats.operations)

    def test_small_cache(self):
        assert self._charges(64, 8, keyed=False) == (1800, 1037, 20459)
        assert self._charges(64, 8, keyed=True) == (1815, 1034, 20499)

    def test_larger_blocks(self):
        assert self._charges(256, 16, keyed=False) == (568, 353, 20459)
        assert self._charges(256, 16, keyed=True) == (570, 353, 20499)


@settings(max_examples=25, deadline=None)
@given(data=st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=200))
def test_property_cache_oblivious_sort_matches_sorted(data):
    """Property: cache-oblivious merge sort agrees with sorted() for any input."""
    vm = make_vm(memory=32, block=4)
    vector = vm.input_vector(data)
    cache_oblivious_sort(vm, vector)
    assert vector.to_list() == sorted(data)


def merge_sort_access_by_access(vm: ObliviousVM, vector: ExtVector, key=None) -> None:
    """The oracle: :func:`cache_oblivious_sort` with every access walked."""
    n = len(vector)
    if n <= 1:
        return
    scratch = vm.vector(f"{vector.name}-scratch")
    sort = _MergeSort(vm, vector, scratch, key)
    sort.sort(0, n)
    vm.run.release(sort.stamp, sort.scratch)
    scratch.free()


def _by_key(record):
    return record[0]


class TestClosedFormSort:
    """A sort that fits the open run is charged in closed form; the
    access-by-access merge sort is the oracle."""

    @staticmethod
    def _program(sort, data, key, block, capacity, warm, settle):
        """Run the same program on a fresh VM with ``sort`` as the sort.

        Before the sort, the open run reads ``warm`` ranges of the data
        vector and of another vector, so it already holds live blocks, some
        of them the data vector's.  If ``settle``, the run is charged right
        after the sort, so that the LRU order shows the sort's own last
        accesses.  Then the run reads the data vector and frees it, as the
        algorithm's callers do.
        """
        vm = ObliviousVM(MachineParams(block * capacity, block), IOStats())
        other = vm.input_vector(range(3 * block), name="other")
        vector = vm.input_vector(data, name="data")
        run = vm.run
        for on_data, start, length in warm:
            target = vector if on_data else other
            start = min(start, len(target))
            run.read(target, start, min(len(target), start + length))
        sort(vm, vector, key)
        records = vector.to_list()
        after_sort = None
        if settle:
            run.settle()
            after_sort = (vm.cache.hits, vm.cache.misses, list(vm.cache._blocks.items()))
        run.read(vector, 0, len(vector))
        run.read(other, 0, len(other))
        vector.free()
        run.settle()
        settled = (vm.cache.hits, vm.cache.misses, list(vm.cache._blocks.items()))
        peak = vm.peak_words
        vm.flush()
        charges = (vm.stats.reads, vm.stats.writes, vm.stats.operations)
        return records, after_sort, charges, settled, peak

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(0, 6), max_size=80),
        keyed=st.booleans(),
        block=st.sampled_from([1, 2, 3, 4, 16]),
        capacity=st.integers(2, 16),
        warm=st.lists(
            st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 20)), max_size=4
        ),
        settle=st.booleans(),
    )
    def test_property_matches_the_merge_sort(self, values, keyed, block, capacity, warm, settle):
        """Records, reads/writes/operations, hits/misses, peak words, the LRU
        order and the dirty flags all agree, across the 8/9 leaf boundary
        and the fit limit; duplicate keys check the order of ties."""
        data = [(value, position) for position, value in enumerate(values)]
        key = _by_key if keyed else None
        with mock.patch.object(co_sort, "_sort_in_run", wraps=co_sort._sort_in_run) as spy:
            closed = self._program(cache_oblivious_sort, data, key, block, capacity, warm, settle)
        expected = self._program(
            merge_sort_access_by_access, data, key, block, capacity, warm, settle
        )
        assert closed == expected
        fits = len(data) > 1 and 2 * math.ceil(len(data) / block) <= capacity
        assert spy.called == fits
