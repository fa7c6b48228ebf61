"""Unit tests for the cache-oblivious VM and ExtVector (repro.extmem.oblivious)."""

import pytest

from repro.analysis.model import MachineParams
from repro.exceptions import FileClosedError
from repro.extmem.oblivious import (
    ObliviousVM,
    filter_vector,
    map_vector,
    vector_from_iterable,
)
from repro.extmem.stats import IOStats


def make_vm(memory=64, block=8) -> ObliviousVM:
    return ObliviousVM(MachineParams(memory, block), IOStats())


class TestVectorBasics:
    def test_input_vector_charges_no_io(self):
        vm = make_vm()
        vector = vm.input_vector(range(100))
        assert len(vector) == 100
        assert vm.stats.total == 0

    def test_get_and_set_round_trip(self):
        vm = make_vm()
        vector = vm.input_vector([10, 20, 30])
        assert vector.get(1) == 20
        vector.set(1, 99)
        assert vector.get(1) == 99
        assert vector[2] == 30
        vector[0] = -1
        assert vector[0] == -1

    def test_out_of_range_access_raises(self):
        vm = make_vm()
        vector = vm.input_vector([1, 2, 3])
        with pytest.raises(IndexError):
            vector.get(3)
        with pytest.raises(IndexError):
            vector.set(-1, 0)

    def test_append_and_iterate(self):
        vm = make_vm()
        vector = vm.vector()
        vector.extend(range(25))
        assert list(vector.iterate()) == list(range(25))

    def test_free_releases_space_and_blocks_access(self):
        vm = make_vm()
        vector = vm.input_vector(range(50))
        assert vm.current_words == 50
        vector.free()
        assert vm.current_words == 0
        with pytest.raises(FileClosedError):
            vector.get(0)

    def test_free_is_idempotent(self):
        vm = make_vm()
        vector = vm.input_vector(range(5))
        vector.free()
        vector.free()

    def test_peak_words_tracks_maximum(self):
        vm = make_vm()
        a = vm.input_vector(range(30))
        b = vm.vector()
        b.extend(range(20))
        a.free()
        assert vm.peak_words == 50
        assert vm.current_words == 20

    def test_to_list_does_not_charge(self):
        vm = make_vm()
        vector = vm.input_vector(range(40))
        before = vm.stats.total
        assert vector.to_list() == list(range(40))
        assert vm.stats.total == before


class TestIOAccounting:
    def test_sequential_read_costs_one_miss_per_block(self):
        vm = make_vm(memory=64, block=8)
        vector = vm.input_vector(range(80))
        list(vector.iterate())
        assert vm.stats.reads == 10
        assert vm.stats.writes == 0

    def test_rereading_within_cache_capacity_is_free(self):
        vm = make_vm(memory=64, block=8)  # 8 blocks of cache
        vector = vm.input_vector(range(32))  # 4 blocks
        list(vector.iterate())
        reads_after_first = vm.stats.reads
        list(vector.iterate())
        assert vm.stats.reads == reads_after_first

    def test_append_charges_writes_on_eviction_or_flush(self):
        vm = make_vm(memory=16, block=8)  # cache of 2 blocks
        out = vm.vector()
        out.extend(range(40))  # 5 blocks, so at least 3 must have been evicted dirty
        assert vm.stats.writes >= 3
        vm.flush()
        assert vm.stats.writes == 5

    def test_append_never_charges_reads(self):
        vm = make_vm(memory=16, block=8)
        out = vm.vector()
        out.extend(range(100))
        assert vm.stats.reads == 0

    def test_random_access_thrashes_small_cache(self):
        vm = make_vm(memory=16, block=8)  # 2 blocks of cache
        vector = vm.input_vector(range(64))  # 8 blocks
        for index in range(0, 64, 8):  # one access per block, twice
            vector.get(index)
        for index in range(0, 64, 8):
            vector.get(index)
        assert vm.stats.reads == 16

    def test_operations_counted_per_access(self):
        vm = make_vm()
        vector = vm.input_vector(range(10))
        list(vector.iterate())
        assert vm.stats.operations == 10


class TestSlices:
    def test_slice_reads_relative_indices(self):
        vm = make_vm()
        vector = vm.input_vector(range(100))
        view = vector.slice(10, 20)
        assert len(view) == 10
        assert view.get(0) == 10
        assert view[9] == 19

    def test_slice_writes_through(self):
        vm = make_vm()
        vector = vm.input_vector(range(10))
        view = vector.slice(5, 10)
        view.set(0, 500)
        assert vector.get(5) == 500

    def test_nested_slices(self):
        vm = make_vm()
        vector = vm.input_vector(range(100))
        inner = vector.slice(20, 80).slice(10, 20)
        assert list(inner.iterate()) == list(range(30, 40))

    def test_slice_out_of_range(self):
        vm = make_vm()
        vector = vm.input_vector(range(10))
        view = vector.slice(2, 6)
        with pytest.raises(IndexError):
            view.get(4)


class TestHelpers:
    def test_vector_from_iterable_charges_writes(self):
        vm = make_vm(memory=16, block=8)
        vector = vector_from_iterable(vm, range(24))
        vm.flush()
        assert list(vector.iterate()) == list(range(24))
        assert vm.stats.writes == 3

    def test_map_vector(self):
        vm = make_vm()
        source = vm.input_vector(range(10))
        doubled = map_vector(vm, source, lambda x: 2 * x)
        assert doubled.to_list() == [2 * x for x in range(10)]

    def test_filter_vector(self):
        vm = make_vm()
        source = vm.input_vector(range(20))
        evens = filter_vector(vm, source, lambda x: x % 2 == 0)
        assert evens.to_list() == list(range(0, 20, 2))


class TestAccessChecks:
    """Every element access checks the vector is open and the index is in
    range before it charges anything."""

    def test_freed_vector_rejects_every_access(self):
        vm = make_vm()
        vector = vm.input_vector(range(20))
        view = vector.slice(0, 10)
        vector.free()
        before = vm.stats.snapshot()
        with pytest.raises(FileClosedError):
            vector.get(0)
        with pytest.raises(FileClosedError):
            vector.set(0, 1)
        with pytest.raises(FileClosedError):
            vector.append(1)
        with pytest.raises(FileClosedError):
            view.get(0)
        with pytest.raises(FileClosedError):
            view.set(0, 1)
        assert vm.stats.snapshot() == before

    def test_iterating_a_freed_vector_raises(self):
        vm = make_vm()
        vector = vm.input_vector(range(20))
        vector.free()
        with pytest.raises(FileClosedError):
            list(vector.iterate())

    def test_freeing_during_iteration_stops_it(self):
        vm = make_vm()
        vector = vm.input_vector(range(20))
        records = vector.iterate()
        assert next(records) == 0
        vector.free()
        with pytest.raises(FileClosedError):
            next(records)

    @pytest.mark.parametrize("index", [-1, 5, 6, 100])
    def test_vector_index_out_of_range(self, index):
        vm = make_vm()
        vector = vm.input_vector(range(5))
        before = vm.stats.snapshot()
        with pytest.raises(IndexError):
            vector.get(index)
        with pytest.raises(IndexError):
            vector.set(index, 0)
        assert vm.stats.snapshot() == before
        assert vector.to_list() == list(range(5))

    @pytest.mark.parametrize("index", [-1, 4, 5, 50])
    def test_slice_index_out_of_range(self, index):
        vm = make_vm()
        vector = vm.input_vector(range(10))
        view = vector.slice(2, 6)
        before = vm.stats.snapshot()
        with pytest.raises(IndexError):
            view.get(index)
        with pytest.raises(IndexError):
            view.set(index, 0)
        assert vm.stats.snapshot() == before
        assert vector.to_list() == list(range(10))
