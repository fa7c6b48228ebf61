"""Unit and property tests for the external merge sort (repro.extmem.sorting)."""

import heapq
import random
from bisect import bisect_right
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import sort_io
from repro.analysis.model import MachineParams
from repro.extmem import sorting
from repro.extmem.machine import Machine
from repro.extmem.sorting import merge_fan_in
from repro.extmem.stats import IOStats


def make_machine(memory=64, block=8) -> Machine:
    return Machine(MachineParams(memory, block), IOStats())


def merge_sorted_scan(machine, readables, key=None):
    """Stream the merge of several already-sorted files/slices.

    Charges the same I/Os as scanning each input once.
    """
    streams = [machine.scan(readable) for readable in readables]
    if key is None:
        return heapq.merge(*streams)
    return heapq.merge(*streams, key=key)


# ----------------------------------------------------------------------
# Merge differential oracle: the block-granular k-way heap merge
# ----------------------------------------------------------------------
_REFERENCE_MERGE_BATCH = 4096


def reference_merge_group(machine, group, out, undecorate):
    """The k-way merge streamed block by block through a heap.

    The heap holds one ``(head record, run index, position, block)`` entry
    per live run; a run locally ahead of the others has its block prefix
    copied by one ``bisect`` (the gallop), and the last live run is drained
    block by block.  Reads are charged per consumed block by
    ``scan_blocks``, operations per emitted record.  The production merge
    must match its output, counters and disk peak.
    """
    charge_operations = machine.stats.charge_operations
    block_streams = [machine.scan_blocks(run) for run in group]
    heap = []
    for index, stream in enumerate(block_streams):
        block = next(stream, None)
        if block:
            heap.append((block[0], index, 0, block))
    heapq.heapify(heap)

    batch = []

    def flush_batch():
        charge_operations(len(batch))
        out.extend([entry[2] for entry in batch] if undecorate else batch)
        batch.clear()

    while len(heap) > 1:
        record, index, position, block = heap[0]
        limit = heap[1][0] if len(heap) == 2 else min(heap[1][0], heap[2][0])
        stop = bisect_right(block, limit, position + 1)
        batch.extend(block[position:stop])
        if stop < len(block):
            heapq.heapreplace(heap, (block[stop], index, stop, block))
        else:
            block = next(block_streams[index], None)
            if block:
                heapq.heapreplace(heap, (block[0], index, 0, block))
            else:
                heapq.heappop(heap)
        if len(batch) >= _REFERENCE_MERGE_BATCH:
            flush_batch()

    if heap:
        record, index, position, block = heap[0]
        batch.extend(block[position:])
        for block in block_streams[index]:
            batch.extend(block)
            if len(batch) >= _REFERENCE_MERGE_BATCH:
                flush_batch()
    if batch:
        flush_batch()


class TestCorrectness:
    def test_sorts_small_input_in_memory(self):
        machine = make_machine(memory=64)
        file = machine.file_from_records([5, 3, 9, 1])
        result = machine.sort(file)
        assert list(machine.scan(result)) == [1, 3, 5, 9]

    def test_sorts_input_larger_than_memory(self):
        machine = make_machine(memory=64, block=8)
        rng = random.Random(0)
        data = [rng.randrange(10_000) for _ in range(1000)]
        file = machine.file_from_records(data)
        result = machine.sort(file)
        assert list(machine.scan(result)) == sorted(data)

    def test_sort_with_key(self):
        machine = make_machine()
        pairs = [(3, "c"), (1, "a"), (2, "b")]
        file = machine.file_from_records(pairs)
        result = machine.sort(file, key=lambda record: record[0])
        assert list(machine.scan(result)) == [(1, "a"), (2, "b"), (3, "c")]

    def test_sort_is_stable_for_equal_keys(self):
        machine = make_machine(memory=64, block=8)
        pairs = [(i % 3, i) for i in range(300)]
        file = machine.file_from_records(pairs)
        result = machine.sort(file, key=lambda record: record[0])
        sorted_pairs = list(machine.scan(result))
        for key in range(3):
            group = [second for first, second in sorted_pairs if first == key]
            assert group == sorted(group)

    def test_sort_empty_file(self):
        machine = make_machine()
        file = machine.empty_file()
        result = machine.sort(file)
        assert len(result) == 0

    def test_sort_respects_requested_name(self):
        machine = make_machine(memory=16, block=4)
        file = machine.file_from_records(list(range(100, 0, -1)))
        result = machine.sort(file, name="sorted-output")
        assert result.name == "sorted-output"
        assert list(machine.scan(result)) == list(range(1, 101))

    def test_intermediate_runs_are_deleted(self):
        machine = make_machine(memory=16, block=4)
        file = machine.file_from_records(list(range(200, 0, -1)))
        result = machine.sort(file)
        live = set(machine.disk.files)
        assert result.name in live
        # Only the input and the output should remain on disk.
        assert len(live) == 2

    def test_sort_slice(self):
        machine = make_machine(memory=16, block=4)
        file = machine.file_from_records([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        result = machine.sort(file.slice(2, 8))
        assert list(machine.scan(result)) == [2, 3, 4, 5, 6, 7]


class TestIOCounts:
    def test_in_memory_sort_costs_one_read_and_write_pass(self):
        machine = make_machine(memory=64, block=8)
        file = machine.file_from_records(list(range(64, 0, -1)))
        machine.sort(file)
        assert machine.stats.reads == 8
        assert machine.stats.writes == 8

    def test_external_sort_io_close_to_model(self):
        memory, block = 64, 8
        n = 4096
        machine = make_machine(memory=memory, block=block)
        rng = random.Random(1)
        data = [rng.randrange(10**6) for _ in range(n)]
        file = machine.file_from_records(data)
        machine.sort(file)
        predicted = sort_io(n, MachineParams(memory, block))
        # The operational sort should be within a small constant of the
        # closed-form sort(n) expression (it pays reads+writes per pass).
        assert machine.stats.total <= 6 * predicted
        assert machine.stats.total >= predicted

    def test_merge_fan_in_bounds(self):
        assert merge_fan_in(64, 8) == 7
        assert merge_fan_in(16, 8) == 2
        assert merge_fan_in(8, 8) == 2


class TestMergeSortedScan:
    def test_merges_sorted_streams(self):
        machine = make_machine(block=4)
        a = machine.file_from_records([1, 4, 7])
        b = machine.file_from_records([2, 3, 9])
        merged = list(merge_sorted_scan(machine, [a, b]))
        assert merged == [1, 2, 3, 4, 7, 9]

    def test_merge_with_key(self):
        machine = make_machine(block=4)
        a = machine.file_from_records([(1, "x"), (5, "x")])
        b = machine.file_from_records([(2, "y")])
        merged = list(merge_sorted_scan(machine, [a, b], key=lambda r: r[0]))
        assert [value for value, _ in merged] == [1, 2, 5]


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=300),
    memory_blocks=st.integers(min_value=2, max_value=8),
    block=st.sampled_from([2, 4, 8]),
)
def test_property_external_sort_matches_sorted(data, memory_blocks, block):
    """Property: the external sort agrees with Python's sorted() for any input."""
    machine = Machine(MachineParams(memory_blocks * block, block), IOStats())
    file = machine.file_from_records(data)
    result = machine.sort(file)
    assert list(machine.scan(result)) == sorted(data)


def _sorted_run(params, data, key=None, key_many=None):
    """Sort ``data`` on a fresh machine; output, counters, disk peak, passes."""
    machine = Machine(params, IOStats())
    source = machine.file_from_records(data)
    passes = []
    real_pass = sorting._merge_pass

    def counting_pass(*args, **kwargs):
        passes.append(None)
        return real_pass(*args, **kwargs)

    with mock.patch.object(sorting, "_merge_pass", counting_pass):
        result = machine.sort(source, key=key, key_many=key_many)
    stats = machine.stats
    return (
        result._read_range(0, len(result)),
        (stats.reads, stats.writes, stats.operations),
        machine.disk.peak_words,
        len(passes),
    )


@st.composite
def multi_pass_inputs(draw, records):
    """(M, B) and an input long enough for at least two merge passes."""
    block = draw(st.sampled_from([1, 2, 3, 4, 8]))
    memory = block * draw(st.integers(min_value=2, max_value=4))
    fan_in = merge_fan_in(memory, block)
    # More than M * fan_in records: > fan_in runs, so >= 2 passes.
    minimum = memory * fan_in + 1
    size = draw(st.integers(min_value=minimum, max_value=minimum + 3 * memory))
    data = draw(st.lists(records, min_size=size, max_size=size))
    return MachineParams(memory, block), data


class TestMergeMatchesHeapMerge:
    """The one-sort group merge emits and charges what the heap merge does."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=multi_pass_inputs(st.integers(min_value=0, max_value=9)))
    def test_plain_records(self, inputs):
        params, data = inputs
        result = _sorted_run(params, data)
        with mock.patch.object(sorting, "_merge_group", reference_merge_group):
            reference = _sorted_run(params, data)
        assert result == reference
        assert result[0] == sorted(data)
        assert result[3] >= 2

    @settings(max_examples=60, deadline=None)
    @given(
        inputs=multi_pass_inputs(
            st.tuples(st.integers(min_value=0, max_value=4), st.integers(0, 3))
        ),
        bulk=st.booleans(),
    )
    def test_keyed_records(self, inputs, bulk):
        params, data = inputs
        key = lambda record: (record[1], -record[0])  # noqa: E731
        kwargs = {"key_many": lambda chunk: [key(r) for r in chunk]} if bulk else {"key": key}
        result = _sorted_run(params, data, **kwargs)
        with mock.patch.object(sorting, "_merge_group", reference_merge_group):
            reference = _sorted_run(params, data, **kwargs)
        assert result == reference
        assert result[0] == sorted(data, key=key)
        assert result[3] >= 2

    @settings(max_examples=40, deadline=None)
    @given(inputs=multi_pass_inputs(st.sampled_from([0, 0.0, False, 1, 1.0, True, 2, 2.0])))
    def test_ties_keep_input_order(self, inputs):
        """Equal records of different types come out in input order (stable)."""
        params, data = inputs
        output = _sorted_run(params, data)[0]
        assert [(type(r), r) for r in output] == [(type(r), r) for r in sorted(data)]
