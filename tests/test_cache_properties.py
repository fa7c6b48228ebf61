"""Hypothesis property tests on the cache simulators.

These properties are what make the I/O measurements of the experiments
trustworthy: LRU's inclusion ("stack") property -- a larger cache never
misses more -- plus exactness of sequential-scan accounting, agreement
between the multilevel replay and dedicated single-level simulations,
agreement of the optimised cache with a naive list-based reference LRU, and
agreement of run-wise charging with one cache call per access.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import MachineParams
from repro.extmem.cache import DISCARD, FRESH, READ, WRITE, LRUBlockCache
from repro.extmem.multilevel import CacheLevel, MultiLevelBlockCache, attach_multilevel
from repro.extmem.oblivious import Cursor, ObliviousVM
from repro.extmem.stats import IOStats

#: A random access trace: (storage id, block index, is_write) triples.
traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
    max_size=300,
)


def replay(trace, capacity_blocks: int) -> IOStats:
    """Replay a trace against a fresh single-level LRU cache and flush it."""
    stats = IOStats()
    cache = LRUBlockCache(capacity_blocks, stats)
    for storage, block, write in trace:
        cache.access(storage, block, write=write)
    cache.flush()
    return stats


class TestLRUInclusionProperty:
    @settings(max_examples=60, deadline=None)
    @given(trace=traces, small=st.integers(1, 8), extra=st.integers(1, 16))
    def test_property_larger_cache_never_reads_more(self, trace, small, extra):
        """The stack property of LRU: misses are monotone in the capacity."""
        small_stats = replay(trace, small)
        large_stats = replay(trace, small + extra)
        assert large_stats.reads <= small_stats.reads

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, small=st.integers(1, 8), extra=st.integers(1, 16))
    def test_property_larger_cache_never_transfers_more(self, trace, small, extra):
        """Including dirty write-backs (after a final flush), bigger is never worse."""
        small_stats = replay(trace, small)
        large_stats = replay(trace, small + extra)
        assert large_stats.total <= small_stats.total

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, capacity=st.integers(1, 16))
    def test_property_reads_bounded_by_accesses_and_distinct_blocks(self, trace, capacity):
        stats = replay(trace, capacity)
        distinct = len({(s, b) for s, b, _ in trace})
        assert stats.reads >= distinct if capacity >= distinct and trace else True
        assert stats.reads <= len(trace)
        # Write-backs can never exceed the number of write accesses.
        assert stats.writes <= sum(1 for _, _, w in trace if w)

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, capacity=st.integers(1, 12))
    def test_property_infinite_cache_reads_equal_distinct_blocks(self, trace, capacity):
        """With a cache larger than the footprint, only compulsory misses remain."""
        distinct = len({(s, b) for s, b, _ in trace})
        stats = replay(trace, max(1, distinct + capacity))
        assert stats.reads == distinct

    @settings(max_examples=40, deadline=None)
    @given(
        trace=traces,
        capacities=st.lists(st.integers(1, 20), min_size=2, max_size=4, unique=True),
    )
    def test_property_multilevel_replay_matches_single_level_runs(self, trace, capacities):
        """The multilevel simulator is exactly 'several single-level LRUs in parallel'."""
        stats = IOStats()
        levels = [CacheLevel(f"l{c}", c) for c in capacities]
        multi = MultiLevelBlockCache(levels, stats)
        for storage, block, write in trace:
            multi.access(storage, block, write=write)
        multi.flush()
        totals = multi.total_by_level()
        for capacity in capacities:
            assert totals[f"l{capacity}"] == replay(trace, capacity).total


class TestScanExactness:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 500), block=st.sampled_from([1, 2, 4, 8, 16]), capacity=st.integers(1, 8))
    def test_property_sequential_scan_costs_exactly_ceil_n_over_b(self, n, block, capacity):
        """A single sequential pass misses exactly once per block, regardless of
        the cache size -- the invariant behind every scan bound in the paper."""
        stats = IOStats()
        cache = LRUBlockCache(capacity, stats)
        for index in range(n):
            cache.access(0, index // block)
        assert stats.reads == math.ceil(n / block) if n else stats.reads == 0


class _ReferenceLRU:
    """A deliberately naive LRU: a list of ``[key, dirty]`` from least to most
    recently used, with the same charging rules as :class:`LRUBlockCache`."""

    def __init__(self, capacity_blocks: int) -> None:
        self.capacity_blocks = capacity_blocks
        self.entries: list[list] = []
        self.hits = 0
        self.misses = 0
        self.reads = 0
        self.writes = 0

    def _find(self, key):
        for position, entry in enumerate(self.entries):
            if entry[0] == key:
                return position
        return None

    def _touch(self, key, dirty: bool, charge_read: bool) -> None:
        position = self._find(key)
        if position is not None:
            self.hits += 1
            entry = self.entries.pop(position)
            entry[1] = entry[1] or dirty
            self.entries.append(entry)
            return
        self.misses += 1
        if charge_read:
            self.reads += 1
        if len(self.entries) >= self.capacity_blocks:
            _key, evicted_dirty = self.entries.pop(0)
            self.writes += evicted_dirty
        self.entries.append([key, dirty])

    def access(self, storage, block, write):
        self._touch((storage, block), write, charge_read=True)

    def write_new(self, storage, block):
        self._touch((storage, block), True, charge_read=False)

    def discard_storage(self, storage):
        self.entries = [entry for entry in self.entries if entry[0][0] != storage]

    def flush(self):
        self.writes += sum(1 for _key, dirty in self.entries if dirty)
        self.entries = []


#: Operations mixing every cache entry point.  ``("again", write)`` repeats
#: the block of the previous operation, so that a write after a read of the
#: same block and a repeat right after a flush or a discard of that block's
#: storage come up often.
cache_operations = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 2), st.integers(0, 4), st.booleans()),
        st.tuples(st.just("again"), st.booleans()),
        st.tuples(st.just("write_new"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("discard_storage"), st.integers(0, 2)),
        st.tuples(st.just("flush")),
    ),
    max_size=300,
)


class TestLRUDifferential:
    @settings(max_examples=200, deadline=None)
    @given(operations=cache_operations, capacity=st.integers(1, 6))
    def test_property_matches_reference_lru(self, operations, capacity):
        """Every counter agrees with the naive reference after every operation."""
        stats = IOStats()
        cache = LRUBlockCache(capacity, stats)
        reference = _ReferenceLRU(capacity)
        last_block = (0, 0)
        for operation in operations:
            name, *arguments = operation
            if name == "again":
                name, arguments = "access", [*last_block, *arguments]
            if name in ("access", "write_new"):
                last_block = tuple(arguments[:2])
            getattr(cache, name)(*arguments)
            getattr(reference, name)(*arguments)
            observed = (cache.hits, cache.misses, stats.reads, stats.writes)
            expected = (reference.hits, reference.misses, reference.reads, reference.writes)
            assert observed == expected, operation
            # Resident blocks, in LRU order, with their dirty flags: a block
            # left clean by a missed write shows here before any eviction.
            assert [[key, dirty] for key, dirty in cache._blocks.items()] == reference.entries
        cache.flush()
        reference.flush()
        assert (stats.reads, stats.writes) == (reference.reads, reference.writes)

    def test_write_to_clean_last_block_is_written_back(self):
        """A write that repeats the last access still dirties the block."""
        stats = IOStats()
        cache = LRUBlockCache(4, stats)
        cache.access(0, 0)
        cache.access(0, 0, write=True)
        cache.flush()
        assert (cache.hits, cache.misses, stats.reads, stats.writes) == (1, 1, 1, 1)

    def test_repeat_after_flush_is_a_miss(self):
        """A flushed block is gone: re-touching the last block must read it again."""
        stats = IOStats()
        cache = LRUBlockCache(4, stats)
        cache.access(0, 0, write=True)
        cache.flush()
        cache.access(0, 0)
        assert (cache.hits, cache.misses, stats.reads, stats.writes) == (0, 2, 2, 1)

    def test_repeat_after_discard_is_a_miss(self):
        """A discarded storage's last block must not be answered as a hit."""
        stats = IOStats()
        cache = LRUBlockCache(4, stats)
        cache.write_new(1, 0)
        cache.discard_storage(1)
        cache.access(1, 0, write=True)
        cache.flush()
        assert (cache.hits, cache.misses, stats.reads, stats.writes) == (0, 2, 1, 1)


# ---------------------------------------------------------------------------
# Run-wise charging (LRUBlockCache.charge_run and the VM's Run) against the
# element-wise replay, which stays here as the oracle.
# ---------------------------------------------------------------------------

#: One step of a multi-stream trace.  ``("seq", s, write)`` touches stream
#: ``s`` at its sequential cursor, which moves on to the next block a third of
#: the time; ``("jump", s, b, write)`` touches block ``b`` of stream ``s`` if it
#: exists; ``("append", s, fresh)`` writes the stream's last block, or starts a
#: new one without a read; ``("cut",)`` ends the current run early and
#: ``("free", s)`` discards stream ``s`` inside the run.
run_steps = st.lists(
    st.one_of(
        st.tuples(st.just("seq"), st.integers(0, 3), st.booleans()),
        st.tuples(st.just("jump"), st.integers(0, 3), st.integers(0, 5), st.booleans()),
        st.tuples(st.just("append"), st.integers(0, 3), st.booleans()),
        st.tuples(st.just("cut")),
        st.tuples(st.just("free"), st.integers(0, 3)),
    ),
    max_size=200,
)


def _trace_runs(steps, capacity):
    """Turn drawn steps into runs that hold at most ``capacity`` live blocks.

    Yields one list per run.  An element access is ``(key, kind)``, kind
    one of ``"read"``, ``"write"`` and ``"fresh"``; a free inside the run
    is ``("free", storage, block count)``, after which the storage's
    blocks are no longer live.  A freed stream starts again under a new
    storage id, as the VM gives every new vector its own.
    """
    storage = list(range(4))
    blocks = [0] * 4
    cursor = [0] * 4
    run: list = []
    live: set = set()

    def touch(stream, block, kind):
        nonlocal run, live
        key = (storage[stream], block)
        if key not in live and len(live) == capacity:
            yield run
            run, live = [], set()
        live.add(key)
        run.append((key, kind))

    for step in steps:
        name = step[0]
        if name == "cut":
            if run:
                yield run
            run, live = [], set()
        elif name == "free":
            stream = step[1]
            run.append(("free", storage[stream], blocks[stream]))
            live = {key for key in live if key[0] != storage[stream]}
            storage[stream] += 4
            blocks[stream] = cursor[stream] = 0
        elif name == "seq":
            _, stream, write = step
            if blocks[stream] == 0:
                continue
            block = cursor[stream] % blocks[stream]
            yield from touch(stream, block, "write" if write else "read")
            if block % 3 == 0:
                cursor[stream] += 1
        elif name == "jump":
            _, stream, block, write = step
            if block < blocks[stream]:
                yield from touch(stream, block, "write" if write else "read")
        else:
            _, stream, fresh = step
            if fresh or blocks[stream] == 0:
                blocks[stream] += 1
                yield from touch(stream, blocks[stream] - 1, "fresh")
            else:
                yield from touch(stream, blocks[stream] - 1, "write")
    if run:
        yield run


def _charge_run_wise(cache, run) -> None:
    """The rule: one entry per block in first-access order, with each free
    at its place, then the live blocks in last-access order."""
    entries: list = []
    segment_of: dict = {}
    last: dict = {}
    accesses = 0
    for item in run:
        if item[0] == "free":
            _, storage, count = item
            entries.append(((storage, count), DISCARD))
            for key in [key for key in last if key[0] == storage]:
                del last[key]
            continue
        key, kind = item
        accesses += 1
        segment = segment_of.get(key)
        if segment is None:
            segment = segment_of[key] = [key, FRESH if kind == "fresh" else READ]
            entries.append(segment)
        if kind != "read" and segment[1] == READ:
            segment[1] = WRITE
        last.pop(key, None)
        last[key] = True
    cache.charge_run(entries, [(key,) for key in last] or None, accesses)


def _charge_element_wise(cache, run) -> None:
    for item in run:
        if item[0] == "free":
            cache.discard_storage(item[1])
            continue
        (storage, block), kind = item
        if kind == "fresh":
            cache.write_new(storage, block)
        else:
            cache.access(storage, block, write=kind == "write")


def _state(cache, stats):
    return (cache.hits, cache.misses, stats.reads, stats.writes, list(cache._blocks.items()))


class TestRunWiseCharging:
    @settings(max_examples=150, deadline=None)
    @given(steps=run_steps, capacity=st.one_of(st.integers(1, 3), st.integers(4, 8)))
    def test_property_run_wise_matches_element_wise(self, steps, capacity):
        """Counters, dirty flags and the LRU order agree after every run,
        frees inside runs included."""
        run_stats, element_stats = IOStats(), IOStats()
        run_cache = LRUBlockCache(capacity, run_stats)
        element_cache = LRUBlockCache(capacity, element_stats)
        for run in _trace_runs(steps, capacity):
            _charge_run_wise(run_cache, run)
            _charge_element_wise(element_cache, run)
            assert _state(run_cache, run_stats) == _state(element_cache, element_stats)
            # The next access sees the state the run left, the last block
            # most recently used.
            accessed = [item[0] for item in run if item[0] != "free"]
            if accessed:
                run_cache.access(*accessed[-1])
                element_cache.access(*accessed[-1])
            assert _state(run_cache, run_stats) == _state(element_cache, element_stats)
        run_cache.flush()
        element_cache.flush()
        assert (run_stats.reads, run_stats.writes) == (element_stats.reads, element_stats.writes)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=run_steps,
        larger=st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
    )
    def test_property_multilevel_with_one_block_level(self, steps, larger):
        """A 1-block level bounds every run at one block; each level still
        ends exactly where the element-wise replay does."""
        levels = [CacheLevel(f"l{c}", c) for c in [1, *sorted(larger)]]
        run_cache = MultiLevelBlockCache(levels, IOStats())
        element_cache = MultiLevelBlockCache(levels, IOStats())
        assert run_cache.capacity_blocks == 1
        for run in _trace_runs(steps, run_cache.capacity_blocks):
            _charge_run_wise(run_cache, run)
            _charge_element_wise(element_cache, run)
            for level, ours, theirs in zip(levels, run_cache._caches, element_cache._caches):
                assert _state(ours, run_cache.level_stats[level.name]) == _state(
                    theirs, element_cache.level_stats[level.name]
                )
        run_cache.flush()
        element_cache.flush()
        assert run_cache.total_by_level() == element_cache.total_by_level()


#: One step of a program over VM vectors: ``("read", v, second)`` reads vector
#: ``v`` at the position of its own cursor (or of a second cursor), which
#: then moves on, or jumps back to 0 a fifth of the time; ``("write", v,
#: second)`` overwrites there; ``("append", v)`` appends; ``("free", v)``
#: frees vector ``v`` inside the open run and puts a new one in its place;
#: ``("settle",)`` charges the open run, so that later frees also drop
#: blocks that only an earlier run touched.
vm_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("append"), st.integers(0, 2)),
        st.tuples(st.just("free"), st.integers(0, 2)),
        st.tuples(st.just("settle")),
    ),
    max_size=250,
)


def _vm_and_oracle(block: int, capacity: int, one_block_level: bool):
    """A VM and a cache to call once per access, with the same hierarchy.

    Returns the VM, the oracle cache and the oracle's stats for the VM's
    own counters.
    """
    params = MachineParams(block * capacity, block)
    if one_block_level:
        vm, _ = attach_multilevel(params, {"l1": block, "top": block * capacity})
        oracle_cache = MultiLevelBlockCache(
            [CacheLevel("l1", 1), CacheLevel("top", capacity)], IOStats()
        )
        return vm, oracle_cache, oracle_cache.level_stats["top"]
    oracle_stats = IOStats()
    return ObliviousVM(params), LRUBlockCache(capacity, oracle_stats), oracle_stats


def _assert_same_charges(vm, oracle_cache, oracle_stats) -> None:
    assert (vm.stats.reads, vm.stats.writes) == (oracle_stats.reads, oracle_stats.writes)
    if isinstance(oracle_cache, MultiLevelBlockCache):
        assert vm.cache.total_by_level() == oracle_cache.total_by_level()
    else:
        assert (vm.cache.hits, vm.cache.misses) == (oracle_cache.hits, oracle_cache.misses)
        assert list(vm.cache._blocks.items()) == list(oracle_cache._blocks.items())


class TestVMRuns:
    @settings(max_examples=120, deadline=None)
    @given(
        steps=vm_steps,
        block=st.sampled_from([1, 2, 3, 4]),
        capacity=st.integers(2, 6),
        one_block_level=st.booleans(),
    )
    def test_property_vm_run_matches_element_wise(self, steps, block, capacity, one_block_level):
        """Loops that report to the VM's Run charge what one cache call per
        access charges, on any interleaving, capacity and cache hierarchy,
        with frees inside runs."""
        vm, oracle_cache, oracle_stats = _vm_and_oracle(block, capacity, one_block_level)
        vectors = [vm.input_vector(range(5 * block)) for _ in range(3)]
        cursors = [[vector.cursor(), Cursor(vector)] for vector in vectors]
        positions = [[0, 0] for _ in vectors]
        run = vm.run
        t = run.stamp
        accesses = 0
        for step in steps:
            name = step[0]
            if name == "settle":
                run.release(t)
                run.settle()
                assert vm.stats.operations == accesses
                _assert_same_charges(vm, oracle_cache, oracle_stats)
                continue
            v = step[1]
            vector = vectors[v]
            data = cursors[v][0].data
            if name == "free":
                run.release(t)
                vector.free()
                oracle_cache.discard_storage(vector.storage_id)
                vectors[v] = vm.input_vector(range(block + v))
                cursors[v] = [vectors[v].cursor(), Cursor(vectors[v])]
                positions[v] = [0, 0]
                t = run.stamp
                continue
            if name == "append":
                cursor, index, mode = cursors[v][0], len(data), FRESH
                data.append(index)
            else:
                which = 1 if step[2] else 0
                cursor = cursors[v][which]
                index = positions[v][which] % len(data)
                positions[v][which] = 0 if index % 5 == 4 else index + 1
                mode = WRITE if name == "write" else READ
            if not cursor.start <= index < cursor.end:
                run.move(cursor, index, t, mode)
            elif cursor.first < 0:
                run.enter(cursor, t, mode)
            elif mode != READ:
                cursor.wrote()
            cursor.last = t
            t += 1
            accesses += 1
            storage, block_index = vector.storage_id, index // block
            if mode == FRESH and index % block == 0:
                oracle_cache.write_new(storage, block_index)
            else:
                oracle_cache.access(storage, block_index, write=mode != READ)
        run.release(t)
        vm.flush()
        oracle_cache.flush()
        assert vm.stats.operations == accesses
        _assert_same_charges(vm, oracle_cache, oracle_stats)

    @staticmethod
    def _read_all(vm, oracle_cache, vector) -> None:
        """Read every record of ``vector`` in the open run, and in the oracle."""
        vm.run.read(vector, 0, len(vector))
        for index in range(len(vector)):
            oracle_cache.access(vector.storage_id, index // vm.block_size)

    @pytest.mark.parametrize("one_block_level", [False, True])
    def test_free_of_blocks_the_run_touched(self, one_block_level):
        """The freed blocks leave the run's live count but keep their place:
        the run stays open and admits as many new blocks as it freed."""
        vm, oracle_cache, oracle_stats = _vm_and_oracle(2, 4, one_block_level)
        kept, freed, later = (vm.input_vector(range(4)) for _ in range(3))
        self._read_all(vm, oracle_cache, kept)
        self._read_all(vm, oracle_cache, freed)
        freed.free()
        oracle_cache.discard_storage(freed.storage_id)
        assert vm.run.segments and vm.run.segments[-1][1] == DISCARD
        self._read_all(vm, oracle_cache, later)
        self._read_all(vm, oracle_cache, kept)
        vm.run.settle()
        _assert_same_charges(vm, oracle_cache, oracle_stats)
        vm.flush()
        oracle_cache.flush()
        _assert_same_charges(vm, oracle_cache, oracle_stats)

    @pytest.mark.parametrize("one_block_level", [False, True])
    def test_free_of_blocks_only_an_earlier_run_touched(self, one_block_level):
        """A free drops resident blocks that the open run never touched
        where the element-wise replay drops them: later misses evict other
        blocks."""
        vm, oracle_cache, oracle_stats = _vm_and_oracle(2, 4, one_block_level)
        resident, other, later = (vm.input_vector(range(4)) for _ in range(3))
        self._read_all(vm, oracle_cache, resident)
        vm.run.settle()
        self._read_all(vm, oracle_cache, other)
        resident.free()
        oracle_cache.discard_storage(resident.storage_id)
        assert vm.run.segments[-1][1] == DISCARD
        self._read_all(vm, oracle_cache, later)
        vm.run.settle()
        _assert_same_charges(vm, oracle_cache, oracle_stats)
        vm.flush()
        oracle_cache.flush()
        _assert_same_charges(vm, oracle_cache, oracle_stats)

    def test_frees_inside_one_run_keep_it_bounded(self):
        """10,000 vectors created, appended to and freed with no other
        access: frees keep the run open, yet its entry list stays within
        a fixed multiple of the capacity, and the charges are exact."""
        capacity = 4
        vm, oracle_cache, oracle_stats = _vm_and_oracle(4, capacity, False)
        run = vm.run
        longest = 0
        for number in range(10_000):
            vector = vm.vector()
            records = list(range(number % 7 + 1))
            run.append(vector, records)
            for index in range(len(records)):
                if index % vm.block_size == 0:
                    oracle_cache.write_new(vector.storage_id, index // vm.block_size)
                else:
                    oracle_cache.access(vector.storage_id, index // vm.block_size, write=True)
            vector.free()
            oracle_cache.discard_storage(vector.storage_id)
            longest = max(longest, len(run.segments))
        assert 2 * capacity < longest <= 4 * capacity
        assert vm.current_words == 0
        vm.flush()
        oracle_cache.flush()
        _assert_same_charges(vm, oracle_cache, oracle_stats)
