"""Hypothesis property tests on the cache simulators.

These properties are what make the I/O measurements of the experiments
trustworthy: LRU's inclusion ("stack") property -- a larger cache never
misses more -- plus exactness of sequential-scan accounting, agreement
between the multilevel replay and dedicated single-level simulations, and
agreement of the optimised cache with a naive list-based reference LRU.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extmem.cache import LRUBlockCache
from repro.extmem.multilevel import CacheLevel, MultiLevelBlockCache
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
#: the block of the previous operation -- the case the cache answers without
#: a dictionary lookup -- so that a write after a read of the same block and
#: a repeat right after a flush or a discard of that block's storage come up
#: often.
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
