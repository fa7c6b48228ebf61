"""Block-granular LRU cache simulator.

Cache-oblivious algorithms are analysed assuming an ideal cache; by the
classic result of Frigo et al. an LRU cache with twice the capacity is
2-competitive, so simulating LRU gives I/O counts within a constant factor of
the ideal-cache analysis.  This module implements that simulation over
``(storage id, block index)`` keys; misses and dirty write-backs are charged
to an :class:`repro.extmem.stats.IOStats`.

The vectors of :mod:`repro.extmem.oblivious` charge their accesses *run by
run* (:meth:`LRUBlockCache.charge_run`): a stretch of accesses that holds
at most ``capacity_blocks`` live blocks at a time costs one cache call per
block instead of one per access, and leaves every counter, dirty flag and
the LRU order exactly as the element-by-element replay would.  A freed
vector's blocks may be discarded inside a run; after the discard they no
longer count as live.  DESIGN.md, "Run-wise LRU charging", states the rule
and proves it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

from repro.exceptions import InvalidConfigurationError
from repro.extmem.stats import IOStats

BlockKey = tuple[int, int]

#: How a run touches a block: only reads, at least one write, or first
#: touches it by appending the first record of a block that does not exist
#: yet (no read is needed to install it).
READ = 0
WRITE = 1
FRESH = 2
#: The mode of a run entry that frees a storage at its place in the run.
DISCARD = 3
#: One block of a run: ``((storage id, block index), mode, ...)``, or a
#: discard: ``((storage id, block count), DISCARD, ...)``; items past the
#: mode are ignored.
RunEntry = Sequence[Any]


class LRUBlockCache:
    """An LRU cache of ``capacity_blocks`` blocks with write-back accounting.

    Parameters
    ----------
    capacity_blocks:
        Number of blocks that fit in internal memory (``M / B``).
    stats:
        Counter charged for misses (reads) and dirty evictions (writes).
    """

    def __init__(self, capacity_blocks: int, stats: IOStats) -> None:
        if capacity_blocks < 1:
            raise InvalidConfigurationError(
                f"cache capacity must be at least one block, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self.stats = stats
        # key -> dirty flag; ordered from least to most recently used.
        self._blocks: OrderedDict[BlockKey, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def access(self, storage_id: int, block_index: int, write: bool = False) -> None:
        """Touch one block; charge a read on miss and a write on dirty eviction."""
        key = (storage_id, block_index)
        blocks = self._blocks
        dirty = blocks.get(key)
        if dirty is None:
            self._install(key, dirty=write, read=True)
        else:
            self.hits += 1
            blocks.move_to_end(key)
            if write and not dirty:
                blocks[key] = True

    def write_new(self, storage_id: int, block_index: int) -> None:
        """Touch a block that is being created from scratch (append path).

        A freshly appended block has no prior contents on disk, so bringing
        it into the cache costs no read; it is simply installed dirty and its
        write is charged when it is evicted or flushed.
        """
        key = (storage_id, block_index)
        blocks = self._blocks
        if key in blocks:
            self.hits += 1
            blocks.move_to_end(key)
            blocks[key] = True
        else:
            self._install(key, dirty=True, read=False)

    def charge_run(
        self, first: Sequence[RunEntry], last: Sequence[RunEntry] | None, accesses: int
    ) -> None:
        """Charge a run of ``accesses`` accesses exactly as one call per access would.

        ``first`` (not empty) lists the run's blocks in first-access order,
        each as ``(key, mode)`` with the run's mode for it, and the run's
        discards at their places among them; ``last`` lists the blocks that
        are still live at the end of the run in last-access order, less any
        leading blocks that are in the same order among the live blocks of
        ``first`` (``None`` when nothing is left).  At most
        ``capacity_blocks`` of the run's blocks may be live (touched and not
        yet discarded) at any point, and no :meth:`flush` may fall inside
        it.  A block may appear more than once; every appearance after the
        first is then a hit.

        The first pass, :meth:`access` (or :meth:`write_new` for ``FRESH``)
        on each block and :meth:`discard_storage` for each discard, decides
        the misses, the evictions and the write-backs.  The second moves the
        live blocks to the most recently used end in last-access order.
        """
        discards = 0
        for entry in first:
            mode = entry[1]
            if mode == DISCARD:
                self.discard_storage(*entry[0])
                discards += 1
                continue
            storage_id, block_index = entry[0]
            if mode == FRESH:
                self.write_new(storage_id, block_index)
            else:
                self.access(storage_id, block_index, mode == WRITE)
        if last:
            blocks = self._blocks
            for entry in last:
                blocks.move_to_end(entry[0])
        self.hits += accesses - len(first) + discards

    def _install(self, key: BlockKey, dirty: bool, read: bool) -> None:
        """Bring ``key`` in on a miss, evicting the least recently used block.

        The miss charges a read unless the block is new; evicting a dirty
        block charges its write-back.
        """
        self.misses += 1
        if read:
            self.stats.charge_read(1)
        blocks = self._blocks
        if len(blocks) >= self.capacity_blocks:
            _evicted_key, evicted_dirty = blocks.popitem(last=False)
            if evicted_dirty:
                self.stats.charge_write(1)
        blocks[key] = dirty

    def discard_storage(self, storage_id: int, block_count: int | None = None) -> None:
        """Drop every cached block of ``storage_id`` without write-back.

        Used when a vector is freed: data that will never be read again does
        not need to reach disk.  A caller that knows the storage never had a
        block at index ``block_count`` or beyond may pass it, so that a
        small storage looks up its own keys instead of scanning the cache.
        """
        blocks = self._blocks
        if block_count is None or block_count > len(blocks):
            for key in [key for key in blocks if key[0] == storage_id]:
                del blocks[key]
        else:
            for block_index in range(block_count):
                blocks.pop((storage_id, block_index), None)

    def flush(self) -> None:
        """Write back every dirty block and empty the cache."""
        for dirty in self._blocks.values():
            if dirty:
                self.stats.charge_write(1)
        self._blocks.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUBlockCache(capacity={self.capacity_blocks}, resident={len(self._blocks)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
