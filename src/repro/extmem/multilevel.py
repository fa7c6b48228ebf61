"""Multilevel LRU cache simulation.

A key property of cache-oblivious algorithms (Frigo et al., Lemma 6.4 --
quoted by the paper when stating Theorem 1) is that an algorithm that is
optimal for a single level of an ideal cache is simultaneously optimal on
*every* level of a multilevel hierarchy with LRU replacement, provided its
I/O complexity satisfies the regularity condition
``Q(n, M, B) = O(Q(n, 2M, B))``.

This module lets one run observe several cache levels at once: every block
access is replayed against a list of independent LRU caches (one per level,
each with its own capacity and its own I/O counters), which is exactly the
standard way multilevel LRU behaviour is analysed -- the levels are
inclusive and each sees the full access stream.  Plug a
:class:`MultiLevelBlockCache` into an
:class:`repro.extmem.oblivious.ObliviousVM` (via :func:`attach_multilevel`)
and the per-level miss counts of a single algorithm execution fall out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.model import MachineParams
from repro.extmem.cache import LRUBlockCache, RunEntry
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats


@dataclass(frozen=True)
class CacheLevel:
    """One level of the simulated hierarchy."""

    name: str
    capacity_blocks: int

    def __post_init__(self) -> None:
        if self.capacity_blocks < 1:
            raise ValueError(f"cache level {self.name!r} needs at least one block")


class MultiLevelBlockCache:
    """Replays every block access against several independent LRU levels.

    The object exposes the same interface as
    :class:`repro.extmem.cache.LRUBlockCache` (``access``, ``write_new``,
    ``charge_run``, ``discard_storage``, ``flush``), so it can stand in for
    the single-level cache inside an :class:`ObliviousVM`.  Its
    ``capacity_blocks`` is the *smallest* level's: a run that fits there fits
    every level, and each level then charges it exactly as it would charge
    the run's accesses one by one.  The VM's own stats receive the
    charges of the *last* (largest) level, matching the convention that the
    final level's misses are "the" I/Os; the other levels' counters are
    available per level.
    """

    def __init__(self, levels: list[CacheLevel], stats: IOStats) -> None:
        if not levels:
            raise ValueError("at least one cache level is required")
        ordered = sorted(levels, key=lambda level: level.capacity_blocks)
        self.levels = ordered
        self.level_stats: dict[str, IOStats] = {level.name: IOStats() for level in ordered}
        self._caches: list[LRUBlockCache] = []
        for index, level in enumerate(ordered):
            # The largest level doubles as the VM-visible cache: it charges
            # both its own per-level stats and the VM stats.
            target = _FanoutStats(
                [self.level_stats[level.name], stats]
                if index == len(ordered) - 1
                else [self.level_stats[level.name]]
            )
            self._caches.append(LRUBlockCache(level.capacity_blocks, target))
        self.capacity_blocks = ordered[0].capacity_blocks

    # -- LRUBlockCache interface -----------------------------------------
    def access(self, storage_id: int, block_index: int, write: bool = False) -> None:
        for cache in self._caches:
            cache.access(storage_id, block_index, write=write)

    def write_new(self, storage_id: int, block_index: int) -> None:
        for cache in self._caches:
            cache.write_new(storage_id, block_index)

    def charge_run(
        self, first: Sequence[RunEntry], last: Sequence[RunEntry] | None, accesses: int
    ) -> None:
        for cache in self._caches:
            cache.charge_run(first, last, accesses)

    def discard_storage(self, storage_id: int, block_count: int | None = None) -> None:
        for cache in self._caches:
            cache.discard_storage(storage_id, block_count)

    def flush(self) -> None:
        for cache in self._caches:
            cache.flush()

    # -- reporting --------------------------------------------------------
    def misses_by_level(self) -> dict[str, int]:
        """Block reads (misses) charged at each level."""
        return {name: stats.reads for name, stats in self.level_stats.items()}

    def total_by_level(self) -> dict[str, int]:
        """Total block transfers (misses plus dirty write-backs) per level."""
        return {name: stats.total for name, stats in self.level_stats.items()}

    @property
    def hit_rate(self) -> float:
        """Hit rate of the largest level (interface parity with the single cache)."""
        return self._caches[-1].hit_rate


class _FanoutStats:
    """Duplicates charges onto several IOStats objects."""

    def __init__(self, targets: list[IOStats]) -> None:
        self.targets = targets

    def charge_read(self, blocks: int = 1) -> None:
        for target in self.targets:
            target.charge_read(blocks)

    def charge_write(self, blocks: int = 1) -> None:
        for target in self.targets:
            target.charge_write(blocks)

    def charge_operations(self, count: int = 1) -> None:  # pragma: no cover - not used by caches
        for target in self.targets:
            target.charge_operations(count)


def attach_multilevel(
    params: MachineParams,
    level_memories: dict[str, int],
    stats: IOStats | None = None,
) -> tuple[ObliviousVM, MultiLevelBlockCache]:
    """Build an :class:`ObliviousVM` whose cache is a multilevel hierarchy.

    ``level_memories`` maps level names to memory sizes in words; every level
    shares the block size of ``params``.  ``params.memory_words`` should be
    the size of the largest level (it is what the VM reports as its own
    capacity).  Returns the VM and the multilevel cache for per-level
    reporting.
    """
    vm = ObliviousVM(params, stats)
    levels = [
        CacheLevel(name=name, capacity_blocks=max(1, memory // params.block_words))
        for name, memory in level_memories.items()
    ]
    cache = MultiLevelBlockCache(levels, vm.stats)
    vm.cache = cache  # type: ignore[assignment]
    return vm, cache
