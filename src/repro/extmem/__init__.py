"""Simulated external-memory machinery.

Two complementary substrates are provided:

* The *explicit* machine (:class:`repro.extmem.machine.Machine`) used by
  cache-aware algorithms: sequential scans, buffered writers, bounded loads
  into internal memory and an external multiway merge sort, all charging
  block transfers against an :class:`repro.extmem.stats.IOStats` counter.
* The *cache-oblivious* virtual machine
  (:class:`repro.extmem.oblivious.ObliviousVM`) used by cache-oblivious
  algorithms: disk-resident vectors accessed element-wise through an LRU
  block cache of ``M/B`` blocks, charged run by run, so the algorithm never
  sees ``M`` or ``B``.

Both charge I/Os in units of blocks of ``B`` records, where one record (an
edge, a vertex id, a wedge, ...) occupies one machine word, matching the
accounting convention of the paper's lower-bound section.
"""

from repro.extmem.cache import LRUBlockCache
from repro.extmem.disk import Disk, ExtFile, FileSlice
from repro.extmem.machine import Machine, MemoryLease
from repro.extmem.oblivious import ExtVector, ObliviousVM, transfer
from repro.extmem.sorting import external_merge_sort
from repro.extmem.stats import IOStats

__all__ = [
    "Disk",
    "ExtFile",
    "ExtVector",
    "FileSlice",
    "IOStats",
    "LRUBlockCache",
    "Machine",
    "MemoryLease",
    "ObliviousVM",
    "external_merge_sort",
    "transfer",
]
