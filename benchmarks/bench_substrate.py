"""Micro-benchmarks of the external-memory substrate itself.

Not tied to a specific experiment; they keep an eye on the cost of the
simulator primitives (sorting and cache simulation) that every experiment
depends on, so substrate regressions are visible independently of the
algorithms.
"""

import random

from repro.analysis.model import MachineParams
from repro.extmem.co_sort import cache_oblivious_sort
from repro.extmem.machine import Machine
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats


def test_external_merge_sort_throughput(benchmark):
    rng = random.Random(0)
    data = [rng.randrange(10**6) for _ in range(20_000)]

    def run():
        machine = Machine(MachineParams(512, 16), IOStats())
        file = machine.file_from_records(data)
        machine.sort(file)
        return machine.stats.total

    total = benchmark(run)
    assert total > 0


def test_cache_oblivious_sort_throughput(benchmark):
    rng = random.Random(1)
    data = [rng.randrange(10**6) for _ in range(4_000)]

    def run():
        vm = ObliviousVM(MachineParams(512, 16), IOStats())
        vector = vm.input_vector(list(data))
        cache_oblivious_sort(vm, vector)
        return vm.stats.total

    total = benchmark(run)
    assert total > 0


def test_lru_cache_simulation_throughput(benchmark):
    vm = ObliviousVM(MachineParams(256, 16), IOStats())
    vector = vm.input_vector(range(50_000))

    def run():
        for index in range(0, 50_000, 7):
            vector.get(index)
        return vm.stats.reads

    reads = benchmark(run)
    assert reads > 0
