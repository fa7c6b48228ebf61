"""Cross-module integration tests: the paper's claims at test scale.

These tests run the whole stack (generators -> canonical form -> simulated
machine -> algorithm -> analysis bounds) and assert the *shape* claims the
experiments measure at larger scale, with generous constants so the suite
stays robust and fast.
"""

import math

from repro.analysis.bounds import (
    cache_aware_io,
    hu_tao_chung_io,
    lower_bound_io,
    sort_io,
)
from repro.analysis.model import MachineParams
from repro.analysis.verification import fit_power_law
from repro.core.emit import DedupCheckingSink
from repro.experiments.runner import run_on_edges
from repro.experiments.workloads import clique_workload, sparse_random
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import erdos_renyi_gnm


class TestEndToEndScaling:
    def test_cache_aware_beats_hu_tao_chung_when_e_much_larger_than_m(self):
        """The paper's headline: a sqrt(E/M) improvement once E >> M."""
        params = MachineParams(memory_words=64, block_words=8)
        workload = sparse_random(4096)
        ours = run_on_edges(workload.edges, "cache_aware", params, seed=0)
        baseline = run_on_edges(workload.edges, "hu_tao_chung", params, seed=0)
        assert ours.total_ios < baseline.total_ios
        assert ours.triangle_count == baseline.triangle_count

    def test_hu_tao_chung_wins_when_edges_nearly_fit_in_memory(self):
        """The crossover the paper acknowledges: for E close to M the simpler
        algorithm's constants win (a pipelined nested loop join 'does a good
        job when the edge set almost fits in memory')."""
        params = MachineParams(memory_words=512, block_words=16)
        workload = sparse_random(600)
        ours = run_on_edges(workload.edges, "cache_aware", params, seed=0)
        baseline = run_on_edges(workload.edges, "hu_tao_chung", params, seed=0)
        assert baseline.total_ios < ours.total_ios

    def test_measured_growth_exponent_close_to_three_halves(self):
        params = MachineParams(memory_words=128, block_words=8)
        sizes = [512, 1024, 2048, 4096]
        ios = []
        for size in sizes:
            workload = sparse_random(size)
            ios.append(run_on_edges(workload.edges, "cache_aware", params, seed=1).total_ios)
        fit = fit_power_law(sizes, ios)
        assert 1.25 <= fit.exponent <= 1.85

    def test_measured_io_between_lower_bound_and_upper_bound_constant(self):
        """On a clique the measured I/Os sit between the Theorem 3 lower bound
        and a generous constant times the Theorem 4 upper-bound formula."""
        params = MachineParams(memory_words=128, block_words=16)
        workload = clique_workload(32)
        result = run_on_edges(workload.edges, "cache_aware", params, seed=2)
        triangles = math.comb(32, 3)
        lower = lower_bound_io(triangles, params)
        upper = cache_aware_io(workload.num_edges, params)
        assert result.total_ios >= lower
        assert result.total_ios <= 60 * upper

    def test_all_external_algorithms_never_beat_the_lower_bound(self):
        params = MachineParams(memory_words=64, block_words=8)
        workload = clique_workload(20)
        triangles = math.comb(20, 3)
        lower = lower_bound_io(triangles, params)
        for algorithm in ("cache_aware", "deterministic", "hu_tao_chung", "dementiev", "bnlj"):
            result = run_on_edges(workload.edges, algorithm, params, seed=0)
            assert result.triangle_count == triangles
            assert result.total_ios >= lower

    def test_predicted_ordering_matches_measured_ordering_at_scale(self):
        """At E/M = 64 the predicted ranking ours < htc < bnlj is also the
        measured ranking."""
        params = MachineParams(memory_words=64, block_words=8)
        workload = sparse_random(4096)
        measured = {}
        for algorithm in ("cache_aware", "hu_tao_chung"):
            measured[algorithm] = run_on_edges(workload.edges, algorithm, params, seed=3).total_ios
        assert cache_aware_io(4096, params) < hu_tao_chung_io(4096, params)
        assert measured["cache_aware"] < measured["hu_tao_chung"]


class TestResourceContracts:
    def test_disk_usage_linear_for_all_algorithms(self):
        params = MachineParams(memory_words=64, block_words=8)
        workload = sparse_random(1500)
        for algorithm in ("cache_aware", "deterministic", "hu_tao_chung", "dementiev"):
            result = run_on_edges(workload.edges, algorithm, params, seed=0)
            limit = 12 * workload.num_edges
            if algorithm == "dementiev":  # repro-lint: ignore[RPR101] -- its own disk bound
                # Its wedge file is Theta(E^{3/2}) by design -- that is exactly
                # the weakness the paper points out.
                limit = 12 * int(workload.num_edges**1.5)
            assert result.disk_peak_words <= limit

    def test_memory_lease_discipline_is_enforced(self):
        """Algorithms must run within M: a run on a tiny machine still succeeds
        (batch sizes shrink) rather than silently over-subscribing memory."""
        params = MachineParams(memory_words=16, block_words=8)
        workload = sparse_random(400)
        result = run_on_edges(workload.edges, "hu_tao_chung", params, seed=0)
        oracle = run_on_edges(workload.edges, "cache_aware", MachineParams(512, 16), seed=0)
        assert result.triangle_count == oracle.triangle_count

    def test_lemma1_cost_tracks_sort_cost_as_e_grows(self):
        """Lemma 1 is O(sort(E)): the measured/sort(E) ratio stays in a band."""
        from repro.core.lemma1 import triangles_through_vertex

        params = MachineParams(memory_words=128, block_words=16)
        ratios = []
        for num_edges in (1000, 2000, 4000):
            graph = erdos_renyi_gnm(num_edges // 3, num_edges, seed=1)
            edges = graph.degree_order().edges
            machine = Machine(params, IOStats())
            edge_file = machine.file_from_records(edges)
            triangles_through_vertex(machine, [edge_file], num_edges // 6, DedupCheckingSink())
            ratios.append(machine.stats.total / sort_io(num_edges, params))
        assert max(ratios) / min(ratios) < 2.5

    def test_operations_grow_subquadratically(self):
        params = MachineParams(memory_words=128, block_words=8)
        small = run_on_edges(sparse_random(1024).edges, "cache_aware", params, seed=0)
        large = run_on_edges(sparse_random(4096).edges, "cache_aware", params, seed=0)
        growth = large.operations / small.operations
        assert growth < 16  # quadratic would give ~16; expect ~8 (E^1.5)
        assert growth < 10
