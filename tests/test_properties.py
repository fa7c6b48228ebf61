"""Hypothesis property tests on the core invariants.

The central contract of the paper's problem definition is *exactly-once
emission*: for every triangle of the input graph, each algorithm calls
``emit`` exactly once (no misses, no duplicates), whatever the graph and
whatever the machine parameters.  These properties drive random graphs and
random machine shapes through every algorithm and compare against the
in-memory oracle, with the :class:`DedupCheckingSink` enforcing uniqueness.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.emit import DedupCheckingSink
from repro.experiments.runner import run_on_edges
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.graph import Graph
from repro.graph.validation import normalize_edges


@st.composite
def random_graphs(draw, max_vertices: int = 24, max_edges: int = 80):
    """A random simple graph given as a canonical ranked edge list."""
    num_vertices = draw(st.integers(min_value=3, max_value=max_vertices))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=num_vertices - 1),
        st.integers(min_value=0, max_value=num_vertices - 1),
    ).filter(lambda edge: edge[0] != edge[1])
    raw_edges = draw(st.lists(pairs, max_size=max_edges))
    graph = Graph(edges=normalize_edges(raw_edges), vertices=range(num_vertices))
    return graph.degree_order().edges


@st.composite
def machine_params(draw):
    """A small random machine shape (always at least two blocks of memory)."""
    block = draw(st.sampled_from([4, 8, 16]))
    blocks_in_memory = draw(st.integers(min_value=2, max_value=16))
    return MachineParams(memory_words=block * blocks_in_memory, block_words=block)


EXTERNAL_ALGORITHMS = ["cache_aware", "deterministic", "hu_tao_chung", "dementiev", "bnlj"]


@pytest.mark.parametrize("algorithm", EXTERNAL_ALGORITHMS)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=random_graphs(), params=machine_params(), data=st.data())
def test_property_exactly_once_and_complete(algorithm, edges, params, data):
    """Every external-memory algorithm emits exactly the oracle's triangle set."""
    expected = set(triangles_in_memory(edges))
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    # Each algorithm's entry point is called directly, past the registry, on
    # purpose: the property pins the functions themselves.
    # repro-lint: ignore[RPR101] -- per-algorithm test options
    options = {"max_family_size": 16} if algorithm == "deterministic" else {}
    stats = IOStats()
    machine = Machine(params, stats)
    edge_file = machine.file_from_records(edges)
    sink = DedupCheckingSink()

    if algorithm == "cache_aware":  # repro-lint: ignore[RPR101] -- direct entry-point call
        from repro.core.cache_aware import cache_aware_randomized

        cache_aware_randomized(machine, edge_file, sink, seed=seed)
    elif algorithm == "deterministic":  # repro-lint: ignore[RPR101] -- direct entry-point call
        from repro.core.derandomized import deterministic_cache_aware

        deterministic_cache_aware(machine, edge_file, sink, **options)
    elif algorithm == "hu_tao_chung":  # repro-lint: ignore[RPR101] -- direct entry-point call
        from repro.core.baselines.hu_tao_chung import hu_tao_chung

        hu_tao_chung(machine, edge_file, sink)
    elif algorithm == "dementiev":  # repro-lint: ignore[RPR101] -- direct entry-point call
        from repro.core.baselines.dementiev import dementiev_sort_based

        dementiev_sort_based(machine, edge_file, sink)
    else:
        from repro.core.baselines.bnlj import block_nested_loop_join

        block_nested_loop_join(machine, edge_file, sink)

    assert sink.as_set() == expected


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=random_graphs(max_vertices=18, max_edges=50), params=machine_params(), seed=st.integers(0, 1000))
def test_property_cache_oblivious_exactly_once_and_complete(edges, params, seed):
    """The cache-oblivious algorithm satisfies the same contract on any machine shape."""
    from repro.core.cache_oblivious import cache_oblivious_randomized
    from repro.extmem.oblivious import ObliviousVM
    from repro.graph.io import edges_to_vector

    expected = set(triangles_in_memory(edges))
    vm = ObliviousVM(params, IOStats())
    vector = edges_to_vector(vm, edges)
    sink = DedupCheckingSink()
    cache_oblivious_randomized(vm, vector, sink, seed=seed)
    assert sink.as_set() == expected


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=random_graphs(), seed=st.integers(0, 10**6))
def test_property_seed_does_not_change_the_answer(edges, seed):
    """Randomness may change I/O counts but never the emitted triangle set."""
    params = MachineParams(64, 8)
    baseline = run_on_edges(edges, "cache_aware", params, seed=0)
    other = run_on_edges(edges, "cache_aware", params, seed=seed)
    assert baseline.triangle_count == other.triangle_count


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=random_graphs(), params=machine_params())
def test_property_io_counts_are_deterministic_given_seed(edges, params):
    """Re-running the same algorithm with the same seed reproduces the I/O trace."""
    first = run_on_edges(edges, "cache_aware", params, seed=7)
    second = run_on_edges(edges, "cache_aware", params, seed=7)
    assert (first.reads, first.writes, first.operations) == (
        second.reads,
        second.writes,
        second.operations,
    )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=random_graphs(max_vertices=20, max_edges=60))
def test_property_triangle_count_invariant_under_relabelling(edges):
    """Shuffling vertex labels must not change the number of triangles found."""
    params = MachineParams(64, 8)
    base = run_on_edges(edges, "cache_aware", params, seed=3)
    offset = 1000
    relabelled = normalize_edges([(u + offset, v + offset) for u, v in edges])
    relabelled_graph = Graph(edges=relabelled)
    relabelled_canonical = relabelled_graph.degree_order().edges
    shifted = run_on_edges(relabelled_canonical, "cache_aware", params, seed=3)
    assert base.triangle_count == shifted.triangle_count
