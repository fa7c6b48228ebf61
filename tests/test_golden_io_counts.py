"""Golden I/O-count regression tests for the block-granular data path.

The simulated (M, B) machine is the measuring instrument of this
reproduction: every theorem is checked against its ``reads``/``writes``
(and the work bound against ``operations``).  Performance work on the
substrate -- batching the data path, rewriting the merge, bulk colour
lookups -- must therefore never move the counters.  These tests pin the
*exact* counter triples for every external-memory algorithm on fixed seeded
graphs, together with the emitted triangle sets, so any refactor that
changes the simulated cost model (rather than just the wall-clock cost of
simulating it) fails loudly.

The pinned values were recorded after the block-granular refactor, which
also made the ``high_degree_phase`` copy branch charge one operation per
copied edge (previously scanned for free); `reads`/`writes` are unchanged
from the record-at-a-time implementation.

Five entries were re-pinned when the canonical degree order changed its
tie-break from ``repr`` order to label order (integer labels by value, so
vertex 9 now ranks before vertex 10 at equal degree): gnm/cache_oblivious,
gnm/bnlj, skewed/deterministic, skewed/cache_oblivious and
planted/cache_oblivious.  The generators label vertices 0..n-1, so
equal-degree vertices on either side of 9/10 or 99/100 swapped ranks; the
rank-space edge order those algorithms scan, sort or colour moved with
them, while every triangle set stayed the same.

If an *intentional* model change lands (e.g. a new charging rule), rerun
the algorithms and update the table in the same commit, explaining why.

The cache-oblivious entries also pin the LRU cache's own ``hits`` and
``misses`` (``GOLDEN_CACHE_COUNTS``), recorded with one cache call per
element access: the VM now charges its accesses run by run, and these
counters show that the cache saw the same stream.
"""

import pytest

from repro.analysis.model import MachineParams
from repro.core.api import enumerate_triangles
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.cache_oblivious import cache_oblivious_randomized
from repro.core.emit import CountingSink
from repro.core.engine import TriangleEngine
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm, planted_triangles
from repro.graph.io import edges_to_vector

PARAMS = MachineParams(256, 16)
SEED = 4

ALGORITHMS = [
    "cache_aware",
    "deterministic",
    "cache_oblivious",
    "hu_tao_chung",
    "dementiev",
    "bnlj",
]


def _graphs():
    return {
        "gnm": erdos_renyi_gnm(120, 400, seed=11),
        "skewed": barabasi_albert(100, 5, seed=3),
        "planted": planted_triangles(25, filler_bipartite_edges=120, seed=9),
    }


#: (graph, algorithm) -> exact (reads, writes, operations).
GOLDEN_COUNTS: dict[tuple[str, str], tuple[int, int, int]] = {
    ("gnm", "cache_aware"): (543, 233, 9378),
    ("gnm", "deterministic"): (603, 233, 112178),
    ("gnm", "cache_oblivious"): (6627, 4692, 1001035),
    ("gnm", "hu_tao_chung"): (200, 0, 4058),
    ("gnm", "dementiev"): (167, 117, 2860),
    ("gnm", "bnlj"): (2819, 0, 44074),
    ("skewed", "cache_aware"): (737, 283, 13111),
    ("skewed", "deterministic"): (768, 283, 137282),
    ("skewed", "cache_oblivious"): (9075, 6163, 984199),
    ("skewed", "hu_tao_chung"): (279, 0, 6100),
    ("skewed", "dementiev"): (254, 192, 4577),
    ("skewed", "bnlj"): (4919, 0, 84330),
    ("planted", "cache_aware"): (199, 108, 3147),
    ("planted", "deterministic"): (199, 108, 3147),
    ("planted", "cache_oblivious"): (1622, 1145, 224588),
    ("planted", "hu_tao_chung"): (65, 0, 1100),
    ("planted", "dementiev"): (134, 108, 2455),
    ("planted", "bnlj"): (409, 0, 5290),
}

#: graph -> exact LRU (hits, misses) of the cache-oblivious golden run; a
#: miss on a freshly appended block counts although it charges no read.
GOLDEN_CACHE_COUNTS = {
    "gnm": (968100, 32935),
    "skewed": (954759, 29440),
    "planted": (217281, 7307),
}

#: graph -> expected triangle count (sanity anchor for the set comparison).
GOLDEN_TRIANGLES = {"gnm": 58, "skewed": 366, "planted": 25}


@pytest.fixture(scope="module")
def graphs():
    return _graphs()


@pytest.fixture(scope="module")
def oracle_triangles(graphs):
    oracles = {}
    for name, graph in graphs.items():
        order = graph.degree_order()
        ranked = {tuple(sorted(t)) for t in triangles_in_memory(order.edges)}
        oracles[name] = {tuple(sorted(order.to_labels(t))) for t in ranked}
    return oracles


#: algorithm -> exact (reads, writes, operations) of a sharded run on the
#: "gnm" graph with ``shards=2, jobs=2`` (identical for any job count by
#: construction; the test runs jobs=2 to cross the worker-pool boundary).
#: The shardable algorithms, ``cache_aware`` and ``deterministic``,
#: distribute their own high-degree and colour-triple phases, so their
#: sharded counters equal the serial golden triples above (the serial
#: colour count on "gnm" is already 2).
SHARDED_SHARDS = 2
SHARDED_JOBS = 2
GOLDEN_SHARDED_COUNTS: dict[str, tuple[int, int, int]] = {
    "cache_aware": (543, 233, 9378),
    "deterministic": (603, 233, 112178),
}


@pytest.fixture(scope="module")
def gnm_engine(graphs):
    """One shared engine over the "gnm" graph for every sharded golden run."""
    return TriangleEngine(graphs["gnm"], params=PARAMS)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_SHARDED_COUNTS))
def test_golden_sharded_io_counts(gnm_engine, oracle_triangles, algorithm):
    """Shard-merge regressions are pinned exactly like serial I/O counts."""
    result = gnm_engine.run(
        algorithm,
        seed=SEED,
        collect=True,
        shards=SHARDED_SHARDS,
        jobs=SHARDED_JOBS,
    )
    expected = GOLDEN_SHARDED_COUNTS[algorithm]
    actual = (result.io.reads, result.io.writes, result.io.operations)
    assert actual == expected, (
        f"sharded {algorithm} (shards={SHARDED_SHARDS}, jobs={SHARDED_JOBS}): counters "
        f"moved from {expected} to {actual}; the shard decomposition or merge changed"
    )
    assert result.triangle_count == GOLDEN_TRIANGLES["gnm"]
    emitted = {tuple(sorted(t)) for t in result.triangles}
    assert emitted == oracle_triangles["gnm"]


def test_sharded_cache_aware_matches_serial_golden():
    """Triples-mode sharding must keep the *serial* counters bit for bit."""
    assert GOLDEN_SHARDED_COUNTS["cache_aware"] == GOLDEN_COUNTS[("gnm", "cache_aware")]


@pytest.mark.parametrize("graph_name", sorted({g for g, _ in GOLDEN_COUNTS}))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_io_counts(graphs, oracle_triangles, graph_name, algorithm):
    result = enumerate_triangles(
        graphs[graph_name], algorithm=algorithm, params=PARAMS, seed=SEED
    )
    expected = GOLDEN_COUNTS[(graph_name, algorithm)]
    actual = (result.io.reads, result.io.writes, result.io.operations)
    assert actual == expected, (
        f"{algorithm} on {graph_name}: counters moved from {expected} to {actual}; "
        "the refactor changed the simulated I/O model, not just its speed"
    )
    # The emitted triangles must be exactly the oracle's, each exactly once.
    assert result.triangle_count == GOLDEN_TRIANGLES[graph_name]
    assert result.triangles is not None
    assert len(result.triangles) == result.triangle_count
    emitted = {tuple(sorted(t)) for t in result.triangles}
    assert emitted == oracle_triangles[graph_name]


@pytest.mark.parametrize("graph_name", sorted(GOLDEN_CACHE_COUNTS))
def test_golden_cache_oblivious_hits_and_misses(graphs, graph_name):
    """Run-wise charging hands the LRU the same stream as per-access charging."""
    vm = ObliviousVM(PARAMS, IOStats())
    sink = CountingSink()
    edges = edges_to_vector(vm, graphs[graph_name].degree_order().edges)
    cache_oblivious_randomized(vm, edges, sink, seed=SEED)
    counters = (vm.stats.reads, vm.stats.writes, vm.stats.operations)
    assert counters == GOLDEN_COUNTS[(graph_name, "cache_oblivious")]
    assert (vm.cache.hits, vm.cache.misses) == GOLDEN_CACHE_COUNTS[graph_name]
    assert vm.cache.hits + vm.cache.misses == vm.stats.operations
    assert sink.count == GOLDEN_TRIANGLES[graph_name]
