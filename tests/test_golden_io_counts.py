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

If an *intentional* model change lands (e.g. a new charging rule), rerun
the algorithms and update the table in the same commit, explaining why.
"""

import pytest

from repro.analysis.model import MachineParams
from repro.core.api import enumerate_triangles
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.engine import TriangleEngine
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm, planted_triangles

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
    ("gnm", "cache_oblivious"): (6719, 4786, 1020124),
    ("gnm", "hu_tao_chung"): (200, 0, 4058),
    ("gnm", "dementiev"): (167, 117, 2860),
    ("gnm", "bnlj"): (2819, 0, 44096),
    ("skewed", "cache_aware"): (737, 283, 13111),
    ("skewed", "deterministic"): (717, 283, 136665),
    ("skewed", "cache_oblivious"): (8835, 6037, 960384),
    ("skewed", "hu_tao_chung"): (279, 0, 6100),
    ("skewed", "dementiev"): (254, 192, 4577),
    ("skewed", "bnlj"): (4919, 0, 84330),
    ("planted", "cache_aware"): (199, 108, 3147),
    ("planted", "deterministic"): (199, 108, 3147),
    ("planted", "cache_oblivious"): (1468, 1028, 225659),
    ("planted", "hu_tao_chung"): (65, 0, 1100),
    ("planted", "dementiev"): (134, 108, 2455),
    ("planted", "bnlj"): (409, 0, 5290),
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
