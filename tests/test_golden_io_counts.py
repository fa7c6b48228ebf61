"""Golden counter regression tests: the one table of pinned simulated counters.

The simulated (M, B) machine is the measuring instrument of this
reproduction: every theorem is checked against its ``reads``/``writes``
(and the work bound against ``operations``).  Performance work on the
substrate -- batching the data path, rewriting the merge, bulk colour
lookups -- must therefore never move the counters.  ``GOLDEN`` pins the
*exact* counters of fixed seeded runs, and every entry has a test below
that fails when any one of its counters moves; the serial and sharded
tests also compare the emitted triangle sets with the in-memory oracle.

The table holds four kinds of entry:

* ``"<graph>/<algorithm>"``: a serial run at ``PARAMS``/``SEED`` on one of
  three small graphs, as (reads, writes, operations, triangles);
* ``"<graph>/cache_oblivious lru"``: the LRU cache's own (hits, misses) in
  that graph's cache-oblivious run, recorded with one cache call per
  element access: the VM charges its accesses run by run, and these
  counters show that the cache saw the same stream;
* ``"gnm/<algorithm> sharded"``: a colour-sharded run (``shards=2,
  jobs=2``) of a shardable algorithm, with the serial counters;
* larger single runs named after what they exercise (``substrate_sort_2k``,
  ``cache_aware_e4k``, ...), each with its own counter function in
  ``SCALED``.

The serial entries were recorded after the block-granular refactor, which
also made the ``high_degree_phase`` copy branch charge one operation per
copied edge (previously scanned for free); ``reads``/``writes`` are
unchanged from the record-at-a-time implementation.  Five serial entries
(gnm/cache_oblivious, gnm/bnlj, skewed/deterministic,
skewed/cache_oblivious, planted/cache_oblivious) and five scaled ones (all
but ``substrate_sort_2k`` and ``fastpath_e8k``) were re-pinned when the
canonical degree order changed its tie-break from ``repr`` order to label
order: equal-degree vertices on either side of 9/10 or 99/100 swapped
ranks, and the rank-space edge order those algorithms scan, sort or colour
moved with them, while every triangle set stayed the same.

If an *intentional* model change lands (e.g. a new charging rule), rerun
the counter functions and update the table in the same commit, explaining
each delta.
"""

import random

import pytest

from repro.analysis.model import MachineParams
from repro.core.api import enumerate_triangles
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.cache_aware import cache_aware_randomized
from repro.core.cache_oblivious import cache_oblivious_randomized
from repro.core.emit import CountingSink
from repro.core.engine import TriangleEngine
from repro.extmem.machine import Machine
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm, planted_triangles
from repro.graph.io import edges_to_vector, graph_to_file

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

#: The shardable algorithms, run sharded on "gnm" with these settings.  They
#: distribute their own high-degree and colour-triple phases, so the sharded
#: counters equal the serial ones (the serial colour count on "gnm" is
#: already 2) for any job count; jobs=2 crosses the worker-pool boundary.
SHARDED = ["cache_aware", "deterministic"]
SHARDED_SHARDS = 2
SHARDED_JOBS = 2

#: The one golden table: entry -> exact counters (see the module docstring).
GOLDEN: dict[str, tuple[int, ...]] = {
    "gnm/cache_aware": (543, 233, 9378, 58),
    "gnm/deterministic": (603, 233, 112178, 58),
    "gnm/cache_oblivious": (6627, 4692, 1001035, 58),
    "gnm/hu_tao_chung": (200, 0, 4058, 58),
    "gnm/dementiev": (167, 117, 2860, 58),
    "gnm/bnlj": (2819, 0, 44074, 58),
    "skewed/cache_aware": (737, 283, 13111, 366),
    "skewed/deterministic": (768, 283, 137282, 366),
    "skewed/cache_oblivious": (9075, 6163, 984199, 366),
    "skewed/hu_tao_chung": (279, 0, 6100, 366),
    "skewed/dementiev": (254, 192, 4577, 366),
    "skewed/bnlj": (4919, 0, 84330, 366),
    "planted/cache_aware": (199, 108, 3147, 25),
    "planted/deterministic": (199, 108, 3147, 25),
    "planted/cache_oblivious": (1622, 1145, 224588, 25),
    "planted/hu_tao_chung": (65, 0, 1100, 25),
    "planted/dementiev": (134, 108, 2455, 25),
    "planted/bnlj": (409, 0, 5290, 25),
    # (hits, misses); a miss on a freshly appended block counts although it
    # charges no read.
    "gnm/cache_oblivious lru": (968100, 32935),
    "skewed/cache_oblivious lru": (954759, 29440),
    "planted/cache_oblivious lru": (217281, 7307),
    "gnm/cache_aware sharded": (543, 233, 9378, 58),
    "gnm/deterministic sharded": (603, 233, 112178, 58),
    # (reads, writes, operations, triangles); the sort emits no triangles,
    # and the in-memory fastpath has no simulated machine.
    "substrate_sort_2k": (250, 250, 4000),
    "cache_aware_e4k": (2854, 1163, 99102, 46),
    "engine_reuse_e800": (484, 234, 19398, 51),
    "shard_scaling_e4k": (11710, 2325, 195102, 46),
    "fastpath_e8k": (47,),
    "cache_oblivious_e200": (1404, 1008, 281516, 39),
    "deterministic_e1000": (2039, 583, 289276, 49),
}


def _counters(io, triangles: int) -> tuple[int, int, int, int]:
    return (io.reads, io.writes, io.operations, triangles)


def _gnm(num_edges: int):
    """The seeded G(n, m) graph of the scaled entries: n = 0.3 E, seed 7."""
    return erdos_renyi_gnm(max(64, num_edges * 3 // 10), num_edges, seed=7)


def substrate_sort_2k():
    """External merge sort of 2,000 random integers at M=512, B=16."""
    rng = random.Random(0)
    data = [rng.randrange(10**6) for _ in range(2_000)]
    machine = Machine(MachineParams(512, 16), IOStats())
    machine.sort(machine.file_from_records(data))
    return (machine.stats.reads, machine.stats.writes, machine.stats.operations)


def cache_aware_e4k():
    """The randomized cache-aware algorithm (Theorem 4) at M=2048, B=32."""
    machine = Machine(MachineParams(2048, 32), IOStats())
    edge_file, _ = graph_to_file(machine, _gnm(4_000))
    sink = CountingSink()
    cache_aware_randomized(machine, edge_file, sink, seed=0)
    return _counters(machine.stats, sink.count)


def engine_reuse_e800():
    """Three algorithms summed over one shared engine at M=2048, B=32."""
    engine = TriangleEngine(_gnm(800), params=MachineParams(2048, 32))
    runs = [engine.run(name, seed=0) for name in ("cache_aware", "hu_tao_chung", "dementiev")]
    return (
        sum(run.io.reads for run in runs),
        sum(run.io.writes for run in runs),
        sum(run.io.operations for run in runs),
        runs[0].triangle_count,
    )


def shard_scaling_e4k():
    """Colour-sharded ``cache_aware`` (2 shards, 2 jobs) at M=512, B=16."""
    with TriangleEngine(_gnm(4_000), params=MachineParams(512, 16)) as engine:
        run = engine.run("cache_aware", seed=0, shards=2, jobs=2)
    return _counters(run.io, run.triangle_count)


def fastpath_e8k():
    """The vectorized count and enumeration and the in-memory oracle agree."""
    edges = _gnm(8_000).degree_order().edges
    engine = TriangleEngine.from_canonical_edges(edges, validate=False)
    counts = {engine.count(name) for name in ("vector_count", "vector_enum", "in_memory")}
    return tuple(sorted(counts))  # one count when every leg agrees


def _simulated(algorithm: str, num_edges: int):
    run = TriangleEngine(_gnm(num_edges), params=PARAMS).run(algorithm, seed=0)
    return _counters(run.io, run.triangle_count)


#: Scaled entry -> the function that recomputes its counters.
SCALED = {
    "substrate_sort_2k": substrate_sort_2k,
    "cache_aware_e4k": cache_aware_e4k,
    "engine_reuse_e800": engine_reuse_e800,
    "shard_scaling_e4k": shard_scaling_e4k,
    "fastpath_e8k": fastpath_e8k,
    "cache_oblivious_e200": lambda: _simulated("cache_oblivious", 200),
    "deterministic_e1000": lambda: _simulated("deterministic", 1_000),
}


def _graphs():
    return {
        "gnm": erdos_renyi_gnm(120, 400, seed=11),
        "skewed": barabasi_albert(100, 5, seed=3),
        "planted": planted_triangles(25, filler_bipartite_edges=120, seed=9),
    }


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


@pytest.fixture(scope="module")
def gnm_engine(graphs):
    """One shared engine over the "gnm" graph for every sharded golden run."""
    with TriangleEngine(graphs["gnm"], params=PARAMS) as engine:
        yield engine


def test_every_golden_entry_has_a_test():
    """No pinned counter sits in the table unchecked."""
    checked = {f"{graph}/{algorithm}" for graph in _graphs() for algorithm in ALGORITHMS}
    checked |= {f"{graph}/cache_oblivious lru" for graph in _graphs()}
    checked |= {f"gnm/{algorithm} sharded" for algorithm in SHARDED}
    checked |= set(SCALED)
    assert checked == set(GOLDEN)


@pytest.mark.parametrize("algorithm", SHARDED)
def test_golden_sharded_io_counts(gnm_engine, oracle_triangles, algorithm):
    """Shard-merge regressions are pinned exactly like serial I/O counts."""
    result = gnm_engine.run(
        algorithm,
        seed=SEED,
        collect=True,
        shards=SHARDED_SHARDS,
        jobs=SHARDED_JOBS,
    )
    expected = GOLDEN[f"gnm/{algorithm} sharded"]
    actual = _counters(result.io, result.triangle_count)
    assert actual == expected, (
        f"sharded {algorithm} (shards={SHARDED_SHARDS}, jobs={SHARDED_JOBS}): counters "
        f"moved from {expected} to {actual}; the shard decomposition or merge changed"
    )
    emitted = {tuple(sorted(t)) for t in result.triangles}
    assert emitted == oracle_triangles["gnm"]


def test_sharded_cache_aware_matches_serial_golden():
    """Triples-mode sharding must keep the *serial* counters bit for bit."""
    assert GOLDEN["gnm/cache_aware sharded"] == GOLDEN["gnm/cache_aware"]


@pytest.mark.parametrize("graph_name", ["gnm", "planted", "skewed"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_io_counts(graphs, oracle_triangles, graph_name, algorithm):
    result = enumerate_triangles(
        graphs[graph_name], algorithm=algorithm, params=PARAMS, seed=SEED
    )
    expected = GOLDEN[f"{graph_name}/{algorithm}"]
    actual = _counters(result.io, result.triangle_count)
    assert actual == expected, (
        f"{algorithm} on {graph_name}: counters moved from {expected} to {actual}; "
        "the refactor changed the simulated I/O model, not just its speed"
    )
    # The emitted triangles must be exactly the oracle's, each exactly once.
    assert result.triangles is not None
    assert len(result.triangles) == result.triangle_count
    emitted = {tuple(sorted(t)) for t in result.triangles}
    assert emitted == oracle_triangles[graph_name]


@pytest.mark.parametrize("graph_name", ["gnm", "planted", "skewed"])
def test_golden_cache_oblivious_hits_and_misses(graphs, graph_name):
    """Run-wise charging hands the LRU the same stream as per-access charging."""
    vm = ObliviousVM(PARAMS, IOStats())
    sink = CountingSink()
    edges = edges_to_vector(vm, graphs[graph_name].degree_order().edges)
    cache_oblivious_randomized(vm, edges, sink, seed=SEED)
    assert _counters(vm.stats, sink.count) == GOLDEN[f"{graph_name}/cache_oblivious"]
    assert (vm.cache.hits, vm.cache.misses) == GOLDEN[f"{graph_name}/cache_oblivious lru"]
    assert vm.cache.hits + vm.cache.misses == vm.stats.operations


@pytest.mark.parametrize("entry", sorted(SCALED))
def test_golden_scaled_counts(entry):
    actual = SCALED[entry]()
    assert actual == GOLDEN[entry], f"{entry}: counters moved from {GOLDEN[entry]} to {actual}"
