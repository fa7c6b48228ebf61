"""The suffix-probe kernels against the N+(v) expansion kernel they replaced.

The production kernels (:mod:`repro.fastpath.kernels`) find a triangle
``a < b < c`` from its lowest edge ``(a, b)`` by walking the rest of
``a``'s row (``c > b``) and probing ``(b, c)``.  The oracle below is the
earlier kernel, kept verbatim in spirit: it walks every ``c`` in ``N+(b)``
and probes ``(a, c)``.  Both must count the same triangles and, window for
window, yield the same ``(k, 3)`` arrays in the same order -- over the
in-memory CSR and over the spill-backed store, at any window size, with
int32 and int64 probe keys.  The suffix kernel must also make exactly
``sum over u of C(d+(u), 2)`` probes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.baselines.in_memory import triangle_set
from repro.core.engine import TriangleEngine
from repro.exceptions import OptionsError
from repro.fastpath.arrays import canonicalize_edge_array
from repro.fastpath.csr import CSRAdjacency
from repro.fastpath.kernels import (
    DEFAULT_CHUNK_SIZE,
    KernelTally,
    count_triangles_csr,
    iter_triangle_chunks_csr,
)
from repro.fastpath.oocore import build_store, count_triangles_store, iter_triangle_chunks_store

np = pytest.importorskip("numpy")

#: Vertex-label offset that pushes ``n`` past 46340, where probe keys
#: switch from int32 to int64.
WIDE_OFFSET = 46_340


# ----------------------------------------------------------------------
# the oracle: the N+(v) expansion kernel
# ----------------------------------------------------------------------
def _oracle_windows(csr, chunk_size):
    """Per window: ``(hits, u, v, w)`` of every probe ``(u, w)``, ``w`` in ``N+(v)``."""
    n = csr.num_vertices
    edge_keys = np.asarray(csr.edge_keys).astype(np.int64)
    padded = np.concatenate([edge_keys, np.array([-1], dtype=np.int64)])
    indptr = np.asarray(csr.indptr)
    indices = np.asarray(csr.indices).astype(np.int64)
    sources = np.asarray(csr.sources).astype(np.int64)
    for lo in range(0, csr.num_edges, chunk_size):
        hi = min(lo + chunk_size, csr.num_edges)
        u, v = sources[lo:hi], indices[lo:hi]
        starts = indptr[v]
        counts = indptr[v + 1] - starts
        total = int(counts.sum())
        take = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)
        w = indices[take]
        keys = np.repeat(u * n, counts) + w
        hits = padded[np.searchsorted(edge_keys, keys)] == keys
        yield hits, np.repeat(u, counts), np.repeat(v, counts), w


def oracle_count(csr, chunk_size):
    return sum(int(hits.sum()) for hits, *_ in _oracle_windows(csr, chunk_size))


def oracle_chunks(csr, chunk_size):
    return [
        np.stack([u[hits], v[hits], w[hits]], axis=1)
        for hits, u, v, w in _oracle_windows(csr, chunk_size)
        if hits.any()
    ]


def suffix_probes(csr):
    """``sum over u of C(d+(u), 2)``: the pairs of forward neighbours."""
    degrees = np.diff(np.asarray(csr.indptr))
    return int((degrees * (degrees - 1) // 2).sum())


def assert_same_chunks(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
@st.composite
def canonical_graphs(draw):
    """A canonical edge array: ``u < v`` per row, sorted, no duplicates.

    Low labels can be hubs.  ``ranked`` graphs are degree-ranked (hubs get
    short forward rows); unranked ones keep the labels, so a hub's forward
    row is long and straddles window boundaries.  ``wide`` graphs shift
    every label past 46340 so the probe keys are int64.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    label = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(label, label), max_size=160))
    for hub in range(draw(st.integers(min_value=0, max_value=3))):
        spokes = draw(st.lists(label, max_size=n))
        pairs.extend((hub, spoke) for spoke in spokes)
    raw = np.array([p for p in pairs if p[0] != p[1]], dtype=np.int64).reshape(-1, 2)
    if draw(st.booleans()):
        edges = canonicalize_edge_array(raw).edges.astype(np.int64)
    else:
        edges = np.unique(np.sort(raw, axis=1), axis=0)
    if draw(st.booleans()):
        edges = edges + WIDE_OFFSET
    return edges


def hub_graph():
    """Vertex 0 adjacent to all of 1..29, plus a path and a few chords."""
    pairs = [(0, x) for x in range(1, 30)] + [(x, x + 1) for x in range(1, 29)]
    pairs += [(1, 5), (2, 9), (3, 17), (5, 9), (9, 17), (4, 28)]
    return np.unique(np.array(pairs, dtype=np.int64), axis=0)


PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(edges=canonical_graphs(), chunk_size=st.sampled_from((1, 7, 64, DEFAULT_CHUNK_SIZE)))
@example(edges=np.empty((0, 2), dtype=np.int64), chunk_size=7)
@example(edges=hub_graph(), chunk_size=7)
@example(edges=hub_graph() + WIDE_OFFSET, chunk_size=64)
def test_csr_kernels_match_the_oracle(edges, chunk_size):
    """Count, probe total and window-by-window enumeration equal the oracle."""
    csr = CSRAdjacency.from_canonical_edges(edges)
    tally = KernelTally()
    count = count_triangles_csr(csr, chunk_size, tally=tally)
    assert count == oracle_count(csr, chunk_size)
    assert count == len(triangle_set([tuple(e) for e in edges.tolist()]))
    assert tally.probes == suffix_probes(csr)
    assert tally.windows == -(-csr.num_edges // chunk_size)
    assert_same_chunks(
        list(iter_triangle_chunks_csr(csr, chunk_size)), oracle_chunks(csr, chunk_size)
    )


@PROPERTY_SETTINGS
@given(edges=canonical_graphs(), chunk_rows=st.sampled_from((1, 3, 64)))
@example(edges=np.empty((0, 2), dtype=np.int64), chunk_rows=3)
@example(edges=hub_graph(), chunk_rows=3)
def test_store_kernels_match_the_oracle(edges, chunk_rows):
    """The spill-backed store runs the same kernel: same count, same chunks."""
    with build_store(edges, chunk_rows=chunk_rows) as store:
        tally = KernelTally()
        assert count_triangles_store(store, tally=tally) == oracle_count(store, chunk_rows)
        assert tally.probes == suffix_probes(store)
        assert_same_chunks(
            list(iter_triangle_chunks_store(store)), oracle_chunks(store, chunk_rows)
        )


def test_store_with_int64_keys_matches_the_oracle(tmp_path):
    """Past 46340 vertices the store's probe keys are int64; still the oracle's."""
    rng = np.random.default_rng(5)
    matching = np.arange(2 * 23_500, dtype=np.int64).reshape(-1, 2)
    dense = rng.integers(0, 400, size=(6_000, 2))
    raw = np.concatenate([matching + 400, dense[dense[:, 0] != dense[:, 1]]])
    with build_store(raw, spill_dir=str(tmp_path), chunk_rows=4_096) as store:
        assert store.num_vertices > WIDE_OFFSET
        assert store.edge_keys.dtype == np.int64
        count = count_triangles_store(store)
        assert count > 0 and count == oracle_count(store, 4_096)
        assert_same_chunks(list(iter_triangle_chunks_store(store)), oracle_chunks(store, 4_096))


# ----------------------------------------------------------------------
# the probe count in the run reports
# ----------------------------------------------------------------------
#: K5 on labels 0..4 plus the path 4-5-6-7.  Ranked by (degree, label),
#: the forward degrees are 1, 2, 0, 4, 3, 2, 1, 0: C(2,2) from the path
#: vertex 5 (forward neighbours 6 and 4) and 6 + 3 + 1 from the clique, so
#: 11 probes for the clique's 10 triangles.
K5_WITH_TAIL = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(4, 5), (5, 6), (6, 7)]


@pytest.mark.parametrize(
    "algorithm", ["vector_count", "vector_enum", "oocore_count", "oocore_enum"]
)
def test_reports_count_the_suffix_probes(algorithm):
    engine = TriangleEngine.from_edge_array(np.array(K5_WITH_TAIL, dtype=np.int64))
    options = {"chunk_size": 3} if algorithm.startswith("vector") else {"chunk_rows": 3}
    try:
        assert suffix_probes(CSRAdjacency.from_canonical_edges(engine.edges)) == 11
        for collect in (False, True):
            result = engine.run(algorithm, collect=collect, options=options)
            assert result.triangle_count == 10
            assert result.report.probes == 11
    finally:
        engine.close()


@pytest.mark.parametrize("kernel", ["count", "iterate"])
@pytest.mark.parametrize("backend", ["csr", "store"])
@pytest.mark.parametrize("chunk_size", [-3, 0, True])
def test_kernels_reject_bad_window_sizes(chunk_size, backend, kernel, tmp_path):
    # A window size below 1 used to count 0 triangles (or leak range()'s
    # ValueError); every kernel entry now refuses it like the options do.
    triangle = np.array([(0, 1), (0, 2), (1, 2)], dtype=np.int64)
    if backend == "csr":
        graph = CSRAdjacency.from_canonical_edges(triangle)
        count, iterate = count_triangles_csr, iter_triangle_chunks_csr
    else:
        graph = build_store(triangle, spill_dir=str(tmp_path))
        count, iterate = count_triangles_store, iter_triangle_chunks_store
    try:
        with pytest.raises(OptionsError, match="chunk_size"):
            count(graph, chunk_size) if kernel == "count" else list(iterate(graph, chunk_size))
    finally:
        if backend == "store":
            graph.close()
