"""Unit tests of the vectorized fast path and its engine edge cases.

Covers the array subsystem (canonicalisation, CSR build, kernels, batch
colouring), the ``vector_count`` / ``vector_enum`` registrations (typed
options, counter dispatch, pure-Python fallback) and the engine edge cases
the fast path must honour: empty graphs, self-loops and duplicate edges
before canonicalisation, the single-triangle graph, and ``stream()`` over a
``vector_enum`` run.
"""

from __future__ import annotations

import pytest

from repro.core.baselines.in_memory import triangle_set, triangles_in_memory
from repro.core.emit import CollectingSink
from repro.core.engine import TriangleEngine
from repro.core.registry import get_algorithm
from repro.exceptions import FastPathUnavailableError, GraphFormatError, OptionsError
from repro.fastpath import (
    HAVE_NUMPY,
    CSRAdjacency,
    canonicalize_edge_array,
    count_triangles_fast,
    enumerate_triangles_fast,
    iter_triangle_chunks,
    pack_edges,
)
from repro.fastpath.algorithms import VectorOptions
from repro.fastpath.arrays import canonicalize_edges_python, resolve_dtype
from repro.fastpath.kernels import count_triangles_csr, iter_triangle_chunks_csr
from repro.graph.generators import clique, erdos_renyi_gnm
from repro.graph.graph import Graph
from repro.hashing.coloring import RandomColoring, colors_of

np = pytest.importorskip("numpy") if HAVE_NUMPY else None
pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")

TRIANGLE = [(0, 1), (0, 2), (1, 2)]


def ranked_edges(num_edges: int = 300, seed: int = 5) -> list[tuple[int, int]]:
    return erdos_renyi_gnm(max(12, num_edges // 3), num_edges, seed=seed).degree_order().edges


# ----------------------------------------------------------------------
# arrays: packing and canonicalisation
# ----------------------------------------------------------------------
class TestCanonicalisation:
    def test_orients_dedups_and_sorts(self):
        canonical = canonicalize_edge_array([(5, 1), (1, 5), (2, 1), (2, 5), (9, 2), (9, 5)])
        assert canonical.edge_list() == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert canonical.num_vertices == 4
        # vertex_of maps ranks back to original labels, ascending by degree
        # then label: 1 and 9 have degree 2, 2 and 5 degree 3.
        assert canonical.vertex_of.tolist() == [1, 9, 2, 5]

    def test_self_loop_raises(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            canonicalize_edge_array([(0, 1), (2, 2)])

    def test_negative_ids_raise(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            canonicalize_edge_array([(-1, 2)])

    def test_empty_input(self):
        canonical = canonicalize_edge_array([])
        assert canonical.num_edges == 0 and canonical.num_vertices == 0
        assert canonical.edge_list() == []

    def test_matches_python_mirror(self):
        raw = [(7, 3), (3, 7), (1, 3), (7, 1), (10, 1), (2, 10)]
        canonical = canonicalize_edge_array(raw)
        mirror_edges, mirror_labels = canonicalize_edges_python(raw)
        assert canonical.edge_list() == mirror_edges
        assert canonical.vertex_of.tolist() == mirror_labels

    def test_rejects_non_pair_arrays(self):
        # A SNAP-style (E, 3) array with weight columns must error, not be
        # silently reinterpreted as pairs.
        with pytest.raises(GraphFormatError, match=r"shape \(E, 2\)"):
            canonicalize_edge_array(np.array([[0, 1, 5], [1, 2, 7]]))
        with pytest.raises(GraphFormatError, match="integers"):
            canonicalize_edge_array(np.array([[0.5, 1.0]]))

    def test_label_space_triangles_match_graph_degree_order(self):
        # Rank-space output may differ from Graph (repr vs label ties), but
        # the label-space triangle sets must coincide.
        graph = erdos_renyi_gnm(40, 120, seed=2)
        raw = list(graph.edges())
        canonical = canonicalize_edge_array(raw)
        fast = {
            tuple(sorted(canonical.vertex_of[list(t)].tolist()))
            for t in enumerate_triangles_fast(canonical.edges)
        }
        order = graph.degree_order()
        oracle = {
            tuple(sorted(order.to_labels(t))) for t in triangles_in_memory(order.edges)
        }
        assert fast == oracle

    def test_pack_edges_roundtrip_and_dtype(self):
        packed = pack_edges(TRIANGLE)
        assert packed.shape == (3, 2) and packed.dtype == np.int32
        assert pack_edges(packed, dtype="int64").dtype == np.int64

    def test_pack_edges_rejects_negative_ids(self):
        # Regression: negative ids used to flow silently into num_vertices
        # (max() + 1) and corrupt CSR indexing downstream.
        with pytest.raises(GraphFormatError, match="non-negative"):
            pack_edges([(0, 1), (-2, 3)])
        with pytest.raises(GraphFormatError, match="non-negative"):
            pack_edges(np.array([[0, 1], [2, -1]]))

    def test_pack_edges_empty_path_validates_dtype(self):
        # The empty reshape goes through resolve_dtype like every other
        # input: auto stays int32 (zero vertices fit), an explicit int64 is
        # honoured, and an invalid dtype raises instead of silently
        # returning int32.
        assert pack_edges([]).dtype == np.int32
        assert pack_edges([], dtype="int32").dtype == np.int32
        assert pack_edges([], dtype="int64").dtype == np.int64
        with pytest.raises(ValueError, match="dtype"):
            pack_edges([], dtype="bogus")

    def test_resolve_dtype_policy(self):
        assert resolve_dtype("auto", 100) == np.int32
        assert resolve_dtype("auto", 2**31) == np.int64
        assert resolve_dtype("int64", 100) == np.int64
        with pytest.raises(ValueError, match="int32"):
            resolve_dtype("int32", 2**31)
        with pytest.raises(ValueError, match="dtype"):
            resolve_dtype("float32", 100)

    def test_resolve_dtype_int32_boundary_is_exact(self):
        # 2^31 - 1 vertices means the largest id is 2^31 - 2, which int32
        # still holds; one more vertex crosses into int64 (and makes an
        # explicit int32 request an error, not an overflow).
        assert resolve_dtype("auto", 2**31 - 1) == np.int32
        assert resolve_dtype("int32", 2**31 - 1) == np.int32
        assert resolve_dtype("auto", 2**31) == np.int64
        assert resolve_dtype("int64", 2**31 - 1) == np.int64
        with pytest.raises(ValueError, match="int32"):
            resolve_dtype("int32", 2**31)


# ----------------------------------------------------------------------
# CSR adjacency
# ----------------------------------------------------------------------
class TestCSR:
    def test_build_and_forward(self):
        edges = [(0, 2), (0, 3), (1, 2), (2, 3)]
        csr = CSRAdjacency.from_canonical_edges(edges)
        assert csr.num_vertices == 4 and csr.num_edges == 4
        assert csr.forward(0).tolist() == [2, 3]
        assert csr.forward(1).tolist() == [2]
        assert csr.forward(3).tolist() == []
        assert csr.out_degrees().tolist() == [2, 1, 1, 0]

    def test_empty(self):
        csr = CSRAdjacency.from_canonical_edges([])
        assert csr.num_vertices == 0 and csr.num_edges == 0
        assert count_triangles_csr(csr) == 0
        assert list(iter_triangle_chunks_csr(csr)) == []

    def test_rejects_non_canonical(self):
        with pytest.raises(GraphFormatError, match="u < v"):
            CSRAdjacency.from_canonical_edges([(2, 1)])
        with pytest.raises(GraphFormatError, match="sorted"):
            CSRAdjacency.from_canonical_edges([(1, 2), (0, 1)])
        with pytest.raises(GraphFormatError, match="sorted"):
            CSRAdjacency.from_canonical_edges([(0, 1), (0, 1)])


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
class TestKernels:
    def test_single_triangle(self):
        assert count_triangles_fast(TRIANGLE) == 1
        assert enumerate_triangles_fast(TRIANGLE) == [(0, 1, 2)]

    def test_clique_count(self):
        edges = clique(7).degree_order().edges
        assert count_triangles_fast(edges) == 35  # C(7, 3)

    def test_matches_oracle_and_chunking_is_invariant(self):
        edges = ranked_edges(400)
        oracle = triangle_set(edges)
        assert count_triangles_fast(edges) == len(oracle)
        for chunk_size in (1, 3, 64, 10_000):
            assert set(enumerate_triangles_fast(edges, chunk_size=chunk_size)) == oracle

    def test_chunks_are_bounded_and_ordered(self):
        edges = ranked_edges(400)
        chunks = list(iter_triangle_chunks(edges, chunk_size=8))
        flat = [t for chunk in chunks for t in chunk]
        assert set(flat) == triangle_set(edges)
        # deterministic discovery order: lexicographic by lowest edge then
        # closing vertex, consistent across chunk sizes
        assert flat == sorted(flat)
        assert flat == [t for c in iter_triangle_chunks(edges, chunk_size=999) for t in c]

    def test_python_fallback_parity(self):
        edges = ranked_edges(200)
        assert count_triangles_fast(edges, force_python=True) == count_triangles_fast(edges)
        assert set(enumerate_triangles_fast(edges, force_python=True)) == set(
            enumerate_triangles_fast(edges)
        )

    def test_array_input(self):
        packed = pack_edges(ranked_edges(200))
        assert count_triangles_fast(packed) == count_triangles_fast(packed, force_python=True)


# ----------------------------------------------------------------------
# batch colouring
# ----------------------------------------------------------------------
class TestBatchColouring:
    """The bulk colouring the cache-aware partition uses equals per-vertex hashing."""

    def test_matches_serial_hash(self):
        coloring = RandomColoring(5, seed=9)
        vertices = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        assert colors_of(coloring, vertices) == [coloring.color_of(v) for v in vertices]

    def test_empty(self):
        coloring = RandomColoring(3, seed=2)
        assert colors_of(coloring, []) == []


# ----------------------------------------------------------------------
# registered algorithms: options, counter dispatch, fallback
# ----------------------------------------------------------------------
class TestVectorAlgorithms:
    def test_options_validation(self):
        with pytest.raises(OptionsError, match="dtype"):
            VectorOptions(dtype="float32").validate()
        with pytest.raises(OptionsError, match="chunk_size"):
            VectorOptions(chunk_size=0).validate()
        with pytest.raises(OptionsError, match="chunk_size"):
            VectorOptions(chunk_size="big").validate()
        with pytest.raises(OptionsError, match="force_python"):
            VectorOptions(force_python=1).validate()
        VectorOptions().validate()

    def test_counter_registered_on_vector_count_only(self):
        assert get_algorithm("vector_count").counter is not None
        assert get_algorithm("vector_enum").counter is None

    def test_count_only_run_dispatches_to_counter(self):
        engine = TriangleEngine.from_canonical_edges(ranked_edges(200))
        result = engine.run("vector_count")
        # The counter path materialises nothing but still reports which
        # backend ran (counters may return a (count, report) pair).
        assert result.triangles is None
        assert result.report is not None and result.report.backend == "numpy"
        assert result.triangle_count == len(triangle_set(engine.edges))
        python_run = engine.run("vector_count", options={"force_python": True})
        assert python_run.report.backend == "python"

    def test_collecting_run_uses_the_runner(self):
        engine = TriangleEngine.from_canonical_edges(ranked_edges(200))
        result = engine.run("vector_count", collect=True)
        assert result.report is not None and result.report.backend == "numpy"
        assert len(result.triangles) == result.triangle_count

    def test_force_python_reported(self):
        engine = TriangleEngine.from_canonical_edges(ranked_edges(120))
        result = engine.run("vector_enum", collect=True, options={"force_python": True})
        assert result.report.backend == "python"

    def test_numpy_absent_fallback(self, monkeypatch):
        import repro.fastpath.algorithms as fp_algorithms
        import repro.fastpath.kernels as fp_kernels

        monkeypatch.setattr(fp_kernels, "HAVE_NUMPY", False)
        monkeypatch.setattr(fp_algorithms, "HAVE_NUMPY", False)
        engine = TriangleEngine.from_canonical_edges(ranked_edges(120))
        result = engine.run("vector_enum", collect=True)
        assert result.report.backend == "python"
        assert {tuple(t) for t in result.triangles} == triangle_set(engine.edges)
        assert engine.count("vector_count") == len(triangle_set(engine.edges))

    def test_require_numpy_error_message(self, monkeypatch):
        import repro.fastpath.arrays as fp_arrays

        monkeypatch.setattr(fp_arrays, "HAVE_NUMPY", False)
        with pytest.raises(FastPathUnavailableError, match="NumPy"):
            fp_arrays.require_numpy("the test feature")

    def test_run_on_edges_entry_point(self):
        from repro.experiments.runner import run_on_edges
        from repro.analysis.model import MachineParams

        edges = ranked_edges(150)
        result = run_on_edges(edges, "vector_count", MachineParams(256, 16))
        assert result.triangle_count == len(triangle_set(edges))
        assert result.io.total == 0


# ----------------------------------------------------------------------
# engine edge cases the fast path must honour
# ----------------------------------------------------------------------
IN_MEMORY_ALGORITHMS = ("in_memory", "vector_count", "vector_enum")


class TestEngineEdgeCases:
    @pytest.mark.parametrize("algorithm", IN_MEMORY_ALGORITHMS)
    def test_empty_graph(self, algorithm):
        engine = TriangleEngine(Graph())
        result = engine.run(algorithm, collect=True)
        assert result.triangle_count == 0 and result.triangles == []

    @pytest.mark.parametrize("algorithm", IN_MEMORY_ALGORITHMS)
    def test_triangle_free_graph(self, algorithm):
        engine = TriangleEngine([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert engine.count(algorithm) == 0

    def test_self_loops_rejected_before_canonicalisation(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            TriangleEngine([(0, 1), (1, 1)])

    @pytest.mark.parametrize("algorithm", IN_MEMORY_ALGORITHMS)
    def test_duplicate_edges_merged_before_canonicalisation(self, algorithm):
        # (a, b), (b, a) and repeats collapse to one edge; one triangle.
        noisy = [("a", "b"), ("b", "a"), ("b", "c"), ("a", "c"), ("a", "b"), ("c", "b")]
        engine = TriangleEngine(noisy)
        assert engine.num_edges == 3
        result = engine.run(algorithm, collect=True)
        assert result.triangle_count == 1
        assert {tuple(sorted(t)) for t in result.triangles} == {("a", "b", "c")}

    @pytest.mark.parametrize("algorithm", IN_MEMORY_ALGORITHMS)
    def test_single_triangle_graph(self, algorithm):
        engine = TriangleEngine.from_canonical_edges(TRIANGLE)
        result = engine.run(algorithm, collect=True)
        assert result.triangles == [(0, 1, 2)]

    def test_stream_over_vector_enum(self):
        edges = ranked_edges(300)
        engine = TriangleEngine.from_canonical_edges(edges)
        oracle = triangle_set(edges)
        batches = list(engine.stream("vector_enum", batch_size=7))
        assert all(len(batch) <= 7 for batch in batches)
        assert {tuple(t) for batch in batches for t in batch} == oracle

    def test_stream_abandoned_early(self):
        edges = ranked_edges(300)
        engine = TriangleEngine.from_canonical_edges(edges)
        stream = engine.stream("vector_enum", batch_size=1)
        next(stream)
        stream.close()  # must not hang or leak the worker

    def test_sink_receives_label_triangles(self):
        sink = CollectingSink()
        engine = TriangleEngine.from_canonical_edges(TRIANGLE)
        engine.run("vector_enum", sink=sink)
        assert sink.triangles == [(0, 1, 2)]


class TestFromEdgeArray:
    """The vectorized ingestion constructor (``TriangleEngine.from_edge_array``)."""

    def test_label_space_parity_with_graph_constructor(self):
        graph = erdos_renyi_gnm(60, 200, seed=4)
        raw = np.array([(u, v) for u, v in graph.edges()])
        fast_engine = TriangleEngine.from_edge_array(raw)
        graph_engine = TriangleEngine(graph)
        for algorithm in ("in_memory", "vector_enum"):
            fast = fast_engine.run(algorithm, collect=True)
            ref = graph_engine.run(algorithm, collect=True)
            assert {tuple(sorted(t)) for t in fast.triangles} == {
                tuple(sorted(t)) for t in ref.triangles
            }

    def test_dedup_orient_and_labels(self):
        engine = TriangleEngine.from_edge_array([(9, 4), (4, 9), (4, 2), (2, 9)])
        assert engine.num_edges == 3 and engine.num_vertices == 3
        result = engine.run("vector_enum", collect=True)
        assert {tuple(sorted(t)) for t in result.triangles} == {(2, 4, 9)}

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            TriangleEngine.from_edge_array([(0, 1), (1, 1)])

    def test_python_fallback_builds_identical_engine(self, monkeypatch):
        import repro.fastpath.arrays as fp_arrays

        raw = [(9, 4), (4, 2), (2, 9), (0, 9), (0, 2)]
        vectorized = TriangleEngine.from_edge_array(raw)
        monkeypatch.setattr(fp_arrays, "HAVE_NUMPY", False)
        fallback = TriangleEngine.from_edge_array(raw)
        assert fallback.edges == vectorized.edges
        assert fallback.order.vertex_of == vectorized.order.vertex_of
