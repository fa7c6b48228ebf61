"""The array-first ingest path against its earlier implementations.

The canonicaliser (:func:`repro.fastpath.arrays.canonicalize_edge_array`)
and the out-of-core run merge (:func:`repro.fastpath.oocore._merged_key_chunks`)
were rewritten for speed with outputs that must not move by a bit.  The
implementations they replaced live on here as oracles:

* ``reference_canonicalize``: ``np.unique`` over the packed keys, a label
  ``np.unique(return_inverse=True)`` and two ``lexsort`` calls;
* ``reference_merged_key_chunks``: ``heapq.merge`` over per-run readers.

The engine tests pin the other half of the change: an engine built from an
edge array answers the array algorithms without ever building the tuple
list, and builds it (once) only for a consumer of records.
"""

from __future__ import annotations

import heapq
import itertools
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import TriangleEngine
from repro.fastpath import oocore
from repro.fastpath.arrays import (
    HAVE_NUMPY,
    MAX_PACKED_VERTICES,
    CanonicalArrays,
    canonicalize_edge_array,
    canonicalize_edges_python,
    unique_sorted,
)
from repro.graph.graph import DegreeOrder

np = pytest.importorskip("numpy") if HAVE_NUMPY else None
pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")

TOP_ID = MAX_PACKED_VERTICES - 1


# ----------------------------------------------------------------------
# oracles: the implementations the fast paths replaced
# ----------------------------------------------------------------------
def reference_canonicalize(raw):
    """``np.unique`` + ``lexsort`` canonicalisation (validation left out)."""
    raw = np.asarray(raw, dtype=np.int64).reshape(-1, 2)
    if raw.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    low = np.minimum(raw[:, 0], raw[:, 1])
    high = np.maximum(raw[:, 0], raw[:, 1])
    span = int(high.max()) + 1
    unique_keys = np.unique(low * span + high)
    low, high = unique_keys // span, unique_keys % span
    labels, inverse = np.unique(np.concatenate([low, high]), return_inverse=True)
    degrees = np.bincount(inverse, minlength=labels.shape[0])
    order = np.lexsort((labels, degrees))
    rank_of = np.empty(labels.shape[0], dtype=np.int64)
    rank_of[order] = np.arange(labels.shape[0], dtype=np.int64)
    ranked = rank_of[inverse].reshape(2, -1)
    u = np.minimum(ranked[0], ranked[1])
    v = np.maximum(ranked[0], ranked[1])
    edge_order = np.lexsort((v, u))
    packed = np.stack([u[edge_order], v[edge_order]], axis=1)
    target = np.int32 if labels.shape[0] < 2**31 else np.int64
    return np.ascontiguousarray(packed, dtype=target), labels[order]


def _reference_run_values(path, start, stop, window):
    with open(path, "rb") as src:
        src.seek(start * 8)
        remaining = stop - start
        while remaining:
            take = min(window, remaining)
            yield from np.fromfile(src, dtype=np.int64, count=take).tolist()
            remaining -= take


def reference_merged_key_chunks(module, runs_path, bounds, chunk_rows):
    """``heapq.merge`` over the runs, re-batched into ``chunk_rows`` keys."""
    window = max(1024, chunk_rows // max(1, len(bounds)))
    streams = [_reference_run_values(runs_path, lo, hi, window) for lo, hi in bounds]
    merged = heapq.merge(*streams) if len(streams) > 1 else streams[0]
    while True:
        batch = list(itertools.islice(merged, chunk_rows))
        if not batch:
            return
        yield module.array(batch, dtype=module.int64)


# ----------------------------------------------------------------------
# the canonicaliser
# ----------------------------------------------------------------------
def _raw_edges(draw_ids, size):
    return st.lists(st.tuples(draw_ids, draw_ids), max_size=size).map(
        lambda pairs: [(u, v) for u, v in pairs if u != v]
    )


#: Dense spans (ids below the row count: the presence-table relabel) and
#: sparse ones (ids up to 2^31 - 1: the argsort relabel).
dense_ids = st.integers(min_value=0, max_value=12)
sparse_ids = st.one_of(
    st.integers(min_value=0, max_value=TOP_ID),
    st.sampled_from([TOP_ID, TOP_ID - 1, 0, 1]),
)
raw_edge_lists = st.one_of(_raw_edges(dense_ids, 60), _raw_edges(sparse_ids, 40))


def _with_duplicates(edges, data):
    """Append repeats of some rows, each in a drawn orientation."""
    if not edges:
        return edges
    picks = data.draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
    flips = data.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    return edges + [(v, u) if flip else (u, v) for (u, v), flip in zip(picks, flips)]


class TestCanonicaliser:
    @settings(max_examples=150, deadline=None)
    @given(raw_edge_lists, st.data())
    @example([], None)
    @example([(TOP_ID, 0), (0, TOP_ID), (TOP_ID, 5), (5, 0)], None)
    def test_equals_the_unique_lexsort_oracle_and_the_python_mirror(self, edges, data):
        if data is not None:
            edges = _with_duplicates(edges, data)
        raw = np.array(edges, dtype=np.int64).reshape(-1, 2)
        canonical = canonicalize_edge_array(raw)
        expected_edges, expected_vertex_of = reference_canonicalize(raw)
        if raw.size:
            assert canonical.edges.dtype == expected_edges.dtype
        assert canonical.vertex_of.dtype == expected_vertex_of.dtype
        assert np.array_equal(canonical.edges, expected_edges)
        assert np.array_equal(canonical.vertex_of, expected_vertex_of)
        mirror_edges, mirror_labels = canonicalize_edges_python(edges)
        assert canonical.edge_list() == mirror_edges
        assert canonical.vertex_of.tolist() == mirror_labels

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=80)
        | st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=40)
    )
    def test_unique_sorted_equals_numpy_unique(self, values):
        array = np.array(values, dtype=np.int64)
        expected, expected_inverse = np.unique(array, return_inverse=True)
        distinct, inverse = unique_sorted(array, return_inverse=True)
        assert distinct.dtype == expected.dtype and inverse.dtype == expected_inverse.dtype
        assert np.array_equal(distinct, expected)
        assert np.array_equal(inverse, expected_inverse)
        assert np.array_equal(unique_sorted(array), expected)

    def test_both_relabel_branches_run(self):
        """A span within the row count takes the table, a wider one the argsort."""
        dense = np.array([3, 1, 3, 2, 1], dtype=np.int64)
        sparse = np.array([TOP_ID, 0, TOP_ID, 7], dtype=np.int64)
        for values in (dense, sparse):
            span = int(values.max()) - int(values.min()) + 1
            assert (span <= values.shape[0]) == (values is dense)
            distinct, inverse = unique_sorted(values, return_inverse=True)
            assert np.array_equal(distinct[inverse], values)
            assert np.array_equal(distinct, np.unique(values))


# ----------------------------------------------------------------------
# the out-of-core run merge
# ----------------------------------------------------------------------
def _write_runs(path, runs):
    bounds, offset = [], 0
    with open(path, "wb") as out:
        for run in runs:
            np.asarray(run, dtype=np.int64).tofile(out)
            bounds.append((offset, offset + len(run)))
            offset += len(run)
    return bounds


class TestBlockedMerge:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 64, 4096])
    @pytest.mark.parametrize("distinct", [5, 60, 10**9])
    def test_chunks_concatenate_to_the_heapq_merge(self, tmp_path, chunk_rows, distinct):
        """Runs longer than a window, with equal keys at window and run ends."""
        rng = np.random.default_rng(distinct + chunk_rows)
        runs = [np.sort(rng.integers(0, distinct, size=size)) for size in (3000, 2500, 1, 4100)]
        path = str(tmp_path / "runs.mmap")
        bounds = _write_runs(path, runs)
        chunks = list(oocore._merged_key_chunks(np, path, bounds, chunk_rows))
        expected = list(reference_merged_key_chunks(np, path, bounds, chunk_rows))
        assert all(chunk.shape[0] for chunk in chunks)
        assert all(bool((np.diff(chunk) >= 0).all()) for chunk in chunks)
        assert np.array_equal(np.concatenate(chunks), np.concatenate(expected))

    def test_single_run_and_equal_cutoffs(self, tmp_path):
        path = str(tmp_path / "runs.mmap")
        bounds = _write_runs(path, [np.full(2500, 7), np.full(1800, 7), np.arange(3000)])
        merged = np.concatenate(list(oocore._merged_key_chunks(np, path, bounds, 2048)))
        assert np.array_equal(merged, np.sort(np.concatenate([np.full(4300, 7), np.arange(3000)])))
        bounds = _write_runs(path, [np.arange(5000)])
        merged = np.concatenate(list(oocore._merged_key_chunks(np, path, bounds, 64)))
        assert np.array_equal(merged, np.arange(5000))


def _store_files(store):
    root = store.spill_root
    return {name: open(os.path.join(root, name), "rb").read() for name in sorted(os.listdir(root))}


def _noisy_edges(num_rows, num_vertices, seed):
    """Raw rows over few vertices: duplicates (both orientations) in every run."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, num_vertices, size=(num_rows, 2))
    rows = rows[rows[:, 0] != rows[:, 1]]
    flipped = rows[: num_rows // 4, ::-1]
    return np.concatenate([rows, flipped, rows[::5]])


class TestStoreFiles:
    @pytest.mark.parametrize(
        ("chunk_rows", "num_rows", "num_vertices"),
        [
            (1, 300, 30),
            (3, 600, 40),
            (64, 3000, 80),
            (4096, 20_000, 150),
            (oocore.DEFAULT_CHUNK_ROWS, 240_000, 900),
        ],
    )
    def test_byte_identical_to_the_heapq_merge(
        self, tmp_path, monkeypatch, chunk_rows, num_rows, num_vertices
    ):
        edges = _noisy_edges(num_rows, num_vertices, seed=chunk_rows)
        assert edges.shape[0] > chunk_rows  # several runs, duplicates straddling them
        with oocore.build_store(edges, spill_dir=str(tmp_path), chunk_rows=chunk_rows) as store:
            files = _store_files(store)
        monkeypatch.setattr(oocore, "_merged_key_chunks", reference_merged_key_chunks)
        with oocore.build_store(edges, spill_dir=str(tmp_path), chunk_rows=chunk_rows) as store:
            expected = _store_files(store)
        assert files.keys() == expected.keys()
        assert files == expected


# ----------------------------------------------------------------------
# the engine keeps the arrays
# ----------------------------------------------------------------------
def _raising_edge_list(self):
    raise AssertionError("CanonicalArrays.edge_list() called on an array-only path")


class TestEngineLaziness:
    RAW = _noisy_edges(4000, 120, seed=11)

    def _eager_reference(self):
        """What an eager engine held: the oracle's list, labels and order."""
        edges, vertex_of = reference_canonicalize(self.RAW)
        ranked = [tuple(edge) for edge in edges.tolist()]
        labels = tuple(vertex_of.tolist())
        order = DegreeOrder(
            vertex_of=labels,
            rank_of={vertex: rank for rank, vertex in enumerate(labels)},
            edges=ranked,
        )
        return ranked, order

    def test_array_algorithms_never_build_the_tuple_list(self, monkeypatch, tmp_path):
        ranked, order = self._eager_reference()
        reference = TriangleEngine.from_canonical_edges(ranked)
        expected_count = reference.count("in_memory")
        expected = sorted(
            tuple(sorted(order.to_labels(t)))
            for t in reference.run("in_memory", collect=True).triangles
        )
        monkeypatch.setattr(CanonicalArrays, "edge_list", _raising_edge_list)
        with TriangleEngine.from_edge_array(self.RAW) as engine:
            assert engine.num_edges == len(ranked)
            assert engine.count("vector_count") == expected_count
            counted = engine.run("oocore_count", spill_dir=str(tmp_path))
            assert counted.triangle_count == expected_count
            enumerated = engine.run("vector_enum", collect=True).triangles
            assert sorted(tuple(sorted(t)) for t in enumerated) == expected
            streamed = [t for batch in engine.stream("vector_enum", batch_size=64) for t in batch]
            assert sorted(tuple(sorted(t)) for t in streamed) == expected
            monkeypatch.undo()
            # Built on first use, from the same arrays: equal to the eager form.
            assert engine.edges == ranked
            assert engine.edges is engine.edges
            assert engine.order == order
            assert engine.order.edges is engine.edges
            assert counted.order == order

    def test_results_of_an_engine_without_an_order_hold_no_graph(self):
        ranked, _ = self._eager_reference()
        run = TriangleEngine.from_canonical_edges(ranked).run("in_memory")
        assert run.order is None
        assert run.order_source is None

    def test_record_consumers_match_the_eager_engine(self):
        ranked, order = self._eager_reference()
        reference = TriangleEngine.from_canonical_edges(ranked)
        with TriangleEngine.from_edge_array(self.RAW) as engine:
            for algorithm, kwargs in (
                ("in_memory", {}),
                ("cache_aware", {"shards": 2}),
                ("vector_count", {"force_python": True}),
            ):
                run = engine.run(algorithm, collect=True, **kwargs)
                expected = reference.run(algorithm, collect=True, **kwargs)
                assert run.triangles == [order.to_labels(t) for t in expected.triangles]
                assert (run.reads, run.writes, run.operations) == (
                    expected.reads,
                    expected.writes,
                    expected.operations,
                )
            assert engine.order == order
