"""Unit and capability tests of the out-of-core memmap backend.

The differential harness (``tests/test_differential.py``) already pins
``oocore_count`` / ``oocore_enum`` against the full registry; this module
covers the machinery underneath: :func:`~repro.fastpath.oocore.build_store`
input forms and chunk-size invariance, bit-identical agreement with the
in-memory canonicaliser, spill lifecycle (close, finalizer backstop, error
paths) and options validation.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.baselines.in_memory import triangle_set
from repro.exceptions import FastPathUnavailableError, GraphFormatError, OptionsError
from repro.experiments.workloads import sparse_random
from repro.fastpath import oocore
from repro.fastpath.oocore import (
    DEFAULT_CHUNK_ROWS,
    OocoreOptions,
    build_store,
    count_triangles_store,
    iter_triangle_chunks_store,
)

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - bare-interpreter leg
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")


def canonical_edges(num_edges: int = 200, seed: int = 3) -> list[tuple[int, int]]:
    return sparse_random(num_edges, seed=seed).edges


@requires_numpy
class TestBuildStore:
    def test_input_forms_agree(self, tmp_path):
        """ndarray, iterable of pairs and a stream of array chunks coincide."""
        edges = canonical_edges()
        array = np.asarray(edges, dtype=np.int64)
        chunk_stream = (array[lo : lo + 37] for lo in range(0, len(edges), 37))
        stores = [
            build_store(array, spill_dir=str(tmp_path / "a")),
            build_store(edges, spill_dir=str(tmp_path / "b")),
            build_store(chunk_stream, spill_dir=str(tmp_path / "c")),
        ]
        try:
            reference = np.asarray(stores[0].edges)
            for store in stores[1:]:
                assert np.array_equal(np.asarray(store.edges), reference)
                assert store.num_edges == stores[0].num_edges
                assert store.num_vertices == stores[0].num_vertices
        finally:
            for store in stores:
                store.close()

    @pytest.mark.parametrize("chunk_rows", [17, 4096, DEFAULT_CHUNK_ROWS])
    def test_bit_identical_to_in_memory_canonicaliser(self, tmp_path, chunk_rows):
        """Every chunking reproduces ``canonicalize_edge_array`` exactly.

        Including duplicate and reversed input edges, which the external
        merge must collapse just like the in-memory unique pass.
        """
        from repro.fastpath.arrays import canonicalize_edge_array

        edges = canonical_edges(300, seed=5)
        noisy = edges + [(v, u) for (u, v) in edges[::3]] + edges[::7]
        expected = canonicalize_edge_array(noisy)
        with build_store(noisy, spill_dir=str(tmp_path), chunk_rows=chunk_rows) as store:
            assert np.array_equal(np.asarray(store.edges), np.asarray(expected.edges))
            assert np.array_equal(np.asarray(store.vertex_of), np.asarray(expected.vertex_of))
            assert count_triangles_store(store) == len(triangle_set(edges))

    def test_empty_graph(self, tmp_path):
        with build_store([], spill_dir=str(tmp_path)) as store:
            assert store.num_edges == 0
            assert store.num_vertices == 0
            assert count_triangles_store(store) == 0
            assert list(iter_triangle_chunks_store(store)) == []
        assert not list(tmp_path.rglob("*.mmap"))

    @pytest.mark.parametrize(
        ("bad_edges", "match"),
        [
            ([(0, 1), (-3, 2)], "non-negative"),
            ([(0, 1), (2, 2)], "self-loop"),
        ],
    )
    def test_format_errors_clean_up_spill(self, tmp_path, bad_edges, match):
        """A rejected input raises *and* leaves no spill directory behind."""
        with pytest.raises(GraphFormatError, match=match):
            build_store(bad_edges, spill_dir=str(tmp_path))
        assert not any(tmp_path.iterdir()), "failed build leaked spill files"

    def test_close_is_idempotent_and_removes_spill(self, tmp_path):
        store = build_store(canonical_edges(), spill_dir=str(tmp_path))
        root = store.spill_root
        assert list(tmp_path.rglob("*.mmap"))
        store.close()
        store.close()
        assert store.closed
        assert not list(tmp_path.rglob("*.mmap"))
        assert not any(tmp_path.iterdir()), root

    def test_finalizer_backstop_removes_abandoned_spill(self, tmp_path):
        """An un-closed store's spill is reclaimed at garbage collection."""
        store = build_store(canonical_edges(60, seed=1), spill_dir=str(tmp_path))
        assert list(tmp_path.rglob("*.mmap"))
        del store
        gc.collect()
        assert not list(tmp_path.rglob("*.mmap"))

    def test_release_pages_keeps_store_usable(self, tmp_path):
        """Dropping resident pages is transparent: kernels refault and agree."""
        edges = canonical_edges()
        with build_store(edges, spill_dir=str(tmp_path)) as store:
            before = count_triangles_store(store)
            store.release_pages()
            assert count_triangles_store(store) == before == len(triangle_set(edges))


@requires_numpy
class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_rows": 0},
            {"chunk_rows": True},
            {"chunk_rows": "many"},
            {"dtype": "bogus"},
            {"spill_dir": 5},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(OptionsError):
            OocoreOptions(**kwargs).validate()

    def test_defaults_validate(self):
        OocoreOptions().validate()
        OocoreOptions(spill_dir="/tmp", chunk_rows=8, dtype="int64").validate()


class TestWithoutNumpy:
    """Behaviour on a bare interpreter (real or simulated)."""

    def test_build_store_raises_fastpath_unavailable(self, monkeypatch):
        import repro.fastpath.arrays as arrays

        monkeypatch.setattr(arrays, "HAVE_NUMPY", False)
        with pytest.raises(FastPathUnavailableError, match="out-of-core"):
            build_store([(0, 1)])

    def test_oocore_module_importable(self):
        """The module (and its registry entries) never require NumPy to load."""
        assert oocore.SPILL_SUFFIX == ".mmap"
