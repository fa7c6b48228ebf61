"""Workload ``array-powerlaw``: the array-native path on a raw edge dump.

The input is a raw int64 ``(E, 2)`` NumPy edge array (heavy-tailed, with
duplicates in both orientations; E well above the L2 cache).  Each round
builds a fresh ``TriangleEngine.from_edge_array``, runs the first
``vector_count`` (CSR build plus kernel) and the first ``oocore_count``
(spill-store build plus count), then closes the engine.  ``fastpath`` and
``fastpath.oocore`` carry everything; ``extmem``, ``core`` and ``service``
carry nothing.  Set-up is a warm-up round on a smaller array whose count
is checked against the ``in_memory`` oracle and the enumerated set.

Traced rounds replay ``from_edge_array`` -> CSR -> kernel and the
spill-store build -> count through the layers' public functions; the
replay must reproduce the engine's count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from harness import SETUP_REPS, SETUP_ROUND, Calibrator, Outcome, Tracer, median, proc_status_mib
from inputs import heavy_tail_array

ROWS = 700_000
VERTICES = 150_000
WARM_ROWS = 150_000
WARM_VERTICES = 40_000
STAGES = ("ingest", "count", "oocore")


class ArrayPowerlaw:
    def __init__(
        self, seed: int, tracer: Tracer, cal: Calibrator, outcome: Outcome, work: Path
    ) -> None:
        self.tracer = tracer
        self.cal = cal
        self.outcome = outcome
        self.edges = heavy_tail_array(ROWS, VERTICES, seed * 7919)
        self.warm_edges = heavy_tail_array(WARM_ROWS, WARM_VERTICES, seed * 7919 + 1)
        self.spill = work / "spill"
        self.spill.mkdir(parents=True, exist_ok=True)
        self.layer: dict[str, list[float]] = {}
        self.expected: int | None = None
        # Import the layers outside the timed set-up (see sim_powerlaw).
        import repro.core.engine  # noqa: F401
        import repro.fastpath.algorithms  # noqa: F401
        import repro.fastpath.oocore  # noqa: F401

    def _engine_round(self, edges: Any, calibrate: bool) -> tuple[dict[str, float], dict[str, float], int, int]:
        """One engine round: returns normalised and raw seconds, and both counts."""
        from repro.core.engine import TriangleEngine

        raw: dict[str, float] = {}
        factors: dict[str, float] = {}
        factors["ingest"] = self.cal.factor("np") if calibrate else 1.0
        started = time.perf_counter()
        engine = TriangleEngine.from_edge_array(edges)
        raw["ingest"] = time.perf_counter() - started
        factors["count"] = self.cal.factor("np") if calibrate else 1.0
        started = time.perf_counter()
        vector = engine.count("vector_count")
        raw["count"] = time.perf_counter() - started
        factors["oocore"] = self.cal.factor("np") if calibrate else 1.0
        started = time.perf_counter()
        oocore = engine.run("oocore_count", spill_dir=str(self.spill)).triangle_count
        engine.close()
        raw["oocore"] = time.perf_counter() - started
        normalised = {stage: raw[stage] * factors[stage] for stage in STAGES}
        return normalised, raw, vector, oocore

    # -- set-up ----------------------------------------------------------
    def setup(self, reps: int) -> list[tuple[bool, float]]:
        times = []
        for rep in range(reps):
            traced = self.tracer.enabled and rep % 2 == 1
            factor = self.cal.factor("np")
            with self.tracer.sample(traced, SETUP_ROUND + rep), self.tracer.span("setup"):
                started = time.perf_counter()
                _norm, _raw, vector, oocore = self._engine_round(self.warm_edges, calibrate=False)
                times.append((traced, (time.perf_counter() - started) * factor))
            self.outcome.check(vector == oocore, f"warm-up: vector {vector} != oocore {oocore}")
            self._check_spill("warm-up")
        return times

    def references(self) -> None:
        """The warm-up array against the in_memory oracle and the enumerated set."""
        from repro.core.engine import TriangleEngine

        engine = TriangleEngine.from_edge_array(self.warm_edges)
        oracle = engine.count("in_memory")
        enumerated = {tuple(sorted(t)) for t in engine.run("vector_enum", collect=True).triangles}
        vector = engine.count("vector_count")
        engine.close()
        self.outcome.check(
            oracle == vector == len(enumerated),
            f"warm-up array: in_memory {oracle}, vector {vector}, enumerated {len(enumerated)}",
        )

    def _check_spill(self, what: str) -> None:
        left = os.listdir(self.spill)
        self.outcome.check(not left, f"{what}: spill directory not empty after close: {left}")

    # -- one round -------------------------------------------------------
    def round(self, traced: bool) -> tuple[dict[str, float], dict[str, float]]:
        if traced:
            normalised, raw, vector, oocore = self._replay()
        else:
            normalised, raw, vector, oocore = self._engine_round(self.edges, calibrate=True)
        if self.expected is None:
            self.expected = vector
        label = "traced replay" if traced else "engine"
        self.outcome.check(vector == self.expected, f"{label}: vector_count {vector} != {self.expected}")
        self.outcome.check(oocore == vector, f"{label}: oocore_count {oocore} != vector_count {vector}")
        self._check_spill(label)
        return normalised, raw

    def _replay(self) -> tuple[dict[str, float], dict[str, float], int, int]:
        """``from_edge_array`` -> CSR -> kernel and store -> count, with spans."""
        from repro.fastpath.arrays import canonicalize_edge_array
        from repro.fastpath.csr import CSRAdjacency
        from repro.fastpath.kernels import count_triangles_csr
        from repro.fastpath.oocore import build_store, count_triangles_store
        from repro.graph.graph import DegreeOrder

        span = self.tracer.span
        raw: dict[str, float] = {}
        factors: dict[str, float] = {}
        factors["ingest"] = self.cal.factor("np")
        started = time.perf_counter()
        with span("array.ingest"):
            with span("fastpath.canonicalize"):
                canonical = canonicalize_edge_array(self.edges)
            with span("fastpath.edge_list"):
                ranked = canonical.edge_list()
                vertex_of = tuple(canonical.vertex_of.tolist())
            DegreeOrder(
                vertex_of=vertex_of,
                rank_of={vertex: rank for rank, vertex in enumerate(vertex_of)},
                edges=ranked,
            )
        raw["ingest"] = time.perf_counter() - started
        factors["count"] = self.cal.factor("np")
        started = time.perf_counter()
        with span("array.count"):
            with span("fastpath.csr_build"):
                csr = CSRAdjacency.from_canonical_edges(ranked)
            with span("fastpath.kernel"):
                vector = count_triangles_csr(csr)
        raw["count"] = time.perf_counter() - started
        factors["oocore"] = self.cal.factor("np")
        started = time.perf_counter()
        with span("array.oocore"):
            with span("oocore.build"):
                store = build_store(ranked, spill_dir=str(self.spill))
            with span("oocore.count"):
                oocore = count_triangles_store(store)
            spill_bytes = store.spill_bytes
            store.close()
        raw["oocore"] = time.perf_counter() - started
        self._kernel_counts(csr, vector, spill_bytes)
        normalised = {stage: raw[stage] * factors[stage] for stage in STAGES}
        return normalised, raw, vector, oocore

    def _kernel_counts(self, csr: Any, triangles: int, spill_bytes: int) -> None:
        """Work counts of the compact-forward kernel, from the CSR degrees.

        Every edge ``(u, v)`` probes each forward neighbour ``w`` of ``v``
        (one wedge).  Bytes follow the kernel's accesses: per edge ``u``,
        ``v`` and two ``indptr`` reads; per wedge the gather index, ``w``,
        the probe key, its ``searchsorted`` position and the compared key.
        """
        wedges = int(csr.out_degrees()[csr.indices].sum())
        width = csr.indices.dtype.itemsize
        add = self.layer.setdefault
        add("fastpath.wedges_probed", []).append(wedges)
        add("fastpath.hit_ratio", []).append(triangles / wedges if wedges else 0.0)
        add("fastpath.bytes_computed", []).append(csr.num_edges * (2 * width + 16) + wedges * (width + 32))
        add("oocore.spill_bytes", []).append(spill_bytes)

    def oocore_subprocess(self, work: Path) -> None:
        """The oocore leg alone in a fresh process: its peak RSS and count."""
        import numpy

        path = work / "edges.npy"
        numpy.save(path, self.edges)
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(path), str(self.spill)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        path.unlink()
        if completed.returncode != 0:
            self.outcome.fail(f"oocore subprocess failed: {completed.stderr[-2000:]}")
            return
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        self.outcome.check(
            report["count"] == self.expected,
            f"oocore subprocess counted {report['count']}, engine {self.expected}",
        )
        self.layer["oocore.peak_rss_mib"] = [report["peak_rss_mib"]]
        self._check_spill("oocore subprocess")


def run(
    seconds: float, seed: int, tracer: Tracer, cal: Calibrator, outcome: Outcome, work: Path
) -> dict[str, Any]:
    workload = ArrayPowerlaw(seed, tracer, cal, outcome, work)
    setup_times = workload.setup(SETUP_REPS + (1 if tracer.enabled else 0))
    workload.references()
    rounds: list[dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        traced = tracer.enabled and len(rounds) % 2 == 1
        with tracer.sample(traced, len(rounds)), tracer.span("round"):
            normalised, raw = workload.round(traced)
        rounds.append({"traced": traced, "norm": normalised, "raw": raw})
    cal.both()
    peak = proc_status_mib("VmHWM")
    if tracer.enabled:
        workload.oocore_subprocess(work)
    return {
        "setup": setup_times,
        "rounds": rounds,
        "ops_per_round": len(STAGES),
        "peak_rss_mib": peak,
        "calibration": "np",
        "prefix": "array",
        "layer": {name: median(values) for name, values in workload.layer.items()},
        "stage_spans": {"round"},
    }


def _oocore_probe(edges_path: str, spill_dir: str) -> None:
    """Subprocess body: build the spill store from the saved array and count."""
    import numpy

    from repro.fastpath.oocore import build_store, count_triangles_store

    store = build_store(numpy.load(edges_path, mmap_mode="r"), spill_dir=spill_dir)
    try:
        count = count_triangles_store(store)
    finally:
        store.close()
    print(json.dumps({"count": count, "peak_rss_mib": proc_status_mib("VmHWM")}))


if __name__ == "__main__":
    _oocore_probe(sys.argv[1], sys.argv[2])
