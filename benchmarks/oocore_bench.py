#!/usr/bin/env python
"""Benchmark the out-of-core backend: real bytes moved vs the simulated model.

Two sections, printed to stdout:

``oocore_model_check``
    The cross-check the substrate exists for.  One canonical graph is run
    through the *simulated* ``cache_aware`` algorithm at a given ``(M, B)``
    -- whose I/O counters are block transfers of ``B`` words -- and through
    the *real* out-of-core backend at the matching chunk budget.  The real
    side's traffic is measured from ``/proc/self/io`` (``rchar``/``wchar``
    deltas: the backend's sequential passes use buffered ``fromfile`` /
    ``tofile`` precisely so their bytes are syscall-visible; memmaps are
    reserved for random-access structures).  Simulated block transfers are
    converted at 8 bytes/word so the two sit in one unit.  The numbers are
    *models of different machines* -- the point is reporting both and the
    ratio, not equality.

``oocore_scale``
    The headline capability: an E >= 1M edge stream is canonicalised and
    counted in a **subprocess** (so the measurement starts from a cold
    interpreter), which reports wall time, ``/proc/self/io`` deltas, peak
    RSS (``VmHWM`` from ``/proc/self/status``) and spill volume.  With
    ``--rss-cap-mb`` the run becomes a gate: peak RSS must stay under the
    cap while the spill volume exceeds it (the graph genuinely did not fit
    the budget it was processed in).  With ``--parity`` the parent
    regenerates the identical stream and checks the subprocess count
    against the in-memory vectorized kernels bit-for-bit.

``--expect-unavailable`` inverts the whole harness for the no-NumPy CI
leg: exit 0 iff the backend raises ``FastPathUnavailableError`` cleanly.

Usage::

    python benchmarks/oocore_bench.py                   # full (E=1.5M)
    python benchmarks/oocore_bench.py --smoke           # CI-sized
    python benchmarks/oocore_bench.py --smoke --parity  # CI-sized, count parity
    python benchmarks/oocore_bench.py --rss-cap-mb 90 --parity  # the CI gate

The ``--rss-cap-mb`` gate also needs the spill to exceed the cap.  The
smoke stream spills about 21 MiB, less than the interpreter's own resident
set, so no cap the smoke run can meet is also exceeded by its spill: gate
the full-size run only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Word size used to convert simulated block transfers into bytes: the
#: substrate's records are integers, stored int64 by the real backend.
WORD_BYTES = 8

#: Model-check machine: matches the CLI default (M=512, B=16 words).
MODEL_MACHINE = {"memory": 512, "block": 16}

SIZES = {
    "full": {"scale_edges": 1_500_000, "model_edges": 20_000},
    "smoke": {"scale_edges": 300_000, "model_edges": 4_000},
}

#: Vertex budget of the synthetic stream: E/4 keeps average degree ~8, so
#: the stream has real triangles and real duplicate edges to merge.
VERTEX_DIVISOR = 4

#: Generation batch: parent and worker must use the identical value or the
#: seeded streams (and therefore the parity check) diverge.
GEN_CHUNK = 65_536


def edge_chunk_stream(num_edges: int, num_vertices: int, seed: int):
    """Deterministic ``(k, 2)`` int64 chunks of a random multigraph stream.

    Self-loops are dropped at the source (the backend rejects them by
    contract); duplicates and reversed orientations stay in -- collapsing
    them is part of the work being measured.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    remaining = num_edges
    while remaining > 0:
        size = min(GEN_CHUNK, remaining)
        pairs = rng.integers(0, num_vertices, size=(size, 2), dtype=np.int64)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        remaining -= size
        if pairs.shape[0]:
            yield pairs


def proc_io() -> dict[str, int]:
    """``/proc/self/io`` as a dict (zeroes where the file is unavailable)."""
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:  # pragma: no cover - non-Linux
        return {}
    return {
        key: int(value)
        for key, _, value in (line.partition(": ") for line in text.splitlines())
        if value
    }


def peak_rss_bytes() -> int:
    """``VmHWM`` of this process in bytes (0 where unavailable)."""
    try:
        text = Path("/proc/self/status").read_text()
    except OSError:  # pragma: no cover - non-Linux
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return 0


def run_worker(args: argparse.Namespace) -> int:
    """Subprocess body: build + count out-of-core, print one JSON line."""
    from repro.fastpath.oocore import build_store, count_triangles_store

    num_vertices = args.edges // VERTEX_DIVISOR
    io_before = proc_io()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="oocore-bench-") as spill:
        stream = edge_chunk_stream(args.edges, num_vertices, args.seed)
        store = build_store(stream, spill_dir=spill, chunk_rows=args.chunk_rows)
        try:
            count = count_triangles_store(store)
            spill_bytes = store.spill_bytes
            unique_edges = store.num_edges
        finally:
            store.close()
    elapsed = time.perf_counter() - started
    io_after = proc_io()
    print(
        json.dumps(
            {
                "count": count,
                "unique_edges": unique_edges,
                "wall_seconds": round(elapsed, 4),
                "spill_bytes": spill_bytes,
                "peak_rss_bytes": peak_rss_bytes(),
                "io_bytes": {
                    key: io_after.get(key, 0) - io_before.get(key, 0)
                    for key in ("rchar", "wchar", "read_bytes", "write_bytes")
                },
            }
        )
    )
    return 0


def model_check(num_edges: int, chunk_rows: int) -> dict[str, Any]:
    """Simulated cache_aware vs measured oocore bytes on one canonical graph."""
    from repro.analysis.model import MachineParams
    from repro.core.engine import TriangleEngine
    from repro.fastpath.oocore import build_store, count_triangles_store
    from repro.experiments.workloads import sparse_random

    edges = sparse_random(num_edges, seed=13).edges
    params = MachineParams(MODEL_MACHINE["memory"], MODEL_MACHINE["block"])
    with TriangleEngine.from_canonical_edges(edges, params=params) as engine:
        simulated = engine.run("cache_aware", seed=0)
    simulated_bytes = simulated.io.total * MODEL_MACHINE["block"] * WORD_BYTES

    io_before = proc_io()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="oocore-model-") as spill:
        with build_store(edges, spill_dir=spill, chunk_rows=chunk_rows) as store:
            measured_count = count_triangles_store(store)
            spill_bytes = store.spill_bytes
    elapsed = time.perf_counter() - started
    io_after = proc_io()
    measured_bytes = sum(
        io_after.get(key, 0) - io_before.get(key, 0) for key in ("rchar", "wchar")
    )
    assert measured_count == simulated.triangle_count, (
        f"oocore={measured_count} != simulated={simulated.triangle_count}"
    )
    return {
        "edges": num_edges,
        "machine": {"M": MODEL_MACHINE["memory"], "B": MODEL_MACHINE["block"]},
        "triangles": measured_count,
        "wall_seconds": round(elapsed, 4),
        "simulated": {
            "block_transfers": simulated.io.total,
            "reads": simulated.io.reads,
            "writes": simulated.io.writes,
            "bytes": simulated_bytes,
        },
        "measured": {
            "bytes": measured_bytes,
            "spill_bytes": spill_bytes,
        },
        "measured_over_simulated": (
            round(measured_bytes / simulated_bytes, 4) if simulated_bytes else None
        ),
    }


def scale_run(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    """Launch the subprocess measurement; apply the RSS / spill / parity gates."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        "--edges",
        str(args.edges),
        "--chunk-rows",
        str(args.chunk_rows),
        "--seed",
        str(args.seed),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=1800)
    if completed.returncode != 0:
        raise RuntimeError(f"scale worker failed:\n{completed.stderr}")
    report = json.loads(completed.stdout.splitlines()[-1])
    report["edges"] = args.edges
    report["chunk_rows"] = args.chunk_rows

    problems: list[str] = []
    if args.rss_cap_mb:
        cap_bytes = args.rss_cap_mb * 1024 * 1024
        report["rss_cap_mb"] = args.rss_cap_mb
        if report["peak_rss_bytes"] == 0:
            problems.append("GATE VmHWM unavailable on this platform; cannot enforce the cap")
        elif report["peak_rss_bytes"] > cap_bytes:
            problems.append(
                f"GATE peak RSS {report['peak_rss_bytes'] / 2**20:.1f} MiB "
                f"exceeds the {args.rss_cap_mb} MiB cap"
            )
        if report["spill_bytes"] <= cap_bytes:
            problems.append(
                f"GATE spill volume {report['spill_bytes'] / 2**20:.1f} MiB does not "
                f"exceed the {args.rss_cap_mb} MiB cap -- the graph fit in the budget, "
                "so the run proves nothing"
            )
    if args.parity:
        import numpy as np

        from repro.fastpath.arrays import canonicalize_edge_array
        from repro.fastpath.kernels import count_triangles_fast

        chunks = list(edge_chunk_stream(args.edges, args.edges // VERTEX_DIVISOR, args.seed))
        canonical = canonicalize_edge_array(np.concatenate(chunks))
        expected = count_triangles_fast(canonical.edges)
        report["parity_count"] = expected
        if expected != report["count"]:
            problems.append(
                f"GATE out-of-core count {report['count']} != in-memory count {expected}"
            )
    return report, problems


def expect_unavailable() -> int:
    """No-NumPy leg: the backend must fail with the typed error, nothing else."""
    from repro.exceptions import FastPathUnavailableError
    from repro.fastpath.oocore import build_store

    try:
        build_store([(0, 1), (0, 2), (1, 2)])
    except FastPathUnavailableError as error:
        print(f"ok: {error}")
        return 0
    except Exception as error:  # noqa: BLE001 - the wrong error is the failure
        print(f"FAIL: expected FastPathUnavailableError, got {type(error).__name__}: {error}")
        return 1
    print("FAIL: build_store succeeded; expected FastPathUnavailableError without NumPy")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=None, help="scale-section edge count")
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--chunk-rows", type=int, default=1 << 16, help="rows per pass/window")
    parser.add_argument("--seed", type=int, default=7, help="stream seed")
    parser.add_argument(
        "--rss-cap-mb", type=int, default=None, help="gate: subprocess peak RSS cap (MiB)"
    )
    parser.add_argument(
        "--parity", action="store_true", help="gate: check the count against in-memory kernels"
    )
    parser.add_argument(
        "--expect-unavailable",
        action="store_true",
        help="no-NumPy leg: exit 0 iff the backend raises FastPathUnavailableError",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.expect_unavailable:
        return expect_unavailable()

    mode = "smoke" if args.smoke else "full"
    args.edges = args.edges or SIZES[mode]["scale_edges"]

    if args.worker:
        return run_worker(args)

    print(f"oocore bench [{mode}]: model check ({SIZES[mode]['model_edges']} edges)")
    model = model_check(SIZES[mode]["model_edges"], args.chunk_rows)
    print(
        f"  simulated {model['simulated']['block_transfers']} block transfers "
        f"(~{model['simulated']['bytes'] / 2**20:.1f} MiB) vs "
        f"measured {model['measured']['bytes'] / 2**20:.1f} MiB real traffic "
        f"(ratio {model['measured_over_simulated']})"
    )

    print(f"oocore bench [{mode}]: scale run ({args.edges} edges, subprocess)")
    scale, problems = scale_run(args)
    print(
        f"  {scale['unique_edges']} unique edges, {scale['count']} triangles "
        f"in {scale['wall_seconds']}s"
    )
    print(
        f"  peak RSS {scale['peak_rss_bytes'] / 2**20:.1f} MiB, "
        f"spill {scale['spill_bytes'] / 2**20:.1f} MiB, "
        f"read {scale['io_bytes'].get('rchar', 0) / 2**20:.1f} MiB, "
        f"wrote {scale['io_bytes'].get('wchar', 0) / 2**20:.1f} MiB"
    )
    if args.parity and not any(p.startswith("GATE out-of-core count") for p in problems):
        print(f"  parity: count matches in-memory kernels ({scale['parity_count']})")

    status = 0
    for problem in problems:
        print(problem, file=sys.stderr)
        status = 1
    if args.rss_cap_mb and not problems:
        print(
            f"  gate: RSS under the {args.rss_cap_mb} MiB cap, spill above it "
            "(the graph did not fit the budget it was processed in)"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
