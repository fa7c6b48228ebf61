#!/usr/bin/env python
"""Shard-scaling gate: the warm persistent pool must beat the serial run.

One seeded G(n, m) graph (E=50k, seed 7) on the paper's ``E >> M`` machine
(M=512, B=16) is run two ways, best of three each:

* serial ``cache_aware`` with ``num_colors=4``, the same algorithm instance
  the sharded leg distributes;
* colour-sharded ``cache_aware`` (4 shards) across 4 jobs on the persistent
  pool, after one untimed warm-up run that boots the workers and publishes
  the edge segment, so the timed runs measure steady state.

The gate fails when the sharded counters differ from the serial ones, or
when the measured speedup (serial / persistent) is below ``--floor``.  Only
measured numbers count: a host with fewer cores than jobs reports what it
measured.  The record's ``worker_seconds`` sums the worker-side wall time
(``shard_seconds`` + ``hd_seconds``) of the best sharded run; set against
``persistent_seconds`` it shows the coordinator's serial share.  The
per-layer split of the sharded stage (``core.shard_busy_s``) is perfbench's
``sim-powerlaw`` workload.

Usage::

    python benchmarks/shard_gate.py --floor 1.3 --output shard-scaling.json
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.core.result import RunResult
from repro.experiments.store import atomic_write_json
from repro.graph.generators import erdos_renyi_gnm

EDGES = 50_000
SHARDS = 4
JOBS = 4
REPEATS = 3
PARAMS = MachineParams(512, 16)


def host() -> dict[str, Any]:
    """The host the wall times come from: cores, Python and NumPy versions."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    if hasattr(os, "sched_getaffinity"):  # Linux; absent on macOS/Windows
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return {"cpu_cores": cores, "python": platform.python_version(), "numpy": numpy_version}


def best_of(run: Callable[[], RunResult]) -> tuple[float, RunResult]:
    """Best wall time over ``REPEATS`` calls of ``run``, with that call's result."""
    timed = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run()
        timed.append((time.perf_counter() - started, result))
    return min(timed, key=lambda pair: pair[0])


def measure() -> dict[str, Any]:
    """Time the serial and warm persistent-pool legs on the gate graph."""
    graph = erdos_renyi_gnm(EDGES * 3 // 10, EDGES, seed=7)
    with TriangleEngine(graph, params=PARAMS) as engine:
        engine.run("cache_aware", seed=0, shards=SHARDS, jobs=JOBS, pool="persistent")
        serial_s, serial = best_of(
            lambda: engine.run("cache_aware", seed=0, options={"num_colors": SHARDS})
        )
        sharded_s, sharded = best_of(
            lambda: engine.run("cache_aware", seed=0, shards=SHARDS, jobs=JOBS, pool="persistent")
        )
    match = serial.io == sharded.io and serial.triangle_count == sharded.triangle_count
    return {
        "edges": EDGES,
        "shards": SHARDS,
        "jobs": JOBS,
        "machine": {"M": PARAMS.memory_words, "B": PARAMS.block_words},
        "host": host(),
        "serial_seconds": round(serial_s, 4),
        "persistent_seconds": round(sharded_s, 4),
        "speedup_vs_serial": round(serial_s / sharded_s, 2),
        "worker_seconds": round(
            sum(sharded.sharding.shard_seconds) + sum(sharded.sharding.hd_seconds), 4
        ),
        "counters_match_serial": match,
        "io": {
            "reads": sharded.io.reads,
            "writes": sharded.io.writes,
            "operations": sharded.io.operations,
        },
        "triangles": sharded.triangle_count,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--floor", type=float, help="fail below this speedup over serial")
    parser.add_argument("--output", type=Path, help="write the JSON record here")
    args = parser.parse_args(argv)

    record = measure()
    record["floor"] = args.floor
    if args.output is not None:
        atomic_write_json(args.output, record)
    speedup = record["speedup_vs_serial"]
    print(
        f"serial {record['serial_seconds']}s, persistent {record['persistent_seconds']}s: "
        f"{speedup}x on {record['host']['cpu_cores']} cores"
    )
    if not record["counters_match_serial"]:
        print("GATE sharded counters diverged from serial", file=sys.stderr)
        return 1
    if args.floor is not None and speedup < args.floor:
        print(f"GATE speedup {speedup}x is below the {args.floor}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
