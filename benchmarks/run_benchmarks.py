#!/usr/bin/env python
"""Run the substrate and end-to-end benchmarks and write ``BENCH_substrate.json``.

The file tracks the performance trajectory of the simulated external-memory
substrate across PRs.  Each invocation measures the current working tree and
stores the results under a label (``--label before`` / ``--label after`` for
an optimisation PR, or a PR number for longer series); when both ``before``
and ``after`` are present the script also records their speedup.

Wall-clock time is measured with a fresh machine per repetition and the best
(minimum) time is kept; the simulated I/O counters are recorded alongside so
that perf work can be checked against the model (the counters must not move
when only the data path changes).

Two additions support CI:

* ``--smoke`` shrinks the inputs so the whole run takes a few seconds.
* ``--check`` compares the measured simulated read/write/operation counters
  (and triangle counts) against the golden values pinned under ``"golden"``
  in ``BENCH_substrate.json`` and exits non-zero on any drift -- wall-clock
  time is deliberately *not* checked, only the deterministic counters.
  Re-pin after an intentional counter change with ``--pin-golden``.

Each benchmark result is also persisted as a ``repro-run/v1`` JSON artifact
in the experiment result store (``results/<spec_hash>.json``), the same
schema the experiment orchestrator uses.

Usage::

    python benchmarks/run_benchmarks.py --label after
    python benchmarks/run_benchmarks.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.model import MachineParams  # noqa: E402
from repro.core.api import enumerate_triangles  # noqa: E402
from repro.core.cache_aware import cache_aware_randomized  # noqa: E402
from repro.core.emit import CountingSink  # noqa: E402
from repro.core.engine import TriangleEngine  # noqa: E402
from repro.experiments.specs import make_spec  # noqa: E402
from repro.experiments.store import ResultStore, atomic_write_json  # noqa: E402
from repro.extmem.machine import Machine  # noqa: E402
from repro.extmem.stats import IOStats  # noqa: E402
from repro.graph.generators import erdos_renyi_gnm  # noqa: E402
from repro.graph.io import graph_to_file  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"

#: Input sizes per mode; smoke is sized for a CI job, full for perf tracking.
#: ``shards``/``jobs`` configure the shard-scaling benchmark;
#: ``fastpath_edges`` the vectorized-backend benchmark (the full-mode
#: comparison is pinned at E=100k); ``oblivious_edges`` and
#: ``deterministic_edges`` the two simulator-bound algorithms of Sections 3
#: and 4.
SIZES = {
    "full": {
        "records": 20_000,
        "edges": 50_000,
        "repeats": 3,
        "shards": 4,
        "jobs": 4,
        "fastpath_edges": 100_000,
        "oblivious_edges": 1_000,
        "deterministic_edges": 5_000,
    },
    "smoke": {
        "records": 2_000,
        "edges": 4_000,
        "repeats": 1,
        "shards": 2,
        "jobs": 2,
        "fastpath_edges": 8_000,
        "oblivious_edges": 200,
        "deterministic_edges": 1_000,
    },
}
#: Counters compared by ``--check`` (wall-clock time deliberately excluded).
CHECKED_FIELDS = ("reads", "writes", "operations")


def _io_dict(stats: IOStats) -> dict[str, int]:
    return {"reads": stats.reads, "writes": stats.writes, "operations": stats.operations}


def bench_substrate_sort(num_records: int, repeats: int) -> dict:
    """External merge sort of random integers (mirrors ``bench_substrate.py``)."""
    data = [random.Random(0).randrange(10**6) for _ in range(num_records)]
    params = MachineParams(512, 16)
    times: list[float] = []
    stats = IOStats()
    for _ in range(repeats):
        machine = Machine(params, IOStats())
        file = machine.file_from_records(data)
        started = time.perf_counter()
        machine.sort(file)
        times.append(time.perf_counter() - started)
        stats = machine.stats
    return {
        "records": num_records,
        "machine": {"M": params.memory_words, "B": params.block_words},
        "wall_seconds": min(times),
        "io": _io_dict(stats),
    }


def bench_cache_aware(num_edges: int, repeats: int) -> dict:
    """End-to-end randomized cache-aware run on a seeded G(n, m) graph."""
    graph = erdos_renyi_gnm(max(64, num_edges * 3 // 10), num_edges, seed=7)
    params = MachineParams(2048, 32)
    times: list[float] = []
    stats = IOStats()
    triangles = 0
    for _ in range(repeats):
        machine = Machine(params, IOStats())
        edge_file, _order = graph_to_file(machine, graph)
        sink = CountingSink()
        started = time.perf_counter()
        cache_aware_randomized(machine, edge_file, sink, seed=0)
        times.append(time.perf_counter() - started)
        stats = machine.stats
        triangles = sink.count
    return {
        "edges": num_edges,
        "machine": {"M": params.memory_words, "B": params.block_words},
        "wall_seconds": min(times),
        "triangles": triangles,
        "io": _io_dict(stats),
    }


def bench_simulated(algorithm: str, num_edges: int, repeats: int) -> dict:
    """One engine run of ``algorithm`` on a seeded G(n, m) graph at (M=256, B=16).

    Used for the algorithms whose time goes into simulating each access:
    ``cache_oblivious`` (every element access replayed through the LRU
    cache) and ``deterministic`` (the greedy colouring's candidate sweep).
    """
    graph = erdos_renyi_gnm(max(64, num_edges * 3 // 10), num_edges, seed=7)
    params = MachineParams(256, 16)
    engine = TriangleEngine(graph, params=params)
    times: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = engine.run(algorithm, seed=0)
        times.append(time.perf_counter() - started)
    return {
        "edges": num_edges,
        "machine": {"M": params.memory_words, "B": params.block_words},
        "wall_seconds": min(times),
        "triangles": result.triangle_count,
        "io": {
            "reads": result.io.reads,
            "writes": result.io.writes,
            "operations": result.io.operations,
        },
    }


#: Algorithms swept by the engine-reuse benchmark (the ``compare`` path).
_ENGINE_SWEEP = ("cache_aware", "hu_tao_chung", "dementiev")


def bench_engine_reuse(num_edges: int, repeats: int) -> dict:
    """Engine reuse vs per-run canonicalisation on the compare/sweep path.

    Runs the same three algorithms on one seeded graph twice per repetition:
    once through a shared :class:`TriangleEngine` (the graph is
    canonicalised once) and once through the one-shot
    ``enumerate_triangles`` wrapper (which re-canonicalises per call, the
    pre-engine behaviour of ``repro compare``).  The simulated counters of
    the engine path are pinned as golden; the reuse speedup tracks the
    wall-clock win of hoisting canonicalisation.
    """
    graph = erdos_renyi_gnm(max(64, num_edges * 3 // 10), num_edges, seed=7)
    params = MachineParams(2048, 32)
    reuse_times: list[float] = []
    one_shot_times: list[float] = []
    io = {"reads": 0, "writes": 0, "operations": 0}
    triangles = 0
    for _ in range(repeats):
        started = time.perf_counter()
        engine = TriangleEngine(graph, params=params)
        results = [engine.run(algorithm, seed=0) for algorithm in _ENGINE_SWEEP]
        reuse_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        for algorithm in _ENGINE_SWEEP:
            enumerate_triangles(graph, algorithm=algorithm, params=params, seed=0, collect=False)
        one_shot_times.append(time.perf_counter() - started)

        io = {
            "reads": sum(result.io.reads for result in results),
            "writes": sum(result.io.writes for result in results),
            "operations": sum(result.io.operations for result in results),
        }
        triangles = results[0].triangle_count
    reuse_best, one_shot_best = min(reuse_times), min(one_shot_times)
    return {
        "edges": num_edges,
        "algorithms": list(_ENGINE_SWEEP),
        "machine": {"M": params.memory_words, "B": params.block_words},
        "wall_seconds": reuse_best,
        "one_shot_seconds": one_shot_best,
        "reuse_speedup": round(one_shot_best / reuse_best, 2) if reuse_best > 0 else None,
        "triangles": triangles,
        "io": io,
    }


def bench_fastpath(num_edges: int, repeats: int) -> dict:
    """Vectorized in-memory backend versus the pure-Python oracle.

    Measured through the public engine API in its documented usage: one
    :class:`TriangleEngine` per graph, many count-only runs against it.
    Three legs per repetition (best time kept): ``in_memory`` (the
    reference oracle, which rebuilds its dict-of-sets adjacency every run),
    ``vector_count`` (the registered count-only adapter over the per-engine
    cached CSR) and ``vector_enum`` (full enumeration into a counting
    sink).  ``cold_count_seconds`` records the first ``vector_count`` run
    separately -- it pays the one-time array packing + CSR build that every
    later run of the same engine skips.

    No simulated machine is involved, so the ``io`` triple is identically
    zero and the pinned golden reduces to the triangle count; the quantity
    tracked across PRs is ``count_speedup``.  Falls back to the pure-Python
    path (speedup ~1x) when NumPy is not installed -- the counters stay
    identical either way.
    """
    from repro.fastpath import HAVE_NUMPY

    graph = erdos_renyi_gnm(max(64, num_edges * 3 // 10), num_edges, seed=7)
    edges = graph.degree_order().edges
    engine = TriangleEngine.from_canonical_edges(edges, validate=False)
    started = time.perf_counter()
    triangles = engine.count("vector_count")
    cold_seconds = time.perf_counter() - started
    oracle_times: list[float] = []
    count_times: list[float] = []
    enum_times: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        oracle = engine.count("in_memory")
        oracle_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        counted = engine.count("vector_count")
        count_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        enumerated = engine.count("vector_enum")
        enum_times.append(time.perf_counter() - started)
        assert counted == oracle == enumerated == triangles, "fastpath drifted from the oracle"
    oracle_best = min(oracle_times)
    count_best = min(count_times)
    enum_best = min(enum_times)
    return {
        "edges": num_edges,
        "backend": "numpy" if HAVE_NUMPY else "python",
        "machine": {"M": 0, "B": 0},  # in-memory: no simulated machine
        "wall_seconds": count_best,
        "oracle_seconds": oracle_best,
        "enum_seconds": enum_best,
        "cold_count_seconds": round(cold_seconds, 6),
        "count_speedup": round(oracle_best / count_best, 2) if count_best > 0 else None,
        "enum_speedup": round(oracle_best / enum_best, 2) if enum_best > 0 else None,
        "triangles": triangles,
        "io": {"reads": 0, "writes": 0, "operations": 0},
    }


def _lpt_makespan(durations: list[float], workers: int) -> float:
    """Longest-processing-time-first makespan of ``durations`` on ``workers``."""
    loads = [0.0] * max(1, workers)
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


def bench_shard_scaling(num_edges: int, repeats: int, shards: int, jobs: int) -> dict:
    """Serial vs colour-sharded cache-aware run (same colouring, same counters).

    The serial leg runs ``cache_aware`` with ``num_colors=shards`` (the
    identical algorithm instance); the sharded legs distribute its colour
    triples over ``jobs`` workers.  Aggregated simulated counters are
    bit-identical by construction (``counters_match_serial`` asserts it), so
    only wall-clock moves.  The machine is the paper's regime of interest
    (``E >> M``: M=512, B=16, as in the substrate sort bench), where the
    triple-enumeration phase dominates the run.

    Four legs, best time kept: serial; sharded ``jobs=1`` (clean,
    uncontended per-shard wall times plus the counter-parity check);
    sharded ``jobs=N`` on a fresh spawn pool per run (``spawn_seconds``,
    the PR 4 execution tier); and sharded ``jobs=N`` on the *persistent*
    pool (``wall_seconds``, the headline leg) -- one untimed warm-up run
    pays worker startup and publishes the graph segment, then every timed
    repetition rides the warm workers and the deduplicated shared-memory
    segment.  ``speedup_vs_serial`` is the measured persistent ratio on
    this host, the number the CI shard-scaling job gates
    (``--gate-shard-speedup``).  A single-core container (see
    ``cpu_cores``) cannot beat serial with process parallelism, so
    ``projected_speedup`` gives a multi-core estimate built entirely from
    single-core measurements: serial time divided by (the serial remainder
    outside the triples phase + the ``jobs``-worker LPT makespan of the
    jobs=1 per-shard times).  No startup term: the warm pool has already
    paid it (``worker_startup_seconds`` and the full serialised
    ``pool_spawn_seconds`` are still reported for the spawn leg).
    """
    graph = erdos_renyi_gnm(max(64, num_edges * 3 // 10), num_edges, seed=7)
    params = MachineParams(512, 16)
    engine = TriangleEngine(graph, params=params)
    serial_times: list[float] = []
    inline_times: list[float] = []
    spawn_times: list[float] = []
    warm_times: list[float] = []
    io = {"reads": 0, "writes": 0, "operations": 0}
    triangles = 0
    counters_match = True
    shard_seconds: list[float] = []
    # Untimed warm-up: boots the persistent workers and publishes the edge
    # segment, so the timed persistent runs measure steady state.
    engine.run("cache_aware", seed=0, shards=shards, jobs=jobs, pool="persistent")
    for _ in range(repeats):
        started = time.perf_counter()
        serial = engine.run("cache_aware", seed=0, options={"num_colors": shards})
        serial_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        inline = engine.run("cache_aware", seed=0, shards=shards, jobs=1)
        inline_wall = time.perf_counter() - started

        started = time.perf_counter()
        spawned = engine.run("cache_aware", seed=0, shards=shards, jobs=jobs, pool="spawn")
        spawn_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        warm = engine.run("cache_aware", seed=0, shards=shards, jobs=jobs, pool="persistent")
        warm_times.append(time.perf_counter() - started)

        counters_match = counters_match and serial.io == inline.io == spawned.io == warm.io
        io = {
            "reads": warm.io.reads,
            "writes": warm.io.writes,
            "operations": warm.io.operations,
        }
        triangles = warm.triangle_count
        # Keep the shard timings of the *best* inline repetition, matching
        # the best-time-kept convention of every benchmark in this file.
        if not inline_times or inline_wall < min(inline_times):
            shard_seconds = list(inline.sharding.shard_seconds)
        inline_times.append(inline_wall)
    engine.close()  # unlink the published segments before the next benchmark
    serial_best, warm_best = min(serial_times), min(warm_times)
    spawn_best = min(spawn_times)
    pool_spawn = min(_pool_spawn_seconds(jobs) for _ in range(repeats))
    worker_startup = min(_pool_spawn_seconds(1) for _ in range(repeats))
    serial_remainder = max(serial_best - sum(shard_seconds), 0.0)
    projected_wall = serial_remainder + _lpt_makespan(shard_seconds, jobs)
    return {
        "edges": num_edges,
        "shards": shards,
        "jobs": jobs,
        "cpu_cores": _available_cores(),
        "machine": {"M": params.memory_words, "B": params.block_words},
        "wall_seconds": warm_best,
        "serial_seconds": serial_best,
        "sharded_inline_seconds": min(inline_times),
        "spawn_seconds": spawn_best,
        "speedup_vs_serial": round(serial_best / warm_best, 2) if warm_best > 0 else None,
        "spawn_speedup_vs_serial": (
            round(serial_best / spawn_best, 2) if spawn_best > 0 else None
        ),
        "projected_speedup": round(serial_best / projected_wall, 2) if projected_wall > 0 else None,
        "pool_spawn_seconds": round(pool_spawn, 3),
        "worker_startup_seconds": round(worker_startup, 3),
        "num_shards": len(shard_seconds),
        "counters_match_serial": counters_match,
        "triangles": triangles,
        "io": io,
    }


def _available_cores() -> int:
    """CPU cores available to this process (affinity-aware where supported)."""
    if hasattr(os, "sched_getaffinity"):  # Linux; absent on macOS/Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _host_facts() -> dict[str, Any]:
    """The host a run's wall times come from: cores, Python and NumPy versions."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_cores": _available_cores(),
    }


def _pool_spawn_seconds(jobs: int) -> float:
    """Measured cost of standing up (and tearing down) a spawn pool of ``jobs``."""
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    started = time.perf_counter()
    with context.Pool(processes=jobs) as pool:
        pool.map(int, range(jobs))
    return time.perf_counter() - started


def run_all(
    num_records: int,
    num_edges: int,
    repeats: int,
    shards: int,
    jobs: int,
    fastpath_edges: int,
    oblivious_edges: int,
    deterministic_edges: int,
    only: str | None = None,
) -> dict[str, dict]:
    """Run the benchmarks (lazily), optionally filtered by name substring."""
    thunks: dict[str, Any] = {
        f"substrate_sort_{num_records // 1000}k": lambda: bench_substrate_sort(
            num_records, repeats
        ),
        f"cache_aware_e{num_edges // 1000}k": lambda: bench_cache_aware(num_edges, repeats),
        f"engine_reuse_e{num_edges // 5}": lambda: bench_engine_reuse(num_edges // 5, repeats),
        f"shard_scaling_e{num_edges // 1000}k": lambda: bench_shard_scaling(
            num_edges, repeats, shards, jobs
        ),
        f"fastpath_e{fastpath_edges // 1000}k": lambda: bench_fastpath(fastpath_edges, repeats),
        f"cache_oblivious_e{oblivious_edges}": lambda: bench_simulated(
            "cache_oblivious", oblivious_edges, repeats
        ),
        f"deterministic_e{deterministic_edges}": lambda: bench_simulated(
            "deterministic", deterministic_edges, repeats
        ),
    }
    selected = {name: thunk for name, thunk in thunks.items() if only is None or only in name}
    if not selected:
        raise SystemExit(f"--only {only!r} matches no benchmark; available: {', '.join(thunks)}")
    return {name: thunk() for name, thunk in selected.items()}


def _speedups(runs: dict) -> dict[str, dict[str, float]]:
    """Wall-clock speedup of ``after`` over ``before`` per shared benchmark."""
    if "before" not in runs or "after" not in runs:
        return {}
    before = runs["before"]["benchmarks"]
    after = runs["after"]["benchmarks"]
    speedups: dict[str, dict[str, float]] = {}
    for name in sorted(set(before) & set(after)):
        b, a = before[name]["wall_seconds"], after[name]["wall_seconds"]
        if a > 0:
            speedups[name] = {
                "before_seconds": b,
                "after_seconds": a,
                "speedup": round(b / a, 2),
            }
    return speedups


def _golden_entry(result: dict) -> dict:
    """The deterministic subset of a benchmark result worth pinning."""
    entry = {"io": dict(result["io"])}
    if "triangles" in result:
        entry["triangles"] = result["triangles"]
    return entry


def check_against_golden(benchmarks: dict[str, dict], golden: dict[str, dict]) -> list[str]:
    """Compare measured counters against pinned ones; returns drift messages."""
    problems: list[str] = []
    for name, result in benchmarks.items():
        if name not in golden:
            problems.append(f"{name}: no golden counters pinned")
            continue
        pinned = golden[name]
        for field in CHECKED_FIELDS:
            measured = result["io"][field]
            expected = pinned["io"].get(field)
            if measured != expected:
                problems.append(f"{name}: {field} drifted (golden {expected}, measured {measured})")
        if "triangles" in pinned and pinned["triangles"] != result.get("triangles"):
            problems.append(
                f"{name}: triangles drifted (golden {pinned['triangles']}, "
                f"measured {result.get('triangles')})"
            )
    return problems


def persist_artifacts(benchmarks: dict[str, dict], results_dir: str, mode: str) -> None:
    """Store each benchmark result as a ``repro-run/v1`` artifact."""
    store = ResultStore(results_dir)
    for name, result in benchmarks.items():
        spec = make_spec(
            "bench",
            name=name,
            mode=mode,
            machine=result["machine"],
            records=result.get("records"),
            edges=result.get("edges"),
        )
        store.put(spec, result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after", help="label for this run (e.g. before/after)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--edges", type=int, help="override the end-to-end edge count")
    parser.add_argument("--records", type=int, help="override the sort record count")
    parser.add_argument("--repeats", type=int, help="repetitions (best time kept)")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized inputs (a few seconds total)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare counters against the pinned golden values and exit non-zero on drift "
        "(does not update the runs section)",
    )
    parser.add_argument(
        "--pin-golden",
        action="store_true",
        help="(re)pin the golden counters for this mode from the current measurement",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="experiment result store to mirror benchmark artifacts into ('' disables)",
    )
    parser.add_argument(
        "--only",
        help="run only benchmarks whose name contains this substring "
        "(e.g. --only fastpath); --pin-golden merges rather than replaces, "
        "so a filtered pin never drops other benchmarks' golden counters",
    )
    parser.add_argument(
        "--gate-shard-speedup",
        type=float,
        metavar="X",
        help="exit non-zero unless the shard-scaling benchmark's measured "
        "persistent-pool speedup_vs_serial is at least X (the CI "
        "shard-scaling job gates 1.3 on a 4-core runner); the results "
        "file is still written first so the artifact records the miss",
    )
    args = parser.parse_args(argv)
    if args.check and args.pin_golden:
        parser.error("--check and --pin-golden are mutually exclusive; pin first, then check")

    mode = "smoke" if args.smoke else "full"
    sizes = SIZES[mode]
    num_records = args.records if args.records is not None else sizes["records"]
    num_edges = args.edges if args.edges is not None else sizes["edges"]
    repeats = args.repeats if args.repeats is not None else sizes["repeats"]

    benchmarks = run_all(
        num_records,
        num_edges,
        repeats,
        sizes["shards"],
        sizes["jobs"],
        sizes["fastpath_edges"],
        sizes["oblivious_edges"],
        sizes["deterministic_edges"],
        only=args.only,
    )
    if args.results_dir:
        persist_artifacts(benchmarks, args.results_dir, mode)

    for name, result in benchmarks.items():
        io = result["io"]
        print(
            f"  {name}: {result['wall_seconds'] * 1000:.1f} ms  "
            f"(reads={io['reads']}, writes={io['writes']}, operations={io['operations']})"
        )

    data: dict = {}
    if args.output.exists():
        data = json.loads(args.output.read_text())

    if args.check:
        golden = data.get("golden", {}).get(mode, {})
        problems = check_against_golden(benchmarks, golden)
        if problems:
            for problem in problems:
                print(f"DRIFT {problem}", file=sys.stderr)
            print(
                f"counter regression against BENCH_substrate.json golden[{mode!r}]; "
                "if intentional, re-pin with --pin-golden",
                file=sys.stderr,
            )
            return 1
        print(f"counters match golden[{mode!r}] ({len(benchmarks)} benchmarks)")
        return 0

    if args.pin_golden:
        # Merge, not replace: a --only-filtered pin must never drop the
        # golden counters of benchmarks that did not run.
        data.setdefault("golden", {}).setdefault(mode, {}).update(
            {name: _golden_entry(result) for name, result in benchmarks.items()}
        )
    else:
        # Merge into an existing label (same semantics as --pin-golden): a
        # --only-filtered run must never drop the label's other recorded
        # benchmarks from the cross-PR trajectory.
        runs = data.setdefault("runs", {})
        entry = runs.setdefault(args.label, {"benchmarks": {}})
        entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        entry.update(_host_facts())
        entry.setdefault("benchmarks", {}).update(benchmarks)
        data["speedup"] = _speedups(runs)
    atomic_write_json(args.output, data)

    print(f"[{'golden:' + mode if args.pin_golden else args.label}] wrote {args.output}")
    for name, entry in data.get("speedup", {}).items():
        print(f"  speedup {name}: {entry['speedup']}x")

    if args.gate_shard_speedup is not None:
        return _gate_shard_speedup(benchmarks, args.gate_shard_speedup)
    return 0


def _gate_shard_speedup(benchmarks: dict[str, dict], floor: float) -> int:
    """CI gate: the measured persistent-pool shard speedup must clear ``floor``."""
    scaling = {n: r for n, r in benchmarks.items() if n.startswith("shard_scaling")}
    if not scaling:
        print(
            "GATE --gate-shard-speedup given but no shard_scaling benchmark ran "
            "(check --only)",
            file=sys.stderr,
        )
        return 1
    status = 0
    for name, result in scaling.items():
        speedup = result.get("speedup_vs_serial")
        if not result.get("counters_match_serial"):
            print(f"GATE {name}: sharded counters diverged from serial", file=sys.stderr)
            status = 1
        elif speedup is None or speedup < floor:
            print(
                f"GATE {name}: persistent-pool speedup {speedup}x is below the "
                f"{floor}x floor (serial {result['serial_seconds']:.3f}s, "
                f"persistent {result['wall_seconds']:.3f}s, "
                f"{result['cpu_cores']} cores)",
                file=sys.stderr,
            )
            status = 1
        else:
            print(f"GATE {name}: {speedup}x >= {floor}x ({result['cpu_cores']} cores)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
