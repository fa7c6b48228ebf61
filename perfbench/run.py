#!/usr/bin/env python3
"""The repository's end-to-end benchmark, host-normalised, with a layer trace.

Usage::

    python3 perfbench/run.py --workload sim-powerlaw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, each in a fresh process
    python3 perfbench/run.py --selftest      # calibration guard under a busy process

Each workload generates its inputs from ``--seed``, sets the program up
several times (reporting the median set-up time), then runs rounds for
``--seconds`` seconds.  Every timed number is normalised by a calibration
loop timed just before it (see ``harness.py``).  Answers are checked
outside the timed sections; a wrong answer or an exception is a failed
operation, and any failure makes the command exit 1.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
traced and untraced rounds alternate, spans around each layer's public
calls are kept in memory, and the metrics are the per-layer ones (self
times, counts, tracing overhead).  The spans are written as Chrome
trace-event JSON under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    CALIBRATIONS,
    SETUP_ROUND,
    SRC,
    WORK_ROOT,
    Calibrator,
    Outcome,
    Tracer,
    become_subreaper,
    host_facts,
    median,
    reap_children,
)

# Registered before anything imports ``repro`` or ``multiprocessing``, so it
# runs after their exit handlers: every process a run starts has ended
# when the benchmark exits.
atexit.register(reap_children)

WORKLOADS = {
    "sim-powerlaw": "sim_powerlaw",
    "array-powerlaw": "array_powerlaw",
    "service-mixed": "service_mixed",
}

#: End-to-end metrics, reported by every workload (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "round_s": "s",
    "ops_per_s": "1/s",
}

#: Per-layer metrics, reported by every workload (``--trace 1``); a layer a
#: workload does not exercise reads 0 there.
PER_LAYER = {
    # stages of each workload's round (untraced rounds of the traced run)
    "sim.cache_aware_s": "s",
    "sim.sharded_s": "s",
    "sim.deterministic_s": "s",
    "sim.cache_oblivious_s": "s",
    "sim.ios": "blocks",
    "array.ingest_s": "s",
    "array.count_s": "s",
    "array.oocore_s": "s",
    "service.rps": "1/s",
    "service.read_ms": "ms",
    "service.read_p99_ms": "ms",
    "service.write_ms": "ms",
    # graph
    "graph.build_s": "s",
    # extmem
    "extmem.load_s": "s",
    "extmem.machine_ops_per_s": "1/s",
    "extmem.vm_ops_per_s": "1/s",
    # core (Lemma 1, partition, Lemma 2) and derandomized
    "core.high_degree_s": "s",
    "core.high_degree_ios": "blocks",
    "core.partition_s": "s",
    "core.partition_ios": "blocks",
    "core.triples_s": "s",
    "core.triples_ios": "blocks",
    "core.greedy_coloring_s": "s",
    # poolexec / sharding / resilience
    "poolexec.spawn_s": "s",
    "poolexec.publish_s": "s",
    "poolexec.publish_bytes": "B",
    "core.shard_busy_s": "s",
    "core.shard_speedup": "x",
    "resilience.retries": "count",
    # fastpath
    "fastpath.canonicalize_s": "s",
    "fastpath.edge_list_s": "s",
    "fastpath.csr_build_s": "s",
    "fastpath.kernel_s": "s",
    "fastpath.wedges_probed": "count",
    "fastpath.hit_ratio": "ratio",
    "fastpath.bytes_computed": "B",
    "oocore.build_s": "s",
    "oocore.count_s": "s",
    "oocore.spill_bytes": "B",
    "oocore.peak_rss_mib": "MiB",
    # service
    "service.http_read_ms": "ms",
    "service.manager_read_ms": "ms",
    "service.register_ms": "ms",
    "service.first_count_ms": "ms",
    "service.memo_hit_ratio": "ratio",
    "service.jobs_executed": "count",
    "service.server_rss_growth_mib": "MiB",
    # the benchmark itself
    "bench.calib_py_ms": "ms",
    "bench.calib_np_ms": "ms",
    "bench.calib_flagged": "count",
    "bench.raw_round_s": "s",
    "bench.child_coverage": "ratio",
    "bench.trace_overhead.setup_s": "x",
    "bench.trace_overhead.round_s": "x",
    "bench.trace_overhead.ops_per_s": "x",
    "bench.trace_overhead.peak_rss_mib": "x",
}


def _totals(rounds: list[dict[str, Any]]) -> list[float]:
    return [sum(entry["norm"].values()) for entry in rounds]


def assemble(
    raw: dict[str, Any], tracer: Tracer, cal: Calibrator
) -> tuple[dict[str, float], dict[str, float]]:
    """Turn a workload's samples into end-to-end and per-layer metrics."""
    untraced = [entry for entry in raw["rounds"] if not entry["traced"]]
    traced = [entry for entry in raw["rounds"] if entry["traced"]]
    setup_plain = [seconds for was_traced, seconds in raw["setup"] if not was_traced]
    totals = _totals(untraced)
    ops = raw["ops_per_round"]
    end_to_end = {
        "setup_s": median(setup_plain),
        "peak_rss_mib": raw["peak_rss_mib"],
        "round_s": median(totals),
        "ops_per_s": ops / median(totals),
    }
    stages = {
        f"{raw['prefix']}.{stage}_s": median([entry["norm"][stage] for entry in untraced])
        for stage in untraced[0]["norm"]
    }
    stages.update(raw.get("stages", {}))
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update({name: value for name, value in stages.items() if name in PER_LAYER})
    layer.update(raw["layer"])
    layer["bench.calib_py_ms"] = cal.median_ms("py")
    layer["bench.calib_np_ms"] = cal.median_ms("np")
    layer["bench.calib_flagged"] = cal.flagged
    layer["bench.raw_round_s"] = median([sum(entry["raw"].values()) for entry in untraced])
    if tracer.enabled and traced:
        # Span self times are raw seconds; scale them by the run's calibration.
        kind = raw["calibration"]
        scale = CALIBRATIONS[kind][1] / cal.median_ms(kind)
        round_ids = {index for index, entry in enumerate(raw["rounds"]) if entry["traced"]}
        setup_ids = {span.round_id for span in tracer.spans if span.round_id >= SETUP_ROUND}
        for ids in (round_ids, setup_ids):
            for name, values in tracer.self_time_by_name(ids).items():
                metric = f"{name}_s"
                if metric in PER_LAYER and not metric.startswith(("sim.", "array.")):
                    layer[metric] = median(values) * scale
        traced_totals = _totals(traced)
        setup_traced = [seconds for was_traced, seconds in raw["setup"] if was_traced]
        layer["bench.child_coverage"] = tracer.coverage(raw["stage_spans"])
        layer["bench.trace_overhead.round_s"] = median(traced_totals) / median(totals)
        layer["bench.trace_overhead.ops_per_s"] = median(totals) / median(traced_totals)
        # The first repetition is the coldest; compare warm ones only.
        layer["bench.trace_overhead.setup_s"] = median(setup_traced) / median(setup_plain[1:])
        layer["bench.trace_overhead.peak_rss_mib"] = 1.0 + tracer.buffer_mib() / raw["peak_rss_mib"]
    return end_to_end, layer


def run_workload(args: argparse.Namespace) -> int:
    module = importlib.import_module(WORKLOADS[args.workload])
    work = WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Temporary files of the program and its child processes stay in the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    tracer = Tracer(bool(args.trace))
    cal = Calibrator(tracer)
    outcome = Outcome()
    raw: dict[str, Any] | None = None
    try:
        raw = module.run(args.seconds, args.seed, tracer, cal, outcome, work)
    except Exception:  # the run is over: report the failure, print no metrics
        outcome.fail(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host_facts()}))
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if cal.flagged:
        print(
            f"WARNING: {cal.flagged} calibration samples far from the pinned reference "
            f"(py {cal.median_ms('py'):.1f} ms, np {cal.median_ms('np'):.1f} ms)",
            file=sys.stderr,
        )
    metrics: dict[str, Any] = {}
    if raw is not None:
        end_to_end, layer = assemble(raw, tracer, cal)
        stages = {name: value for name, value in layer.items() if name.startswith(raw["prefix"])}
        print(
            json.dumps(
                {
                    "samples": len(raw["rounds"]),
                    "setup_samples": len(raw["setup"]),
                    "stages": stages,
                    "calibration": raw["calibration"],
                    "raw_round_s": layer["bench.raw_round_s"],
                    "calib_ms": cal.median_ms(raw["calibration"]),
                }
            )
        )
        chosen = (layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
        metrics = {name: {"value": chosen[0][name], "unit": unit} for name, unit in chosen[1].items()}
        if args.trace:
            trace_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write_chrome(trace_path, f"perfbench {args.workload}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.failed == 0 and raw is not None else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; exit 1 if any failed."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, check=False)
        status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the calibration guard self-test")
    args = parser.parse_args(argv)
    become_subreaper()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the program's sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
