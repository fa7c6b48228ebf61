"""Self-test of the calibration guard: a fixed slice under a competing busy process.

Runs one fixed workload slice (``cache_aware`` on a fixed 8k-edge power-law
graph) with this process pinned to one CPU, first alone, then while a busy
process spins on the same CPU.  Raw seconds must move (the slice gets about
half the CPU) while the normalised metric holds, and the calibration guard
must flag the busy samples -- the signal that catches a change which leaves
a busy thread or process behind.

Run it with ``python3 perfbench/run.py --selftest``; it prints one JSON
object and exits 0 when the guard behaves as described.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from harness import Calibrator, Tracer, median
from inputs import chung_lu_edges

SAMPLES = 9
BUSY_LOOP = "import os, sys\nos.sched_setaffinity(0, {int(sys.argv[1])})\nwhile True:\n    pass\n"


def _measure(engine, params, cal: Calibrator) -> tuple[list[float], list[float]]:
    raw, normalised = [], []
    for _ in range(SAMPLES):
        factor = cal.factor("py")
        started = time.perf_counter()
        engine.run("cache_aware", params=params)
        elapsed = time.perf_counter() - started
        raw.append(elapsed)
        normalised.append(elapsed * factor)
    return raw, normalised


def main() -> int:
    from repro.analysis.model import MachineParams
    from repro.core.engine import TriangleEngine

    cpu = min(os.sched_getaffinity(0))
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    engine = TriangleEngine(chung_lu_edges(3000, 8000, seed=0))
    params = MachineParams(2048, 32)
    engine.run("cache_aware", params=params)  # warm
    quiet_cal = Calibrator(Tracer(False))
    quiet_raw, quiet_norm = _measure(engine, params, quiet_cal)
    busy = subprocess.Popen([sys.executable, "-c", BUSY_LOOP, str(cpu)])
    try:
        time.sleep(0.5)
        busy_cal = Calibrator(Tracer(False))
        busy_raw, busy_norm = _measure(engine, params, busy_cal)
    finally:
        busy.kill()
        busy.wait()
        os.sched_setaffinity(0, original)
    raw_ratio = median(busy_raw) / median(quiet_raw)
    normalised_ratio = median(busy_norm) / median(quiet_norm)
    report = {
        "raw_quiet_s": median(quiet_raw),
        "raw_busy_s": median(busy_raw),
        "raw_ratio": raw_ratio,
        "normalised_ratio": normalised_ratio,
        "calib_py_ms_quiet": quiet_cal.median_ms("py"),
        "calib_py_ms_busy": busy_cal.median_ms("py"),
        "flagged_quiet": quiet_cal.flagged,
        "flagged_busy": busy_cal.flagged,
    }
    report["passed"] = (
        raw_ratio > 1.3
        and abs(normalised_ratio - 1.0) < 0.15
        and busy_cal.flagged > SAMPLES // 2
    )
    print(json.dumps(report))
    return 0 if report["passed"] else 1
