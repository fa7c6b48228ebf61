"""Shared machinery of the benchmark: calibration, tracing, statistics, hygiene.

Nothing here imports ``repro``: the calibration loops must measure the host,
not the program, and the tracer must work the same whichever layer it wraps.

Host normalisation
------------------
Host speed on a small shared VM drifts in windows of seconds, so a raw
wall time mixes the program's cost with the host's mood.  Just before each
sample the benchmark times a fixed calibration loop and reports::

    normalised = raw * (pinned_reference / calibration_time)

Two loops exist because interpreter-bound and array-bound code track
different parts of the host: :func:`calib_py` sorts, merges and tallies
Python tuples, :func:`calib_np` mixes Python with a NumPy sort.  A sample whose
calibration is far from the pinned reference is flagged: a busy thread or
process left behind by a change would slow the calibration and flatter
every normalised number, and the flag makes that visible.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Calibration medians (ms) of a quiet run on the reference host (2-core
#: Intel Xeon VM, Python 3.11.7, NumPy 2.4.6).  Normalised times read as
#: "seconds on that host".
REF_CALIB_PY_MS = 7.0
REF_CALIB_NP_MS = 4.5
#: A calibration slower or faster than the reference by this factor flags
#: the sample (see the module docstring).
CALIB_FLAG_FACTOR = 2.0
#: Repetitions of the calibration loop per sample.
CALIB_REPS = 3

#: Set-up repetitions per run (the median is reported); trace mode adds
#: one, so traced and untraced repetitions alternate four and four.
SETUP_REPS = 7
#: Round ids of set-up repetitions in the trace (measured rounds count from 0).
SETUP_ROUND = 100_000

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of one run (spill files, server results, traces) inside
#: the checkout; the per-run subdirectory is removed at exit.
WORK_ROOT = ROOT / ".perfbench"


def calib_py() -> float:
    """Seconds of a fixed interpreter-bound loop.

    Sorted runs of integer pairs, a ``heapq`` merge and dict updates: the
    instruction mix of the simulated external-memory machine (block
    sorts, run merges, per-vertex tallies), with no ``repro`` import.
    """
    started = time.perf_counter()
    value = 1
    rows = []
    for _ in range(3_000):
        value = (value * 1_103_515_245 + 12_345) & 0x7FFFFFFF
        rows.append((value % 1_000, value // 1_000 % 1_000))
    tally: dict[int, int] = {}
    for _ in range(3):
        runs = [sorted(rows[start : start + 300]) for start in range(0, len(rows), 300)]
        for u, v in heapq.merge(*runs):
            tally[u] = tally.get(u, 0) + v
    if len(tally) > 1_000:  # keeps the loop's result live
        raise RuntimeError("calibration loop miscounted")
    return time.perf_counter() - started


def calib_np() -> float:
    """Seconds of a fixed mixed loop: Python list work plus NumPy sorts."""
    import numpy

    started = time.perf_counter()
    base = (numpy.arange(120_000, dtype=numpy.int64) * 2_654_435_761) % 1_000_003
    total = 0
    for round_index in range(2):
        keys = numpy.sort(base ^ round_index)
        total += int(keys[::997].sum())
        total += sum(int(item) & 7 for item in keys[:6_000].tolist())
    if total < 0:  # keeps the loop's result live
        raise RuntimeError("calibration loop miscounted")
    return time.perf_counter() - started


CALIBRATIONS: dict[str, tuple[Callable[[], float], float]] = {
    "py": (calib_py, REF_CALIB_PY_MS),
    "np": (calib_np, REF_CALIB_NP_MS),
}


class Calibrator:
    """Times a calibration loop before each sample and normalises the sample."""

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {"py": [], "np": []}
        self.flagged = 0

    def factor(self, kind: str) -> float:
        """Run the ``kind`` loop now; return ``reference / measured``."""
        loop, reference_ms = CALIBRATIONS[kind]
        # The fastest of a few short repetitions: an interrupt inside one
        # repetition says nothing about the host's speed.
        with self.tracer.span("bench.calibrate"):
            measured_ms = min(loop() for _ in range(CALIB_REPS)) * 1000.0
        self.samples[kind].append(measured_ms)
        ratio = measured_ms / reference_ms
        if ratio > CALIB_FLAG_FACTOR or ratio < 1.0 / CALIB_FLAG_FACTOR:
            self.flagged += 1
        return reference_ms / measured_ms

    def both(self) -> None:
        """Sample both loops once (so every run reports both medians)."""
        self.factor("py")
        self.factor("np")

    def median_ms(self, kind: str) -> float:
        values = self.samples[kind]
        return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round_id: int
    span_id: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans are written out only at exit.

    A disabled tracer records nothing and costs one attribute test per
    span, so the untraced code path is the traced one with spans off.
    """

    def __init__(self, enabled: bool) -> None:
        #: Trace mode of the run; ``recording`` switches spans on and off
        #: inside it, so traced and untraced samples alternate in one run.
        self.enabled = enabled
        self.recording = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self.round_id = -1

    @contextmanager
    def sample(self, traced: bool, round_id: int) -> Iterator[None]:
        """Record spans (tagged ``round_id``) only if ``traced``."""
        self.recording, self.round_id = traced, round_id
        try:
            yield
        finally:
            self.recording, self.round_id = False, -1

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        if not self.recording:
            yield args
            return
        with self._lock:
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = Span(name, time.perf_counter(), 0.0, parent, self.round_id, span_id, args)
            self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record.args
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def current(self) -> int | None:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    def add(
        self, name: str, start: float, end: float, parent: int | None, round_id: int, **args: Any
    ) -> None:
        """Record a finished span measured elsewhere (e.g. on a client thread)."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, round_id, len(self.spans), args))

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` with every call recorded as a ``name`` span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def patched(self, probes: list[tuple[Any, str, str]]) -> Iterator[None]:
        """Temporarily replace ``owner.attr`` by a span-recording wrapper.

        Used to time public layer functions that the engine calls from its
        own modules; the originals are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name in probes:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: dict[int, float] = {}
        for span in self.spans:
            result[span.span_id] = span.duration - covered(children.get(span.span_id, []))
        return result

    def coverage(self, parent_names: set[str]) -> float:
        """Median share of a parent span's wall time its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        shares = [
            covered(children[span.span_id]) / span.duration
            for span in self.spans
            if span.name in parent_names and span.span_id in children and span.duration > 0
        ]
        return statistics.median(shares) if shares else 0.0

    def self_time_by_name(self, round_ids: set[int]) -> dict[str, list[float]]:
        """Per span name, the summed self time of each listed round."""
        own = self.self_times()
        per_round: dict[str, dict[int, float]] = {}
        for span in self.spans:
            if span.round_id in round_ids:
                bucket = per_round.setdefault(span.name, {})
                bucket[span.round_id] = bucket.get(span.round_id, 0.0) + own[span.span_id]
        return {name: list(rounds.values()) for name, rounds in per_round.items()}

    def buffer_mib(self) -> float:
        """Approximate resident size of the span buffer."""
        per_span = sys.getsizeof(Span("", 0.0, 0.0, None, 0, 0)) + 232
        return len(self.spans) * per_span / 2**20

    def write_chrome(self, path: Path, process_name: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": process_name}}
        ]
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": span.args.get("tid", 0),
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {
                        "id": span.span_id,
                        "parent": span.parent,
                        "round": span.round_id,
                        **{key: _jsonable(value) for key, value in span.args.items()},
                    },
                }
            )
        from repro.experiments.store import atomic_write_json

        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, {"traceEvents": events, "displayTimeUnit": "ms"})


def covered(spans: list[Span]) -> float:
    """Length of the union of the spans' ``[start, end]`` intervals."""
    total = 0.0
    reach = float("-inf")
    for span in sorted(spans, key=lambda item: item.start):
        if span.end <= reach:
            continue
        total += span.end - max(span.start, reach)
        reach = span.end
    return total


def _jsonable(value: Any) -> Any:
    return value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)


# ----------------------------------------------------------------------
# statistics and process facts
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 on empty input)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def proc_status_mib(field_name: str, pid: int | str = "self") -> float:
    """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field_name)


def leaked_segments(pids: set[int]) -> list[str]:
    """``/dev/shm/repro-seg-<pid>-*`` segments created by any of ``pids``."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    leaked = []
    for name in names:
        parts = name.split("-")
        if name.startswith("repro-seg-") and len(parts) >= 4 and parts[2].isdigit():
            if int(parts[2]) in pids:
                leaked.append(name)
    return leaked


def host_facts() -> dict[str, Any]:
    """Facts that name the host a result was measured on."""
    import platform

    facts: dict[str, Any] = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level, index in (("l2", 2), ("l3", 3)):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        if path.exists():
            facts[level] = path.read_text().strip()
    return facts


#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the benchmark waits at exit for its children before killing them.
REAP_GRACE_S = 30.0


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so they can be waited for at exit.

    A process the program starts may outlive its own parent: the
    ``multiprocessing`` resource tracker of the ``repro serve`` subprocess,
    for one, exits only after the server has.  As a subreaper the
    benchmark inherits such orphans and :func:`reap_children` waits for them.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Pids of this process's live (not yet exited) children."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            children.append(int(entry))
    return children


def reap_children(grace: float = REAP_GRACE_S) -> None:
    """Stop this process's resource tracker, then wait for every child.

    The tracker is meant to outlive its creator; stopping it closes its
    pipe and waits for it.  Children still running after ``grace`` seconds
    are killed, and every child is waited for before this returns.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except Exception:  # a tracker that cannot be stopped is reaped below
            pass
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            print("WARNING: killed children still running at exit", file=sys.stderr)
            deadline = float("inf")
        time.sleep(0.01)


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)
