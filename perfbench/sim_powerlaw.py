"""Workload ``sim-powerlaw``: the paper's algorithms on the simulated machine.

Each round runs, on Chung-Lu power-law graphs (exponent 2.5):

* ``cache_aware`` at (M=2048, B=32) on a 20k-edge graph,
* the same call colour-sharded (``shards=2, jobs=2``) on the warm
  persistent pool,
* ``deterministic`` at (M=256, B=16) on two 1k-edge graphs,
* ``cache_oblivious`` at (M=256, B=16) on two 280-edge graphs.

The small algorithms run on two graphs each, so one seed's draw weighs
less in the stage's time.

``extmem``, ``core`` and ``hashing``/``derandomized`` do nearly all the
work; ``fastpath`` and ``service`` do none.  Set-up builds the engines
(``graph`` ingest), spawns the pool and warms its workers.  Traced rounds
replay ``cache_aware`` phase by phase on a fresh ``Machine`` and must
reproduce the engine's triangle count and I/O counters exactly.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from harness import SETUP_REPS, SETUP_ROUND, Calibrator, Outcome, Tracer, leaked_segments, median, proc_status_mib
from inputs import chung_lu_edges

#: (vertices, edges) of each graph.
GRAPHS = {
    "ca": (8000, 20000),
    "det0": (500, 1000),
    "det1": (500, 1000),
    "co0": (140, 280),
    "co1": (140, 280),
}
SHARDS = 2
JOBS = 2


@dataclass(frozen=True)
class Stage:
    """One call of a round: algorithm, machine, run options and graphs."""

    algorithm: str
    machine: str
    graphs: tuple[str, ...]
    options: dict[str, Any] = field(default_factory=dict)
    #: Traced rounds replay the algorithm phase by phase instead of calling
    #: the engine (only ``cache_aware``, whose phases are public).
    replay: bool = False
    #: ``(module, function, span)``: public layer functions the engine calls
    #: from its own modules, wrapped in spans during traced rounds.
    probes: tuple[tuple[str, str, str], ...] = ()

    @property
    def sharded(self) -> bool:
        return "shards" in self.options


STAGES = {
    "cache_aware": Stage("cache_aware", "ca", ("ca",), replay=True),
    "sharded": Stage(
        "cache_aware",
        "ca",
        ("ca",),
        {"shards": SHARDS, "jobs": JOBS, "pool": "persistent"},
        probes=(("repro.core.sharding", "publish_edges", "poolexec.publish"),),
    ),
    "deterministic": Stage(
        "deterministic",
        "small",
        ("det0", "det1"),
        probes=(
            ("repro.core.engine", "edges_to_file", "extmem.load"),
            ("repro.core.derandomized", "greedy_coloring", "core.greedy_coloring"),
        ),
    ),
    "cache_oblivious": Stage(
        "cache_oblivious",
        "small",
        ("co0", "co1"),
        probes=(("repro.core.engine", "edges_to_vector", "extmem.load"),),
    ),
}


def _params() -> dict[str, Any]:
    from repro.analysis.model import MachineParams

    return {"ca": MachineParams(2048, 32), "small": MachineParams(256, 16)}


def _io(result: Any) -> tuple[int, int, int]:
    return (result.io.reads, result.io.writes, result.io.operations)


class SimPowerlaw:
    def __init__(self, seed: int, tracer: Tracer, calibrator: Calibrator, outcome: Outcome) -> None:
        self.tracer = tracer
        self.cal = calibrator
        self.outcome = outcome
        self.edges = {
            key: chung_lu_edges(n, e, seed * 7919 + index)
            for index, (key, (n, e)) in enumerate(GRAPHS.items())
        }
        self.params = _params()
        # Import the layers outside the timed set-up, so every repetition
        # pays the same: a warm interpreter, a cold program state.
        import repro.core.engine  # noqa: F401
        import repro.core.sharding  # noqa: F401
        import repro.poolexec.pool  # noqa: F401

        self.engines: dict[str, Any] = {}
        self.layer: dict[str, list[float]] = {}

    # -- set-up ----------------------------------------------------------
    def _setup_once(self) -> float:
        from repro.core.engine import TriangleEngine
        from repro.poolexec.pool import shared_pool

        factor = self.cal.factor("py")
        started = time.perf_counter()
        with self.tracer.span("setup"):
            for key, edges in self.edges.items():
                with self.tracer.span("graph.build"):
                    self.engines[key] = TriangleEngine(edges)
            # Workers start lazily: the first sharded call (on a tiny graph)
            # spawns them and imports the shard code.
            with self.tracer.span("poolexec.spawn"):
                shared_pool().ensure(JOBS)
                self.engines["co0"].run(
                    "cache_aware", params=self.params["small"], shards=SHARDS, jobs=JOBS
                )
        return (time.perf_counter() - started) * factor

    def _teardown(self) -> None:
        from repro.poolexec.pool import shared_pool

        for engine in self.engines.values():
            engine.close()
        self.engines = {}
        shared_pool().shutdown()

    def setup(self, reps: int) -> list[tuple[bool, float]]:
        """Set up ``reps`` times; in trace mode every second rep is traced."""
        times = []
        for rep in range(reps):
            if rep:
                self._teardown()
            traced = self.tracer.enabled and rep % 2 == 1
            with self.tracer.sample(traced, SETUP_ROUND + rep):
                times.append((traced, self._setup_once()))
        return times

    # -- reference answers (outside every timed section) -----------------
    def references(self) -> None:
        self.oracle = {
            key: engine.count("in_memory") for key, engine in self.engines.items()
        }
        sharded = STAGES["sharded"]
        serial = self.engines[sharded.graphs[0]].run(
            sharded.algorithm, params=self.params[sharded.machine], num_colors=SHARDS
        )
        self.sharded_reference = (serial.triangle_count, _io(serial))
        self.expected_io: dict[tuple[str, str], tuple[int, int, int]] = {}

    # -- one round -------------------------------------------------------
    def _call(self, stage: str, key: str) -> Any:
        spec = STAGES[stage]
        return self.engines[key].run(spec.algorithm, params=self.params[spec.machine], **spec.options)

    def round(self, traced: bool) -> tuple[dict[str, float], dict[str, float], int]:
        """Run the four calls; return normalised and raw seconds, and sim I/Os."""
        normalised: dict[str, float] = {}
        raw: dict[str, float] = {}
        results: dict[str, list[Any]] = {}
        call = self._traced_call if traced else self._call
        for stage, spec in STAGES.items():
            factor = self.cal.factor("py")
            started = time.perf_counter()
            with self.tracer.span(f"sim.{stage}"):
                results[stage] = [call(stage, key) for key in spec.graphs]
            raw[stage] = time.perf_counter() - started
            normalised[stage] = raw[stage] * factor
        self._check(results, traced)
        self._layer_counts(results, traced)
        ios = sum(r.io.reads + r.io.writes for stage in results.values() for r in stage)
        return normalised, raw, ios

    def _check(self, results: dict[str, list[Any]], traced: bool) -> None:
        for stage, spec in STAGES.items():
            for key, result in zip(spec.graphs, results[stage]):
                self._check_one(stage, key, result, traced)

    def _check_one(self, stage: str, key: str, result: Any, traced: bool) -> None:
        expected = self.oracle[key]
        self.outcome.check(
            result.triangle_count == expected,
            f"{stage} on {key}: {result.triangle_count} triangles, oracle says {expected}",
        )
        io = _io(result)
        if STAGES[stage].sharded:
            self.outcome.check(
                (result.triangle_count, io) == self.sharded_reference,
                f"sharded counters {io} differ from serial num_colors={SHARDS} "
                f"{self.sharded_reference[1]}",
            )
            return
        reference = self.expected_io.setdefault((stage, key), io)
        label = "traced replay" if traced and STAGES[stage].replay else "engine run"
        self.outcome.check(
            io == reference, f"{stage} {label} I/O {io} != first engine run {reference}"
        )

    def _layer_counts(self, results: dict[str, list[Any]], traced: bool) -> None:
        if not traced:
            return
        add = self.layer.setdefault
        sharding = results["sharded"][0].sharding
        add("core.shard_busy_s", []).append(sum(sharding.shard_seconds) + sum(sharding.hd_seconds))
        for stage, name in (
            ("cache_aware", "extmem.machine_ops_per_s"),
            ("cache_oblivious", "extmem.vm_ops_per_s"),
        ):
            operations = sum(result.io.operations for result in results[stage])
            wall = sum(result.wall_time_seconds for result in results[stage])
            add(name, []).append(operations / wall)

    # -- traced calls ----------------------------------------------------
    def _traced_call(self, stage: str, key: str) -> Any:
        spec = STAGES[stage]
        if spec.replay:
            return self._replay_cache_aware(key)
        probes = [
            (importlib.import_module(module), function, name)
            for module, function, name in spec.probes
        ]
        if not spec.sharded:
            with self.tracer.patched(probes):
                return self._call(stage, key)
        sharding = importlib.import_module("repro.core.sharding")
        before = _published_bytes()
        with self.tracer.patched(probes), _counting_retries(sharding) as retries:
            result = self._call(stage, key)
        self.layer.setdefault("poolexec.publish_bytes", []).append(_published_bytes() - before)
        self.layer.setdefault("resilience.retries", []).append(retries[0])
        return result

    def _replay_cache_aware(self, key: str) -> Any:
        """``cache_aware_randomized``'s phases, called one by one with spans."""
        from types import SimpleNamespace

        from repro.analysis.bounds import colour_count, high_degree_threshold
        from repro.core.cache_aware import (
            enumerate_colored_triples,
            high_degree_phase,
            partition_by_coloring,
        )
        from repro.core.emit import CountingSink
        from repro.extmem.machine import Machine
        from repro.extmem.stats import IOStats
        from repro.graph.io import edges_to_file
        from repro.hashing.coloring import ConstantColoring, RandomColoring

        tracer = self.tracer
        params = self.params[STAGES["cache_aware"].machine]
        stats = IOStats()
        sink = CountingSink()
        started = time.perf_counter()
        machine = Machine(params, stats)
        with tracer.span("extmem.load"):
            edge_file = edges_to_file(machine, self.engines[key].edges)
        num_edges = len(edge_file)
        threshold = high_degree_threshold(num_edges, machine.memory_size)
        with self._ios("core.high_degree_ios", stats), tracer.span("core.high_degree"):
            with machine.phase("high-degree"):
                _high, low_edges, _emitted = high_degree_phase(machine, edge_file, sink, threshold)
        colors = max(1, colour_count(num_edges, machine.memory_size))
        coloring = ConstantColoring() if colors == 1 else RandomColoring(colors, seed=0)
        with self._ios("core.partition_ios", stats), tracer.span("core.partition"):
            with machine.phase("partition"):
                partitioned, slices, _sizes = partition_by_coloring(machine, low_edges, coloring)
        low_edges.delete()
        with self._ios("core.triples_ios", stats), tracer.span("core.triples"):
            with machine.phase("triples"):
                enumerate_colored_triples(machine, slices, coloring, sink)
        partitioned.delete()
        io = stats.snapshot()
        return SimpleNamespace(
            triangle_count=sink.count,
            io=io,
            wall_time_seconds=time.perf_counter() - started,
            sharding=None,
        )

    def _ios(self, name: str, stats: Any) -> Any:
        return _io_delta(self.layer.setdefault(name, []), stats)

    # -- hygiene ---------------------------------------------------------
    def close(self) -> None:
        import os

        from repro.poolexec.pool import shared_pool

        pids = {os.getpid(), *shared_pool().worker_pids()}
        self._teardown()
        leaked = leaked_segments(pids)
        self.outcome.check(not leaked, f"leaked shared-memory segments: {leaked}")


@contextmanager
def _io_delta(bucket: list[float], stats: Any) -> Iterator[None]:
    """Append the simulated reads+writes done inside the block to ``bucket``."""
    before = stats.snapshot()
    yield
    after = stats.snapshot()
    bucket.append(after.reads + after.writes - before.reads - before.writes)


def _published_bytes() -> int:
    from repro.poolexec.segments import segment_stats

    return segment_stats()["published_bytes"]


@contextmanager
def _counting_retries(sharding_module: Any) -> Iterator[list[int]]:
    """Count supervised re-attempts of the shard fan-out while active."""
    original = sharding_module.supervised_map_unordered
    retries = [0]

    def counting(*args: Any, **kwargs: Any) -> Any:
        for item in original(*args, **kwargs):
            retries[0] += item.outcome.attempts - 1
            yield item

    sharding_module.supervised_map_unordered = counting
    try:
        yield retries
    finally:
        sharding_module.supervised_map_unordered = original


def run(
    seconds: float, seed: int, tracer: Tracer, cal: Calibrator, outcome: Outcome, work: Any
) -> dict[str, Any]:
    workload = SimPowerlaw(seed, tracer, cal, outcome)
    setup_times = workload.setup(SETUP_REPS + (1 if tracer.enabled else 0))
    workload.references()
    rounds: list[dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    try:
        while len(rounds) < 2 or time.perf_counter() < deadline:
            traced = tracer.enabled and len(rounds) % 2 == 1
            with tracer.sample(traced, len(rounds)), tracer.span("round"):
                normalised, raw, ios = workload.round(traced)
            rounds.append({"traced": traced, "norm": normalised, "raw": raw, "ios": ios})
    finally:
        cal.both()
        peak = proc_status_mib("VmHWM")
        workload.close()
    serial = [r["norm"]["cache_aware"] for r in rounds if not r["traced"]]
    sharded = [r["norm"]["sharded"] for r in rounds if not r["traced"]]
    layer = {name: median(values) for name, values in workload.layer.items()}
    layer["core.shard_speedup"] = median(serial) / median(sharded)
    layer["sim.ios"] = rounds[0]["ios"]
    return {
        "setup": setup_times,
        "rounds": rounds,
        "ops_per_round": sum(len(spec.graphs) for spec in STAGES.values()),
        "peak_rss_mib": peak,
        "calibration": "py",
        "prefix": "sim",
        "layer": layer,
        "stage_spans": {"round"},
    }
