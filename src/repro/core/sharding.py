"""Colour-sharded execution of the paper's colour-triple decomposition.

Pagh-Silvestri's randomized vertex colouring (Lemma 1/2) decomposes the
canonical edge list into independent colour-triple subproblems: a triangle
with ranked vertices ``v1 < v2 < v3`` and colours ``(xi(v1), xi(v2),
xi(v3)) = (tau1, tau2, tau3)`` has all three edges inside the union of the
classes ``E_{tau1,tau2} ∪ E_{tau1,tau3} ∪ E_{tau2,tau3}`` and is found in
exactly that triple.  This module exploits the shared-nothing structure to
run one *large* enumeration across a worker pool.

Only algorithms registered with ``shardable=True`` (``cache_aware``,
``deterministic``) take this path.  The algorithm itself runs on the
coordinator substrate with its two embarrassingly parallel phases replaced
by distributing executors: the Lemma 1 high-degree phase ships one
:class:`VertexShardTask` per high-degree vertex
(:data:`~repro.core.registry.SubstrateContext.high_degree_executor`) and
the colour-triple phase ships one :class:`TripleShardTask` per Lemma 2
subproblem (:data:`~repro.core.registry.SubstrateContext.triples_executor`);
the colour partition -- and, for ``deterministic``, the inherently
sequential greedy colouring -- execute exactly as in the serial run.
Because each subproblem's charges depend only on its payload and the
machine parameters, folding the worker counters back into the
coordinator's phases reproduces the serial totals **bit for bit**, for any
job count and any completion order.

Execution substrate
-------------------
Tasks run under the supervised tier
(:func:`repro.resilience.supervised_map_unordered`) on the pool selected by
``ShardingOptions.pool``: the process-wide persistent pool (default) or an
ephemeral spawn pool.  When a run actually fans out (effective jobs > 1),
edge payloads travel as :class:`repro.poolexec.SegmentSlice` references
into shared-memory segments rather than pickled record lists: the
coordinator publishes the canonical graph and the partitioned classes once
(content-deduplicated, so a repeated run republishes *nothing*), and every
worker attaches and decodes a given segment at most once.  Segment handles
live in the engine's substrate cache across runs and are unlinked on
``engine.close()`` / interpreter exit; a run without an engine cache closes
its segments when it returns.

Merging is deterministic regardless of completion order: worker outcomes
are reassembled in task-index order, and counters and triangles are folded
in that order.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.analysis.model import MachineParams
from repro.core.cache_aware import iter_colour_triples
from repro.core.emit import CollectingSink, CountingSink, Triangle, emit_all
from repro.core.lemma1 import triangles_through_vertex
from repro.core.lemma2 import triangles_with_pivot_in
from repro.core.registry import (
    AlgorithmOptions,
    AlgorithmSpec,
    ShardingOptions,
    SubstrateContext,
)
from repro.exceptions import OptionsError, ReproError
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.io import edges_to_file
from repro.poolexec import (
    EdgeSource,
    SegmentHandle,
    effective_jobs,
    provider_for,
    publish_edges,
    resolve_edges,
)
from repro.resilience import supervised_map_unordered

RankedEdge = tuple[int, int]
ColorPair = tuple[int, int]
ColorTriple = tuple[int, int, int]


class ShardExecutionError(ReproError):
    """A shard worker raised; carries the worker traceback."""


# ----------------------------------------------------------------------
# work units and their outcomes (must pickle across the spawn boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TripleShardTask:
    """One Lemma 2 subproblem of the colour-triple phase."""

    index: int
    triple: ColorTriple
    pivot: EdgeSource
    adjacency: list[EdgeSource]
    spectators: list[EdgeSource]
    memory: int
    block: int
    collect: bool

    def fault_key(self) -> str:
        return f"shard:{self.index}"

    def describe(self) -> str:
        return f"shard {self.triple}"


@dataclass(frozen=True)
class VertexShardTask:
    """One Lemma 1 per-vertex subproblem of the high-degree phase.

    ``excluded`` is the (already processed) high-degree prefix, so every
    triangle with two or three high-degree vertices is still emitted
    exactly once -- the workers reproduce the serial loop's exclusion
    discipline independently.
    """

    index: int
    vertex: int
    excluded: tuple[int, ...]
    edges: EdgeSource
    memory: int
    block: int
    collect: bool

    def fault_key(self) -> str:
        return f"shard:hd:{self.index}"

    def describe(self) -> str:
        return f"high-degree shard (vertex {self.vertex})"


@dataclass
class ShardOutcome:
    """What one shard worker sends back to the coordinator."""

    index: int
    triple: ColorTriple | None = None
    vertex: int | None = None
    count: int = 0
    triangles: list[Triangle] | None = None
    reads: int = 0
    writes: int = 0
    operations: int = 0
    disk_peak_words: int = 0
    wall_seconds: float = 0.0
    error: str | None = None


@dataclass
class ShardingStats:
    """Per-run sharding metadata surfaced on :class:`~repro.core.result.RunResult`.

    ``shard_seconds`` is each colour-triple shard's worker-side wall time in
    triple order; single-core hosts use it to project multi-core makespans
    (see ``benchmarks/run_benchmarks.py``).  ``hd_tasks``/``hd_seconds``
    describe the distributed high-degree phase (zero/empty when the graph
    has no high-degree vertices or the phase ran in-process).
    """

    num_colors: int
    jobs: int
    num_shards: int
    shard_edges: int
    shard_seconds: list[float] = field(default_factory=list)
    shard_triples: list[ColorTriple] = field(default_factory=list)
    hd_tasks: int = 0
    hd_seconds: list[float] = field(default_factory=list)


@dataclass
class ShardedRun:
    """The merged, deterministic result of a sharded execution."""

    stats: IOStats
    triangle_count: int
    triangles: list[Triangle] | None
    disk_peak_words: int
    report: Any
    sharding: ShardingStats


# ----------------------------------------------------------------------
# worker entry points (importable by name for the spawn pool)
# ----------------------------------------------------------------------
def _execute_triple_shard(task: TripleShardTask) -> ShardOutcome:
    """Run one Lemma 2 subproblem on a fresh machine; never raises."""
    outcome = ShardOutcome(index=task.index, triple=task.triple)
    try:
        machine = Machine(MachineParams(task.memory, task.block), IOStats())
        pivot = machine.file_from_records(resolve_edges(task.pivot), name="shard-pivot")
        adjacency = [machine.file_from_records(resolve_edges(s)) for s in task.adjacency]
        spectators = [machine.file_from_records(resolve_edges(s)) for s in task.spectators]
        sink: CollectingSink | CountingSink = CollectingSink() if task.collect else CountingSink()
        started = time.perf_counter()
        triangles_with_pivot_in(machine, pivot, adjacency, sink, spectator_sources=spectators)
        outcome.wall_seconds = time.perf_counter() - started
        outcome.count = sink.count
        outcome.triangles = sink.triangles if task.collect else None
        outcome.reads = machine.stats.reads
        outcome.writes = machine.stats.writes
        outcome.operations = machine.stats.operations
        outcome.disk_peak_words = machine.disk.peak_words
    except Exception:  # noqa: BLE001 - the traceback is the payload
        outcome.error = traceback.format_exc()
    return outcome


def _execute_vertex_shard(task: VertexShardTask) -> ShardOutcome:
    """Run one Lemma 1 per-vertex subproblem on a fresh machine; never raises."""
    outcome = ShardOutcome(index=task.index, vertex=task.vertex)
    try:
        machine = Machine(MachineParams(task.memory, task.block), IOStats())
        edge_file = machine.file_from_records(
            [tuple(edge) for edge in resolve_edges(task.edges)], name="shard-graph"
        )
        sink: CollectingSink | CountingSink = CollectingSink() if task.collect else CountingSink()
        started = time.perf_counter()
        triangles_through_vertex(
            machine, [edge_file], task.vertex, sink, excluded=frozenset(task.excluded)
        )
        outcome.wall_seconds = time.perf_counter() - started
        outcome.count = sink.count
        outcome.triangles = sink.triangles if task.collect else None
        outcome.reads = machine.stats.reads
        outcome.writes = machine.stats.writes
        outcome.operations = machine.stats.operations
        outcome.disk_peak_words = machine.disk.peak_words
    except Exception:  # noqa: BLE001 - the traceback is the payload
        outcome.error = traceback.format_exc()
    return outcome


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
def _shard_fault_key(_index: int, task: Any) -> str:
    """The stable fault-injection / backoff key for one shard task."""
    return task.fault_key()


def _retain_handle(
    handle: SegmentHandle | None,
    cache: dict[str, Any] | None,
    run_handles: list[SegmentHandle],
) -> SegmentHandle | None:
    """Park a published segment where its lifetime is managed.

    With an engine cache the handle lives under a ``poolexec:segment:``
    key until ``engine.close()``, so a repeated run's (content-deduplicated)
    re-publish costs nothing; a duplicate publish of already-cached content
    immediately drops its extra reference.  Without a cache the handle is
    run-local and :func:`run_sharded` closes it on the way out.
    """
    if handle is None:
        return None
    if cache is None:
        run_handles.append(handle)
        return handle
    key = f"poolexec:segment:{handle.token}"
    cached = cache.get(key)
    if isinstance(cached, SegmentHandle) and not cached.closed:
        # publish_edges dedups by content, so a live cached entry for this
        # token *is* this handle with one extra reference -- drop it.
        handle.close()
    else:
        cache[key] = handle
    return handle


def _collect_outcomes(
    worker, tasks: Sequence[Any], sharding: ShardingOptions
) -> list[ShardOutcome]:
    """Execute shard tasks under supervision; reassemble in task-index order.

    Completion order is irrelevant: outcomes are keyed by shard index and
    returned sorted, which is what makes every merge downstream
    deterministic.  Each task is supervised individually
    (:func:`repro.resilience.supervised_map_unordered`): a shard whose
    worker dies or hangs past ``sharding.task_timeout`` is re-executed --
    bit-identically, since each task is a pure function of its payload --
    up to ``sharding.max_retries`` times, after which the run fails with a
    :class:`ShardExecutionError` instead of hanging.  An *algorithmic*
    error inside a shard (the worker caught an exception and reported it in
    ``ShardOutcome.error``) is deterministic and fails immediately without
    retry.  ``sharding.pool`` selects the worker-pool strategy when the map
    actually fans out.
    """
    tasks = list(tasks)
    by_index: dict[int, ShardOutcome] = {}
    resolved_jobs = effective_jobs(sharding.jobs, len(tasks))
    provider = provider_for(sharding.pool, resolved_jobs) if resolved_jobs > 1 else None
    supervised = supervised_map_unordered(
        worker,
        tasks,
        sharding.jobs,
        task_timeout=sharding.task_timeout,
        max_retries=sharding.max_retries,
        fault_key=_shard_fault_key,
        pool_provider=provider,
    )
    for item in supervised:
        if not item.ok:
            task = tasks[item.index]
            kinds = ", ".join(item.outcome.failures) or "unknown failure"
            raise ShardExecutionError(
                f"{task.describe()} failed after {item.outcome.attempts} attempts "
                f"({kinds}):\n{item.outcome.error}"
            )
        outcome = item.value
        if outcome.error is not None:
            task = tasks[outcome.index]
            raise ShardExecutionError(
                f"{task.describe()} failed in a worker:\n{outcome.error}"
            )
        by_index[outcome.index] = outcome
    return [by_index[index] for index in sorted(by_index)]


def _slice_sources(
    slices: dict[ColorPair, Any],
    pooled: bool,
    cache: dict[str, Any] | None,
    run_handles: list[SegmentHandle],
) -> dict[int, EdgeSource]:
    """An :data:`EdgeSource` per partition slice, keyed by ``id(slice)``.

    Reading the slice contents is coordinator orchestration, not simulated
    I/O -- the workers re-charge every scan and load of these records
    exactly as the serial loop would have.  When the run fans out, the
    classes are concatenated (in sorted colour-pair order) into one
    published segment and each slice becomes a :class:`SegmentSlice` into
    it; otherwise the records ride along inline.
    """
    records = {pair: fs._read_range(0, len(fs)) for pair, fs in slices.items()}
    if pooled:
        flat: list[RankedEdge] = []
        spans: dict[ColorPair, tuple[int, int]] = {}
        for pair in sorted(records):
            class_records = records[pair]
            spans[pair] = (len(flat), len(flat) + len(class_records))
            flat.extend(class_records)
        handle = _retain_handle(publish_edges(flat), cache, run_handles)
        if handle is not None:
            return {id(slices[pair]): handle.slice(*spans[pair]) for pair in records}
    return {id(slices[pair]): records[pair] for pair in records}


def run_sharded(
    edges: Sequence[RankedEdge],
    spec: AlgorithmSpec,
    options: AlgorithmOptions,
    params: MachineParams,
    seed: int,
    sharding: ShardingOptions,
    collect: bool,
    cache: dict[str, Any] | None = None,
) -> ShardedRun:
    """Execute ``spec`` on ``edges`` with its parallel phases on workers.

    ``collect=True`` ships ranked triangles back from the workers (the
    engine translates and re-emits them in triple order); otherwise the
    workers only count.  ``cache`` is the engine's substrate cache: when
    given, published shared-memory segments are parked there (and closed by
    ``engine.close()``) so repeated runs re-transfer nothing; without it
    every segment of this run is unlinked before returning.  The caller
    guarantees ``spec.shardable`` (enforced by
    :meth:`AlgorithmSpec.resolve_sharding`).
    """
    options = _apply_shard_colors(spec, options, sharding.shards)
    stats = IOStats()
    machine = Machine(params, stats)
    edge_list = list(edges)
    edge_file = edges_to_file(machine, list(edge_list))
    local_sink: CollectingSink | CountingSink = CollectingSink() if collect else CountingSink()
    sharding_stats = ShardingStats(
        num_colors=sharding.shards,
        jobs=sharding.jobs,
        num_shards=0,
        shard_edges=0,
    )
    counted_only = 0
    worker_peaks = [0]
    run_handles: list[SegmentHandle] = []

    def fold_outcome(coord_machine: Machine, outcome: ShardOutcome, sink) -> int:
        # Folded inside the coordinator's active phase, so the phase
        # attribution -- and therefore the aggregate counters -- matches
        # the serial run bit for bit.
        coord_machine.stats.charge_read(outcome.reads)
        coord_machine.stats.charge_write(outcome.writes)
        coord_machine.stats.charge_operations(outcome.operations)
        worker_peaks.append(outcome.disk_peak_words)
        if collect and outcome.triangles:
            emit_all(sink, outcome.triangles)
        return outcome.count

    def hd_executor(coord_machine: Machine, _edge_file, sink, high_vertices) -> int:
        nonlocal counted_only
        pooled = effective_jobs(sharding.jobs, len(high_vertices)) > 1
        source: EdgeSource = edge_list
        if pooled:
            handle = _retain_handle(publish_edges(edge_list), cache, run_handles)
            if handle is not None:
                source = handle.slice(0, handle.length)
        tasks = [
            VertexShardTask(
                index=index,
                vertex=vertex,
                excluded=tuple(high_vertices[:index]),
                edges=source,
                memory=params.memory_words,
                block=params.block_words,
                collect=collect,
            )
            for index, vertex in enumerate(high_vertices)
        ]
        outcomes = _collect_outcomes(_execute_vertex_shard, tasks, sharding)
        sharding_stats.hd_tasks = len(tasks)
        emitted = 0
        for outcome in outcomes:
            emitted += fold_outcome(coord_machine, outcome, sink)
            sharding_stats.hd_seconds.append(outcome.wall_seconds)
        if not collect:
            counted_only += emitted
        return emitted

    def executor(coord_machine: Machine, slices, coloring, sink) -> int:
        nonlocal counted_only
        subproblems = list(iter_colour_triples(slices, coloring.num_colors))
        pooled = effective_jobs(sharding.jobs, len(subproblems)) > 1
        sources = _slice_sources(slices, pooled, cache, run_handles)
        tasks = [
            TripleShardTask(
                index=index,
                triple=triple,
                pivot=sources[id(pivot)],
                adjacency=[sources[id(s)] for s in adjacency],
                spectators=[sources[id(s)] for s in spectators],
                memory=params.memory_words,
                block=params.block_words,
                collect=collect,
            )
            for index, (triple, pivot, adjacency, spectators) in enumerate(subproblems)
        ]
        outcomes = _collect_outcomes(_execute_triple_shard, tasks, sharding)
        sharding_stats.num_shards = len(tasks)
        sharding_stats.shard_edges = sum(
            len(t.pivot) + sum(map(len, t.adjacency)) + sum(map(len, t.spectators))
            for t in tasks
        )
        emitted = 0
        for outcome in outcomes:
            emitted += fold_outcome(coord_machine, outcome, sink)
            sharding_stats.shard_seconds.append(outcome.wall_seconds)
            sharding_stats.shard_triples.append(tuple(outcome.triple))
        if not collect:
            counted_only += emitted
        return emitted

    context = SubstrateContext(
        params=params,
        stats=stats,
        seed=seed,
        machine=machine,
        edge_file=edge_file,
        triples_executor=executor,
        high_degree_executor=hd_executor,
        cache=cache,
    )
    try:
        report = spec.runner(context, local_sink, options)
    finally:
        for handle in run_handles:
            handle.close()
    triangle_count = local_sink.count + counted_only
    return ShardedRun(
        stats=stats,
        triangle_count=triangle_count,
        triangles=list(local_sink.triangles) if collect else None,
        disk_peak_words=max(machine.disk.peak_words, max(worker_peaks)),
        report=report,
        sharding=sharding_stats,
    )


def _apply_shard_colors(
    spec: AlgorithmSpec, options: AlgorithmOptions, shards: int
) -> AlgorithmOptions:
    """Force ``num_colors = shards`` on a shardable algorithm's options.

    In a sharded run the decomposition colouring *is* the algorithm's own
    colouring, so the two knobs must agree; an explicit conflicting
    ``num_colors`` is rejected rather than silently overridden.  (An
    algorithm may still round the count up internally -- ``deterministic``
    rounds to a power of two -- which is fine: the executors follow the
    algorithm's own colouring.)
    """
    if not any(f.name == "num_colors" for f in dataclasses.fields(options)):
        raise OptionsError(
            f"algorithm {spec.name!r} declares shardable=True but its options "
            "type has no num_colors field to carry the shard colour count"
        )
    current = getattr(options, "num_colors", None)
    if current is not None and current != shards:
        raise OptionsError(
            f"algorithm {spec.name!r}: num_colors={current} conflicts with shards={shards}; "
            "in sharded runs the colour count is the shard count"
        )
    return replace(options, num_colors=shards)
