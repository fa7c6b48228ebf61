"""Task implementations: how a :class:`RunSpec` turns into a result dict.

Every task is a module-level function registered in :data:`TASKS` under the
name a spec carries, taking only JSON-serialisable keyword arguments and
returning a JSON-serialisable dictionary -- this is what makes specs
executable in ``multiprocessing`` workers (the function is importable by
name) and results storable as artifacts (no pickling, no live objects).

The ``edges`` task covers every ``run_on_edges`` sweep; the remaining tasks
wrap the experiment-specific measurements (joins, k-cliques, the multilevel
replay and the EXP10 colour ablation) so that *all* experiment cells flow
through the same orchestrator and artifact store.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.bounds import colour_count
from repro.analysis.model import MachineParams
from repro.core.cache_aware import enumerate_colored_triples, partition_by_coloring
from repro.core.cache_oblivious import cache_oblivious_randomized
from repro.core.emit import CountingSink
from repro.core.kclique import CountingCliqueSink, cache_aware_kclique
from repro.experiments.runner import RunResult, run_on_edges
from repro.experiments.specs import RunSpec
from repro.experiments.workloads import build_workload, join_instance
from repro.extmem.machine import Machine
from repro.extmem.multilevel import attach_multilevel
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats
from repro.graph.io import edges_to_file, edges_to_vector
from repro.hashing.coloring import RandomColoring
from repro.joins.fifth_normal_form import reconstruct_by_joins
from repro.joins.relation import Relation
from repro.joins.triangle_join import triangle_join

#: Task name -> implementation; the orchestrator's dispatch table.
TASKS: dict[str, Callable[..., dict[str, Any]]] = {}


def task(name: str) -> Callable:
    """Register a task implementation under ``name``."""

    def register(function: Callable[..., dict[str, Any]]) -> Callable:
        TASKS[name] = function
        return function

    return register


def execute_spec(spec: RunSpec) -> dict[str, Any]:
    """Execute one spec and return its JSON-serialisable result."""
    try:
        implementation = TASKS[spec.task]
    except KeyError:
        raise KeyError(
            f"unknown task {spec.task!r}; available: {', '.join(sorted(TASKS))}"
        ) from None
    return implementation(**spec.payload)


#: Scalar report fields worth persisting, across every report class.
_REPORT_FIELDS = (
    "x_xi",
    "num_colors",
    "certified",
    "family_size",
    "high_degree_triangles",
    "low_degree_triangles",
    "base_case_invocations",
    "local_high_degree_processed",
    "max_depth",
    "subproblems_solved",
    "subproblems_refined",
    "largest_subproblem",
)


def summarize_report(report: Any) -> dict[str, Any] | None:
    """Extract the JSON-friendly subset of an algorithm report.

    The tables only consume scalar statistics, the per-depth subproblem
    sizes of the cache-oblivious recursion and the greedy colouring's
    ``[chosen_candidate, potential, budget]`` per level, so that is all that is persisted
    (partition-size dictionaries keyed by colour pairs are summarised by
    ``x_xi`` already).
    """
    if report is None:
        return None
    summary: dict[str, Any] = {}
    for name in _REPORT_FIELDS:
        value = getattr(report, name, None)
        if isinstance(value, (bool, int, float)):
            summary[name] = value
    sizes = getattr(report, "subproblem_sizes", None)
    if isinstance(sizes, dict):
        summary["subproblem_sizes"] = {
            str(depth): list(values) for depth, values in sizes.items()
        }
    levels = getattr(report, "levels", None)
    if isinstance(levels, list):
        summary["levels"] = [
            [level.chosen_candidate, level.potential, level.budget] for level in levels
        ]
    high_degree = getattr(report, "high_degree_vertices", None)
    if high_degree is not None:
        summary["high_degree_vertices"] = len(high_degree)
    return summary


def result_to_dict(result: RunResult, workload_name: str) -> dict[str, Any]:
    """Flatten a :class:`RunResult` into the artifact result schema.

    The artifact schema predates the unified result type: its ``triangles``
    field is the *count* (sweeps never collect the triangle list).
    """
    return {
        "workload": workload_name,
        "num_edges": result.num_edges,
        "triangles": result.triangle_count,
        "reads": result.reads,
        "writes": result.writes,
        "operations": result.operations,
        "total_ios": result.total_ios,
        "disk_peak_words": result.disk_peak_words,
        "wall_time_seconds": result.wall_time_seconds,
        "phases": dict(result.phases) if result.phases else None,
        "report": summarize_report(result.report),
    }


@task("edges")
def run_edges(
    workload: list,
    algorithm: str,
    memory: int,
    block: int,
    seed: int = 0,
    shards: int | None = None,
    jobs: int = 1,
    options: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one algorithm on one workload on one machine configuration.

    ``shards``/``jobs`` route the cell through the engine's colour-sharded
    execution path.  Note that a cell executed inside a ``run_all --jobs N``
    pool worker cannot spawn its own children (daemonic workers), so
    ``jobs > 1`` silently degrades to in-process shard execution there; the
    result is bit-identical either way.
    """
    built = build_workload(workload)
    params = MachineParams(memory_words=memory, block_words=block)
    result = run_on_edges(
        built.edges, algorithm, params, seed=seed, shards=shards, jobs=jobs, **(options or {})
    )
    payload = result_to_dict(result, built.name)
    payload["algorithm"] = algorithm
    if shards is not None:
        payload["shards"] = shards
    return payload


def _sells_relations(instance) -> tuple[Relation, Relation, Relation]:
    sb = Relation("SB", ("salesperson", "brand"), instance.sells_pairs)
    bt = Relation("BT", ("brand", "productType"), instance.brand_type_pairs)
    st = Relation("ST", ("salesperson", "productType"), instance.sells_types)
    return sb, bt, st


@task("join")
def run_join(
    part: int,
    pair_probability: float,
    algorithm: str,
    memory: int,
    block: int,
    seed: int = 0,
    check: bool = False,
) -> dict[str, Any]:
    """The EXP8 cell: a 3-way cyclic join computed as triangle enumeration.

    With ``check=True`` the triangle-join output is verified against the
    relational natural join computed in memory.
    """
    instance = join_instance(part, pair_probability=pair_probability)
    sb, bt, st = _sells_relations(instance)
    params = MachineParams(memory_words=memory, block_words=block)
    relation, result = triangle_join(sb, bt, st, algorithm=algorithm, params=params, seed=seed)
    payload: dict[str, Any] = {
        "part": part,
        "num_edges": result.num_edges,
        "join_tuples": len(relation),
        "reads": result.io.reads,
        "writes": result.io.writes,
        "total_ios": result.io.total,
    }
    if check:
        expected = reconstruct_by_joins(sb, bt, st)
        payload["correct"] = relation.rows() == expected.rows()
    return payload


@task("kclique")
def run_kclique(
    workload: list, k: int, memory: int, block: int, seed: int = 0
) -> dict[str, Any]:
    """The EXP11 cell: k-clique enumeration via colour coding."""
    built = build_workload(workload)
    machine = Machine(MachineParams(memory_words=memory, block_words=block), IOStats())
    edge_file = edges_to_file(machine, built.edges)
    sink = CountingCliqueSink()
    report = cache_aware_kclique(machine, edge_file, k, sink, seed=seed)
    return {
        "workload": built.name,
        "num_edges": built.num_edges,
        "k": k,
        "cliques": sink.count,
        "reads": machine.stats.reads,
        "writes": machine.stats.writes,
        "total_ios": machine.stats.total,
        "report": summarize_report(report),
    }


@task("multilevel")
def run_multilevel(
    workload: list, levels: dict[str, int], block: int, seed: int = 0
) -> dict[str, Any]:
    """The EXP12 replay: one cache-oblivious run against an LRU hierarchy."""
    built = build_workload(workload)
    vm, cache = attach_multilevel(
        MachineParams(memory_words=max(levels.values()), block_words=block), levels
    )
    vector = edges_to_vector(vm, built.edges)
    sink = CountingSink()
    cache_oblivious_randomized(vm, vector, sink, seed=seed)
    cache.flush()
    return {
        "workload": built.name,
        "num_edges": built.num_edges,
        "triangles": sink.count,
        "totals": dict(cache.total_by_level()),
    }


@task("oblivious_dedicated")
def run_oblivious_dedicated(
    workload: list, memory: int, block: int, seed: int = 0
) -> dict[str, Any]:
    """A dedicated single-level cache-oblivious run, flushed (EXP12 control)."""
    built = build_workload(workload)
    vm = ObliviousVM(MachineParams(memory_words=memory, block_words=block), IOStats())
    vector = edges_to_vector(vm, built.edges)
    sink = CountingSink()
    cache_oblivious_randomized(vm, vector, sink, seed=seed)
    vm.flush()
    return {
        "workload": built.name,
        "num_edges": built.num_edges,
        "triangles": sink.count,
        "reads": vm.stats.reads,
        "writes": vm.stats.writes,
        "total_ios": vm.stats.total,
    }


@task("colour_ablation")
def run_colour_ablation(
    workload: list, memory: int, block: int, seed: int = 0
) -> dict[str, Any]:
    """The EXP10 ablation: colour partitioning on the *full* edge set.

    Skips the high-degree phase (Section 2, step 1) and measures how the
    collision statistic ``X_xi`` and the colour-phase I/Os degrade.
    """
    built = build_workload(workload)
    params = MachineParams(memory_words=memory, block_words=block)
    machine = Machine(params, IOStats())
    edge_file = edges_to_file(machine, built.edges)
    colours = max(1, colour_count(built.num_edges, params.memory_words))
    coloring = RandomColoring(max(2, colours), seed=seed)
    partitioned, slices, sizes = partition_by_coloring(machine, edge_file, coloring)
    sink = CountingSink()
    enumerate_colored_triples(machine, slices, coloring, sink)
    partitioned.delete()
    return {
        "workload": built.name,
        "num_edges": built.num_edges,
        "triangles": sink.count,
        "total_ios": machine.stats.total,
        "x_xi": sum(size * (size - 1) // 2 for size in sizes.values()),
    }
