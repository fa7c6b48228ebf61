"""Command-line interface.

Nine subcommands cover the everyday uses of the library:

``repro enumerate GRAPH``
    Enumerate the triangles of an edge-list file on a simulated machine and
    print the count, the I/O meter and (optionally) the triangles.

``repro compare GRAPH``
    Run several algorithms on the same file and print an I/O comparison
    table -- a one-command version of experiment EXP1 on your own data.
    The graph is canonicalised once and shared across all algorithms via
    :class:`repro.core.engine.TriangleEngine`.

``repro algorithms``
    Render the algorithm registry: paper section, I/O bound, substrate kind
    and the typed options schema of every registered algorithm.

``repro stats GRAPH``
    Triangle-based statistics: per-vertex counts, clustering coefficients,
    transitivity.

``repro generate KIND``
    Write a synthetic workload (random / clique / tripartite / planted /
    powerlaw / community / bipartite) to an edge-list file, for
    experimentation without external data.

``repro experiments ...``
    Forwarded to :mod:`repro.experiments.run_all` (the parallel experiment
    orchestrator; supports ``--jobs N`` and the ``results/`` artifact store).

``repro serve``
    Run the triangle-analytics HTTP service (:mod:`repro.service`):
    register graphs, submit count/enum jobs, follow them over SSE, page
    through stored triangles.  SIGTERM/SIGINT drain in-flight jobs and
    release the persistent worker pool before exiting.

``repro client ...``
    Talk to a running ``repro serve`` with the bundled zero-dependency
    client: health, stats, register/count/enum an edge-list file, list and
    watch jobs.

``repro lint``
    Run the AST-based invariant analyzer (:mod:`repro.analysis.lint`) over
    the tree: registry-only dispatch, determinism on counted paths,
    spawn-safe pool callables, resource lifecycle, atomic writes and lock
    discipline, with inline suppressions and a checked-in baseline.

The simulated machine is configured with ``--memory`` and ``--block``
(in words, i.e. records); see DESIGN.md for the cost model.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.core.registry import algorithm_names, algorithm_specs, get_algorithm
from repro.graph.files import read_edge_list, write_edge_list
from repro.graph.generators import (
    chung_lu_power_law,
    clique,
    complete_tripartite,
    erdos_renyi_gnm,
    planted_partition,
    planted_triangles,
    random_bipartite,
)
from repro.graph.metrics import clustering_coefficients, transitivity, triangle_statistics
from repro.poolexec import POOL_MODES


def _default_compare_algorithms() -> list[str]:
    """Default ``compare`` set: the explicit-machine algorithms.

    Matches the historical default: the cache-oblivious algorithm (orders of
    magnitude more simulated work under the LRU cache) and the in-memory
    oracle (no I/O to compare) are opt-in.
    """
    return [spec.name for spec in algorithm_specs() if spec.substrate == "machine"]


def _positive_int(value: str) -> int:
    """argparse type for knobs that must be >= 1 (``--shards``, ``--jobs``)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _positive_float(value: str) -> float:
    """argparse type for knobs that must be > 0 (``--task-timeout``)."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return number


def _non_negative_int(value: str) -> int:
    """argparse type for knobs that must be >= 0 (``--max-retries``)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return number


def _algorithm_help(default: str | None = None) -> str:
    """One-line ``--algorithm`` help text derived from the registry."""
    names = ", ".join(algorithm_names())
    suffix = f" (default {default})" if default else ""
    return f"enumeration algorithm: {names}{suffix}; see `repro algorithms`"


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--memory", type=int, default=512, help="internal memory M in words (default 512)")
    parser.add_argument("--block", type=int, default=16, help="block size B in words (default 16)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized algorithms")


def _machine_params(arguments: argparse.Namespace) -> MachineParams:
    return MachineParams(memory_words=arguments.memory, block_words=arguments.block)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Triangle enumeration in external memory (Pagh & Silvestri, PODS 2014).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    available = sorted(algorithm_names())

    enumerate_parser = subparsers.add_parser("enumerate", help="enumerate triangles of an edge-list file")
    enumerate_parser.add_argument("graph", help="path to a whitespace-separated edge-list file")
    enumerate_parser.add_argument(
        "--algorithm", choices=available, default="cache_aware", help=_algorithm_help("cache_aware")
    )
    enumerate_parser.add_argument(
        "--print-triangles", action="store_true", help="print every triangle (can be large)"
    )
    _add_machine_arguments(enumerate_parser)

    compare_parser = subparsers.add_parser("compare", help="compare algorithms' simulated I/O on one file")
    compare_parser.add_argument("graph", help="path to a whitespace-separated edge-list file")
    compare_parser.add_argument(
        "--algorithms",
        nargs="+",
        metavar="NAME[,NAME...]",
        default=None,
        help="algorithms to compare, space- and/or comma-separated (e.g. "
        "--algorithms cache_aware,vector_count); default: every "
        "explicit-machine algorithm",
    )
    compare_parser.add_argument(
        "--shards",
        type=_positive_int,
        metavar="C",
        help="colour-shard each shardable run into C-colour triples; other "
        "algorithms run serially (default: serial, or C=N when --jobs N is given)",
    )
    compare_parser.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes per sharded run (default 1; results are "
        "bit-identical for any N)",
    )
    compare_parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        metavar="SECONDS",
        help="kill and retry a shard whose worker runs longer than this "
        "(requires sharded execution; default: no timeout)",
    )
    compare_parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="retries per shard for crashed, hung or failing workers "
        "(requires sharded execution; default 2)",
    )
    compare_parser.add_argument(
        "--pool",
        choices=POOL_MODES,
        default=None,
        help="worker-pool strategy for --jobs > 1: 'persistent' reuses one "
        "warm process-wide pool across the sweep's runs, 'spawn' starts a "
        "fresh pool per run (requires sharded execution; default persistent)",
    )
    _add_machine_arguments(compare_parser)

    algorithms_parser = subparsers.add_parser(
        "algorithms", help="show the algorithm registry (sections, bounds, options)"
    )
    algorithms_parser.add_argument(
        "--verbose", action="store_true", help="also print each algorithm's options schema"
    )

    stats_parser = subparsers.add_parser("stats", help="triangle statistics and clustering coefficients")
    stats_parser.add_argument("graph", help="path to a whitespace-separated edge-list file")
    stats_parser.add_argument("--top", type=int, default=10, help="how many top vertices to print")
    stats_parser.add_argument(
        "--algorithm", choices=available, default="cache_aware", help=_algorithm_help("cache_aware")
    )
    _add_machine_arguments(stats_parser)

    generate_parser = subparsers.add_parser("generate", help="write a synthetic edge-list file")
    generate_parser.add_argument(
        "kind",
        choices=(
            "random",
            "clique",
            "tripartite",
            "planted",
            "powerlaw",
            "community",
            "bipartite",
        ),
        help="workload family",
    )
    generate_parser.add_argument("--output", required=True, help="output edge-list path")
    generate_parser.add_argument(
        "--vertices", type=int, default=300, help="number of vertices (random / powerlaw)"
    )
    generate_parser.add_argument(
        "--edges", type=int, default=900, help="number of edges (random / powerlaw / bipartite)"
    )
    generate_parser.add_argument("--size", type=int, default=30, help="clique size / tripartite part size")
    generate_parser.add_argument("--triangles", type=int, default=50, help="planted triangle count")
    generate_parser.add_argument(
        "--exponent", type=float, default=2.5, help="power-law degree exponent (powerlaw)"
    )
    generate_parser.add_argument(
        "--communities", type=int, default=8, help="number of communities (community)"
    )
    generate_parser.add_argument("--seed", type=int, default=0, help="generator seed")

    experiments_parser = subparsers.add_parser(
        "experiments", help="run the paper-reproduction experiments (see DESIGN.md §5)"
    )
    experiments_parser.add_argument("arguments", nargs=argparse.REMAINDER, help="arguments for run_all")

    serve_parser = subparsers.add_parser("serve", help="run the triangle-analytics HTTP service")
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="port to listen on (0 picks a free port; default 8765)"
    )
    serve_parser.add_argument(
        "--pool",
        choices=POOL_MODES,
        default="persistent",
        help="worker-pool strategy for sharded jobs (default persistent)",
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        metavar="N",
        help="job executor threads (default 4)",
    )
    serve_parser.add_argument(
        "--results",
        default="results",
        metavar="DIR",
        help="artifact store directory; completed jobs persist here and "
        "answer repeat queries across restarts (default results/)",
    )
    serve_parser.add_argument(
        "--no-store", action="store_true", help="keep results in memory only (no artifact store)"
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )

    client_parser = subparsers.add_parser("client", help="talk to a running `repro serve`")
    client_parser.add_argument(
        "--url",
        default=None,
        help="server base URL (default $REPRO_SERVICE_URL or http://127.0.0.1:8765)",
    )
    client_parser.add_argument(
        "--timeout", type=_positive_float, default=30.0, help="HTTP timeout in seconds (default 30)"
    )
    client_actions = client_parser.add_subparsers(dest="action", required=True)
    client_actions.add_parser("health", help="liveness probe")
    client_actions.add_parser("stats", help="server counters: jobs, cache hits, segments")
    register_action = client_actions.add_parser("register", help="register an edge-list file")
    register_action.add_argument("graph", help="path to a whitespace-separated edge-list file")
    register_action.add_argument("--name", default=None, help="display name for the graph")
    for mode in ("count", "enum"):
        action = client_actions.add_parser(
            mode,
            help=f"register an edge-list file and run a {mode} query (waits for the result)",
        )
        action.add_argument("graph", help="path to a whitespace-separated edge-list file")
        action.add_argument(
            "--algorithm", choices=available, default="cache_aware", help=_algorithm_help("cache_aware")
        )
        action.add_argument(
            "--shards", type=_positive_int, default=None, metavar="C", help="colour-shard into C colours"
        )
        action.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N", help="workers per sharded run"
        )
        _add_machine_arguments(action)
        if mode == "enum":
            action.add_argument(
                "--limit", type=_positive_int, default=None, help="triangles per pagination page"
            )
    client_actions.add_parser("jobs", help="list jobs (live and stored)")
    job_action = client_actions.add_parser("job", help="show one job")
    job_action.add_argument("id", help="job id")
    watch_action = client_actions.add_parser("watch", help="follow a job's server-sent events")
    watch_action.add_argument("id", help="job id")

    lint_parser = subparsers.add_parser(
        "lint", help="run the AST-based invariant analyzer over the tree"
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help=(
            "files or directories to lint "
            "(default: src benchmarks tests perfbench examples tools)"
        ),
    )
    lint_parser.add_argument(
        "--root", default=".", help="repo root that paths and the baseline are relative to"
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (CI gate mode)",
    )
    lint_parser.add_argument(
        "--format",
        dest="output_format",
        choices=("human", "json"),
        default="human",
        help="report format (json is the repro-lint/v1 document CI archives)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default <root>/.repro-lint-baseline.json)",
    )
    lint_parser.add_argument(
        "--no-baseline", action="store_true", help="report every finding, ignoring the baseline"
    )
    lint_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings into the baseline file and exit",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )

    return parser


def _command_enumerate(arguments: argparse.Namespace) -> int:
    graph = read_edge_list(arguments.graph)
    params = _machine_params(arguments)
    engine = TriangleEngine(graph, params=params)
    result = engine.run(
        arguments.algorithm,
        seed=arguments.seed,
        collect=arguments.print_triangles,
    )
    print(f"graph: {result.num_vertices} vertices, {result.num_edges} edges")
    print(f"algorithm: {arguments.algorithm}  machine: M={params.memory_words}, B={params.block_words}")
    print(f"triangles: {result.triangle_count}")
    print(f"simulated I/Os: {result.io.total} (reads {result.io.reads}, writes {result.io.writes})")
    print(f"peak disk usage: {result.disk_peak_words} words")
    if arguments.print_triangles and result.triangles is not None:
        for triangle in result.triangles:
            print("\t".join(str(v) for v in triangle))
    return 0


def _parse_algorithm_filter(tokens: Sequence[str] | None) -> list[str]:
    """Resolve the ``compare --algorithms`` filter into registry names.

    Tokens may be space-separated, comma-separated, or both (benchmark and
    CI legs pass one comma-joined token so the whole filter is a single
    shell word).  Unknown names raise :class:`SystemExit` with the
    available registry, mirroring argparse's own choice errors.
    """
    if tokens is None:
        return _default_compare_algorithms()
    names = [name for token in tokens for name in token.split(",") if name]
    known = set(algorithm_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"error: unknown algorithm(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(known))}"
        )
    if not names:
        raise SystemExit("error: --algorithms needs at least one algorithm name")
    return names


def _command_compare(arguments: argparse.Namespace) -> int:
    graph = read_edge_list(arguments.graph)
    params = _machine_params(arguments)
    algorithms = _parse_algorithm_filter(arguments.algorithms)
    # ``--jobs N`` without an explicit shard count shards by N colours, so
    # that asking for parallelism alone does something useful; the printed
    # table is bit-identical for any N at a fixed shard count.
    shards = arguments.shards
    if shards is None and arguments.jobs > 1:
        shards = arguments.jobs
    if shards is None and (
        arguments.task_timeout is not None
        or arguments.max_retries is not None
        or arguments.pool is not None
    ):
        raise SystemExit(
            "error: --task-timeout/--max-retries/--pool tune sharded execution; "
            "pass --shards C (or --jobs N) to enable it"
        )
    # One engine: the graph is canonicalised once and shared by every run.
    engine = TriangleEngine(graph, params=params)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(f"machine: M={params.memory_words}, B={params.block_words}")
    if shards is not None:
        print(f"sharding: {shards} colours ({shards ** 3} colour triples max)")
    print(f"{'algorithm':16s} {'triangles':>10s} {'I/Os':>12s} {'reads':>10s} {'writes':>10s}")
    for algorithm in algorithms:
        # Only shardable algorithms distribute their colour-triple phases;
        # every other one simply runs serially instead of aborting the
        # sweep mid-table.
        shardable = get_algorithm(algorithm).shardable
        result = engine.run(
            algorithm,
            seed=arguments.seed,
            collect=False,
            shards=shards if shardable else None,
            jobs=arguments.jobs if shardable else 1,
            task_timeout=arguments.task_timeout if shardable else None,
            max_retries=arguments.max_retries if shardable else None,
            pool=arguments.pool if shardable else None,
        )
        suffix = "" if shardable or shards is None else "  (serial: not shardable)"
        print(
            f"{algorithm:16s} {result.triangle_count:10d} {result.io.total:12d} "
            f"{result.io.reads:10d} {result.io.writes:10d}{suffix}"
        )
    return 0


def _command_algorithms(arguments: argparse.Namespace) -> int:
    specs = algorithm_specs()
    print(f"{'name':16s} {'section':12s} {'substrate':12s} {'seed':5s} I/O bound")
    for spec in specs:
        section = spec.section.split(" ")[0]
        seed_flag = "yes" if spec.accepts_seed else "no"
        print(f"{spec.name:16s} {section:12s} {spec.substrate:12s} {seed_flag:5s} {spec.io_bound}")
    if arguments.verbose:
        for spec in specs:
            print(f"\n{spec.name}: {spec.summary}")
            schema = spec.options_schema()
            if not schema:
                print("  options: (none)")
                continue
            print("  options:")
            for row in schema:
                print(f"    {row['name']}: {row['type']} = {row['default']!r}")
    else:
        print("\nrun `repro algorithms --verbose` for summaries and options schemas")
    return 0


def _command_stats(arguments: argparse.Namespace) -> int:
    graph = read_edge_list(arguments.graph)
    params = _machine_params(arguments)
    statistics = triangle_statistics(
        graph, algorithm=arguments.algorithm, params=params, seed=arguments.seed
    )
    coefficients = clustering_coefficients(graph, statistics)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(f"triangles: {statistics.triangle_count}")
    print(f"transitivity: {transitivity(graph, statistics):.4f}")
    average = sum(coefficients.values()) / len(coefficients) if coefficients else 0.0
    print(f"average clustering coefficient: {average:.4f}")
    print(f"simulated I/Os: {statistics.simulated_ios}")
    print(f"top {arguments.top} vertices by triangle participation:")
    for vertex, count in statistics.per_vertex.most_common(arguments.top):
        print(f"  {vertex}\t{count} triangles\tC={coefficients.get(vertex, 0.0):.3f}")
    return 0


def _command_generate(arguments: argparse.Namespace) -> int:
    if arguments.kind == "random":
        graph = erdos_renyi_gnm(arguments.vertices, arguments.edges, seed=arguments.seed)
        description = f"Erdos-Renyi G(n={arguments.vertices}, m={arguments.edges}), seed={arguments.seed}"
    elif arguments.kind == "clique":
        graph = clique(arguments.size)
        description = f"clique on {arguments.size} vertices"
    elif arguments.kind == "tripartite":
        graph = complete_tripartite(arguments.size, arguments.size, arguments.size)
        description = f"complete tripartite with parts of {arguments.size}"
    elif arguments.kind == "powerlaw":
        graph = chung_lu_power_law(
            arguments.vertices, arguments.edges, exponent=arguments.exponent, seed=arguments.seed
        )
        description = (
            f"Chung-Lu power law (n={arguments.vertices}, m={arguments.edges}, "
            f"exponent={arguments.exponent}), seed={arguments.seed}"
        )
    elif arguments.kind == "community":
        intra = max(1, (arguments.edges * 4) // 5)
        graph = planted_partition(
            arguments.communities,
            arguments.size,
            intra,
            arguments.edges - intra,
            seed=arguments.seed,
        )
        description = (
            f"planted partition ({arguments.communities} communities of {arguments.size}, "
            f"m={arguments.edges}), seed={arguments.seed}"
        )
    elif arguments.kind == "bipartite":
        side = max(2, int(arguments.edges**0.5) + 1)
        graph = random_bipartite(side, side, arguments.edges, seed=arguments.seed)
        description = f"random bipartite ({side}x{side}, m={arguments.edges}), seed={arguments.seed}"
    else:
        graph = planted_triangles(
            arguments.triangles, filler_bipartite_edges=arguments.edges, seed=arguments.seed
        )
        description = f"{arguments.triangles} planted triangles plus bipartite filler"
    write_edge_list(graph, arguments.output, header=[f"generated by repro: {description}"])
    print(f"wrote {graph.num_edges} edges ({description}) to {arguments.output}")
    return 0


def _command_experiments(arguments: argparse.Namespace) -> int:
    from repro.experiments.run_all import main as run_all_main

    return run_all_main(arguments.arguments)


def _command_serve(arguments: argparse.Namespace) -> int:
    """Run the service until SIGTERM/SIGINT, then shut down gracefully.

    The HTTP loop runs on a background thread while the main thread waits
    on an event the signal handlers set: calling ``httpd.shutdown()`` from
    a handler interrupting ``serve_forever`` on the *same* thread would
    deadlock, so the handler only flags and the main thread does the work.
    Teardown order: stop accepting, drain in-flight jobs, close every
    engine (unlinking its shared-memory segments), shut the process-wide
    persistent worker pool down.
    """
    import signal
    import threading

    from repro.experiments.store import ResultStore
    from repro.poolexec.pool import shared_pool
    from repro.service.server import TriangleService

    store = None if arguments.no_store else ResultStore(arguments.results)
    service = TriangleService(
        host=arguments.host,
        port=arguments.port,
        store=store,
        pool=arguments.pool,
        max_workers=arguments.workers,
        verbose=arguments.verbose,
    )
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        print(f"received {signal.Signals(signum).name}; draining and shutting down", flush=True)
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal) for signum in (signal.SIGINT, signal.SIGTERM)
    }
    service.start()
    store_note = "off" if store is None else str(store.root)
    print(
        f"listening on {service.url} "
        f"(pool={arguments.pool}, workers={arguments.workers}, store={store_note})",
        flush=True,
    )
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        service.close()
        shared_pool().shutdown()
    print("shutdown complete", flush=True)
    return 0


def _print_job(job: dict) -> None:
    print(f"job {job['id']}: {job['state']} (source={job['source']}, cache_hit={job['cache_hit']})")
    result = job.get("result")
    if result:
        print(f"  triangles: {result.get('triangles')}")
        if result.get("total_ios") is not None:
            print(
                f"  simulated I/Os: {result['total_ios']} "
                f"(reads {result.get('reads')}, writes {result.get('writes')})"
            )
        if result.get("execution_seconds") is not None:
            print(f"  execution: {result['execution_seconds']}s")
    if job.get("error"):
        print(f"  error: {job['error']}")


def _command_client(arguments: argparse.Namespace) -> int:
    import json as json_module
    import os

    from repro.service.client import DEFAULT_URL, ServiceClient
    from repro.service.protocol import ServiceError

    url = arguments.url or os.environ.get("REPRO_SERVICE_URL") or DEFAULT_URL
    client = ServiceClient(url, timeout=arguments.timeout)

    def _register(path: str, name: str | None = None) -> str:
        graph = read_edge_list(path)
        response = client.register_graph(edges=list(graph.edges()), name=name)
        entry = response["graph"]
        verb = "registered" if response["created"] else "already registered"
        print(
            f"{verb} graph {entry['id']} "
            f"({entry['num_vertices']} vertices, {entry['num_edges']} edges)"
        )
        return entry["id"]

    try:
        if arguments.action == "health":
            print(json_module.dumps(client.health(), indent=2, sort_keys=True))
        elif arguments.action == "stats":
            print(json_module.dumps(client.stats(), indent=2, sort_keys=True))
        elif arguments.action == "register":
            _register(arguments.graph, arguments.name)
        elif arguments.action in ("count", "enum"):
            graph_id = _register(arguments.graph)
            response = client.submit(
                graph_id,
                mode=arguments.action,
                algorithm=arguments.algorithm,
                memory=arguments.memory,
                block=arguments.block,
                seed=arguments.seed,
                shards=arguments.shards,
                jobs=arguments.jobs,
            )
            job = response["job"]
            if job["state"] != "done":
                job = client.wait(job["id"])
            _print_job(job)
            if arguments.action == "enum":
                for triangle in client.triangles(job["id"], limit=arguments.limit):
                    print("\t".join(str(v) for v in triangle))
        elif arguments.action == "jobs":
            listing = client.jobs()
            for job in listing["jobs"]:
                print(f"{job['id']}  {job['state']:9s}  graph={job['graph']}  hits={job['hits']}")
            for job in listing["stored"]:
                print(f"{job['id']}  stored     (from a previous server run)")
            if not listing["jobs"] and not listing["stored"]:
                print("no jobs")
        elif arguments.action == "job":
            _print_job(client.job(arguments.id))
        elif arguments.action == "watch":
            for event, data in client.events(arguments.id):
                print(f"{event}: {json_module.dumps(data, sort_keys=True)}")
        else:  # pragma: no cover - argparse enforces the choices
            raise SystemExit(f"error: unknown client action {arguments.action!r}")
    except ServiceError as error:
        raise SystemExit(f"error: {error} (code={error.code})") from None
    except BrokenPipeError:
        # Piping into `head` closes stdout early; redirect the remaining
        # flush at interpreter exit to devnull instead of tracebacking.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _command_lint(arguments: argparse.Namespace) -> int:
    # Imported here so the analyzer stays out of every other subcommand's
    # startup path.
    import json
    from pathlib import Path

    from repro.analysis.lint import (
        DEFAULT_TARGETS,
        Baseline,
        render_human,
        render_json,
        rule_catalog,
        run_lint,
    )
    from repro.analysis.lint.baseline import DEFAULT_BASELINE_NAME

    if arguments.list_rules:
        for rule in rule_catalog():
            print(f"{rule['code']} {rule['name']}: {rule['summary']}")
        return 0
    root = Path(arguments.root)
    baseline_path = (
        Path(arguments.baseline) if arguments.baseline else root / DEFAULT_BASELINE_NAME
    )
    baseline = None if arguments.no_baseline else Baseline.load(baseline_path)
    report = run_lint(arguments.paths or DEFAULT_TARGETS, root=root, baseline=baseline)
    if arguments.write_baseline:
        Baseline.from_findings(report.all_findings).write(baseline_path)
        print(f"wrote {len(report.all_findings)} findings to {baseline_path}")
        return 0
    if arguments.output_format == "json":
        print(json.dumps(render_json(report, strict=arguments.strict), indent=2, sort_keys=True))
    else:
        print(render_human(report, strict=arguments.strict))
    return report.exit_code(strict=arguments.strict)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "experiments":
        # Forward everything after the subcommand verbatim (argparse's
        # REMAINDER handling of options is unreliable across versions).
        from repro.experiments.run_all import main as run_all_main

        return run_all_main(argv[1:])
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "enumerate": _command_enumerate,
        "compare": _command_compare,
        "algorithms": _command_algorithms,
        "stats": _command_stats,
        "generate": _command_generate,
        "experiments": _command_experiments,
        "serve": _command_serve,
        "client": _command_client,
        "lint": _command_lint,
    }
    return handlers[arguments.command](arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
