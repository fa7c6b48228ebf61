"""The reusable triangle-enumeration session object.

:class:`TriangleEngine` owns the canonicalisation of one graph (``Graph`` →
:class:`~repro.graph.graph.DegreeOrder`, Section 1.3 of the paper) **once**
and then runs any number of ``(algorithm, params, seed, options)``
configurations against the same prepared edge list -- each run on a freshly
simulated machine with fresh I/O counters, so measurements are independent
and bit-identical to the old one-shot entry points.  Algorithms are resolved
through the declarative registry (:mod:`repro.core.registry`); the engine is
the only place in the package that knows how to stand up a substrate.

Four consumption modes::

    engine = TriangleEngine(graph)
    engine.run("cache_aware", collect=True)      # materialised triangle list
    engine.run("bnlj", sink=my_sink)             # push into a user sink
    engine.count("deterministic")                # count-only fast path
    for batch in engine.stream("cache_aware"):   # pull label-triangle batches
        ...

The count-only path skips the per-triangle rank→label translation entirely
(the algorithm emits straight into a counting sink), which is what the
experiment sweeps use; algorithms that register a count-only adapter
(``counter`` on the spec, e.g. the vectorized ``vector_count``) skip
emission altogether and just report the total.  Streaming runs the algorithm on a worker thread and
hands label-triangle batches across a bounded queue, so consumers iterate
with the memory footprint of one batch.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.analysis.model import MachineParams
from repro.core.emit import CountingSink, TriangleSink, emit_all
from repro.core.registry import (
    AlgorithmOptions,
    SubstrateContext,
    get_algorithm,
)
from repro.core.result import RunResult
from repro.exceptions import ReproError, StreamWorkerError
from repro.extmem.machine import Machine
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats
from repro.graph.graph import DegreeOrder, Graph
from repro.graph.io import edges_to_file, edges_to_vector
from repro.graph.validation import check_canonical_edges


class _TranslatingSink:
    """Translates emitted ranks back to original vertex labels."""

    def __init__(self, inner: TriangleSink, vertex_of: Sequence[Any]) -> None:
        self.inner = inner
        self.vertex_of = vertex_of
        self.count = 0

    def emit(self, a: int, b: int, c: int) -> None:
        self.count += 1
        vertex_of = self.vertex_of
        self.inner.emit(vertex_of[a], vertex_of[b], vertex_of[c])

    def emit_many(self, triangles: Sequence[tuple[int, int, int]]) -> None:
        """Translate and forward a batch of ranked triangles in one call."""
        self.count += len(triangles)
        vertex_of = self.vertex_of
        emit_all(self.inner, [(vertex_of[a], vertex_of[b], vertex_of[c]) for a, b, c in triangles])


class _CountingForwarder:
    """Counts and forwards emissions unchanged (identity-label engines)."""

    def __init__(self, inner: TriangleSink) -> None:
        self.inner = inner
        self.count = 0

    def emit(self, a: int, b: int, c: int) -> None:
        self.count += 1
        self.inner.emit(a, b, c)

    def emit_many(self, triangles: Sequence[tuple[int, int, int]]) -> None:
        self.count += len(triangles)
        emit_all(self.inner, triangles)


class _LabelCollector:
    """Collects label triangles without re-sorting them (labels may not be comparable)."""

    def __init__(self) -> None:
        self.triangles: list[tuple[Any, Any, Any]] = []

    def emit(self, a: Any, b: Any, c: Any) -> None:
        self.triangles.append((a, b, c))

    def emit_many(self, triangles: Sequence[tuple[Any, Any, Any]]) -> None:
        self.triangles.extend(triangles)


class _TeeSink:
    """Forwards emissions to two sinks (user sink plus the collector)."""

    def __init__(self, first: TriangleSink, second: TriangleSink) -> None:
        self.first = first
        self.second = second

    def emit(self, a: Any, b: Any, c: Any) -> None:
        self.first.emit(a, b, c)
        self.second.emit(a, b, c)

    def emit_many(self, triangles: Sequence[tuple[Any, Any, Any]]) -> None:
        emit_all(self.first, triangles)
        emit_all(self.second, triangles)


class _StreamClosed(Exception):
    """Internal: the consumer abandoned a stream; unwind the worker."""


def _put_or_closed(
    out: "queue_module.Queue[tuple[str, Any]]",
    stop: threading.Event,
    message: tuple[str, Any],
) -> bool:
    """Enqueue ``message``, polling ``stop`` while the queue is full.

    Returns ``False`` (without enqueueing) once ``stop`` is set.  Every
    worker-side queue write goes through here, which is the teardown
    invariant the consumer's drain loop relies on: after ``stop.set()`` no
    worker can stay blocked on the queue for more than one poll interval.
    """
    while not stop.is_set():
        try:
            out.put(message, timeout=0.1)
            return True
        except queue_module.Full:
            continue
    return False


class _StreamBatchSink:
    """Buffers label triangles and ships them across the stream queue."""

    def __init__(
        self,
        out: "queue_module.Queue[tuple[str, Any]]",
        batch_size: int,
        stop: threading.Event,
    ) -> None:
        self.out = out
        self.batch_size = batch_size
        self.stop = stop
        self.buffer: list[tuple[Any, Any, Any]] = []

    def emit(self, a: Any, b: Any, c: Any) -> None:
        self.buffer.append((a, b, c))
        if len(self.buffer) >= self.batch_size:
            self.flush()

    def emit_many(self, triangles: Sequence[tuple[Any, Any, Any]]) -> None:
        self.buffer.extend(triangles)
        if len(self.buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Ship the buffered triangles in batch_size slices.

        Algorithms emit through the batched ``emit_many`` path with batches
        of their own sizing, so the buffer may exceed ``batch_size``; it is
        re-chunked here to honour the consumer's bound.  Raises
        :class:`_StreamClosed` if the consumer went away.
        """
        if not self.buffer:
            return
        buffered, self.buffer = self.buffer, []
        for start in range(0, len(buffered), self.batch_size):
            self._put(buffered[start : start + self.batch_size])

    def _put(self, batch: list[tuple[Any, Any, Any]]) -> None:
        if not _put_or_closed(self.out, self.stop, ("batch", batch)):
            raise _StreamClosed()


class _Canonical:
    """The engine's prepared graph: ranked edges plus the rank -> label map.

    An engine built from an edge array (NumPy present) holds the
    :class:`~repro.fastpath.arrays.CanonicalArrays`; the tuple list, the
    label tuple and the :class:`DegreeOrder` are derived from them on first
    use, once.  Other engines hold the tuple list (and, when they
    canonicalised a graph, its order) from the start.
    """

    def __init__(
        self,
        arrays: Any = None,
        edges: list[tuple[int, int]] | None = None,
        order: DegreeOrder | None = None,
    ) -> None:
        self.arrays = arrays
        self._edges = edges
        self._order = order
        self._vertex_of: Sequence[Any] | None = order.vertex_of if order is not None else None

    def records(self) -> list[tuple[int, int]]:
        """The ranked ``(u, v)`` tuple list, built from the arrays on first call."""
        if self._edges is None:
            self._edges = self.arrays.edge_list()
        return self._edges

    @property
    def held(self) -> Any:
        """The canonical edges in the form held: the ``(E, 2)`` array, else the list."""
        return self.arrays.edges if self.arrays is not None else self._edges

    @property
    def num_edges(self) -> int:
        return self.arrays.num_edges if self.arrays is not None else len(self._edges)

    @property
    def vertex_of(self) -> Sequence[Any] | None:
        """Rank -> label (``None`` when ranks are the labels)."""
        if self._vertex_of is None and self.arrays is not None:
            self._vertex_of = tuple(self.arrays.vertex_of.tolist())
        return self._vertex_of

    def order(self) -> DegreeOrder | None:
        """The degree order, built from the arrays on first call."""
        if self._order is None and self.arrays is not None:
            vertex_of = self.vertex_of
            self._order = DegreeOrder(
                vertex_of=vertex_of,
                rank_of={vertex: rank for rank, vertex in enumerate(vertex_of)},
                edges=self.records(),
            )
        return self._order

    @property
    def order_source(self) -> Callable[[], DegreeOrder | None] | None:
        """What a :class:`RunResult` resolves its order through (``None``: no order)."""
        return self.order if self.arrays is not None or self._order is not None else None


class TriangleEngine:
    """A prepared graph plus the machinery to run many configurations on it.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.graph.Graph` or any iterable of edges (pairs
        of hashable vertex labels).  Canonicalised exactly once, here.
    params:
        Default simulated machine parameters for runs that do not pass their
        own; falls back to :meth:`MachineParams.default`.
    """

    def __init__(
        self,
        graph: Graph | Iterable[tuple[Any, Any]],
        params: MachineParams | None = None,
    ) -> None:
        graph_obj = graph if isinstance(graph, Graph) else Graph.from_edge_list(graph)
        order = graph_obj.degree_order()
        self._canonical = _Canonical(edges=order.edges, order=order)
        self._num_vertices = graph_obj.num_vertices
        self.default_params = params
        #: Shared by every run via ``SubstrateContext.cache``: algorithms
        #: stash representations derived from the (immutable) canonical
        #: edges here, e.g. the vectorized backend's packed CSR.
        self._substrate_cache: dict[str, Any] = {}

    @classmethod
    def from_canonical_edges(
        cls,
        edges: Sequence[tuple[int, int]],
        params: MachineParams | None = None,
        validate: bool = True,
    ) -> "TriangleEngine":
        """Build an engine over an *already canonical* ranked edge list.

        Skips canonicalisation entirely (the experiment sweeps prepare their
        workloads once); triangles are reported in rank space, i.e. labels
        are the ranks themselves.
        """
        engine = cls.__new__(cls)
        edges = edges if isinstance(edges, list) else list(edges)
        if validate:
            check_canonical_edges(edges)
        engine._canonical = _Canonical(edges=edges)
        engine._num_vertices = 0
        engine.default_params = params
        engine._substrate_cache = {}
        return engine

    @classmethod
    def from_edge_array(
        cls,
        edges: Any,
        params: MachineParams | None = None,
    ) -> "TriangleEngine":
        """Build an engine from a raw *integer* edge array, vectorized.

        The array-native ingestion path (:mod:`repro.fastpath.arrays`):
        orientation, deduplication and degree-ranking run as array
        operations instead of the dict-of-sets ``Graph`` build, which is
        the fast way in for large ``(E, 2)`` NumPy arrays or integer pair
        lists.  Semantics match the ``Graph`` constructor -- self-loops
        raise, duplicates merge -- but equal-degree ties rank by *label*
        rather than ``Graph.degree_order``'s repr-order, so rank-space
        triangles may differ between the two constructors while label-space
        triangle sets are identical.  Falls back to a pure-Python mirror
        with the same tie-breaking when NumPy is absent.

        The engine keeps the canonical ``(E, 2)`` array: in-memory
        algorithms receive it as ``SubstrateContext.canonical_edges`` (the
        vectorized and out-of-core backends consume it directly), and the
        tuple list, :attr:`order` and its ``rank_of`` dict are built only
        when a consumer of records asks for them.
        """
        from repro.fastpath import arrays as fastpath_arrays

        engine = cls.__new__(cls)
        if fastpath_arrays.HAVE_NUMPY:
            arrays = fastpath_arrays.canonicalize_edge_array(edges)
            engine._canonical = _Canonical(arrays=arrays)
            engine._num_vertices = arrays.num_vertices
        else:
            ranked, labels = fastpath_arrays.canonicalize_edges_python(edges)
            vertex_of = tuple(labels)
            order = DegreeOrder(
                vertex_of=vertex_of,
                rank_of={vertex: rank for rank, vertex in enumerate(vertex_of)},
                edges=ranked,
            )
            engine._canonical = _Canonical(edges=ranked, order=order)
            engine._num_vertices = len(vertex_of)
        engine.default_params = params
        engine._substrate_cache = {}
        return engine

    # ------------------------------------------------------------------
    # prepared-graph introspection
    # ------------------------------------------------------------------
    @property
    def order(self) -> DegreeOrder | None:
        """The canonical degree order (``None`` for canonical-edge engines)."""
        return self._canonical.order()

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The canonical ranked edge list shared by every run."""
        return self._canonical.records()

    @property
    def num_edges(self) -> int:
        """Number of canonical edges."""
        return self._canonical.num_edges

    @property
    def num_vertices(self) -> int:
        """Number of vertices (0 when built from canonical edges)."""
        return self._num_vertices

    # ------------------------------------------------------------------
    # running configurations
    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: str = "cache_aware",
        *,
        params: MachineParams | None = None,
        seed: int = 0,
        sink: TriangleSink | None = None,
        collect: bool = False,
        shards: int | None = None,
        jobs: int = 1,
        task_timeout: float | None = None,
        max_retries: int | None = None,
        pool: str | None = None,
        options: AlgorithmOptions | Mapping[str, Any] | None = None,
        **option_kwargs: Any,
    ) -> RunResult:
        """Run one configuration against the prepared graph.

        Each call simulates a fresh machine (fresh I/O counters), so results
        of successive runs are independent and comparable.  ``sink`` receives
        every triangle in original vertex labels as it is emitted;
        ``collect=True`` materialises the triangle list on the result.  With
        neither, only the count is computed and the per-triangle rank→label
        translation is skipped entirely (the fast path used by sweeps).
        ``options`` is the algorithm's typed options dataclass or a mapping
        validated against it; loose keyword arguments are accepted too.

        ``shards=c`` switches to the colour-sharded execution path
        (:mod:`repro.core.sharding`): the edge list decomposes by the
        paper's ``c``-colour vertex colouring into independent colour-triple
        subproblems, each executed on a fresh substrate -- across ``jobs``
        worker processes when ``jobs > 1`` -- and merged deterministically,
        with the serial run's counters.  Only shardable algorithms
        (``cache_aware``, ``deterministic``) accept it
        (:class:`~repro.exceptions.OptionsError` otherwise).  ``task_timeout``
        and ``max_retries`` tune the supervision of those shard workers (a
        dead or hung worker's shard is retried, bit-identically);
        ``pool="persistent"|"spawn"`` selects the worker-pool strategy
        (default persistent: the warm process-wide pool plus shared-memory
        edge segments, see :mod:`repro.poolexec`).  All of them require
        ``shards``.
        """
        spec = get_algorithm(algorithm)
        resolved = spec.resolve_options(options, option_kwargs)
        sharding = spec.resolve_sharding(shards, jobs, task_timeout, max_retries, pool)
        run_params = params or self.default_params or MachineParams.default()

        collector = _LabelCollector() if collect else None
        inner: TriangleSink | None
        if sink is not None and collector is not None:
            inner = _TeeSink(sink, collector)
        elif sink is not None:
            inner = sink
        elif collector is not None:
            inner = collector
        else:
            inner = None

        ranked_sink: Any
        vertex_of = self._canonical.vertex_of if inner is not None else None
        if inner is None:
            ranked_sink = CountingSink()
        elif vertex_of is not None:
            ranked_sink = _TranslatingSink(inner, vertex_of)
        else:
            ranked_sink = _CountingForwarder(inner)

        if sharding is not None:
            return self._run_sharded(
                spec, resolved, run_params, seed, sharding, ranked_sink, inner, collector
            )

        stats = IOStats()
        started = time.perf_counter()
        context = SubstrateContext(
            params=run_params, stats=stats, seed=seed, cache=self._substrate_cache
        )
        machine: Machine | None = None
        vm: ObliviousVM | None = None
        if spec.substrate == "machine":
            machine = Machine(run_params, stats)
            context.machine = machine
            context.edge_file = edges_to_file(machine, self.edges)
        elif spec.substrate == "oblivious-vm":
            vm = ObliviousVM(run_params, stats)
            context.vm = vm
            context.edge_vector = edges_to_vector(vm, self.edges)
        else:  # in-memory
            context.canonical_edges = self._canonical.held
            context.records = self._canonical.records
        if inner is None and spec.counter is not None:
            # Registered count-only adapter: answer the count query without
            # emitting (or translating) a single triangle.  ``ranked_sink``
            # is the plain CountingSink on this branch; adopt the total so
            # the result assembly below stays uniform.  Counters may return
            # a bare count or a ``(count, report)`` pair.
            outcome = spec.counter(context, resolved)
            if isinstance(outcome, tuple):
                ranked_sink.count, report = outcome
            else:
                ranked_sink.count, report = outcome, None
        else:
            report = spec.runner(context, ranked_sink, resolved)
        disk_peak = 0
        phases: dict[str, int] | None = None
        if machine is not None:
            disk_peak = machine.disk.peak_words
            phases = machine.stats.phases
        elif vm is not None:
            disk_peak = vm.peak_words
        elapsed = time.perf_counter() - started

        return RunResult(
            algorithm=algorithm,
            params=run_params,
            num_edges=self.num_edges,
            triangle_count=ranked_sink.count,
            io=stats.snapshot(),
            disk_peak_words=disk_peak,
            wall_time_seconds=elapsed,
            num_vertices=self._num_vertices,
            triangles=collector.triangles if collector is not None else None,
            report=report,
            phases=phases,
            order_source=self._canonical.order_source,
        )

    def _run_sharded(
        self,
        spec: Any,
        resolved: AlgorithmOptions,
        run_params: MachineParams,
        seed: int,
        sharding: Any,
        ranked_sink: Any,
        inner: TriangleSink | None,
        collector: "_LabelCollector | None",
    ) -> RunResult:
        """Execute one configuration through the colour-sharded path."""
        from repro.core.sharding import run_sharded

        started = time.perf_counter()
        outcome = run_sharded(
            self.edges,
            spec,
            resolved,
            run_params,
            seed,
            sharding,
            collect=inner is not None,
            cache=self._substrate_cache,
        )
        if inner is not None:
            # Workers ship ranked triangles; replay them through the usual
            # translating sink so user sinks observe the same label-space
            # stream (in deterministic triple order) as a serial run.
            ranked_sink.emit_many(outcome.triangles or [])
            triangle_count = ranked_sink.count
        else:
            triangle_count = outcome.triangle_count
        elapsed = time.perf_counter() - started

        return RunResult(
            algorithm=spec.name,
            params=run_params,
            num_edges=self.num_edges,
            triangle_count=triangle_count,
            io=outcome.stats.snapshot(),
            disk_peak_words=outcome.disk_peak_words,
            wall_time_seconds=elapsed,
            num_vertices=self._num_vertices,
            triangles=collector.triangles if collector is not None else None,
            report=outcome.report,
            phases=outcome.stats.phases,
            order_source=self._canonical.order_source,
            sharding=outcome.sharding,
        )

    def count(
        self,
        algorithm: str = "cache_aware",
        *,
        params: MachineParams | None = None,
        seed: int = 0,
        shards: int | None = None,
        jobs: int = 1,
        task_timeout: float | None = None,
        max_retries: int | None = None,
        pool: str | None = None,
        options: AlgorithmOptions | Mapping[str, Any] | None = None,
        **option_kwargs: Any,
    ) -> int:
        """Number of triangles (count-only fast path; no translation)."""
        result = self.run(
            algorithm,
            params=params,
            seed=seed,
            collect=False,
            shards=shards,
            jobs=jobs,
            task_timeout=task_timeout,
            max_retries=max_retries,
            pool=pool,
            options=options,
            **option_kwargs,
        )
        return result.triangle_count

    def stream(
        self,
        algorithm: str = "cache_aware",
        *,
        params: MachineParams | None = None,
        seed: int = 0,
        batch_size: int = 1024,
        options: AlgorithmOptions | Mapping[str, Any] | None = None,
        **option_kwargs: Any,
    ) -> Iterator[list[tuple[Any, Any, Any]]]:
        """Iterate over the run's triangles as label-triangle batches.

        The algorithm runs on a worker thread and pushes batches of at most
        ``batch_size`` triangles across a bounded queue; the consumer holds
        one batch at a time.  Abandoning the iterator early (``break``,
        ``close()``) tears the worker down.  Exceptions raised by the run
        surface at the consuming side: library errors (:class:`ReproError`,
        e.g. a bad option) re-raise as-is, anything else is wrapped in a
        :class:`~repro.exceptions.StreamWorkerError` with the original as
        ``__cause__`` -- a worker failure is a typed error, never a silently
        truncated stream.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        out: "queue_module.Queue[tuple[str, Any]]" = queue_module.Queue(maxsize=4)
        stop = threading.Event()
        batching = _StreamBatchSink(out, batch_size, stop)

        def work() -> None:
            try:
                self.run(
                    algorithm,
                    params=params,
                    seed=seed,
                    sink=batching,
                    collect=False,
                    options=options,
                    **option_kwargs,
                )
                batching.flush()
                # Stop-aware like every other queue write: a consumer that
                # abandoned the stream with the queue full must not leave
                # the worker blocked on delivering "done".
                _put_or_closed(out, stop, ("done", None))
            except _StreamClosed:
                pass
            except BaseException as error:  # propagated to the consumer
                # Retry past a momentarily-full queue (a slow consumer still
                # draining batches); give up only once the consumer is gone.
                _put_or_closed(out, stop, ("error", error))

        worker = threading.Thread(target=work, name="triangle-stream", daemon=True)
        worker.start()
        try:
            while True:
                kind, payload = out.get()
                if kind == "batch":
                    yield payload
                elif kind == "done":
                    return
                elif isinstance(payload, ReproError) or not isinstance(payload, Exception):
                    # Library errors keep their type; BaseExceptions
                    # (KeyboardInterrupt) must propagate untouched.
                    raise payload
                else:
                    raise StreamWorkerError(
                        f"stream worker for algorithm {algorithm!r} failed: "
                        f"{type(payload).__name__}: {payload}"
                    ) from payload
        finally:
            stop.set()
            # Termination proof for this drain loop: every worker-side queue
            # write is a stop-aware `_put_or_closed`, so once `stop` is set
            # the worker can block on the queue for at most one 0.1s poll
            # before unwinding via _StreamClosed -- it cannot re-block after
            # the drain below frees a slot.  Draining *and* joining on every
            # iteration (rather than joining only when the queue happens to
            # be empty) closes the old race where a worker stuck in `put`
            # refilled the queue between `get_nowait` and the join, keeping
            # the loop spinning without ever waiting on the thread.
            while worker.is_alive():
                try:
                    while True:
                        out.get_nowait()
                except queue_module.Empty:
                    pass
                worker.join(timeout=0.05)

    # ------------------------------------------------------------------
    # resource lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release run-to-run substrate state held by this engine.

        Sharded runs park their published shared-memory segments in the
        substrate cache so repeated runs re-transfer nothing, and the
        out-of-core backend parks its spill-directory store there for the
        same reason; closing the engine releases every closeable cache
        entry (idempotently -- segments unlink, spill directories are
        removed) and drops the rest.  Plain derived representations (e.g.
        the vectorized CSR) are dropped too; the engine stays usable -- the
        next run simply re-derives what it needs.  Also safe to skip
        entirely: segments and spill directories are reclaimed at
        interpreter exit regardless.
        """
        for key, value in list(self._substrate_cache.items()):
            closer = getattr(value, "close", None)
            if callable(closer):
                closer()
            del self._substrate_cache[key]

    def __enter__(self) -> "TriangleEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def run_many(
        self,
        configurations: Iterable[tuple[str, Mapping[str, Any]]],
    ) -> list[RunResult]:
        """Run several ``(algorithm, run_kwargs)`` configurations in order."""
        return [self.run(algorithm, **dict(kwargs)) for algorithm, kwargs in configurations]

    def to_labels(self, triangle: tuple[int, int, int]) -> tuple[Any, Any, Any]:
        """Translate a ranked triangle to original labels (identity if none)."""
        vertex_of = self._canonical.vertex_of
        if vertex_of is None:
            return triangle
        a, b, c = triangle
        return (vertex_of[a], vertex_of[b], vertex_of[c])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TriangleEngine(E={self.num_edges}, "
            f"canonicalised={'pre' if self._canonical.vertex_of is None else 'yes'})"
        )
