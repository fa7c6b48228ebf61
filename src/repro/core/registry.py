"""The declarative algorithm registry behind the public API.

Every triangle-enumeration algorithm in the package is described by one
:class:`AlgorithmSpec` -- its name, the paper section it implements, its
I/O bound, which substrate it runs on (the explicit cache-aware
:class:`~repro.extmem.machine.Machine`, the cache-oblivious
:class:`~repro.extmem.oblivious.ObliviousVM`, or plain internal memory),
whether it consumes a random seed, and a *typed options dataclass* that
validates per-algorithm knobs up front.  Specs are registered with the
:func:`register_algorithm` decorator (see :mod:`repro.core.algorithms` for
the seven built-in registrations) and consumed by
:class:`repro.core.engine.TriangleEngine`, which replaced the two
hard-coded ``if/elif`` dispatch chains the repo used to have.

Third-party algorithms plug in the same way::

    from repro.core.registry import AlgorithmOptions, register_algorithm

    @register_algorithm(
        "my_algorithm",
        summary="...",
        section="-",
        io_bound="O(...)",
        substrate="machine",
        accepts_seed=True,
    )
    def _run_mine(context, sink, options):
        return my_algorithm(context.machine, context.edge_file, sink)

and are immediately runnable through the engine, ``enumerate_triangles``,
``run_on_edges``, the CLI and the experiment orchestrator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.exceptions import AlgorithmError, OptionsError, RegistrationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.model import MachineParams
    from repro.extmem.disk import ExtFile
    from repro.extmem.machine import Machine
    from repro.extmem.oblivious import ExtVector, ObliviousVM
    from repro.extmem.stats import IOStats

#: The substrate kinds an algorithm may declare.
SUBSTRATES = ("machine", "oblivious-vm", "in-memory")

#: How a machine-kind algorithm participates in sharded execution:
#: ``subgraph`` (the generic colour-triple decomposition re-runs the whole
#: algorithm per shard) or ``triples`` (the algorithm's own colour-triple
#: phase is distributed via ``SubstrateContext.triples_executor``, keeping
#: aggregated counters bit-identical to the serial run).
SHARDING_MODES = ("subgraph", "triples")


@dataclass(frozen=True)
class AlgorithmOptions:
    """Base class for per-algorithm typed options.

    Subclasses are plain (frozen) dataclasses whose fields are the
    algorithm's knobs.  :meth:`from_mapping` builds an instance from the
    untyped dictionaries that arrive over the CLI / experiment-spec / JSON
    boundary, rejecting unknown keys, and :meth:`validate` (overridden per
    subclass) checks types and ranges.  Both raise
    :class:`repro.exceptions.OptionsError`.
    """

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "AlgorithmOptions":
        """Build validated options from an untyped mapping."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            accepted = ", ".join(sorted(known)) if known else "none"
            raise OptionsError(
                f"unknown option(s) {', '.join(map(repr, unknown))} for {cls.__name__}; "
                f"accepted: {accepted}"
            )
        instance = cls(**dict(mapping))
        instance.validate()
        return instance

    def validate(self) -> None:
        """Check field types and ranges; subclasses override."""

    def _require_optional_positive_int(self, name: str, minimum: int = 1) -> None:
        """Shared check: field must be ``None`` or an ``int >= minimum``."""
        value = getattr(self, name)
        if value is None:
            return
        if isinstance(value, bool) or not isinstance(value, int):
            raise OptionsError(f"{name} must be an int or None, got {value!r}")
        if value < minimum:
            raise OptionsError(f"{name} must be >= {minimum}, got {value}")

    def to_mapping(self) -> dict[str, Any]:
        """The options as a plain dict (only fields that differ may matter)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


@dataclass(frozen=True)
class NoOptions(AlgorithmOptions):
    """Options type of algorithms that take no knobs."""


#: Hard cap on the colour count of a sharded run: ``shards`` colours expand
#: into up to ``shards**3`` colour-triple subproblems, so the cap bounds the
#: task-list size (16**3 = 4096) rather than any algorithmic quantity.
MAX_SHARDS = 16


@dataclass(frozen=True)
class ShardingOptions:
    """Typed knobs of the engine's sharded execution path.

    ``shards`` is the number of colours ``c`` of the paper's vertex
    colouring (Lemma 1/2): the canonical edge list decomposes into at most
    ``c**3`` independent colour-triple subproblems.  ``jobs`` is the number
    of worker processes the subproblems are distributed over (1 executes
    them in-process, in triple order).

    ``task_timeout`` and ``max_retries`` tune the supervised execution tier
    (:func:`repro.resilience.supervised_map_unordered`) that ships the
    subproblems to the pool: a shard whose worker dies, hangs past the
    timeout, or raises is retried up to ``max_retries`` times before the
    run fails with a :class:`~repro.core.sharding.ShardExecutionError`.
    Retries cannot change results -- every shard is a pure function of its
    task payload.

    ``pool`` selects the worker-pool strategy (:mod:`repro.poolexec`):
    ``"persistent"`` (the default) leases the process-wide warm pool and
    ships edge payloads through shared-memory segments, so repeated runs
    pay neither worker startup nor graph re-transfer; ``"spawn"`` builds a
    fresh pool per run and tears it down afterwards.  The strategy cannot
    change results -- only where and how fast the same pure tasks execute.
    """

    shards: int = 1
    jobs: int = 1
    task_timeout: float | None = None
    max_retries: int = 2
    pool: str = "persistent"

    def validate(self) -> None:
        """Check every knob is in range."""
        for name in ("shards", "jobs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise OptionsError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise OptionsError(f"{name} must be >= 1, got {value}")
        if self.shards > MAX_SHARDS:
            raise OptionsError(
                f"shards must be <= {MAX_SHARDS} "
                f"(shards**3 colour triples are enumerated), got {self.shards}"
            )
        if self.task_timeout is not None:
            if isinstance(self.task_timeout, bool) or not isinstance(
                self.task_timeout, (int, float)
            ):
                raise OptionsError(f"task_timeout must be a number, got {self.task_timeout!r}")
            if self.task_timeout <= 0:
                raise OptionsError(f"task_timeout must be positive, got {self.task_timeout}")
        if isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int):
            raise OptionsError(f"max_retries must be an int, got {self.max_retries!r}")
        if self.max_retries < 0:
            raise OptionsError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.pool not in ("persistent", "spawn"):
            raise OptionsError(
                f"pool must be 'persistent' or 'spawn', got {self.pool!r}"
            )


@dataclass
class SubstrateContext:
    """Everything an algorithm adapter needs to run one configuration.

    Built by the engine per run: exactly one of ``machine``/``edge_file``
    (substrate ``machine``), ``vm``/``edge_vector`` (substrate
    ``oblivious-vm``) or ``canonical_edges``/``records`` (substrate
    ``in-memory``) is populated, according to the spec's declared substrate
    kind.  In-memory algorithms read the edges in the form the engine holds
    them, or ask :meth:`edge_records` for the tuple list.
    """

    params: "MachineParams"
    stats: "IOStats"
    seed: int
    machine: "Machine | None" = None
    edge_file: "ExtFile | None" = None
    vm: "ObliviousVM | None" = None
    edge_vector: "ExtVector | None" = None
    #: The canonical edges as the engine holds them: the ``(E, 2)`` array
    #: of an engine built from an edge array, else the ``(u, v)`` tuple list
    #: (``pack_edges`` and ``build_store`` take either).
    canonical_edges: Any = None
    #: Returns the canonical ``(u, v)`` tuple list; an engine built from an
    #: edge array derives it on the first call and keeps it.
    records: Callable[[], list[tuple[int, int]]] | None = None
    #: Sharded runs of ``sharding="triples"`` algorithms: a drop-in
    #: replacement for the serial colour-triple loop with the signature of
    #: :func:`repro.core.cache_aware.enumerate_colored_triples`.  ``None``
    #: (the default) means run the triples phase in-process as usual.
    triples_executor: Callable[..., int] | None = None
    #: Companion hook for the Lemma-1 high-degree phase of ``triples``
    #: algorithms: a drop-in replacement for the serial per-vertex loop,
    #: called as ``(machine, edge_file, sink, high_vertices) -> emitted``.
    #: ``None`` (the default) keeps the phase in-process.
    high_degree_executor: Callable[..., int] | None = None
    #: Per-engine scratch shared by every run of the same prepared graph
    #: (``None`` outside an engine).  The engine canonicalises once; an
    #: algorithm may likewise derive an input representation once -- the
    #: vectorized backend stashes its packed CSR here -- keyed by strings
    #: of its own choosing.  Entries must be pure functions of the
    #: (immutable) canonical edge list plus the key.
    cache: dict[str, Any] | None = None

    def edge_records(self) -> list[tuple[int, int]]:
        """The canonical ``(u, v)`` tuple list of an in-memory run."""
        if self.records is None:
            raise ValueError("the canonical edge records belong to the in-memory substrate")
        return self.records()


#: Adapter signature: ``(context, sink, options) -> report``.
AlgorithmRunner = Callable[[SubstrateContext, Any, AlgorithmOptions], Any]

#: Count-only adapter signature: ``(context, options) -> count`` or
#: ``(context, options) -> (count, report)``.  Optional; algorithms that
#: can count without materialising (or even emitting) triangles register
#: one and the engine's count-only path calls it instead of the full
#: runner, carrying the optional report onto the :class:`RunResult` just
#: like a runner's return value.
AlgorithmCounter = Callable[[SubstrateContext, AlgorithmOptions], "int | tuple[int, Any]"]


@dataclass(frozen=True)
class AlgorithmSpec:
    """The declarative description of one registered algorithm."""

    name: str
    summary: str
    section: str
    io_bound: str
    substrate: str
    accepts_seed: bool
    runner: AlgorithmRunner
    options_type: type[AlgorithmOptions] = NoOptions
    #: Sharded-execution capability (meaningful for ``machine`` algorithms
    #: only; see :data:`SHARDING_MODES`).
    sharding: str = "subgraph"
    #: Optional count-only adapter; when present,
    #: :meth:`TriangleEngine.count` (and any ``run`` without a sink or
    #: ``collect``) dispatches here and skips triangle emission entirely.
    counter: "AlgorithmCounter | None" = None

    def resolve_options(
        self,
        options: AlgorithmOptions | Mapping[str, Any] | None,
        extra: Mapping[str, Any] | None = None,
    ) -> AlgorithmOptions:
        """Normalise caller-supplied options into a validated instance.

        ``options`` may be an instance of :attr:`options_type`, an untyped
        mapping, or ``None``; ``extra`` holds loose keyword arguments from
        the back-compat ``**algorithm_options`` entry points.  The two forms
        cannot be mixed.
        """
        extra = dict(extra or {})
        if isinstance(options, AlgorithmOptions):
            if not isinstance(options, self.options_type):
                raise OptionsError(
                    f"algorithm {self.name!r} takes {self.options_type.__name__}, "
                    f"got {type(options).__name__}"
                )
            if extra:
                raise OptionsError(
                    "pass options either as a dataclass or as keyword arguments, not both: "
                    f"stray keywords {sorted(extra)}"
                )
            options.validate()
            return options
        merged = dict(options or {})
        overlap = sorted(set(merged) & set(extra))
        if overlap:
            raise OptionsError(f"option(s) given both in mapping and as keywords: {overlap}")
        merged.update(extra)
        return self.options_type.from_mapping(merged)

    def resolve_sharding(
        self,
        shards: int | None,
        jobs: int = 1,
        task_timeout: float | None = None,
        max_retries: int | None = None,
        pool: str | None = None,
    ) -> "ShardingOptions | None":
        """Normalise caller-supplied sharding knobs into validated options.

        Returns ``None`` when no sharding was requested (``shards is None``,
        ``jobs == 1``) -- the serial path.  Raises
        :class:`repro.exceptions.OptionsError` when ``jobs``,
        ``task_timeout``, ``max_retries`` or ``pool`` is given without
        ``shards``, when the algorithm does not run on the explicit machine
        substrate (only ``machine``-kind algorithms decompose by the
        paper's vertex colouring), or when any knob is out of range.
        ``max_retries=None`` / ``pool=None`` mean the
        :class:`ShardingOptions` defaults.
        """
        if shards is None:
            if jobs != 1:
                raise OptionsError(
                    f"jobs={jobs!r} requires shards: pass shards=c to choose the "
                    "colour count of the decomposition"
                )
            if task_timeout is not None or max_retries is not None:
                raise OptionsError(
                    "task_timeout/max_retries tune the sharded execution tier and "
                    "require shards: pass shards=c to enable sharded execution"
                )
            if pool is not None:
                raise OptionsError(
                    "pool selects the sharded execution tier's worker pool and "
                    "requires shards: pass shards=c to enable sharded execution"
                )
            return None
        if self.substrate != "machine":
            raise OptionsError(
                f"algorithm {self.name!r} runs on substrate {self.substrate!r}; "
                "sharded execution is only defined for 'machine' algorithms"
            )
        knobs: dict[str, Any] = {"shards": shards, "jobs": jobs, "task_timeout": task_timeout}
        if max_retries is not None:
            knobs["max_retries"] = max_retries
        if pool is not None:
            knobs["pool"] = pool
        resolved = ShardingOptions(**knobs)
        resolved.validate()
        return resolved

    def options_schema(self) -> list[dict[str, Any]]:
        """The options fields as ``{name, type, default}`` rows (for the CLI)."""
        rows: list[dict[str, Any]] = []
        for f in dataclasses.fields(self.options_type):
            default: Any
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:  # pragma: no cover - none yet
                default = f.default_factory()
            else:  # pragma: no cover - all current options have defaults
                default = None
            rows.append({"name": f.name, "type": str(f.type), "default": default})
        return rows


#: Registered specs in registration order (which the CLI preserves).
_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    *,
    summary: str,
    section: str,
    io_bound: str,
    substrate: str,
    accepts_seed: bool,
    options: type[AlgorithmOptions] = NoOptions,
    sharding: str = "subgraph",
    counter: "AlgorithmCounter | None" = None,
) -> Callable[[AlgorithmRunner], AlgorithmRunner]:
    """Register an algorithm adapter under ``name`` and return it unchanged.

    ``counter`` optionally supplies a count-only adapter (see
    :data:`AlgorithmCounter`); the engine uses it to answer count queries
    without emitting a single triangle.  Raises
    :class:`repro.exceptions.RegistrationError` for duplicate names, unknown
    substrate kinds, unknown sharding modes, options types that are not
    :class:`AlgorithmOptions` dataclasses, or non-callable counters.
    """
    if substrate not in SUBSTRATES:
        raise RegistrationError(
            f"algorithm {name!r} declares unknown substrate {substrate!r}; "
            f"expected one of {', '.join(SUBSTRATES)}"
        )
    if sharding not in SHARDING_MODES:
        raise RegistrationError(
            f"algorithm {name!r} declares unknown sharding mode {sharding!r}; "
            f"expected one of {', '.join(SHARDING_MODES)}"
        )
    if not (isinstance(options, type) and issubclass(options, AlgorithmOptions)):
        raise RegistrationError(
            f"algorithm {name!r}: options must be an AlgorithmOptions subclass, got {options!r}"
        )
    if counter is not None and not callable(counter):
        raise RegistrationError(
            f"algorithm {name!r}: counter must be callable or None, got {counter!r}"
        )

    def register(runner: AlgorithmRunner) -> AlgorithmRunner:
        # Load the built-ins before the duplicate check, so a third-party
        # registration cannot claim a built-in name while the registry is
        # still empty (which would poison the deferred built-in import).
        # Re-entrant registrations from repro.core.algorithms itself are
        # fine: the module is already in sys.modules mid-import, so
        # _ensure_builtins is a no-op for them.
        _ensure_builtins()
        if name in _REGISTRY:
            raise RegistrationError(f"algorithm {name!r} is already registered")
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            summary=summary,
            section=section,
            io_bound=io_bound,
            substrate=substrate,
            accepts_seed=accepts_seed,
            runner=runner,
            options_type=options,
            sharding=sharding,
            counter=counter,
        )
        return runner

    return register


def unregister_algorithm(name: str) -> None:
    """Remove a registration (tests register throwaway algorithms)."""
    _REGISTRY.pop(name, None)


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a spec by name, raising :class:`AlgorithmError` if missing."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def algorithm_names() -> list[str]:
    """Names of all registered algorithms, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY)


def algorithm_specs() -> list[AlgorithmSpec]:
    """All registered specs, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY.values())


def _ensure_builtins() -> None:
    """Import the built-in registrations exactly once (idempotent)."""
    # Imported lazily to break the cycle registry -> algorithms -> core.* ->
    # (nothing back here); the module body runs once thanks to sys.modules.
    import repro.core.algorithms  # noqa: F401
