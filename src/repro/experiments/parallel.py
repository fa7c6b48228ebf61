"""The parallel experiment orchestrator.

:class:`ParallelRunner` takes a flat list of :class:`RunSpec` cells --
produced by the experiment modules' ``specs()`` hooks -- deduplicates them
by content address, satisfies what it can from the artifact store, and
executes the rest through the supervised execution tier
(:func:`repro.resilience.supervised_map_unordered`): serially when
``jobs=1``, otherwise across a monitored worker pool -- by default the
process-wide persistent pool (:mod:`repro.poolexec`), so repeated runs pay
worker startup once -- with per-cell retries, optional task timeouts, and
dead-worker detection.
Results are keyed by spec hash in a :class:`ResultSet`, which the modules'
``tabulate()`` hooks index by spec to re-render their tables.

Partial results are always persisted: every cell that completes is written
to the store the moment it finishes, so an interrupted or partially failed
run resumes from the completed cells.  Cells that fail after exhausting
their retries leave a failure record in the store, which the next run
reports ("N cells failed last run, retrying") and clears on success.

Determinism: a spec's payload contains every seed the task needs, and each
task builds its own workload and simulated machine from scratch, so results
are bit-identical no matter which process executes a cell, in which order
cells finish, or how many times a cell is retried.  The pool uses the
``spawn`` start method for identical behaviour across platforms.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ReproError
from repro.experiments.specs import RunSpec
from repro.experiments.store import ResultStore
from repro.experiments.tasks import execute_spec
from repro.poolexec import POOL_MODES, effective_jobs, provider_for
from repro.resilience import BackoffPolicy, TaskOutcome, active_plan, supervised_map_unordered


class SpecExecutionError(ReproError):
    """Raised when a tabulate hook asks for a cell whose run failed."""


class ResultSet:
    """Results of an orchestrated run, indexable by :class:`RunSpec`."""

    def __init__(
        self,
        results: dict[str, dict[str, Any]],
        errors: dict[str, str] | None = None,
        executed: int = 0,
        cached: int = 0,
        *,
        outcomes: dict[str, TaskOutcome] | None = None,
        retried: int = 0,
    ) -> None:
        self._results = results
        self._errors = errors or {}
        self._outcomes = outcomes or {}
        self.executed = executed
        self.cached = cached
        #: Cells that needed more than one attempt before succeeding or failing.
        self.retried = retried

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.spec_hash in self._results

    def __getitem__(self, spec: RunSpec) -> dict[str, Any]:
        key = spec.spec_hash
        if key in self._results:
            return self._results[key]
        if key in self._errors:
            raise SpecExecutionError(
                f"run {spec.describe()} ({key}) failed:\n{self._errors[key]}"
            )
        raise KeyError(f"no result for spec {spec.describe()} ({key})")

    def get(self, spec: RunSpec, default: dict[str, Any] | None = None) -> dict[str, Any] | None:
        """The result for ``spec``, or ``default`` when missing or failed."""
        return self._results.get(spec.spec_hash, default)

    @property
    def errors(self) -> dict[str, str]:
        """Spec hash -> traceback text for every failed cell."""
        return dict(self._errors)

    @property
    def outcomes(self) -> dict[str, TaskOutcome]:
        """Spec hash -> supervision record for every executed cell."""
        return dict(self._outcomes)


def dedupe_specs(specs: Iterable[RunSpec]) -> list[RunSpec]:
    """Drop duplicate cells, keeping first-occurrence order."""
    seen: set[str] = set()
    unique: list[RunSpec] = []
    for spec in specs:
        if spec.spec_hash not in seen:
            seen.add(spec.spec_hash)
            unique.append(spec)
    return unique


def _spec_fault_key(_index: int, spec: RunSpec) -> str:
    """The stable fault-injection / backoff key for an orchestrated cell."""
    return f"spec:{spec.spec_hash}"


def _truncate_artifact(path: Path) -> None:
    """Apply an injected ``corrupt`` fault: chop the persisted file in half."""
    raw = path.read_text(encoding="utf-8")
    path.write_text(raw[: len(raw) // 2], encoding="utf-8")


class ParallelRunner:
    """Execute run specs under supervision, resuming from the store."""

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        progress: Callable[[str], None] | None = None,
        task_timeout: float | None = None,
        max_retries: int = 2,
        backoff: BackoffPolicy | None = None,
        pool: str = "persistent",
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if pool not in POOL_MODES:
            raise ValueError(f"pool must be one of {POOL_MODES}, got {pool!r}")
        self.store = store
        self.jobs = jobs
        self.progress = progress
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        #: Worker-pool strategy (:mod:`repro.poolexec`): ``"persistent"``
        #: leases the process-wide warm pool shared with every other runner
        #: and sharded engine run in this process, so back-to-back
        #: ``run()`` calls pay worker startup once; ``"spawn"`` keeps the
        #: historical fresh-pool-per-run behaviour.
        self.pool = pool

    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self, specs: Sequence[RunSpec]) -> ResultSet:
        """Run every spec (deduplicated), returning a :class:`ResultSet`."""
        unique = dedupe_specs(specs)
        results: dict[str, dict[str, Any]] = {}
        errors: dict[str, str] = {}
        outcomes: dict[str, TaskOutcome] = {}

        pending: list[RunSpec] = []
        for spec in unique:
            stored = self.store.get(spec) if self.store is not None else None
            if stored is not None:
                results[spec.spec_hash] = stored
            else:
                pending.append(spec)
        cached = len(results)
        if cached:
            self._report(f"{cached}/{len(unique)} cells already in the store")

        if self.store is not None:
            failed_before = sum(
                1 for spec in pending if self.store.get_failure(spec) is not None
            )
            if failed_before:
                self._report(f"{failed_before} cells failed last run, retrying")

        plan = active_plan()
        resolved_jobs = effective_jobs(self.jobs, len(pending))
        provider = provider_for(self.pool, resolved_jobs) if resolved_jobs > 1 else None
        supervised = supervised_map_unordered(
            execute_spec,
            pending,
            self.jobs,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
            fault_key=_spec_fault_key,
            pool_provider=provider,
        )

        done = 0
        retried = 0
        for item in supervised:
            done += 1
            spec = pending[item.index]
            outcome = item.outcome
            outcomes[spec.spec_hash] = outcome
            if outcome.attempts > 1:
                retried += 1
            retry_note = f" (after {outcome.attempts} attempts)" if outcome.attempts > 1 else ""
            if not outcome.ok:
                errors[spec.spec_hash] = outcome.error or "cell failed with no recorded error"
                if self.store is not None:
                    self.store.put_failure(
                        spec, errors[spec.spec_hash], attempts=outcome.attempts
                    )
                self._report(f"[{done}/{len(pending)}] FAILED {spec.describe()}{retry_note}")
                continue
            results[spec.spec_hash] = item.value
            if self.store is not None:
                path = self.store.put(spec, item.value)
                self.store.clear_failure(spec)
                if plan is not None and plan.should_corrupt(_spec_fault_key(0, spec)):
                    _truncate_artifact(path)
            self._report(f"[{done}/{len(pending)}] {spec.describe()}{retry_note}")

        return ResultSet(
            results,
            errors,
            executed=len(pending) - len(errors),
            cached=cached,
            outcomes=outcomes,
            retried=retried,
        )


def execute_specs(specs: Sequence[RunSpec]) -> ResultSet:
    """Serial, store-less execution (the legacy ``module.run()`` path)."""
    return ParallelRunner(store=None, jobs=1).run(specs)
