"""The supervised worker pool: per-task monitoring, timeouts and retries.

:func:`supervised_map_unordered` is the package's one process-pool map
primitive.  Instead of streaming items through ``Pool.imap_unordered``
-- where one OOM-killed worker silently loses its task and a hung task
stalls the whole run -- every item is submitted individually via
``apply_async`` and supervised:

* **worker-started tracking.**  The worker-side shim announces
  ``(index, attempt, pid)`` over a ``SimpleQueue`` (synchronous pipe write,
  so the message survives an immediately-following crash) before invoking
  the task, giving the supervisor an exact task→worker map.
* **worker-death detection.**  A started task whose worker pid is no longer
  among the pool's live workers (``exitcode`` set, i.e. died with a
  non-zero status or was killed) is *lost*: the pool replaces the dead
  worker on its own, and the supervisor recharges only the lost task.
* **timeouts.**  A started task running past ``task_timeout`` has its
  worker killed (``SIGKILL``; the pool replaces it) and is retried.
  Deadlines run from the *started* message, never from submission, so a
  saturated pool cannot time out tasks that are merely queued.
* **retries with deterministic backoff.**  Failed attempts (raised
  exception, timeout, lost worker) are retried up to ``max_retries`` times
  with capped exponential backoff; jitter is seeded from ``(key, attempt)``
  -- no wall-clock randomness, so scheduling never leaks into results.
* **graceful degradation.**  Pool-level failures (a broken or unusable
  pool) rebuild the pool; after ``max_pool_failures`` rebuilds the
  remaining items run serially in-process, which cannot lose tasks.
* **pluggable pools.**  The pool itself comes from a
  :class:`repro.poolexec.pool.PoolProvider` lease: the default
  :class:`~repro.poolexec.pool.EphemeralPoolProvider` spawns a fresh pool
  per map (the historical semantics), while the persistent provider hands
  out the process-wide warm pool and keeps it alive across maps.  Because
  a persistent pool's started-message queue outlives individual maps,
  every submitted task and every started message is stamped with the
  lease's *epoch*; messages from another epoch are discarded.  Fault
  plans are shipped *inside* each task payload rather than relied upon
  via the environment -- a warm worker spawned before the plan was
  activated would never see the variable.

Every item yields a :class:`SupervisedResult` carrying the task's value and
a structured :class:`TaskOutcome` (attempt count, per-attempt failure kinds
and durations, final error).  Determinism: tasks are pure functions of
their payload, so a retried attempt returns a bit-identical value and the
*set* of yielded results is independent of faults, ordering and job count
-- the property the fault-injection tests pin.

Injected faults (:mod:`repro.resilience.faults`) are applied by the same
worker-side shim, keyed by the caller's ``fault_key``, so every failure
mode above is reproducible on demand.
"""

from __future__ import annotations

import os
import random
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.poolexec.pool import (
    EphemeralPoolProvider,
    PoolLease,
    PoolProvider,
    effective_jobs,
    worker_started_queue,
)
from repro.resilience.faults import FaultPlan, active_plan

Item = TypeVar("Item")

#: Failure kinds that count against ``max_retries`` (``pool-broken`` does
#: not: a broken pool is the infrastructure's fault, not the task's, and is
#: bounded separately by ``max_pool_failures``).
CHARGED_FAILURES = ("exception", "timeout", "worker-lost")


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic, seeded jitter.

    The delay before retry ``attempt`` (1-based) is
    ``min(cap, base * factor**(attempt-1))`` scaled by a jitter factor drawn
    from ``random.Random(f"{key}:{attempt}")`` -- a pure function of the
    task key and attempt number, so two runs of the same plan back off
    identically and results can never depend on wall-clock randomness.
    """

    base_seconds: float = 0.05
    factor: float = 2.0
    cap_seconds: float = 2.0
    jitter: float = 0.1

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` of task ``key``."""
        raw = min(self.cap_seconds, self.base_seconds * self.factor ** max(0, attempt - 1))
        if raw <= 0 or self.jitter <= 0:
            return max(0.0, raw)
        rng = random.Random(f"{key}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass
class TaskOutcome:
    """Structured per-item supervision record."""

    index: int
    key: str
    ok: bool = False
    #: Number of attempts started (successful + failed + preempted).
    attempts: int = 0
    #: Failure kind per failed attempt, in order: ``exception`` /
    #: ``timeout`` / ``worker-lost`` / ``pool-broken``.
    failures: list[str] = field(default_factory=list)
    #: Traceback text (or description) of the most recent failure.
    error: str | None = None
    #: Wall seconds of each attempt (worker-side where available).
    durations: list[float] = field(default_factory=list)
    #: True when the item ran in-process (serial path or degraded mode).
    executed_serially: bool = False

    @property
    def charged_failures(self) -> int:
        """Failures that count against the retry budget."""
        return sum(1 for kind in self.failures if kind in CHARGED_FAILURES)


@dataclass
class SupervisedResult:
    """One supervised item: its value (``None`` on failure) plus outcome."""

    value: Any
    outcome: TaskOutcome

    @property
    def index(self) -> int:
        return self.outcome.index

    @property
    def ok(self) -> bool:
        return self.outcome.ok


@dataclass
class _AttemptResult:
    """What one attempt reports back (picklable; never an exception)."""

    ok: bool
    value: Any = None
    error: str | None = None
    duration: float = 0.0


#: Sentinel: resolve the fault plan from the environment (the serial path;
#: pool attempts instead receive the coordinator's plan inside the payload).
_ENV_PLAN: Any = object()


def _run_attempt(
    function: Callable[[Any], Any],
    item: Any,
    key: str,
    attempt: int,
    in_process: bool,
    plan: Any = _ENV_PLAN,
) -> _AttemptResult:
    """Execute one attempt, applying the given fault plan; never raises."""
    started = time.perf_counter()
    try:
        if plan is _ENV_PLAN:
            plan = active_plan()
        if plan is not None:
            plan.fire(key, attempt, in_process=in_process)
        value = function(item)
        return _AttemptResult(ok=True, value=value, duration=time.perf_counter() - started)
    except Exception:  # noqa: BLE001 - the traceback is the payload
        return _AttemptResult(
            ok=False, error=traceback.format_exc(), duration=time.perf_counter() - started
        )


def _pool_attempt(packed: tuple) -> tuple[str, int, _AttemptResult]:
    """Worker entry point: announce the attempt, then run it.

    The payload carries the coordinator's fault plan (as JSON) instead of
    the worker consulting its own environment: a persistent worker may have
    been spawned before the plan was activated -- or after it was retired
    -- so only the coordinator's view at submission time is authoritative.
    """
    epoch, index, attempt, function, item, key, plan_json = packed
    queue = worker_started_queue()
    if queue is not None:
        # SimpleQueue.put is a synchronous pipe write (no feeder thread), so
        # the supervisor learns about this attempt even if the task crashes
        # the interpreter on the very next line.
        queue.put((epoch, index, attempt, os.getpid()))
    plan = FaultPlan.from_json(plan_json) if plan_json is not None else None
    return (
        epoch,
        index,
        _run_attempt(function, item, key, attempt, in_process=False, plan=plan),
    )


def _complete_serially(
    function: Callable[[Any], Any],
    item: Any,
    outcome: TaskOutcome,
    max_retries: int,
    backoff: BackoffPolicy,
) -> SupervisedResult:
    """Drive one item to completion in-process (no pool, no timeouts).

    Continues from whatever failures ``outcome`` already carries, so the
    degraded mode resumes each task's remaining retry budget.  Crash and
    hang faults degrade to exceptions in-process (see
    :meth:`~repro.resilience.faults.FaultPlan.fire`), so this path always
    terminates.
    """
    outcome.executed_serially = True
    while True:
        attempt = outcome.charged_failures
        if attempt > max_retries:
            return SupervisedResult(None, outcome)
        if attempt > 0:
            time.sleep(backoff.delay(outcome.key, attempt))
        outcome.attempts += 1
        result = _run_attempt(function, item, outcome.key, attempt, in_process=True)
        outcome.durations.append(result.duration)
        if result.ok:
            outcome.ok = True
            outcome.error = None
            return SupervisedResult(result.value, outcome)
        outcome.failures.append("exception")
        outcome.error = result.error


@dataclass
class _InFlight:
    """Supervisor-side record of one submitted attempt."""

    async_result: Any
    attempt: int
    submitted_at: float
    started_at: float | None = None
    pid: int | None = None


class _PoolSupervisor:
    """Drives one supervised map over a spawn pool.  Single-use."""

    def __init__(
        self,
        function: Callable[[Any], Any],
        items: list,
        keys: list[str],
        jobs: int,
        task_timeout: float | None,
        max_retries: int,
        backoff: BackoffPolicy,
        poll_interval: float,
        max_pool_failures: int,
        provider: PoolProvider,
    ) -> None:
        self.function = function
        self.items = items
        self.keys = keys
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.poll_interval = poll_interval
        self.max_pool_failures = max_pool_failures
        self.provider = provider
        plan = active_plan()
        #: The coordinator's fault plan, serialised once and shipped inside
        #: every task payload (see :func:`_pool_attempt`).
        self.plan_json = plan.to_json() if plan is not None else None

        self.outcomes = {i: TaskOutcome(index=i, key=keys[i]) for i in range(len(items))}
        #: (earliest submit monotonic time, index) of tasks awaiting (re)submission.
        self.ready: list[tuple[float, int]] = [(0.0, i) for i in range(len(items))]
        self.inflight: dict[int, _InFlight] = {}
        self.finished: list[SupervisedResult] = []
        self.remaining = len(items)
        self.lease: PoolLease | None = None
        self.pool_failures = 0
        self.degraded = False

    # -- pool lifecycle ------------------------------------------------
    def _start_pool(self) -> None:
        self.lease = self.provider.lease()

    def _stop_pool(self) -> None:
        lease, self.lease = self.lease, None
        if lease is not None:
            self.provider.release(lease)

    def _pool_broken(self, error: str) -> None:
        """A pool-level failure: resubmit in-flight work, rebuild or degrade.

        ``pool-broken`` failures are recorded on the affected tasks but do
        not count against their retry budgets -- the infrastructure failed,
        not the task; runaway pools are bounded by ``max_pool_failures``,
        after which everything remaining runs serially in-process.
        """
        self.pool_failures += 1
        now = time.monotonic()
        for index, flight in list(self.inflight.items()):
            outcome = self.outcomes[index]
            outcome.failures.append("pool-broken")
            outcome.error = error
            outcome.durations.append(now - flight.submitted_at)
            self.ready.append((now, index))
        self.inflight.clear()
        lease, self.lease = self.lease, None
        if lease is not None:
            self.provider.invalidate(lease)
        if self.pool_failures >= self.max_pool_failures:
            self.degraded = True
        else:
            self._start_pool()

    def _worker_pids(self) -> set[int] | None:
        """Pids of the pool's *live* workers, or ``None`` when unknowable.

        Reads the pool's worker list (stable CPython internals); a worker
        whose ``exitcode`` is already set has died and is excluded, which is
        what makes death detection immediate rather than waiting for the
        pool's own reaper thread.
        """
        pool = self.lease.pool if self.lease is not None else None
        workers = getattr(pool, "_pool", None)
        if workers is None:
            return None
        try:
            return {w.pid for w in workers if w.exitcode is None and w.pid is not None}
        except Exception:  # pragma: no cover - defensive against internals drift
            return None

    def _kill_worker(self, pid: int | None) -> None:
        """Forcibly stop the worker running a timed-out task; pool self-heals."""
        if pid is None:
            return
        try:
            os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
        except (ProcessLookupError, PermissionError, OSError):
            pass

    # -- supervision steps ---------------------------------------------
    def _submit_ready(self) -> None:
        now = time.monotonic()
        queue = self.ready
        self.ready = []
        while queue:
            not_before, index = queue.pop(0)
            if not_before > now:
                self.ready.append((not_before, index))
                continue
            outcome = self.outcomes[index]
            attempt = outcome.charged_failures
            packed = (
                self.lease.epoch if self.lease is not None else "",
                index,
                attempt,
                self.function,
                self.items[index],
                self.keys[index],
                self.plan_json,
            )
            try:
                async_result = self.lease.pool.apply_async(_pool_attempt, (packed,))
            except Exception:
                # Put the unsubmitted work back before handling the broken
                # pool so nothing is dropped.
                self.ready.append((now, index))
                self.ready.extend(queue)
                self._pool_broken(f"pool rejected a task submission:\n{traceback.format_exc()}")
                return
            outcome.attempts += 1
            self.inflight[index] = _InFlight(
                async_result=async_result, attempt=attempt, submitted_at=now
            )

    def _drain_started(self) -> None:
        lease = self.lease
        queue = lease.started_queue if lease is not None else None
        while queue is not None and not queue.empty():
            epoch, index, attempt, pid = queue.get()
            if epoch != lease.epoch:
                # A message from a previous map over the same (persistent)
                # pool -- its indices mean nothing here; drop it.
                continue
            flight = self.inflight.get(index)
            if flight is not None and flight.attempt == attempt:
                flight.started_at = time.monotonic()
                flight.pid = pid

    def _attempt_failed(
        self, index: int, kind: str, error: str, duration: float | None = None
    ) -> None:
        """Record a charged failure; schedule a retry or finalise the task."""
        flight = self.inflight.pop(index)
        outcome = self.outcomes[index]
        outcome.failures.append(kind)
        outcome.error = error
        if duration is None:
            started = flight.started_at if flight.started_at is not None else flight.submitted_at
            duration = time.monotonic() - started
        outcome.durations.append(duration)
        retry = outcome.charged_failures
        if retry > self.max_retries:
            self.finished.append(SupervisedResult(None, outcome))
            self.remaining -= 1
        else:
            delay = self.backoff.delay(outcome.key, retry)
            self.ready.append((time.monotonic() + delay, index))

    def _finish(self, index: int, value: Any) -> None:
        self.inflight.pop(index, None)
        outcome = self.outcomes[index]
        outcome.ok = True
        outcome.error = None
        self.finished.append(SupervisedResult(value, outcome))
        self.remaining -= 1

    def _reap_completed(self) -> None:
        for index, flight in list(self.inflight.items()):
            if not flight.async_result.ready():
                continue
            try:
                _, _, result = flight.async_result.get()
            except Exception:  # unpicklable result / pool-internal error
                self._attempt_failed(index, "exception", traceback.format_exc())
                continue
            if result.ok:
                self.outcomes[index].durations.append(result.duration)
                self._finish(index, result.value)
            else:
                self._attempt_failed(index, "exception", result.error, duration=result.duration)

    def _check_lost_and_hung(self) -> None:
        if not self.inflight:
            return
        live_pids = self._worker_pids()
        now = time.monotonic()
        for index, flight in list(self.inflight.items()):
            if flight.async_result.ready():
                # Completed between _reap_completed and now -- let the next
                # _reap_completed collect it rather than charging a failure.
                continue
            if flight.pid is not None:
                dead = (
                    flight.pid not in live_pids
                    if live_pids is not None
                    else not _pid_alive(flight.pid)
                )
                if dead:
                    # The worker may have posted this task's result just
                    # before dying (it crashed on its *next* task); give the
                    # pool's result-handler thread a beat to deliver it so a
                    # finished task is not spuriously charged with the crash.
                    flight.async_result.wait(0.1)
                    if flight.async_result.ready():
                        continue
                    self._attempt_failed(
                        index,
                        "worker-lost",
                        f"worker pid {flight.pid} died (non-zero exit) while running this task",
                    )
                    continue
            if (
                self.task_timeout is not None
                and flight.started_at is not None
                and now - flight.started_at > self.task_timeout
            ):
                self._kill_worker(flight.pid)
                self._attempt_failed(
                    index,
                    "timeout",
                    f"task exceeded task_timeout={self.task_timeout}s "
                    f"(worker pid {flight.pid} killed)",
                )

    # -- the drive loop ------------------------------------------------
    def run(self) -> Iterator[SupervisedResult]:
        try:
            self._start_pool()
            while self.remaining > 0:
                if self.degraded:
                    yield from self._drain_serially()
                    return
                self._submit_ready()
                self._drain_started()
                self._reap_completed()
                self._check_lost_and_hung()
                while self.finished:
                    yield self.finished.pop(0)
                if self.remaining > 0 and not self.finished:
                    time.sleep(self.poll_interval)
        finally:
            # Unconditional teardown: a consumer abandoning the iterator, a
            # KeyboardInterrupt mid-poll, or normal exhaustion all terminate
            # and reap the worker processes before control returns.
            self._stop_pool()

    def _drain_serially(self) -> Iterator[SupervisedResult]:
        """Degraded mode: finish every remaining item in-process."""
        leftover = sorted(set(i for _, i in self.ready) | set(self.inflight))
        self.inflight.clear()
        self.ready = []
        for index in leftover:
            outcome = self.outcomes[index]
            yield _complete_serially(
                self.function, self.items[index], outcome, self.max_retries, self.backoff
            )
            self.remaining -= 1


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM: alive but not ours
        return True
    return True


def supervised_map_unordered(
    function: Callable[[Item], Any],
    items: Sequence[Item],
    jobs: int,
    *,
    task_timeout: float | None = None,
    max_retries: int = 2,
    backoff: BackoffPolicy | None = None,
    fault_key: Callable[[int, Item], str] | None = None,
    poll_interval: float = 0.05,
    max_pool_failures: int = 3,
    pool_provider: PoolProvider | None = None,
) -> Iterator[SupervisedResult]:
    """Apply ``function`` to every item under supervision; yield as completed.

    The fault-tolerant execution tier (see the module docstring for the
    supervision model).  Yields exactly one :class:`SupervisedResult` per
    item, in completion order on the pool path and input order on the
    serial path; a result's ``outcome.ok`` is ``False`` when the task kept
    failing past ``max_retries`` -- supervision never raises for a task
    failure, so one poisoned item cannot abort its siblings.

    ``function`` must be importable by name and items/results picklable
    (the spawn start method pickles them).  ``fault_key``
    derives the stable per-item key used for fault injection, backoff
    jitter seeding and diagnostics; it defaults to the item's index.

    Serial execution (``jobs=1``, single item, or a daemonic caller --
    see :func:`repro.poolexec.effective_jobs`) runs in-process: exceptions
    are still retried with backoff, but ``task_timeout`` cannot be enforced
    on the caller's own thread and is ignored.

    ``pool_provider`` selects the pool strategy: ``None`` (the default)
    spawns a fresh ephemeral pool for this map and terminates it on exit --
    the historical behaviour -- while a
    :class:`repro.poolexec.pool.PersistentPoolProvider` leases the
    process-wide warm pool and leaves it running for the next map.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be positive, got {task_timeout}")
    items = list(items)
    keys = [fault_key(i, item) if fault_key is not None else str(i) for i, item in enumerate(items)]
    policy = backoff if backoff is not None else BackoffPolicy()

    if effective_jobs(jobs, len(items)) == 1:
        for index, item in enumerate(items):
            outcome = TaskOutcome(index=index, key=keys[index])
            yield _complete_serially(function, item, outcome, max_retries, policy)
        return

    resolved_jobs = effective_jobs(jobs, len(items))
    supervisor = _PoolSupervisor(
        function=function,
        items=items,
        keys=keys,
        jobs=resolved_jobs,
        task_timeout=task_timeout,
        max_retries=max_retries,
        backoff=policy,
        poll_interval=poll_interval,
        max_pool_failures=max_pool_failures,
        provider=(
            pool_provider if pool_provider is not None else EphemeralPoolProvider(resolved_jobs)
        ),
    )
    yield from supervisor.run()
