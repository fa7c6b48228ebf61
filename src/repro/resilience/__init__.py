"""Fault-tolerant execution tier: supervised pools and fault injection.

The package has two halves:

:mod:`repro.resilience.supervisor`
    :func:`supervised_map_unordered` -- the package's one process-pool
    map primitive: per-task worker tracking, dead-worker detection, task timeouts, deterministic
    retries with seeded backoff, and graceful degradation to in-process
    execution.  Every consumer of process parallelism in the package (the
    experiment orchestrator, the colour-sharded engine) runs through it.

:mod:`repro.resilience.faults`
    :class:`FaultPlan` -- deterministic, environment-activated fault
    injection (crash / hang / exception / corrupt-artifact), so every
    failure mode the supervisor handles is testable and reproducible.

Because every work unit in this codebase is a pure function of its payload
(content-addressed run specs, colour-shard tasks), a retried task returns a
bit-identical result; supervision therefore changes *when* work happens,
never *what* it computes.
"""

from repro.resilience.faults import (
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    active_plan,
)
from repro.resilience.supervisor import (
    BackoffPolicy,
    SupervisedResult,
    TaskOutcome,
    supervised_map_unordered,
)

__all__ = [
    "BackoffPolicy",
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "SupervisedResult",
    "TaskOutcome",
    "active_plan",
    "supervised_map_unordered",
]
