"""``repro lint`` -- the AST-based invariant analyzer.

The reproduction's headline claim (bit-identical counters and triangle
sets across serial, sharded, persistent-pool, faulted and service-tier
execution) rests on repo-wide contracts that used to live only in
convention: registry-only algorithm dispatch, deterministic iteration on
counted paths, spawn-safe callables shipped to worker pools, paired
resource cleanup, atomic artifact writes, and lock-guarded shared state.
This package turns each contract into a checked rule (stable ``RPR1xx``
codes, one :class:`~repro.analysis.lint.rules.Rule` visitor per code)
with inline ``# repro-lint: ignore[RPRnnn]`` suppressions and a
checked-in baseline so adoption never blocks on pre-existing findings.

Entry points: the ``repro lint`` CLI subcommand and, programmatically,
:func:`run_lint` / :func:`lint_source`.
"""

from repro.analysis.lint.baseline import Baseline, BaselineEntry
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.reporters import render_human, render_json
from repro.analysis.lint.rules import ALL_RULES, Rule, rule_catalog
from repro.analysis.lint.runner import DEFAULT_TARGETS, LintReport, lint_source, run_lint

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineEntry",
    "DEFAULT_TARGETS",
    "Finding",
    "LintReport",
    "Rule",
    "lint_source",
    "render_human",
    "render_json",
    "rule_catalog",
    "run_lint",
]
