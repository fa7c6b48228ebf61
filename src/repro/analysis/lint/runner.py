"""File collection, rule execution, suppression and baseline application."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.lint.baseline import Baseline, BaselineEntry
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules import ALL_RULES, FileContext, Rule
from repro.analysis.lint.suppressions import Suppression, parse_suppressions

#: Code attached to files the analyzer cannot parse at all.
PARSE_ERROR_CODE = "RPR100"

#: What ``repro lint`` checks when given no paths: every Python tree of the
#: repository.  Paths that do not exist under the root are skipped.
DEFAULT_TARGETS = ("src", "benchmarks", "tests", "perfbench", "examples", "tools")


@dataclass
class UnusedSuppression:
    """A ``# repro-lint: ignore[...]`` that silenced nothing."""

    file: str
    line: int
    codes: tuple[str, ...]

    def to_json(self) -> dict[str, object]:
        return {"file": self.file, "line": self.line, "codes": list(self.codes)}


@dataclass
class LintReport:
    """Everything one lint run produced, pre-split against the baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    unused_suppressions: list[UnusedSuppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def all_findings(self) -> list[Finding]:
        return sorted([*self.new, *self.baselined])

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean; 1 on new findings (and, under strict, stale entries)."""
        if self.new:
            return 1
        if strict and self.stale:
            return 1
        return 0


def _apply_suppressions(
    findings: Sequence[Finding], suppressions: Sequence[Suppression]
) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        silenced = False
        for suppression in suppressions:
            if suppression.target_line == finding.line and suppression.matches(finding.code):
                suppression.used.add(finding.code)
                silenced = True
        if not silenced:
            kept.append(finding)
    return kept


def lint_source(
    source: str,
    path: str = "<memory>",
    rules: Sequence[Rule] = ALL_RULES,
) -> list[Finding]:
    """Lint one in-memory source blob; the primary hook for rule tests.

    ``path`` drives path-scoped rules (e.g. pass ``src/repro/core/x.py`` to
    put the blob on RPR102's counted paths), and inline suppressions in
    ``source`` are honoured exactly as they are on disk.
    """
    findings, _ = _lint_one(source, path, rules)
    return findings


def _lint_one(
    source: str, path: str, rules: Sequence[Rule]
) -> tuple[list[Finding], list[UnusedSuppression]]:
    try:
        context = FileContext.parse(path, source)
    except (SyntaxError, ValueError) as error:
        parse_failure = Finding(
            file=path,
            line=getattr(error, "lineno", None) or 1,
            column=0,
            code=PARSE_ERROR_CODE,
            message=f"file does not parse: {error}",
        )
        return [parse_failure], []

    raw: list[Finding] = []
    for rule in rules:
        if rule.applies_to(path):
            raw.extend(rule.check(context))
    # One finding per (line, column, code): overlapping AST walks must not
    # double-report a single offending expression.
    unique: dict[tuple[int, int, str], Finding] = {}
    for finding in raw:
        unique.setdefault((finding.line, finding.column, finding.code), finding)

    suppressions = parse_suppressions(source)
    kept = _apply_suppressions(sorted(unique.values()), suppressions)
    unused = [
        UnusedSuppression(
            file=path, line=suppression.comment_line, codes=tuple(sorted(suppression.codes))
        )
        for suppression in suppressions
        if not suppression.used
    ]
    return kept, unused


def _collect_files(paths: Sequence[str | Path], root: Path) -> list[Path]:
    collected: list[Path] = []
    for entry in paths:
        target = Path(entry)
        if not target.is_absolute():
            target = root / target
        if target.is_dir():
            for candidate in sorted(target.rglob("*.py")):
                parts = candidate.relative_to(target).parts
                if any(part == "__pycache__" or part.startswith(".") for part in parts):
                    continue
                collected.append(candidate)
        elif target.suffix == ".py":
            collected.append(target)
    # De-duplicate while preserving the sorted-per-entry order.
    seen: set[Path] = set()
    unique: list[Path] = []
    for candidate in collected:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[str | Path],
    root: str | Path = ".",
    rules: Sequence[Rule] = ALL_RULES,
    baseline: Baseline | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) under ``root``.

    Findings are split against ``baseline`` (an empty one if ``None``):
    ``report.new`` is what a gate should fail on, ``report.baselined`` is
    accepted debt, and ``report.stale`` is baseline entries whose finding
    no longer exists (the entry must be removed alongside the fix).
    """
    root = Path(root).resolve()
    report = LintReport()
    all_findings: list[Finding] = []
    for file_path in _collect_files(paths, root):
        relative = _relative_posix(file_path.resolve(), root)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as error:
            all_findings.append(
                Finding(
                    file=relative,
                    line=1,
                    column=0,
                    code=PARSE_ERROR_CODE,
                    message=f"file is unreadable: {error}",
                )
            )
            continue
        findings, unused = _lint_one(source, relative, rules)
        all_findings.extend(findings)
        report.unused_suppressions.extend(unused)
        report.files_checked += 1

    match = (baseline or Baseline()).match(all_findings)
    report.new = match.new
    report.baselined = match.baselined
    report.stale = match.stale
    return report
