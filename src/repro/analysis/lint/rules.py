"""The seven invariant rules, one :class:`ast.NodeVisitor`-style checker each.

Every rule is grounded in a contract this repo already relies on (and, for
most, a bug that slipped past review before the contract was checked):

========  ==============================================================
RPR101    algorithm-name string dispatch outside the registry
RPR102    nondeterministic iteration / RNG on counted algorithm paths
RPR103    spawn-unsafe callables handed to worker pools
RPR104    unpaired resource acquisition (shared memory, temp files, locks)
RPR105    non-atomic JSON writes targeting store/results paths
RPR106    lock-guarded fields touched outside their ``with <lock>`` block
RPR107    a seeded RNG rebuilt per loop iteration and used at once
========  ==============================================================

Rules are deliberately syntactic: they inspect one file's AST with a small
amount of local name tracking and a declarative guarded-field map, no
import resolution or cross-module dataflow.  That keeps them fast, fully
deterministic and runnable on any checkout -- the price is that each rule
documents the approximation it makes, and deliberate exceptions carry an
inline ``# repro-lint: ignore[RPRnnn]`` with a justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

from repro.analysis.lint.findings import Finding


# ----------------------------------------------------------------------
# per-file context shared by the rules
# ----------------------------------------------------------------------
@dataclass
class FileContext:
    """One parsed file: path, source, AST, and a parent map for ancestry."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str]
    parents: dict[ast.AST, ast.AST]

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        return cls(
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            parents=parents,
        )

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def source_line(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            file=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            source=self.source_line(node),
        )


class Rule:
    """Base class: a stable code, catalog text, a path scope and a checker."""

    code: ClassVar[str]
    name: ClassVar[str]
    summary: ClassVar[str]
    rationale: ClassVar[str]

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _callee_name(func: ast.expr) -> str | None:
    """The rightmost name of a call target: ``a.b.c(...)`` -> ``c``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _keyword_constant(call: ast.Call, name: str) -> object:
    for keyword in call.keywords:
        if keyword.arg == name and isinstance(keyword.value, ast.Constant):
            return keyword.value.value
    return None


def _inside_with_lock(context: FileContext, node: ast.AST, accepted: Sequence[str]) -> bool:
    """True when ``node`` sits in the body of ``with <expr>`` for an accepted expr."""
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if ast.unparse(item.context_expr) in accepted:
                    return True
    return False


def _inside_init(context: FileContext, node: ast.AST) -> bool:
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor.name == "__init__"
    return False


def _enclosing_function(
    context: FileContext, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _contains(root: ast.AST, node: ast.AST) -> bool:
    return any(candidate is node for candidate in ast.walk(root))


# ----------------------------------------------------------------------
# RPR101 -- registry-only algorithm dispatch
# ----------------------------------------------------------------------
#: Fallback when the live registry is not importable (e.g. linting a
#: broken checkout): the registered names as of this rule's writing.
_STATIC_ALGORITHM_NAMES = frozenset(
    {
        "cache_aware",
        "deterministic",
        "cache_oblivious",
        "hu_tao_chung",
        "dementiev",
        "bnlj",
        "in_memory",
        "vector_count",
        "vector_enum",
    }
)

_ALGORITHM_NAMES_CACHE: frozenset[str] | None = None


def algorithm_name_constants() -> frozenset[str]:
    """The string constants RPR101 treats as algorithm names.

    The live registry is consulted when importable so newly registered
    algorithms are covered without touching the rule; the static fallback
    keeps the linter usable on a tree whose registry does not import.
    """
    global _ALGORITHM_NAMES_CACHE
    if _ALGORITHM_NAMES_CACHE is None:
        names = set(_STATIC_ALGORITHM_NAMES)
        try:
            from repro.core.registry import algorithm_names

            names.update(algorithm_names())
        except Exception:  # pragma: no cover - registry import is best-effort
            pass
        _ALGORITHM_NAMES_CACHE = frozenset(names)
    return _ALGORITHM_NAMES_CACHE


def _dispatch_comparison(test: ast.expr, names: frozenset[str]) -> str | None:
    """An algorithm name compared against in ``test``, or ``None``."""
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for operator, right in zip(node.ops, node.comparators):
            if isinstance(operator, (ast.Eq, ast.NotEq)):
                for side in operands:
                    if isinstance(side, ast.Constant) and side.value in names:
                        return str(side.value)
            elif isinstance(operator, (ast.In, ast.NotIn)):
                if isinstance(right, (ast.Tuple, ast.List, ast.Set)):
                    for element in right.elts:
                        if isinstance(element, ast.Constant) and element.value in names:
                            return str(element.value)
    return None


class RegistryDispatchRule(Rule):
    code = "RPR101"
    name = "registry-dispatch"
    summary = "no algorithm-name string dispatch outside the registry"
    rationale = (
        "PR 3 deleted the if/elif algorithm dispatch chains in favour of "
        "@register_algorithm; a branch or dispatch table keyed on algorithm "
        "names outside core/registry.py and core/algorithms.py is that "
        "design regrowing, and silently misses newly registered algorithms."
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith(("core/registry.py", "core/algorithms.py"))

    def check(self, context: FileContext) -> Iterator[Finding]:
        names = algorithm_name_constants()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.If, ast.IfExp)):
                matched = _dispatch_comparison(node.test, names)
                if matched is not None:
                    yield context.finding(
                        node,
                        self.code,
                        f"branch on algorithm name {matched!r}: dispatch belongs in "
                        "the registry (use get_algorithm/AlgorithmSpec metadata)",
                    )
            elif isinstance(node, ast.Dict):
                matched_keys = sorted(
                    str(key.value)
                    for key in node.keys
                    if isinstance(key, ast.Constant) and key.value in names
                )
                # A dispatch table maps names to callables.  Config maps
                # (name -> spec/results) are fine: only flag when a value
                # is a bare callable reference or lambda.
                dispatches = any(
                    isinstance(value, (ast.Lambda, ast.Name, ast.Attribute))
                    for value in node.values
                )
                if len(matched_keys) >= 2 and dispatches:
                    yield context.finding(
                        node,
                        self.code,
                        f"dict literal mapping algorithm names {matched_keys} to "
                        "callables: dispatch tables belong in the registry",
                    )
            elif isinstance(node, ast.Match):
                for case in node.cases:
                    for pattern in ast.walk(case.pattern):
                        if (
                            isinstance(pattern, ast.MatchValue)
                            and isinstance(pattern.value, ast.Constant)
                            and pattern.value.value in names
                        ):
                            yield context.finding(
                                node,
                                self.code,
                                f"match statement on algorithm name "
                                f"{pattern.value.value!r}: dispatch belongs in the registry",
                            )
                            break
                    else:
                        continue
                    break


# ----------------------------------------------------------------------
# RPR102 -- determinism on counted paths
# ----------------------------------------------------------------------
#: Builtins whose result does not depend on iteration order.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"any", "all", "sum", "len", "min", "max", "sorted", "set", "frozenset"}
)

_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _callee_name(node.func) in ("set", "frozenset")
    return False


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in _SET_ANNOTATION_NAMES
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_ANNOTATION_NAMES
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    return False


def _set_bound_names(scope: ast.AST) -> set[str]:
    """Local names that are only ever bound to set values in ``scope``.

    Conservative by construction: one non-set binding anywhere in the
    scope (including nested functions, which this deliberately does not
    separate) removes the name.  ``AugAssign`` (``s |= other``) keeps the
    inferred type.
    """
    set_bound: set[str] = set()
    otherwise_bound: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            is_set = _is_set_expression(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    (set_bound if is_set else otherwise_bound).add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expression(node.value)
            ):
                set_bound.add(node.target.id)
            else:
                otherwise_bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    otherwise_bound.add(target.id)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    otherwise_bound.add(target.id)
    return set_bound - otherwise_bound


class DeterminismRule(Rule):
    code = "RPR102"
    name = "determinism"
    summary = "no unordered set iteration or unseeded RNG on counted paths"
    rationale = (
        "The golden I/O counters and triangle-order parity tests (PR 1, "
        "PR 4) only hold if every loop feeding counters or emission visits "
        "records in a deterministic order and every random choice flows "
        "from the plumbed seed.  Iterating a set without sorted(), or "
        "calling the global random/time APIs, silently breaks bit-identical "
        "replay across processes and interpreter runs."
    )

    _SCOPED_DIRS = ("repro/core/", "repro/fastpath/", "repro/hashing/")

    def applies_to(self, path: str) -> bool:
        return any(directory in path for directory in self._SCOPED_DIRS)

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from self._check_set_iteration(context)
        yield from self._check_rng_sources(context)

    # -- unordered iteration -------------------------------------------
    def _scope_set_names(self, context: FileContext, node: ast.AST) -> set[str]:
        scope: ast.AST = _enclosing_function(context, node) or context.tree
        return _set_bound_names(scope)

    def _is_set_iterable(self, context: FileContext, node: ast.expr, site: ast.AST) -> bool:
        if _is_set_expression(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._scope_set_names(context, site)
        return False

    def _check_set_iteration(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_iterable(context, node.iter, node):
                    yield self._iteration_finding(context, node.iter)
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if isinstance(node, ast.GeneratorExp) and self._order_insensitive(context, node):
                    continue
                for generator in node.generators:
                    if self._is_set_iterable(context, generator.iter, node):
                        yield self._iteration_finding(context, generator.iter)
            elif isinstance(node, ast.Call):
                if _callee_name(node.func) in ("list", "tuple") and node.args:
                    if self._is_set_iterable(context, node.args[0], node):
                        yield self._iteration_finding(context, node.args[0])

    def _order_insensitive(self, context: FileContext, node: ast.GeneratorExp) -> bool:
        parent = context.parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_CONSUMERS
        )

    def _iteration_finding(self, context: FileContext, node: ast.expr) -> Finding:
        return context.finding(
            node,
            self.code,
            "iteration over a set on a counted path: wrap it in sorted(...) "
            "(or consume it order-insensitively) so replay is bit-identical",
        )

    # -- nondeterministic sources --------------------------------------
    def _check_rng_sources(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base, attr = func.value.id, func.attr
                if base == "random":
                    if attr == "Random" and (node.args or node.keywords):
                        continue  # explicitly seeded: the plumbed-seed idiom
                    yield context.finding(
                        node,
                        self.code,
                        f"random.{attr}() on an algorithm path: derive randomness "
                        "from the plumbed seed (random.Random(seed)), never the "
                        "global or unseeded RNG",
                    )
                elif base == "time" and attr in ("time", "time_ns"):
                    yield context.finding(
                        node,
                        self.code,
                        f"time.{attr}() on an algorithm path: wall-clock values "
                        "must not influence counted behaviour (perf_counter "
                        "timing of phases is fine)",
                    )
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                inner = func.value
                if inner.attr == "random" and isinstance(inner.value, ast.Name):
                    if inner.value.id in ("np", "numpy"):
                        yield context.finding(
                            node,
                            self.code,
                            f"numpy.random.{func.attr}() uses numpy's global RNG: "
                            "use a seeded Generator instead",
                        )
            elif isinstance(func, ast.Name) and func.id == "Random":
                if not node.args and not node.keywords:
                    yield context.finding(
                        node,
                        self.code,
                        "Random() without a seed on an algorithm path: pass the "
                        "plumbed seed explicitly",
                    )


# ----------------------------------------------------------------------
# RPR103 -- spawn-safe pool callables
# ----------------------------------------------------------------------
class SpawnSafetyRule(Rule):
    code = "RPR103"
    name = "spawn-safety"
    summary = "only module-level callables cross the pool boundary"
    rationale = (
        "Every pool in this repo uses the spawn start method (PR 2/PR 7), "
        "so submitted callables are pickled by qualified name: lambdas, "
        "nested functions and bound methods either fail to pickle or drag "
        "their whole instance across the boundary.  The supervised tier's "
        "contract (supervised_map_unordered) says 'importable by name' -- "
        "this rule makes the contract checkable at the call site."
    )

    _SINK_METHODS = frozenset(
        {"submit", "apply_async", "map_async", "imap", "imap_unordered", "starmap_async"}
    )
    _SINK_FUNCTIONS = frozenset({"supervised_map_unordered"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        nested = self._nested_function_names(context)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node.func)
            target: ast.expr | None = None
            if callee in self._SINK_FUNCTIONS or (
                isinstance(node.func, ast.Attribute) and callee in self._SINK_METHODS
            ):
                target = node.args[0] if node.args else None
            elif callee == "Process":
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        target = keyword.value
            if target is None:
                continue
            offence = self._spawn_unsafe(target, nested)
            if offence is not None:
                yield context.finding(
                    target,
                    self.code,
                    f"{offence} passed to {callee}(): pool callables must be "
                    "module-level functions (picklable by qualified name under "
                    "the spawn start method)",
                )

    @staticmethod
    def _nested_function_names(context: FileContext) -> frozenset[str]:
        nested: set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for child in ast.walk(node):
                    if child is not node and isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested.add(child.name)
        return frozenset(nested)

    @staticmethod
    def _spawn_unsafe(target: ast.expr, nested: frozenset[str]) -> str | None:
        if isinstance(target, ast.Lambda):
            return "lambda"
        if isinstance(target, ast.Name) and target.id in nested:
            return f"nested function {target.id!r}"
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            return f"bound method {ast.unparse(target)}"
        return None


# ----------------------------------------------------------------------
# RPR104 -- paired resource lifecycle
# ----------------------------------------------------------------------
#: Repo-specific acquisition helpers, per path suffix: calling these is
#: acquiring the underlying resource even though the stdlib name is hidden.
_EXTRA_ACQUIRERS: dict[str, frozenset[str]] = {
    "poolexec/segments.py": frozenset({"_create_segment"}),
}


class ResourceLifecycleRule(Rule):
    code = "RPR104"
    name = "resource-lifecycle"
    summary = "acquired resources are released on every path"
    rationale = (
        "The service-smoke CI gate fails on a single leaked /dev/shm "
        "segment (PR 7/PR 8), and a lock acquired outside try/finally "
        "deadlocks the whole job manager on the first exception.  Every "
        "SharedMemory(create=True), NamedTemporaryFile(delete=False) and "
        "lock.acquire() must sit in a with block, a try with cleanup, or "
        "be returned to a caller that owns the release."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        extra = frozenset()
        for suffix, names in _EXTRA_ACQUIRERS.items():
            if context.path.endswith(suffix):
                extra = names
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._acquisition(node, extra)
            if what is None:
                continue
            if self._protected(context, node):
                continue
            yield context.finding(
                node,
                self.code,
                f"{what} is not enclosed in `with`, try/cleanup, or returned "
                "to an owning caller: an exception on this path leaks the "
                "resource",
            )

    @staticmethod
    def _acquisition(node: ast.Call, extra: frozenset[str]) -> str | None:
        callee = _callee_name(node.func)
        if callee == "SharedMemory" and _keyword_constant(node, "create") is True:
            return "SharedMemory(create=True)"
        if callee == "NamedTemporaryFile" and _keyword_constant(node, "delete") is False:
            return "NamedTemporaryFile(delete=False)"
        if callee in extra:
            return f"{callee}() (a registered resource acquirer)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and any(
                hint in ast.unparse(node.func.value).lower()
                for hint in ("lock", "sem", "condition")
            )
        ):
            return f"{ast.unparse(node.func)}()"
        return None

    @classmethod
    def _protected(cls, context: FileContext, node: ast.Call) -> bool:
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if _contains(item.context_expr, node):
                        return True
            elif isinstance(ancestor, ast.Try):
                in_body = any(_contains(statement, node) for statement in ancestor.body)
                if in_body and (ancestor.finalbody or ancestor.handlers):
                    return True
            elif isinstance(ancestor, ast.Return):
                return True  # ownership transfer: the caller releases
        return cls._guarded_by_next_statement(context, node)

    @staticmethod
    def _guarded_by_next_statement(context: FileContext, node: ast.Call) -> bool:
        """Accept the acquire-then-try idiom::

            resource = acquire()
            try:
                ...
            finally:          # (or except: cleanup; raise)
                resource.release()
        """
        statement: ast.AST = node
        while statement in context.parents and not isinstance(statement, ast.stmt):
            statement = context.parents[statement]
        parent = context.parents.get(statement)
        if parent is None:
            return False
        for body_field in ("body", "orelse", "finalbody"):
            body = getattr(parent, body_field, None)
            if isinstance(body, list) and statement in body:
                index = body.index(statement)
                if index + 1 < len(body):
                    following = body[index + 1]
                    return isinstance(following, ast.Try) and bool(
                        following.finalbody or following.handlers
                    )
        return False


# ----------------------------------------------------------------------
# RPR105 -- atomic write discipline
# ----------------------------------------------------------------------
class AtomicWriteRule(Rule):
    code = "RPR105"
    name = "atomic-writes"
    summary = "JSON artifacts are written through the atomic writers"
    rationale = (
        "PR 4's torn-summary bug and PR 8's temp-name race both came from "
        "bare writes to results files; experiments/store.py's "
        "atomic_write_json/atomic_write_text (temp file + os.replace, "
        "collision-proof temp names) exist so a crash mid-write can never "
        "leave a torn artifact.  A bare open(...,'w')+json.dump or "
        "write_text(json.dumps(...)) bypasses all of that."
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith("experiments/store.py")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "dump"
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                yield context.finding(
                    node,
                    self.code,
                    "json.dump() to an open file handle is a torn write waiting "
                    "to happen: use experiments.store.atomic_write_json",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "write_text":
                if self._contains_json_dumps(node):
                    yield context.finding(
                        node,
                        self.code,
                        "write_text(json.dumps(...)) is not atomic: use "
                        "experiments.store.atomic_write_json (temp file + rename)",
                    )
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode and ("w" in mode or "a" in mode) and node.args:
                    if ".json" in ast.unparse(node.args[0]):
                        yield context.finding(
                            node,
                            self.code,
                            "open(<json path>, 'w') bypasses the atomic writers: "
                            "use experiments.store.atomic_write_json",
                        )

    @staticmethod
    def _contains_json_dumps(call: ast.Call) -> bool:
        for argument in [*call.args, *[keyword.value for keyword in call.keywords]]:
            for node in ast.walk(argument):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"
                ):
                    return True
        return False

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            value = node.args[1].value
            return value if isinstance(value, str) else None
        keyword_value = _keyword_constant(node, "mode")
        return keyword_value if isinstance(keyword_value, str) else None


# ----------------------------------------------------------------------
# RPR106 -- lock discipline over declared guarded fields
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GuardedField:
    """One field that may only be touched under one of ``locks``."""

    field: str
    locks: tuple[str, ...]
    #: ``attribute`` matches ``<anything>.<field>``; ``global`` matches the
    #: bare module-level name.
    kind: str = "attribute"


#: The declarative guarded-field map: path suffix -> contract.  Adding an
#: entry is how a module opts its documented locking contract into the
#: analyzer; the strings are the exact ``with`` context expressions
#: (``ast.unparse`` form) accepted as holding the guard.
GUARDED_FIELD_MAP: dict[str, tuple[GuardedField, ...]] = {
    "service/jobs.py": (
        GuardedField("_graphs", ("self._lock",)),
        GuardedField("_jobs", ("self._lock",)),
        GuardedField("_futures", ("self._lock",)),
        GuardedField("counters", ("self._lock",)),
        GuardedField("_closed", ("self._lock",)),
        GuardedField("_events", ("self._condition",)),
        GuardedField("job_ids", ("self._lock",)),
        GuardedField(
            "engine",
            ("entry.lock", "self._locks_for(run_kwargs, entry)"),
        ),
    ),
    "poolexec/segments.py": (
        GuardedField("_LIVE", ("_LOCK",), kind="global"),
        GuardedField("_BY_TOKEN", ("_LOCK",), kind="global"),
        GuardedField("_STATS", ("_LOCK",), kind="global"),
        GuardedField("_ATTACHED", ("_LOCK",), kind="global"),
        GuardedField("_refs", ("_LOCK",)),
        GuardedField("_unlinked", ("_LOCK",)),
    ),
}


class LockDisciplineRule(Rule):
    code = "RPR106"
    name = "lock-discipline"
    summary = "declared lock-guarded fields are only touched under their lock"
    rationale = (
        "The job manager's tables and the segment registry are documented "
        "as lock-guarded (PR 7/PR 8 docstrings), but nothing checked it -- "
        "and an unguarded read of a table another thread mutates is exactly "
        "the class of bug the PR 8 concurrent-writer race was.  The map "
        "below is the machine-readable form of those docstrings; touching "
        "a declared field outside its `with <lock>` block is a finding."
    )

    def applies_to(self, path: str) -> bool:
        return any(path.endswith(suffix) for suffix in GUARDED_FIELD_MAP)

    def check(self, context: FileContext) -> Iterator[Finding]:
        contract: tuple[GuardedField, ...] = ()
        for suffix, fields in GUARDED_FIELD_MAP.items():
            if context.path.endswith(suffix):
                contract = fields
        attribute_fields = {
            guarded.field: guarded for guarded in contract if guarded.kind == "attribute"
        }
        global_fields = {guarded.field: guarded for guarded in contract if guarded.kind == "global"}
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and node.attr in attribute_fields:
                guarded = attribute_fields[node.attr]
                if _inside_with_lock(context, node, guarded.locks):
                    continue
                if _inside_init(context, node):
                    continue  # construction precedes sharing
                yield self._finding(context, node, f".{node.attr}", guarded)
            elif isinstance(node, ast.Name) and node.id in global_fields:
                guarded = global_fields[node.id]
                if _inside_with_lock(context, node, guarded.locks):
                    continue
                if _enclosing_function(context, node) is None:
                    continue  # the module-level definition itself
                yield self._finding(context, node, node.id, guarded)

    def _finding(
        self, context: FileContext, node: ast.AST, what: str, guarded: GuardedField
    ) -> Finding:
        locks = " or ".join(f"`with {lock}`" for lock in guarded.locks)
        return context.finding(
            node,
            self.code,
            f"{what} is declared lock-guarded but is touched outside {locks}",
        )


# ----------------------------------------------------------------------
# RPR107 -- one generator per sequence, not one per draw
# ----------------------------------------------------------------------
#: Callee names that construct a seeded random generator.
_RNG_CONSTRUCTORS = frozenset({"Random", "default_rng", "RandomState"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _stored_names(root: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


class ReseededRngRule(Rule):
    code = "RPR107"
    name = "reseeded-rng"
    summary = "no seeded RNG rebuilt per loop iteration and consumed at once"
    rationale = (
        "`[random.Random(0).randrange(n) for _ in range(k)]` reseeds on every "
        "draw and yields k copies of one value: the external-sort tests, the "
        "substrate benchmarks and the pinned substrate_sort_2k golden all "
        "sorted a constant array that way.  A generator built inside a "
        "comprehension or loop body with a seed the loop never changes, and "
        "used in the same expression, is that bug; build one generator "
        "before the loop."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and _callee_name(node.func) in _RNG_CONSTRUCTORS
                and (node.args or node.keywords)
                and isinstance(context.parents.get(node), ast.Attribute)
            ):
                continue
            loop = self._per_iteration_loop(context, node)
            if loop is None:
                continue
            seed_names = {
                name.id
                for argument in [*node.args, *(keyword.value for keyword in node.keywords)]
                for name in ast.walk(argument)
                if isinstance(name, ast.Name)
            }
            if seed_names & _stored_names(loop):
                continue  # the seed changes per iteration: a deliberate per-item stream
            yield context.finding(
                node,
                self.code,
                f"{ast.unparse(node)} is rebuilt on every iteration with a seed the "
                "loop never changes, so each draw repeats the first: build one "
                "generator before the loop",
            )

    @staticmethod
    def _per_iteration_loop(context: FileContext, node: ast.AST) -> ast.AST | None:
        """The innermost loop or comprehension that evaluates ``node`` per iteration."""
        child = node
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return None
            if isinstance(ancestor, _COMPREHENSIONS):
                if not _contains(ancestor.generators[0].iter, node):
                    return ancestor
            elif isinstance(ancestor, (ast.For, ast.AsyncFor)):
                if any(_contains(statement, node) for statement in ancestor.body):
                    return ancestor
            elif isinstance(ancestor, ast.While):
                if child is ancestor.test or any(
                    _contains(statement, node) for statement in ancestor.body
                ):
                    return ancestor
            child = ancestor
        return None


# ----------------------------------------------------------------------
# the rule registry
# ----------------------------------------------------------------------
ALL_RULES: tuple[Rule, ...] = (
    RegistryDispatchRule(),
    DeterminismRule(),
    SpawnSafetyRule(),
    ResourceLifecycleRule(),
    AtomicWriteRule(),
    LockDisciplineRule(),
    ReseededRngRule(),
)


def rule_catalog() -> list[dict[str, str]]:
    """The rule table ``repro lint --list-rules`` and the docs render."""
    return [
        {
            "code": rule.code,
            "name": rule.name,
            "summary": rule.summary,
            "rationale": rule.rationale,
        }
        for rule in ALL_RULES
    ]
