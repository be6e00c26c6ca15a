"""detlint rules: one ``NodeVisitor`` subclass per determinism invariant.

Every rule has a stable id (``DET00x``), a one-line title, and an
``invariant`` paragraph naming the contract it enforces (these feed
``--list-rules`` and the ROADMAP's rule table).  Rules are *static
approximations*: they pattern-match the idioms this repo actually uses, and
anything legitimately outside the pattern is suppressed with a
pragma-with-reason or a curated allowlist entry -- never by weakening the
rule.

To add a rule: subclass :class:`Rule`, give it the next never-used id (the
ids of retired rules, listed in the ROADMAP table, are not reused),
implement ``visit_*`` methods that call :meth:`Rule.report`, append the
class to ``ALL_RULES``, add a firing + non-firing fixture pair under
``tests/detlint_fixtures/`` and a row to the ROADMAP table.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .engine import Finding, LintContext

__all__ = ["Rule", "ALL_RULES", "ALL_RULE_IDS"]

#: wall-clock entry points that must never run on a simulated path.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random attributes that do NOT touch the module-level global state.
SEEDABLE_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: constructors whose result is a mutable container (DET007).
MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})
MUTABLE_COLLECTIONS = frozenset(
    {
        "collections.deque",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.ChainMap",
    }
)

#: method names that mutate their receiver in place (DET005's
#: mutate-before-gate check).
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "extend",
        "insert",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)

#: container-variable names that hold campaign/planner cell factories.
FACTORY_NAME_HINTS = ("backend", "factor", "polic", "chaos", "scenario")

#: call targets whose arguments register factories (DET006).
FACTORY_CONSUMERS = frozenset({"Campaign", "SearchSpace"})


class Rule(ast.NodeVisitor):
    """Base class: a rule visits one file's AST and reports findings."""

    id: str = ""
    title: str = ""
    invariant: str = ""

    def __init__(self) -> None:
        self.ctx: Optional[LintContext] = None
        self._findings: List[Finding] = []
        self._seen: Set[Tuple[int, int, str]] = set()

    def applies(self, ctx: LintContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (path-role scoping)."""
        return True

    def check(self, ctx: LintContext) -> List[Finding]:
        self.ctx = ctx
        self._findings = []
        self._seen = set()
        self.visit(ctx.tree)
        return self._findings

    def report(self, node: ast.AST, message: str, symbol: str = "") -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        assert self.ctx is not None
        self._findings.append(
            Finding(
                rule=self.id,
                path=self.ctx.path,
                line=line,
                col=col,
                message=message,
                symbol=symbol,
            )
        )


def _dotted_tail(expr: ast.AST) -> Optional[str]:
    """Textual attribute chain (``self._hooks.injector``) without resolution."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif not parts:
        return None
    return ".".join(reversed(parts))


class WallClockRule(Rule):
    id = "DET001"
    title = "wall-clock call on a simulated path"
    invariant = (
        "Simulated time flows only from VirtualClock / at_time translation; a "
        "time.time()/perf_counter()/datetime.now() call inside src/repro "
        "leaks host wall-clock into results and breaks replay byte-identity. "
        "Wall-clock *reporting* sites (campaign wall_seconds) live in the "
        "curated allowlist."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.roles.in_repro

    def visit_Call(self, node: ast.Call) -> None:
        assert self.ctx is not None
        resolved = self.ctx.resolve(node.func)
        if resolved in WALLCLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {resolved}() on a simulated path; thread a "
                "VirtualClock / at_time instead",
                symbol=resolved.rsplit(".", 1)[-1],
            )
        self.generic_visit(node)


class UnseededRandomnessRule(Rule):
    id = "DET002"
    title = "unseeded or global-state randomness"
    invariant = (
        "All randomness flows through an explicitly seeded "
        "np.random.default_rng(seed) threaded by the caller.  Module-level "
        "random.* / np.random.* state and unseeded default_rng() make "
        "results depend on process history and defeat seeded replay."
    )

    def visit_Call(self, node: ast.Call) -> None:
        assert self.ctx is not None
        resolved = self.ctx.resolve(node.func)
        if resolved:
            if resolved == "numpy.random.default_rng":
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant) and node.args[0].value is None
                )
                if unseeded:
                    self.report(
                        node,
                        "default_rng() without a seed draws OS entropy; pass an "
                        "explicit seed",
                        symbol="default_rng",
                    )
            elif resolved.startswith("random."):
                self.report(
                    node,
                    f"stdlib {resolved}() uses hidden global RNG state; use a "
                    "seeded np.random.default_rng(seed) generator",
                    symbol=resolved.rsplit(".", 1)[-1],
                )
            elif resolved.startswith("numpy.random."):
                attr = resolved.split(".", 2)[2].split(".", 1)[0]
                if attr not in SEEDABLE_NP_RANDOM:
                    self.report(
                        node,
                        f"{resolved}() draws from numpy's module-level RNG "
                        "state; use a seeded default_rng(seed) generator",
                        symbol=attr,
                    )
        self.generic_visit(node)


class ShadowedRngRule(Rule):
    id = "DET003"
    title = "function with an rng parameter constructs its own generator"
    invariant = (
        "Scenario/chaos code threads ONE generator through every consumer in "
        "declaration order; a function that accepts `rng` but builds its own "
        "default_rng()/RandomState() forks the stream and silently decouples "
        "its draws from the campaign seed."
    )

    _CONSTRUCTORS = frozenset(
        {"numpy.random.default_rng", "numpy.random.RandomState", "random.Random"}
    )

    def _check_function(self, node: ast.AST) -> None:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if "rng" not in params:
            return
        assert self.ctx is not None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                resolved = self.ctx.resolve(sub.func)
                if resolved in self._CONSTRUCTORS:
                    self.report(
                        sub,
                        "function accepts an rng parameter but constructs "
                        f"{resolved}(); use the passed generator",
                        symbol=resolved.rsplit(".", 1)[-1],
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


class UnsortedIterationRule(Rule):
    id = "DET004"
    title = "unsorted set/keys/listdir iteration in a fingerprint module"
    invariant = (
        "Campaign/planner/replaycore/serving.server summaries are hashed into "
        "fingerprints; iterating set(...), dict.keys() or os.listdir() there "
        "bakes hash-seed / insertion / filesystem order into the payload.  "
        "Wrap the iterable in sorted(...)."
    )

    _WRAPPERS = frozenset({"tuple", "list", "iter", "enumerate"})

    def applies(self, ctx: LintContext) -> bool:
        return ctx.roles.fingerprint

    def check(self, ctx: LintContext) -> List[Finding]:
        self.ctx = ctx
        self._findings = []
        self._seen = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iterable(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    self._check_iterable(gen.iter)
            elif isinstance(node, ast.Call):
                name = _dotted_tail(node.func)
                if name in self._WRAPPERS and node.args:
                    self._check_iterable(node.args[0])
        return self._findings

    def _check_iterable(self, expr: ast.AST) -> None:
        assert self.ctx is not None
        if isinstance(expr, (ast.Set, ast.SetComp)):
            self.report(expr, "iteration over a set literal without sorted(...)", symbol="set")
            return
        if not isinstance(expr, ast.Call):
            return
        name = _dotted_tail(expr.func)
        if name in ("set", "frozenset"):
            self.report(
                expr,
                f"iteration over {name}(...) without sorted(...): set order "
                "depends on the hash seed",
                symbol=name,
            )
            return
        if isinstance(expr.func, ast.Attribute) and expr.func.attr == "keys":
            self.report(
                expr,
                "iteration over .keys() without sorted(...): key order is "
                "insertion history, not a stable contract",
                symbol="keys",
            )
            return
        resolved = self.ctx.resolve(expr.func)
        if resolved in ("os.listdir", "os.scandir"):
            self.report(
                expr,
                f"iteration over {resolved}() without sorted(...): directory "
                "order is filesystem-dependent",
                symbol=resolved.rsplit(".", 1)[-1],
            )


class HookGateRule(Rule):
    id = "DET005"
    title = "hook use without the `is not None` gate"
    invariant = (
        "Chaos-, telemetry- and contention-off must be byte-identical: every "
        "injector, tracer or arbiter point in a cloud service is a single "
        "`if <hook> is not None` check, and no instance state may be mutated "
        "before that hook's first gate.  An ungated hook call, or a mutation "
        "before the gate, breaks the feature-off fingerprint contract or "
        "leaks partial state into faulted calls."
    )

    #: (hook attribute, how its feature-off mode is named in findings, how
    #: its gate is named in mutation-before-gate findings).
    HOOKS: Tuple[Tuple[str, str, str], ...] = (
        ("injector", "chaos-off", "injection check"),
        ("tracer", "telemetry-off", "telemetry gate"),
        ("arbiter", "contention-off", "contention gate"),
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.roles.cloud_service

    def check(self, ctx: LintContext) -> List[Finding]:
        self.ctx = ctx
        self._findings = []
        self._seen = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for hook in self.HOOKS:
                    self._check_function(node, *hook)
        return self._findings

    @staticmethod
    def _is_hook_expr(expr: ast.AST, hook_attr: str) -> bool:
        tail = _dotted_tail(expr)
        return tail is not None and tail.split(".")[-1] == hook_attr

    @classmethod
    def _gate_exprs(cls, test: ast.AST, hook_attr: str) -> List[str]:
        """Dumps of hook expressions guarded by ``<expr> is not None``."""
        comparisons = [test]
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            comparisons = list(test.values)
        gated: List[str] = []
        for comp in comparisons:
            if (
                isinstance(comp, ast.Compare)
                and len(comp.ops) == 1
                and isinstance(comp.ops[0], ast.IsNot)
                and isinstance(comp.comparators[0], ast.Constant)
                and comp.comparators[0].value is None
                and cls._is_hook_expr(comp.left, hook_attr)
            ):
                gated.append(ast.dump(comp.left))
        return gated

    @staticmethod
    def _field_of(parent: ast.AST, child: ast.AST) -> Optional[str]:
        for name, value in ast.iter_fields(parent):
            if value is child:
                return name
            if isinstance(value, list) and any(item is child for item in value):
                return name
        return None

    def _check_function(
        self, func: ast.AST, hook_attr: str, off_label: str, gate_noun: str
    ) -> None:
        assert self.ctx is not None
        gates: List[Tuple[ast.If, List[str]]] = []
        for node in self._walk_in_scope(func):
            if isinstance(node, ast.If):
                exprs = self._gate_exprs(node.test, hook_attr)
                if exprs:
                    gates.append((node, exprs))

        for node in self._walk_in_scope(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and self._is_hook_expr(node.func.value, hook_attr)
            ):
                if not self._is_gated(node, node.func.value, gates, func):
                    self.report(
                        node,
                        f"{hook_attr} method called outside an `if "
                        f"{hook_attr} is not None` gate; {off_label} "
                        "would crash or diverge here",
                        symbol=node.func.attr,
                    )

        # Each hook is checked against its own first gate: the earliest gate
        # of any hook would let a mutation between two hooks' gates pass.
        if gates:
            first_gate_line = min(g.lineno for g, _ in gates)
            self._check_mutations_before(func, first_gate_line, off_label, gate_noun)

    @staticmethod
    def _walk_in_scope(func: ast.AST):
        """Walk a function body without descending into nested functions."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def _is_gated(
        self,
        use: ast.AST,
        hook_expr: ast.AST,
        gates: List[Tuple[ast.If, List[str]]],
        func: ast.AST,
    ) -> bool:
        assert self.ctx is not None
        want = ast.dump(hook_expr)
        node: ast.AST = use
        while node is not func:
            parent = self.ctx.parent_of(node)
            if parent is None:
                return False
            if isinstance(parent, ast.If) and self._field_of(parent, node) == "body":
                for gate_node, exprs in gates:
                    if gate_node is parent and want in exprs:
                        return True
            node = parent
        return False

    @staticmethod
    def _is_self_attribute(expr: ast.AST) -> bool:
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _check_mutations_before(
        self, func: ast.AST, gate_line: int, off_label: str, gate_noun: str
    ) -> None:
        for node in self._walk_in_scope(func):
            line = getattr(node, "lineno", gate_line)
            if line >= gate_line:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) and self._is_self_attribute(target):
                        self.report(
                            node,
                            f"instance state mutated before the {gate_noun}; "
                            f"a {off_label} divergence or partial mutation "
                            "could be observed",
                            symbol="mutation-before-gate",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and self._is_self_attribute(node.func.value)
                and isinstance(node.func.value, ast.Attribute)
            ):
                self.report(
                    node,
                    f"container on self mutated before the {gate_noun}; "
                    f"a {off_label} divergence or partial mutation "
                    "could be observed",
                    symbol="mutation-before-gate",
                )


class ClosureFactoryRule(Rule):
    id = "DET006"
    title = "lambda/closure registered as a campaign or planner factory"
    invariant = (
        "Process-pool campaigns pickle the cell dispatch, so every "
        "scenario/backend/policy/chaos factory must be a named top-level "
        "callable (the serving.factories Spec dataclasses).  Lambdas and "
        "nested defs pickle nowhere and close over shared mutable state."
    )

    def check(self, ctx: LintContext) -> List[Finding]:
        self.ctx = ctx
        self._findings = []
        self._seen = set()
        self._check_scope(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(node)
        return self._findings

    @staticmethod
    def _own_statements(scope: ast.AST):
        """Statements belonging to this scope (not nested function bodies)."""
        stack = list(scope.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    @staticmethod
    def _direct_lambdas(expr: ast.AST) -> List[ast.Lambda]:
        """Lambdas in *factory position*: the expression itself, a dict value,
        or a list/tuple/set element -- recursively through display literals
        only.  A lambda buried inside a constructor call (e.g. a
        ``model_builder=lambda ...`` argument of a backend instance) is a
        builder argument, not a registered cell factory, and is not collected.
        """
        out: List[ast.Lambda] = []
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                out.append(node)
            elif isinstance(node, ast.Dict):
                stack.extend(node.values)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                stack.extend(node.elts)
        return out

    def _check_scope(self, scope: ast.AST) -> None:
        is_module = isinstance(scope, ast.Module)
        tainted: Set[str] = set()
        nested_defs: Set[str] = set()
        flagged_at_binding: Set[str] = set()

        for node in self._own_statements(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_module:
                nested_defs.add(node.name)
            if isinstance(node, ast.Assign):
                lambdas = self._direct_lambdas(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name) and lambdas:
                        tainted.add(target.id)
                        if any(hint in target.id.lower() for hint in FACTORY_NAME_HINTS):
                            flagged_at_binding.add(target.id)
                            for lam in lambdas:
                                self.report(
                                    lam,
                                    f"lambda stored in factory container "
                                    f"{target.id!r}; use a named top-level "
                                    "callable (picklability contract)",
                                    symbol=target.id,
                                )
                    elif isinstance(target, ast.Subscript) and lambdas:
                        base = _dotted_tail(target.value)
                        if isinstance(target.value, ast.Name):
                            tainted.add(target.value.id)
                            flagged_at_binding.add(target.value.id)
                        for lam in lambdas:
                            self.report(
                                lam,
                                f"lambda registered into {base or 'container'}"
                                "[...]; use a named top-level callable "
                                "(picklability contract)",
                                symbol=base or "subscript",
                            )

        for node in self._own_statements(scope):
            if isinstance(node, ast.Call):
                callee = _dotted_tail(node.func)
                if callee is None or callee.split(".")[-1] not in FACTORY_CONSUMERS:
                    continue
                consumer = callee.split(".")[-1]
                arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
                for expr in arg_exprs:
                    for lam in self._direct_lambdas(expr):
                        self.report(
                            lam,
                            f"lambda passed to {consumer}(...) as a factory; "
                            "use a named top-level callable (picklability "
                            "contract)",
                            symbol=consumer,
                        )
                    for sub in ast.walk(expr):
                        if not isinstance(sub, ast.Name):
                            continue
                        if sub.id in flagged_at_binding:
                            continue  # already reported where the lambda was stored
                        if sub.id in tainted or sub.id in nested_defs:
                            kind = "closure" if sub.id in nested_defs else "lambda container"
                            self.report(
                                sub,
                                f"{kind} {sub.id!r} passed to {consumer}(...); "
                                "factories must be named top-level callables "
                                "(picklability contract)",
                                symbol=sub.id,
                            )


class ModuleMutableStateRule(Rule):
    id = "DET007"
    title = "module-level mutable container"
    invariant = (
        "Campaign cells run in thread/process pools; module-level mutable "
        "containers are the shared-state race class.  Every survivor must be "
        "an audited allowlist entry (read-only table or content-addressed "
        "cache whose values are deterministic functions of their keys)."
    )

    def applies(self, ctx: LintContext) -> bool:
        return ctx.roles.in_repro

    _EXEMPT_NAMES = frozenset({"__all__"})
    _CACHE_CLASS_SUFFIXES = ("Memo", "Cache", "Registry")

    def check(self, ctx: LintContext) -> List[Finding]:
        self.ctx = ctx
        self._findings = []
        self._seen = set()
        self._check_statements(ctx.tree.body)
        return self._findings

    def _check_statements(self, statements) -> None:
        for node in statements:
            if isinstance(node, ast.If):
                self._check_statements(node.body)
                self._check_statements(node.orelse)
            elif isinstance(node, ast.Try):
                self._check_statements(node.body)
                self._check_statements(node.orelse)
                self._check_statements(node.finalbody)
                for handler in node.handlers:
                    self._check_statements(handler.body)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._check_binding(target.id, node.value, node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._check_binding(node.target.id, node.value, node)

    def _check_binding(self, name: str, value: ast.AST, node: ast.AST) -> None:
        if name in self._EXEMPT_NAMES:
            return
        reason = self._mutability_of(value)
        if reason is not None:
            self.report(
                node,
                f"module-level mutable container {name!r} ({reason}); shared "
                "across parallel campaign cells -- make it immutable or add "
                "an audited allowlist entry",
                symbol=name,
            )

    def _mutability_of(self, value: ast.AST) -> Optional[str]:
        assert self.ctx is not None
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            tail = _dotted_tail(value.func)
            if tail in MUTABLE_CONSTRUCTORS:
                return tail
            resolved = self.ctx.resolve(value.func)
            if resolved in MUTABLE_COLLECTIONS:
                return resolved.rsplit(".", 1)[-1]
            if tail is not None:
                leaf = tail.rsplit(".", 1)[-1]
                if any(leaf.endswith(suffix) for suffix in self._CACHE_CLASS_SUFFIXES):
                    return f"{leaf} instance"
        return None


ALL_RULES: Tuple[type, ...] = (
    WallClockRule,
    UnseededRandomnessRule,
    ShadowedRngRule,
    UnsortedIterationRule,
    HookGateRule,
    ClosureFactoryRule,
    ModuleMutableStateRule,
)

ALL_RULE_IDS: frozenset = frozenset({"DET000"} | {rule.id for rule in ALL_RULES})


def rule_table() -> List[Dict[str, str]]:
    """Rows for ``--list-rules`` and documentation."""
    return [
        {"id": rule.id, "title": rule.title, "invariant": rule.invariant}
        for rule in ALL_RULES
    ]
