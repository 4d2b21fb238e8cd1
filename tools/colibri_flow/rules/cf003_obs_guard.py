"""CF003 — instrumentation must be guarded by ``obs is not None``.

The observability layer's contract (ROADMAP: "0% overhead when
disabled") is that every component holds an *optional* ``ObsContext``
and dereferences it only behind a None-guard.  A single unguarded
``self.obs.tracer.start(...)`` turns every disabled-observability run
into an ``AttributeError`` — or worse, forces callers to always enable
observability, silently repealing the contract.

What counts as an *optional subject* inside a function:

* any ``obs`` name or ``….obs`` attribute chain (the conventional
  context slot), unless the name was produced locally by
  ``ObsContext.create(...)`` / ``enable_observability(...)`` /
  ``run_health_scenario(...)`` — producers return fully-populated,
  non-None contexts;
* one optional link deeper: ``<obs>.journal`` and ``<obs>.alerts`` are
  Optional fields of the context itself (``tracer``, ``metrics`` and
  ``perf`` are always populated);
* local aliases of either (``obs = self.obs``,
  ``journal = self.obs.journal``) — guarding the alias name guards the
  value.

A dereference *past* an optional subject must be dominated by a guard
on that exact chain text: an enclosing ``if <subject> is not None:`` (or
truthiness test), an ``and`` short-circuit, the else-branch of an
``is None`` test, a guarded ternary, or a preceding early exit
(``if <subject> is None: return/raise/continue``).  The ``repro/obs``
package itself — the machinery being guarded — is exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from tools.analysis_core.findings import Finding
from tools.colibri_flow.callgraph import iter_own_nodes
from tools.colibri_flow.project import FunctionInfo, dotted_name
from tools.colibri_flow.rules.base import FlowRule
from tools.colibri_flow.rules.cf001_verification_flow import build_parent_map

#: Call names whose result is a definitely-populated ObsContext.
PRODUCERS = frozenset({"create", "enable_observability", "run_health_scenario"})

#: Optional attributes *of* the context (beyond the context itself).
OPTIONAL_LINKS = frozenset({"journal", "alerts"})


def _chain(expr: ast.expr) -> Optional[str]:
    return dotted_name(expr)


def _terminal_call_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    return ""


class _FunctionView:
    """Alias/definite classification for one function body."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.definite: Set[str] = set()
        self.alias_obs: Set[str] = set()
        self.alias_leaf: Set[str] = set()
        self._scan()

    def _scan(self) -> None:
        for node in iter_own_nodes(self.fn.node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            tuple_names = [
                element.id
                for target in node.targets
                if isinstance(target, (ast.Tuple, ast.List))
                for element in target.elts
                if isinstance(element, ast.Name)
            ]
            if _terminal_call_name(value) in PRODUCERS:
                self.definite.update(names)
                self.definite.update(tuple_names)
                continue
            chain = _chain(value)
            if chain is None or not names:
                continue
            parts = chain.split(".")
            if parts[-1] == "obs" or chain in self.alias_obs:
                self.alias_obs.update(names)
            elif parts[-1] in OPTIONAL_LINKS and self._is_obs_prefix(
                ".".join(parts[:-1])
            ):
                self.alias_leaf.update(names)

    def _is_obs_prefix(self, text: str) -> bool:
        if not text or text in self.definite:
            return False
        return text.split(".")[-1] == "obs" or text in self.alias_obs

    def subject_kind(self, text: str) -> Optional[str]:
        """Is this chain text an optional obs subject?"""
        if text in self.definite:
            return None
        parts = text.split(".")
        if parts[-1] == "obs" or text in self.alias_obs:
            return "obs"
        if text in self.alias_leaf:
            return "leaf"
        if parts[-1] in OPTIONAL_LINKS and self._is_obs_prefix(
            ".".join(parts[:-1])
        ):
            return "leaf"
        return None


def _positive_guard(test: ast.expr, subject: str) -> bool:
    """Does this (true) condition establish ``subject is not None``?"""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left = _chain(test.left)
        comparator = test.comparators[0]
        if (
            left == subject
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(comparator, ast.Constant)
            and comparator.value is None
        ):
            return True
    if _chain(test) == subject:
        return True  # truthiness: ``if obs:``
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_positive_guard(value, subject) for value in test.values)
    return False


def _negative_guard(test: ast.expr, subject: str) -> bool:
    """Does this (true) condition establish ``subject is None``-or-exit?

    Used for early exits and else-branches; ``or`` is sound here because
    the exit fires (the else runs) whenever *any* (no) operand holds.
    """
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        comparator = test.comparators[0]
        if (
            _chain(test.left) == subject
            and isinstance(test.ops[0], ast.Is)
            and isinstance(comparator, ast.Constant)
            and comparator.value is None
        ):
            return True
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        if _chain(test.operand) == subject:
            return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_negative_guard(value, subject) for value in test.values)
    return False


_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _early_exit_guard(stmt: ast.stmt, subject: str) -> bool:
    return (
        isinstance(stmt, ast.If)
        and _negative_guard(stmt.test, subject)
        and not stmt.orelse
        and bool(stmt.body)
        and isinstance(stmt.body[-1], _TERMINAL)
    )


def is_guarded(node: ast.AST, subject: str, parents: Dict[int, ast.AST]) -> bool:
    current = node
    while True:
        parent = parents.get(id(current))
        if parent is None:
            return False
        if isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
            for value in parent.values:
                if value is current:
                    break
                if _positive_guard(value, subject):
                    return True
        if isinstance(parent, ast.IfExp):
            if current is parent.body and _positive_guard(parent.test, subject):
                return True
            if current is parent.orelse and _negative_guard(
                parent.test, subject
            ):
                return True
        if isinstance(parent, (ast.If, ast.While)):
            in_body = any(current is stmt for stmt in parent.body)
            in_orelse = any(current is stmt for stmt in parent.orelse)
            if in_body and _positive_guard(parent.test, subject):
                return True
            if in_orelse and _negative_guard(parent.test, subject):
                return True
        # Early exit in any enclosing block, before our statement.
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(parent, attr, None)
            if not isinstance(block, list):
                continue
            for stmt in block:
                if stmt is current:
                    break
                if isinstance(stmt, ast.stmt) and _early_exit_guard(
                    stmt, subject
                ):
                    return True
        current = parent


class ObsGuardRule(FlowRule):
    rule_id = "CF003"
    name = "guarded-instrumentation"
    rationale = (
        "Dereferencing an optional observability context without an "
        "`is not None` guard crashes disabled-observability runs and "
        "breaks the 0%-overhead-when-disabled contract."
    )

    def check(self, analysis) -> Iterator[Finding]:
        for fn in analysis.project.functions.values():
            ctx = fn.ctx
            if not ctx.is_production or ctx.is_test or ctx.is_obs_module:
                continue
            view = _FunctionView(fn)
            parents = analysis.graph.parent_map(fn)
            for node in analysis.graph.own_nodes(fn):
                if not isinstance(node, ast.Attribute) or not isinstance(
                    node.ctx, ast.Load
                ):
                    continue
                subject = _chain(node.value)
                if subject is None:
                    continue
                kind = view.subject_kind(subject)
                if kind is None:
                    continue
                if is_guarded(node, subject, parents):
                    continue
                optional_of = (
                    "the observability context"
                    if kind == "obs"
                    else f"optional field .{subject.rsplit('.', 1)[-1]}"
                )
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"`.{node.attr}` dereferences {subject} "
                    f"({optional_of}, may be None) without a dominating "
                    f"`{subject} is not None` guard",
                )
