"""CL012 — instrumentation must be guarded by ``obs is not None``.

The observability layer's contract ("0% overhead when disabled") is that
every component holds an *optional* ``ObsContext`` and dereferences it
only behind a None-guard.  A single unguarded
``self.obs.tracer.start(...)`` turns every disabled-observability run
into an ``AttributeError`` — or worse, forces callers to always enable
observability, silently repealing the contract.  The one real instance
so far was a span teardown in ``scenario.forward`` guarded on the span
instead of on the context.

Each function body is judged on its own.  What counts as an *optional
subject* inside it:

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

from tools.colibri_lint.context import FileContext, Finding
from tools.colibri_lint.rules.base import Rule, call_name

#: Call names whose result is a definitely-populated ObsContext.
PRODUCERS = frozenset({"create", "enable_observability", "run_health_scenario"})

#: Optional attributes *of* the context (beyond the context itself).
OPTIONAL_LINKS = frozenset({"journal", "alerts"})

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _chain(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_nodes(function: ast.AST) -> list:
    """Every node of ``function``'s body, nested defs excluded (each nested
    def is judged as a function of its own)."""
    nodes, stack = [], [function]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, _FUNCTIONS)
        )
    return nodes


class _Subjects:
    """Alias/definite classification for one function body."""

    def __init__(self, nodes: list) -> None:
        self.definite: Set[str] = set()
        self.alias_obs: Set[str] = set()
        self.alias_leaf: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                self._assign(node)

    def _assign(self, node: ast.Assign) -> None:
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        value = node.value
        if isinstance(value, ast.Call) and call_name(value.func) in PRODUCERS:
            self.definite.update(names)
            self.definite.update(
                element.id
                for target in node.targets
                if isinstance(target, (ast.Tuple, ast.List))
                for element in target.elts
                if isinstance(element, ast.Name)
            )
            return
        chain = _chain(value)
        if chain is None or not names:
            return
        head, _, last = chain.rpartition(".")
        if last == "obs" or chain in self.alias_obs:
            self.alias_obs.update(names)
        elif last in OPTIONAL_LINKS and self._is_obs(head):
            self.alias_leaf.update(names)

    def _is_obs(self, text: str) -> bool:
        if not text or text in self.definite:
            return False
        return text.rpartition(".")[2] == "obs" or text in self.alias_obs

    def kind(self, text: str) -> Optional[str]:
        """``"obs"`` / ``"leaf"`` if this chain is an optional subject."""
        if text in self.definite:
            return None
        head, _, last = text.rpartition(".")
        if last == "obs" or text in self.alias_obs:
            return "obs"
        if text in self.alias_leaf or last in OPTIONAL_LINKS and self._is_obs(head):
            return "leaf"
        return None


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _positive_guard(test: ast.expr, subject: str) -> bool:
    """Does this (true) condition establish ``subject is not None``?"""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if (
            _chain(test.left) == subject
            and isinstance(test.ops[0], ast.IsNot)
            and _is_none(test.comparators[0])
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
        if (
            _chain(test.left) == subject
            and isinstance(test.ops[0], ast.Is)
            and _is_none(test.comparators[0])
        ):
            return True
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        if _chain(test.operand) == subject:
            return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_negative_guard(value, subject) for value in test.values)
    return False


def _early_exit_guard(stmt: ast.stmt, subject: str) -> bool:
    return (
        isinstance(stmt, ast.If)
        and _negative_guard(stmt.test, subject)
        and not stmt.orelse
        and bool(stmt.body)
        and isinstance(stmt.body[-1], _TERMINAL)
    )


def _is_guarded(node: ast.AST, subject: str, parents: Dict[int, ast.AST]) -> bool:
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
            if current is parent.orelse and _negative_guard(parent.test, subject):
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
                if isinstance(stmt, ast.stmt) and _early_exit_guard(stmt, subject):
                    return True
        current = parent


class ObsGuardRule(Rule):
    rule_id = "CL012"
    name = "guarded-instrumentation"
    rationale = (
        "Dereferencing an optional observability context without an "
        "`is not None` guard crashes disabled-observability runs and "
        "breaks the 0%-overhead-when-disabled contract."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_production and not ctx.in_package("obs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for function in ast.walk(ctx.tree):
            if isinstance(function, _FUNCTIONS):
                yield from self._check_function(ctx, _own_nodes(function))

    def _check_function(self, ctx: FileContext, nodes: list) -> Iterator[Finding]:
        subjects = _Subjects(nodes)
        parents = {
            id(child): node for node in nodes for child in ast.iter_child_nodes(node)
        }
        for node in nodes:
            if not isinstance(node, ast.Attribute) or not isinstance(
                node.ctx, ast.Load
            ):
                continue
            subject = _chain(node.value)
            kind = subjects.kind(subject) if subject is not None else None
            if kind is None or _is_guarded(node, subject, parents):
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
