"""Rule interface.

A rule is a small object with an ID (``CLxxx``), a one-line name, and a
``check`` generator over a :class:`~tools.colibri_lint.context.FileContext`.
``applies_to`` lets a rule scope itself to production code or to some
packages — path discipline lives with the rule instead of in the engine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.colibri_lint.context import FileContext, Finding


def call_name(func) -> str:
    """The terminal name of a call's callee: ``f`` for ``f(...)`` and
    ``a.b.f(...)``, ``""`` for anything else."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class Rule:
    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        return Finding(
            path=ctx.rel_path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
            line_text=ctx.line_text(line),
        )
