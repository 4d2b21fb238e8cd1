"""Rule interface.

A rule is a small object with an ID (``CLxxx``), a one-line name, and a
``check`` generator over a :class:`~tools.analysis_core.context.FileContext`.
``applies_to`` lets a rule scope itself to production code, to a single
module, or exclude an allowed module — path discipline lives with the rule
instead of in the engine.
"""

from __future__ import annotations

from typing import Iterator

from tools.analysis_core.context import FileContext
from tools.analysis_core.findings import Finding


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
