"""CL003 — no bare ``assert`` in production code.

``python -O`` strips assert statements.  A data-plane or crypto check
written as an assert (e.g. a MAC tag-length guard) silently disappears in
optimized deployments — the exact "strippable check" failure the paper's
security argument (§4.5-§4.6) cannot tolerate.  Production code raises
typed exceptions from :mod:`repro.errors` instead; tests may assert freely.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.colibri_lint.context import FileContext, Finding
from tools.colibri_lint.rules.base import Rule


class ProductionAssertRule(Rule):
    rule_id = "CL003"
    name = "no-production-assert"
    rationale = (
        "assert statements vanish under python -O; production invariants "
        "must raise typed exceptions from repro.errors."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_production

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare assert is stripped under python -O; raise a typed "
                    "exception from repro.errors instead",
                )
