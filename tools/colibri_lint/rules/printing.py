"""CL009 — no ``print`` or ad-hoc ``logging`` in library code.

The library's sanctioned output channels are the three sinks behind
``ObsContext``: journal events (``obs.journal``, what happened),
registry instruments (``obs.metrics``, how much) and trace spans
(``obs.tracer``, how long).  A ``print`` in a control- or data-plane
module writes unparseable text to stdout — invisible to the SLO engine,
the forensic verifier, and every test — and ``logging`` smuggles in
global mutable configuration the deterministic scenarios cannot
control.  The CLI (``repro/cli.py``) is
the one place whose entire job is printing; it is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis_core.context import FileContext
from tools.analysis_core.findings import Finding
from tools.colibri_lint.rules.base import Rule


class LibraryPrintRule(Rule):
    rule_id = "CL009"
    name = "no-library-print"
    rationale = (
        "library code must report through journal events, metrics, or "
        "spans — print()/logging output is invisible to the SLO engine "
        "and the forensic verifier."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_production and not ctx.rel_path.endswith("repro/cli.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "print() in library code; emit a journal event, metric, "
                    "or span instead",
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "logging" or alias.name.startswith("logging."):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            "ad-hoc logging in library code; the sanctioned "
                            "channels are journal events, metrics, and spans",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "logging":
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "ad-hoc logging in library code; the sanctioned channels "
                    "are journal events, metrics, and spans",
                )
