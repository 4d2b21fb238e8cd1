"""CL004 — no blanket exception swallowing.

``except Exception:`` (or a bare ``except:``) that neither re-raises nor
logs converts every bug — unit mistakes, expired-reservation races, broken
invariants — into silent admission drift.  Handlers must name the specific
exception types they expect, and anything broader must re-raise or at
least log.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.colibri_lint.context import FileContext, Finding
from tools.colibri_lint.rules.base import Rule, call_name

BROAD_NAMES = frozenset({"Exception", "BaseException"})
LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
)


def _is_broad(type_node) -> bool:
    if type_node is None:
        return True  # bare except:
    if isinstance(type_node, ast.Name):
        return type_node.id in BROAD_NAMES
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(element) for element in type_node.elts)
    return False


def _handler_recovers(handler: ast.ExceptHandler) -> bool:
    """True if the handler re-raises or logs what it caught."""
    return any(
        isinstance(node, ast.Raise)
        or isinstance(node, ast.Call) and call_name(node.func) in LOG_METHODS
        for node in ast.walk(handler)
    )


class BroadExceptRule(Rule):
    rule_id = "CL004"
    name = "no-silent-broad-except"
    rationale = (
        "Blanket except Exception handlers that neither re-raise nor log "
        "turn bugs into silent reservation drift; catch the specific types "
        "the call site actually raises."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node.type) and not _handler_recovers(node):
                label = (
                    "bare except:"
                    if node.type is None
                    else "blanket except Exception:"
                )
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{label} swallows errors silently; catch the specific "
                    "exception types expected here, or re-raise/log",
                )
