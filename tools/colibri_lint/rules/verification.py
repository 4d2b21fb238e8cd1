"""CL007 — MAC/HVF verification results must not be discarded.

Two ways a verification can silently become a no-op:

* a *predicate* verifier (``constant_time_equal``, ``hmac.compare_digest``)
  returns a bool; calling it as a bare statement throws the result away and
  the packet is "verified" no matter what;
* a ``verify*`` function that returns a result instead of raising, called
  for effect only.

The repro's own verifiers (``verify_mac``, ``verify_segment_token``,
``AuthenticatedRequest.verify_at``, ``verify_grants``)
raise :class:`~repro.errors.MacVerificationError`/:class:`HvfMismatch` on
failure, so statement position is exactly right for them — they are
allowlisted.  Any other ``verify*`` call whose return value is unused is
flagged; if a new raising verifier is added, extend the allowlist (or
suppress with ``# colibri-lint: disable=CL007`` at the call site).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis_core.context import FileContext
from tools.analysis_core.findings import Finding
from tools.colibri_lint.rules.base import Rule

#: Verifiers that raise on failure — calling them as a statement is correct.
RAISING_VERIFIERS = frozenset(
    {
        "verify_mac",
        "verify_at",
        "verify_grants",
        "verify_segment_token",
    }
)

#: Verifiers that *return* the verdict — discarding it is always a bug.
PREDICATE_VERIFIERS = frozenset({"constant_time_equal", "compare_digest"})


def _call_name(func) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class DiscardedVerificationRule(Rule):
    rule_id = "CL007"
    name = "no-discarded-verification"
    rationale = (
        "A verification whose result is thrown away accepts every packet; "
        "predicate verifiers must feed a branch/raise, and only known "
        "raising verifiers may be called as statements."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            name = _call_name(node.value.func)
            if name in PREDICATE_VERIFIERS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"result of {name}() is discarded — the comparison has "
                    "no effect; branch on it or raise",
                )
            elif name.startswith("verify") and name not in RAISING_VERIFIERS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"return value of {name}() is unused; if it raises on "
                    "failure add it to CL007's raising-verifier allowlist, "
                    "otherwise the check is a no-op",
                )
