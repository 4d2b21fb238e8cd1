"""CL007 — verification results and verdicts must not be discarded.

Three ways a check can silently become a no-op:

* a *predicate* verifier (``constant_time_equal``, ``hmac.compare_digest``)
  returns a bool; calling it as a bare statement throws the result away and
  the packet is "verified" no matter what;
* a ``verify*`` function that returns a result instead of raising, called
  for effect only;
* under ``src/repro``, a call to one of the router's verdict-returning
  entry points (:data:`VERDICT_RETURNING`) as a bare statement: the
  verdicts of a burst thrown away, which is verify-*and*-forward instead
  of §4.6's verify-then-forward.  The one real instance so far was a
  shard loop's ``validate_batch(burst)`` through a local alias, which the
  name catches as well as an attribute call.

The repro's own verifiers (``verify_mac``, ``verify_segment_token``,
``AuthenticatedRequest.verify_at``, ``verify_grants``) raise on failure,
so statement position is exactly right for them — they are allowlisted,
as raising validators such as ``_validate_link`` are simply not named.
If a new raising verifier is added, extend the allowlist (or suppress
with ``# colibri-lint: disable=CL007`` at the call site); if a new
verdict-returning entry point is added, extend the vocabulary —
``tests/test_colibri_lint.py`` fails when a name in it no longer names a
function in ``src/repro``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.colibri_lint.context import FileContext, Finding
from tools.colibri_lint.rules.base import Rule, call_name

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

#: The router's entry points that return per-packet verdicts (or the
#: bool/MAC a verdict is decided on) instead of raising.
VERDICT_RETURNING = frozenset(
    {
        "validate_batch",
        "validate_only",
        "validate_wire_batch",
        "_validate_one",
        "_authenticate",
        "_recompute",
        "process",
        "process_batch",
    }
)


class DiscardedVerificationRule(Rule):
    rule_id = "CL007"
    name = "no-discarded-verification"
    rationale = (
        "A verification whose result is thrown away accepts every packet; "
        "predicate verifiers and the router's verdict-returning entry "
        "points must feed a branch/raise, and only known raising verifiers "
        "may be called as statements."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        verdicts = VERDICT_RETURNING if ctx.is_production else frozenset()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            name = call_name(node.value.func)
            if name in PREDICATE_VERIFIERS:
                message = (
                    f"result of {name}() is discarded — the comparison has "
                    "no effect; branch on it or raise"
                )
            elif name in verdicts:
                message = (
                    f"verdicts of {name}() are discarded — the packets are "
                    "checked and the result is thrown away; branch on it, "
                    "return it or raise"
                )
            elif name.startswith("verify") and name not in RAISING_VERIFIERS:
                message = (
                    f"return value of {name}() is unused; if it raises on "
                    "failure add it to CL007's raising-verifier allowlist, "
                    "otherwise the check is a no-op"
                )
            else:
                continue
            yield self.finding(ctx, node.lineno, node.col_offset, message)
