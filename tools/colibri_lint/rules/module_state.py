"""CL010 — no mutable module-level state in the data plane or crypto.

Fig. 6's shared-nothing claim (paper §7.1: linear multi-core scaling)
is that no mutable state is shared between the stacks the fast path
runs on.  ``tests/test_fig6_shards.py`` builds k shard stacks in one
interpreter and checks that no mutable object is reachable from two of
them — but it walks from each stack's objects, and a module-scope
``dict``/``list``/``set`` is reached through code, not through an
object: every shard in the interpreter would share it unseen.  This
rule keeps the two packages the shards run free of such bindings.

Module-level *immutable* tables stay legal: tuples, ``frozenset``, and
``types.MappingProxyType(...)``-wrapped mappings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.colibri_lint.context import FileContext, Finding
from tools.colibri_lint.rules.base import Rule, call_name

#: Constructor names that produce mutable containers.
MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "Counter", "deque",
     "OrderedDict"}
)


def is_mutable_container(value) -> bool:
    """Does this expression build a mutable container?

    ``MappingProxyType(...)`` wrappers are immutable views and pass.
    """
    if isinstance(
        value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
    ):
        return True
    if isinstance(value, ast.Call):
        return call_name(value.func) in MUTABLE_CALLS
    return False


class ModuleStateRule(Rule):
    rule_id = "CL010"
    name = "no-module-level-mutable-state"
    rationale = (
        "Module-scope dict/list/set bindings in repro/dataplane and "
        "repro/crypto are cross-shard shared state; use a tuple, "
        "frozenset, or types.MappingProxyType wrapper instead."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("dataplane", "crypto")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                continue
            if is_mutable_container(value):
                label = ", ".join(names) or "<target>"
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"module-level mutable container {label} is cross-shard "
                    "shared state; use a tuple/frozenset or wrap in "
                    "types.MappingProxyType",
                )
