"""CL010 — no mutable module-level state in the data plane or crypto.

The shard executor's shared-nothing claim (paper §7.1: linear multi-core
scaling) and the ROADMAP's persistent-worker plans both assume that the
code a shard worker runs reaches no cross-process shared state.  A
module-scope ``dict``/``list``/``set`` is exactly that: under ``fork``
every worker silently inherits (and can diverge from) one copy, under
``spawn`` re-import re-creates it, and either way mutation from two
shards is a race the type system never sees.  ``colibri_flow``'s CF004
proves reachability per submitted entry point; this rule keeps the two
packages where workers live free of such bindings in the first place.

Module-level *immutable* tables stay legal: tuples, ``frozenset``, and
``types.MappingProxyType(...)``-wrapped mappings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis_core.context import FileContext
from tools.analysis_core.findings import Finding
from tools.colibri_lint.rules.base import Rule

#: Constructor names that produce mutable containers.
MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "Counter", "deque",
     "OrderedDict"}
)


def _call_name(func) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def is_mutable_container(value) -> bool:
    """Does this expression build a mutable container?

    ``MappingProxyType(...)`` wrappers are immutable views and pass.
    """
    if isinstance(
        value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
    ):
        return True
    if isinstance(value, ast.Call):
        return _call_name(value.func) in MUTABLE_CALLS
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
        if not ctx.is_production:
            return False
        path = f"/{ctx.rel_path}"
        return "/repro/dataplane/" in path or "/repro/crypto/" in path

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
