"""Rule registry: every shipped rule, in rule-ID order."""

from __future__ import annotations

from tools.colibri_lint.rules.asserts import ProductionAssertRule
from tools.colibri_lint.rules.base import Rule
from tools.colibri_lint.rules.exceptions import BroadExceptRule
from tools.colibri_lint.rules.module_state import ModuleStateRule
from tools.colibri_lint.rules.obs_guard import ObsGuardRule
from tools.colibri_lint.rules.verification import DiscardedVerificationRule

ALL_RULES: list = [
    ProductionAssertRule(),
    BroadExceptRule(),
    DiscardedVerificationRule(),
    ModuleStateRule(),
    ObsGuardRule(),
]

RULES_BY_ID: dict = {rule.rule_id: rule for rule in ALL_RULES}

__all__ = ["Rule", "ALL_RULES", "RULES_BY_ID"]
