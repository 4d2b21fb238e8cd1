"""colibri-lint: AST-based invariant checker for the Colibri reproduction.

The reproduction's correctness rests on conventions no generic linter
knows about: time flows through injected Clocks (paper §2.3's ±0.1 s sync
assumption), randomness is seeded per component, bandwidths are bits/s
floats built with the units helpers, security checks are not strippable,
and paper constants cite their section.  This package enforces them with
eight pure-stdlib AST rules (CL001-CL008), per-line/per-file suppression
comments, a checked-in baseline for grandfathered findings, and text/JSON
reporters.

Usage::

    python -m tools.colibri_lint src/ tests/
    python -m tools.colibri_lint --list-rules
    python -m tools.colibri_lint src/ --format json

See ``docs/static_analysis.md`` for the rule catalogue and workflow.
"""

from tools.analysis_core.findings import Finding
from tools.colibri_lint.engine import check_source, lint_paths
from tools.colibri_lint.rules import ALL_RULES, RULES_BY_ID

__all__ = ["check_source", "lint_paths", "Finding", "ALL_RULES", "RULES_BY_ID"]
