"""colibri-lint: AST-based invariant checker for the Colibri reproduction.

Five pure-stdlib rules, each decided from one file: no strippable
``assert`` in production code (CL003), no silent blanket ``except``
(CL004), no discarded verification or verdict (CL007), no module-level
mutable state where shard workers run (CL010), and no unguarded
dereference of the optional observability context (CL012).  Per-line and
per-file suppression comments, a checked-in baseline for grandfathered
findings, and text/JSON reporters.

Usage::

    python -m tools.colibri_lint src/ tests/
    python -m tools.colibri_lint --list-rules
    python -m tools.colibri_lint src/ --format json

See ``docs/static_analysis.md`` for the rule catalogue, what each rule
has caught, and how to re-run the sweep over the repository's history.
"""

from tools.colibri_lint.context import Finding
from tools.colibri_lint.engine import check_source, lint_paths
from tools.colibri_lint.rules import ALL_RULES, RULES_BY_ID

__all__ = ["check_source", "lint_paths", "Finding", "ALL_RULES", "RULES_BY_ID"]
