"""The checks colibri-flow made on the shipped tree, kept after the tool.

colibri-flow's two rules that caught real code live on in colibri-lint:
CF001's discarded-verdict catch is CL007's verdict vocabulary and CF003
is CL012.  These tests hold ``src/repro`` to them, as colibri-flow's own
real-tree tests did, with nothing grandfathered for either rule."""

from __future__ import annotations

import unittest
from pathlib import Path

from tools.colibri_lint import lint_paths
from tools.colibri_lint.baseline import filter_findings, load_baseline
from tools.colibri_lint.rules import RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / ".colibri-lint-baseline.json"
FLOW_SUCCESSOR_RULES = ("CL007", "CL012")


class TestRealTreeClean(unittest.TestCase):
    """The analyzer's reason to exist: the shipped tree stays clean."""

    def test_src_repro_clean_modulo_baseline(self):
        findings = lint_paths(
            [REPO_ROOT / "src" / "repro"],
            rules=[RULES_BY_ID[rule_id] for rule_id in FLOW_SUCCESSOR_RULES],
            root=REPO_ROOT,
        )
        new, _ = filter_findings(findings, load_baseline(BASELINE_PATH))
        self.assertEqual(
            [],
            new,
            "regressions of the ported colibri-flow checks:\n"
            + "\n".join(f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in new),
        )

    def test_baseline_is_empty(self):
        baseline = load_baseline(BASELINE_PATH)
        grandfathered = sum(
            count
            for (_, rule_id, _), count in baseline.items()
            if rule_id in FLOW_SUCCESSOR_RULES
        )
        self.assertEqual(0, grandfathered, "baseline must stay empty")


if __name__ == "__main__":
    unittest.main()
