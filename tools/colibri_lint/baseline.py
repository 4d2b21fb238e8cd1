"""Baseline (grandfathered findings) support for colibri-lint.

The baseline is a checked-in JSON file listing findings that predate a
rule.  Entries match on ``(path, rule, line_text)`` — not line numbers —
so unrelated edits that shift code around don't resurrect grandfathered
findings, while any edit to the offending line itself forces a fix.

Workflow: ``python -m tools.colibri_lint src/ --update-baseline``
rewrites the file from the current findings; review the diff and commit
it.  The goal is an empty baseline — new code must never be added to it.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

DEFAULT_BASELINE_NAME = ".colibri-lint-baseline.json"
BASELINE_VERSION = 1


def _key(path: str, rule: str, line_text: str) -> tuple:
    return (path, rule, line_text.strip())


def load_baseline(path: Path) -> Counter:
    """Multiset of grandfathered finding keys (empty if no file)."""
    if not path.is_file():
        return Counter()
    data = json.loads(path.read_text(encoding="utf-8"))
    return Counter(
        _key(entry["path"], entry["rule"], entry.get("line_text", ""))
        for entry in data.get("findings", [])
    )


def filter_findings(findings: list, baseline: Counter) -> tuple:
    """Split findings into (new, grandfathered) against the baseline."""
    remaining = Counter(baseline)
    new, grandfathered = [], []
    for finding in findings:
        key = _key(finding.path, finding.rule_id, finding.line_text)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            grandfathered.append(finding)
        else:
            new.append(finding)
    return new, grandfathered


def write_baseline(findings: list, path: Path) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Grandfathered colibri-lint findings. Shrink this file; never "
            "add to it. Regenerate with --update-baseline and review the "
            "diff."
        ),
        "findings": [
            {
                "path": finding.path,
                "rule": finding.rule_id,
                "line_text": finding.line_text.strip(),
            }
            for finding in findings
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
