"""Command-line interface: ``python -m tools.colibri_lint [paths...]``.

Exit codes: 0 clean (modulo baseline), 1 findings, 2 usage error.

Reports are text (``path:line:col: RULE message``, then a per-rule
summary) or JSON with the stable schema ``{"tool", "findings": [{path,
line, col, rule, message, line_text}], "count", "grandfathered"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from tools.colibri_lint import baseline as baseline_mod
from tools.colibri_lint.engine import lint_paths
from tools.colibri_lint.rules import ALL_RULES, RULES_BY_ID

TOOL = "colibri-lint"


def render_text(findings: list, grandfathered_count: int = 0) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule_id} {f.message}" for f in findings
    ]
    if findings:
        per_rule = Counter(finding.rule_id for finding in findings)
        breakdown = ", ".join(
            f"{rule}: {count}" for rule, count in sorted(per_rule.items())
        )
        lines += ["", f"{len(findings)} finding(s) ({breakdown})"]
    else:
        lines.append(f"{TOOL}: clean")
    if grandfathered_count:
        lines.append(f"{grandfathered_count} grandfathered finding(s) in baseline")
    return "\n".join(lines)


def render_json(findings: list, grandfathered_count: int = 0) -> str:
    payload = {
        "tool": TOOL,
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
        "grandfathered": grandfathered_count,
    }
    return json.dumps(payload, indent=2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.colibri_lint",
        description=(
            "AST-based invariant checker for the Colibri reproduction: "
            "strippable asserts, silent excepts, discarded verifications "
            "and verdicts, module-level mutable state in the data plane, "
            "and unguarded instrumentation."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline JSON of grandfathered findings (default: "
            f"{baseline_mod.DEFAULT_BASELINE_NAME} in the cwd, if present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def _pick_rules(select: str, ignore: str) -> list:
    chosen = list(ALL_RULES)
    if select:
        wanted = {rule_id.strip().upper() for rule_id in select.split(",")}
        unknown = wanted - set(RULES_BY_ID)
        if unknown:
            raise SystemExit(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        chosen = [rule for rule in chosen if rule.rule_id in wanted]
    if ignore:
        skipped = {rule_id.strip().upper() for rule_id in ignore.split(",")}
        chosen = [rule for rule in chosen if rule.rule_id not in skipped]
    return chosen


def _safe_print(text: str) -> None:
    """Print without letting a closed pipe (``| head``) distort the exit code."""
    try:
        print(text)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            _safe_print(f"{rule.rule_id}  {rule.name}")
            _safe_print(f"       {rule.rationale}")
        return 0

    try:
        rules = _pick_rules(args.select, args.ignore)
    except SystemExit as error:
        print(error, file=sys.stderr)
        return 2

    findings = lint_paths(args.paths, rules=rules)

    baseline_path = Path(args.baseline or baseline_mod.DEFAULT_BASELINE_NAME)
    if args.update_baseline:
        baseline_mod.write_baseline(findings, baseline_path)
        _safe_print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    grandfathered: list = []
    if not args.no_baseline:
        known = baseline_mod.load_baseline(baseline_path)
        findings, grandfathered = baseline_mod.filter_findings(findings, known)

    renderer = render_json if args.format == "json" else render_text
    _safe_print(renderer(findings, grandfathered_count=len(grandfathered)))
    return 1 if findings else 0


def main() -> None:
    raise SystemExit(run())
