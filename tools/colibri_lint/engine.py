"""File collection, suppressions and rule execution for colibri-lint.

Suppression syntax (searched in comments):

* ``# colibri-lint: disable=CL003`` on the offending line silences the
  listed rule(s) (comma-separated; ``all`` silences everything) for that
  line only;
* ``# colibri-lint: disable-file=CL003`` anywhere in a file silences the
  listed rule(s) for the whole file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Optional

from tools.colibri_lint.context import FileContext, Finding
from tools.colibri_lint.rules import ALL_RULES

#: Rule ID used for files the parser rejects; not a real rule, but it
#: must fail a lint run like one.
SYNTAX_ERROR_ID = "CL000"

_LINE_DISABLE = re.compile(r"colibri-lint:\s*disable=([A-Za-z0-9,\s]+)")
_FILE_DISABLE = re.compile(r"colibri-lint:\s*disable-file=([A-Za-z0-9,\s]+)")


def _rule_list(raw: str) -> set:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


def apply_suppressions(ctx: FileContext, findings: list) -> list:
    """Drop findings silenced by ``# colibri-lint: disable=...`` comments."""
    file_disabled: set = set()
    line_disabled: dict = {}
    for line, comment in ctx.comments.items():
        file_match = _FILE_DISABLE.search(comment)
        if file_match:
            file_disabled |= _rule_list(file_match.group(1))
        line_match = _LINE_DISABLE.search(comment)
        if line_match:
            line_disabled.setdefault(line, set()).update(
                _rule_list(line_match.group(1))
            )

    def suppressed(finding: Finding) -> bool:
        off = file_disabled | line_disabled.get(finding.line, set())
        return finding.rule_id in off or "ALL" in off

    return [finding for finding in findings if not suppressed(finding)]


def iter_python_files(paths: Iterable) -> list:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            found.append(path)
    return found


def relativize(path: Path, root: Optional[Path] = None) -> str:
    """Posix path relative to ``root`` (default cwd) when possible."""
    base = (root or Path.cwd()).resolve()
    resolved = path.resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return resolved.as_posix()


def _unparsable(rel_path: str, line: int, col: int, message: str) -> Finding:
    return Finding(
        path=rel_path, line=line, col=col, rule_id=SYNTAX_ERROR_ID, message=message
    )


def check_source(source: str, rel_path: str, rules=None) -> list:
    """Lint one in-memory source blob; returns sorted unsuppressed findings."""
    try:
        ctx = FileContext(rel_path, source)
    except SyntaxError as error:
        return [
            _unparsable(
                rel_path,
                error.lineno or 1,
                error.offset or 0,
                f"file does not parse: {error.msg}",
            )
        ]
    findings = []
    for rule in ALL_RULES if rules is None else rules:
        if rule.applies_to(ctx):
            findings.extend(rule.check(ctx))
    return sorted(apply_suppressions(ctx, findings), key=lambda f: f.sort_key)


def lint_paths(paths: Iterable, rules=None, root: Optional[Path] = None) -> list:
    """Lint every Python file under ``paths``; returns sorted findings."""
    findings = []
    for file_path in iter_python_files(paths):
        rel_path = relativize(file_path, root)
        try:
            source = Path(file_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(
                _unparsable(rel_path, 1, 0, f"file is unreadable: {error}")
            )
            continue
        findings.extend(check_source(source, rel_path, rules))
    return sorted(findings, key=lambda f: f.sort_key)
