#!/usr/bin/env python
"""Lines of code per layer (ROADMAP aim 2: growth needs a reason).

Prints ``wc -l`` of every ``src/repro/<package>``, of the files (and
one file group) the roadmap watches individually, of the figure
registry under ``benchmarks/`` (outside ``e2e/``), of ``tools/`` and of
docs/performance.md, as the markdown table DESIGN.md §3b carries
between its ``loc-ledger`` markers.  ``--check`` exits non-zero when a
row is over its :data:`BUDGETS` bound, naming the row and the excess;
when a CHANGES.md line from PR :data:`CHANGES_FROM_PR` on is longer than
:data:`CHANGES_LINE_LIMIT` characters (what changed, why, and the claim
fit in that; inventories go in the commit message); and when the table
differs from a fresh count, so a PR that grows (or shrinks) a layer has
to restate the ledger in the same diff — paste this tool's output over
the stale table.

Usage (from the repo root)::

    python tools/loc_ledger.py [--check]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
DESIGN = ROOT / "DESIGN.md"
CHANGES = ROOT / "CHANGES.md"
PERFORMANCE = ROOT / "docs" / "performance.md"
BEGIN = "<!-- loc-ledger:begin -->"
END = "<!-- loc-ledger:end -->"

#: Files tracked on their own, besides their package's total; a
#: ``{a,b,c}`` group is one row, the sum of its files.
WATCHED = (
    "dataplane/gateway.py",
    "dataplane/router.py",
    "dataplane/{duplicate,ofd,sigma_cache}.py",
    "crypto/native.py",
    "control/cserv.py",
    "dataplane/shards.py",
    "obs/distributed.py",
    "sim/campaign.py",
)

TOTAL = "**`src/repro` total**"
#: The paper-figure registry and its self-test: ``benchmarks/*.py``.
FIGURES = "`benchmarks/` outside `e2e/`"
TOOLS = "`tools/`"
PERFORMANCE_ROW = "`docs/performance.md`"

#: CHANGES.md lines starting ``PR <n>`` with n at least this are capped
#: at :data:`CHANGES_LINE_LIMIT` characters.
CHANGES_FROM_PR = 26
CHANGES_LINE_LIMIT = 800

#: Upper bounds ROADMAP states, by row label; ``--check`` enforces them.
BUDGETS = {
    TOTAL: 19_000,
    "`control/`": 2_911,
    "`dataplane/gateway.py` + `dataplane/router.py`": 1_066,
    "`dataplane/{duplicate,ofd,sigma_cache}.py`": 520,
    "`crypto/native.py`": 890,
    "`dataplane/shards.py` + `obs/distributed.py`": 600,
    "`sim/campaign.py`": 810,
    FIGURES: 1_200,
    TOOLS: 2_600,
    PERFORMANCE_ROW: 700,
}


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def watched_lines(name: str) -> int:
    """Lines of one watched file, or of every file of a ``{a,b,c}`` group."""
    if "{" not in name:
        return count_lines(PACKAGE_ROOT / name)
    head, rest = name.split("{", 1)
    stems, tail = rest.split("}", 1)
    return sum(count_lines(PACKAGE_ROOT / (head + stem + tail)) for stem in stems.split(","))


def ledger_rows() -> list:
    """``(label, lines)`` per package, then the total, then the watched
    files, then the figure registry, ``tools/`` and performance.md."""
    rows = []
    top_level = 0
    for entry in sorted(PACKAGE_ROOT.iterdir()):
        if entry.is_dir():
            lines = sum(count_lines(path) for path in sorted(entry.rglob("*.py")))
            if lines:
                rows.append((f"`{entry.name}/`", lines))
        elif entry.suffix == ".py":
            top_level += count_lines(entry)
    rows.append(("top-level modules", top_level))
    rows.append((TOTAL, sum(lines for _, lines in rows)))
    rows.extend((f"`{name}`", watched_lines(name)) for name in WATCHED)
    figures = sorted((ROOT / "benchmarks").glob("*.py"))
    rows.append((FIGURES, sum(count_lines(path) for path in figures)))
    tools = sorted((ROOT / "tools").rglob("*.py"))
    rows.append((TOOLS, sum(count_lines(path) for path in tools)))
    rows.append((PERFORMANCE_ROW, count_lines(PERFORMANCE)))
    return rows


def over_budget(rows: list) -> list:
    """``(label, lines, bound)`` for each :data:`BUDGETS` row over its
    bound; a ``a + b`` label is the sum of those two rows."""
    counts = dict(rows)
    over = []
    for label, bound in BUDGETS.items():
        lines = sum(counts[part] for part in label.split(" + "))
        if lines > bound:
            over.append((label, lines, bound))
    return over


def long_changes_lines(text: str) -> list:
    """``(pr, characters)`` for each CHANGES.md line of PR
    :data:`CHANGES_FROM_PR` or later that is over the limit."""
    long = []
    for line in text.splitlines():
        words = line.split(maxsplit=2)
        if len(words) < 2 or words[0] != "PR" or not words[1].isdigit():
            continue
        if int(words[1]) >= CHANGES_FROM_PR and len(line) > CHANGES_LINE_LIMIT:
            long.append((int(words[1]), len(line)))
    return long


def render(rows: list) -> str:
    lines = ["| layer | lines |", "|---|---:|"]
    lines.extend(f"| {label} | {count:,} |" for label, count in rows)
    return "\n".join(lines)


def recorded_table() -> str:
    """The table currently between DESIGN.md's ledger markers."""
    text = DESIGN.read_text()
    if BEGIN not in text or END not in text:
        raise SystemExit(f"loc-ledger: {DESIGN.name} has no {BEGIN} … {END} block")
    return text.split(BEGIN, 1)[1].split(END, 1)[0].strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail when DESIGN.md's ledger table is stale",
    )
    args = parser.parse_args(argv)
    rows = ledger_rows()
    table = render(rows)
    if not args.check:
        print(table)
        return 0
    over = over_budget(rows)
    for label, lines, bound in over:
        print(
            f"loc-ledger: {label} is {lines:,} lines, {lines - bound:,} over "
            f"its budget of {bound:,}",
            file=sys.stderr,
        )
    long = long_changes_lines(CHANGES.read_text(encoding="utf-8"))
    for pr, characters in long:
        print(
            f"loc-ledger: the {CHANGES.name} line of PR {pr} is {characters:,} "
            f"characters, over the {CHANGES_LINE_LIMIT} limit",
            file=sys.stderr,
        )
    if over or long:
        return 1
    if recorded_table() != table:
        print(
            f"loc-ledger: the table in {DESIGN.name} is stale; replace it with\n\n"
            f"{table}\n",
            file=sys.stderr,
        )
        return 1
    print("loc-ledger: DESIGN.md ledger is current and within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
