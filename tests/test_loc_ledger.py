"""The ledger's bounds hold under the tier-1 command, not only in ``make
lint``: DESIGN.md §3b matches a fresh count, every row is within its
bound, and CHANGES.md lines from the capped PR on stay short."""

from __future__ import annotations

from tools import loc_ledger


def test_ledger_check_passes(capsys):
    code = loc_ledger.main(["--check"])
    assert code == 0, capsys.readouterr().err


def test_long_changes_line_is_named():
    first = loc_ledger.CHANGES_FROM_PR
    limit = loc_ledger.CHANGES_LINE_LIMIT
    too_long = f"PR {first} (simplicity): " + "x" * limit
    text = "\n".join(
        [
            f"PR {first - 1} (perf_opt): " + "x" * limit,  # before the cap
            too_long,
            f"PR {first + 1} (bugfix): short",
            "x" * (2 * limit),  # not a PR line
        ]
    )
    assert loc_ledger.long_changes_lines(text) == [(first, len(too_long))]
