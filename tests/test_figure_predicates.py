"""The three shape combinators of ``benchmarks/figures.py`` decide on the
cells' quartile intervals: *ok* only when the claim holds across them,
*violated* only when it fails across them, *unresolved* in between."""

from benchmarks.figures import (
    OK,
    UNRESOLVED,
    VIOLATED,
    equal,
    exact,
    flat,
    monotone,
    ratio_at_least,
)


def cell(median: float, spread: float = 0.0) -> dict:
    half = median * spread / 2
    return {"median": median, "q1": median - half, "q3": median + half, "spread": spread}


def test_flat_holds_fails_or_cannot_tell():
    assert flat("f", [cell(10, 0.1), cell(11, 0.1), cell(10.5)], 0.5).verdict == OK
    assert flat("f", [cell(10, 0.1), cell(30, 0.1)], 0.5).verdict == VIOLATED
    # Medians 1.4 apart, inside the band, but the quartiles reach past it.
    assert flat("f", [cell(10, 0.3), cell(14, 0.3)], 0.5).verdict == UNRESOLVED
    # A cell noisier than the band can never resolve, even against itself.
    assert flat("f", [cell(10, 0.6), cell(10)], 0.5).verdict == UNRESOLVED


def test_monotone_checks_every_step_in_its_direction():
    falling = [cell(30), cell(20), cell(21), cell(10)]
    assert monotone("m", falling, "falling", 0.1).verdict == OK
    assert monotone("m", falling, "falling").verdict == VIOLATED
    assert monotone("m", list(reversed(falling)), "rising", 0.1).verdict == OK
    assert monotone("m", falling, "rising", 0.1).verdict == VIOLATED
    assert monotone("m", [cell(20, 0.2), cell(21, 0.2)], "falling", 0.1).verdict == UNRESOLVED


def test_ratio_at_least_and_equal():
    assert ratio_at_least("r", cell(40, 0.1), cell(10, 0.1), 2.0).verdict == OK
    assert ratio_at_least("r", cell(10, 0.1), cell(10, 0.1), 2.0).verdict == VIOLATED
    assert ratio_at_least("r", cell(21, 0.2), cell(10, 0.2), 2.0).verdict == UNRESOLVED
    assert ratio_at_least("r", exact(1.0), exact(0.0), 100.0).verdict == OK
    assert equal("e", 3, 3).verdict == OK
    assert equal("e", 3, 4).verdict == VIOLATED
