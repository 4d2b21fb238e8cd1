#!/usr/bin/env python3
"""The one measurement command: run every paper figure, rewrite the reports.

    python tools/make_report.py [--quick]

Runs the registry of ``benchmarks/figures.py`` on the unbroken build,
replaces each figure's block between its ``<!-- figure:KEY:begin -->`` /
``<!-- figure:KEY:end -->`` markers in EXPERIMENTS.md (the ``loc-ledger``
pattern), writes REPRODUCTION_REPORT.md from the same rows, and exits
non-zero when a shape predicate is *violated*; an *unresolved* one (the
host was too noisy to tell) is reported and does not fail the run.
``--quick`` shrinks the sweeps the way ``benchmarks/e2e/run.py --quick``
does; the simulated-clock figures are the same at both scales.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import figures  # noqa: E402

EXPERIMENTS = ROOT / "EXPERIMENTS.md"
REPORT = ROOT / "REPRODUCTION_REPORT.md"

HEADER = """# Reproduction report

Written by `python tools/make_report.py{flag}` ({scale} scale, {backend}
Eq. 6 backend) from the rows the figure functions of
`benchmarks/figures.py` returned on this machine.  Each block is a
figure's table, then its shape predicates with their verdicts: *ok*,
*violated* (fails the command) or *unresolved* (the cells' quartiles
straddle the band).  What each figure reproduces, and the mutant build
that must violate each predicate, is in EXPERIMENTS.md.
"""


def render(figure: figures.Figure, scale: str) -> str:
    """One figure as markdown: table, note, predicate verdicts."""
    lines = [
        "| " + " | ".join(str(cell) for cell in figure.header) + " |",
        "|" + "---|" * len(figure.header),
    ]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in figure.rows]
    lines += ["", f"({scale} scale; {figure.note})", ""]
    lines += [f"- **{p.verdict}** — {p.name} ({p.detail})" for p in figure.shape]
    return "\n".join(lines)


def render_mutants() -> str:
    lines = ["| figure | broken build | predicate it must violate |", "|---|---|---|"]
    for entry in figures.REGISTRY:
        for mutant, (build, predicate) in entry.mutants.items():
            lines.append(f"| `{entry.key}` | {mutant} (`{build.__name__}`) | {predicate} … |")
    return "\n".join(lines)


def splice(text: str, key: str, body: str) -> str:
    begin, end = f"<!-- figure:{key}:begin -->", f"<!-- figure:{key}:end -->"
    if begin not in text or end not in text:
        raise SystemExit(f"make_report: {EXPERIMENTS.name} has no {begin} … {end} block")
    head, rest = text.split(begin, 1)
    return f"{head}{begin}\n{body}\n{end}{rest.split(end, 1)[1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps (the CI figures job)"
    )
    args = parser.parse_args(argv)
    scale = "quick" if args.quick else "full"
    experiments = EXPERIMENTS.read_text()
    report = [
        HEADER.format(
            flag=" --quick" if args.quick else "",
            scale=scale,
            backend=figures.backend_name(),
        )
    ]
    verdicts = []
    for entry in figures.REGISTRY:
        figure = entry.figure(scale)
        body = render(figure, scale)
        print(f"\n## {figure.title}\n\n{body}", flush=True)
        experiments = splice(experiments, entry.key, body)
        report.append(f"## {figure.title}\n\n{body}\n")
        verdicts += [(entry.key, p) for p in figure.shape]
    EXPERIMENTS.write_text(splice(experiments, "mutants", render_mutants()))
    REPORT.write_text("\n".join(report))
    counts = {
        verdict: sum(p.verdict == verdict for _, p in verdicts)
        for verdict in (figures.OK, figures.UNRESOLVED, figures.VIOLATED)
    }
    print(
        f"\n{len(verdicts)} predicates over {len(figures.REGISTRY)} figures: "
        + ", ".join(f"{count} {verdict}" for verdict, count in counts.items())
    )
    for key, predicate in verdicts:
        if predicate.verdict != figures.OK:
            print(f"make_report: {key}: {predicate.verdict}: {predicate.name} ({predicate.detail})",
                  file=sys.stderr)
    return 1 if counts[figures.VIOLATED] else 0


if __name__ == "__main__":
    sys.exit(main())
