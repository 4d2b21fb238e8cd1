"""Table 2 (§7.1/§7.2) in tier-1: the figure function ``tools/make_report.py``
runs, on the simulated clock, and the three builds that must break it.

* phase 1 — best-effort congestion cannot touch reservation output;
* phase 2 — unauthentic Colibri traffic is filtered and costs nothing;
* phase 3 — an overusing reservation is policed back towards its guarantee
  without harming the conforming reservation.

Rates are in Mbps for the paper's Gbps — the logic is rate-free.
"""

import pytest

from benchmarks import figures


@pytest.fixture(scope="module")
def table2():
    return figures.table2("quick")


def phase_verdicts(figure, phase: int) -> dict:
    prefix = f"phase {phase}:"
    return {p.name: p.verdict for p in figure.shape if p.name.startswith(prefix)}


class TestPhase1BestEffortCongestion:
    def test_reservations_protected_from_best_effort_flood(self, table2):
        verdicts = phase_verdicts(table2, 1)
        assert len(verdicts) == 3 and set(verdicts.values()) == {figures.OK}
        # Best effort fills the rest of the link, minus the reservations.
        best_effort = float(table2.rows[2][1])
        assert figures.CAPACITY * 0.9 < best_effort * 1e6 < figures.CAPACITY

    def test_without_isolation_reservations_collapse(self):
        """Appendix B's point about why class isolation is mandatory: in
        one shared queue the reservations get a flood's share, not theirs."""
        mutant = figures.table2("quick", build=figures.unisolated_port)
        assert "phase 1: reservation 1 holds its guarantee" in mutant.violated()
        assert "phase 1: reservation 2 holds its guarantee" in mutant.violated()


class TestPhase2UnauthenticTraffic:
    def test_bogus_colibri_filtered(self, table2):
        verdicts = phase_verdicts(table2, 2)
        assert len(verdicts) == 5 and set(verdicts.values()) == {figures.OK}
        mutant = figures.table2("quick", build=figures.unauthenticated_port)
        assert "phase 2: unauthentic Colibri output is zero" in mutant.violated()
        assert "phase 2: forged packets die at the HVF check" in mutant.violated()


class TestPhase3Overuse:
    def test_overuser_policed_without_collateral(self, table2):
        verdicts = phase_verdicts(table2, 3)
        assert len(verdicts) == 3 and set(verdicts.values()) == {figures.OK}
        # Limited to (about) its guarantee: the residue is the token-bucket
        # burst plus pre-detection leakage over a half-second run.
        assert float(table2.rows[0][3]) * 1e6 < figures.RES1 * 6
        mutant = figures.table2("quick", build=figures.unpoliced_port)
        assert "phase 3: the overuser is clamped" in mutant.violated()
        assert "phase 3: the overuse is policed at the router" in mutant.violated()
