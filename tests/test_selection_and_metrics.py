"""Tests for the statistics helpers, plus the Coremelt-style collusion
attack on the admission algorithm (§5.2, the [26]/[53] attack class §8
references)."""

import pytest

from repro.errors import InsufficientBandwidth
from repro.sim import ColibriNetwork
from repro.topology import IsdAs
from tests._topologies import build_core_mesh
from repro.util.units import gbps
from tests._metrics import jain_fairness, mean, percentile

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


class TestMetrics:
    def test_jain_equal(self):
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)

    def test_jain_single_taker(self):
        assert jain_fairness([9, 0, 0]) == pytest.approx(1 / 3)

    def test_jain_validations(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1.0])
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.0) == 1

    def test_percentile_validations(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])


class TestCoremeltCollusion:
    """The Coremelt/Crossfire attack class (§8 refs [26][53]): colluding
    ASes exchange *legitimate* reservations to melt a shared core link.
    Colibri's defence is the admission algorithm itself (§5.2): aggregate
    adjusted demand per ingress and per source is capped, so collusion
    cannot reserve the link away, and renewal rounds converge benign
    flows to a guaranteed floor."""

    def test_colluders_cannot_starve_benign_renewals(self):
        net = ColibriNetwork(build_core_mesh(4, capacity=gbps(40)))
        target_first, target_last = asid(1, 1), asid(1, 3)
        direct = net.path_lookup.paths(target_first, target_last, limit=1)[0]
        segment = direct.segments[0]

        # The benign AS holds a modest reservation over the target link.
        benign = net.cserv(target_first).setup_segment(segment, gbps(1))

        # Colluders: the same initiating AS floods reservations over the
        # link (a group behind one ingress behaves identically, rule 1).
        colluder_grants = []
        for _ in range(60):
            try:
                reservation = net.cserv(target_first).setup_segment(
                    segment, gbps(32), register=False
                )
                colluder_grants.append(reservation)
            except InsufficientBandwidth:
                pass

        # Renewal rounds let the admission re-balance (tube fairness).
        for _round in range(3):
            for reservation in colluder_grants:
                try:
                    version = net.cserv(target_first).renew_segment(
                        reservation.reservation_id, gbps(32)
                    )
                    net.cserv(target_first).activate_segment(
                        reservation.reservation_id, version
                    )
                except InsufficientBandwidth:
                    pass
            version = net.cserv(target_first).renew_segment(
                benign.reservation_id, gbps(1)
            )
            net.cserv(target_first).activate_segment(
                benign.reservation_id, version
            )

        # The benign reservation retains a usable floor...
        assert benign.bandwidth >= gbps(0.2)
        # ...and the total never exceeds the link's Colibri share.
        total = benign.bandwidth + sum(r.bandwidth for r in colluder_grants)
        assert total <= gbps(40) * 0.8 * (1 + 1e-9)

    def test_fairness_across_distinct_sources(self):
        """Distinct source ASes competing for one egress converge to a
        high Jain index after renewal rounds."""
        from repro.admission import SegmentAdmission, TrafficMatrix
        from repro.reservation.ids import ReservationId
        from repro.topology import build_line_topology
        from repro.topology.graph import NO_INTERFACE

        topology = build_line_topology(3)
        middle = asid(1, 2)
        admission = SegmentAdmission(TrafficMatrix(topology.node(middle)))
        sources = [asid(1, 100 + i) for i in range(6)]
        for source in sources:
            admission.admit(
                ReservationId(source, 1), source, NO_INTERFACE, 2, gbps(32), 0.0
            )
        final = {}
        for _round in range(3):
            for source in sources:
                grant = admission.admit(
                    ReservationId(source, 1), source, NO_INTERFACE, 2, gbps(32), 0.0
                )
                final[source] = grant.granted
        assert jain_fairness(list(final.values())) > 0.9
