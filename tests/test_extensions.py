"""Management-plane telemetry (§1 "management scalability"): the per-AS
snapshot of ``ColibriNetwork.telemetry``."""

from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


class TestTelemetry:
    def test_snapshot_structure_and_totals(self):
        net = ColibriNetwork(build_two_isd_topology())
        net.reserve_segments(asid(1, 101), asid(2, 101), gbps(1))
        handle = net.establish_eer(asid(1, 101), asid(2, 101), mbps(10))
        net.send(asid(1, 101), handle, b"one packet")
        snapshot = net.telemetry()
        total = snapshot["total"]
        assert total["segments"] == 8  # 3 SegRs stored across 8 AS records
        assert total["eers"] == 6  # the EER stored at all 6 on-path ASes
        assert total["gateway_sent"] == 1
        assert total["router_forwarded"] == 6
        assert total["router_drops"] == 0
        assert total["bus_calls"] > 0
        # Per-AS entries carry the same keys.
        one_as = snapshot[str(asid(1, 101))]
        assert one_as["gateway_sent"] == 1
