"""Security tests: the §5 DDoS-resilience claims, attack by attack."""

import pytest

from benchmarks import figures
from repro.attacks import DocAttack, ReplayAttack, SpoofingAttack, VolumetricAttack
from repro.sim import ColibriNetwork
from repro.topology import IsdAs, build_two_isd_topology
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000


def asid(isd, index):
    return IsdAs(isd, BASE + index)


SRC = asid(1, 101)
DST = asid(2, 101)
ATTACKER = asid(1, 111)


@pytest.fixture
def net():
    return ColibriNetwork(build_two_isd_topology())


class TestReplayAttack:
    def test_replays_suppressed_and_victim_not_framed(self, net):
        """§5.1: 'all copies of the same packet are thus discarded' —
        and the honest source is not blocked (no framing)."""
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        vantage = asid(2, 1)  # on-path core AS turns malicious
        attack = ReplayAttack(net, vantage)
        for index in range(5):
            report = net.send(SRC, handle, f"packet {index}".encode())
            assert report.delivered
            attack.observe_delivery(report)
        outcome = attack.replay(copies=20)
        assert outcome.captured == 5
        assert outcome.replayed == 100
        assert outcome.replays_suppressed == 100
        assert outcome.replays_delivered == 0
        assert not outcome.victim_blocked

    def test_original_traffic_unaffected_after_attack(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        attack = ReplayAttack(net, asid(1, 1))
        report = net.send(SRC, handle, b"first")
        attack.observe_delivery(report)
        attack.replay(copies=50)
        assert net.send(SRC, handle, b"after the attack").delivered


class TestSpoofingAttack:
    def test_forged_packets_all_rejected(self, net):
        """§5.1: source authentication defeats spoofing; §7.1 threat 2:
        random tags cannot overwhelm the router."""
        attack = SpoofingAttack(net, victim=SRC, target=asid(1, 1))
        report = attack.forge_fresh(count=200)
        assert report.all_rejected
        assert report.rejected_bad_hvf == 200

    def test_mutated_authentic_packets_rejected(self, net):
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        packet = net.gateway(SRC).send(handle.reservation_id, b"genuine")
        packet.hop_index = 1
        attack = SpoofingAttack(net, victim=SRC, target=asid(1, 11))
        report = attack.mutate_authentic(packet, count=40)
        assert report.accepted == 0
        assert report.rejected_bad_hvf == 40

    def test_victim_not_blocked_by_spoofing(self, net):
        """Framing via spoofed packets fails: bad-HVF drops never reach
        the policing pipeline."""
        attack = SpoofingAttack(net, victim=SRC, target=asid(1, 1))
        attack.forge_fresh(count=500)
        router = net.router(asid(1, 1))
        assert not router.blocklist.is_blocked(SRC, net.clock.now())


class TestVolumetricAttack:
    def test_overuser_blocked_and_benign_protected(self, net):
        """§5.1 / Table 2 phase 3: the rogue AS 'can very briefly cause
        congestion, but would afterwards be prevented'."""
        net.reserve_segments(SRC, DST, gbps(1))
        net.reserve_segments(ATTACKER, DST, gbps(1))
        benign_handle = net.establish_eer(SRC, DST, mbps(8))
        attack_handle = net.establish_eer(ATTACKER, DST, mbps(8))
        attack = VolumetricAttack(net, ATTACKER, SRC, DST)
        outcome = attack.run(
            attack_handle, benign_handle, rounds=600, overuse_factor=10.0
        )
        assert outcome.attacker_blocked
        # The attacker's flood mostly died in the network.
        assert outcome.attack_delivery_rate < 0.5
        # The benign reservation kept flowing throughout.
        assert outcome.benign_delivery_rate > 0.95

    def test_conforming_heavy_user_not_blocked(self, net):
        """A flow at exactly its reserved rate is never punished."""
        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(8))
        tick = 0.001
        payload = b"x" * (int(mbps(8) * tick / 8) - 120)
        for _ in range(500):
            assert net.send(SRC, handle, payload).delivered
            net.advance(tick)
        for isd_as in [hop.isd_as for hop in handle.hops[1:]]:
            assert not net.router(isd_as).blocklist.is_blocked(SRC, net.clock.now())


class TestDocAttack:
    def test_request_flood_rate_limited(self, net):
        attack = DocAttack(net, attacker=asid(1, 1), target=asid(2, 1))
        # Tighten the victim CServ's limiter so the test flood trips it.
        net.cserv(asid(2, 1)).request_limiter.rate = 5.0
        net.cserv(asid(2, 1)).request_limiter.burst = 5.0
        report = attack.flood_requests(count=50)
        assert report.flood_rejected > 0
        assert report.rejection_rate > 0.5

    def test_victim_renewal_survives_flood(self, net):
        """§5.3: renewals over existing reservations are protected
        control traffic — a setup flood cannot block them."""
        net.reserve_segments(SRC, DST, gbps(1))
        victim_handle = net.establish_eer(SRC, DST, mbps(10))
        net.cserv(asid(2, 1)).request_limiter.rate = 5.0
        net.cserv(asid(2, 1)).request_limiter.burst = 5.0
        attack = DocAttack(net, attacker=asid(1, 1), target=asid(2, 1))
        attack.flood_requests(count=50)
        net.advance(2.0)
        assert attack.victim_renewal_under_flood(victim_handle, SRC)


class TestPathTampering:
    def test_rerouting_attempt_breaks_hvf(self, net):
        """An on-path AS rewriting the Path field (to divert traffic
        through a colluding AS) breaks every downstream HVF: Eq. (4)
        covers each hop's (In, Eg) pair."""
        from repro.packets.fields import PathField

        net.reserve_segments(SRC, DST, gbps(1))
        handle = net.establish_eer(SRC, DST, mbps(10))
        packet = net.gateway(SRC).send(handle.reservation_id, b"payload")
        packet.hop_index = 1
        pairs = list(packet.path.interface_pairs)
        pairs[1] = (pairs[1][0], pairs[1][1] + 1)  # divert the egress
        packet.path = PathField(tuple(pairs))
        from repro.dataplane.router import Verdict

        result = net.router(asid(1, 11)).process(packet)
        assert result.verdict is Verdict.DROP_BAD_HVF


class TestUnauthenticControlFlood:
    def test_cserv_rejects_forged_control_cheaply(self, net):
        """§5.3: 'the CServ can very efficiently filter unauthentic
        packets' — a forged renewal flood is rejected at MAC
        verification, before any admission computation runs."""
        from repro.control.auth import AuthenticatedRequest
        from repro.errors import MacVerificationError
        from repro.packets.control import SegRenewalRequest

        net.reserve_segments(SRC, DST, gbps(1))
        transit = net.cserv(asid(1, 11))
        segr = transit.store.segments()[0]
        decisions_before = transit.seg_admission.decisions
        rejected = 0
        for index in range(50):
            request = SegRenewalRequest(
                reservation=segr.reservation_id,
                new_bandwidth=1e9,
                min_bandwidth=0.0,
                new_expiry=net.clock.now() + 300,
                new_version=100 + index,
            )
            # Forged envelope: attacker AS signs, then claims SRC.
            auth = AuthenticatedRequest.create(
                net.directory, ATTACKER, [ATTACKER, asid(1, 11)], request
            )
            auth.source = segr.reservation_id.src_as
            try:
                transit.handle_seg_renewal(request, auth, hop_index=1)
            except MacVerificationError:
                rejected += 1
        assert rejected == 50
        # No admission work was spent on the forgeries.
        assert transit.seg_admission.decisions == decisions_before


def test_the_security_figure_holds_and_its_mutants_are_caught():
    """The §5 table ``tools/make_report.py`` prints: the four adversaries
    over the whole path, unbroken and with a defence switched off."""
    entry = next(entry for entry in figures.REGISTRY if entry.key == "security")
    assert figures.self_test(entry) == []
