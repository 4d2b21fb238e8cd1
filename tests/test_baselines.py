"""Tests for the IntServ and DiffServ baselines and their documented
failure modes (the reasons Colibri exists, §1)."""

import pytest

from benchmarks import figures
from repro.baselines import (
    DiffServRouter,
    DscpClass,
    IntServNetwork,
    RsvpSession,
)
from repro.baselines.intserv import RSVP_STATE_LIFETIME, IntServRouter
from repro.errors import AdmissionDenied
from repro.topology import IsdAs
from repro.util.units import gbps, mbps

BASE = 0xFF00_0000_0000
PATH = [IsdAs(1, BASE + i) for i in range(1, 5)]


@pytest.fixture(scope="module")
def comparison():
    """The state/baseline figure ``tools/make_report.py`` runs."""
    return figures.baselines("quick")


def verdicts(figure, prefix: str) -> list:
    found = [p.verdict for p in figure.shape if p.name.startswith(prefix)]
    assert found, prefix
    return found


class TestIntServ:
    def test_reservation_installs_state_everywhere(self):
        net = IntServNetwork(PATH, capacity=gbps(1))
        net.reserve(PATH[0], PATH[-1], mbps(10))
        assert net.total_state() == len(PATH)

    def test_per_flow_state_grows_linearly(self, comparison):
        """The scalability failure: router state = number of flows, in
        entries and in heap; the Colibri border router's heap is flat."""
        assert set(verdicts(comparison, "IntServ keeps one entry per flow")) == {figures.OK}
        assert verdicts(comparison, "IntServ router heap grows") == [figures.OK]
        assert verdicts(comparison, "border-router heap flat") == [figures.OK]
        mutant = figures.baselines("quick", build=figures.remembering_router)
        assert mutant.violated() == ["border-router heap flat in flows"]

    def test_admission_enforced(self):
        net = IntServNetwork(PATH, capacity=mbps(100))
        net.reserve(PATH[0], PATH[-1], mbps(80))
        with pytest.raises(AdmissionDenied):
            net.reserve(PATH[0], PATH[-1], mbps(30))

    def test_failed_admission_rolls_back(self):
        net = IntServNetwork(PATH, capacity=mbps(100))
        net.routers[PATH[-1]]._reserved = mbps(95)  # last hop nearly full
        with pytest.raises(AdmissionDenied):
            net.reserve(PATH[0], PATH[-1], mbps(30))
        assert net.routers[PATH[0]].state_size == 0

    def test_forwarding_requires_state(self):
        net = IntServNetwork(PATH, capacity=gbps(1))
        session = net.reserve(PATH[0], PATH[-1], mbps(10))
        assert net.forward_packet(session)
        net.teardown(session.session_id)
        assert not net.forward_packet(session)

    def test_soft_state_expires_without_refresh(self):
        net = IntServNetwork(PATH, capacity=gbps(1))
        session = net.reserve(PATH[0], PATH[-1], mbps(10), now=0.0)
        for router in net.routers.values():
            router.refresh_sweep(now=RSVP_STATE_LIFETIME + 1)
        assert net.total_state() == 0

    def test_refresh_work_scales_with_flows(self, comparison):
        """Control-plane cost: every refresh period touches every flow at
        every router — contrast with Colibri's O(1) admission."""
        assert set(verdicts(comparison, "an RSVP refresh period touches")) == {figures.OK}

    def test_unauthenticated_teardown_kills_victim(self):
        """The security failure: 'an adversary can spoof protocol
        messages' — teardown needs no proof of ownership."""
        net = IntServNetwork(PATH, capacity=gbps(1))
        victim = net.reserve(PATH[0], PATH[-1], mbps(10))
        attacker_as = IsdAs(9, BASE + 999)
        net.teardown(victim.session_id, claimed_source=attacker_as)
        assert not net.forward_packet(victim)

    def test_signaling_cost_per_reservation(self):
        net = IntServNetwork(PATH, capacity=gbps(1))
        net.reserve(PATH[0], PATH[-1], mbps(10))
        assert net.signaling_messages == 2 * len(PATH)


class TestDiffServ:
    def test_priority_respected_between_classes(self):
        router = DiffServRouter(capacity=8000.0)
        router.enqueue("be-flow", 600, DscpClass.BE)
        router.enqueue("ef-flow", 600, DscpClass.EF)
        sent = router.drain(1.0)
        assert sent.get((DscpClass.EF, "ef-flow")) == 600
        assert (DscpClass.BE, "be-flow") not in sent

    def test_no_admission_no_guarantee(self):
        """Within a class there is no reservation: two EF flows just
        split whatever capacity exists."""
        router = DiffServRouter(capacity=8000.0)
        for _ in range(10):
            router.enqueue("victim", 500, DscpClass.EF)
            router.enqueue("other", 500, DscpClass.EF)
        router.drain(1.0)
        victim_rate = router.flow_rate(DscpClass.EF, "victim", 1.0)
        assert victim_rate < 8000.0  # no guaranteed share

    def test_adversarial_marking_destroys_premium_class(self, comparison):
        """The headline failure: an attacker marks its flood EF and the
        victim's premium traffic collapses.  Colibri's authenticated,
        admission-controlled EERs make this impossible: the conforming
        reservation of Table 2 phase 3 keeps its guarantee."""
        assert verdicts(comparison, "a DiffServ victim loses premium traffic") == [figures.OK]
        assert verdicts(comparison, "the Colibri victim of the same flood") == [figures.OK]

    def test_queue_overflow_drops(self):
        router = DiffServRouter(capacity=8.0, queue_bytes=1000)
        assert router.enqueue("f", 800, DscpClass.BE)
        assert not router.enqueue("f", 800, DscpClass.BE)
        assert router.dropped[(DscpClass.BE, "f")] == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DiffServRouter(capacity=0)
