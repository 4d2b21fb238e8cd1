"""What the CServ's journal hooks cost when observability is off, and
what they record when it is on.

Off: the control path must not format a single ``IsdAs`` or
``ReservationId`` (the journal's ``isd_as=`` / ``reservation=``
attributes are the only reason to), except inside the message of an
exception it is about to raise.  On: the admission, renewal and sweep
records are byte-identical to ``golden_cserv_journal.jsonl``, captured
from the revision before the hooks were guarded (commit 4be7923).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.constants import EER_LIFETIME
from repro.errors import InsufficientBandwidth
from repro.obs.events import ADMISSION_DECIDED, RESERVATION_RENEWED, STORE_SWEPT
from repro.reservation.ids import ReservationId
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.generator import build_two_isd_topology
from repro.util.units import gbps, mbps

SRC = IsdAs.parse("1-ff00:0:65")
DST = IsdAs.parse("2-ff00:0:65")
GOLDEN = Path(__file__).with_name("golden_cserv_journal.jsonl")


def build(observed: bool) -> ColibriNetwork:
    net = ColibriNetwork(build_two_isd_topology())
    if observed:
        net.enable_observability(seed=7, journal=True, perf=net.clock)
    net.reserve_segments(SRC, DST, gbps(1))
    return net


def admitted_traffic(net) -> None:
    """One setup and one renewal over the 6-AS path: nothing raises."""
    cserv = net.cserv(SRC)
    handle = cserv.setup_eer(DST, HostAddr(1), HostAddr(2), mbps(8))
    net.advance(3.0)
    cserv.renew_eer(handle)


def refused_setup(net) -> None:
    with pytest.raises(InsufficientBandwidth):
        net.cserv(SRC).setup_eer(DST, HostAddr(1), HostAddr(2), gbps(20))


def expire_and_sweep(net) -> None:
    net.advance(EER_LIFETIME + 1.0)
    assert net.housekeeping()["eers"] == 6


@pytest.fixture
def formatted(monkeypatch):
    """Names of the functions that formatted an address or an id."""
    callers = []
    for cls in (IsdAs, ReservationId):
        original = cls.__str__

        def counting(self, original=original):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(self)

        monkeypatch.setattr(cls, "__str__", counting)
    return callers


def test_disabled_observability_formats_nothing(formatted):
    net = build(observed=False)
    del formatted[:]  # SegR setup is not the path under test
    admitted_traffic(net)
    assert formatted == []
    refused_setup(net)
    # Only the two refusal messages: the admission check's and the
    # initiator's (plus the address inside the id the first one names).
    assert set(formatted) <= {"_check_segment", "_refused", "__str__"}
    del formatted[:]
    expire_and_sweep(net)
    assert formatted == []


def journaled(net) -> str:
    """The admission, renewal and sweep records, as the golden file
    holds them."""
    kept = {ADMISSION_DECIDED, RESERVATION_RENEWED, STORE_SWEPT}
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n"
        for event in net.obs.journal.events()
        if event.type in kept
    )


def test_enabled_journal_matches_the_parent():
    net = build(observed=True)
    admitted_traffic(net)
    refused_setup(net)
    expire_and_sweep(net)
    assert journaled(net) == GOLDEN.read_text()
