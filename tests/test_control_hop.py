"""One control-plane hop against the paper's list (§4.5, Eq. 4-5).

Per on-path AS an EER request costs one on-the-fly DRKey derivation,
one MAC check, one admission decision, one grant MAC, one store write
and one sealed HopAuth.  The handlers in ``control/cserv.py`` are the
optimized path; this file is the tens-of-lines reference they are
checked against: every MAC, grant and HopAuth is recomputed from each
AS's *own* key material, per-SegR allocations are recomputed by brute
force from the stored EERs, and counting wrappers pin the per-hop work
to the list above.  Each scenario also runs with the renewal falling in
the DRKey epoch after the setup's.
"""

from collections import Counter

import pytest

from repro.constants import DRKEY_VALIDITY
from repro.crypto.mac import mac
from repro.dataplane.hvf import hop_authenticator
from repro.errors import InsufficientBandwidth, MacVerificationError
from repro.packets.control import AsGrant
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.generator import build_two_isd_topology
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps

SRC = IsdAs.parse("1-ff00:0:65")
DST = IsdAs.parse("2-ff00:0:65")
FAR_TRANSFER = IsdAs.parse("2-ff00:0:1")
SRC_HOST, DST_HOST = HostAddr(1), HostAddr(2)
HANDLERS = ("handle_eer_setup", "handle_eer_renewal")

#: Clock starts: mid-epoch, and 2 s before an epoch boundary so that the
#: renewal (3 s after the setup) runs under the next epoch's keys.
STARTS = {"one_epoch": 1000.0, "across_epochs": 5 * DRKEY_VALIDITY - 2.0}


class HopLog:
    """Records every handler invocation on the path and counts the work
    each AS did, by shadowing public methods on the live instances."""

    def __init__(self, net, path):
        self.calls = []  # one dict per handler invocation, in hop order
        self.derivations = Counter()
        self.writes = Counter()  # (isd_as, "add_eer" | "touch") -> calls
        self.installed = []  # (res_info, hop_auths) per gateway.install
        for isd_as in path:
            stack = net.stack(isd_as)
            for method in HANDLERS:
                self._record(stack.cserv, method)
            self._count(stack.keys, "control_key", self.derivations, isd_as)
            for method in ("add_eer", "touch"):
                self._count(stack.cserv.store, method, self.writes, (isd_as, method))
        gateway = net.gateway(path[0])
        install = gateway.install

        def installing(res_id, path_field, eer_info, res_info, hop_auths):
            self.installed.append((res_info, hop_auths))
            return install(res_id, path_field, eer_info, res_info, hop_auths)

        gateway.install = installing

    def _record(self, cserv, method):
        original = getattr(cserv, method)

        def handler(request, auth, hop_index):
            call = {"at": cserv.isd_as, "request": request, "auth": auth,
                    "hop": hop_index, "now": cserv.clock.now(), "response": None}
            self.calls.append(call)
            call["response"] = original(request, auth, hop_index)
            return call["response"]

        setattr(cserv, method, handler)

    @staticmethod
    def _count(owner, method, counter, key):
        original = getattr(owner, method)

        def counted(*args, **kwargs):
            counter[key] += 1
            return original(*args, **kwargs)

        setattr(owner, method, counted)

    def take(self):
        """The invocations since the last take, with the counters."""
        taken = (list(self.calls), Counter(self.derivations), Counter(self.writes))
        for record in (self.calls, self.derivations, self.writes):
            record.clear()  # in place: the wrappers hold these objects
        return taken


@pytest.fixture(params=sorted(STARTS))
def deployment(request):
    net = ColibriNetwork(
        build_two_isd_topology(), clock=SimClock(start=STARTS[request.param])
    )
    path = net.path_lookup.paths(SRC, DST, limit=1)[0]
    for segment, bandwidth in zip(path.segments, (gbps(10), gbps(10), gbps(1))):
        net.cserv(segment.first_as).setup_segment(segment, bandwidth)
    assert len(path.ases) == 6
    return net, path.ases, HopLog(net, path.ases)


# ------------------------------------------------------------ reference ----


def own_key(net, isd_as, source, when):
    """``K_{AS_i->Src}`` from AS_i's own secret value (Eq. 1)."""
    return net.stack(isd_as).keys.deriver.as_key(source, when)


def check_request_macs(net, path, calls):
    """Every on-path AS can verify the source's MAC with its own key."""
    first = calls[0]
    auth, now = first["auth"], first["now"]
    base = first["request"].authenticated_bytes
    assert auth.base_payload == base
    assert set(auth.source_macs) == set(path) - {SRC}
    for isd_as, tag in auth.source_macs.items():
        assert tag == mac(own_key(net, isd_as, SRC, now), base)


def check_grants(net, path, calls, granted_by):
    """The grant MACs verify at the initiator; an altered grant does not."""
    first = calls[0]
    auth, response, now = first["auth"], first["response"], first["now"]
    grants = response.grants[:granted_by]
    assert [grant.isd_as for grant in grants] == list(path[:granted_by])
    auth.verify_grants(net.directory, grants, now)
    if granted_by > 1:
        victim = grants[1]
        forged = (grants[0], AsGrant(victim.isd_as, victim.granted / 2)) + grants[2:]
        with pytest.raises(MacVerificationError):
            auth.verify_grants(net.directory, forged, now)


def check_hop_auths(net, calls, installed, eer_info, hops):
    """Each HopAuth at the gateway is Eq. (4) under that AS's own K_i."""
    final_info, hop_auths = installed
    assert final_info == calls[0]["response"].res_info
    assert len(hop_auths) == len(hops)
    for hop, sigma in zip(hops, hop_auths):
        hop_key = net.stack(hop.isd_as).keys.hop_key(calls[0]["now"])
        assert sigma == hop_authenticator(
            hop_key, final_info, eer_info, hop.ingress, hop.egress
        )


def check_allocations(net):
    """``allocated_on_segment`` at every AS is the sum, over the EERs
    stored there, of the bandwidth their live versions hold."""
    now = net.clock.now()
    for isd_as in net.ases():
        store = net.cserv(isd_as).store
        for segment in store.segments():
            segment_id = segment.reservation_id
            expected = sum(
                eer.effective_bandwidth(now)
                for eer in store.eers()
                if segment_id in eer.segment_ids
            )
            assert store.allocated_on_segment(segment_id) == pytest.approx(expected)
    assert net.audit() == []


def check_work(path, calls, derivations, writes, write, committed):
    """One handler invocation and one key derivation per AS reached;
    one store write at each AS that committed, none elsewhere."""
    reached = path[: len(calls)]
    assert [call["at"] for call in calls] == list(reached)
    assert [call["hop"] for call in calls] == list(range(len(calls)))
    assert derivations == Counter(reached)
    expected = Counter({(isd_as, write): 1 for isd_as in path[:committed]})
    assert +writes == expected


# ------------------------------------------------------------ scenarios ----


def test_admitted_setup_then_renewal(deployment):
    net, path, log = deployment
    cserv = net.cserv(SRC)

    handle = cserv.setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    calls, derivations, writes = log.take()
    assert handle.granted == mbps(8)
    check_work(path, calls, derivations, writes, "add_eer", committed=6)
    check_request_macs(net, path, calls)
    check_grants(net, path, calls, granted_by=6)
    check_hop_auths(net, calls, log.installed[-1], handle.eer_info, handle.hops)
    check_allocations(net)

    net.advance(3.0)  # in "across_epochs", now past the DRKey boundary
    renewed = cserv.renew_eer(handle, mbps(12))
    calls, derivations, writes = log.take()
    assert renewed.granted == mbps(12) and renewed.res_info.version == 2
    check_work(path, calls, derivations, writes, "touch", committed=6)
    check_request_macs(net, path, calls)
    check_grants(net, path, calls, granted_by=6)
    check_hop_auths(net, calls, log.installed[-1], handle.eer_info, handle.hops)
    check_allocations(net)
    if net.clock.now() >= 5 * DRKEY_VALIDITY:
        setup_auths, renewal_auths = log.installed[-2][1], log.installed[-1][1]
        assert all(old != new for old, new in zip(setup_auths, renewal_auths))


def test_refusal_at_the_far_transfer_as(deployment):
    net, path, log = deployment
    net.cserv(SRC).setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    log.take()
    net.advance(3.0)

    with pytest.raises(InsufficientBandwidth) as refusal:
        net.cserv(SRC).setup_eer(DST, SRC_HOST, DST_HOST, gbps(2))
    calls, derivations, writes = log.take()
    assert refusal.value.at_as == FAR_TRANSFER == path[3]
    check_work(path, calls, derivations, writes, "add_eer", committed=0)
    check_request_macs(net, path, calls)
    # The three ASes before the refuser granted, and signed their grants.
    check_grants(net, path, calls, granted_by=3)
    assert calls[0]["response"].grants[3] == AsGrant(FAR_TRANSFER, refusal.value.granted)
    assert len(log.installed) == 1  # only the first, admitted EER
    check_allocations(net)  # the refused request left nothing behind


def test_refusal_at_the_source(deployment):
    net, path, log = deployment
    with pytest.raises(InsufficientBandwidth) as refusal:
        net.cserv(SRC).setup_eer(DST, SRC_HOST, DST_HOST, gbps(20))
    calls, derivations, writes = log.take()
    assert refusal.value.at_as == SRC
    check_work(path, calls, derivations, writes, "add_eer", committed=0)
    check_request_macs(net, path, calls)
    assert net.bus.calls_by_method["handle_eer_setup"] == 0  # nothing was sent
    assert log.installed == []
    check_allocations(net)


def test_a_forged_request_mac_is_refused_before_any_work(deployment):
    net, path, log = deployment
    target = net.cserv(path[1])
    original = target.handle_eer_setup

    def corrupting(request, auth, hop_index):
        tag = auth.source_macs[path[1]]
        auth.source_macs[path[1]] = bytes([tag[0] ^ 1]) + tag[1:]
        return original(request, auth, hop_index)

    target.handle_eer_setup = corrupting
    decisions = target.eer_admission.decisions
    with pytest.raises(MacVerificationError):
        net.cserv(SRC).setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    assert target.eer_admission.decisions == decisions
    assert target.store.eer_count() == 0


def test_segr_handlers_do_the_same_work_per_hop():
    """SegR setup and renewal go through the same hop as the EER
    workflows: per on-path AS one key derivation, one admission read and
    one store write (setup) or one store read (renewal: the new version
    is pending on the stored row)."""
    net = ColibriNetwork(build_two_isd_topology(), clock=SimClock(start=1000.0))
    segment = net.path_lookup.paths(SRC, DST, limit=1)[0].segments[0]
    on_path = list(segment.ases)
    assert len(on_path) == 3
    work = Counter()
    for isd_as in on_path:
        stack = net.stack(isd_as)
        HopLog._count(stack.keys, "control_key", work, (isd_as, "key"))
        HopLog._count(stack.cserv.seg_admission, "evaluate", work, (isd_as, "decide"))
        for method in ("add_segment", "get_segment"):
            HopLog._count(stack.cserv.store, method, work, (isd_as, method))

    segr = net.cserv(SRC).setup_segment(segment, gbps(1), register=False)
    expected = Counter()
    for isd_as in on_path:
        expected.update({(isd_as, "key"): 1, (isd_as, "decide"): 1,
                         (isd_as, "add_segment"): 1})
    expected[(SRC, "get_segment")] = 1  # the initiator returns its record
    assert work == expected

    work.clear()
    net.advance(3.0)
    assert net.cserv(SRC).renew_segment(segr.reservation_id, gbps(2)) == 2
    expected = Counter()
    for isd_as in on_path:
        expected.update({(isd_as, "key"): 1, (isd_as, "decide"): 1,
                         (isd_as, "get_segment"): 1})
    expected[(SRC, "get_segment")] += 1  # the initiator's own lookup
    assert work == expected
    assert net.audit() == []
