"""One control-plane hop against the paper's list (§4.5, Eq. 4-5).

Per on-path AS an EER request costs one key lookup, one MAC check, one
admission decision, one grant MAC, one store write and one sealed
HopAuth.  The lookup serves ``K_{AS_i->Src}`` from the AS's memo: a
DRKey derivation happens once per (source, epoch), and only a key whose
source MAC verified is kept.  The handlers in ``control/cserv.py`` are
the optimized path; this file is the tens-of-lines reference they are
checked against: every MAC, grant and HopAuth is recomputed from each
AS's *own* key material, per-SegR allocations are recomputed by brute
force from the stored EERs, and counting wrappers pin the per-hop work
to the list above.  Each scenario also runs with the renewal falling in
the DRKey epoch after the setup's, and again with every key memo
emptied before every hop, which must change no byte.
"""

import copy
from collections import Counter
from dataclasses import replace

import pytest

from repro.constants import DRKEY_VALIDITY
from repro.control.auth import AuthenticatedRequest
from repro.crypto.mac import mac
from repro.dataplane.hvf import hop_authenticator
from repro.errors import InsufficientBandwidth, MacVerificationError
from repro.packets.control import AsGrant, EerAbortNotice
from repro.sim.scenario import ColibriNetwork
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.generator import build_two_isd_topology
from repro.util.clock import SimClock
from repro.util.units import gbps, mbps
from tests import test_cserv_observability_cost as golden
from tests._work import work_of

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
        self.lookups = Counter()  # control_key calls: memo hits and misses
        self.writes = Counter()  # (isd_as, "add_eer" | "touch") -> calls
        self.installed = []  # (res_info, hop_auths) per gateway.install
        for isd_as in path:
            stack = net.stack(isd_as)
            for method in HANDLERS:
                self._record(stack.cserv, method)
            self._count(stack.keys, "control_key", self.lookups, isd_as)
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
        taken = (list(self.calls), Counter(self.lookups), Counter(self.writes))
        for record in (self.calls, self.lookups, self.writes):
            record.clear()  # in place: the wrappers hold these objects
        return taken


def deploy(start: float, prepare=None):
    """The 6-AS path with its three SegRs; ``prepare(net)`` runs first."""
    net = ColibriNetwork(build_two_isd_topology(), clock=SimClock(start=start))
    if prepare is not None:
        prepare(net)
    path = net.path_lookup.paths(SRC, DST, limit=1)[0]
    for segment, bandwidth in zip(path.segments, (gbps(10), gbps(10), gbps(1))):
        net.cserv(segment.first_as).setup_segment(segment, bandwidth)
    assert len(path.ases) == 6
    return net, path.ases, HopLog(net, path.ases)


@pytest.fixture(params=sorted(STARTS))
def deployment(request):
    return deploy(STARTS[request.param])


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
    keys = {isd_as: net.directory.fetch_key(isd_as, SRC, now) for isd_as in path}
    auth.verify_grants(keys, grants)
    if granted_by > 1:
        victim = grants[1]
        forged = (grants[0], AsGrant(victim.isd_as, victim.granted / 2)) + grants[2:]
        with pytest.raises(MacVerificationError):
            auth.verify_grants(keys, forged)


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


def check_work(path, calls, lookups, writes, write, committed):
    """One handler invocation and one key lookup per AS reached; one
    store write at each AS that committed, none elsewhere."""
    reached = path[: len(calls)]
    assert [call["at"] for call in calls] == list(reached)
    assert [call["hop"] for call in calls] == list(range(len(calls)))
    assert lookups == Counter(reached)
    expected = Counter({(isd_as, write): 1 for isd_as in path[:committed]})
    assert +writes == expected


# ------------------------------------------------------------ scenarios ----


def test_admitted_setup_then_renewal(deployment):
    net, path, log = deployment
    cserv = net.cserv(SRC)

    handle = cserv.setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    calls, lookups, writes = log.take()
    assert handle.granted == mbps(8)
    check_work(path, calls, lookups, writes, "add_eer", committed=6)
    check_request_macs(net, path, calls)
    check_grants(net, path, calls, granted_by=6)
    check_hop_auths(net, calls, log.installed[-1], handle.eer_info, handle.hops)
    check_allocations(net)

    net.advance(3.0)  # in "across_epochs", now past the DRKey boundary
    renewed = cserv.renew_eer(handle, mbps(12))
    calls, lookups, writes = log.take()
    assert renewed.granted == mbps(12) and renewed.res_info.version == 2
    check_work(path, calls, lookups, writes, "touch", committed=6)
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
    calls, lookups, writes = log.take()
    assert refusal.value.at_as == FAR_TRANSFER == path[3]
    check_work(path, calls, lookups, writes, "add_eer", committed=0)
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
    calls, lookups, writes = log.take()
    assert refusal.value.at_as == SRC
    check_work(path, calls, lookups, writes, "add_eer", committed=0)
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
    workflows: per on-path AS one key lookup, one admission read and
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


# ------------------------------------------------------- the key memo ----


def memo(net, isd_as) -> dict:
    """AS ``isd_as``'s control-key memo: DRKey epoch -> {source: key}."""
    return net.stack(isd_as).keys._control_keys


def count_derivations(net, path) -> Counter:
    """Counts the ``K_{AS_i->Src}`` derivations each AS on ``path`` makes
    for its own hops, i.e. its memo's misses: the AS's ColibriKeys gets a
    counting copy of the deriver, its key server keeps the original, so
    the initiator's key fetches are not counted."""
    derived = Counter()
    for isd_as in path:
        keys = net.stack(isd_as).keys
        keys.deriver = copy.copy(keys.deriver)
        HopLog._count(keys.deriver, "as_key", derived, isd_as)
    return derived


def empty_every_memo(net) -> None:
    net.directory._cache.clear()
    for isd_as in net.ases():
        memo(net, isd_as).clear()


def empty_before_every_hop(net) -> None:
    """Every SegR and EER handler empties every key memo, each AS's and
    the initiator's key-server cache, before it runs."""
    for isd_as in net.ases():
        cserv = net.cserv(isd_as)
        for method in HANDLERS + ("handle_seg_setup", "handle_seg_renewal"):
            original = getattr(cserv, method)

            def handler(request, auth, hop_index, original=original):
                empty_every_memo(net)
                return original(request, auth, hop_index)

            setattr(cserv, method, handler)


def test_one_derivation_per_as_and_epoch(deployment):
    net, path, log = deployment
    empty_every_memo(net)
    derived = count_derivations(net, path)
    cserv = net.cserv(SRC)

    handle = cserv.setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    assert derived == Counter(path)
    derived.clear()
    net.advance(0.5)
    cserv.setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    assert derived == Counter()
    net.advance(2.5)  # in "across_epochs", now past the DRKey boundary
    cserv.renew_eer(handle, mbps(12))
    crossed = net.clock.now() >= 5 * DRKEY_VALIDITY
    assert derived == (Counter(path) if crossed else Counter())
    _, lookups, _ = log.take()
    assert lookups == Counter({isd_as: 3 for isd_as in path})  # one per request
    epochs = [4, 5] if crossed else [int(net.clock.now() // DRKEY_VALIDITY)]
    for isd_as in path:
        assert sorted(memo(net, isd_as)) == epochs


def test_a_wrong_source_mac_leaves_the_memo_unchanged(deployment):
    """Warm or cold, a request or abort notice whose MAC for AS_i is
    wrong is refused and leaves AS_i's memo as it was: a key derived for
    it is checked and dropped."""
    net, path, log = deployment
    net.cserv(SRC).setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    calls, _, _ = log.take()
    target, request, auth = net.cserv(path[1]), calls[1]["request"], calls[1]["auth"]
    notice = EerAbortNotice(request.res_info.reservation, 1)
    abort_auth = AuthenticatedRequest.create(net.directory, SRC, [path[1]], notice)
    derived = count_derivations(net, path[1:2])
    forged = {path[1]: bytes(16)}
    for warm in (True, False):
        if not warm:
            empty_every_memo(net)
        before = {epoch: dict(keys) for epoch, keys in memo(net, path[1]).items()}
        with pytest.raises(MacVerificationError):
            target.handle_eer_setup(request, replace(auth, source_macs=forged), 1)
        with pytest.raises(MacVerificationError):
            target.handle_eer_abort(notice, replace(abort_auth, source_macs=forged))
        assert memo(net, path[1]) == before
    assert derived[path[1]] == 2  # the two cold refusals, none kept
    assert target.store.eer_count() == 1  # the abort was refused too


def test_the_memo_holds_two_epochs_at_most():
    """The control-key memo, the hop-key memo, the deriver's secrets and
    the key-server directory's cache each keep the newest two DRKey
    epochs; a key of an older epoch is derived again, and equal."""
    net = ColibriNetwork(build_two_isd_topology(), clock=SimClock(start=1000.0))
    keys = net.stack(SRC).keys
    memos = {
        "control keys": keys._control_keys,
        "hop keys": keys._hop_keys,
        "secrets": keys.deriver._secrets,
        "fetched keys": net.directory._cache,
    }

    def first_epoch():
        fetched = net.directory.fetch_key(DST, SRC, 1000.0)
        return (keys.control_key(DST, 1000.0).key, keys.hop_key(1000.0),
                keys.deriver.secret_for(1000.0), fetched.key)

    derived = first_epoch()
    first = int(1000.0 // DRKEY_VALIDITY)
    for step in range(4):
        when = 1000.0 + step * DRKEY_VALIDITY
        for remote in (DST, FAR_TRANSFER):
            keys.control_key(remote, when)
            net.directory.fetch_key(remote, SRC, when)
        keys.hop_key(when)
        expected = [first + step - 1, first + step] if step else [first]
        for name, memo in memos.items():
            assert sorted(memo) == expected, name
    # Keys of an older epoch are still served, derived again; the memos
    # keep the newest two.
    assert first_epoch() == derived
    for name, memo in memos.items():
        assert sorted(memo) == [first + 2, first + 3], name


def answers(start: float, prepare=None):
    """Everything a setup, a renewal and two refusals leave behind that
    the key memos could influence: per handler call its grants, grant
    MACs and source MACs; the opened HopAuths; every AS's allocations."""
    net, path, log = deploy(start, prepare)
    cserv = net.cserv(SRC)
    handle = cserv.setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))
    net.advance(3.0)
    cserv.renew_eer(handle, mbps(12))
    for refused in (gbps(2), gbps(20)):
        with pytest.raises(InsufficientBandwidth):
            cserv.setup_eer(DST, SRC_HOST, DST_HOST, refused)
    calls = [
        (call["at"], call["hop"], call["response"].grants,
         list(call["auth"].grant_macs), dict(call["auth"].source_macs))
        for call in log.calls
    ]
    stores = {}
    for isd_as in net.ases():
        store = net.cserv(isd_as).store
        stores[isd_as] = (store.eer_count(), {
            segment.reservation_id: store.allocated_on_segment(segment.reservation_id)
            for segment in store.segments()
        })
    return calls, log.installed, stores


@pytest.mark.parametrize("start", sorted(STARTS))
def test_emptying_every_memo_changes_no_byte(start):
    assert answers(STARTS[start], empty_before_every_hop) == answers(STARTS[start])


def test_emptying_every_memo_keeps_the_golden_journal():
    net = ColibriNetwork(build_two_isd_topology())
    net.enable_observability(seed=7, journal=True, perf=net.clock)
    empty_before_every_hop(net)
    net.reserve_segments(SRC, DST, gbps(1))
    golden.admitted_traffic(net)
    golden.refused_setup(net)
    golden.expire_and_sweep(net)
    assert golden.journaled(net) == golden.GOLDEN.read_text()


# ------------------------------------------------- work per request ----

def refused(cserv, bandwidth):
    def setup():
        with pytest.raises(InsufficientBandwidth):
            cserv.setup_eer(DST, SRC_HOST, DST_HOST, bandwidth)

    return setup


def test_work_per_request_on_a_warm_path():
    """Per request on the warmed 6-AS path, BLAKE2s digests sit at the
    §4.5 / Eq. 4-5 floor (docs/performance.md §15): an admitted setup or
    renewal 51 (5 source MACs and their 5 checks, 6 grant MACs and 5
    checks, 6 σ, 6 two-block seals and opens), a refusal at the far
    transfer AS 15, at the source 6.  The cold first setup also derives
    each AS's key for the source (69: the initiator fetched its own key
    during the SegR setups).  Python calls are ceilings, the counts of
    docs/performance.md §17 on either backend (the native gateway install
    makes 7 fewer)."""
    net, path, log = deploy(STARTS["one_epoch"])
    cserv = net.cserv(SRC)
    handle = None

    def setup():
        nonlocal handle
        handle = cserv.setup_eer(DST, SRC_HOST, DST_HOST, mbps(8))

    assert work_of(setup).digests == 69
    net.advance(0.5)
    measured = {"setup": work_of(setup)}
    net.advance(3.0)
    measured["renewal"] = work_of(lambda: cserv.renew_eer(handle, mbps(12)))
    net.advance(0.5)
    measured["far refusal"] = work_of(refused(cserv, gbps(2)))
    measured["near refusal"] = work_of(refused(cserv, gbps(20)))
    digests = {name: work.digests for name, work in measured.items()}
    assert digests == {"setup": 51, "renewal": 51, "far refusal": 15, "near refusal": 6}
    ceilings = {"setup": 656, "renewal": 647, "far refusal": 338, "near refusal": 175}
    for name, work in measured.items():
        assert work.python <= ceilings[name], (name, work)
