"""The Colibri service (CServ) — one per AS (§3.2, §3.3, §4.4).

The CServ handles every control-plane task of its AS:

* initiating SegR setups, renewals and activations for the AS's expected
  traffic, and serving as on-path grantor for other ASes' requests;
* initiating EER setups and renewals on behalf of local end hosts, and
  deciding EER admission in its on-path roles (§4.7);
* registering and disseminating SegRs with hierarchical caching
  (Appendix C);
* defending itself: DRKey authentication of every request, per-source-AS
  rate limiting, per-EER renewal limiting, and the punitive denial of
  reservations from ASes caught overusing (§4.8, §5.3).

Requests travel hop by hop: the initiator processes itself as AS0, then
each AS forwards over the :class:`~repro.control.rpc.MessageBus` to the
next; responses unwind along the reverse path, exactly the ➋/➌/➍
choreography of Fig. 1.  That choreography is written once:
:meth:`ColibriService._initiate` is the client side and
:meth:`ColibriService._hop` one on-path AS's part of every setup and
renewal, SegR or EER; a :class:`_Flow` names what a workflow adds — where
the path comes from, how the AS decides, what it commits and which
credential it mints.  :meth:`ColibriService._walk` is the same for the
two downstream-first walks (activation, teardown).  The public
``setup_*`` / ``renew_*`` / ``handle_*`` methods are thin named entry
points: the bus dispatches on them, and every hop — hop 0 included —
looks them up on the instance.

Fault tolerance (§3.3, docs/robustness.md): every forwarded call goes
through a :class:`~repro.control.retry.RetryingCaller` (capped
exponential backoff, per-method latency budgets, per-destination circuit
breaker).  Handlers are retry-safe: the reservation record is the
replay record — an AS packs what it answered onto the version it
committed, so a retry after a *lost response* is answered from the store
instead of double-admitting bandwidth, while that version is the
reservation's newest; the two walks are idempotent by state.
When retries are exhausted the transport error propagates back to the
initiator, which aborts the whole path — explicitly releasing whatever
the hops beyond the loss point already committed — before re-raising; a
response whose grant MACs do not verify is aborted the same way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.admission.eer_admission import AsRole, EerAdmission
from repro.admission.policy import AdmissionPolicy
from repro.admission.traffic_matrix import TrafficMatrix
from repro.admission.tube_fairness import SegmentAdmission, SegmentGrant
from repro.constants import (
    EER_LIFETIME,
    EER_RENEWAL_MIN_INTERVAL,
    SEGR_LIFETIME,
)
from repro.control.auth import AuthenticatedRequest, PathKeys
from repro.control.dissemination import (
    RemoteQueryClient,
    SegmentDescriptor,
    SegmentRegistry,
)
from repro.control.rate_limit import RateLimiter
from repro.control.retry import PolicyTable, RetryingCaller
from repro.control.rpc import MessageBus
from repro.crypto.aead import aead_open, aead_seal
from repro.crypto.keyserver import KeyServerDirectory
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import ColibriKeys, hop_authenticator, segment_token
from repro.errors import (
    AdmissionDenied,
    AeadError,
    ColibriError,
    InsufficientBandwidth,
    MacVerificationError,
    NoPathError,
    PolicyDenied,
    ReservationExpired,
    ReservationNotFound,
    TopologyError,
    TransportError,
    VersionError,
)
from repro.obs.events import (
    ADMISSION_DECIDED,
    RESERVATION_RENEWED,
    RESERVATION_TORN_DOWN,
    STORE_SWEPT,
    emit,
)
from repro.obs.trace import traced
from repro.packets.control import (
    SEGMENT_TYPE_CODES,
    AsGrant,
    EerAbortNotice,
    EerRenewalRequest,
    EerSetupRequest,
    EerSetupResponse,
    SegAbortNotice,
    SegActivationRequest,
    SegRenewalRequest,
    SegSetupRequest,
    SegSetupResponse,
    SegTeardownNotice,
)
from repro.packets.fields import EerInfo, PathField, ResInfo
from repro.reservation.e2e import E2EReservation, E2EVersion
from repro.reservation.ids import ReservationId
from repro.reservation.segment import SegmentReservation, SegmentVersion
from repro.reservation.store import ReservationStore
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.graph import ASNode, Topology
from repro.topology.paths import combine_segments
from repro.topology.segments import Segment, SegmentType
from repro.util.clock import Clock
from repro.util.sequence import SequenceAllocator

#: Default per-source-AS request rate at the CServ (§5.3).
DEFAULT_REQUEST_RATE = 1000.0

#: Chains whose combined path :meth:`ColibriService._combine_chain` keeps.
_CHAIN_MEMO_SIZE = 256

#: An EER setup that fails over a stale cached chain is re-run once
#: against fresh descriptors (Appendix C).
_EER_SETUP_ATTEMPTS = 2

_SEGMENT_TYPE_TO_CODE = {
    SegmentType.UP: SEGMENT_TYPE_CODES["up"],
    SegmentType.DOWN: SEGMENT_TYPE_CODES["down"],
    SegmentType.CORE: SEGMENT_TYPE_CODES["core"],
}
_CODE_TO_SEGMENT_TYPE = {code: st for st, code in _SEGMENT_TYPE_TO_CODE.items()}


def _refused(what: str, grants: tuple) -> InsufficientBandwidth:
    """The denial an initiator raises for a failed request: it names the
    AS with the smallest grant so the caller can locate the bottleneck
    (§3.3)."""
    bottleneck = min(grants, key=lambda g: g.granted, default=None)
    if bottleneck is None:
        return InsufficientBandwidth(f"{what} failed; bottleneck unknown")
    return InsufficientBandwidth(
        f"{what} failed; bottleneck at {bottleneck.isd_as} "
        f"granting {bottleneck.granted:.0f} bps",
        granted=bottleneck.granted,
        at_as=bottleneck.isd_as,
    )


@dataclass
class EerHandle:
    """What the initiating CServ returns to the end host after EER setup."""

    reservation_id: ReservationId
    res_info: ResInfo
    eer_info: EerInfo
    hops: tuple
    segment_ids: tuple
    granted: float


def _initiator(self, *args, **kwargs) -> dict:
    """Span attributes of the initiator-side admission workflows."""
    return {"initiator": str(self.isd_as)}


def _on_path(self, request, auth, hop_index) -> dict:
    """Span attributes of one on-path AS's admission handler."""
    return {
        "isd_as": str(self.isd_as),
        "hop": hop_index,
        "reservation": str(_asked(request).reservation),
    }


def _asked(request) -> ResInfo:
    """The ResInfo a request asks for (Eq. 2c): a setup carries it; a
    renewal rides its reservation (§4.4), so it only names the new
    bandwidth, expiry and version."""
    if hasattr(request, "res_info"):
        return request.res_info
    return ResInfo(
        request.reservation,
        request.new_bandwidth,
        request.new_expiry,
        request.new_version,
    )


def _nothing_charged(cserv, state, wanted) -> None:
    """Most decisions are pure reads: a request that will not commit
    leaves nothing to give back."""


class _Flow(NamedTuple):
    """What one admission workflow adds to :meth:`ColibriService._hop`
    and :meth:`ColibriService._initiate`; everything else is shared.
    The four are assembled at the end of :class:`ColibriService`."""

    method: str  # the bus entry point
    kind: str  # of the journaled ADMISSION_DECIDED
    what: str  # names the workflow in a refusal
    response: type  # (res_info, success, granted, credentials, grants)
    credentials: str  # the response field holding them, one per AS
    find: str  # the store's lookup of the reservation, or None
    #: ``(cserv, request) -> (subject, hops)``: the path, and what later
    #: steps read the reservation from — the request itself for a setup,
    #: the stored reservation for a renewal (raises ReservationNotFound).
    resolve: Callable
    #: ``(cserv, subject, wanted, hop, hop_index, last_index, now) ->
    #: (offered, state)``; ``state`` is handed to commit/release, and
    #: ``None`` refuses.  May raise a denial or ReservationNotFound/Expired.
    decide: Callable
    commit: Callable  # (cserv, subject, state, response, now) -> the version stored
    mint: Callable  # (cserv, key, subject, hop, response, now) -> this AS's credential
    abort: Callable  # (cserv, res_id, version, hops): path-wide release
    release: Callable = _nothing_charged  # (cserv, state, wanted)


class ColibriService:
    """The per-AS Colibri control-plane service."""

    def __init__(
        self,
        node: ASNode,
        clock: Clock,
        keys: ColibriKeys,
        directory: KeyServerDirectory,
        bus: MessageBus,
        topology: Optional[Topology] = None,
        gateway: Optional[ColibriGateway] = None,
        source_policy: Optional[AdmissionPolicy] = None,
        destination_policy: Optional[AdmissionPolicy] = None,
        host_acceptor: Optional[Callable] = None,
        request_rate: float = DEFAULT_REQUEST_RATE,
        retry_policies: Optional[PolicyTable] = None,
        retry_sleeper: Optional[Callable[[float], None]] = None,
    ):
        self.node = node
        self.isd_as = node.isd_as
        self.clock = clock
        self.keys = keys
        self.directory = directory
        self.bus = bus
        self.topology = topology
        self.gateway = gateway
        #: Client-side fault tolerance: retries with backoff, latency
        #: budgets, and per-destination circuit breaking (§3.3, §4.2).
        self.caller = RetryingCaller(
            bus,
            clock,
            self.isd_as,
            policies=retry_policies,
            sleeper=retry_sleeper,
        )
        self.replays = 0  # retries answered from a stored version's record

        #: One store per AS: sweep and accounting costs are bounded by
        #: the *affected* reservations (expiry wheel, incremental sums),
        #: never the population.
        self.store = ReservationStore()
        self.matrix = TrafficMatrix(node)
        self.seg_admission = SegmentAdmission(self.matrix)
        self.eer_admission = EerAdmission(
            self.isd_as, self.store, source_policy, destination_policy
        )
        self.registry = SegmentRegistry()
        self.remote_client = RemoteQueryClient(
            self.caller, self.registry, clock, self.isd_as
        )
        self._ids = SequenceAllocator()
        self._segment_tokens: dict[ReservationId, tuple] = {}
        self._chain_paths: dict = {}  # see _combine_chain
        self.request_limiter = RateLimiter(request_rate)
        self.renewal_limiter = RateLimiter(1.0 / EER_RENEWAL_MIN_INTERVAL)
        #: ASes caught overusing: future reservations are denied (§4.8).
        self.denied_sources: set = set()
        #: Destination-host acceptance of incoming EERs (§4.4): called with
        #: (EerInfo, bandwidth), returns True to accept.
        self.host_acceptor = host_acceptor or (lambda eer_info, bandwidth: True)
        self.offenses_reported = 0
        self.aborts = {"segments": 0, "eers": 0, "undeliverable": 0}
        #: Optional :class:`repro.obs.ObsContext`.  When attached (see
        #: :meth:`~repro.sim.scenario.ColibriNetwork.enable_observability`)
        #: initiator workflows and on-path admission handlers record
        #: spans, and initiator latencies feed the
        #: ``admission_latency_seconds`` histogram.
        self.obs = None

        bus.register(self.isd_as, self)

    # ------------------------------------------------------------------ utils --

    def _journal(self, event_type: str, reservation, **attrs) -> None:
        """Journal an event about ``reservation`` at this AS.  Nothing
        is formatted unless observability is attached."""
        obs = self.obs
        if obs is not None:
            emit(
                obs,
                event_type,
                isd_as=str(self.isd_as),
                reservation=str(reservation),
                **attrs,
            )

    def _hop_of(self, hops: tuple, hop_index: int):
        hop = hops[hop_index]
        if hop.isd_as != self.isd_as:
            raise ColibriError(
                f"request routed to AS {self.isd_as} but hop {hop_index} "
                f"names {hop.isd_as}"
            )
        return hop

    def _admission_gate(self, source: IsdAs, now: float) -> None:
        """The §5.3 front door: denied sources and per-AS rate limiting."""
        if source in self.denied_sources:
            raise AdmissionDenied(
                f"AS {source} is denied reservations at {self.isd_as} "
                "due to confirmed overuse",
                at_as=self.isd_as,
            )
        self.request_limiter.check(source, now)

    def _owner_only(self, request, auth: AuthenticatedRequest) -> None:
        """Only the initiator may activate, retire or abort its own
        reservation: the MAC was checked under ``auth.source``'s key, so
        that must be the AS the reservation id names."""
        if request.reservation.src_as != auth.source:
            raise AdmissionDenied(
                f"{type(request).__name__} for {request.reservation} "
                "not requested by its owner"
            )

    # ================================ one hop, one initiator (§3.3, Fig. 1) ==

    def _hop(self, flow: _Flow, request, auth: AuthenticatedRequest, hop_index: int):
        """One on-path AS's part in a setup or renewal, SegR or EER: the
        request's way forward (➋/➌ of Fig. 1) and, inside the forwarding
        call, the response's way back.  Grants are evaluated on the
        forward pass and committed on the unwind, so a failed request
        leaves nothing behind (§3.3)."""
        now = self.clock.now()
        wanted = _asked(request)
        # EER requests name no floor (§4.4): any positive grant succeeds.
        minimum = getattr(request, "min_bandwidth", 0.0)
        res_id = wanted.reservation
        source = res_id.src_as
        # 1. Gate the source: denied ASes, per-AS request rate (§5.3).
        if hop_index > 0:
            self._admission_gate(source, now)
        # 2. Derive K_{AS_i->Src} once: "the same key is used to
        #    authenticate the information AS_i itself adds" (§4.5) — the
        #    MAC check, the grant MAC and the Eq. (5) seal below.
        key = self.keys.control_key(source, now)
        # 3. Verify the source's MAC.  Nothing is read, journaled or
        #    answered before this point.
        if hop_index > 0:
            auth._verify_under(key, self.isd_as)
        # 4. Retry safety: if this request already succeeded here (its
        #    response was lost upstream), replay the answer the stored
        #    version remembers instead of admitting the bandwidth twice,
        #    and without bothering the ASes downstream again (§3.3).
        replayed = self._replay(flow, wanted, hop_index)
        if replayed is not None:
            return replayed
        # 5. Resolve the path, this hop and the reservation (from the
        #    request for a setup, the store for a renewal) and 6. decide
        #    what this AS offers (§4.7).  An unknown or expired
        #    reservation is an offer of nothing, a denial an offer of
        #    what the AS could have granted: either way the initiator
        #    gets a signed grant to locate the bottleneck by.
        state = None
        try:
            subject, hops = flow.resolve(self, request)
            hop = self._hop_of(hops, hop_index)
            last_index = len(hops) - 1
            offered, state = flow.decide(
                self, subject, wanted, hop, hop_index, last_index, now
            )
        except (InsufficientBandwidth, PolicyDenied) as denial:
            offered = denial.granted
        except (ReservationNotFound, ReservationExpired):
            offered = 0.0
        admitted = state is not None and offered >= minimum and offered > 0
        self._journal(
            ADMISSION_DECIDED,
            res_id,
            kind=flow.kind,
            hop=hop_index,
            granted=offered,
            admitted=admitted,
        )
        # 7. Append the grant and authenticate it (§4.5).
        grant = AsGrant(self.isd_as, offered)
        grants = request.grants + (grant,)
        auth._grant_under(key, grant)
        # 8. Refuse here (this AS is the bottleneck: do not bother the
        #    ASes downstream), close the request at the last hop with
        #    the minimum grant, or forward it.
        if not admitted:
            response = flow.response(wanted, False, 0.0, (), grants)
        elif hop_index == last_index:
            final = min(g.granted for g in grants)
            info = wanted  # admitted in full: exactly what was asked for
            if final != wanted.bandwidth:
                info = ResInfo(res_id, final, wanted.expiry, wanted.version)
            success = final >= minimum and final > 0
            response = flow.response(info, success, final, (), grants)
        else:
            forwarded = request.with_grant(grant)
            next_as = hops[hop_index + 1].isd_as
            try:
                response = self.caller.call(
                    next_as, flow.method, forwarded, auth, hop_index + 1
                )
            except ColibriError:
                # Nothing committed here yet, but the decision may have
                # charged policy budget or transfer demand — return it
                # before the error (retries exhausted, or a downstream
                # AS's own gate or MAC check) climbs back (§3.3).
                flow.release(self, state, wanted)
                raise
        if not response.success:
            flow.release(self, state, wanted)
            return response
        # 9. The unwind: commit in one store transaction, mint this AS's
        #    credential (Eq. 3 token or Eq. 5 sealed HopAuth) and leave
        #    the answer on the committed version, packed: the path's
        #    grant values, then the credentials from this AS down.  No
        #    call is ever retried towards hop 0: the initiator keeps none.
        with self.store.transaction():
            version = flow.commit(self, subject, state, response, now)
        credential = flow.mint(self, key, subject, hop, response, now)
        credentials = (credential,) + getattr(response, flow.credentials)
        if hop_index > 0:
            values = [grant.granted for grant in response.grants]
            packed = struct.pack(f"!{len(values)}d", *values)
            version.replay = packed + b"".join(credentials)
        return flow.response(
            response.res_info, True, response.granted, credentials, response.grants
        )

    def _replay(self, flow: _Flow, wanted: ResInfo, hop_index: int):
        """The answer this AS gave when it committed ``wanted``, rebuilt
        from the stored version (step 9 of :meth:`_hop`), or ``None``:
        only a reservation's newest version keeps a record, and an
        abort, ``prune`` or the sweep takes it along with the version."""
        reservation = getattr(self.store, flow.find)(wanted.reservation)
        if reservation is None:
            return None
        version = reservation.latest_version()
        record, hops = version.replay, reservation.hops
        if record is None or version.version != wanted.version:
            return None
        self._hop_of(hops, hop_index)
        self.replays += 1
        granted, head = version.bandwidth, 8 * len(hops)
        values = struct.unpack_from(f"!{len(hops)}d", record)
        size = (len(record) - head) // (len(hops) - hop_index)
        return flow.response(
            ResInfo(wanted.reservation, granted, version.expiry, version.version),
            True,
            granted,
            tuple(record[at : at + size] for at in range(head, len(record), size)),
            tuple(AsGrant(hop.isd_as, value) for hop, value in zip(hops, values)),
        )

    def _initiate(self, flow: _Flow, request, hops: tuple, now: float):
        """The initiator's side of a setup or renewal, the same for
        SegRs and EERs: MAC the request for every on-path AS (§4.5),
        process it here as AS 0, and trust neither outcome before every
        grant MAC verifies — a transit AS rewriting another AS's grant
        must neither frame it as the bottleneck nor shrink a reservation
        unnoticed.  When the response is lost for good or carries a
        forged grant, hops beyond the fault may have committed: abort
        path-wide before giving up (§3.3).

        Returns the successful response and the on-path keys (the EER
        workflows open the HopAuths with them); raises
        :class:`InsufficientBandwidth` naming the bottleneck otherwise.
        """
        on_path = [hop.isd_as for hop in hops]
        keys = PathKeys(self.directory)
        auth = AuthenticatedRequest.create(keys, self.isd_as, on_path, request, now)
        try:
            response = getattr(self, flow.method)(request, auth, 0)
            auth.verify_grants(keys, response.grants, now)
        except (TransportError, MacVerificationError):
            wanted = _asked(request)
            flow.abort(self, wanted.reservation, wanted.version, hops)
            raise
        if not response.success:
            raise _refused(flow.what, response.grants)
        return response, keys

    def _walk(self, method: str, request, auth, hop_index: int, idle_only=False):
        """One AS's part in a downstream-first walk along an own SegR
        (activation, teardown): gate → verify → owner → store, then the
        ASes downstream.  Returns the stored SegR for the caller to act
        on once every AS downstream has — so if any AS refuses, every AS
        upstream of it keeps what it had — or, with ``idle_only``,
        ``None`` where EERs ride the SegR: the walk stops, the SegR stays.
        """
        now = self.clock.now()
        res_id = request.reservation
        if hop_index > 0:
            self._admission_gate(res_id.src_as, now)
            auth.verify_at(self.keys, now)
        self._owner_only(request, auth)
        reservation = self.store.get_segment(res_id)
        hops = reservation.segment.hops
        self._hop_of(hops, hop_index)
        if idle_only and self.store.allocated_on_segment(res_id) > 0:
            return None
        if hop_index < len(hops) - 1:
            self.caller.call(
                hops[hop_index + 1].isd_as, method, request, auth, hop_index + 1
            )
        return reservation

    def _start_walk(self, method: str, request, reservation: SegmentReservation):
        """Authenticate a walk for the SegR's on-path ASes; walk as AS 0."""
        on_path = list(reservation.segment.ases)
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, on_path, request, self.clock.now()
        )
        return getattr(self, method)(request, auth, 0)

    # ================================================================== SegRs ==

    @traced("seg.setup", attrs=_initiator, latency="admission_latency_seconds")
    def setup_segment(
        self,
        segment: Segment,
        bandwidth: float,
        minimum: float = 0.0,
        register: bool = True,
        whitelist: Optional[set] = None,
    ) -> SegmentReservation:
        """Initiate a SegR over ``segment`` (Fig. 1a).

        Returns the stored reservation on success; raises
        :class:`AdmissionDenied` carrying the bottleneck grants otherwise.
        """
        if segment.first_as != self.isd_as:
            raise ColibriError(
                f"AS {self.isd_as} can only initiate SegRs starting at itself, "
                f"segment starts at {segment.first_as}"
            )
        now = self.clock.now()
        res_id = ReservationId(self.isd_as, self._ids.allocate())
        request = SegSetupRequest(
            res_info=ResInfo(res_id, bandwidth, now + SEGR_LIFETIME, 1),
            hops=segment.hops,
            min_bandwidth=minimum,
            segment_type=_SEGMENT_TYPE_TO_CODE[segment.segment_type],
        )
        response, _ = self._initiate(self._SEG_SETUP, request, segment.hops, now)
        self._segment_tokens[res_id] = response.tokens
        reservation = self.store.get_segment(res_id)
        if register:
            self.registry.register(SegmentDescriptor.of(reservation), whitelist)
        return reservation

    @traced("admission.seg_setup", attrs=_on_path)
    def handle_seg_setup(
        self, request: SegSetupRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> SegSetupResponse:
        """On-path processing of a SegReq (➋ of Fig. 1a) and its response."""
        return self._hop(self._SEG_SETUP, request, auth, hop_index)

    def _resolve_setup(self, request):
        return request, request.hops

    def _decide_segment(self, subject, wanted, hop, hop_index, last_index, now):
        """N-Tube evaluation (§4.7), for setups and renewals alike: the
        evaluator excludes the SegR's own current demand, so a renewal
        competes fairly ("on-path ASes can also re-negotiate the
        bandwidth granted", §4.4)."""
        res_id = wanted.reservation
        try:
            grant = self.seg_admission.evaluate(
                res_id, res_id.src_as, hop.ingress, hop.egress, wanted.bandwidth
            )
        except TopologyError:  # the request names an interface we lack
            return 0.0, None
        return grant.granted, grant

    def _commit_seg_setup(self, request, grant: SegmentGrant, response, now):
        info = response.res_info
        self.seg_admission.commit(
            SegmentGrant(grant.reservation_id, grant.demand, response.granted)
        )
        segment_type = _CODE_TO_SEGMENT_TYPE[request.segment_type]
        version = SegmentVersion(info.version, response.granted, info.expiry)
        self.store.add_segment(
            SegmentReservation(
                reservation_id=info.reservation,
                segment=Segment.from_hops(segment_type, request.hops),
                first_version=version,
            )
        )
        return version

    def _mint_token(self, key, subject, hop, response, now):
        """This AS's Eq. (3) token."""
        return segment_token(
            self.keys.hop_key(now), response.res_info, hop.ingress, hop.egress
        )

    # -- renewal, activation, teardown (§4.2, §4.4) ----------------------------------

    @traced("seg.renewal", attrs=_initiator, latency="admission_latency_seconds")
    def renew_segment(
        self,
        reservation_id: ReservationId,
        new_bandwidth: float,
        minimum: float = 0.0,
    ) -> int:
        """Request a new (pending) version of an own SegR over the SegR
        itself; returns the pending version number."""
        now = self.clock.now()
        reservation = self.store.get_segment(reservation_id)
        request = SegRenewalRequest(
            reservation=reservation_id,
            new_bandwidth=new_bandwidth,
            min_bandwidth=minimum,
            new_expiry=now + SEGR_LIFETIME,
            new_version=reservation.next_version_number(),
        )
        hops = reservation.segment.hops
        response, _ = self._initiate(self._SEG_RENEWAL, request, hops, now)
        self._segment_tokens[reservation_id] = response.tokens
        self._journal(
            RESERVATION_RENEWED,
            reservation_id,
            kind="segment",
            version=request.new_version,
            granted=response.granted,
        )
        return request.new_version

    @traced("admission.seg_renewal", attrs=_on_path)
    def handle_seg_renewal(
        self, request: SegRenewalRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> SegSetupResponse:
        return self._hop(self._SEG_RENEWAL, request, auth, hop_index)

    def _resolve_seg_renewal(self, request: SegRenewalRequest):
        reservation = self.store.get_segment(request.reservation)
        return reservation, reservation.hops

    def _commit_seg_renewal(self, reservation, grant, response, now):
        """The new version stays pending — admission state included —
        until the initiator activates it (§4.2)."""
        info = response.res_info
        version = SegmentVersion(info.version, response.granted, info.expiry)
        reservation.add_pending(version)
        return version

    def activate_segment(self, reservation_id: ReservationId, version: int) -> None:
        """Explicitly switch an own SegR to a pending version everywhere."""
        reservation = self.store.get_segment(reservation_id)
        request = SegActivationRequest(reservation=reservation_id, version=version)
        self._start_walk("handle_seg_activation", request, reservation)
        try:
            self.registry.update(SegmentDescriptor.of(reservation))
        except KeyError:
            pass  # unregistered (private) SegRs have nothing to refresh

    def handle_seg_activation(
        self, request: SegActivationRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> bool:
        """Downstream first: if any AS refuses (e.g. the version expired
        under clock skew), upstream ASes keep the old version."""
        reservation = self._walk("handle_seg_activation", request, auth, hop_index)
        res_id = request.reservation
        if reservation.active.version == request.version:
            # Idempotent by state: a retried or re-issued activation
            # finds the switch already made here and touches nothing.
            return True
        now = self.clock.now()
        new = reservation.activate(request.version, now)
        reservation.prune(now)
        # Activation replaced the expiry-defining version: re-index.
        self.store.touch(res_id)
        # Committed admission state must track the active version's size.
        if res_id in self.seg_admission.index:
            hop = reservation.segment.hop_of(self.isd_as)
            grant = self.seg_admission.evaluate(
                res_id, res_id.src_as, hop.ingress, hop.egress, new.bandwidth
            )
            self.seg_admission.commit(
                SegmentGrant(res_id, grant.demand, new.bandwidth)
            )
        return True

    def teardown_segment(self, reservation_id: ReservationId) -> None:
        """Advisory early removal of an own SegR (extension; the paper
        lets SegRs expire naturally, §4.2).  Frees bandwidth along the
        whole segment immediately — useful when an AS retires a segment
        after re-homing its traffic.  Refused while EERs still ride the
        SegR (they hold granted bandwidth until they expire)."""
        reservation = self.store.get_segment(reservation_id)
        if self.store.allocated_on_segment(reservation_id) > 0:
            raise ColibriError(
                f"SegR {reservation_id} still carries admitted EER bandwidth; "
                "let them expire first"
            )
        request = SegTeardownNotice(reservation=reservation_id)
        self._start_walk("handle_seg_teardown", request, reservation)

    def handle_seg_teardown(
        self, request: SegTeardownNotice, auth: AuthenticatedRequest, hop_index: int
    ) -> bool:
        """False where the SegR stays (EERs still riding: keep it until
        they expire) or is already gone (a retried teardown)."""
        try:
            reservation = self._walk(
                "handle_seg_teardown", request, auth, hop_index, idle_only=True
            )
        except ReservationNotFound:
            return False
        if reservation is None:
            return False
        self.store.remove_segment(request.reservation)
        self._forget_segment(request.reservation)
        self._journal(
            RESERVATION_TORN_DOWN,
            request.reservation,
            kind="segment",
            reason="teardown",
        )
        return True

    def _forget_segment(self, res_id: ReservationId) -> None:
        """Drop what this AS holds for a SegR beside its store row —
        admission entry, transfer-quota rows, registry row, Eq. (3)
        tokens — wherever the SegR ends: teardown, abort, expiry."""
        self.seg_admission.release(res_id)
        self.eer_admission.distributor.forget_segment(res_id)
        self.registry.unregister(res_id)
        self._segment_tokens.pop(res_id, None)

    # ================================================================== EERs ==

    @traced("eer.setup", attrs=_initiator, latency="admission_latency_seconds")
    def setup_eer(
        self,
        destination: IsdAs,
        src_host: HostAddr,
        dst_host: HostAddr,
        bandwidth: float,
    ) -> EerHandle:
        """Initiate an EER for a local host (Fig. 1b).

        Finds a SegR chain to ``destination`` (Appendix C), runs the
        hop-by-hop admission, decrypts the returned HopAuths
        (Eq. 5) and installs the reservation in the local gateway.

        When the failure looks like stale cached remote SegRs (Appendix
        C: "the remote CServ can indicate expiry of the SegR during
        setup of the EER, allowing the end host to retry"), the cache is
        invalidated and the chain search re-run, once.
        """
        eer_info = EerInfo(src_host=src_host, dst_host=dst_host)
        for attempts_left in reversed(range(_EER_SETUP_ATTEMPTS)):
            now = self.clock.now()
            descriptors, path = self.find_segment_chain(destination)
            res_id = ReservationId(self.isd_as, self._ids.allocate())
            request = EerSetupRequest(
                res_info=ResInfo(res_id, bandwidth, now + EER_LIFETIME, 1),
                eer_info=eer_info,
                hops=path.hops,
                segment_ids=tuple(d.reservation_id for d in descriptors),
            )
            try:
                response, keys = self._initiate(
                    self._EER_SETUP, request, path.hops, now
                )
            except (TransportError, InsufficientBandwidth) as failure:
                # A stale cached SegR is one failure cause (Appendix C):
                # invalidate the cache so a retry — the one below or the
                # caller's — refetches fresh descriptors.
                self.remote_client.invalidate(descriptors)
                stale = isinstance(failure, InsufficientBandwidth) and any(
                    d.is_expired(now) for d in descriptors
                )
                if not (stale and attempts_left):
                    raise
            else:
                return self._install_eer(
                    response, keys, eer_info, path.hops, request.segment_ids, now
                )

    def _install_eer(self, response, keys, eer_info, hops, segment_ids, now):
        """Open the HopAuths of a successful EER response, install the
        version at the local gateway and hand the host its handle."""
        info = response.res_info
        hop_auths = self._open_hopauths(keys, hops, response.sealed_hopauths, now)
        if self.gateway is not None:
            self.gateway.install(
                info.reservation,
                PathField.from_hops(hops),
                eer_info,
                info,
                tuple(hop_auths),
            )
        return EerHandle(
            reservation_id=info.reservation,
            res_info=info,
            eer_info=eer_info,
            hops=hops,
            segment_ids=segment_ids,
            granted=response.granted,
        )

    def _open_hopauths(
        self, keys: PathKeys, hops: tuple, sealed_hopauths: tuple, now: float
    ) -> list:
        """Decrypt the Eq. (5) HopAuth blobs, attributing any corruption.

        A malicious transit AS could corrupt another AS's sealed blob on
        the response path.  The AEAD tag detects it; we convert the raw
        crypto error into a typed failure naming the affected hop so the
        initiator knows where the response was tampered with.  The
        already-committed allocations along the path simply expire with
        the EER lifetime (16 s) — bounded, unusable state for the
        attacker, since without the HopAuths nobody can stamp packets.
        """
        if len(sealed_hopauths) != len(hops):
            raise AdmissionDenied(
                f"response carries {len(sealed_hopauths)} HopAuths for "
                f"{len(hops)} hops — tampered on the return path"
            )
        hop_auths = []
        for hop, sealed in zip(hops, sealed_hopauths):
            key = keys.fetch_key(hop.isd_as, self.isd_as, now)
            try:
                hop_auths.append(aead_open(key, sealed))
            except AeadError as error:
                raise AdmissionDenied(
                    f"HopAuth from {hop.isd_as} failed authenticated "
                    f"decryption — response tampered in transit",
                    at_as=hop.isd_as,
                ) from error
        return hop_auths

    def _role_and_segments(self, request_segment_ids: tuple, hop_index: int, last_index: int):
        """Determine this AS's role (§4.1) and the SegRs it must check."""
        if hop_index == 0:
            return AsRole.SOURCE, None, request_segment_ids[0]
        if hop_index == last_index:
            return AsRole.DESTINATION, request_segment_ids[-1], None
        # Only transit and transfer ASes need to look: which of the
        # named SegRs end, start or pass here?
        has_segment = self.store.has_segment
        present = [sid for sid in request_segment_ids if has_segment(sid)]
        if len(present) >= 2:
            for first, second in zip(request_segment_ids, request_segment_ids[1:]):
                if first in present and second in present:
                    return AsRole.TRANSFER, first, second
        if len(present) == 1:
            return AsRole.TRANSIT, present[0], None
        raise ReservationNotFound(
            f"AS {self.isd_as} stores none of the SegRs "
            f"{[str(s) for s in request_segment_ids]} named by the EEReq"
        )

    @traced("admission.eer_setup", attrs=_on_path)
    def handle_eer_setup(
        self, request: EerSetupRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> EerSetupResponse:
        """On-path processing of an EEReq (➌ of Fig. 1b) and its response."""
        return self._hop(self._EER_SETUP, request, auth, hop_index)

    def _decide_eer_setup(self, request, wanted, hop, hop_index, last_index, now):
        """Role-specific admission (§4.7).  The state it returns is what
        :meth:`_release_eer_decision` needs to undo the decision."""
        role, segment_in, segment_out = self._role_and_segments(
            request.segment_ids, hop_index, last_index
        )
        host = None
        if role is AsRole.SOURCE:
            host = request.eer_info.src_host
        elif role is AsRole.DESTINATION:
            host = request.eer_info.dst_host
            # The destination host must explicitly accept the EER (§4.4).
            if not self.host_acceptor(request.eer_info, wanted.bandwidth):
                return 0.0, None
        core_contention = False
        if role is AsRole.TRANSFER:
            seg_in = self.store.get_segment(segment_in)
            seg_out = self.store.get_segment(segment_out)
            core_contention = (
                seg_in.segment.segment_type is SegmentType.UP
                and seg_out.segment.segment_type is SegmentType.CORE
            )
        decision = self.eer_admission.decide(
            role,
            wanted.bandwidth,
            now,
            segment_in=segment_in,
            segment_out=segment_out,
            host=host,
            core_contention=core_contention,
            flow=wanted.reservation,
        )
        return decision.granted, (decision, role, host, core_contention)

    def _commit_eer_setup(self, request, state: tuple, response, now):
        info = response.res_info
        self.eer_admission.commit(info.reservation, state[0], response.granted)
        version = E2EVersion(info.version, response.granted, info.expiry)
        self.store.add_eer(
            E2EReservation(
                reservation_id=info.reservation,
                eer_info=request.eer_info,
                hops=request.hops,
                segment_ids=request.segment_ids,
                first_version=version,
            )
        )
        return version

    def _release_eer_decision(self, state: Optional[tuple], wanted: ResInfo) -> None:
        """Undo the temporary state :meth:`EerAdmission.decide` created
        for a request that will not commit here (§3.3 cleanup): policy
        budget at host-facing roles, and the transfer AS's registered
        core-SegR demand, which would otherwise shrink other up-SegRs'
        quotas forever."""
        if state is None:
            return  # refused here: `decide` already rolled itself back
        _, role, host, core_contention = state
        if host is not None and role is AsRole.SOURCE:
            self.eer_admission.source_policy.release(host, wanted.bandwidth)
        elif host is not None and role is AsRole.DESTINATION:
            self.eer_admission.destination_policy.release(host, wanted.bandwidth)
        if role is AsRole.TRANSFER and core_contention:
            # Keyed release: exactly the capped increment `decide`
            # registered, not the (possibly larger) requested amount.
            self.eer_admission.distributor.release_key(wanted.reservation)

    def _mint_hopauth(self, key, subject, hop, response, now):
        """This AS's Eq. (5) blob: its Eq. (4) HopAuth, sealed for the
        source under ``key``."""
        sigma = hop_authenticator(
            self.keys.hop_key(now),
            response.res_info,
            subject.eer_info,
            hop.ingress,
            hop.egress,
        )
        return aead_seal(key, sigma)

    @traced("eer.renewal", attrs=_initiator, latency="admission_latency_seconds")
    def renew_eer(self, handle: EerHandle, new_bandwidth: float = None) -> EerHandle:
        """Renew an own EER ahead of expiry (§4.2); returns the updated
        handle with the new version installed at the gateway.  On
        failure the base version keeps carrying traffic."""
        now = self.clock.now()
        # Look the EER up before charging the limiter: a renewal of a
        # swept EER must not leave a bucket nothing ever forgets.
        reservation = self.store.get_eer(handle.reservation_id)
        self.renewal_limiter.check(handle.reservation_id, now)
        if new_bandwidth is None:
            new_bandwidth = handle.res_info.bandwidth
        request = EerRenewalRequest(
            reservation=handle.reservation_id,
            new_bandwidth=new_bandwidth,
            new_expiry=now + EER_LIFETIME,
            new_version=reservation.next_version_number(),
        )
        response, keys = self._initiate(self._EER_RENEWAL, request, handle.hops, now)
        renewed = self._install_eer(
            response, keys, handle.eer_info, handle.hops, handle.segment_ids, now
        )
        self._journal(
            RESERVATION_RENEWED,
            handle.reservation_id,
            kind="eer",
            version=renewed.res_info.version,
            granted=response.granted,
        )
        return renewed

    @traced("admission.eer_renewal", attrs=_on_path)
    def handle_eer_renewal(
        self, request: EerRenewalRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> EerSetupResponse:
        return self._hop(self._EER_RENEWAL, request, auth, hop_index)

    def _resolve_eer_renewal(self, request: EerRenewalRequest):
        reservation = self.store.get_eer(request.reservation)
        return reservation, reservation.hops

    def _decide_eer_renewal(
        self, reservation, wanted, hop, hop_index, last_index, now
    ):
        """Renewal is a delta-recompute, not a fresh admission: versions
        share the EER's budget (§4.2), so each SegR offers its current
        allocation plus whatever is free, in two O(1) reads — no
        release-and-readmit through the full bounded-tube path, and no
        policy/demand charge to unwind on failure (policy budget was
        charged at setup).  An AS that cannot cover the full growth
        offers a *partial* grant, so service never regresses below what
        already runs."""
        role, segment_in, segment_out = self._role_and_segments(
            reservation.segment_ids, hop_index, last_index
        )
        segment_ids = [sid for sid in (segment_in, segment_out) if sid is not None]
        decision = self.eer_admission.renew_delta(
            wanted.reservation, segment_ids, wanted.bandwidth, now, role=role
        )
        return decision.granted, decision

    def _commit_eer_renewal(self, reservation, decision, response, now):
        info = response.res_info
        version = E2EVersion(info.version, response.granted, info.expiry)
        reservation.add_version(version)
        reservation.prune(now)
        self.eer_admission.commit_renewal(
            info.reservation, decision, response.granted
        )
        # The new version moved the expiry: re-index the EER so the
        # time-indexed sweep sees the extension immediately.
        self.store.touch(info.reservation)
        return version

    def _forget_eer(self, res_id: ReservationId) -> None:
        """Drop what this AS holds for an EER beside its store rows —
        transfer-quota demand (it would otherwise accumulate forever and
        starve other up-SegRs' quotas), and at the source AS the renewal
        bucket and the gateway entry (HopAuths, key schedules, token
        bucket); elsewhere those two are no-ops."""
        self.eer_admission.distributor.release_key(res_id)
        self.renewal_limiter.forget(res_id)
        if self.gateway is not None:
            self.gateway.uninstall(res_id)

    # ==================================================== abort paths (§3.3) ==
    #
    # When a setup/renewal response is lost, the hops beyond the loss
    # point have already committed; the initiator knows the full hop list
    # and tells every on-path AS *directly* (not hop-by-hop — any single
    # link can be the broken one) to drop the half-installed state.
    # Aborts use the CLEANUP retry policy: more attempts, and they bypass
    # the circuit breaker, because cleanup towards a flaky AS is exactly
    # the call that must not be refused.

    def _abort_segment(self, res_id: ReservationId, version: int, hops) -> None:
        """Release a half-committed SegR setup (version 1) or renewal
        (version > 1: drop the pending version) at every on-path AS."""
        self.aborts["segments"] += 1
        self._abort("handle_seg_abort", SegAbortNotice(res_id, version), hops)

    def _abort_eer(self, res_id: ReservationId, version: int, hops) -> None:
        """Release a half-committed EER setup (version 1) or renewal
        version (version > 1) at every on-path AS."""
        self.aborts["eers"] += 1
        self._abort("handle_eer_abort", EerAbortNotice(res_id, version), hops)

    def _abort(self, method: str, notice, hops) -> None:
        targets = [hop.isd_as for hop in hops if hop.isd_as != self.isd_as]
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, targets, notice, self.clock.now()
        )
        getattr(self, method)(notice, auth)
        for isd_as in targets:
            try:
                self.caller.call(isd_as, method, notice, auth)
            except TransportError:
                # Even the generous cleanup budget ran dry; that AS's
                # residue now expires with the reservation lifetime.
                self.aborts["undeliverable"] += 1

    def handle_seg_abort(
        self, request: SegAbortNotice, auth: AuthenticatedRequest
    ) -> bool:
        return self._handle_abort(request, auth, self._local_seg_abort)

    def handle_eer_abort(
        self, request: EerAbortNotice, auth: AuthenticatedRequest
    ) -> bool:
        return self._handle_abort(request, auth, self._local_eer_abort)

    def _handle_abort(self, notice, auth: AuthenticatedRequest, undo: Callable) -> bool:
        auth.verify_at(self.keys, self.clock.now())
        self._owner_only(notice, auth)
        undo(notice.reservation, notice.version)
        return True

    def _local_seg_abort(self, res_id: ReservationId, version: int) -> None:
        try:
            reservation = self.store.get_segment(res_id)
        except ReservationNotFound:
            return  # the request never committed here: nothing to undo
        self._journal(
            RESERVATION_TORN_DOWN,
            res_id,
            kind="segment",
            reason="abort",
            version=version,
        )
        if version <= 1:
            self.store.remove_segment(res_id)
            self._forget_segment(res_id)
            return
        try:
            reservation.drop_pending(version)
        except VersionError:
            pass  # renewal never landed here, or was already activated

    def _local_eer_abort(self, res_id: ReservationId, version: int) -> None:
        try:
            reservation = self.store.get_eer(res_id)
        except ReservationNotFound:
            return
        self._journal(
            RESERVATION_TORN_DOWN, res_id, kind="eer", reason="abort", version=version
        )
        if version <= 1:
            # Abort of the initial setup: the whole EER goes, and every
            # SegR this AS holds gets its allocation back — exact zero,
            # not "wait 16 s for expiry" (§3.3).
            with self.store.transaction():
                for segment_id in reservation.segment_ids:
                    self.store.release_on_segment(segment_id, res_id)
                self.store.remove_eer(res_id)
            self._forget_eer(res_id)
            return
        try:
            reservation.drop_version(version)
        except VersionError:
            return  # the renewal version never landed here
        # Shrink the allocation back to what the surviving versions need.
        remaining = reservation.effective_bandwidth(self.clock.now())
        with self.store.transaction():
            for segment_id in reservation.segment_ids:
                if not self.store.has_segment(segment_id):
                    continue
                if self.store.eer_allocation(segment_id, res_id) > remaining:
                    self.store.allocate_on_segment(segment_id, res_id, remaining)
            # Dropping the version may have *shrunk* the expiry; the
            # lazy index only heals extensions, so re-index explicitly.
            self.store.touch(res_id)

    # ====================================================== host front door ==

    def provision_host_key(self, host: HostAddr) -> bytes:
        """The host-specific key a subscriber receives at sign-up.

        Footnote 2 of the paper: protocol- and host-specific keys are
        derived below the AS-level DRKey.  For the host -> local-CServ
        channel the parent key is ``K_{A->A}`` (the AS's key with
        itself), so the CServ can re-derive any host's key on the fly —
        no per-host key storage.
        """
        from repro.crypto.drkey import derive_host_key

        parent = self.keys.control_key(self.isd_as)
        return derive_host_key(parent, host.packed)

    @staticmethod
    def _host_request_bytes(
        src_host: HostAddr, destination: IsdAs, dst_host: HostAddr, bandwidth: float
    ) -> bytes:
        from repro.packets.wire import Writer

        return (
            Writer()
            .raw(src_host.packed)
            .raw(destination.packed)
            .raw(dst_host.packed)
            .f64(bandwidth)
            .finish()
        )

    def request_eer(
        self,
        src_host: HostAddr,
        destination: IsdAs,
        dst_host: HostAddr,
        bandwidth: float,
        tag: bytes,
    ) -> EerHandle:
        """The authenticated host-facing entry point for EER setup.

        The host MACs its request under its provisioned key; the CServ
        re-derives the key and verifies before doing any work, so hosts
        cannot spoof each other's identity towards their own AS (which
        would subvert per-host policies, §4.7) and cannot flood the CServ
        with requests charged to someone else.
        """
        from repro.crypto.mac import verify_mac

        key = self.provision_host_key(src_host)
        payload = self._host_request_bytes(src_host, destination, dst_host, bandwidth)
        verify_mac(key, payload, tag)
        return self.setup_eer(destination, src_host, dst_host, bandwidth)

    # ======================================================== dissemination ==

    def query_registry(self, first_as: IsdAs, last_as: IsdAs, requester: IsdAs) -> list:
        """Remote-facing registry lookup (Appendix C)."""
        return self.registry.query(first_as, last_as, requester, self.clock.now())

    def find_segment_chain(self, destination: IsdAs):
        """Assemble 1-3 SegRs covering a path to ``destination``.

        Mirrors the SCION segment-combination rules over *reserved*
        segments instead of raw ones, fetching remote descriptors with
        hierarchical caching (Appendix C).  Returns
        ``(descriptors, combined_path)`` for the first chain found.
        """
        for chain in self.iter_segment_chains(destination):
            return chain
        raise NoPathError(
            f"no SegR chain from {self.isd_as} to {destination}; "
            "set up the missing segment reservations first"
        )

    def iter_segment_chains(self, destination: IsdAs):
        """Yield every combinable SegR chain towards ``destination``."""
        if self.topology is None:
            raise ColibriError(
                f"CServ of {self.isd_as} has no topology reference for chain search"
            )
        if destination == self.isd_as:
            raise NoPathError("source and destination AS are identical")
        now = self.clock.now()
        src_core = self.node.is_core
        dst_core = self.topology.node(destination).is_core

        if src_core:
            up_options = [(None, self.isd_as)]
        else:
            up_options = []
            for core in self.topology.core_ases(self.node.isd):
                for descriptor in self.registry.query(
                    self.isd_as, core.isd_as, self.isd_as, now
                ):
                    up_options.append((descriptor, core.isd_as))
        if dst_core:
            down_options = [(None, destination)]
        else:
            down_options = []
            for core in self.topology.core_ases(destination.isd):
                for descriptor in self.remote_client.fetch(
                    core.isd_as, core.isd_as, destination
                ):
                    down_options.append((descriptor, core.isd_as))

        for up_descriptor, up_core in up_options:
            for down_descriptor, down_core in down_options:
                if up_core == down_core:
                    chain = [d for d in (up_descriptor, down_descriptor) if d]
                    if not chain:
                        continue
                    path = self._combine_chain(chain)
                    if path is not None:
                        yield chain, path
                    continue
                for core_descriptor in self.remote_client.fetch(
                    up_core, up_core, down_core
                ):
                    chain = [
                        d
                        for d in (up_descriptor, core_descriptor, down_descriptor)
                        if d
                    ]
                    path = self._combine_chain(chain)
                    if path is not None:
                        yield chain, path

    def _combine_chain(self, descriptors: list):
        """The combined path of a SegR chain, or ``None`` if the
        segments do not join.  A SegR's segment never changes, so this
        is a pure function of the chain's reservation ids and is
        memoized on them (the memo is dropped when full)."""
        memo = self._chain_paths
        chain = tuple(d.reservation_id for d in descriptors)
        if chain not in memo:
            if len(memo) >= _CHAIN_MEMO_SIZE:
                memo.clear()
            try:
                memo[chain] = combine_segments(
                    [d.segment for d in descriptors], allow_shortcut=False
                )
            except ColibriError:
                memo[chain] = None
        return memo[chain]

    # ============================================================== policing ==

    def report_offense(self, source: IsdAs, reservation_id: ReservationId) -> None:
        """Border-router report of confirmed overuse (§4.8).

        "It is possible for the service to take drastic measures such as
        completely denying future reservations originating from that AS."
        """
        self.offenses_reported += 1
        self.denied_sources.add(source)

    def pardon(self, source: IsdAs) -> None:
        self.denied_sources.discard(source)

    # ========================================================== housekeeping ==

    def housekeeping(self) -> dict:
        """Periodic sweep: expire reservations, release admission state,
        purge the registry.  Returns counts for observability.

        Cost is proportional to what actually died: the store's expiry
        wheel surfaces exactly the due reservations (no full scan), and
        the returned id lists drive the per-reservation cleanup
        (:meth:`_forget_segment`, :meth:`_forget_eer`).
        """
        now = self.clock.now()
        removed, dead_eers, dead_segments = self.store.sweep_expired_details(now)
        for reservation_id in dead_segments:
            self._forget_segment(reservation_id)
        for reservation_id in dead_eers:
            self._forget_eer(reservation_id)
        removed["registry"] = self.registry.sweep_expired(now)
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.counter("store_swept_eers_total").inc(removed["eers"])
            metrics.counter("store_swept_segments_total").inc(
                removed["segments"]
            )
            metrics.gauge("store_live_eers").set(self.store.eer_count())
            metrics.gauge("store_live_segments").set(self.store.segment_count())
            emit(
                self.obs,
                STORE_SWEPT,
                isd_as=str(self.isd_as),
                eers=removed["eers"],
                segments=removed["segments"],
                registry=removed["registry"],
                live_eers=self.store.eer_count(),
                live_segments=self.store.segment_count(),
            )
        return removed

    def segment_tokens(self, reservation_id: ReservationId) -> tuple:
        """The Eq. (3) tokens returned at setup, for building SegR packets."""
        return self._segment_tokens[reservation_id]

    # ============================================== the workflows, assembled ==
    #
    # Everything a workflow does that :meth:`_hop` / :meth:`_initiate` do
    # not.  SegRs decide by N-Tube and mint Eq. (3) tokens; EERs decide by
    # role over their SegRs and mint sealed HopAuths (Eq. 5); setups read
    # the request and add a store row, renewals read the store and add a
    # version to the row.  Only an EER setup's decision charges anything.

    _SEG_SETUP = _Flow(
        "handle_seg_setup", "segment", "SegR setup", SegSetupResponse, "tokens",
        "find_segment", _resolve_setup, _decide_segment, _commit_seg_setup,
        _mint_token, _abort_segment,
    )
    _SEG_RENEWAL = _Flow(
        "handle_seg_renewal", "segment_renewal", "SegR renewal", SegSetupResponse,
        "tokens", "find_segment", _resolve_seg_renewal, _decide_segment,
        _commit_seg_renewal, _mint_token, _abort_segment,
    )
    _EER_SETUP = _Flow(
        "handle_eer_setup", "eer", "EER setup", EerSetupResponse, "sealed_hopauths",
        "find_eer", _resolve_setup, _decide_eer_setup, _commit_eer_setup,
        _mint_hopauth, _abort_eer, _release_eer_decision,
    )
    _EER_RENEWAL = _Flow(
        "handle_eer_renewal", "eer_renewal", "EER renewal", EerSetupResponse,
        "sealed_hopauths", "find_eer", _resolve_eer_renewal, _decide_eer_renewal,
        _commit_eer_renewal, _mint_hopauth, _abort_eer,
    )
