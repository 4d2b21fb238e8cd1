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
choreography of Fig. 1.  Grants are evaluated on the forward pass and
committed on the (successful) unwind, so a failed setup leaves no
temporary reservations behind (§3.3).

Fault tolerance (§3.3, docs/robustness.md): every forwarded call goes
through a :class:`~repro.control.retry.RetryingCaller` (capped
exponential backoff, per-method latency budgets, per-destination circuit
breaker).  Handlers are retry-safe: successful responses are remembered
in an :class:`~repro.control.retry.IdempotencyCache` keyed by request
identity, so a retry after a *lost response* replays the answer instead
of double-admitting bandwidth.  When retries are exhausted the transport
error propagates back to the initiator, which aborts the whole path —
explicitly releasing whatever the hops beyond the loss point already
committed — before re-raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.admission.eer_admission import AsRole, EerAdmission
from repro.admission.policy import AdmissionPolicy
from repro.admission.traffic_matrix import TrafficMatrix
from repro.admission.tube_fairness import SegmentAdmission, SegmentGrant
from repro.constants import (
    EER_LIFETIME,
    EER_RENEWAL_MIN_INTERVAL,
    SEGR_LIFETIME,
)
from repro.control.auth import AuthenticatedRequest
from repro.control.dissemination import (
    REMOTE_CACHE_TTL,
    RemoteQueryClient,
    SegmentDescriptor,
    SegmentRegistry,
)
from repro.control.rate_limit import RateLimiter
from repro.control.retry import IdempotencyCache, PolicyTable, RetryingCaller
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
    NoPathError,
    PolicyDenied,
    ReservationExpired,
    ReservationNotFound,
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
        #: Server-side retry safety: successful setup/renewal responses
        #: by request identity, replayed when a lost response is retried.
        self.idempotency = IdempotencyCache(clock)

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

    def _decided(
        self, reservation, kind: str, hop_index: int, granted: float, admitted: bool
    ) -> None:
        """Journal this AS's own admission decision (one event per
        handler invocation, cached idempotent replays excluded)."""
        self._journal(
            ADMISSION_DECIDED,
            reservation,
            kind=kind,
            hop=hop_index,
            granted=granted,
            admitted=admitted,
        )

    @property
    def _remote_cache(self) -> dict:
        """The remote descriptor cache (moved to :attr:`remote_client`)."""
        return self.remote_client._cache

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
        res_info = ResInfo(
            reservation=res_id,
            bandwidth=bandwidth,
            expiry=now + SEGR_LIFETIME,
            version=1,
        )
        request = SegSetupRequest(
            res_info=res_info,
            hops=segment.hops,
            min_bandwidth=minimum,
            segment_type=_SEGMENT_TYPE_TO_CODE[segment.segment_type],
        )
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, list(segment.ases), request, now
        )
        try:
            response = self.handle_seg_setup(request, auth, 0)
        except TransportError:
            # Retries exhausted mid-path.  Hops beyond the loss point may
            # have committed (their success response never came back);
            # clean up the whole path before giving up (§3.3).
            self._abort_segment(res_id, 1, segment.ases)
            raise
        if not response.success:
            raise _refused("SegR setup", response.grants)
        auth.verify_grants(self.directory, response.grants, now)
        self._segment_tokens[res_id] = response.tokens
        reservation = self.store.get_segment(res_id)
        if register:
            self.registry.register(SegmentDescriptor.of(reservation), whitelist)
        return reservation

    @traced(
        "admission.seg_setup",
        attrs=lambda self, request, auth, hop_index: {
            "isd_as": str(self.isd_as),
            "hop": hop_index,
            "reservation": str(request.res_info.reservation),
        },
    )
    def handle_seg_setup(
        self, request: SegSetupRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> SegSetupResponse:
        """On-path processing of a SegReq (➋ of Fig. 1a) and its response."""
        now = self.clock.now()
        hop = self._hop_of(request.hops, hop_index)
        source = request.res_info.src_as
        if hop_index > 0:
            self._admission_gate(source, now)
            auth.verify_at(self.keys, now)
        # Retry safety: if this exact request already succeeded here (its
        # response was lost upstream), replay the remembered answer
        # instead of admitting the bandwidth twice (§3.3).
        idem_key = (
            "seg_setup",
            request.res_info.reservation,
            request.res_info.version,
            hop_index,
        )
        cached = self.idempotency.get(idem_key)
        if cached is not None:
            return cached

        try:
            grant = self.seg_admission.evaluate(
                request.res_info.reservation,
                source,
                hop.ingress,
                hop.egress,
                request.res_info.bandwidth,
            )
        except ColibriError:
            grant = None
        offered = grant.granted if grant is not None else 0.0
        self._decided(
            request.res_info.reservation,
            "segment",
            hop_index,
            offered,
            offered >= request.min_bandwidth and offered > 0,
        )
        as_grant = AsGrant(self.isd_as, offered)
        forwarded = request.with_grant(as_grant)
        auth.add_grant_mac(self.keys, as_grant, now)

        if offered < request.min_bandwidth:
            # This AS is the bottleneck: fail immediately, do not bother
            # downstream ASes (they would clean up anyway).
            return SegSetupResponse(
                res_info=request.res_info,
                success=False,
                granted=0.0,
                grants=forwarded.grants,
            )

        if hop_index == len(request.hops) - 1:
            final = min(g.granted for g in forwarded.grants)
            success = final >= request.min_bandwidth and final > 0
            response = SegSetupResponse(
                res_info=replace(request.res_info, bandwidth=final),
                success=success,
                granted=final,
                grants=forwarded.grants,
            )
        else:
            next_as = request.hops[hop_index + 1].isd_as
            response = self.caller.call(
                next_as, "handle_seg_setup", forwarded, auth, hop_index + 1
            )

        if response.success:
            final_info = response.res_info
            committed = SegmentGrant(
                reservation_id=grant.reservation_id,
                demand=grant.demand,
                granted=response.granted,
            )
            with self.store.transaction():
                self.seg_admission.commit(committed)
                segment = Segment.from_hops(
                    _CODE_TO_SEGMENT_TYPE[request.segment_type], request.hops
                )
                self.store.add_segment(
                    SegmentReservation(
                        reservation_id=final_info.reservation,
                        segment=segment,
                        first_version=SegmentVersion(
                            version=final_info.version,
                            bandwidth=response.granted,
                            expiry=final_info.expiry,
                        ),
                    )
                )
            token = segment_token(
                self.keys.hop_key(now), final_info, hop.ingress, hop.egress
            )
            response = replace(response, tokens=(token,) + response.tokens)
            self.idempotency.put(idem_key, response)
        return response

    # -- renewal and activation (§4.2, §4.4) ----------------------------------------

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
        new_version = reservation.next_version_number()
        request = SegRenewalRequest(
            reservation=reservation_id,
            new_bandwidth=new_bandwidth,
            min_bandwidth=minimum,
            new_expiry=now + SEGR_LIFETIME,
            new_version=new_version,
        )
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, list(reservation.segment.ases), request, now
        )
        try:
            response = self.handle_seg_renewal(request, auth, 0)
        except TransportError:
            # Drop the pending version wherever the unwind installed it
            # before the response was lost (§3.3).
            self._abort_segment(reservation_id, new_version, reservation.segment.ases)
            raise
        if not response.success:
            raise _refused("SegR renewal", response.grants)
        self._segment_tokens[reservation_id] = response.tokens
        self._journal(
            RESERVATION_RENEWED,
            reservation_id,
            kind="segment",
            version=new_version,
            granted=response.granted,
        )
        return new_version

    @traced(
        "admission.seg_renewal",
        attrs=lambda self, request, auth, hop_index: {
            "isd_as": str(self.isd_as),
            "hop": hop_index,
            "reservation": str(request.reservation),
        },
    )
    def handle_seg_renewal(
        self, request: SegRenewalRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> SegSetupResponse:
        now = self.clock.now()
        try:
            reservation = self.store.get_segment(request.reservation)
        except ReservationNotFound:
            return SegSetupResponse(
                res_info=ResInfo(
                    reservation=request.reservation,
                    bandwidth=0.0,
                    expiry=request.new_expiry,
                    version=request.new_version,
                ),
                success=False,
                granted=0.0,
                grants=request.grants,
            )
        hop = reservation.segment.hop_of(self.isd_as)
        source = request.reservation.src_as
        if hop_index > 0:
            self._admission_gate(source, now)
            auth.verify_at(self.keys, now)
        idem_key = (
            "seg_renewal", request.reservation, request.new_version, hop_index
        )
        cached = self.idempotency.get(idem_key)
        if cached is not None:
            return cached

        # Renewal re-runs admission; the evaluator excludes this SegR's
        # current demand so it competes fairly ("on-path ASes can also
        # re-negotiate the bandwidth granted", §4.4).
        grant = self.seg_admission.evaluate(
            request.reservation, source, hop.ingress, hop.egress, request.new_bandwidth
        )
        self._decided(
            request.reservation,
            "segment_renewal",
            hop_index,
            grant.granted,
            grant.granted >= request.min_bandwidth and grant.granted > 0,
        )
        as_grant = AsGrant(self.isd_as, grant.granted)
        forwarded = request.with_grant(as_grant)
        auth.add_grant_mac(self.keys, as_grant, now)

        new_info = ResInfo(
            reservation=request.reservation,
            bandwidth=grant.granted,
            expiry=request.new_expiry,
            version=request.new_version,
        )
        if grant.granted < request.min_bandwidth:
            return SegSetupResponse(
                res_info=new_info, success=False, granted=0.0, grants=forwarded.grants
            )

        hops = reservation.segment.hops
        if hop_index == len(hops) - 1:
            final = min(g.granted for g in forwarded.grants)
            success = final >= request.min_bandwidth and final > 0
            response = SegSetupResponse(
                res_info=replace(new_info, bandwidth=final),
                success=success,
                granted=final,
                grants=forwarded.grants,
            )
        else:
            next_as = hops[hop_index + 1].isd_as
            response = self.caller.call(
                next_as, "handle_seg_renewal", forwarded, auth, hop_index + 1
            )

        if response.success:
            reservation.add_pending(
                SegmentVersion(
                    version=request.new_version,
                    bandwidth=response.granted,
                    expiry=request.new_expiry,
                )
            )
            token = segment_token(
                self.keys.hop_key(now), response.res_info, hop.ingress, hop.egress
            )
            response = replace(response, tokens=(token,) + response.tokens)
            self.idempotency.put(idem_key, response)
        return response

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
        now = self.clock.now()
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, list(reservation.segment.ases), request, now
        )
        self.handle_seg_teardown(request, auth, 0)

    def handle_seg_teardown(
        self, request: SegTeardownNotice, auth: AuthenticatedRequest, hop_index: int
    ) -> bool:
        now = self.clock.now()
        try:
            reservation = self.store.get_segment(request.reservation)
        except ReservationNotFound:
            return False
        if hop_index > 0:
            auth.verify_at(self.keys, now)
        # Only the initiator may retire its reservation.
        if request.reservation.src_as != auth.source:
            raise AdmissionDenied(
                f"teardown of {request.reservation} not requested by its owner"
            )
        if self.store.allocated_on_segment(request.reservation) > 0:
            return False  # EERs still riding: keep until they expire
        hops = reservation.segment.hops
        if hop_index < len(hops) - 1:
            self.caller.call(
                hops[hop_index + 1].isd_as,
                "handle_seg_teardown",
                request,
                auth,
                hop_index + 1,
            )
        self.seg_admission.release(request.reservation)
        self.store.remove_segment(request.reservation)
        self.registry.unregister(request.reservation)
        self._segment_tokens.pop(request.reservation, None)
        self._journal(
            RESERVATION_TORN_DOWN,
            request.reservation,
            kind="segment",
            reason="teardown",
        )
        return True

    def activate_segment(self, reservation_id: ReservationId, version: int) -> None:
        """Explicitly switch an own SegR to a pending version everywhere."""
        reservation = self.store.get_segment(reservation_id)
        request = SegActivationRequest(reservation=reservation_id, version=version)
        now = self.clock.now()
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, list(reservation.segment.ases), request, now
        )
        self.handle_seg_activation(request, auth, 0)
        try:
            self.registry.update(SegmentDescriptor.of(reservation))
        except KeyError:
            pass  # unregistered (private) SegRs have nothing to refresh

    def handle_seg_activation(
        self, request: SegActivationRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> bool:
        now = self.clock.now()
        reservation = self.store.get_segment(request.reservation)
        if hop_index > 0:
            auth.verify_at(self.keys, now)
        idem_key = (
            "seg_activate", request.reservation, request.version, hop_index
        )
        if self.idempotency.get(idem_key) is not None:
            return True  # retried activation: already switched here
        hops = reservation.segment.hops
        # Activate downstream first: if any AS refuses (e.g. the version
        # expired under clock skew), upstream ASes keep the old version.
        if hop_index < len(hops) - 1:
            self.caller.call(
                hops[hop_index + 1].isd_as,
                "handle_seg_activation",
                request,
                auth,
                hop_index + 1,
            )
        new = reservation.activate(request.version, now)
        reservation.prune(now)
        # Activation replaced the expiry-defining version: re-index.
        self.store.touch(request.reservation)
        # Committed admission state must track the active version's size.
        if request.reservation in self.seg_admission.index:
            entry = self.seg_admission.index.entry(request.reservation)
            hop = reservation.segment.hop_of(self.isd_as)
            grant = self.seg_admission.evaluate(
                request.reservation,
                request.reservation.src_as,
                hop.ingress,
                hop.egress,
                new.bandwidth,
            )
            self.seg_admission.commit(
                SegmentGrant(
                    reservation_id=request.reservation,
                    demand=grant.demand,
                    granted=new.bandwidth,
                )
            )
        return True

    # ================================================================== EERs ==

    @traced("eer.setup", attrs=_initiator, latency="admission_latency_seconds")
    def setup_eer(
        self,
        destination: IsdAs,
        src_host: HostAddr,
        dst_host: HostAddr,
        bandwidth: float,
        chain=None,
        retries: int = 1,
    ) -> EerHandle:
        """Initiate an EER for a local host (Fig. 1b).

        Finds a SegR chain to ``destination`` (Appendix C) — or uses the
        explicit ``(descriptors, path)`` pair a multipath caller picked —
        runs the hop-by-hop admission, decrypts the returned HopAuths
        (Eq. 5) and installs the reservation in the local gateway.

        When the failure looks like stale cached remote SegRs (Appendix
        C: "the remote CServ can indicate expiry of the SegR during
        setup of the EER, allowing the end host to retry"), the cache is
        invalidated and the chain search re-run up to ``retries`` times.
        """
        now = self.clock.now()
        descriptors, path = chain if chain is not None else self.find_segment_chain(
            destination
        )
        res_id = ReservationId(self.isd_as, self._ids.allocate())
        res_info = ResInfo(
            reservation=res_id,
            bandwidth=bandwidth,
            expiry=now + EER_LIFETIME,
            version=1,
        )
        eer_info = EerInfo(src_host=src_host, dst_host=dst_host)
        request = EerSetupRequest(
            res_info=res_info,
            eer_info=eer_info,
            hops=path.hops,
            segment_ids=tuple(d.reservation_id for d in descriptors),
        )
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, list(path.ases), request, now
        )
        try:
            response = self.handle_eer_setup(request, auth, 0)
        except TransportError:
            # Retries exhausted mid-path: hops beyond the loss point may
            # hold committed allocations whose response never returned.
            # Abort path-wide, then refetch descriptors on any retry.
            self.remote_client.invalidate(descriptors)
            self._abort_eer(res_id, 1, path.hops)
            raise
        if not response.success:
            # A stale cached SegR is one failure cause (Appendix C):
            # invalidate the cache so a retry refetches fresh descriptors.
            self.remote_client.invalidate(descriptors)
            expiry_soon = any(d.is_expired(now) for d in descriptors)
            if retries > 0 and chain is None and expiry_soon:
                return self.setup_eer(
                    destination,
                    src_host,
                    dst_host,
                    bandwidth,
                    retries=retries - 1,
                )
            raise _refused("EER setup", response.grants)
        final_info = response.res_info
        hop_auths = self._open_hopauths(path.hops, response.sealed_hopauths, now)
        if self.gateway is not None:
            self.gateway.install(
                res_id,
                PathField.from_hops(path.hops),
                eer_info,
                final_info,
                tuple(hop_auths),
            )
        return EerHandle(
            reservation_id=res_id,
            res_info=final_info,
            eer_info=eer_info,
            hops=path.hops,
            segment_ids=request.segment_ids,
            granted=response.granted,
        )

    def _open_hopauths(self, hops: tuple, sealed_hopauths: tuple, now: float) -> list:
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
            key = self.directory.fetch_key(hop.isd_as, self.isd_as, now)
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

    @traced(
        "admission.eer_setup",
        attrs=lambda self, request, auth, hop_index: {
            "isd_as": str(self.isd_as),
            "hop": hop_index,
            "reservation": str(request.res_info.reservation),
        },
    )
    def handle_eer_setup(
        self, request: EerSetupRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> EerSetupResponse:
        """On-path processing of an EEReq (➌ of Fig. 1b) and its response."""
        now = self.clock.now()
        hop = self._hop_of(request.hops, hop_index)
        source = request.res_info.src_as
        last_index = len(request.hops) - 1
        if hop_index > 0:
            self._admission_gate(source, now)
        # K_{AS_i->Src}, derived once: "the same key is used to
        # authenticate the information AS_i itself adds" (§4.5) — the
        # MAC check, the grant MAC and the Eq. (5) seal below.
        key = self.keys.control_key(source, now)
        if hop_index > 0:
            auth._verify_under(key, self.isd_as)
        idem_key = (
            "eer_setup",
            request.res_info.reservation,
            request.res_info.version,
            hop_index,
        )
        cached = self.idempotency.get(idem_key)
        if cached is not None:
            return cached

        def fail(granted: float) -> EerSetupResponse:
            self._decided(
                request.res_info.reservation, "eer", hop_index, granted, False
            )
            return EerSetupResponse(
                res_info=request.res_info,
                success=False,
                granted=0.0,
                grants=request.grants + (AsGrant(self.isd_as, granted),),
            )

        try:
            role, segment_in, segment_out = self._role_and_segments(
                request.segment_ids, hop_index, last_index
            )
        except ReservationNotFound:
            return fail(0.0)

        host = None
        if role is AsRole.SOURCE:
            host = request.eer_info.src_host
        elif role is AsRole.DESTINATION:
            host = request.eer_info.dst_host
            # The destination host must explicitly accept the EER (§4.4).
            if not self.host_acceptor(request.eer_info, request.res_info.bandwidth):
                return fail(0.0)

        core_contention = False
        if role is AsRole.TRANSFER:
            seg_in = self.store.get_segment(segment_in)
            seg_out = self.store.get_segment(segment_out)
            core_contention = (
                seg_in.segment.segment_type is SegmentType.UP
                and seg_out.segment.segment_type is SegmentType.CORE
            )
        try:
            decision = self.eer_admission.decide(
                role,
                request.res_info.bandwidth,
                now,
                segment_in=segment_in,
                segment_out=segment_out,
                host=host,
                core_contention=core_contention,
                flow=request.res_info.reservation,
            )
        except (InsufficientBandwidth, PolicyDenied) as denial:
            return fail(denial.granted)
        except ReservationExpired:
            return fail(0.0)

        self._decided(
            request.res_info.reservation, "eer", hop_index, decision.granted, True
        )
        as_grant = AsGrant(self.isd_as, decision.granted)
        forwarded = request.with_grant(as_grant)
        auth._grant_under(key, as_grant)

        if hop_index == last_index:
            final = min(g.granted for g in forwarded.grants)
            info = request.res_info
            response = EerSetupResponse(
                res_info=ResInfo(
                    reservation=info.reservation,
                    bandwidth=final,
                    expiry=info.expiry,
                    version=info.version,
                ),
                success=final > 0,
                granted=final,
                grants=forwarded.grants,
            )
        else:
            next_as = request.hops[hop_index + 1].isd_as
            try:
                response = self.caller.call(
                    next_as, "handle_eer_setup", forwarded, auth, hop_index + 1
                )
            except TransportError:
                # Nothing committed here yet, but `decide` charged policy
                # budget / transfer demand — return it before the error
                # climbs back towards the initiator (§3.3 cleanup).
                self._release_eer_decision(
                    role, host, request.res_info.bandwidth,
                    core_contention, request.res_info.reservation,
                )
                raise

        if response.success:
            final_info = response.res_info
            eer_id = final_info.reservation
            with self.store.transaction():
                self.eer_admission.commit(eer_id, decision, response.granted)
                self.store.add_eer(
                    E2EReservation(
                        reservation_id=eer_id,
                        eer_info=request.eer_info,
                        hops=request.hops,
                        segment_ids=request.segment_ids,
                        first_version=E2EVersion(
                            version=final_info.version,
                            bandwidth=response.granted,
                            expiry=final_info.expiry,
                        ),
                    )
                )
            sigma = hop_authenticator(
                self.keys.hop_key(now),
                final_info,
                request.eer_info,
                hop.ingress,
                hop.egress,
            )
            response = self._with_hopauth(response, aead_seal(key, sigma))
            self.idempotency.put(idem_key, response)
        else:
            # Release everything the failed attempt's `decide` consumed:
            # policy budget at host-facing roles, and — previously leaked
            # — the transfer AS's registered core-SegR demand, which
            # would otherwise shrink other up-SegRs' quotas forever.
            self._release_eer_decision(
                role, host, request.res_info.bandwidth,
                core_contention, request.res_info.reservation,
            )
        return response

    def _release_eer_decision(
        self,
        role: AsRole,
        host,
        bandwidth: float,
        core_contention: bool,
        eer_id: ReservationId,
    ) -> None:
        """Undo the temporary state :meth:`EerAdmission.decide` created
        for a request that will not commit here (§3.3 cleanup)."""
        if host is not None and role is AsRole.SOURCE:
            self.eer_admission.source_policy.release(host, bandwidth)
        elif host is not None and role is AsRole.DESTINATION:
            self.eer_admission.destination_policy.release(host, bandwidth)
        if role is AsRole.TRANSFER and core_contention:
            # Keyed release: exactly the capped increment `decide`
            # registered, not the (possibly larger) requested amount.
            self.eer_admission.distributor.release_key(eer_id)

    @traced("eer.renewal", attrs=_initiator, latency="admission_latency_seconds")
    def renew_eer(self, handle: EerHandle, new_bandwidth: float = None) -> EerHandle:
        """Renew an own EER ahead of expiry (§4.2); returns the updated
        handle with the new version installed at the gateway."""
        now = self.clock.now()
        self.renewal_limiter.check(handle.reservation_id, now)
        reservation = self.store.get_eer(handle.reservation_id)
        if new_bandwidth is None:
            new_bandwidth = handle.res_info.bandwidth
        request = EerRenewalRequest(
            reservation=handle.reservation_id,
            new_bandwidth=new_bandwidth,
            new_expiry=now + EER_LIFETIME,
            new_version=reservation.next_version_number(),
        )
        on_path = [hop.isd_as for hop in handle.hops]
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, on_path, request, now
        )
        try:
            response = self.handle_eer_renewal(request, auth, 0)
        except TransportError:
            # Drop the half-installed renewal version everywhere; the
            # base version keeps carrying traffic (§4.2).
            self._abort_eer(handle.reservation_id, request.new_version, handle.hops)
            raise
        if not response.success:
            raise _refused("EER renewal", response.grants)
        final_info = response.res_info
        hop_auths = self._open_hopauths(
            handle.hops, response.sealed_hopauths, now
        )
        if self.gateway is not None:
            self.gateway.install(
                handle.reservation_id,
                PathField.from_hops(handle.hops),
                handle.eer_info,
                final_info,
                tuple(hop_auths),
            )
        self._journal(
            RESERVATION_RENEWED,
            handle.reservation_id,
            kind="eer",
            version=final_info.version,
            granted=response.granted,
        )
        return EerHandle(
            reservation_id=handle.reservation_id,
            res_info=final_info,
            eer_info=handle.eer_info,
            hops=handle.hops,
            segment_ids=handle.segment_ids,
            granted=response.granted,
        )

    @traced(
        "admission.eer_renewal",
        attrs=lambda self, request, auth, hop_index: {
            "isd_as": str(self.isd_as),
            "hop": hop_index,
            "reservation": str(request.reservation),
        },
    )
    def handle_eer_renewal(
        self, request: EerRenewalRequest, auth: AuthenticatedRequest, hop_index: int
    ) -> EerSetupResponse:
        now = self.clock.now()
        source = request.reservation.src_as

        def fail(granted: float) -> EerSetupResponse:
            self._decided(
                request.reservation, "eer_renewal", hop_index, granted, False
            )
            return EerSetupResponse(
                res_info=ResInfo(
                    reservation=request.reservation,
                    bandwidth=0.0,
                    expiry=request.new_expiry,
                    version=request.new_version,
                ),
                success=False,
                granted=0.0,
                grants=request.grants + (AsGrant(self.isd_as, granted),),
            )

        try:
            reservation = self.store.get_eer(request.reservation)
        except ReservationNotFound:
            return fail(0.0)
        hops = reservation.hops
        hop = self._hop_of(hops, hop_index)
        last_index = len(hops) - 1
        if hop_index > 0:
            self._admission_gate(source, now)
        key = self.keys.control_key(source, now)  # once, as in setup
        if hop_index > 0:
            auth._verify_under(key, self.isd_as)
        idem_key = (
            "eer_renewal", request.reservation, request.new_version, hop_index
        )
        cached = self.idempotency.get(idem_key)
        if cached is not None:
            return cached

        try:
            role, segment_in, segment_out = self._role_and_segments(
                reservation.segment_ids, hop_index, last_index
            )
        except ReservationNotFound:
            return fail(0.0)

        # Renewal is a delta-recompute, not a fresh admission: versions
        # share the EER's budget (§4.2), so each SegR offers its current
        # allocation plus whatever is free, in two O(1) reads — no
        # release-and-readmit through the full bounded-tube path, and no
        # policy/demand charge to unwind on failure (policy budget was
        # charged at setup).  An AS that cannot cover the full growth
        # offers a *partial* grant, so service never regresses below
        # what already runs.
        try:
            decision = self.eer_admission.renew_delta(
                request.reservation,
                [sid for sid in (segment_in, segment_out) if sid is not None],
                request.new_bandwidth,
                now,
                role=role,
            )
        except (ReservationExpired, ReservationNotFound):
            return fail(0.0)
        offered = decision.granted
        if offered <= 0:
            return fail(0.0)

        self._decided(
            request.reservation, "eer_renewal", hop_index, offered, True
        )
        as_grant = AsGrant(self.isd_as, offered)
        forwarded = request.with_grant(as_grant)
        auth._grant_under(key, as_grant)

        if hop_index == last_index:
            final = min(g.granted for g in forwarded.grants)
            response = EerSetupResponse(
                res_info=ResInfo(
                    reservation=request.reservation,
                    bandwidth=final,
                    expiry=request.new_expiry,
                    version=request.new_version,
                ),
                success=final > 0,
                granted=final,
                grants=forwarded.grants,
            )
        else:
            # Renewal's `decide` ran with host=None and no contention
            # flag, so a transport failure here leaves no temp state to
            # release — the error just climbs back to the initiator.
            response = self.caller.call(
                hops[hop_index + 1].isd_as,
                "handle_eer_renewal",
                forwarded,
                auth,
                hop_index + 1,
            )

        if response.success:
            final_info = response.res_info
            with self.store.transaction():
                reservation.add_version(
                    E2EVersion(
                        version=final_info.version,
                        bandwidth=response.granted,
                        expiry=final_info.expiry,
                    )
                )
                reservation.prune(now)
                self.eer_admission.commit_renewal(
                    request.reservation, decision, response.granted
                )
                # The new version moved the expiry: re-index the EER so
                # the time-indexed sweep sees the extension immediately.
                self.store.touch(request.reservation)
            sigma = hop_authenticator(
                self.keys.hop_key(now),
                final_info,
                reservation.eer_info,
                hop.ingress,
                hop.egress,
            )
            response = self._with_hopauth(response, aead_seal(key, sigma))
            self.idempotency.put(idem_key, response)
        return response

    @staticmethod
    def _with_hopauth(response: EerSetupResponse, sealed: bytes) -> EerSetupResponse:
        """The response with this AS's Eq. (5) blob prepended."""
        return EerSetupResponse(
            res_info=response.res_info,
            success=response.success,
            granted=response.granted,
            sealed_hopauths=(sealed,) + response.sealed_hopauths,
            grants=response.grants,
        )

    # ==================================================== abort paths (§3.3) ==
    #
    # When a setup/renewal response is lost, the hops beyond the loss
    # point have already committed; the initiator knows the full hop list
    # and tells every on-path AS *directly* (not hop-by-hop — any single
    # link can be the broken one) to drop the half-installed state.
    # Aborts use the CLEANUP retry policy: more attempts, and they bypass
    # the circuit breaker, because cleanup towards a flaky AS is exactly
    # the call that must not be refused.

    def _abort_segment(self, res_id: ReservationId, version: int, ases) -> None:
        """Release a half-committed SegR setup (version 1) or renewal
        (version > 1) at every on-path AS."""
        self.aborts["segments"] += 1
        now = self.clock.now()
        request = SegAbortNotice(reservation=res_id, version=version)
        targets = [isd_as for isd_as in ases if isd_as != self.isd_as]
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, targets, request, now
        )
        self._local_seg_abort(res_id, version)
        for isd_as in targets:
            try:
                self.caller.call(isd_as, "handle_seg_abort", request, auth)
            except TransportError:
                # Even the generous cleanup budget ran dry; that AS's
                # residue now expires with the reservation lifetime.
                self.aborts["undeliverable"] += 1

    def handle_seg_abort(
        self, request: SegAbortNotice, auth: AuthenticatedRequest
    ) -> bool:
        now = self.clock.now()
        auth.verify_at(self.keys, now)
        # Only the initiator may tear down its own half-committed state.
        if request.reservation.src_as != auth.source:
            raise AdmissionDenied(
                f"abort of {request.reservation} not requested by its owner"
            )
        self._local_seg_abort(request.reservation, request.version)
        return True

    def _local_seg_abort(self, res_id: ReservationId, version: int) -> None:
        # Forget replay answers for the aborted request so a later
        # legitimate retry is admitted fresh, not served stale state.
        self.idempotency.invalidate(
            lambda key: key[1] == res_id and (version <= 1 or key[2] == version)
        )
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
            self.seg_admission.release(res_id)
            self.store.remove_segment(res_id)
            self.registry.unregister(res_id)
            self._segment_tokens.pop(res_id, None)
            return
        try:
            reservation.drop_pending(version)
        except VersionError:
            pass  # renewal never landed here, or was already activated

    def _abort_eer(self, res_id: ReservationId, version: int, hops) -> None:
        """Release a half-committed EER setup (version 1) or renewal
        version (version > 1) at every on-path AS."""
        self.aborts["eers"] += 1
        now = self.clock.now()
        request = EerAbortNotice(reservation=res_id, version=version)
        targets = [hop.isd_as for hop in hops if hop.isd_as != self.isd_as]
        auth = AuthenticatedRequest.create(
            self.directory, self.isd_as, targets, request, now
        )
        self._local_eer_abort(res_id, version)
        for isd_as in targets:
            try:
                self.caller.call(isd_as, "handle_eer_abort", request, auth)
            except TransportError:
                self.aborts["undeliverable"] += 1

    def handle_eer_abort(
        self, request: EerAbortNotice, auth: AuthenticatedRequest
    ) -> bool:
        now = self.clock.now()
        auth.verify_at(self.keys, now)
        if request.reservation.src_as != auth.source:
            raise AdmissionDenied(
                f"abort of {request.reservation} not requested by its owner"
            )
        self._local_eer_abort(request.reservation, request.version)
        return True

    def _local_eer_abort(self, res_id: ReservationId, version: int) -> None:
        self.idempotency.invalidate(
            lambda key: key[1] == res_id and (version <= 1 or key[2] == version)
        )
        try:
            reservation = self.store.get_eer(res_id)
        except ReservationNotFound:
            return
        self._journal(
            RESERVATION_TORN_DOWN, res_id, kind="eer", reason="abort", version=version
        )
        now = self.clock.now()
        if version <= 1:
            # Abort of the initial setup: the whole EER goes, and every
            # SegR this AS holds gets its allocation back — exact zero,
            # not "wait 16 s for expiry" (§3.3).  The keyed ledger
            # returns exactly the transfer demand this EER registered.
            self.eer_admission.distributor.release_key(res_id)
            with self.store.transaction():
                for segment_id in reservation.segment_ids:
                    self.store.release_on_segment(segment_id, res_id)
                self.store.remove_eer(res_id)
            self.renewal_limiter.forget(res_id)
            if self.gateway is not None:
                self.gateway.uninstall(res_id)
            return
        try:
            reservation.drop_version(version)
        except VersionError:
            return  # the renewal version never landed here
        # Shrink the allocation back to what the surviving versions need.
        remaining = reservation.effective_bandwidth(now)
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

    def find_segment_chains(self, destination: IsdAs, limit: int = 5) -> list:
        """Up to ``limit`` distinct SegR chains to ``destination``,
        deduplicated on the combined AS path — the raw material for
        multipath reservations (§2.1)."""
        chains = []
        seen = set()
        for descriptors, path in self.iter_segment_chains(destination):
            if path.ases in seen:
                continue
            seen.add(path.ases)
            chains.append((descriptors, path))
            if len(chains) >= limit:
                break
        if not chains:
            raise NoPathError(
                f"no SegR chain from {self.isd_as} to {destination}; "
                "set up the missing segment reservations first"
            )
        return chains

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
        the returned id lists drive the per-reservation cleanup —
        segment-admission entries, registry rows, Eq. (3) tokens, the
        local gateway's entry of each expired EER (HopAuths, key
        schedules, token bucket), and the transfer-quota demand of
        expired EERs, which would otherwise accumulate forever and
        starve other up-SegRs' quotas.
        """
        now = self.clock.now()
        removed, dead_eers, dead_segments = self.store.sweep_expired_details(now)
        for reservation_id in dead_segments:
            self.seg_admission.release(reservation_id)
            self.registry.unregister(reservation_id)
            self._segment_tokens.pop(reservation_id, None)
        for reservation_id in dead_eers:
            self.eer_admission.distributor.release_key(reservation_id)
            # Only the source AS holds a renewal bucket and a gateway
            # entry for the EER; elsewhere both are no-ops.
            self.renewal_limiter.forget(reservation_id)
            if self.gateway is not None:
                self.gateway.uninstall(reservation_id)
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
