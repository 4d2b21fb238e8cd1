"""Hop validation fields: the two-step MAC scheme of §4.5 (Fig. 2).

Three computations, all over bytes that are explicit in the packet header
so routers need **no per-reservation state**:

* Eq. (3) — SegR token, embedded as the HVF of control packets::

      V_i^(S) = MAC_{K_i}(ResInfo || (In_i, Eg_i))[0:l_hvf]

* Eq. (4) — HopAuth, computed at EER setup, *untruncated* because it then
  serves as a secret per-reservation key shared between AS_i and the
  source AS's gateway::

      sigma_i = MAC_{K_i}(ResInfo || EERInfo || (In_i, Eg_i))

* Eq. (6) — per-packet HVF of EER data packets, computed by the gateway
  under sigma_i and re-derived by the router (which first recomputes
  sigma_i from its own K_i)::

      V_i^(E) = MAC_{sigma_i}(Ts || PktSize)[0:l_hvf]

``K_i`` is the AS's Colibri hop secret.  :class:`ColibriKeys` derives it
from the same per-AS master seed as the DRKey secret values, so the
CServ, gateway and border routers of one AS agree on keys without any
state sharing.
"""

from __future__ import annotations

import struct

from repro.constants import L_HVF
from repro.crypto import native
from repro.crypto.drkey import DrkeyDeriver, EntityId
from repro.crypto.mac import constant_time_equal, mac, truncated_mac
from repro.crypto.prf import prf, prf_context
from repro.errors import HvfMismatch
from repro.obs.profile import profiled
from repro.packets.fields import EerInfo, ResInfo, Timestamp

_PAIR = struct.Struct("!HH")
_SIZE = struct.Struct("!I")
_HOP_LABEL = b"colibri-hop-secret"


def _pair_bytes(ingress: int, egress: int) -> bytes:
    return _PAIR.pack(ingress, egress)


def segment_token(
    hop_key: bytes, res_info: ResInfo, ingress: int, egress: int
) -> bytes:
    """Eq. (3): the truncated SegR token for one AS."""
    return truncated_mac(hop_key, res_info.packed + _pair_bytes(ingress, egress), L_HVF)


def verify_segment_token(
    hop_key: bytes, res_info: ResInfo, ingress: int, egress: int, token: bytes
) -> None:
    """Recompute Eq. (3) on the fly and compare; raises on mismatch."""
    expected = segment_token(hop_key, res_info, ingress, egress)
    if not constant_time_equal(expected, token):
        raise HvfMismatch(
            f"SegR token mismatch for reservation {res_info.reservation} "
            f"at interface pair ({ingress}, {egress})"
        )


@profiled("hvf.hop_authenticator")
def hop_authenticator(
    hop_key: bytes, res_info: ResInfo, eer_info: EerInfo, ingress: int, egress: int
) -> bytes:
    """Eq. (4): the full-width HopAuth — a reservation-specific secret key."""
    data = res_info.packed + eer_info.packed + _pair_bytes(ingress, egress)
    return mac(hop_key, data)


def eer_hvf(hop_auth: bytes, timestamp: Timestamp, packet_size: int) -> bytes:
    """Eq. (6): the per-packet HVF stamped by the gateway.

    ``packet_size`` includes the Colibri header — authenticating the total
    size is what stops malicious source ASes flooding with tiny-payload
    packets and what lets the OFD normalize fairly (§4.8).
    """
    return truncated_mac(hop_auth, timestamp.packed + _SIZE.pack(packet_size), L_HVF)


def eer_hvf_message(timestamp: Timestamp, packet_size: int) -> bytes:
    """The MAC input of Eq. (6), ``Ts || PktSize``.

    One packet carries the same (Ts, PktSize) to every on-path AS, so the
    batch fast paths build these bytes once per packet and reuse them for
    all hops instead of re-packing them per HVF.
    """
    return timestamp.packed + _SIZE.pack(packet_size)


@profiled("hvf.sigma_states")
def sigma_states(hop_auths) -> tuple:
    """Raw prehashed Eq. (6) MAC states, one per HopAuth σ, path order.

    The gateway's stamp tables: bare ``blake2s`` objects rather than
    :class:`KeyedMacContext` wrappers, so the Fig. 5 hot loop
    (:func:`stamp_hvfs`) pays no attribute hop per HVF.  Built once per
    installed version — key scheduling happens at control-plane time,
    the software analogue of expanding AES round keys at setup.
    """
    return tuple(prf_context(sigma) for sigma in hop_auths)


@profiled("hvf.stamp_hvfs")
def stamp_hvfs(states, message: bytes, length: int = L_HVF) -> list:
    """Eq. (6) across all hops of one packet: the gateway's batch stamp.

    ``states`` holds one prehashed σ state per on-path AS (from
    :func:`sigma_states`); the shared ``message`` is
    :func:`eer_hvf_message`'s output.  Inlined clone/update/digest keeps
    the per-hop cost to three C calls — this loop is the dominant term
    of Fig. 5's long-path columns.
    """
    hvfs = []
    append = hvfs.append
    for state in states:
        clone = state.copy()
        clone.update(message)
        append(clone.digest()[:length])
    return hvfs


def backend_name() -> str:
    """Which Eq. (6) implementation the data plane is running on.

    ``"native"`` when the cffi BLAKE2s kernel loaded, ``"python"``
    otherwise.  ``benchmarks/e2e`` stores it with every result and
    ``tools/make_report.py`` prints it, so throughput is never compared
    across backends unknowingly.
    """
    return "native" if native.available() else "python"


def sigma_schedule(hop_auths, tag_len: int = L_HVF):
    """Native key schedules for an ordered σ set, or ``None``.

    The vectorized counterpart of :func:`sigma_states`: one contiguous
    C-side schedule block whose :meth:`~repro.crypto.native.ScheduleBlock.stamp_flat`
    / ``stamp_many_flat`` calls are byte-identical to looping
    :func:`stamp_hvfs`.  Returns ``None`` when the native
    backend is unavailable so callers keep the hashlib path.
    """
    backend = native.backend()
    if backend is None:
        return None
    return native.ScheduleBlock(backend, hop_auths, tag_len)


def burst_stamper(tag_len: int = L_HVF, slots: int = 64):
    """A native scatter stamper for mixed bursts, or ``None``.

    One :class:`~repro.crypto.native.BurstStamper` per data-plane
    component (the gateway holds one across bursts): the per-packet loop
    fills its plan arrays, then a single ``colibri_stamp_scatter_t`` call
    stamps every packet of the burst — the mixed-burst counterpart of
    :meth:`~repro.crypto.native.ScheduleBlock.stamp_many_flat`, with the
    same byte-identity contract.  ``None`` when the native backend is
    unavailable, in which case callers keep the per-packet paths.
    """
    backend = native.backend()
    if backend is None:
        return None
    return native.BurstStamper(backend, tag_len, slots)


@profiled("hvf.stamp_hvfs_batch")
def stamp_hvfs_batch(states, messages, length: int = L_HVF) -> list:
    """Eq. (6) for a whole burst: one flat HVF string per message.

    ``states`` is either a native
    :class:`~repro.crypto.native.ScheduleBlock` (all messages must then
    share one length — the gateway's fixed ``Ts || PktSize`` form) or
    the tuple from :func:`sigma_states`.  Element ``i`` of the result
    concatenates all hop tags of ``messages[i]`` in path order —
    exactly ``b"".join(stamp_hvfs(states, messages[i]))`` — ready to
    wrap in a :class:`~repro.packets.colibri.HvfVector` without
    per-hop list churn.
    """
    if isinstance(states, native.ScheduleBlock):
        if not messages:
            return []
        message_len = len(messages[0])
        flat = states.stamp_many_flat(b"".join(messages), message_len, len(messages))
        row = states.count * states.tag_len
        return [flat[offset : offset + row] for offset in range(0, len(flat), row)]
    out = []
    append = out.append
    join = b"".join
    for message in messages:
        tags = []
        for state in states:
            clone = state.copy()
            clone.update(message)
            tags.append(clone.digest()[:length])
        append(join(tags))
    return out


class ColibriKeys:
    """Per-AS key material for the data plane.

    Wraps the AS's :class:`~repro.crypto.drkey.DrkeyDeriver` and adds the
    Colibri hop secret ``K_i`` (Eqs. 3-4), derived per DRKey epoch from
    the same master seed.  All components of one AS constructed over the
    same deriver agree on every key.
    """

    def __init__(self, deriver: DrkeyDeriver):
        self.deriver = deriver
        self._hop_keys: dict[int, bytes] = {}

    @property
    def local_as(self) -> EntityId:
        return self.deriver.local_as

    def hop_key(self, when: float = None) -> bytes:
        """The AS secret ``K_i`` for the epoch covering ``when``."""
        secret = self.deriver.secret_for(when)
        key = self._hop_keys.get(secret.epoch)
        if key is None:
            key = prf(secret.value, _HOP_LABEL)
            self._hop_keys[secret.epoch] = key
        return key

    def control_key(self, remote: EntityId, when: float = None) -> bytes:
        """``K_{local->remote}`` used for control-plane MACs and the
        AEAD channel of Eq. (5)."""
        return self.deriver.as_key(remote, when)
