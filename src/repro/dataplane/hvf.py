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

from repro.constants import DRKEY_VALIDITY, L_HVF
from repro.crypto import native
from repro.crypto.aead import KeyContext
from repro.crypto.drkey import DrkeyDeriver, EntityId, encode_entity
from repro.crypto.mac import mac, truncated_mac
from repro.crypto.prf import prf, prf_context
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


def sigma_states(hop_auths) -> tuple:
    """Raw prehashed Eq. (6) MAC states, one per HopAuth σ, path order.

    The gateway's stamp tables: bare ``blake2s`` objects rather than
    :class:`~repro.crypto.aead.KeyContext` wrappers, so the Fig. 5 hot loop
    (:func:`stamp_hvfs`) pays no attribute hop per HVF.  Built once per
    installed version — key scheduling happens at control-plane time,
    the software analogue of expanding AES round keys at setup.
    """
    return tuple(prf_context(sigma) for sigma in hop_auths)


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
    return "native" if native.backend() is not None else "python"


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
    return [b"".join(stamp_hvfs(states, message, length)) for message in messages]


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
        self._control_keys: dict[int, dict] = {}  # epoch -> {remote: key}

    @property
    def local_as(self) -> EntityId:
        return self.deriver.local_as

    def hop_key(self, when: float = None) -> bytes:
        """The AS secret ``K_i`` for the epoch covering ``when``."""
        if when is None:
            when = self.deriver.clock.now()
        epoch = int(when // DRKEY_VALIDITY)
        key = self._hop_keys.get(epoch)
        if key is None:
            secret = self.deriver.secret_for(when).value
            key = self._hop_keys[epoch] = prf(secret, _HOP_LABEL)
            if len(self._hop_keys) > 2:  # the current and previous epochs
                del self._hop_keys[min(self._hop_keys)]
        return key

    def control_key(self, remote: EntityId, when: float = None, check=None) -> KeyContext:
        """``K_{local->remote}``, the key of the control-plane MACs and the
        AEAD channel of Eq. (5): one :class:`KeyContext` per (remote, DRKey
        epoch), memoized for the current and previous epochs.

        ``check(key)`` verifies a MAC from ``remote``, raising on a
        mismatch; it runs on every call, and a key derived on a miss is
        memoized only after it passed, so a forged source plants nothing
        (store-after-validate, as in the flow table).  Without it the caller
        vouches for ``remote`` (the local AS).  The memo is soft state:
        emptying it changes no verdict, only the derivation count.
        """
        if when is None:
            when = self.deriver.clock.now()
        epoch = int(when // DRKEY_VALIDITY)
        packed = getattr(remote, "packed", None)  # an IsdAs's wire form
        if type(packed) is not bytes:
            packed = encode_entity(remote)
        memo = self._control_keys.get(epoch)
        key = memo.get(packed) if memo is not None else None
        fresh = key is None
        if fresh:
            key = KeyContext(self.deriver.as_key(remote, when))
        if check is not None:
            check(key)
        if fresh:
            self._control_keys.setdefault(epoch, {})[packed] = key
            if len(self._control_keys) > 2:
                del self._control_keys[min(self._control_keys)]
        return key
