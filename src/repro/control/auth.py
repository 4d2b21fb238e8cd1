"""Control-plane message authentication with DRKey (§4.5).

"The source AS calculates a MAC over the payload for each on-path AS,
using the key K_{AS_i -> SrcAS}.  AS_i can then efficiently recompute
this key on the fly and verify the authenticity of the payload.  The same
key is used to authenticate the information that AS_i itself adds to the
payload."

Key asymmetry does the heavy lifting here:

* **AS_i** (the verifier of the base payload, the author of a grant)
  *derives* ``K_{AS_i -> SrcAS}`` locally from its secret value — one
  PRF call, no network — and uses that one key for the MAC check, its
  grant MAC and the Eq. (5) seal.  The key is a
  :class:`~repro.crypto.aead.KeyContext` from
  :meth:`ColibriKeys.control_key`, derived once per (source, DRKey
  epoch) and memoized only after the source's MAC verified under it;
* **the source AS** must *fetch* that key once per epoch from AS_i's key
  server — acceptable because it initiates requests deliberately, and
  impossible to exploit for DoS because the verifier side never fetches.
  The directory caches the fetched key objects; within one request the
  initiator looks each up once and signs, checks grants and opens
  HopAuths with that ``{AS: key}`` map (:meth:`AuthenticatedRequest.signed`).

An :class:`AuthenticatedRequest` carries the immutable base payload, the
source's per-AS MACs over it, and a MAC per appended grant.  The response
path lets the initiator verify each AS's grant with the same keys.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.crypto.aead import KeyContext
from repro.crypto.keyserver import KeyServerDirectory
from repro.crypto.mac import constant_time_equal
from repro.dataplane.hvf import ColibriKeys
from repro.errors import MacVerificationError
from repro.packets.control import AsGrant, ControlMessage
from repro.topology.addresses import IsdAs


#: A grant's MAC input: the AS, its offer, then the request it answers
#: (length-prefixed) — the :class:`~repro.packets.wire.Writer` layout.
_GRANT_HEAD = struct.Struct("!8sdI")


def _grant_bytes(grant: AsGrant, base: bytes) -> bytes:
    """MAC input binding a grant to the request it answers."""
    return _GRANT_HEAD.pack(grant.isd_as.packed, grant.granted, len(base)) + base


@dataclass
class AuthenticatedRequest:
    """A control message plus its DRKey authentication material."""

    source: IsdAs
    base_payload: bytes  # the initiator's immutable message bytes
    source_macs: dict  # IsdAs -> MAC_{K_{ASi->Src}}(base_payload)
    grant_macs: list = field(default_factory=list)  # [(IsdAs, mac)] per grant

    @classmethod
    def create(
        cls,
        directory: KeyServerDirectory,
        source: IsdAs,
        on_path: list,
        message: ControlMessage,
        when: float = None,
    ) -> "AuthenticatedRequest":
        """Initiator side: fetch ``K_{ASi->Src}`` for every on-path AS
        and MAC the payload once per AS (no MAC to self)."""
        keys = {
            isd_as: directory.fetch_key(isd_as, source, when)
            for isd_as in on_path if isd_as != source
        }
        return cls.signed(keys, source, message)

    @classmethod
    def signed(cls, keys: dict, source: IsdAs, message: ControlMessage):
        """MAC ``message`` under each fetched ``K_{ASi->Src}`` of ``keys``
        (on-path AS -> key), skipping the source's own."""
        base = message.authenticated_bytes
        macs = {
            isd_as: key.mac(base) for isd_as, key in keys.items() if isd_as != source
        }
        return cls(source, base, macs)

    def verify_at(self, keys: ColibriKeys, when: float = None) -> None:
        """On-path AS side: derive the key on the fly and check the MAC."""
        local = keys.local_as
        if local == self.source:
            return
        if local not in self.source_macs:  # nothing to derive a key for
            raise MacVerificationError(
                f"request from {self.source} carries no MAC for AS {local}"
            )
        keys.control_key(self.source, when, lambda key: self._verify_under(key, local))

    def _verify_under(self, key: KeyContext, local: IsdAs) -> None:
        """Check the source's MAC for AS ``local`` under an already
        derived ``K_{local->Src}``."""
        tag = self.source_macs.get(local)
        if tag is None or not constant_time_equal(key.mac(self.base_payload), tag):
            raise MacVerificationError(
                f"control-plane MAC from {self.source} missing or wrong at AS {local}"
            )

    def _grant_under(self, key: KeyContext, grant: AsGrant) -> None:
        """On-path AS side: authenticate the grant it appends, under the
        same (derived, not fetched) ``K_{ASi->Src}``."""
        self.grant_macs.append(
            (grant.isd_as, key.mac(_grant_bytes(grant, self.base_payload)))
        )

    def verify_grants(self, keys: dict, grants: tuple) -> None:
        """Initiator side: verify every accumulated grant MAC under the
        on-path keys the request was signed with (AS -> key).

        Raises on any mismatch — a transit AS manipulating another AS's
        grant is detected here, so bottleneck diagnosis can be trusted.
        """
        tags = dict(self.grant_macs)
        for grant in grants:
            if grant.isd_as == self.source:
                continue
            tag = tags.get(grant.isd_as)
            key = keys.get(grant.isd_as)
            if tag is None or key is None:
                raise MacVerificationError(
                    f"grant from {grant.isd_as} carries no MAC for this path"
                )
            if not constant_time_equal(
                key.mac(_grant_bytes(grant, self.base_payload)), tag
            ):
                raise MacVerificationError(
                    f"grant MAC from {grant.isd_as} failed verification"
                )
