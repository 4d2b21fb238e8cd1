"""Control-plane message authentication with DRKey (§4.5).

"The source AS calculates a MAC over the payload for each on-path AS,
using the key K_{AS_i -> SrcAS}.  AS_i can then efficiently recompute
this key on the fly and verify the authenticity of the payload.  The same
key is used to authenticate the information that AS_i itself adds to the
payload."

Key asymmetry does the heavy lifting here:

* **AS_i** (the verifier of the base payload, the author of a grant)
  *derives* ``K_{AS_i -> SrcAS}`` locally from its secret value — one
  PRF call, no state, no network — and uses that one key for the MAC
  check, its grant MAC and the Eq. (5) seal (the EER handlers derive it
  once per request and pass it to :meth:`_verify_under` /
  :meth:`_grant_under`; :meth:`verify_at` / :meth:`add_grant_mac`
  derive it themselves for everyone else);
* **the source AS** must *fetch* that key once per epoch from AS_i's key
  server — acceptable because it initiates requests deliberately, and
  impossible to exploit for DoS because the verifier side never fetches.

An :class:`AuthenticatedRequest` carries the immutable base payload, the
source's per-AS MACs over it, and a MAC per appended grant.  The response
path lets the initiator verify each AS's grant with the same keys.  The
initiator MACs the payload under all on-path keys in one batched pass
(:func:`~repro.crypto.prf.prf_under_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.keyserver import KeyServerDirectory
from repro.crypto.mac import constant_time_equal, mac
from repro.crypto.prf import prf_under_keys
from repro.dataplane.hvf import ColibriKeys
from repro.errors import MacVerificationError
from repro.packets.control import AsGrant, ControlMessage
from repro.packets.wire import Writer
from repro.topology.addresses import IsdAs


def _grant_bytes(grant: AsGrant, base: bytes) -> bytes:
    """MAC input binding a grant to the request it answers."""
    return Writer().raw(grant.isd_as.packed).f64(grant.granted).blob(base).finish()


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
        base = message.authenticated_bytes
        remote = [isd_as for isd_as in on_path if isd_as != source]
        keys = [directory.fetch_key(isd_as, source, when) for isd_as in remote]
        macs = dict(zip(remote, prf_under_keys(keys, base)))
        return cls(source=source, base_payload=base, source_macs=macs)

    def verify_at(self, keys: ColibriKeys, when: float = None) -> None:
        """On-path AS side: derive the key on the fly and check the MAC."""
        local = keys.local_as
        if local == self.source:
            return
        if local not in self.source_macs:  # nothing to derive a key for
            raise MacVerificationError(
                f"request from {self.source} carries no MAC for AS {local}"
            )
        self._verify_under(keys.control_key(self.source, when), local)

    def _verify_under(self, key: bytes, local: IsdAs) -> None:
        """Check the source's MAC for AS ``local`` under an already
        derived ``K_{local->Src}``."""
        tag = self.source_macs.get(local)
        if tag is None or not constant_time_equal(mac(key, self.base_payload), tag):
            raise MacVerificationError(
                f"control-plane MAC from {self.source} missing or wrong at AS {local}"
            )

    def add_grant_mac(self, keys: ColibriKeys, grant: AsGrant, when: float = None) -> None:
        """On-path AS side: authenticate the grant it appends, under the
        same ``K_{ASi->Src}`` key (derived, not fetched)."""
        self._grant_under(keys.control_key(self.source, when), grant)

    def _grant_under(self, key: bytes, grant: AsGrant) -> None:
        """Append the grant MAC under an already derived key."""
        self.grant_macs.append(
            (grant.isd_as, mac(key, _grant_bytes(grant, self.base_payload)))
        )

    def verify_grants(
        self,
        directory: KeyServerDirectory,
        grants: tuple,
        when: float = None,
    ) -> None:
        """Initiator side: verify every accumulated grant MAC.

        Raises on any mismatch — a transit AS manipulating another AS's
        grant is detected here, so bottleneck diagnosis can be trusted.
        """
        tags = dict()
        for isd_as, tag in self.grant_macs:
            tags[isd_as] = tag
        for grant in grants:
            if grant.isd_as == self.source:
                continue
            tag = tags.get(grant.isd_as)
            if tag is None:
                raise MacVerificationError(
                    f"grant from {grant.isd_as} carries no MAC"
                )
            key = directory.fetch_key(grant.isd_as, self.source, when)
            if not constant_time_equal(
                mac(key, _grant_bytes(grant, self.base_payload)), tag
            ):
                raise MacVerificationError(
                    f"grant MAC from {grant.isd_as} failed verification"
                )
