"""DRKey: dynamically-recreatable symmetric keys (§2.3, Eq. 1).

Each AS *A* holds a secret value ``K_A``.  The AS-level key shared with
another AS *B* is derived on the fly:

    K_{A->B} = PRF_{K_A}(B)

The arrow marks the asymmetry: *A* derives the key instantly from its
secret value; *B* must fetch it from *A*'s key server once per validity
period (:mod:`repro.crypto.keyserver`).  Host-level keys are derived from
the AS-level key by a further PRF step, as footnote 2 of the paper notes.

Secret values rotate: a :class:`DrkeySecret` is bound to an epoch of
``DRKEY_VALIDITY`` seconds, and a :class:`DrkeyDeriver` manages the
rotation so keys derived in one epoch verify only within it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.constants import DRKEY_VALIDITY
from repro.crypto.prf import prf, random_key
from repro.util.clock import Clock

EntityId = Union[bytes, str, int]


def encode_entity(entity: EntityId) -> bytes:
    """Canonical byte encoding of an AS or host identifier.

    Accepts raw bytes, strings (e.g. ``'1-ff00:0:110'``), integers, or any
    object exposing a ``packed`` bytes attribute (like
    :class:`repro.topology.addresses.IsdAs`).
    """
    packed = getattr(entity, "packed", None)
    if packed is not None:
        return bytes(packed)
    if isinstance(entity, bytes):
        return entity
    if isinstance(entity, str):
        return entity.encode("utf-8")
    if isinstance(entity, int):
        return entity.to_bytes(8, "big")
    raise TypeError(f"cannot encode entity of type {type(entity).__name__}")


def derive_as_key(secret_value: bytes, remote: EntityId) -> bytes:
    """Eq. (1): the AS-level key ``K_{A->B}`` from A's secret value."""
    return prf(secret_value, b"as|" + encode_entity(remote))


def derive_host_key(as_key: bytes, host: EntityId) -> bytes:
    """Colibri's host-specific key below ``K_{A->B}`` (footnote 2)."""
    return prf(as_key, b"host|colibri|" + encode_entity(host))


@dataclass(frozen=True)
class DrkeySecret:
    """An epoch-bound AS secret value.

    ``epoch`` is the integer index ``floor(creation_time / DRKEY_VALIDITY)``;
    keys derived from this secret are valid for that epoch only.
    """

    value: bytes
    epoch: int


class DrkeyDeriver:
    """Manages an AS's secret values across epochs and derives keys.

    The same object serves both roles of Eq. (1): the fast side (deriving
    ``K_{A->B}`` from the local secret value) and, combined with a
    :class:`~repro.crypto.keyserver.KeyServer`, the slow side (answering
    fetches from remote ASes).
    """

    def __init__(self, local_as: EntityId, clock: Clock, seed: bytes = None):
        self.local_as = local_as
        self.clock = clock
        # A master seed lets epochs rotate deterministically, so two
        # components of the same AS (CServ, router, gateway) can be built
        # independently yet derive identical keys.
        self._master = seed if seed is not None else random_key()
        self._secrets: dict[int, DrkeySecret] = {}

    def secret_for(self, when: float = None) -> DrkeySecret:
        """The secret value covering time ``when`` (default: now).  Those of
        the newest two epochs are kept; an older one is derived again."""
        if when is None:
            when = self.clock.now()
        epoch = int(when // DRKEY_VALIDITY)
        secret = self._secrets.get(epoch)
        if secret is None:
            value = prf(self._master, b"sv|" + epoch.to_bytes(8, "big"))
            secret = self._secrets[epoch] = DrkeySecret(value=value, epoch=epoch)
            if len(self._secrets) > 2:
                del self._secrets[min(self._secrets)]
        return secret

    def as_key(self, remote: EntityId, when: float = None) -> bytes:
        """Derive ``K_{local->remote}`` for the epoch covering ``when``."""
        return derive_as_key(self.secret_for(when).value, remote)
