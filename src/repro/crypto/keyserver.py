"""DRKey key servers and the fetch protocol (§2.3).

The slow side of DRKey: AS *B* cannot derive ``K_{A->B}`` itself, so it
requests the key from *A*'s key server.  In the real system that exchange
is protected by public-key cryptography and performed "ahead of time"
because keys live for about a day; here the directory plays the role of
the PKI-authenticated transport, and a per-requester cache reproduces the
prefetching behaviour.

Authorization matters: a key server must only hand ``K_{A->B}`` to *B*
itself, otherwise any AS could impersonate any source.  The directory
enforces that by passing the authenticated identity of the requester.
"""

from __future__ import annotations

from repro.crypto.drkey import DrkeyDeriver, EntityId, encode_entity
from repro.errors import KeyFetchError
from repro.util.clock import Clock


class KeyServer:
    """Serves AS-level DRKeys derived from the local AS's secret values."""

    def __init__(self, deriver: DrkeyDeriver):
        self.deriver = deriver
        self.fetch_count = 0  # observability: how often remotes hit us

    @property
    def local_as(self) -> EntityId:
        return self.deriver.local_as

    def fetch(self, requester: EntityId, when: float = None) -> bytes:
        """Return ``K_{local->requester}`` to the (authenticated) requester.

        The epoch is chosen from ``when`` (default: the server's clock),
        matching the prefetch pattern where *B* may ask for the key of the
        upcoming epoch before it starts.
        """
        self.fetch_count += 1
        return self.deriver.as_key(requester, when)


class KeyServerDirectory:
    """The reachability fabric between key servers.

    Stands in for the global PKI-protected fetch path.  Each AS registers
    its server; a remote AS calls :meth:`fetch_key` naming itself as the
    requester — the directory models the transport authenticating that
    identity (certificate check in the real system).

    Fetched keys are cached per ``(owner, requester, epoch)``; repeated
    lookups within an epoch never hit the remote server again, matching
    the "fetched ahead of time and only infrequently renewed" behaviour.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self._servers: dict[bytes, KeyServer] = {}
        self._cache: dict[tuple[bytes, bytes, int], bytes] = {}

    def register(self, server: KeyServer) -> None:
        self._servers[encode_entity(server.local_as)] = server

    def fetch_key(self, owner: EntityId, requester: EntityId, when: float = None) -> bytes:
        """Fetch ``K_{owner->requester}`` on behalf of ``requester``."""
        if when is None:
            when = self.clock.now()
        # An IsdAs carries its wire form; anything else is encoded.
        owner_key = getattr(owner, "packed", None)
        if type(owner_key) is not bytes:
            owner_key = encode_entity(owner)
        server = self._servers.get(owner_key)
        if server is None:
            raise KeyFetchError(f"no key server registered for AS {owner!r}")
        requester_key = getattr(requester, "packed", None)
        if type(requester_key) is not bytes:
            requester_key = encode_entity(requester)
        epoch = server.deriver.secret_for(when).epoch
        cache_key = (owner_key, requester_key, epoch)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        key = server.fetch(requester, when)
        self._cache[cache_key] = key
        return key
