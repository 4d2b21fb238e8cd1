"""CServ request rate limiting (§4.2, §5.3).

Two limiters defend the control plane:

* :class:`RateLimiter` — per-key (usually per source AS) token-bucket on
  request *counts*: "the CServ can very efficiently filter unauthentic
  packets and employ per-AS rate limiting" against DoC floods;
* the same class keyed by reservation ID implements the per-EER renewal
  limit — "CServs can rate-limit the amount of renewal requests for an
  EER (e.g., to one per second)".
"""

from __future__ import annotations

from repro.errors import RateLimited


class RateLimiter:
    """Per-key token bucket counting requests per second."""

    def __init__(self, rate_per_second: float, burst: float = None):
        if rate_per_second <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_second}")
        self.rate = rate_per_second
        self.burst = burst if burst is not None else max(1.0, rate_per_second)
        self._state: dict = {}  # key -> (tokens, last_update)
        self.rejected = 0

    def allow(self, key, now: float) -> bool:
        """Consume one request slot for ``key``; False = rate limited."""
        tokens, updated = self._state.get(key, (self.burst, now))
        tokens = min(self.burst, tokens + (now - updated) * self.rate)
        if tokens >= 1.0:
            self._state[key] = (tokens - 1.0, now)
            return True
        self._state[key] = (tokens, now)
        self.rejected += 1
        return False

    def check(self, key, now: float) -> None:
        """Like :meth:`allow` but raises :class:`RateLimited`."""
        if not self.allow(key, now):
            raise RateLimited(f"request rate for {key} exceeded {self.rate}/s")

    def forget(self, key) -> None:
        """Drop state for a key (e.g. an expired reservation)."""
        self._state.pop(key, None)
