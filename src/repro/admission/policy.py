"""Intra-AS admission policies for EERs (§4.7, §5.2).

"It falls to the AS in which H_S is situated to set limits on the maximum
bandwidth that H_S can request.  This intra-AS admission policy can be
defined by each AS independently."  Source and destination ASes run such
a policy; the library ships two and applications can subclass
:class:`AdmissionPolicy` for their own.

The policy is also the EER-level defense of §5.2: since source and
destination ASes "have direct business relationships with end hosts and
control their address space, they can easily define and enforce these
rules".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict

from repro.errors import PolicyDenied
from repro.topology.addresses import HostAddr


class AdmissionPolicy(ABC):
    """Decides whether a local host may hold the requested EER bandwidth."""

    @abstractmethod
    def authorize(self, host: HostAddr, requested: float) -> None:
        """Raise :class:`PolicyDenied` if the host may not have ``requested``
        additional bits per second; otherwise record the allocation."""

    @abstractmethod
    def release(self, host: HostAddr, bandwidth: float) -> None:
        """Return previously authorized bandwidth (EER expired)."""


class AllowAllPolicy(AdmissionPolicy):
    """No intra-AS restrictions — the permissive default for experiments."""

    def authorize(self, host: HostAddr, requested: float) -> None:
        if requested < 0:
            raise PolicyDenied(f"negative bandwidth request {requested}")

    def release(self, host: HostAddr, bandwidth: float) -> None:
        pass


class PerHostCapPolicy(AdmissionPolicy):
    """Caps the aggregate EER bandwidth each host may hold.

    The canonical "direct business relationship" policy: a host's plan
    entitles it to ``cap`` bps across all its EERs.
    """

    def __init__(self, cap: float):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self.cap = cap
        self._in_use: dict[HostAddr, float] = defaultdict(float)

    def in_use(self, host: HostAddr) -> float:
        return self._in_use.get(host, 0.0)

    def authorize(self, host: HostAddr, requested: float) -> None:
        if requested < 0:
            raise PolicyDenied(f"negative bandwidth request {requested}")
        cap = self.cap
        used = self._in_use[host]
        if used + requested > cap:
            raise PolicyDenied(
                f"host {host} would hold {used + requested:.0f} bps, cap is {cap:.0f}",
                granted=max(0.0, cap - used),
            )
        self._in_use[host] = used + requested

    def release(self, host: HostAddr, bandwidth: float) -> None:
        self._in_use[host] = max(0.0, self._in_use[host] - bandwidth)
