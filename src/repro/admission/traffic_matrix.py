"""Per-AS Colibri capacity: the local traffic matrix (§4.7).

"As a first step, any two neighboring ASes agree on the bandwidth
available for Colibri traffic (the traffic split in §3.4) on their
inter-domain link […]  Based on these, each AS can define a local traffic
matrix that describes the allocation of Colibri traffic between
interface pairs."

The matrix answers two questions during admission:

* :meth:`interface_capacity` — Colibri bandwidth of one interface, the
  cap in the demand-adjustment rules;
* :meth:`pair_capacity` — bandwidth the AS allocates between a specific
  ingress-egress pair, defaulting to the smaller endpoint but overridable
  per pair (an AS may reserve transit capacity asymmetrically).

Interface 0 ("no interface") is the AS-internal side — the origin of
reservations this AS initiates and the sink of those terminating here.
Its capacity defaults to the *sum* of the external interfaces: an AS can
legitimately originate up to its total egress capacity, and internal
fabric is not the contended resource the paper models.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import CONTROL_SHARE, EER_SHARE
from repro.errors import TopologyError
from repro.topology.graph import NO_INTERFACE, ASNode

#: Fraction of raw link capacity available to Colibri (control + EER data);
#: the remaining 20 % is pinned to best-effort traffic (§3.4).
DEFAULT_COLIBRI_SHARE = CONTROL_SHARE + EER_SHARE


class TrafficMatrix:
    """Colibri capacities for one AS's interfaces and interface pairs."""

    def __init__(
        self,
        node: ASNode,
        colibri_share: float = DEFAULT_COLIBRI_SHARE,
        internal_capacity: Optional[float] = None,
    ):
        if not 0 < colibri_share <= 1:
            raise ValueError(f"colibri share must be in (0, 1], got {colibri_share}")
        self.node = node
        self.colibri_share = colibri_share
        self._interface_capacity: dict[int, float] = {
            ifid: link.capacity * colibri_share
            for ifid, link in node.interfaces.items()
        }
        if internal_capacity is None:
            internal_capacity = sum(self._interface_capacity.values())
        self._interface_capacity[NO_INTERFACE] = internal_capacity

    def interface_capacity(self, ifid: int) -> float:
        """Colibri bandwidth of interface ``ifid`` (bps)."""
        capacity = self._interface_capacity.get(ifid)
        if capacity is None:
            raise TopologyError(
                f"AS {self.node.isd_as} has no interface {ifid} in its traffic matrix"
            )
        return capacity

    def pair_capacity(self, ingress: int, egress: int) -> float:
        """Colibri bandwidth between an interface pair.

        Defaults to ``min(capacity(ingress), capacity(egress))`` — traffic
        through the pair can exceed neither side.
        """
        return min(self.interface_capacity(ingress), self.interface_capacity(egress))

    def interfaces(self) -> list:
        return sorted(self._interface_capacity)

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix({self.node.isd_as}, share={self.colibri_share}, "
            f"{len(self._interface_capacity)} interfaces)"
        )
