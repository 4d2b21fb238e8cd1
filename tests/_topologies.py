"""Test topologies that no product code builds."""

from __future__ import annotations

from repro.topology.generator import DEFAULT_CAPACITY, _meshed_cores
from repro.topology.graph import Topology


def build_core_mesh(size: int, capacity: float = DEFAULT_CAPACITY) -> Topology:
    """``size`` core ASes of ISD 1, fully meshed: maximal path choice."""
    topology = Topology()
    _meshed_cores(topology, 1, size, capacity)
    return topology
