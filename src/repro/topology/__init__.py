"""SCION-style topology substrate (§2.2).

ASes are grouped into isolation domains (ISDs) with core and non-core
ASes.  Routing discovers up-, down-, and core-segments; source hosts
combine at most one of each into an end-to-end path.  Inter-domain links
are identified by per-AS interface IDs.
"""

from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.beaconing import Beaconing
from repro.topology.generator import (
    add_multihoming,
    build_caida_like,
    build_core_mesh,
    build_internet_like,
    build_line_topology,
    build_power_law,
    build_two_isd_topology,
)
from repro.topology.graph import ASNode, Interface, Link, Topology
from repro.topology.paths import EndToEndPath, PathLookup, combine_segments
from repro.topology.segments import HopField, Segment, SegmentType
from repro.topology.serialization import (
    dump_topology,
    dumps_topology,
    load_topology,
    loads_topology,
)

__all__ = [
    "IsdAs",
    "HostAddr",
    "Topology",
    "ASNode",
    "Interface",
    "Link",
    "SegmentType",
    "HopField",
    "Segment",
    "Beaconing",
    "EndToEndPath",
    "PathLookup",
    "combine_segments",
    "build_line_topology",
    "build_two_isd_topology",
    "build_core_mesh",
    "build_internet_like",
    "build_power_law",
    "build_caida_like",
    "add_multihoming",
    "dump_topology",
    "dumps_topology",
    "load_topology",
    "loads_topology",
]
