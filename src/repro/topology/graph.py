"""The AS-level topology graph (§2.2).

Models exactly the structure Colibri relies on:

* ASes grouped into **isolation domains (ISDs)**, each with **core** and
  **non-core** members;
* inter-domain links of two kinds: ``CORE`` links between core ASes
  (possibly across ISDs) and ``PARENT_CHILD`` links inside an ISD, the
  parent being the provider on the path towards the core;
* per-AS **interface IDs** — "unique within an AS and can be defined by
  each AS independently" — which are how paths name their hops;
* per-link **capacity**, from which the Colibri traffic split (§3.4)
  derives the bandwidth available for reservations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import TopologyError, UnknownASError
from repro.topology.addresses import IsdAs
from repro.util.sequence import SequenceAllocator
from repro.util.units import gbps

#: Interface ID 0 is reserved: it means "no interface", used at the first
#: hop's ingress and the last hop's egress of a segment (§2.2).
NO_INTERFACE = 0


class LinkType(enum.Enum):
    """Relationship encoded by an inter-domain link."""

    CORE = "core"  # between two core ASes
    PARENT_CHILD = "parent_child"  # provider (parent) -> customer (child)


@dataclass(frozen=True)
class Interface:
    """One end of an inter-domain link, owned by ``owner``."""

    owner: IsdAs
    ifid: int

    def __str__(self) -> str:
        return f"{self.owner}#{self.ifid}"


@dataclass(frozen=True)
class Link:
    """An inter-domain link between two interfaces with a capacity in bps.

    For ``PARENT_CHILD`` links, ``a`` is always the parent (provider) side.
    """

    a: Interface
    b: Interface
    link_type: LinkType
    capacity: float

    def other_end(self, this: IsdAs) -> Interface:
        """The interface at the far end as seen from AS ``this``."""
        if self.a.owner == this:
            return self.b
        if self.b.owner == this:
            return self.a
        raise TopologyError(f"AS {this} is not an endpoint of link {self}")

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}({self.link_type.value})"


@dataclass
class ASNode:
    """An autonomous system: ISD membership, core flag, and interfaces."""

    isd_as: IsdAs
    is_core: bool = False
    interfaces: dict = field(default_factory=dict)  # ifid -> Link
    _ifid_alloc: SequenceAllocator = field(default_factory=lambda: SequenceAllocator(first=1))

    @property
    def isd(self) -> int:
        return self.isd_as.isd

    def allocate_ifid(self) -> int:
        """Pick a fresh interface ID, unique within this AS (§2.2)."""
        return self._ifid_alloc.allocate()

    def __str__(self) -> str:
        kind = "core" if self.is_core else "non-core"
        return f"AS {self.isd_as} ({kind}, {len(self.interfaces)} ifaces)"


class Topology:
    """The global AS graph.

    Built imperatively: :meth:`add_as` then :meth:`add_link`.  The link
    constructor validates the SCION structural rules (core links connect
    core ASes; parent-child links stay inside one ISD with the parent
    closer to the core).
    """

    DEFAULT_CAPACITY = gbps(40.0)

    def __init__(self):
        self._ases: dict[IsdAs, ASNode] = {}
        self._links: list[Link] = []

    # -- construction -------------------------------------------------------

    def add_as(self, isd_as: IsdAs, is_core: bool = False) -> ASNode:
        if isd_as in self._ases:
            raise TopologyError(f"AS {isd_as} already exists")
        node = ASNode(isd_as=isd_as, is_core=is_core)
        self._ases[isd_as] = node
        return node

    def add_link(
        self,
        a: IsdAs,
        b: IsdAs,
        link_type: LinkType = None,
        capacity: float = None,
        ifid_a: Optional[int] = None,
        ifid_b: Optional[int] = None,
    ) -> Link:
        """Connect ``a`` and ``b``; for parent-child links ``a`` is the parent.

        The link type defaults to ``CORE`` when both endpoints are core
        ASes and ``PARENT_CHILD`` otherwise.
        """
        node_a = self.node(a)
        node_b = self.node(b)
        if link_type is None:
            link_type = (
                LinkType.CORE
                if node_a.is_core and node_b.is_core
                else LinkType.PARENT_CHILD
            )
        self._validate_link(node_a, node_b, link_type)
        if capacity is None:
            capacity = self.DEFAULT_CAPACITY
        if capacity <= 0:
            raise TopologyError(f"link capacity must be positive, got {capacity}")
        ifid_a = node_a.allocate_ifid() if ifid_a is None else ifid_a
        ifid_b = node_b.allocate_ifid() if ifid_b is None else ifid_b
        for node, ifid in ((node_a, ifid_a), (node_b, ifid_b)):
            if ifid in node.interfaces:
                raise TopologyError(f"interface {ifid} already in use at {node.isd_as}")
            if ifid == NO_INTERFACE:
                raise TopologyError("interface ID 0 is reserved")
        link = Link(
            a=Interface(owner=a, ifid=ifid_a),
            b=Interface(owner=b, ifid=ifid_b),
            link_type=link_type,
            capacity=capacity,
        )
        node_a.interfaces[ifid_a] = link
        node_b.interfaces[ifid_b] = link
        self._links.append(link)
        return link

    @staticmethod
    def _validate_link(node_a: ASNode, node_b: ASNode, link_type: LinkType) -> None:
        if link_type is LinkType.CORE:
            if not (node_a.is_core and node_b.is_core):
                raise TopologyError(
                    f"core link requires two core ASes: {node_a.isd_as}, {node_b.isd_as}"
                )
        else:
            if node_a.isd != node_b.isd:
                raise TopologyError(
                    "parent-child links must stay inside one ISD: "
                    f"{node_a.isd_as} vs {node_b.isd_as}"
                )
            if node_b.is_core:
                raise TopologyError(
                    f"child end of a parent-child link cannot be core AS {node_b.isd_as}"
                )

    # -- lookup --------------------------------------------------------------

    def node(self, isd_as: IsdAs) -> ASNode:
        node = self._ases.get(isd_as)
        if node is None:
            raise UnknownASError(f"unknown AS {isd_as}")
        return node

    def __contains__(self, isd_as: IsdAs) -> bool:
        return isd_as in self._ases

    def ases(self) -> Iterator[ASNode]:
        return iter(self._ases.values())

    def links(self) -> Iterator[Link]:
        return iter(self._links)

    def core_ases(self, isd: Optional[int] = None) -> list[ASNode]:
        """Core ASes, optionally restricted to one ISD."""
        return [
            node
            for node in self._ases.values()
            if node.is_core and (isd is None or node.isd == isd)
        ]

    def isds(self) -> set:
        return {node.isd for node in self._ases.values()}

    def link_between(self, a: IsdAs, b: IsdAs) -> Link:
        """The (first) direct link between two ASes, if any."""
        for link in self.node(a).interfaces.values():
            if link.other_end(a).owner == b:
                return link
        raise TopologyError(f"no link between {a} and {b}")

    def children(self, parent: IsdAs) -> list[IsdAs]:
        """Customer ASes one level below ``parent`` in its ISD hierarchy."""
        node = self.node(parent)
        result = []
        for link in node.interfaces.values():
            if link.link_type is LinkType.PARENT_CHILD and link.a.owner == parent:
                result.append(link.b.owner)
        return result

    def parents(self, child: IsdAs) -> list[IsdAs]:
        """Provider ASes one level above ``child``."""
        node = self.node(child)
        result = []
        for link in node.interfaces.values():
            if link.link_type is LinkType.PARENT_CHILD and link.b.owner == child:
                result.append(link.a.owner)
        return result

    def __len__(self) -> int:
        return len(self._ases)

    def __repr__(self) -> str:
        return (
            f"Topology({len(self._ases)} ASes, {len(self._links)} links, "
            f"{len(self.isds())} ISDs)"
        )
