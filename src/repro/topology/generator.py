"""Synthetic topology generators.

The paper evaluates on commodity hardware with synthetic workloads; the
reproduction needs topologies of controlled shape.  Four generators cover
the spectrum:

* :func:`build_line_topology` — a chain of core ASes, the minimal shape
  for admission and forwarding benches with exact path lengths (Figs. 3-6
  sweep path length and reservation counts on such chains);
* :func:`build_two_isd_topology` — the canonical integration fixture: two
  ISDs, trees of non-core ASes, matching Fig. 1's S - X - Y - Z shape;
* :func:`build_internet_like` — a hierarchy of ISDs, several cores each,
  over binary customer trees, for scalability tests;
* :func:`build_caida_like` — thousands of ASes shaped like the measured
  AS graph: heavy-tailed customer cones under a peered tier-1 core,
  with multihomed leaves, for the Internet-scale scenario campaigns.

Each takes only what its callers vary (sizes and a seed); the shape
parameters are the module constants below.  :func:`add_multihoming`
retrofits secondary provider uplinks onto any generated hierarchy.
"""

from __future__ import annotations

import random
from collections import deque

from repro.errors import TopologyError
from repro.topology.addresses import IsdAs
from repro.topology.graph import LinkType, Topology
from repro.util.units import gbps

DEFAULT_CAPACITY = gbps(40.0)

#: Capacity halving stops at this tier: real access networks bottom out
#: at a floor, and an unbounded decay would starve deep leaves of any
#: reservable bandwidth.
MAX_CAPACITY_TIER = 4

#: Customers per provider at every level of :func:`build_internet_like`.
CHILDREN_PER_NODE = 2

# build_caida_like's shape: Pareto exponent of provider attractiveness
# (must exceed 1) and its clamp, inter-ISD peering chords per ISD, the
# share of single-homed ASes given a second provider, and the per-tier
# capacity factor (in (0, 1]).
PARETO_ALPHA = 2.1
MAX_ATTRACTIVENESS = 256.0
PEERING_DEGREE = 1.0
MULTIHOME_FRACTION = 0.15
TIER_CAPACITY_DECAY = 0.5


def _as_id(isd: int, index: int) -> IsdAs:
    """Deterministic AS numbering: readable and unique per generator call."""
    return IsdAs(isd=isd, asn=0xFF00_0000_0000 + index)


def _tier_capacity(depth: int) -> float:
    """Link capacity for a customer at ``depth`` hops below the core."""
    return DEFAULT_CAPACITY * TIER_CAPACITY_DECAY ** min(depth, MAX_CAPACITY_TIER)


def _core_depths(topology: Topology) -> dict:
    """Provider-tree depth of every AS: hops below the nearest core.

    BFS over PARENT_CHILD links from all cores at once; with multihoming
    an AS's depth is the *shortest* provider chain, which is what the
    capacity-monotonicity argument needs.
    """
    depths = {}
    queue = deque()
    for node in topology.ases():
        if node.is_core:
            depths[node.isd_as] = 0
            queue.append(node.isd_as)
    while queue:
        current = queue.popleft()
        for child in topology.children(current):
            if child not in depths:
                depths[child] = depths[current] + 1
                queue.append(child)
    return depths


def add_multihoming(topology: Topology, fraction: float, rng: random.Random) -> int:
    """Give a fraction of single-homed ASes a secondary provider uplink.

    Real stub ASes are frequently multihomed; a pure provider tree
    understates path diversity and makes every leaf a single point of
    failure for the partition campaigns.  For each non-core AS with
    exactly one provider, with probability ``fraction`` add a second
    PARENT_CHILD uplink to a same-ISD AS strictly closer to the core.
    Choosing a strictly shallower provider keeps the provider DAG
    acyclic (beaconing's downward walk terminates) and keeps per-tier
    capacities non-increasing toward the leaves.

    The secondary uplink copies the primary uplink's capacity.  Returns
    the number of uplinks added.  Draws from ``rng``, so it is
    deterministic per seed of the caller's random stream.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"multihome fraction must be in [0, 1], got {fraction}")
    depths = _core_depths(topology)
    by_isd: dict = {}
    for node in topology.ases():
        by_isd.setdefault(node.isd_as.isd, []).append(node.isd_as)
    added = 0
    for node in list(topology.ases()):
        if node.is_core:
            continue
        isd_as = node.isd_as
        parents = topology.parents(isd_as)
        if len(parents) != 1:
            continue
        if rng.random() >= fraction:
            continue
        depth = depths.get(isd_as)
        if depth is None:
            continue
        candidates = [
            other
            for other in by_isd[isd_as.isd]
            if other != parents[0] and depths.get(other, depth) < depth
        ]
        if not candidates:
            continue
        provider = rng.choice(candidates)
        primary = topology.link_between(isd_as, parents[0])
        topology.add_link(provider, isd_as, LinkType.PARENT_CHILD, primary.capacity)
        added += 1
    return added


def _meshed_cores(
    topology: Topology, isd: int, count: int, capacity: float = DEFAULT_CAPACITY
) -> list:
    """Add ``count`` core ASes to ``isd``, fully meshed; return them."""
    cores = []
    for index in range(count):
        core = _as_id(isd, index + 1)
        topology.add_as(core, is_core=True)
        cores.append(core)
    for i, a in enumerate(cores):
        for b in cores[i + 1 :]:
            topology.add_link(a, b, LinkType.CORE, capacity)
    return cores


def _link_once(topology: Topology, a: IsdAs, b: IsdAs) -> bool:
    """Add a core link between ``a`` and ``b`` unless one exists."""
    try:
        topology.link_between(a, b)
    except TopologyError:
        topology.add_link(a, b, LinkType.CORE, DEFAULT_CAPACITY)
        return True
    return False


def _core_ring(topology: Topology, all_cores: list) -> None:
    """Ring over the first core of each ISD: one link per adjacent pair
    (with two ISDs, the two directions of the ring are one pair)."""
    if len(all_cores) < 2:
        return
    for index, cores in enumerate(all_cores):
        _link_once(topology, cores[0], all_cores[(index + 1) % len(all_cores)][0])


def build_line_topology(length: int, capacity: float = DEFAULT_CAPACITY) -> Topology:
    """A chain of ``length`` core ASes of ISD 1 joined by core links.

    Every AS pair at distance d has exactly one d-hop core-segment, which
    makes expected admission state and path lengths trivially computable
    in benchmarks.
    """
    if length < 1:
        raise ValueError(f"line topology needs at least 1 AS, got {length}")
    topology = Topology()
    previous = None
    for index in range(length):
        isd_as = _as_id(1, index + 1)
        topology.add_as(isd_as, is_core=True)
        if previous is not None:
            topology.add_link(previous, isd_as, LinkType.CORE, capacity)
        previous = isd_as
    return topology


def build_two_isd_topology() -> Topology:
    """Two ISDs with one core AS each and two levels of customers.

    Shape (parent-child edges point down)::

        ISD 1:        core1 ---------- core2        :ISD 2
                      /   \\              /  \\
                   as11   as12        as21  as22
                    /       \\          /
                 as111     as121     as211

    Hosts in ``as111`` talking to ``as211`` exercise the full
    up + core + down combination with a transfer AS at each core; pairs
    under one core exercise shortcuts.
    """
    topology = Topology()
    core1 = _as_id(1, 1)
    core2 = _as_id(2, 1)
    topology.add_as(core1, is_core=True)
    topology.add_as(core2, is_core=True)
    topology.add_link(core1, core2, LinkType.CORE, DEFAULT_CAPACITY)

    def grow(isd: int, core: IsdAs, children: int, grandchildren: list) -> list:
        added = []
        for child_index in range(children):
            child = _as_id(isd, 10 + child_index + 1)
            topology.add_as(child, is_core=False)
            topology.add_link(core, child, LinkType.PARENT_CHILD, DEFAULT_CAPACITY)
            added.append(child)
            for grand_index in range(grandchildren[child_index]):
                grand = _as_id(isd, 100 + child_index * 10 + grand_index + 1)
                topology.add_as(grand, is_core=False)
                topology.add_link(child, grand, LinkType.PARENT_CHILD, DEFAULT_CAPACITY)
                added.append(grand)
        return added

    grow(1, core1, 2, [1, 1])
    grow(2, core2, 2, [1, 0])
    return topology


def build_internet_like(
    isd_count: int = 3,
    cores_per_isd: int = 2,
    depth: int = 2,
    seed: int = 7,
) -> Topology:
    """A hierarchy of ``isd_count`` ISDs with branching customer trees.

    Core ASes inside an ISD are fully meshed; across ISDs a ring plus
    random chords connects the cores, giving multiple core-segments per
    pair.  Every non-core AS has one provider (a tree of
    :data:`CHILDREN_PER_NODE`-way branching, ``depth`` levels), which
    matches the segment model; :func:`add_multihoming` adds second
    providers.
    """
    if isd_count < 1 or cores_per_isd < 1:
        raise ValueError("need at least one ISD and one core AS per ISD")
    rng = random.Random(seed)
    topology = Topology()
    all_cores = []

    for isd in range(1, isd_count + 1):
        cores = _meshed_cores(topology, isd, cores_per_isd)
        all_cores.append(cores)

        next_id = 100
        frontier = list(cores)
        for _level in range(depth):
            new_frontier = []
            for parent in frontier:
                for _child in range(CHILDREN_PER_NODE):
                    child = _as_id(isd, next_id)
                    next_id += 1
                    topology.add_as(child, is_core=False)
                    topology.add_link(parent, child, LinkType.PARENT_CHILD, DEFAULT_CAPACITY)
                    new_frontier.append(child)
            frontier = new_frontier

    # Inter-ISD core connectivity: ring over the first core of each ISD,
    # then random chords between remaining cores for path diversity.
    _core_ring(topology, all_cores)
    flattened = [core for cores in all_cores for core in cores]
    for _ in range(max(0, isd_count - 2)):
        _link_once(topology, *rng.sample(flattened, 2))
    return topology


def build_caida_like(
    as_count: int = 2000,
    isd_count: int = 8,
    tier1_per_isd: int = 3,
    seed: int = 29,
) -> Topology:
    """A CAIDA-like AS graph: heavy-tailed customer cones under a peered
    tier-1 core, with multihomed leaves.

    Three structural properties of the measured AS graph matter for the
    Internet-scale campaigns:

    * **heavy-tailed customer cones** — provider attractiveness is drawn
      from a Pareto(:data:`PARETO_ALPHA`) distribution (clamped at
      :data:`MAX_ATTRACTIVENESS`), so a handful of tier-1/tier-2
      providers accumulate cones of hundreds of customers while most
      ASes are stubs.  Attachment probability is proportional to drawn
      attractiveness × (customers so far + 1), i.e. preferential
      attachment with intrinsic fitness;
    * **a peered core** — ``tier1_per_isd`` cores per ISD are meshed
      intra-ISD, ring-connected across ISDs, and then
      :data:`PEERING_DEGREE` × ``isd_count`` random inter-ISD peering
      chords are added, so core-segment diversity scales with the core
      instead of collapsing onto one ring;
    * **multihomed edges** — :data:`MULTIHOME_FRACTION` of single-homed
      ASes gain a secondary provider uplink via :func:`add_multihoming`.

    Link capacities decay by :data:`TIER_CAPACITY_DECAY` per provider
    tier (floored at tier :data:`MAX_CAPACITY_TIER`), so core links are
    fat and access links thin — a child's uplink never exceeds its
    provider's own uplink, which is the capacity-conservation property
    the generators guarantee.  Deterministic per seed at any
    ``as_count``; thousands of ASes build in well under a second.
    """
    if isd_count < 1 or tier1_per_isd < 1:
        raise ValueError("need at least one ISD and one tier-1 AS per ISD")
    if as_count < isd_count * tier1_per_isd:
        raise ValueError(
            f"need at least {isd_count * tier1_per_isd} ASes for "
            f"{isd_count} ISDs x {tier1_per_isd} tier-1 cores"
        )
    rng = random.Random(seed)
    topology = Topology()
    all_cores = [
        _meshed_cores(topology, isd, tier1_per_isd) for isd in range(1, isd_count + 1)
    ]

    # Inter-ISD ring for baseline reachability, then peering chords
    # between cores of different ISDs (intra-ISD cores are meshed);
    # attempts are bounded so a near-complete core can't loop forever.
    if isd_count > 1:
        _core_ring(topology, all_cores)
        flattened = [core for cores in all_cores for core in cores]
        chords = int(PEERING_DEGREE * isd_count)
        added = 0
        for _ in range(chords * 20):
            if added >= chords:
                break
            a, b = rng.sample(flattened, 2)
            if a.isd != b.isd:
                added += _link_once(topology, a, b)

    def fitness_draw() -> float:
        return min(MAX_ATTRACTIVENESS, (1.0 - rng.random()) ** (-1.0 / (PARETO_ALPHA - 1.0)))

    # Customer cones: fitness-weighted preferential attachment per ISD.
    remaining = as_count - isd_count * tier1_per_isd
    base, leftover = divmod(remaining, isd_count)
    for isd_index, cores in enumerate(all_cores):
        isd = isd_index + 1
        cone_size = base + (1 if isd_index < leftover else 0)
        members = list(cores)
        depth = {isd_as: 0 for isd_as in members}
        customers = [0 for _ in members]
        fitness = [fitness_draw() for _ in members]
        weights = list(fitness)
        for index in range(cone_size):
            child = _as_id(isd, 1000 + index)
            topology.add_as(child, is_core=False)
            provider_index = rng.choices(range(len(members)), weights=weights, k=1)[0]
            provider = members[provider_index]
            child_depth = depth[provider] + 1
            topology.add_link(
                provider, child, LinkType.PARENT_CHILD, _tier_capacity(child_depth)
            )
            customers[provider_index] += 1
            weights[provider_index] = fitness[provider_index] * (
                customers[provider_index] + 1
            )
            depth[child] = child_depth
            members.append(child)
            customers.append(0)
            fitness.append(fitness_draw())
            weights.append(fitness[-1])

    add_multihoming(topology, MULTIHOME_FRACTION, rng)
    return topology
