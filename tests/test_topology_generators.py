"""Property tests for the synthetic topology generators.

The campaign harness trusts ``build_caida_like`` for four load-bearing
properties, each checked here across three orders of magnitude (50,
300, 2000 ASes):

* **connected** — every AS is reachable from the core fabric;
* **beaconable** — beaconing discovers at least one up-segment for
  every non-core AS (otherwise no SegR, no campaign);
* **deterministic** — the same seed yields a byte-identical serialized
  topology, and different seeds yield different ones;
* **capacity-conserving** — provider-to-customer capacities never grow
  with depth, and never decay below the ``MAX_CAPACITY_TIER`` floor.
"""

import collections
import random

import pytest

from repro.topology import add_multihoming, build_caida_like, build_internet_like
from repro.topology.beaconing import Beaconing
from repro.topology.generator import (
    DEFAULT_CAPACITY,
    MAX_CAPACITY_TIER,
    TIER_CAPACITY_DECAY,
)
from repro.topology.graph import LinkType
from repro.topology.serialization import dumps_topology

AS_COUNTS = (50, 300, 2000)


def _caida_params(as_count):
    if as_count <= 50:
        return dict(as_count=as_count, isd_count=2, tier1_per_isd=2)
    if as_count <= 300:
        return dict(as_count=as_count, isd_count=4, tier1_per_isd=3)
    return dict(as_count=as_count, isd_count=8, tier1_per_isd=3)


@pytest.fixture(scope="module", params=AS_COUNTS)
def caida(request):
    """One topology per size, shared by every property in this module."""
    return build_caida_like(**_caida_params(request.param))


def _undirected_reachable(topology):
    """BFS over all links from the core ASes."""
    frontier = [node.isd_as for node in topology.core_ases()]
    seen = set(frontier)
    adjacency = collections.defaultdict(list)
    for link in topology.links():
        adjacency[link.a.owner].append(link.b.owner)
        adjacency[link.b.owner].append(link.a.owner)
    while frontier:
        isd_as = frontier.pop()
        for neighbor in adjacency[isd_as]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def _depths(topology):
    """Hops below the core fabric, per AS (cores are depth 0)."""
    depths = {node.isd_as: 0 for node in topology.core_ases()}
    frontier = list(depths)
    while frontier:
        next_frontier = []
        for parent in frontier:
            for child in topology.children(parent):
                if child not in depths:
                    depths[child] = depths[parent] + 1
                    next_frontier.append(child)
        frontier = next_frontier
    return depths


def test_caida_connected(caida):
    everyone = {node.isd_as for node in caida.ases()}
    assert _undirected_reachable(caida) == everyone


def test_caida_as_count(caida):
    assert len(caida) == len(list(caida.ases()))
    assert len(caida) in AS_COUNTS


def test_caida_beaconable(caida):
    beaconing = Beaconing(caida)
    for node in caida.ases():
        if node.is_core:
            continue
        assert beaconing.up_segments(node.isd_as), (
            f"no up-segment beaconed for {node.isd_as}"
        )


@pytest.mark.parametrize("as_count", AS_COUNTS)
def test_caida_deterministic_per_seed(as_count):
    params = _caida_params(as_count)
    first = dumps_topology(build_caida_like(**params, seed=5))
    second = dumps_topology(build_caida_like(**params, seed=5))
    assert first == second
    assert dumps_topology(build_caida_like(**params, seed=6)) != first


def test_caida_capacity_conserving(caida):
    depths = _depths(caida)
    floor = DEFAULT_CAPACITY * TIER_CAPACITY_DECAY**MAX_CAPACITY_TIER
    uplink = {}
    for link in caida.links():
        if link.link_type is not LinkType.PARENT_CHILD:
            continue
        child = link.b.owner
        uplink.setdefault(child, link.capacity)
        assert link.capacity == uplink[child], (
            f"multihomed {child} has unequal uplink capacities"
        )
        assert floor <= link.capacity <= DEFAULT_CAPACITY
    for link in caida.links():
        if link.link_type is not LinkType.PARENT_CHILD:
            continue
        parent, child = link.a.owner, link.b.owner
        if parent in uplink:  # parent is itself a customer of someone
            assert link.capacity <= uplink[parent], (
                f"capacity grows downward at {parent}->{child}"
            )
        assert depths[child] >= 1


def test_caida_heavy_tailed_cones(caida):
    child_counts = sorted(
        len(caida.children(node.isd_as))
        for node in caida.ases()
        if not node.is_core and caida.children(node.isd_as)
    )
    if len(caida) < 300:
        pytest.skip("tail shape only meaningful at hundreds of ASes")
    # A heavy tail: the largest cone dwarfs the median provider.
    assert child_counts[-1] >= 10 * max(1, child_counts[len(child_counts) // 2])


def test_caida_multihoming_properties(caida):
    multihomed = 0
    for node in caida.ases():
        if node.is_core:
            continue
        parents = caida.parents(node.isd_as)
        assert parents, f"{node.isd_as} has no provider"
        if len(parents) > 1:
            multihomed += 1
            assert len(parents) == 2
            for parent in parents:
                assert parent.isd == node.isd
    assert multihomed > 0, "MULTIHOME_FRACTION produced no multihoming"
    # The provider relation stays acyclic even with secondary uplinks
    # (Kahn's algorithm consumes every AS).
    indegree = collections.Counter()
    nodes = {node.isd_as for node in caida.ases()}
    for isd_as in nodes:
        indegree[isd_as] = len(caida.parents(isd_as))
    ready = [isd_as for isd_as in nodes if indegree[isd_as] == 0]
    ordered = 0
    while ready:
        parent = ready.pop()
        ordered += 1
        for child in caida.children(parent):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    assert ordered == len(nodes), "provider hierarchy has a cycle"


def test_add_multihoming_is_idempotent_on_fraction_zero():
    topology = build_caida_like(as_count=50, isd_count=2, tier1_per_isd=2)
    assert add_multihoming(topology, 0.0, random.Random(17)) == 0


def _multihomed(topology):
    return sum(
        1
        for node in topology.ases()
        if not node.is_core and len(topology.parents(node.isd_as)) > 1
    )


def test_add_multihoming_fraction_knob():
    """On a single-homed tree the fraction alone decides: none at 0.0,
    some at 0.3, and each added uplink is counted."""
    base = build_internet_like(isd_count=4, depth=2, seed=11)
    assert _multihomed(base) == 0
    assert add_multihoming(base, 0.0, random.Random(11)) == 0
    assert _multihomed(base) == 0
    added = add_multihoming(base, 0.3, random.Random(11))
    assert added > 0
    assert _multihomed(base) == added


def test_caida_chords_beyond_ring():
    """Inter-ISD peering chords: strictly more cross-ISD core links than
    the isd_count-edge ring alone."""
    topology = build_caida_like(as_count=120, isd_count=4, tier1_per_isd=3, seed=11)
    cross = sum(
        1
        for link in topology.links()
        if link.link_type is LinkType.CORE and link.a.owner.isd != link.b.owner.isd
    )
    assert cross > 4
