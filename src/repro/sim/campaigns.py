"""The five canonical ROADMAP campaigns, parameterized by scale.

Each builder returns a :class:`~repro.sim.campaign.CampaignSpec` over a
CAIDA-like topology at one of three scales:

* ``quick`` — tens of ASes, seconds of simulated time: the CI-gated
  budget suite in ``tests/load`` / ``tests/stress`` runs these;
* ``default`` — hundreds of ASes, the local-dev soak shape;
* ``full`` — thousands of ASes and ≥10⁵ EER arrivals, the
  internet-scale run of ``tools/run_campaigns.py --scale full``.

Endpoints are chosen deterministically from the topology's stub ASes,
round-robined across ISDs so every campaign exercises inter-ISD paths.
The catalog (`CANONICAL`) maps the ROADMAP scenario names to builders:

* ``flash_crowd`` — baseline churn, then a 6-10× arrival surge on the
  same pairs, then teardown (zero residual state);
* ``multi_as_overuse`` — honest traffic while three ASes in different
  ISDs overuse valid EERs toward one victim (§4.8 must confirm,
  blocklist, and report every one of them);
* ``renewal_storm`` — a synchronized EER cohort renewing in lockstep
  waves on top of background churn (the PR 7 control-plane stress);
* ``partition_recovery`` — a destination AS becomes unreachable on the
  control plane mid-campaign; circuit breakers must open, the fabric
  must stay conservative, and recovery must close the breakers;
* ``ddos_mix`` — the Table 2 threat mix beyond Table 2's three-source
  setup: forged-HVF floods at two victim routers plus a rogue overuser
  plus honest churn, simultaneously.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.sim.campaign import (
    BogusSpec,
    CampaignSpec,
    FaultSpec,
    OveruseSpec,
    Phase,
    RenewalStormSpec,
    WorkloadSpec,
)
from repro.topology.addresses import IsdAs
from repro.topology.generator import build_caida_like

QUICK = "quick"
DEFAULT = "default"
FULL = "full"

#: Topology shape per scale.  One seed across scales: a campaign at any
#: scale is reproducible from its (name, scale, seed) triple alone.
TOPOLOGY_PARAMS: Dict[str, dict] = {
    QUICK: dict(as_count=60, isd_count=3, tier1_per_isd=2, seed=29),
    DEFAULT: dict(as_count=300, isd_count=5, tier1_per_isd=3, seed=29),
    FULL: dict(as_count=2000, isd_count=8, tier1_per_isd=3, seed=29),
}

#: Workload intensity per scale: (baseline arrivals/s, surge factor,
#: active phase duration in simulated seconds, storm cohort size).
_INTENSITY: Dict[str, dict] = {
    QUICK: dict(arrivals=1.0, surge=6.0, duration=10.0, cohort=30),
    DEFAULT: dict(arrivals=4.0, surge=8.0, duration=30.0, cohort=200),
    FULL: dict(arrivals=40.0, surge=10.0, duration=120.0, cohort=2000),
}


def _topology_factory(scale: str) -> Callable:
    params = dict(TOPOLOGY_PARAMS[scale])
    return lambda: build_caida_like(**params)


def _cone_root(topology, leaf: IsdAs) -> IsdAs:
    """The top-of-cone ancestor (direct child of a core) of ``leaf``.

    Walks the (deterministically chosen) primary provider chain upward.
    """
    node = leaf
    while not topology.node(node).is_core:
        up = sorted(topology.parents(node), key=str)[0]
        if topology.node(up).is_core:
            return node
        node = up
    return node


def endpoints(scale: str, count: int) -> List[IsdAs]:
    """``count`` deterministic stub ASes, round-robined across ISDs and,
    within an ISD, across customer cones.

    Cone-disjointness matters: two stubs under the same provider chain
    cannot be joined by a core-stitched SegR chain (the up and down legs
    would revisit their shared ancestors, and Colibri's segment
    combination forbids shortcut paths, §3.1) — so consecutive picks are
    guaranteed to hang off different cones.
    """
    topology = build_caida_like(**TOPOLOGY_PARAMS[scale])
    buckets: Dict[tuple, List[IsdAs]] = {}
    stubs = 0
    for node in topology.ases():
        if node.is_core or topology.children(node.isd_as):
            continue
        key = (node.isd, str(_cone_root(topology, node.isd_as)))
        buckets.setdefault(key, []).append(node.isd_as)
        stubs += 1
    if stubs < count:
        raise ValueError(f"need {count} stub ASes, topology has {stubs}")
    for bucket in buckets.values():
        bucket.sort(key=str)
    by_isd: Dict[int, List[List[IsdAs]]] = {}
    for key in sorted(buckets):
        by_isd.setdefault(key[0], []).append(buckets[key])
    isds = sorted(by_isd)
    cone_cursor = {isd: 0 for isd in isds}
    picked: List[IsdAs] = []
    while len(picked) < count:
        for isd in isds:
            if len(picked) >= count:
                break
            cones = by_isd[isd]
            for _ in range(len(cones)):
                bucket = cones[cone_cursor[isd] % len(cones)]
                cone_cursor[isd] += 1
                if bucket:
                    picked.append(bucket.pop(0))
                    break
    return picked


def flash_crowd(scale: str = QUICK, seed: int = 0) -> CampaignSpec:
    """Baseline churn, then a flash-crowd surge, then full teardown."""
    intensity = _INTENSITY[scale]
    src_a, dst_a, src_b, dst_b = endpoints(scale, 4)
    baseline = (
        WorkloadSpec(src_a, dst_a, arrival_rate=intensity["arrivals"]),
        WorkloadSpec(src_b, dst_b, arrival_rate=intensity["arrivals"]),
    )
    surge = tuple(
        WorkloadSpec(
            spec.source,
            spec.destination,
            arrival_rate=intensity["arrivals"] * intensity["surge"],
            mean_holding=8.0,
        )
        for spec in baseline
    )
    return CampaignSpec(
        name=f"flash_crowd_{scale}",
        topology=_topology_factory(scale),
        seed=seed,
        phases=(
            Phase("baseline", intensity["duration"], workloads=baseline, drain=False),
            Phase("flash", intensity["duration"], workloads=surge),
        ),
    )


def multi_as_overuse(scale: str = QUICK, seed: int = 0) -> CampaignSpec:
    """Three ASes in different ISDs overuse valid EERs toward one victim."""
    intensity = _INTENSITY[scale]
    src, dst, victim, att_a, att_b, att_c = endpoints(scale, 6)
    honest = (WorkloadSpec(src, dst, arrival_rate=intensity["arrivals"]),)
    attackers = tuple(
        OveruseSpec(
            attacker,
            victim,
            bandwidth=4e5,
            factor=6.0,
            tick=0.1,
        )
        for attacker in (att_a, att_b, att_c)
    )
    return CampaignSpec(
        name=f"multi_as_overuse_{scale}",
        topology=_topology_factory(scale),
        seed=seed,
        phases=(
            Phase("calm", intensity["duration"] / 2, workloads=honest, drain=False),
            Phase("assault", intensity["duration"], overuse=attackers),
        ),
    )


def renewal_storm(scale: str = QUICK, seed: int = 0) -> CampaignSpec:
    """A synchronized EER cohort renewing in waves over background churn."""
    intensity = _INTENSITY[scale]
    src, dst, storm_src, storm_dst = endpoints(scale, 4)
    return CampaignSpec(
        name=f"renewal_storm_{scale}",
        topology=_topology_factory(scale),
        seed=seed,
        phases=(
            Phase(
                "storm",
                # Long enough for at least two full renewal waves
                # (EER_LIFETIME * 0.75 apart).
                max(intensity["duration"], 30.0),
                workloads=(WorkloadSpec(src, dst, arrival_rate=intensity["arrivals"]),),
                storms=(
                    RenewalStormSpec(
                        storm_src, storm_dst, count=intensity["cohort"]
                    ),
                ),
            ),
        ),
    )


def partition_recovery(scale: str = QUICK, seed: int = 0) -> CampaignSpec:
    """A destination AS drops off the control plane, then heals."""
    intensity = _INTENSITY[scale]
    src, dst = endpoints(scale, 2)
    churn = (WorkloadSpec(src, dst, arrival_rate=intensity["arrivals"]),)
    return CampaignSpec(
        name=f"partition_recovery_{scale}",
        topology=_topology_factory(scale),
        seed=seed,
        phases=(
            Phase("steady", intensity["duration"] / 2, workloads=churn, drain=False),
            Phase(
                "partition",
                intensity["duration"],
                workloads=(),
                faults=(FaultSpec(pairs=((None, dst),)),),
                drain=False,
            ),
            Phase("recovery", intensity["duration"] / 2, workloads=()),
        ),
    )


def ddos_mix(scale: str = QUICK, seed: int = 0) -> CampaignSpec:
    """Forged-HVF floods at two victims + a rogue overuser + honest churn."""
    intensity = _INTENSITY[scale]
    src, dst, victim_a, victim_b, rogue, rogue_dst = endpoints(scale, 6)
    return CampaignSpec(
        name=f"ddos_mix_{scale}",
        topology=_topology_factory(scale),
        seed=seed,
        phases=(
            Phase(
                "mix",
                intensity["duration"],
                workloads=(WorkloadSpec(src, dst, arrival_rate=intensity["arrivals"]),),
                overuse=(
                    OveruseSpec(rogue, rogue_dst, bandwidth=4e5, factor=6.0, tick=0.1),
                ),
                bogus=(
                    BogusSpec(src, victim_a, rate=4e6, tick=0.1),
                    BogusSpec(src, victim_b, rate=4e6, tick=0.1),
                ),
            ),
        ),
    )


#: The ROADMAP scenario catalog, in canonical order.
CANONICAL: Dict[str, Callable[..., CampaignSpec]] = {
    "flash_crowd": flash_crowd,
    "multi_as_overuse": multi_as_overuse,
    "renewal_storm": renewal_storm,
    "partition_recovery": partition_recovery,
    "ddos_mix": ddos_mix,
}
