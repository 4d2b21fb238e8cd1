"""Simulation substrate: event loop, network assembly, traffic generation."""

from repro.sim.campaign import (
    BogusSpec,
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    FaultSpec,
    OveruseSpec,
    Phase,
    PhaseReport,
    RenewalStormSpec,
    WorkloadSpec,
    campaign_slos,
    run_campaign,
)
from repro.sim.campaigns import CANONICAL
from repro.sim.events import Event, EventLoop
from repro.sim.netsim import AtHop, LinkSim, PortSim
from repro.sim.pipeline import HopPort, LatencyReport, PathPipeline
from repro.sim.scenario import ColibriNetwork
from repro.sim.workload import EerWorkload, WorkloadStats
from repro.sim.traffic import (
    BestEffortSource,
    BogusColibriSource,
    OverusingSource,
    ReservationSource,
)

__all__ = [
    "EventLoop",
    "Event",
    "ColibriNetwork",
    "LinkSim",
    "PortSim",
    "AtHop",
    "PathPipeline",
    "HopPort",
    "LatencyReport",
    "BestEffortSource",
    "BogusColibriSource",
    "OverusingSource",
    "ReservationSource",
    "EerWorkload",
    "WorkloadStats",
    "CampaignSpec",
    "CampaignRunner",
    "CampaignResult",
    "Phase",
    "PhaseReport",
    "WorkloadSpec",
    "OveruseSpec",
    "BogusSpec",
    "RenewalStormSpec",
    "FaultSpec",
    "campaign_slos",
    "run_campaign",
    "CANONICAL",
]
