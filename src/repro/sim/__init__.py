"""Simulation substrate: event loop, network assembly, traffic generation."""

from repro.sim.campaign import (
    BogusSpec,
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    OveruseSpec,
    Phase,
    PhaseReport,
    RenewalStormSpec,
    WorkloadSpec,
    campaign_slos,
)
from repro.sim.campaigns import CANONICAL
from repro.sim.events import Event, EventLoop
from repro.sim.netsim import AtHop, PortSim
from repro.sim.pipeline import LatencyReport, PathPipeline
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
    "PortSim",
    "AtHop",
    "PathPipeline",
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
    "campaign_slos",
    "CANONICAL",
]
