"""Data plane: gateway, border router, HVF crypto, monitoring, policing,
duplicate suppression, and traffic-class isolation."""

from repro.dataplane.blocklist import Blocklist
from repro.dataplane.duplicate import DuplicateSuppressor
from repro.dataplane.gateway import ColibriGateway
from repro.dataplane.hvf import (
    ColibriKeys,
    eer_hvf,
    hop_authenticator,
    segment_token,
    verify_segment_token,
)
from repro.dataplane.monitor import DeterministicMonitor
from repro.dataplane.ofd import OveruseFlowDetector
from repro.dataplane.queueing import PriorityScheduler, TrafficClass
from repro.dataplane.router import BorderRouter
from repro.dataplane.shards import ShardExecutor, shard_of
from repro.dataplane.sigma_cache import SigmaCache
from repro.dataplane.token_bucket import TokenBucket

__all__ = [
    "ColibriKeys",
    "segment_token",
    "hop_authenticator",
    "eer_hvf",
    "verify_segment_token",
    "ColibriGateway",
    "BorderRouter",
    "SigmaCache",
    "ShardExecutor",
    "shard_of",
    "TokenBucket",
    "DuplicateSuppressor",
    "OveruseFlowDetector",
    "DeterministicMonitor",
    "Blocklist",
    "PriorityScheduler",
    "TrafficClass",
]
