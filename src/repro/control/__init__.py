"""Colibri control plane: the CServ and its supporting machinery."""

from repro.control.cserv import ColibriService
from repro.control.dissemination import (
    RemoteQueryClient,
    SegmentDescriptor,
    SegmentRegistry,
)
from repro.control.distributed import DistributedCServ
from repro.control.protected import (
    ControlDelivery,
    build_control_packet,
    walk_control_packet,
)
from repro.control.rate_limit import RateLimiter
from repro.control.renewal import RenewalScheduler
from repro.control.retry import (
    CircuitBreaker,
    RetryingCaller,
    RetryPolicy,
)
from repro.control.rpc import FaultInjector, LinkFaults, MessageBus, Unreachable

__all__ = [
    "ColibriService",
    "MessageBus",
    "FaultInjector",
    "LinkFaults",
    "Unreachable",
    "SegmentRegistry",
    "SegmentDescriptor",
    "RemoteQueryClient",
    "RateLimiter",
    "RenewalScheduler",
    "RetryPolicy",
    "RetryingCaller",
    "CircuitBreaker",
    "DistributedCServ",
    "build_control_packet",
    "walk_control_packet",
    "ControlDelivery",
]
