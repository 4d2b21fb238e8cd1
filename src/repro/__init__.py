"""Colibri: a cooperative lightweight inter-domain bandwidth-reservation
infrastructure — a full Python reproduction of the CoNEXT 2021 paper.

Layered public API (see README.md for a quickstart):

* ``repro.app`` — end-host stack;
* ``repro.sim`` — :class:`~repro.sim.scenario.ColibriNetwork`, the full
  per-AS deployment over any topology;
* ``repro.control`` / ``repro.dataplane`` / ``repro.admission`` — the
  CServ, gateway/router, and admission algorithms individually;
* ``repro.topology`` / ``repro.crypto`` / ``repro.packets`` — the
  SCION-style substrate: segments, DRKey, wire formats;
* ``repro.attacks`` / ``repro.baselines`` — adversaries of §5 and the
  IntServ/DiffServ comparison points.
"""

__version__ = "1.0.0"

from repro import constants, errors
from repro.app import ColibriSocket, EndHost
from repro.sim import ColibriNetwork
from repro.topology import HostAddr, IsdAs

__all__ = [
    "constants",
    "errors",
    "ColibriNetwork",
    "EndHost",
    "ColibriSocket",
    "IsdAs",
    "HostAddr",
    "__version__",
]
