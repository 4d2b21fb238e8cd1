"""End-host-facing layer: the host networking stack."""

from repro.app.host import ColibriSocket, EndHost, establish_bidirectional

__all__ = [
    "EndHost",
    "ColibriSocket",
    "establish_bidirectional",
]
