"""The policing blocklist (§4.8).

"When a flow is confirmed to be exceeding its EER bandwidth […] the AS
that detects the abuse […] block[s] further traffic over the reservation
[…] achieved by keeping a list of blocked source ASes.  As this blocklist
is very short — only a tiny share of the 70 000 ASes is expected to
misbehave at any point in time — it can be implemented as a simple hash
set."

A block is for good.  The router's Python body reads ``_blocked`` per
packet (an O(1) set lookup), ``BorderRouter._flag`` per glue burst.
"""

from __future__ import annotations

from repro.topology.addresses import IsdAs


class Blocklist:
    """A hash set of blocked source ASes."""

    def __init__(self):
        self._blocked: set = set()
        self.blocks_imposed = 0

    def block(self, source: IsdAs) -> None:
        self._blocked.add(source)
        self.blocks_imposed += 1

    def is_blocked(self, source: IsdAs) -> bool:
        return source in self._blocked

    def __len__(self) -> int:
        return len(self._blocked)

    def blocked_ases(self) -> list:
        return sorted(self._blocked)

