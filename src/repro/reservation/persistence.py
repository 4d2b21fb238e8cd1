"""Reservation-store persistence: survive a CServ restart.

The paper keeps reservations "in a transactional database" (§6.1), which
is durable across service restarts; the in-memory
:class:`~repro.reservation.store.ReservationStore` needs an explicit
snapshot for the same property.  :func:`dump_store` serializes one AS's
complete reservation state (SegRs with all versions and their lifecycle
states, EERs with all versions, EER-on-SegR allocations) to a plain
JSON-compatible dict; :func:`load_store` reconstructs an equivalent
store.

A reservation's newest version also carries the committing CServ's
replay record (base64), so a retry that arrives after a crash and a
reload is still replayed instead of refused (§3.3).  For an EER that is
ciphertext only the source AS can open (Eq. 5); for a SegR it holds the
Eq. (3) tokens from this AS down, which let a holder build that SegR's
control packets until the version expires — keep a store snapshot like
the gateway's below, with the keys, not with the logs.
"""

from __future__ import annotations

import base64
import json

from repro.errors import ColibriError
from repro.packets.fields import EerInfo
from repro.reservation.e2e import E2EReservation, E2EVersion
from repro.reservation.ids import ReservationId
from repro.reservation.segment import SegmentReservation, SegmentVersion, VersionState
from repro.reservation.store import ReservationStore
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.segments import HopField, Segment, SegmentType

FORMAT_VERSION = 1


# -- encoding helpers -------------------------------------------------------------


def _res_id(reservation_id: ReservationId) -> str:
    return f"{reservation_id.src_as}|{reservation_id.local_id}"


def _parse_res_id(text: str) -> ReservationId:
    as_text, _, local = text.rpartition("|")
    return ReservationId(IsdAs.parse(as_text), int(local))


def _hops(hops) -> list:
    return [
        {"as": str(hop.isd_as), "in": hop.ingress, "eg": hop.egress} for hop in hops
    ]


def _version(version) -> dict:
    """The fields SegR and EER versions share; ``replay`` only if held."""
    spec = {
        "version": version.version,
        "bandwidth": version.bandwidth,
        "expiry": version.expiry,
    }
    if version.replay is not None:
        spec["replay"] = base64.b64encode(version.replay).decode("ascii")
    return spec


def _parse_version(cls, spec: dict):
    replay = spec.get("replay")
    return cls(
        version=spec["version"],
        bandwidth=spec["bandwidth"],
        expiry=spec["expiry"],
        replay=None if replay is None else base64.b64decode(replay),
    )


def _parse_hops(data: list) -> tuple:
    return tuple(
        HopField(
            isd_as=IsdAs.parse(entry["as"]),
            ingress=entry["in"],
            egress=entry["eg"],
        )
        for entry in data
    )


# -- dump ----------------------------------------------------------------------------


def dump_store(store: ReservationStore) -> dict:
    """Serialize a store to a JSON-compatible dict."""
    segments = []
    for reservation in store.segments():
        segments.append(
            {
                "id": _res_id(reservation.reservation_id),
                "type": reservation.segment.segment_type.value,
                "hops": _hops(reservation.segment.hops),
                "active": reservation.active.version,
                "versions": [
                    dict(_version(version), state=version.state.value)
                    for version in reservation.versions.values()
                ],
                "allocations": {
                    _res_id(eer_id): bandwidth
                    for eer_id, bandwidth in store._eer_alloc[
                        reservation.reservation_id
                    ].items()
                },
            }
        )
    eers = []
    for reservation in store.eers():
        eers.append(
            {
                "id": _res_id(reservation.reservation_id),
                "src_host": reservation.eer_info.src_host.value,
                "dst_host": reservation.eer_info.dst_host.value,
                "hops": _hops(reservation.hops),
                "segments": [_res_id(sid) for sid in reservation.segment_ids],
                "versions": [
                    _version(version) for version in reservation.versions.values()
                ],
            }
        )
    return {"format": FORMAT_VERSION, "segments": segments, "eers": eers}


def dumps_store(store: ReservationStore) -> str:
    """Serialize to a JSON string (what an operator writes to disk)."""
    return json.dumps(dump_store(store), sort_keys=True)


# -- load ----------------------------------------------------------------------------


def load_store(data: dict) -> ReservationStore:
    """Reconstruct a store from :func:`dump_store` output."""
    if data.get("format") != FORMAT_VERSION:
        raise ColibriError(
            f"unsupported store snapshot format {data.get('format')!r}"
        )
    store = ReservationStore()
    for entry in data["segments"]:
        versions = sorted(entry["versions"], key=lambda v: v["version"])
        reservation = SegmentReservation(
            reservation_id=_parse_res_id(entry["id"]),
            segment=Segment.from_hops(
                SegmentType(entry["type"]), _parse_hops(entry["hops"])
            ),
            first_version=_parse_version(SegmentVersion, versions[0]),
        )
        for spec in versions[1:]:
            reservation.add_pending(_parse_version(SegmentVersion, spec))
        # Restore lifecycle states exactly (activation order is gone, but
        # the end state is what admission reads).
        if entry["active"] != reservation.active.version:
            reservation._versions[reservation.active.version].state = (
                VersionState.RETIRED
            )
            target = reservation._versions[entry["active"]]
            target.state = VersionState.ACTIVE
            reservation._active_version = entry["active"]
        by_number = {spec["version"]: spec for spec in versions}
        for number, version in reservation._versions.items():
            version.state = VersionState(by_number[number]["state"])
        store.add_segment(reservation)
    for entry in data["eers"]:
        versions = sorted(entry["versions"], key=lambda v: v["version"])
        reservation = E2EReservation(
            reservation_id=_parse_res_id(entry["id"]),
            eer_info=EerInfo(
                src_host=HostAddr(entry["src_host"]),
                dst_host=HostAddr(entry["dst_host"]),
            ),
            hops=_parse_hops(entry["hops"]),
            segment_ids=tuple(_parse_res_id(sid) for sid in entry["segments"]),
            first_version=_parse_version(E2EVersion, versions[0]),
        )
        for spec in versions[1:]:
            reservation.add_version(_parse_version(E2EVersion, spec))
        store.add_eer(reservation)
    # Allocations last: every referenced SegR now exists.
    for entry in data["segments"]:
        segment_id = _parse_res_id(entry["id"])
        for eer_text, bandwidth in entry["allocations"].items():
            store.allocate_on_segment(segment_id, _parse_res_id(eer_text), bandwidth)
    return store


def loads_store(text: str) -> ReservationStore:
    return load_store(json.loads(text))


# -- gateway snapshots ------------------------------------------------------------
#
# The gateway's table is the other half of a source AS's durable state:
# Path, EERInfo and the per-version HopAuths (Eq. 5 secrets).  Unlike the
# store snapshot this one IS key material — a holder can stamp valid
# packets for the contained reservations until they expire — so treat a
# gateway snapshot like a key file.


def dump_gateway(gateway) -> dict:
    """Serialize a gateway's reservation table (HopAuths base64'd)."""
    entries = []
    for entry in gateway._reservations.values():
        entries.append(
            {
                "id": _res_id(entry.reservation_id),
                "path": list(entry.path.interface_pairs),
                "src_host": entry.eer_info.src_host.value,
                "dst_host": entry.eer_info.dst_host.value,
                "versions": [
                    {
                        "bandwidth": version.res_info.bandwidth,
                        "expiry": version.res_info.expiry,
                        "version": version.res_info.version,
                        "hop_auths": [
                            base64.b64encode(sigma).decode("ascii")
                            for sigma in version.hop_auths
                        ],
                    }
                    for version in entry.versions.values()
                ],
            }
        )
    return {"format": FORMAT_VERSION, "reservations": entries}


def load_gateway(gateway, data: dict) -> int:
    """Re-install a snapshot into a (fresh) gateway; returns the number
    of reservations restored."""
    from repro.packets.fields import PathField

    if data.get("format") != FORMAT_VERSION:
        raise ColibriError(
            f"unsupported gateway snapshot format {data.get('format')!r}"
        )
    restored = 0
    for entry in data["reservations"]:
        reservation_id = _parse_res_id(entry["id"])
        path = PathField(tuple(tuple(pair) for pair in entry["path"]))
        eer_info = EerInfo(
            src_host=HostAddr(entry["src_host"]),
            dst_host=HostAddr(entry["dst_host"]),
        )
        for spec in sorted(entry["versions"], key=lambda v: v["version"]):
            from repro.packets.fields import ResInfo

            gateway.install(
                reservation_id,
                path,
                eer_info,
                ResInfo(
                    reservation=reservation_id,
                    bandwidth=spec["bandwidth"],
                    expiry=spec["expiry"],
                    version=spec["version"],
                ),
                tuple(
                    base64.b64decode(sigma) for sigma in spec["hop_auths"]
                ),
            )
        restored += 1
    return restored
