"""Reservation state: IDs, segment and end-to-end reservations, stores."""

from repro.reservation.e2e import E2EReservation, E2EVersion
from repro.reservation.ids import ReservationId
from repro.reservation.index import InterfacePairIndex
from repro.reservation.segment import SegmentReservation, SegmentVersion
from repro.reservation.persistence import (
    dump_gateway,
    dump_store,
    dumps_store,
    load_gateway,
    load_store,
    loads_store,
)
from repro.reservation.store import ReservationStore
from repro.reservation.timewheel import ExpiryWheel

__all__ = [
    "ReservationId",
    "SegmentReservation",
    "SegmentVersion",
    "E2EReservation",
    "E2EVersion",
    "ReservationStore",
    "ExpiryWheel",
    "InterfacePairIndex",
    "dump_store",
    "dumps_store",
    "load_store",
    "loads_store",
    "dump_gateway",
    "load_gateway",
]
