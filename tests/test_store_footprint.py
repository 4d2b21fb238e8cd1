"""What one EER costs an on-path AS's store, pinned (ROADMAP: "a store
the collector does not walk").

The per-EER state of Colibri lives in the CServs' stores, so its size is
the deployment's memory floor and the number of objects the cyclic
collector has to traverse is its pause.  Both are measured here the way
``benchmarks/e2e`` reads ``reservation.store.bytes_per_eer``: everything
reachable from the store, ids and host addresses included, over the live
EERs — a field added to the record or its versions moves these numbers.
"""

import gc

from repro.packets.fields import EerInfo
from repro.reservation.e2e import E2EReservation, E2EVersion
from repro.reservation.ids import ReservationId
from repro.reservation.segment import SegmentReservation, SegmentVersion
from repro.reservation.store import ReservationStore
from repro.topology.addresses import HostAddr, IsdAs
from repro.topology.segments import HopField, Segment, SegmentType
from repro.util.memsize import deep_size

BASE = 0xFF00_0000_0000
EERS = 2000
HOPS = tuple(
    HopField(IsdAs(1, BASE + i), 0 if i == 1 else i, 0 if i == 6 else i + 1)
    for i in range(1, 7)
)
#: On that 6-AS path hop 1 keeps the longest replay record (the
#: initiator keeps none): six grants, five sealed HopAuths.
RECORD = bytearray(6 * 8 + 5 * 44)


def test_bytes_and_tracked_objects_per_eer():
    src = HOPS[0].isd_as
    store = ReservationStore()
    up = SegmentReservation(
        ReservationId(src, 1),
        Segment.from_hops(SegmentType.UP, HOPS[:2] + (HopField(HOPS[2].isd_as, 3, 0),)),
        SegmentVersion(1, 1e9, 300.0),
    )
    store.add_segment(up)
    empty = deep_size(store)
    # What each request brings: its id, its EERInfo (between the same
    # two hosts) and the SegRs it names.
    hosts = HostAddr(1), HostAddr(2)
    requests = [
        (ReservationId(src, 100 + index), EerInfo(*hosts), (up.reservation_id,))
        for index in range(EERS)
    ]
    gc.collect()
    tracked = len(gc.get_objects())
    for index, (res_id, eer_info, segment_ids) in enumerate(requests):
        expiry = 16.0 + index % 16
        first = E2EVersion(1, 16e3, expiry, bytes(RECORD))
        eer = E2EReservation(res_id, eer_info, HOPS, segment_ids, first)
        store.add_eer(eer)
        store.allocate_on_segment(up.reservation_id, res_id, 16e3)
        eer.add_version(E2EVersion(2, 16e3, expiry + 10.0, bytes(RECORD)))
        store.touch(res_id)
    gc.collect()
    tracked = len(gc.get_objects()) - tracked
    assert store.eer_count() == EERS
    assert all(len(eer.versions) == 2 for eer in store.eers())
    assert all(len(eer.latest_version().replay) == len(RECORD) for eer in store.eers())

    # The record, its tuple of versions and the two versions; nothing else.
    # Bytes: 953 per EER on Python 3.11.
    assert tracked / EERS <= 5
    assert (deep_size(store) - empty) / EERS <= 980
