"""Fig. 6's structural claim, untimed: the fast paths share no mutable
state, so k shards in one process count exactly what k lone stacks count.

``figures.shard_pass`` is the count pass of ``figures.fig6`` without its
timed one-core cells; it runs on both backends (``COLIBRI_NATIVE=0`` is a
CI leg).  The shared-monitor mutant is the registry's Fig. 6 mutant.
"""

import pytest

from benchmarks import figures
from repro.reservation.ids import ReservationId
from repro.topology.addresses import IsdAs

SRC = IsdAs.parse("1-ff00:0:110")
CORES = (1, 2, 4, 16)


def verdicts(passes: dict, index: int) -> dict:
    """``{k: verdict}`` of the counts (0) or disjointness (1) predicate."""
    return {k: pair[index].verdict for k, pair in passes.items()}


@pytest.fixture(scope="module")
def unbroken():
    return figures.shard_pass(256, CORES)


def test_shards_count_like_lone_stacks(unbroken):
    assert verdicts(unbroken, 0) == {k: figures.OK for k in CORES}


def test_shards_share_no_mutable_object(unbroken):
    assert verdicts(unbroken, 1) == {k: figures.OK for k in CORES}


def test_a_shared_monitor_breaks_the_counts_at_every_k_above_one():
    mutant = figures.shard_pass(256, CORES, build=figures.shared_monitor_stacks)
    assert verdicts(mutant, 0) == {1: figures.OK, **{k: figures.VIOLATED for k in CORES[1:]}}
    assert verdicts(mutant, 1) == {1: figures.OK, **{k: figures.VIOLATED for k in CORES[1:]}}


def test_shard_of_deterministic_and_total():
    ids = [ReservationId(SRC, index + 1) for index in range(512)]
    assignment = [figures.shard_of(res_id, 4) for res_id in ids]
    assert assignment == [figures.shard_of(res_id, 4) for res_id in ids]
    assert all(0 <= shard < 4 for shard in assignment)
    # Every shard gets a share (blake2s spreads the counter well).
    counts = [assignment.count(shard) for shard in range(4)]
    assert min(counts) > 0
    assert max(counts) < 2.5 * min(counts)


def test_shard_of_rejects_bad_count():
    with pytest.raises(ValueError):
        figures.shard_of(ReservationId(SRC, 1), 0)


def test_shards_partition_disjointly():
    ids = [ReservationId(SRC, index + 1) for index in range(128)]
    owned = [
        {res_id for res_id in ids if figures.shard_of(res_id, 3) == shard}
        for shard in range(3)
    ]
    assert sum(len(part) for part in owned) == len(ids)
    assert owned[0] | owned[1] | owned[2] == set(ids)
