"""The policing tables across the Python/C boundary.

``DuplicateSuppressor.check_and_insert`` and ``OveruseFlowDetector.observe``
make one native call each on buffers Python owns (a ``bytearray`` pair, an
``array('d')``) when :mod:`repro.crypto.native` is loaded, and run their
Python loops when it is not.  Here the two bodies are held to each other:

* what Python refuses, C refuses — same exception type, nothing written;
* a replaced buffer is the one the next packet lands in (no stale view);
* any sequence of packets and clock steps leaves both with equal return
  values and bit-equal state.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import native
from repro.dataplane import DuplicateSuppressor, OveruseFlowDetector
from repro.util.clock import SimClock
from tests import test_dataplane


mac_like = test_dataplane.mac_like


def build(use_native, build_fn):
    """``build_fn()`` with the kernel probed as asked; objects keep the
    backend they were built with, so both kinds can then run side by side."""
    patch = pytest.MonkeyPatch()
    if not use_native:
        patch.setenv("COLIBRI_NATIVE", "0")
    native.reset_for_tests()
    try:
        if use_native and native.backend() is None:
            pytest.skip("native backend unavailable")
        return build_fn()
    finally:
        patch.undo()
        native.reset_for_tests()


@pytest.fixture(params=["native", "python"])
def make(request):
    """``make(build_fn)``: build policing objects on this param's backend."""
    return lambda build_fn: build(request.param == "native", build_fn)


# ------------------------------------------------- what both bodies refuse ----


class TestRefusals:
    def test_identifier_must_be_a_whole_mac(self, make):
        suppressor = make(lambda: DuplicateSuppressor(SimClock(0.0), bits=1 << 10))
        for identifier in (b"", b"short", b"x" * 15, b"x" * 17, b"x" * 32):
            with pytest.raises(struct.error):
                suppressor.check_and_insert(identifier, 0.0)
        assert not any(suppressor._current._array) and suppressor._current.insertions == 0

    def test_filter_geometry_must_be_positive(self, make):
        for bits, hashes in [(0, 4), (-8, 4), (1 << 10, 0), (1 << 10, -1)]:
            with pytest.raises(ValueError):
                make(lambda: DuplicateSuppressor(SimClock(0.0), bits=bits, hashes=hashes))

    def test_bits_beyond_the_buffer_are_never_touched(self, make):
        """A filter claiming more bits than its buffer holds: the Python
        loop indexes past the end, the kernel is told the buffer's length
        and refuses up front."""
        suppressor = make(lambda: DuplicateSuppressor(SimClock(0.0), bits=1 << 10, hashes=4))
        suppressor._current.bits = suppressor._previous.bits = 1 << 40
        with pytest.raises(IndexError):
            for index in range(64):  # some position of some identifier is out of range
                suppressor.check_and_insert(mac_like(f"far-{index}"), 0.0)
        assert len(suppressor._current._array) == 128

    def test_cell_outside_the_sketch(self, make):
        ofd = make(lambda: OveruseFlowDetector(width=16, depth=2))
        ofd.observe(b"flow", 100, 1e6, 0.0)
        before = ofd._counts.tobytes()
        for cells in [(32,), (0, 32), (31, 1 << 31)]:
            with pytest.raises(IndexError):
                ofd.observe(b"flow", 100, 1e6, 0.0, cells)
        if ofd._view is not None:  # the kernel checks every cell before the first add
            assert ofd._counts.tobytes() == before
        ofd.observe(b"flow", 100, 1e6, 0.0, (0, 31))  # first and last cell are in range
        assert ofd._counts[0] > 0 and ofd._counts[31] > 0


# ------------------------------------------------------ replaced buffers ----


class TestViewsFollowTheirBuffers:
    def test_rotation_and_clear(self, make):
        clock = SimClock(0.0)
        suppressor = make(lambda: DuplicateSuppressor(clock, window=1.0, bits=1 << 10))
        assert suppressor.check_and_insert(mac_like("a"), 0.0)
        first = suppressor._current._array
        recorded = bytes(first)
        assert any(recorded)
        # One window: the buffer with "a" becomes previous, current is new.
        assert suppressor.check_and_insert(mac_like("b"), 1.0)
        assert suppressor._previous._array is first and bytes(first) == recorded
        assert any(suppressor._current._array) and suppressor._current._array is not first
        assert not suppressor.check_and_insert(mac_like("a"), 1.0)
        # A long silence replaces both; a direct clear() replaces one.
        assert suppressor.check_and_insert(mac_like("a"), 5.0)
        assert not any(suppressor._previous._array) and bytes(first) == recorded
        suppressor._current.clear()
        assert suppressor.check_and_insert(mac_like("a"), 5.0)
        assert any(suppressor._current._array)

    def test_roll(self, make):
        ofd = make(lambda: OveruseFlowDetector(width=8, depth=2, window=1.0))
        ofd.observe(b"flow", 100, 1e6, 0.0)
        old = ofd._counts
        recorded = old.tobytes()
        ofd.observe(b"flow", 100, 1e6, 1.0)
        assert ofd._counts is not old and old.tobytes() == recorded
        assert sum(ofd._counts) == pytest.approx(2 * 100 * 8 / 1e6)


def test_bit_positions_on_both_backends(make):
    """``TestDuplicateSuppressor.test_bit_positions_are_the_digest_words``
    (4,999- and 1,000-bit filters included), as is, on either body."""
    make(test_dataplane.TestDuplicateSuppressor().test_bit_positions_are_the_digest_words)


# ------------------------------------------------- native ≡ Python, state too ----

#: A step of the shared script: (kind, …).  Identifiers and flows are drawn
#: from small pools so repeats are common; clock steps include less than a
#: window, exactly one, exactly two, and a long silence.
WINDOW = 1.0
steps = st.one_of(
    st.tuples(st.just("packet"), st.integers(0, 40)),
    st.tuples(
        st.just("observe"),
        st.integers(0, 5),
        st.integers(1, 9000),
        st.sampled_from([0.0, -1.0, 4e3, 1e6, 1e9]),
    ),
    st.tuples(st.just("advance"), st.sampled_from([0.25, WINDOW, 2 * WINDOW, 7.5])),
)
geometries = st.tuples(
    st.sampled_from([1 << 10, 1000, 4999, 64]),  # filter bits, powers of two or not
    st.integers(1, 8),  # hashes
    st.sampled_from([1, 2, 16, 1024]),  # sketch width
    st.integers(1, 6),  # sketch depth
    st.sampled_from([1.2, 0.001]),  # overuse factor: the default, and one any flow passes
)


def policing_pair(clock, geometry):
    bits, hashes, width, depth, factor = geometry
    return (
        DuplicateSuppressor(clock, window=WINDOW, bits=bits, hashes=hashes),
        OveruseFlowDetector(width=width, depth=depth, window=WINDOW, overuse_factor=factor),
    )


def snapshot(pair):
    suppressor, ofd = pair
    return (
        bytes(suppressor._current._array),
        bytes(suppressor._previous._array),
        (suppressor._current.insertions, suppressor._previous.insertions),
        suppressor.duplicates_caught,
        None if ofd._counts is None else ofd._counts.tobytes(),
        set(ofd._suspects),
        dict(ofd._hits),
        (ofd.packets_seen, ofd.reports),
    )


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, script=st.lists(steps, max_size=120))
def test_native_and_python_bodies_agree(geometry, script):
    clock = SimClock(100.0)
    fast = build(True, lambda: policing_pair(clock, geometry))
    slow = build(False, lambda: policing_pair(clock, geometry))
    assert fast[0]._current._view is not None and slow[0]._current._view is None
    for step in script:
        now = clock.now()
        if step[0] == "advance":
            clock.advance(step[1])
            continue
        if step[0] == "packet":
            identifier = mac_like(f"packet-{step[1]}")
            results = [pair[0].check_and_insert(identifier, now) for pair in (fast, slow)]
        else:
            _, flow, size, bandwidth = step
            label = b"flow-%d" % flow
            results = [pair[1].observe(label, size, bandwidth, now) for pair in (fast, slow)]
        assert results[0] is results[1]
        assert snapshot(fast) == snapshot(slow)
    # A flow driven past window * overuse_factor is flagged by both, once.
    for pair in (fast, slow):
        flagged = [pair[1].observe(b"hog", 1500, 1e3, clock.now()) for _ in range(3)]
        assert flagged == [True, False, False]
    assert snapshot(fast) == snapshot(slow)
