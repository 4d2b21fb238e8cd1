"""EventJournal tests: determinism, ring retention, the query API, and
serial ≡ sharded stream merging."""

import json

import pytest

from repro.errors import ColibriError
from repro.obs.events import (
    ADMISSION_DECIDED,
    BREAKER_TRANSITION,
    EVENT_TYPES,
    MONITOR_CONFIRMED_OVERUSE,
    OFD_FLAGGED,
    VERDICT_DROPPED,
    EventJournal,
    JournalFormatError,
    emit,
    merge_events,
    parse_jsonl,
)
from repro.obs.report import run_health_scenario
from repro.util.clock import SimClock


def make_journal(capacity=16, start=0.0):
    clock = SimClock(start=start)
    return EventJournal(clock, capacity=capacity), clock


class TestRecording:
    def test_unknown_type_rejected(self):
        journal, _ = make_journal()
        with pytest.raises(ValueError):
            journal.record("MadeUpEvent")

    def test_non_scalar_attr_rejected(self):
        journal, _ = make_journal()
        with pytest.raises(TypeError):
            journal.record(ADMISSION_DECIDED, hops=[1, 2, 3])

    def test_seq_and_time_assigned(self):
        journal, clock = make_journal(start=100.0)
        first = journal.record(ADMISSION_DECIDED, reservation="r1")
        clock.advance(1.5)
        second = journal.record(VERDICT_DROPPED, reservation="r1")
        assert (first.seq, first.time) == (0, 100.0)
        assert (second.seq, second.time) == (1, 101.5)

    def test_emit_noop_without_journal(self):
        emit(None, ADMISSION_DECIDED, reservation="r1")

        class Obs:
            journal = None

        emit(Obs(), ADMISSION_DECIDED, reservation="r1")  # still a no-op


class TestRingRetention:
    def test_eviction_counts_and_total(self):
        journal, clock = make_journal(capacity=4)
        for index in range(10):
            journal.record(ADMISSION_DECIDED, index=index)
            clock.advance(1.0)
        assert len(journal) == 4
        assert journal.total_events == 10
        assert journal.dropped_events == 6
        assert [event.attrs["index"] for event in journal.events()] == [6, 7, 8, 9]
        assert journal.stats() == {
            "capacity": 4,
            "retained": 4,
            "total": 10,
            "dropped": 6,
        }

    def test_total_count_survives_eviction(self):
        journal, _ = make_journal(capacity=2)
        for _ in range(5):
            journal.record(OFD_FLAGGED, flow="ab")
        assert journal.total_count(OFD_FLAGGED) == 5
        assert journal.count_by_type() == {OFD_FLAGGED: 2}


class TestQueryApi:
    def setup_method(self):
        self.journal, self.clock = make_journal(capacity=64, start=0.0)
        self.journal.record(ADMISSION_DECIDED, reservation="r1", isd_as="1-a")
        self.clock.advance(1.0)
        self.journal.record(VERDICT_DROPPED, reservation="r1", isd_as="2-b")
        self.clock.advance(1.0)
        self.journal.record(VERDICT_DROPPED, reservation="r2", isd_as="2-b")
        self.clock.advance(1.0)
        self.journal.record(BREAKER_TRANSITION, isd_as="1-a")

    def test_by_type(self):
        assert len(self.journal.query(VERDICT_DROPPED)) == 2

    def test_by_reservation(self):
        events = self.journal.query(reservation="r1")
        assert [event.type for event in events] == [
            ADMISSION_DECIDED,
            VERDICT_DROPPED,
        ]

    def test_by_as(self):
        assert len(self.journal.query(isd_as="2-b")) == 2

    def test_window_is_half_open(self):
        assert len(self.journal.query(start=1.0, end=3.0)) == 2
        assert len(self.journal.query(start=1.0, end=3.0 + 1e-9)) == 3

    def test_combined_filters(self):
        events = self.journal.query(
            event_type=VERDICT_DROPPED, isd_as="2-b", start=2.0
        )
        assert len(events) == 1
        assert events[0].attrs["reservation"] == "r2"


class TestExportImport:
    def test_round_trip_byte_identical(self):
        journal, clock = make_journal(capacity=8, start=5.0)
        journal.record(ADMISSION_DECIDED, reservation="r1", granted=10.5)
        clock.advance(0.25)
        journal.record(MONITOR_CONFIRMED_OVERUSE, flow="ff", drops=3)
        text = journal.export_jsonl()
        imported = EventJournal.import_jsonl(text, SimClock(start=0.0))
        assert imported.export_jsonl() == text
        assert imported.total_count(ADMISSION_DECIDED) == 1
        # Recording continues from the imported sequence counter.
        event = imported.record(VERDICT_DROPPED, reservation="r1")
        assert event.seq == 2

    def test_export_lines_are_sorted_json(self):
        journal, _ = make_journal()
        journal.record(ADMISSION_DECIDED, z="last", a="first")
        (line,) = journal.export_jsonl().splitlines()
        assert line == json.dumps(json.loads(line), sort_keys=True)

    @pytest.mark.parametrize(
        "line, complaint",
        [
            (
                '{"seq":0,"time":1.0,"type":"Bogus","attrs":{}}',
                "unknown event type 'Bogus'",
            ),
            ('{"seq":0,"type":"StoreSwept","attrs":{}}', "lacks time"),
            (
                '{"seq":0,"time":1.0,"type":"StoreSwept","attrs":{"hops":[1]}}',
                "not scalars",
            ),
        ],
    )
    def test_foreign_export_raises_typed_error_naming_the_line(
        self, line, complaint
    ):
        """A journal export is a file carried between machines: a bad
        line is a typed error that names it, never a bare KeyError."""
        good = '{"attrs": {}, "seq": 0, "time": 1.0, "type": "StoreSwept"}'
        text = f"{good}\n\n{line}\n"  # the bad line is line 3
        for load in (
            parse_jsonl,
            lambda text: EventJournal.import_jsonl(text, SimClock(start=0.0)),
        ):
            with pytest.raises(
                JournalFormatError, match=f"journal line 3: .*{complaint}"
            ):
                load(text)
        assert issubclass(JournalFormatError, ColibriError)


class TestScenarioDeterminism:
    def test_same_seed_same_journal_bytes(self):
        _, obs_a = run_health_scenario(seed=3, attack=True, rounds=300)
        _, obs_b = run_health_scenario(seed=3, attack=True, rounds=300)
        export = obs_a.journal.export_jsonl()
        assert export == obs_b.journal.export_jsonl()
        assert export  # the attack run actually recorded events

    def test_journal_gauges_cover_every_type(self):
        _, obs = run_health_scenario(seed=3, attack=False, rounds=50)
        state = obs.metrics.state()
        for event_type in EVENT_TYPES:
            snake = "".join(
                "_" + c.lower() if c.isupper() else c for c in event_type
            ).lstrip("_")
            assert f"events_{snake}_total" in state


class TestMergeEvents:
    def test_serial_equals_sharded(self):
        """Splitting a workload across per-shard journals and merging
        yields the same identity stream as one serial journal."""
        serial, serial_clock = make_journal(capacity=64)
        shard_a, clock_a = make_journal(capacity=64)
        shard_b, clock_b = make_journal(capacity=64)
        for index in range(20):
            attrs = {"reservation": f"r{index % 3}", "index": index}
            serial.record(VERDICT_DROPPED, **attrs)
            shard = (shard_a, clock_a) if index % 2 == 0 else (shard_b, clock_b)
            shard[0].record(VERDICT_DROPPED, **attrs)
            for clock in (serial_clock, clock_a, clock_b):
                clock.advance(0.5)
        merged = merge_events(shard_a.events(), shard_b.events())
        assert [event.identity() for event in merged] == [
            event.identity() for event in serial.events()
        ]

    def test_merge_survives_jsonl_round_trip(self):
        shard_a, clock_a = make_journal()
        shard_b, _ = make_journal()
        shard_a.record(OFD_FLAGGED, flow="aa")
        clock_a.advance(1.0)
        shard_a.record(OFD_FLAGGED, flow="bb")
        shard_b.record(VERDICT_DROPPED, flow="aa")
        merged = merge_events(
            parse_jsonl(shard_a.export_jsonl()),
            parse_jsonl(shard_b.export_jsonl()),
        )
        assert [event.type for event in merged] == [
            OFD_FLAGGED,
            VERDICT_DROPPED,
            OFD_FLAGGED,
        ]
