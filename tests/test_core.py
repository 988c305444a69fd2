import dataclasses
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairmesh.core import (
    Packet,
    PacketEvent,
    ServiceRecord,
    Trace,
    TraceError,
    is_finite,
    latency_stats,
    throughput_by_flow,
)

from oracles import occupation_in_interval, sent_in_interval, trace_from_csv


def make_trace(rows):
    t = Trace()
    for row in rows:
        t.append(ServiceRecord(*row))
    return t


class TestServiceRecord:
    def test_sending_identity(self):
        r = ServiceRecord(flow=0, round=1, start=10, end=30, sent_units=15, blocking=5)
        assert r.sending == 15 == r.sent_units

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            ServiceRecord(0, 1, 10, 10, 0, 0)

    def test_rejects_blocking_beyond_span(self):
        with pytest.raises(ValueError):
            ServiceRecord(0, 1, 0, 5, 1, 6)


class TestIsFinite:
    @pytest.mark.parametrize("x,want", [
        (1, True), (2.5, True), (Fraction(1, 3), True), (10**300, True),
        (10**400, False), (-(10**400), False), (math.inf, False), (math.nan, False),
        (True, False), ("1", False),
    ], ids=["int", "float", "fraction", "int-1e300", "int-1e400", "int-minus-1e400",
            "inf", "nan", "bool", "str"])
    def test_verdict(self, x, want):
        assert is_finite(x) is want


class TestPacket:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Packet(id=0, flow=0, size=0)

    # a NaN arrival time used to hang SchedulerBase.run, and a fractional one
    # gave fractional service records
    @pytest.mark.parametrize("inject_time", [math.nan, 0.5, -1])
    def test_rejects_bad_inject_time(self, inject_time):
        with pytest.raises(ValueError, match="inject_time"):
            Packet(id=0, flow=0, size=4, inject_time=inject_time)

    def test_rejects_fractional_size(self):
        with pytest.raises(ValueError, match="size"):
            Packet(id=0, flow=0, size=2.5)

    def test_is_frozen(self):
        # compare hands one seed's packets to every discipline
        with pytest.raises(dataclasses.FrozenInstanceError):
            Packet(id=0, flow=0, size=4).inject_time = 3


class TestRecordService:
    def test_append_and_adjacent(self):
        t = make_trace([(0, 1, 0, 10, 10, 0)])
        # starting exactly at the previous end is legal
        t.append(ServiceRecord(1, 1, 10, 14, 4, 0))
        assert len(t) == 2

    def test_overlap_rejected(self):
        t = make_trace([(0, 1, 0, 10, 10, 0)])
        with pytest.raises(TraceError):
            t.append(ServiceRecord(1, 1, 9, 12, 3, 0))

    def test_streamed_trace_writes_the_kept_rows(self):
        rows = [(0, 1, 0, 10, 10, 0), (1, 2, 10, 14, 3, 1)]
        kept, out = io.StringIO(), io.StringIO()
        make_trace(rows).to_csv(kept)
        t = Trace(out)
        for row in rows:
            t.append(ServiceRecord(*row))
        assert out.getvalue() == kept.getvalue()
        assert t.records is None and t.events == []
        assert len(t) == 2 and t.end == 14
        with pytest.raises(TraceError):  # the same check, and no row written
            t.append(ServiceRecord(1, 3, 13, 16, 3, 0))
        assert out.getvalue() == kept.getvalue()


class TestSentInInterval:
    def test_contained_record(self):
        t = make_trace([(3, 1, 5, 15, 10, 0)])
        assert sent_in_interval(t, 3, 0, 100) == 10

    def test_no_records_for_flow(self):
        t = make_trace([(3, 1, 5, 15, 10, 0)])
        assert sent_in_interval(t, 4, 0, 100) == 0

    def test_proration_of_straddling_record(self):
        # record spans (90, 110) with 20 units; first half falls inside (0, 100)
        t = make_trace([(0, 1, 90, 110, 20, 0)])
        assert sent_in_interval(t, 0, 0, 100) == 10

    def test_proration_with_blocking(self):
        # 10 units over 20 cycles (10 blocked), half the span inside the window
        t = make_trace([(0, 1, 0, 20, 10, 10)])
        assert sent_in_interval(t, 0, 0, 10) == 5

    def test_empty_interval_rejected(self):
        t = make_trace([(0, 1, 0, 10, 10, 0)])
        with pytest.raises(ValueError):
            sent_in_interval(t, 0, 7, 7)

    @given(
        recs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 20), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        ),
        cuts=st.tuples(st.integers(0, 400), st.integers(0, 400), st.integers(0, 400)),
    )
    def test_additivity_over_partition(self, recs, cuts):
        t = Trace()
        now = 0
        for flow, dur, blocking in recs:
            blocking = min(blocking, dur - 1)
            t.append(ServiceRecord(flow, 1, now, now + dur, dur - blocking, blocking))
            now += dur
        t1, t2, t3 = sorted(cuts)
        if t1 == t2 or t2 == t3:
            return
        for flow in range(4):
            whole = sent_in_interval(t, flow, t1, t3)
            parts = sent_in_interval(t, flow, t1, t2) + sent_in_interval(t, flow, t2, t3)
            assert whole == parts  # exact, not approximate

    def test_total_equals_sum_of_records(self):
        t = make_trace([(0, 1, 0, 10, 10, 0), (1, 1, 10, 18, 8, 0), (0, 2, 18, 25, 7, 0)])
        assert sent_in_interval(t, 0, 0, 25) == 17
        assert throughput_by_flow(t) == {0: 17, 1: 8}


class TestOccupationInInterval:
    def test_counts_blocked_cycles(self):
        t = make_trace([(0, 1, 0, 20, 10, 10)])
        assert occupation_in_interval(t, 0, 0, 20) == 20
        assert occupation_in_interval(t, 0, 5, 12) == 7

    def test_outside_window(self):
        t = make_trace([(0, 1, 10, 20, 10, 0)])
        assert occupation_in_interval(t, 0, 25, 30) == 0


class TestSerialization:
    def test_csv_round_trip(self):
        t = make_trace([(0, 1, 0, 10, 10, 0), (1, 1, 10, 18, 6, 2)])
        buf = io.StringIO()
        t.to_csv(buf)
        buf.seek(0)
        back = trace_from_csv(buf)
        assert back.records == t.records

    def test_csv_header(self):
        t = make_trace([(0, 1, 0, 10, 10, 0)])
        buf = io.StringIO()
        t.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "flow,round,start,end,sent_units,blocking"

    def test_bad_header_rejected(self):
        with pytest.raises(TraceError):
            trace_from_csv(io.StringIO("a,b,c\n"))


class TestClockAndEvents:
    def test_latency_stats(self):
        evs = [
            PacketEvent(0, 0, inject=0, deliver=10),
            PacketEvent(1, 0, inject=5, deliver=25),
            PacketEvent(2, 1, inject=0, deliver=None),
        ]
        stats = latency_stats(evs)
        assert stats[0]["mean"] == 15.0
        assert stats[0]["max"] == 20.0
        assert 1 not in stats  # undelivered packets do not contribute
