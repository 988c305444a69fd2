import copy
import dataclasses
import io
import math
import pickle
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


class TestRecordContract:
    """What a packet, a service record and a packet event offer their users:
    fields, defaults, equality, text, copies and the checks on construction."""

    def test_construction_and_defaults(self):
        p = Packet(7, 1, 16)
        assert p == Packet(id=7, flow=1, size=16) == Packet(7, 1, 16, 0)
        assert (p.id, p.flow, p.size, p.inject_time) == (7, 1, 16, 0)
        assert Packet(7, 1, 16, inject_time=5).inject_time == 5
        r = ServiceRecord(2, 3, 10, 30, 12)
        assert r == ServiceRecord(flow=2, round=3, start=10, end=30, sent_units=12, blocking=0)
        assert (r.flow, r.round, r.start, r.end, r.sent_units, r.blocking) == (2, 3, 10, 30, 12, 0)
        r = ServiceRecord(2, 3, 10, 30, 12, blocking=8)
        assert (r.duration, r.sending, r.blocking) == (20, 12, 8)

    def test_equality_and_hash(self):
        a, b = ServiceRecord(0, 1, 0, 5, 4, 1), ServiceRecord(0, 1, 0, 5, 4, 1)
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
        assert hash(a) == hash((0, 1, 0, 5, 4, 1))
        assert a != ServiceRecord(0, 1, 0, 5, 5, 0)
        p, q = Packet(1, 0, 4, 2), Packet(1, 0, 4, 2)
        assert p == q and hash(p) == hash(q) and p != Packet(1, 0, 4, 3)

    def test_repr(self):
        assert repr(Packet(7, 1, 16)) == "Packet(id=7, flow=1, size=16, inject_time=0)"
        assert repr(ServiceRecord(2, 3, 10, 30, 12, 8)) == (
            "ServiceRecord(flow=2, round=3, start=10, end=30, sent_units=12, blocking=8)")

    @pytest.mark.parametrize("rec", [Packet(7, 1, 16, 3), ServiceRecord(2, 3, 10, 30, 12, 8)],
                             ids=["packet", "record"])
    def test_pickle_and_copy(self, rec):
        for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert back == rec and type(back) is type(rec) and repr(back) == repr(rec)

    def test_trace_row_and_csv(self):
        r = ServiceRecord(2, 3, 10, 30, 12, 8)
        assert Trace.row(r) == (2, 3, 10, 30, 12, 8)
        t = make_trace([(2, 3, 10, 30, 12, 8), (0, 4, 30, 34, 4)])
        buf = io.StringIO()
        t.to_csv(buf)
        assert buf.getvalue() == ("flow,round,start,end,sent_units,blocking\r\n"
                                  "2,3,10,30,12,8\r\n0,4,30,34,4,0\r\n")

    @pytest.mark.parametrize("args,message", [
        ((0, 1, 10, 10, 0), "record must span time: start=10 end=10"),
        ((0, 1, 10, 9, 0), "record must span time: start=10 end=9"),
        ((0, 1, 0, 5, 1, 6), "blocking 6 outside [0, 5]"),
        ((0, 1, 0, 5, 1, -1), "blocking -1 outside [0, 5]"),
        ((0, 1, 0, 5, -1), "sent_units must be >= 0"),
    ])
    def test_record_value_errors(self, args, message):
        with pytest.raises(ValueError) as e:
            ServiceRecord(*args)
        assert str(e.value) == message

    @pytest.mark.parametrize("kw,message", [
        (dict(size=0), "packet size must be an integer >= 1, got 0"),
        (dict(size=2.5), "packet size must be an integer >= 1, got 2.5"),
        (dict(size=True), "packet size must be an integer >= 1, got True"),
        (dict(size=4, inject_time=-1), "packet inject_time must be an integer >= 0, got -1"),
        (dict(size=4, inject_time=0.5), "packet inject_time must be an integer >= 0, got 0.5"),
    ])
    def test_packet_value_errors(self, kw, message):
        with pytest.raises(ValueError) as e:
            Packet(id=0, flow=0, **kw)
        assert str(e.value) == message

    def test_assignment_raises(self):
        p, r = Packet(0, 0, 4), ServiceRecord(0, 1, 0, 5, 5)
        for name in ("id", "flow", "size", "inject_time"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 9)
        for name in ("flow", "round", "start", "end", "sent_units", "blocking"):
            with pytest.raises(AttributeError):
                setattr(r, name, 9)
        assert p == Packet(0, 0, 4) and r == ServiceRecord(0, 1, 0, 5, 5)

    def test_packet_event(self):
        ev = PacketEvent(3, 1, inject=4)
        assert ev.deliver is None
        ev.deliver = 9
        assert dataclasses.astuple(ev) == (3, 1, 4, 9)
        assert ev == PacketEvent(packet_id=3, flow=1, inject=4, deliver=9)


class TestRecordsAreTuples:
    """A packet and a service record are tuples of their fields: they equal
    the plain tuple of their values, and `_replace` checks as building does."""

    def test_equal_to_plain_tuples(self):
        assert ServiceRecord(2, 3, 10, 30, 12, 8) == (2, 3, 10, 30, 12, 8)
        assert Packet(7, 1, 16) == (7, 1, 16, 0)

    def test_replace_checks(self):
        r = ServiceRecord(2, 3, 10, 30, 12, 8)
        assert r._replace(blocking=0) == ServiceRecord(2, 3, 10, 30, 12)
        with pytest.raises(ValueError, match="record must span time"):
            r._replace(end=10)
        with pytest.raises(ValueError, match="packet size"):
            Packet(7, 1, 16)._replace(size=0)


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

    def test_trace_that_keeps_nothing_counts_and_checks(self):
        t = Trace(keep=False)
        for row in [(0, 1, 0, 10, 10, 0), (1, 2, 10, 14, 3, 1)]:
            t.append(ServiceRecord(*row))
        assert t.records is None and t.sink is None and t.events == []
        assert len(t) == 2 and t.end == 14
        with pytest.raises(TraceError, match="start"):
            t.append(ServiceRecord(1, 3, 13, 16, 3, 0))
        for read in (t.boundaries, t.flows, lambda: throughput_by_flow(t)):
            with pytest.raises(TraceError, match="this trace keeps no records"):
                read()

    @pytest.mark.parametrize("rows,want", [
        ([], []),
        ([(0, 1, 0, 10, 10, 0)], [0, 10]),
        # back to back records share a boundary; a gap keeps both ends
        ([(0, 1, 0, 10, 10, 0), (1, 1, 10, 14, 4, 0), (0, 2, 20, 25, 5, 0)],
         [0, 10, 14, 20, 25]),
    ], ids=["empty", "one", "adjacent-and-gap"])
    def test_boundaries(self, rows, want):
        assert make_trace(rows).boundaries() == want


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
