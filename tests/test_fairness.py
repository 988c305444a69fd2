import csv
import io
import json
from fractions import Fraction

import pytest

from fairmesh.core import PacketEvent, ServiceRecord, Trace
from fairmesh.fairness import (
    backlog_from_trace,
    backlog_intervals,
    fm_over_interval,
    normalized_service,
    rfb_estimate,
)
from fairmesh.schedulers import Accounting, make_scheduler

from conftest import backlogged_workload, make_workload


def rec(flow, rnd, start, end, sent, blocking=0):
    return ServiceRecord(flow=flow, round=rnd, start=start, end=end,
                         sent_units=sent, blocking=blocking)


def covered(trace, flow, start, end):
    """Mark the flow backlogged over [start, end) via a synthetic packet."""
    trace.add_event(PacketEvent(packet_id=len(trace.events), flow=flow,
                                inject=start, deliver=end))


@pytest.fixture
def two_flow_trace():
    t = Trace()
    t.append(rec(0, 1, 0, 350, 350))
    t.append(rec(1, 1, 350, 600, 250))
    t.append(rec(0, 2, 600, 950, 350))
    t.append(rec(1, 2, 950, 1200, 250))
    covered(t, 0, 0, 1200)
    covered(t, 1, 0, 1200)
    return t


@pytest.fixture
def three_flow_trace():
    t = Trace()
    t.append(rec(0, 1, 0, 10, 10))
    t.append(rec(1, 1, 10, 14, 4))
    t.append(rec(2, 1, 14, 21, 7))
    for f in range(3):
        covered(t, f, 0, 21)
    return t


class TestNormalizedService:
    def test_unit_weight_is_raw_units(self, two_flow_trace):
        assert normalized_service(two_flow_trace, 0, 1, 0, 1200) == 700
        assert normalized_service(two_flow_trace, 1, 1, 0, 1200) == 500

    def test_weight_divides(self, two_flow_trace):
        assert normalized_service(two_flow_trace, 0, 2, 0, 1200) == 350
        assert normalized_service(two_flow_trace, 0, Fraction(7, 2), 0, 1200) == 200

    def test_occupation_mode_counts_blocking(self):
        t = Trace()
        t.append(rec(0, 1, 0, 20, 10, blocking=10))
        assert normalized_service(t, 0, 1, 0, 20) == 10
        assert normalized_service(t, 0, 1, 0, 20, mode=Accounting.OCCUPATION) == 20

    def test_nonpositive_weight_rejected(self, two_flow_trace):
        with pytest.raises(ValueError):
            normalized_service(two_flow_trace, 0, 0, 0, 1200)


class TestFmOverInterval:
    def test_two_flow_gap(self, two_flow_trace):
        assert fm_over_interval(two_flow_trace, {0: 1, 1: 1}, 0, 1200) == 200

    def test_three_flow_max_pairwise(self, three_flow_trace):
        assert fm_over_interval(three_flow_trace, {0: 1, 1: 1, 2: 1}, 0, 21) == 6

    def test_single_backlogged_flow_is_zero(self, three_flow_trace):
        # window inside flow 0's service only
        t = Trace()
        t.append(rec(0, 1, 0, 10, 10))
        covered(t, 0, 0, 10)
        assert fm_over_interval(t, {0: 1, 1: 1}, 0, 10) == 0

    def test_flow_excluded_unless_backlogged_throughout(self, two_flow_trace):
        # flow 1's backlog is trimmed so the full window no longer qualifies
        t = Trace()
        for r in two_flow_trace.records:
            t.append(r)
        covered(t, 0, 0, 1200)
        covered(t, 1, 100, 1200)
        assert fm_over_interval(t, {0: 1, 1: 1}, 0, 1200) == 0
        assert fm_over_interval(t, {0: 1, 1: 1}, 350, 950) == Fraction(350) - Fraction(250)

    def test_weights_rescale_gap(self, two_flow_trace):
        assert fm_over_interval(two_flow_trace, {0: Fraction(7, 5), 1: 1}, 0, 1200) == 0


class TestBacklogIntervals:
    def test_worked_trajectory(self):
        # queue grows 0 -> 1 -> 2 then drains at cycle 9
        assert backlog_intervals([(5, 1), (7, 2), (9, 0)]) == [(5, 9)]

    def test_multiple_intervals(self):
        evs = [(0, 1), (3, 0), (10, 2), (11, 1), (12, 0)]
        assert backlog_intervals(evs) == [(0, 3), (10, 12)]

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            backlog_intervals([(7, 1), (5, 0)])

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            backlog_intervals([(5, -1)])

    def test_open_interval_needs_horizon(self):
        assert backlog_intervals([(5, 1)], horizon=20) == [(5, 20)]
        with pytest.raises(ValueError):
            backlog_intervals([(5, 1)])

    def test_from_trace_matches_packet_lifecycle(self):
        t = Trace()
        t.add_event(PacketEvent(0, 0, inject=0, deliver=4))
        t.add_event(PacketEvent(1, 0, inject=2, deliver=9))
        t.add_event(PacketEvent(2, 0, inject=9, deliver=12))  # back to back
        t.add_event(PacketEvent(3, 1, inject=20, deliver=25))
        got = backlog_from_trace(t)
        assert got[0] == [(0, 12)]
        assert got[1] == [(20, 25)]

    def test_from_trace_undelivered_needs_bound(self):
        t = Trace()
        t.append(rec(0, 1, 0, 5, 5))
        t.add_event(PacketEvent(0, 0, inject=0, deliver=None))
        got = backlog_from_trace(t)  # falls back to last record end
        assert got[0] == [(0, 5)]
        assert backlog_from_trace(t, horizon=30)[0] == [(0, 30)]


def brute_force_max_fm(trace, weights, mode):
    """Independent sweep: every boundary pair, exact arithmetic."""
    backlogs = backlog_from_trace(trace, horizon=None)
    bounds = trace.boundaries()
    best = Fraction(0)
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            fm = fm_over_interval(trace, weights, bounds[i], bounds[j],
                                  mode=mode, backlogs=backlogs)
            if fm > best:
                best = fm
    return best


def run_trace(kind, workload, horizon=None, **kw):
    sched = make_scheduler(kind, **kw)
    sched.load(workload)
    sched.run(horizon=horizon)
    return sched.trace


class TestRfbEstimate:
    def test_single_flow_is_zero(self):
        t = Trace()
        t.append(rec(0, 1, 0, 10, 10))
        covered(t, 0, 0, 10)
        rep = rfb_estimate(t, {0: 1})
        assert rep.rfb_estimate == 0.0
        assert rep.cfb_estimate == 0.0

    def test_empty_trace(self):
        rep = rfb_estimate(Trace(), {0: 1, 1: 1})
        assert rep.rfb_estimate == 0.0
        assert rep.sweep(Accounting.PACKET_SIZE).witness is None

    def test_alternation_bounded_by_packet_size(self):
        # strict alternation of 8-unit packets: gap never exceeds one packet
        t = Trace()
        clock = 0
        for rnd in range(1, 26):
            for f in (0, 1):
                t.append(rec(f, rnd, clock, clock + 8, 8))
                clock += 8
        covered(t, 0, 0, clock)
        covered(t, 1, 0, clock)
        rep = rfb_estimate(t, {0: 1, 1: 1})
        assert 0 < rep.rfb_estimate <= 8
        assert abs(rep.sweep(Accounting.PACKET_SIZE).slope) < 0.01

    def test_witness_window_reproduces_max(self, two_flow_trace):
        rep = rfb_estimate(two_flow_trace, {0: 1, 1: 1})
        t1, t2 = rep.sweep(Accounting.PACKET_SIZE).witness
        got = fm_over_interval(two_flow_trace, {0: 1, 1: 1}, t1, t2)
        assert float(got) == rep.rfb_estimate

    def test_max_equals_profile_max_on_full_grid(self, two_flow_trace):
        rep = rfb_estimate(two_flow_trace, {0: 1, 1: 1})
        sweep = rep.sweep(Accounting.PACKET_SIZE)
        assert rep.grid.startswith("all")
        assert sweep.max_fm == pytest.approx(max(p[1] for p in sweep.profile))

    def test_modes_agree_without_blocking(self):
        trace = run_trace("drr", make_workload(seed=3, n_flows=3), quantum=16)
        rep = rfb_estimate(trace, {0: 1, 1: 1, 2: 1})
        a = rep.sweep(Accounting.PACKET_SIZE)
        b = rep.sweep(Accounting.OCCUPATION)
        assert a.max_fm == b.max_fm
        assert a.witness == b.witness

    @pytest.mark.parametrize("kind", ["drr", "err", "ebrr"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fast_path_matches_brute_force(self, kind, seed):
        kw = {} if kind == "err" else {"quantum": 16}
        trace = run_trace(kind, backlogged_workload(seed=seed, packets_per_flow=12),
                          **kw)
        weights = {0: 1, 1: 1}
        rep = rfb_estimate(trace, weights)
        for mode in Accounting:
            oracle = brute_force_max_fm(trace, weights, mode)
            assert rep.sweeps[mode.value].max_fm == pytest.approx(float(oracle))

    def test_fast_path_matches_brute_force_weighted(self):
        trace = run_trace("drr", backlogged_workload(seed=9, packets_per_flow=12),
                          quantum={0: 24, 1: 16})
        weights = {0: 1.5, 1: 1.0}
        rep = rfb_estimate(trace, weights)
        oracle = brute_force_max_fm(trace, {0: Fraction(3, 2), 1: 1},
                                    Accounting.PACKET_SIZE)
        assert rep.rfb_estimate == pytest.approx(float(oracle))

    def test_drr_gap_bounded_by_visit_drift(self):
        # a boundary window can catch one flow a whole visit ahead, and each
        # visit sends at most quantum + max_size - 1
        for seed in range(5):
            trace = run_trace("drr", backlogged_workload(seed=seed, packets_per_flow=30),
                              quantum=16)
            rep = rfb_estimate(trace, {0: 1, 1: 1})
            assert rep.rfb_estimate <= 2 * (16 + 16)

    def test_report_serializes(self, two_flow_trace):
        rep = rfb_estimate(two_flow_trace, {0: 1, 1: 1})
        blob = json.loads(rep.to_json())
        assert blob["rfb_estimate"] == rep.rfb_estimate
        assert blob["cfb_estimate"] == rep.cfb_estimate
        fh = io.StringIO()
        rep.windows_to_csv(fh)
        rows = list(csv.reader(io.StringIO(fh.getvalue())))
        assert rows[0] == ["t1", "t2", "fm"]
        assert len(rows) > 1

    def test_occupation_gap_grows_under_blocking(self):
        # flow 0 holds the channel twice as long per unit sent; size-mode
        # stays even while occupation-mode drifts
        t = Trace()
        clock = 0
        for rnd in range(1, 21):
            t.append(rec(0, rnd, clock, clock + 16, 8, blocking=8))
            clock += 16
            t.append(rec(1, rnd, clock, clock + 8, 8))
            clock += 8
        covered(t, 0, 0, clock)
        covered(t, 1, 0, clock)
        rep = rfb_estimate(t, {0: 1, 1: 1})
        assert rep.rfb_estimate <= 8
        assert rep.cfb_estimate >= 8 * 18
        assert rep.sweep(Accounting.OCCUPATION).slope > 0.2
