import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairmesh
from fairmesh import presets
from fairmesh.core import (Accounting, PacketEvent, ServiceRecord, Trace, latency_stats,
                           throughput_by_flow)
from fairmesh.fairness import _BLOCK, backlog_from_trace, rfb_estimate
from fairmesh.meshsim import MeshConfig, run_mesh
from fairmesh.schedulers import make_scheduler

from conftest import backlogged_workload, make_workload
from oracles import (backlog_by_cycle, eager_bounds, exact_max_fm, fm_over_interval, folded_run,
                     normalized_service)


def rec(flow, rnd, start, end, sent, blocking=0):
    return ServiceRecord(flow=flow, round=rnd, start=start, end=end,
                         sent_units=sent, blocking=blocking)


def covered(trace, flow, start, end):
    """Mark the flow backlogged over [start, end) via a synthetic packet."""
    trace.events.append(PacketEvent(packet_id=len(trace.events), flow=flow,
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


def packet_trace(*events, records=()):
    """A trace of `records` and of (flow, inject, deliver) packet events."""
    t = Trace()
    for r in records:
        t.append(r)
    for pid, (flow, inject, deliver) in enumerate(events):
        t.events.append(PacketEvent(pid, flow, inject, deliver))
    return t


class TestBacklogIntervals:
    """The stretches in which a flow has a packet queued."""

    def test_worked_trajectory(self):
        # queue grows 0 -> 1 -> 2 then drains at cycle 9
        t = packet_trace((0, 5, 8), (0, 7, 9))
        assert backlog_from_trace(t) == {0: [(5, 9)]}

    def test_multiple_intervals(self):
        t = packet_trace((0, 0, 3), (0, 10, 12), (0, 10, 11))
        assert backlog_from_trace(t) == {0: [(0, 3), (10, 12)]}

    def test_negative_length_rejected(self):
        # a packet delivered before its inject would take its queue below
        # empty; it is caught with another packet of the flow queued too
        for events in ([(0, 5, 4)], [(0, 0, 10), (0, 5, 4)]):
            with pytest.raises(ValueError, match="before its inject"):
                backlog_from_trace(packet_trace(*events))

    def test_open_interval_needs_horizon(self):
        # an undelivered packet holds its queue to the last record's end
        t = packet_trace((0, 5, None), records=[rec(1, 1, 0, 20, 20)])
        assert backlog_from_trace(t) == {0: [(5, 20)]}

    def test_from_trace_matches_packet_lifecycle(self):
        t = Trace()
        t.events.append(PacketEvent(0, 0, inject=0, deliver=4))
        t.events.append(PacketEvent(1, 0, inject=2, deliver=9))
        t.events.append(PacketEvent(2, 0, inject=9, deliver=12))  # back to back
        t.events.append(PacketEvent(3, 1, inject=20, deliver=25))
        got = backlog_from_trace(t)
        assert got[0] == [(0, 12)]
        assert got[1] == [(20, 25)]

    def test_from_trace_undelivered_needs_bound(self):
        t = Trace()
        t.append(rec(0, 1, 0, 5, 5))
        t.events.append(PacketEvent(0, 0, inject=0, deliver=None))
        got = backlog_from_trace(t)  # falls back to last record end
        assert got[0] == [(0, 5)]


class TestBacklogMatchesCycleCount:
    """`backlog_from_trace` against the cycle-by-cycle count of queued packets."""

    @pytest.mark.parametrize("kind", ["rr", "drr", "err", "ebrr", "carr"])
    def test_horizon_cut_disciplines(self, kind):
        kw = {"quantum": 6} if kind in ("drr", "ebrr") else {}
        for seed in range(4):
            trace = run_trace(kind, make_workload(seed, n_flows=3, n_packets=60, spread=300),
                              horizon=250, **kw)
            assert any(ev.deliver is None for ev in trace.events)
            assert backlog_from_trace(trace) == backlog_by_cycle(trace)

    def test_mesh_sink_trace(self):
        trace = run_mesh(MeshConfig(k=4, rate=0.05, horizon=400, warmup=0)).sink_trace()
        got = backlog_from_trace(trace)
        assert len(got) == 3 and all(len(v) > 3 for v in got.values())
        assert got == backlog_by_cycle(trace)

    @pytest.mark.parametrize("events,records,want", [
        pytest.param([(0, 0, 4), (0, 4, 9)], [], {0: [(0, 9)]}, id="back-to-back"),
        pytest.param([(0, 3, 3), (1, 2, 6), (1, 6, 6)], [], {0: [], 1: [(2, 6)]},
                     id="deliver-at-inject"),
        # with no records, undelivered packets hold their queue to one cycle
        # past the first one's inject, and one injected later opens nothing
        pytest.param([(0, 0, 2), (0, 2, None), (1, 5, None)], [], {0: [(0, 3)], 1: []},
                     id="no-records"),
        pytest.param([(1, 10, None), (0, 4, 10)], [rec(0, 1, 4, 10, 6)],
                     {0: [(4, 10)], 1: []}, id="undelivered-at-close"),
        pytest.param([], [], {}, id="empty"),
    ])
    def test_hand_built(self, events, records, want):
        t = packet_trace(*events, records=records)
        assert backlog_from_trace(t) == backlog_by_cycle(t) == want


def brute_force_max_fm(trace, weights, mode):
    """Independent sweep: every boundary pair, exact arithmetic."""
    backlogs = backlog_from_trace(trace)
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

    def test_bad_weight_rejected(self, two_flow_trace):
        for w in (0, -1.0, math.nan, math.inf, True, "1"):
            with pytest.raises(ValueError, match="finite number above 0"):
                rfb_estimate(two_flow_trace, {0: w, 1: 1.0})

    def test_integer_too_large_for_a_float_rejected(self, two_flow_trace):
        with pytest.raises(ValueError, match=f"got {10**400}"):
            rfb_estimate(two_flow_trace, {0: 10**400, 1: 1.0})

    @pytest.mark.parametrize("weights", [{0: 1e-320, 1: 1.0}, {0: 1e308, 1: 1e-308}],
                             ids=["inf", "nan"])
    def test_weight_that_overflows_the_normalized_service_rejected(self, two_flow_trace,
                                                                   weights):
        # a gap of inf, or of inf - inf, made the report no JSON number
        with pytest.raises(ValueError, match=r"weights\[\d\] must be at least .* for a trace "
                                             r"that ends by cycle 1200, got 1e-3[02]"):
            rfb_estimate(two_flow_trace, weights)

    def test_smallest_weight_keeps_the_report_finite(self):
        # flow 0 sends every cycle to the end while flow 1 waits, so its
        # normalized service, and the gaps of every profile bin, reach
        # end / weight, the most the weight check allows
        t = Trace()
        for n in range(48):
            t.append(rec(0, n + 1, 25 * n, 25 * n + 25, 25))
        covered(t, 0, 0, 1200)
        covered(t, 1, 0, 1200)
        w = math.nextafter(1200 * 25 / sys.float_info.max, math.inf)
        report = rfb_estimate(t, {0: w, 1: 1.0})
        assert report.rfb_estimate > sys.float_info.max / 26
        json.dumps(report.to_dict(), allow_nan=False)
        with pytest.raises(ValueError, match="must be at least"):
            rfb_estimate(t, {0: w / 2, 1: 1.0})

    def test_empty_trace(self):
        rep = rfb_estimate(Trace(), {0: 1, 1: 1})
        assert rep.rfb_estimate == 0.0
        assert rep.sweeps[Accounting.PACKET_SIZE.value].witness is None

    def test_no_common_stretch_builds_no_curves(self):
        # four flows served one after another, each backlogged only in its
        # own turn: no pair shares a stretch, so nothing reads a curve.  The
        # curves would take a float per flow, mode and boundary, 8 x 32 bytes
        # a boundary here; the boundary times alone take about 130
        n_flows, n = 4, 5000
        t = Trace()
        clock = 0
        for f in range(n_flows):
            start = clock
            for rnd in range(1, n + 1):
                t.append(rec(f, rnd, clock, clock + 3, 2, blocking=1))
                clock += 3
            covered(t, f, start, clock)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = rfb_estimate(t, {f: 1.0 for f in range(n_flows)})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rep.grid == f"all {n_flows * n + 1} record boundaries"
        assert rep.rfb_estimate == rep.cfb_estimate == 0.0
        assert peak < 200 * (n_flows * n + 1), peak

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
        assert abs(rep.sweeps[Accounting.PACKET_SIZE.value].slope) < 0.01

    def test_witness_window_reproduces_max(self, two_flow_trace):
        rep = rfb_estimate(two_flow_trace, {0: 1, 1: 1})
        t1, t2 = rep.sweeps[Accounting.PACKET_SIZE.value].witness
        got = fm_over_interval(two_flow_trace, {0: 1, 1: 1}, t1, t2)
        assert float(got) == rep.rfb_estimate

    def test_max_equals_profile_max_on_full_grid(self, two_flow_trace):
        # 800 alternation rounds give 1601 boundaries; an every-other-boundary
        # grid would sit at one phase of the round and read a 0.0 profile
        for trace in (two_flow_trace, _alternation_trace(rounds=800)):
            rep = rfb_estimate(trace, {0: 1, 1: 1})
            sweep = rep.sweeps[Accounting.PACKET_SIZE.value]
            assert rep.grid.startswith("all")
            assert sweep.max_fm == pytest.approx(max(p[1] for p in sweep.profile))

    def test_modes_agree_without_blocking(self):
        trace = run_trace("drr", make_workload(seed=3, n_flows=3), quantum=16)
        rep = rfb_estimate(trace, {0: 1, 1: 1, 2: 1})
        a = rep.sweeps[Accounting.PACKET_SIZE.value]
        b = rep.sweeps[Accounting.OCCUPATION.value]
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
        assert rep.sweeps[Accounting.OCCUPATION.value].slope > 0.2


_WEIGHT_KINDS = {
    "unit": lambda n: {f: 1 for f in range(n)},
    "float": lambda n: {f: 1.0 + 0.35 * f for f in range(n)},
    "int": lambda n: {f: 1 + f % 3 for f in range(n)},
    "fraction": lambda n: {f: Fraction(10, f + 3) for f in range(n)},
}


def _bounds_pass_case(kind, n_flows, weight_kind):
    """A small random workload of the bounds-pass grid: its packets, the
    discipline's settings and the weights."""
    packets = make_workload(seed=n_flows, n_flows=n_flows, n_packets=5 * n_flows, max_size=8,
                            spread=60)
    kw = {"quantum": 6} if kind in ("drr", "ebrr") else {}
    return packets, kw, _WEIGHT_KINDS[weight_kind](n_flows)


class TestBoundsPass:
    """The bounds against the boundary-pair brute force."""

    @pytest.mark.parametrize("kind", ["rr", "drr", "err", "ebrr", "carr"])
    @pytest.mark.parametrize("n_flows", [2, 3, 4, 5])
    @pytest.mark.parametrize("weight_kind", list(_WEIGHT_KINDS))
    def test_bounds_match_brute_force(self, kind, n_flows, weight_kind):
        packets, kw, weights = _bounds_pass_case(kind, n_flows, weight_kind)
        trace = run_trace(kind, packets, **kw)
        rep = rfb_estimate(trace, weights)
        eager = [rep.rfb_estimate, rep.cfb_estimate]
        witness = list(rep._witness)
        assert "sweeps" not in vars(rep)  # the bounds did not fold the profile
        backlogs = backlog_from_trace(trace)
        # unit and Fraction weights keep the pass's arithmetic exact
        exact = weight_kind in ("unit", "fraction")
        for m, mode in enumerate(Accounting):
            oracle = float(brute_force_max_fm(trace, weights, mode))
            assert eager[m] == (oracle if exact else pytest.approx(oracle, rel=1e-12))
            if oracle == 0:
                assert witness[m] is None
                continue
            got = fm_over_interval(trace, weights, *witness[m], mode=mode,
                                   backlogs=backlogs)
            assert float(got) == pytest.approx(eager[m], rel=1e-12)
        assert any(eager), "a workload with no gap checks nothing"
        for m, mode in enumerate(Accounting):
            assert rep.sweeps[mode.value].max_fm == eager[m]
            assert rep.sweeps[mode.value].witness == witness[m]


# the exact-scan traces: five disciplines, seeds 1-12, packets of at most 5
# units within 30 cycles, in three groups of flows and weights
_SCAN_GROUPS = {
    "unit": {0: 1, 1: 1},
    "1:5/2": {0: 1, 1: Fraction(5, 2)},
    "1:2:3": {0: 1, 1: 2, 2: 3},
}


def _scan_case(kind, seed, weights):
    """The packets and the discipline's settings of one exact-scan trace."""
    packets = presets.random_workload(seed, n_flows=len(weights), packets_per_flow=6,
                                      max_size=5, spread=30)
    return packets, ({"quantum": 4} if kind in ("drr", "ebrr") else {})


@pytest.fixture(scope="module")
def exact_scan():
    """Per small trace: its name, [rfb_estimate, cfb_estimate] and the exact
    scan's [sent-size, occupation] maxima.  Five disciplines, seeds 1-12, two
    flows of six packets of at most 5 units within 30 cycles, unit weights."""
    out = []
    for kind in ("rr", "drr", "err", "ebrr", "carr"):
        for seed in range(1, 13):
            weights = _SCAN_GROUPS["unit"]
            packets, kw = _scan_case(kind, seed, weights)
            trace = run_trace(kind, packets, **kw)
            rep = rfb_estimate(trace, weights)
            out.append((f"{kind} seed {seed}", [rep.rfb_estimate, rep.cfb_estimate],
                        exact_max_fm(trace, weights)))
    return out


class TestExactWindowScan:
    """The two bounds against the scan over every integer window.

    The definition admits any window inside a common backlog stretch, and a
    stretch may start or end inside a record; rfb_estimate puts window ends
    only at record boundaries (ROADMAP item 1)."""

    def test_estimates_never_exceed_exact_scan(self, exact_scan):
        for name, estimate, exact in exact_scan:
            assert estimate[0] <= exact[0] and estimate[1] <= exact[1], name
        assert all(exact[0] > 0 for _, _, exact in exact_scan)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the estimate reads windows "
                                           "between record boundaries only")
    def test_estimates_equal_exact_scan(self, exact_scan):
        below = [(name, estimate, [float(x) for x in exact])
                 for name, estimate, exact in exact_scan
                 if estimate != [float(x) for x in exact]]
        assert not below


def test_bounds_load_no_numpy_and_the_profile_does():
    probe = (
        "import json, sys\n"
        "from fairmesh import presets\n"
        "from fairmesh.fairness import rfb_estimate\n"
        "from fairmesh.schedulers import make_scheduler\n"
        "s = make_scheduler('rr', blocked=presets.pathology_blocking())\n"
        "s.load(presets.pathology_workload(2000))\n"
        "rep = rfb_estimate(s.run(horizon=2000), dict(presets.PATHOLOGY_WEIGHTS))\n"
        "seen = [rep.rfb_estimate > 0, rep.cfb_estimate > 0, 'numpy' in sys.modules]\n"
        "rep.sweeps\n"
        "print(json.dumps(seen + ['numpy' in sys.modules]))\n"
    )
    src = str(Path(fairmesh.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    # both bounds are read with numpy unloaded; reading the profile loads it
    assert json.loads(out) == [True, True, False, True]


def _pair_stretches(backlogs, fa, fb):
    """Common backlog stretches of two flows, in time order."""
    return sorted(
        (max(a1, b1), min(a2, b2))
        for a1, a2 in backlogs.get(fa, []) for b1, b2 in backlogs.get(fb, [])
        if min(a2, b2) > max(a1, b1)
    )


def brute_force_profile(trace, weights, mode):
    """Independent binned profile: every grid pair of every common backlog
    stretch in plain Python, keeping the first (i, j) in row-major order that
    attains each bin's max.  The grid is every record boundary, as in
    rfb_estimate."""
    bounds = trace.boundaries()
    bin_w = max(1, math.ceil((bounds[-1] - bounds[0]) / 24))
    backlogs = backlog_from_trace(trace)
    flows = sorted(weights)
    cum = {}
    for f in flows:
        at_end = {}
        for r in trace.records:
            if r.flow == f:
                units = r.end - r.start if mode is Accounting.OCCUPATION else r.sent_units
                at_end[r.end] = at_end.get(r.end, 0) + units
        total, cum[f] = 0, []
        for t in bounds:
            total += at_end.get(t, 0)
            cum[f].append(total)
    best = {}
    for ai, fa in enumerate(flows):
        for fb in flows[ai + 1:]:
            d = [x / weights[fa] - y / weights[fb] for x, y in zip(cum[fa], cum[fb])]
            for s1, s2 in _pair_stretches(backlogs, fa, fb):
                pts = [k for k, t in enumerate(bounds) if s1 <= t <= s2]
                for i in pts:
                    for j in pts:
                        if j <= i:
                            continue
                        b = (bounds[j] - bounds[i]) // bin_w
                        v = abs(d[j] - d[i])
                        if b not in best or v > best[b][0]:
                            best[b] = (v, bounds[i], bounds[j])
    profile = [(int((b + 0.5) * bin_w), v, t1, t2) for b, (v, t1, t2) in sorted(best.items())]
    if len(profile) < 2:
        return profile, 0.0
    xs = [p[0] for p in profile]
    ys = [p[1] for p in profile]
    return profile, float(np.polyfit(xs, ys, 1)[0])


def _alternation_trace(rounds=30):
    t = Trace()
    clock = 0
    for rnd in range(1, rounds + 1):
        for f in (0, 1):
            t.append(rec(f, rnd, clock, clock + 8, 8))
            clock += 8
    covered(t, 0, 0, clock)
    covered(t, 1, 0, clock)
    return t


def _blocking_trace():
    t = Trace()
    clock = 0
    for rnd in range(1, 21):
        t.append(rec(0, rnd, clock, clock + 16, 8, blocking=8))
        clock += 16
        t.append(rec(1, rnd, clock, clock + 8, 8))
        clock += 8
    covered(t, 0, 0, clock)
    covered(t, 1, 0, clock)
    return t


def _short_stretch_trace():
    # flow 1's backlogs overlap flow 0's in stretches holding one, two and
    # many record boundaries
    t = Trace()
    clock = 0
    for rnd in range(1, 13):
        t.append(rec(0, rnd, clock, clock + 5, 5))
        clock += 5
        t.append(rec(1, rnd, clock, clock + 3, 3))
        clock += 3
    covered(t, 0, 0, clock)
    covered(t, 1, 6, 9)     # one boundary (8)
    covered(t, 1, 12, 18)   # two boundaries (13, 16)
    covered(t, 1, 30, clock)
    return t


def _many_stretches_trace():
    # 800 rounds (1601 boundaries) with flow 1 backlogged in short stretches
    # of one to four boundaries, so the brute force stays fast
    t = Trace()
    clock = 0
    for rnd in range(1, 801):
        t.append(rec(0, rnd, clock, clock + 5, 5))
        clock += 5
        t.append(rec(1, rnd, clock, clock + 3, 3))
        clock += 3
    covered(t, 0, 0, clock)
    for k, start in enumerate(range(6, clock - 32, 32)):
        covered(t, 1, start, start + 3 + 4 * (k % 4))
    return t


def _sparse_trace(kind, seed):
    # arrivals spread thin, so the flows' backlogs meet in several stretches
    return run_trace(kind, make_workload(seed=seed, n_flows=3, n_packets=45,
                                         max_size=6, spread=900),
                     **({"quantum": 4} if kind in ("drr", "ebrr") else {}))


def _stretch_sizes(trace, weights):
    bounds = trace.boundaries()
    backlogs = backlog_from_trace(trace)
    flows = sorted(weights)
    return [
        sum(1 for t in bounds if s1 <= t <= s2)
        for i, fa in enumerate(flows) for fb in flows[i + 1:]
        for s1, s2 in _pair_stretches(backlogs, fa, fb)
    ]


class TestProfileMatchesBruteForce:
    """The range-query profile against a scan over every grid pair."""

    @pytest.mark.parametrize("make,weights", [
        (_alternation_trace, {0: 1, 1: 1}),
        (_alternation_trace, {0: 1.5, 1: 1}),
        (_blocking_trace, {0: 1, 1: 1}),
        (_short_stretch_trace, {0: 1, 1: 1}),
        (_short_stretch_trace, {0: 1.5, 1: 1}),
    ], ids=["alternation", "alternation-w1.5", "blocking", "short-stretches",
            "short-stretches-w1.5"])
    def test_synthetic(self, make, weights):
        self._check(make(), weights)

    @pytest.mark.parametrize("kind", ["rr", "drr", "err", "ebrr", "carr"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_several_stretches_per_pair(self, kind, seed):
        trace = _sparse_trace(kind, seed)
        weights = {0: 1.5, 1: 1, 2: 1}
        sizes = _stretch_sizes(trace, weights)
        assert len(sizes) > 3
        self._check(trace, weights)

    def test_cases_cover_one_and_two_point_stretches(self):
        sizes = _stretch_sizes(_short_stretch_trace(), {0: 1, 1: 1})
        assert 1 in sizes and 2 in sizes

    @pytest.mark.parametrize("weights", [{0: 1, 1: 1}, {0: 1.5, 1: 1}],
                             ids=["unit", "w1.5"])
    def test_many_stretches_past_one_block(self, weights):
        trace = _many_stretches_trace()
        assert len(trace.boundaries()) > 1500
        # every boundary of a stretch but its last starts windows; the first
        # block of starts must end inside a stretch
        starts = np.cumsum([n - 1 for n in _stretch_sizes(trace, weights)])
        assert starts[-1] > _BLOCK and _BLOCK not in starts
        self._check(trace, weights)

    @staticmethod
    def _check(trace, weights):
        rep = rfb_estimate(trace, weights)
        assert rep.grid.startswith("all")
        for mode in Accounting:
            profile, slope = brute_force_profile(trace, weights, mode)
            assert rep.sweeps[mode.value].profile == profile
            assert rep.sweeps[mode.value].slope == slope


def _pathology_trace(kind):
    kw = {"blocked": presets.pathology_blocking()}
    if kind == "drr":
        kw["quantum"] = dict(presets.PATHOLOGY_DRR_QUANTA)
    sched = make_scheduler(kind, **kw)
    sched.load(presets.pathology_workload(96_000))
    sched.run(horizon=96_000)
    return sched.trace, dict(presets.PATHOLOGY_WEIGHTS)


def _random_trace(kind, n_flows, weights, **kw):
    sched = make_scheduler(kind, **kw)
    sched.load(presets.random_workload(1, n_flows=n_flows))
    sched.run()
    return sched.trace, weights


def _mesh_sink_trace():
    trace = run_mesh(MeshConfig(k=8, rate=1.0, horizon=4000, warmup=400, seed=1)).sink_trace()
    return trace, {f: 1.0 for f in sorted({r.flow for r in trace.records})}


class TestGoldenFairnessReports:
    """Byte-identical fairness report plus both window CSVs for fixed traces.

    A CLI compare report.json carries no profile, so these hashes are what
    pins the binned profiles, witnesses and slopes.  Record new hashes only
    together with a stated reason.

    The three pathology hashes were re-recorded when the window grid became
    every record boundary.  Before, traces of more than 1500 boundaries kept
    every k-th one, which aliased with the periodic schedule: the sent-size
    profile read 0.0 in every bin where the exact max is 16 (rr, drr) or 32
    (carr).
    """

    @pytest.mark.parametrize("make,grid,want", [
        (lambda: _pathology_trace("rr"), "all 2744 record boundaries",
         "372e32b7dd07f8b124bdf646f010d8993cf3da34d0c4874193bc6ee600a1e8b5"),
        (lambda: _pathology_trace("drr"), "all 2744 record boundaries",
         "372e32b7dd07f8b124bdf646f010d8993cf3da34d0c4874193bc6ee600a1e8b5"),
        (lambda: _pathology_trace("carr"), "all 2242 record boundaries",
         "4cb5c0a4337b7c1cd71544f7e806cc832e253d8aefe0cf8340be7eeae8233b45"),
        (lambda: _random_trace("drr", 3, {0: 1.5, 1: 1, 2: 0.5}, quantum=16),
         "all 331 record boundaries",
         "3145db51f2b9db57ee2df3f6ec6dd6550fea8e82d7770dc8925a3e20dd7de0ff"),
        (lambda: _random_trace("err", 4, {0: 2, 1: 1, 2: 1, 3: 0.5}),
         "all 610 record boundaries",
         "cb03131fec8000372bf0cefd3f62871a4ec8480408a5af4607be58cf6c986593"),
        (_mesh_sink_trace, "all 900 record boundaries",
         "bb15bcbdf53d752757c3459e0f6b766f41afaad42e70ba9ca70a6f27c9817d44"),
    ], ids=["pathology-rr", "pathology-drr", "pathology-carr", "random3-drr-weighted",
            "random4-err-weighted", "mesh-hotspot-k8"])
    def test_report_hash(self, make, grid, want):
        trace, weights = make()
        rep = rfb_estimate(trace, weights)
        assert rep.grid == grid
        buf = io.StringIO()
        buf.write(rep.to_json())
        for mode in Accounting:
            rep.windows_to_csv(buf, mode)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want


def _check_fold(kind, packets, weights, horizon=None, **kw):
    """A run folded as it goes against `eager_bounds` of the same run's kept
    trace, which `rfb_estimate` must equal too; the folded run keeps no
    record or event, and tallies what the kept trace gives."""
    bounds, sched, trace = folded_run(kind, packets, weights, horizon, **kw)
    want = eager_bounds(trace, weights)
    assert bounds == want
    rep = rfb_estimate(trace, weights)
    assert ([rep.rfb_estimate, rep.cfb_estimate], rep._witness) == want
    assert sched.trace.records is None and sched.trace.events == []
    assert len(sched.trace) == len(trace)
    assert sched.tallies() == (throughput_by_flow(trace), latency_stats(trace.events))
    return want


class TestBoundsFold:
    """`BoundsFold`, fed by the engine as it runs and by `rfb_estimate` from
    a kept trace, against the eager max-minus-min pass (`eager_bounds`)."""

    @pytest.mark.parametrize("kind", ["rr", "drr", "err", "ebrr", "carr"])
    @pytest.mark.parametrize("n_flows", [2, 3, 4, 5])
    @pytest.mark.parametrize("weight_kind", list(_WEIGHT_KINDS))
    def test_bounds_pass_grid(self, kind, n_flows, weight_kind):
        packets, kw, weights = _bounds_pass_case(kind, n_flows, weight_kind)
        assert any(_check_fold(kind, packets, weights, **kw)[0])

    @pytest.mark.parametrize("group", list(_SCAN_GROUPS))
    def test_exact_scan_traces(self, group):
        weights = _SCAN_GROUPS[group]
        for kind in ("rr", "drr", "err", "ebrr", "carr"):
            for seed in range(1, 13):
                packets, kw = _scan_case(kind, seed, weights)
                _check_fold(kind, packets, weights, **kw)

    @pytest.mark.parametrize("kind", ["rr", "drr", "err", "ebrr", "carr"])
    def test_pathology(self, kind):
        kw = {"blocked": presets.pathology_blocking()}
        if kind in ("drr", "ebrr"):
            kw["quantum"] = dict(presets.PATHOLOGY_DRR_QUANTA)
        best, _ = _check_fold(kind, presets.pathology_workload(96_000),
                              dict(presets.PATHOLOGY_WEIGHTS), 96_000, **kw)
        assert best[1] > best[0] > 0

    @pytest.mark.parametrize("kind,n_flows,weights,kw", [
        ("drr", 3, {0: 1.5, 1: 1, 2: 0.5}, {"quantum": 16}),
        ("err", 4, {0: 2, 1: 1, 2: 1, 3: 0.5}, {}),
    ], ids=["random3-drr-weighted", "random4-err-weighted"])
    def test_golden_random_traces(self, kind, n_flows, weights, kw):
        _check_fold(kind, presets.random_workload(1, n_flows=n_flows), weights, **kw)

    def test_mesh_sink_trace(self):
        # deliveries before warmup have no record, so the replay reads the
        # backlog stretches, not the raw events
        trace, weights = _mesh_sink_trace()
        rep = rfb_estimate(trace, weights)
        assert ([rep.rfb_estimate, rep.cfb_estimate], rep._witness) == \
            eager_bounds(trace, weights)

    @pytest.mark.parametrize("events,records,want", [
        # flow 1 is backlogged over [0, 10): its stretch with flow 0 keeps
        # the boundary at 10, by which flow 0 has sent 10 units and it none
        ([(0, 0, 20), (1, 0, 10)], [rec(0, 1, 0, 10, 10), rec(2, 1, 10, 20, 10)],
         ([10.0, 10.0], [(0, 10), (0, 10)])),
        # flow 1 is backlogged from 10: its stretch with flow 0 takes the
        # boundary at 10, after which flow 0 sends 10 units
        ([(0, 0, 20), (1, 10, 20), (2, 0, 10)], [rec(2, 1, 0, 10, 10), rec(0, 1, 10, 20, 10)],
         ([10.0, 10.0], [(10, 20), (10, 20)])),
    ], ids=["end-at-boundary", "start-at-boundary"])
    def test_closed_windows(self, events, records, want):
        t = packet_trace(*events, records=records)
        assert eager_bounds(t, {0: 1, 1: 1}) == want
        rep = rfb_estimate(t, {0: 1, 1: 1})
        assert ([rep.rfb_estimate, rep.cfb_estimate], rep._witness) == want
