"""Empirical fairness measurement over service traces.

The measure compares normalized service between flow pairs: over a window
(t1, t2) in which both flows stay backlogged, the gap is
|S_i/f_i - S_j/f_j| where S is either units sent (packet-size mode) or
channel cycles held (occupation mode, sending plus blocking).  Sweeping the
gap over many windows yields an empirical fairness bound per mode: the
size-based sweep estimates the relative fairness bound (RFB), and the
occupation-based sweep the channel fairness bound (CFB).  A scheduler is
fair in a mode when the bound stays flat as windows grow; unfairness shows
up as a positive slope of max-gap versus window length.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

import numpy as np

from .core import FlowId, Trace, occupation_in_interval, sent_in_interval
from .schedulers import Accounting

Interval = tuple[int, int]


def normalized_service(
    trace: Trace,
    flow: FlowId,
    weight: float | Fraction,
    t1: int,
    t2: int,
    mode: Accounting = Accounting.PACKET_SIZE,
) -> Fraction:
    """Service of one flow in (t1, t2) divided by its weight."""
    if weight <= 0:
        raise ValueError(f"flow weight must be positive, got {weight}")
    if mode is Accounting.OCCUPATION:
        raw: Fraction | int = occupation_in_interval(trace, flow, t1, t2)
    else:
        raw = sent_in_interval(trace, flow, t1, t2)
    return Fraction(raw) / Fraction(weight)


def backlog_intervals(
    events: Iterable[tuple[int, int]],
    horizon: int | None = None,
) -> list[Interval]:
    """Maximal [start, end) intervals with positive queue length.

    `events` are (cycle, queue_len_after) transitions in time order, with the
    queue empty before the first event.  An interval still open at the last
    event closes at `horizon` when given, else stays open (end == horizon is
    required to close it).
    """
    intervals: list[Interval] = []
    open_at: int | None = None
    last_cycle: int | None = None
    for cycle, qlen in events:
        if last_cycle is not None and cycle < last_cycle:
            raise ValueError(f"queue events out of order at cycle {cycle}")
        last_cycle = cycle
        if qlen < 0:
            raise ValueError(f"negative queue length at cycle {cycle}")
        if open_at is None and qlen > 0:
            open_at = cycle
        elif open_at is not None and qlen == 0:
            if cycle > open_at:
                intervals.append((open_at, cycle))
            open_at = None
    if open_at is not None:
        if horizon is None:
            raise ValueError("backlog still open at final event; pass horizon to close it")
        if horizon > open_at:
            intervals.append((open_at, horizon))
    return intervals


def backlog_from_trace(trace: Trace, horizon: int | None = None) -> dict[FlowId, list[Interval]]:
    """Per-flow backlog intervals reconstructed from packet events.

    A packet occupies its queue from inject until service completion, so the
    queue-length trajectory is the running sum of +-1 deltas.  Undelivered
    packets hold their queue open to the horizon.
    """
    deltas: dict[FlowId, dict[int, int]] = {}
    end_default = horizon
    for ev in trace.events:
        d = deltas.setdefault(ev.flow, {})
        d[ev.inject] = d.get(ev.inject, 0) + 1
        if ev.deliver is not None:
            d[ev.deliver] = d.get(ev.deliver, 0) - 1
        elif end_default is None:
            last = trace.last_end()
            end_default = last if last is not None else ev.inject + 1
    out: dict[FlowId, list[Interval]] = {}
    for flow, d in deltas.items():
        qlen = 0
        evs = []
        for cycle in sorted(d):
            qlen += d[cycle]
            evs.append((cycle, qlen))
        close = horizon if horizon is not None else end_default
        out[flow] = backlog_intervals(evs, horizon=close)
    return out


def _covering(intervals: Sequence[Interval], t1: int, t2: int) -> bool:
    return any(a <= t1 and t2 <= b for a, b in intervals)


def fm_over_interval(
    trace: Trace,
    weights: dict[FlowId, float | Fraction],
    t1: int,
    t2: int,
    mode: Accounting = Accounting.PACKET_SIZE,
    backlogs: dict[FlowId, list[Interval]] | None = None,
) -> Fraction:
    """Largest pairwise normalized-service gap over flows backlogged through
    (t1, t2).  Zero when fewer than two such flows exist.

    Exact rational arithmetic; the windowed estimator below is the fast path.
    """
    if backlogs is None:
        backlogs = backlog_from_trace(trace, horizon=None)
    flows = [
        f for f in weights
        if _covering(backlogs.get(f, []), t1, t2)
    ]
    if len(flows) < 2:
        return Fraction(0)
    services = {
        f: normalized_service(trace, f, weights[f], t1, t2, mode) for f in flows
    }
    vals = sorted(services.values())
    return vals[-1] - vals[0]


@dataclass
class ModeSweep:
    """Window-sweep result for one accounting mode."""

    max_fm: float
    witness: Interval | None
    profile: list[tuple[int, float, int, int]]  # (length_bin_center, max_fm, t1, t2)
    slope: float

    def to_dict(self) -> dict:
        return {
            "max_fm": self.max_fm,
            "witness": list(self.witness) if self.witness else None,
            "profile": [list(p) for p in self.profile],
            "slope_per_cycle": self.slope,
        }


@dataclass
class FairnessReport:
    flows: list[FlowId]
    weights: dict[FlowId, float]
    grid: str
    backlogs: dict[FlowId, list[Interval]]
    sweeps: dict[str, ModeSweep] = field(default_factory=dict)

    @property
    def rfb_estimate(self) -> float:
        return self.sweeps[Accounting.PACKET_SIZE.value].max_fm

    @property
    def cfb_estimate(self) -> float:
        return self.sweeps[Accounting.OCCUPATION.value].max_fm

    def sweep(self, mode: Accounting) -> ModeSweep:
        return self.sweeps[mode.value]

    def to_dict(self) -> dict:
        return {
            "flows": self.flows,
            "weights": {str(k): v for k, v in sorted(self.weights.items())},
            "grid": self.grid,
            "backlogs": {str(k): [list(i) for i in v] for k, v in sorted(self.backlogs.items())},
            "rfb_estimate": self.rfb_estimate,
            "cfb_estimate": self.cfb_estimate,
            "sweeps": {k: s.to_dict() for k, s in self.sweeps.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def windows_to_csv(self, fh: TextIO, mode: Accounting = Accounting.PACKET_SIZE) -> None:
        w = csv.writer(fh)
        w.writerow(["t1", "t2", "fm"])
        for _, fm, t1, t2 in self.sweeps[mode.value].profile:
            w.writerow([t1, t2, fm])


_MAX_GRID = 1500
_N_BINS = 24


def _grid_indices(n_bounds: int) -> tuple[np.ndarray, str]:
    if n_bounds <= _MAX_GRID:
        return np.arange(n_bounds), f"all {n_bounds} record boundaries"
    step = int(np.ceil(n_bounds / _MAX_GRID))
    return np.arange(0, n_bounds, step), (
        f"every {step}th of {n_bounds} record boundaries"
    )


def rfb_estimate(
    trace: Trace,
    weights: dict[FlowId, float],
) -> FairnessReport:
    """Sweep fairness gaps over windows spanned by record boundaries.

    Both accounting modes are swept.  The overall estimate per mode is exact
    over all boundary windows inside common backlog stretches (cumulative
    curves make every window a pair difference, so the max is a
    max-minus-min).  The FM-versus-window-length profile holds, per length
    bin, the largest gap over every window of the grid (exact on the grid; the
    grid subsamples traces of more than _MAX_GRID boundaries), found with
    range max/min queries in O(G log G + G*B) per stretch of G grid points
    and B bins.  Its least-squares slope is the boundedness statistic: near
    zero for a fair discipline, positive when the gap grows with window
    length.
    """
    for f, w in weights.items():
        if w <= 0:
            raise ValueError(f"flow weight must be positive, got {w} for flow {f}")
    flows = sorted(weights)
    backlogs = backlog_from_trace(trace)
    bounds_list = trace.boundaries()
    report = FairnessReport(
        flows=flows,
        weights={f: float(weights[f]) for f in flows},
        grid="empty trace",
        backlogs={f: backlogs.get(f, []) for f in flows},
    )
    if len(bounds_list) < 2 or len(flows) < 1:
        for acct in Accounting:
            report.sweeps[acct.value] = ModeSweep(0.0, None, [], 0.0)
        return report

    bounds = np.asarray(bounds_list, dtype=np.int64)
    nb = len(bounds)
    # cumulative units per flow at each boundary; records never straddle a
    # boundary of the same trace, so these are exact integers
    cum_sent = {f: np.zeros(nb, dtype=np.int64) for f in flows}
    cum_occ = {f: np.zeros(nb, dtype=np.int64) for f in flows}
    pos = {int(t): k for k, t in enumerate(bounds)}
    for r in trace.records:
        if r.flow not in cum_sent:
            continue
        k = pos[r.end]
        cum_sent[r.flow][k] += r.sent_units
        cum_occ[r.flow][k] += r.end - r.start
    for f in flows:
        np.cumsum(cum_sent[f], out=cum_sent[f])
        np.cumsum(cum_occ[f], out=cum_occ[f])

    grid_idx, grid_desc = _grid_indices(nb)
    report.grid = grid_desc
    grid_t = bounds[grid_idx]

    for acct, cum in ((Accounting.PACKET_SIZE, cum_sent), (Accounting.OCCUPATION, cum_occ)):
        best = 0.0
        witness: Interval | None = None
        bin_best: dict[int, tuple[float, int, int]] = {}
        max_len = int(bounds[-1] - bounds[0])
        bin_w = max(1, int(np.ceil(max_len / _N_BINS)))
        for ai in range(len(flows)):
            for bi in range(ai + 1, len(flows)):
                fa, fb = flows[ai], flows[bi]
                d = cum[fa] / weights[fa] - cum[fb] / weights[fb]
                grid_d = d[grid_idx]
                table = _range_table(grid_d)
                for a1, a2 in _common_stretches(backlogs.get(fa, []), backlogs.get(fb, [])):
                    lo = int(np.searchsorted(bounds, a1, side="left"))
                    hi = int(np.searchsorted(bounds, a2, side="right"))
                    if hi - lo < 2:
                        continue
                    seg = d[lo:hi]
                    k_max = int(np.argmax(seg))
                    k_min = int(np.argmin(seg))
                    gap = float(seg[k_max] - seg[k_min])
                    if gap > best:
                        best = gap
                        w1, w2 = sorted((int(bounds[lo + k_max]), int(bounds[lo + k_min])))
                        witness = (w1, w2)
                    # binned profile over the window grid points in the stretch
                    p0, p1 = (int(p) for p in np.searchsorted(grid_idx, (lo, hi)))
                    if p1 - p0 >= 2:
                        _bin_stretch(grid_t, grid_d, table, p0, p1, bin_w, bin_best)
        profile = [
            (int((b + 0.5) * bin_w), v, t1, t2)
            for b, (v, t1, t2) in sorted(bin_best.items())
        ]
        if len(profile) >= 2:
            xs = np.array([p[0] for p in profile], dtype=float)
            ys = np.array([p[1] for p in profile], dtype=float)
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = 0.0
        report.sweeps[acct.value] = ModeSweep(best, witness, profile, slope)
    return report


def _range_table(x: np.ndarray) -> np.ndarray:
    """Sparse table for range max/min queries over `x`.

    `table[k, s]` holds (max, -min) of `x[s : s + 2**k]`; entries whose range
    would run past the end are never queried.
    """
    levels = [np.stack([x, -x], axis=1)]
    h = 1
    while 2 * h <= len(x):
        prev = levels[-1]
        nxt = prev.copy()
        np.maximum(prev[:-h], prev[h:], out=nxt[:-h])
        levels.append(nxt)
        h *= 2
    return np.stack(levels)


def _bin_stretch(
    gt: np.ndarray,
    gd: np.ndarray,
    table: np.ndarray,
    p0: int,
    p1: int,
    bin_w: int,
    bin_best: dict[int, tuple[float, int, int]],
) -> None:
    """Fold the largest gap per window-length bin over grid points p0..p1-1
    into `bin_best`, keeping an existing entry unless strictly beaten.

    Grid times are increasing, so for start i the ends in length bin b form
    one index range; a range max/min of `gd` gives the row's best gap in that
    bin, at O(G log G + G*B) per stretch.  Ties go to the first (i, j) in
    row-major order, as a scan over every pair would choose.
    """
    t = gt[p0:p1]
    g = p1 - p0
    n_bins = int(t[-1] - t[0]) // bin_w + 1
    ends = np.searchsorted(t, t[:, None] + bin_w * np.arange(n_bins + 1))
    lo = np.maximum(ends[:, :-1], np.arange(1, g + 1)[:, None])
    hi = ends[:, 1:]
    ok = lo < hi
    # absolute grid positions; an empty range queries a one-point range instead
    lo = np.where(ok, lo, 0) + p0
    hi = np.where(ok, hi, 1) + p0
    lev = np.frexp(hi - lo)[1] - 1
    q = np.maximum(table[lev, lo], table[lev, hi - (1 << lev)])
    x = gd[p0:p1, None]
    # rounding is monotone, so this is max |gd[j] - gd[i]| over the range
    rows = np.where(ok, np.maximum(q[..., 0] - x, x + q[..., 1]), -np.inf)
    first = rows.argmax(axis=0)
    tops = rows[first, np.arange(n_bins)].tolist()
    for b, val in enumerate(tops):
        cur = bin_best.get(b)
        if val == -np.inf or cur is not None and val <= cur[0]:
            continue
        i = int(first[b])
        a, z = int(lo[i, b]), int(hi[i, b])
        j = a + int(np.argmax(np.abs(gd[a:z] - gd[p0 + i])))
        bin_best[b] = (val, int(gt[p0 + i]), int(gt[j]))


def _common_stretches(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """Pairwise intersection of two interval lists."""
    out = []
    i = j = 0
    a = sorted(a)
    b = sorted(b)
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out
