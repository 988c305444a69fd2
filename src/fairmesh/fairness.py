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
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence, TextIO

from .core import Accounting, FlowId, Trace, is_finite

if TYPE_CHECKING:
    import numpy as np

Interval = tuple[int, int]


def backlog_from_trace(trace: Trace) -> dict[FlowId, list[Interval]]:
    """Per flow, the maximal [start, end) stretches, in time order, in which
    it has a packet queued: from the packet's inject until its delivery.

    One pass over each flow's sorted +-1 deltas.  Undelivered packets hold
    the queue to `close`, the last record's end (with no records, one cycle
    past the first undelivered packet's inject), where a stretch still open
    ends.  A packet delivered before its inject raises ValueError.
    """
    deltas: dict[FlowId, dict[int, int]] = {}
    close = None
    for ev in trace.events:
        d = deltas.setdefault(ev.flow, {})
        d[ev.inject] = d.get(ev.inject, 0) + 1
        if ev.deliver is not None:
            if ev.deliver < ev.inject:
                raise ValueError(f"packet {ev.packet_id} of flow {ev.flow} delivered at "
                                 f"{ev.deliver}, before its inject at {ev.inject}")
            d[ev.deliver] = d.get(ev.deliver, 0) - 1
        elif close is None:
            last = trace.end
            close = last if last is not None else ev.inject + 1
    out: dict[FlowId, list[Interval]] = {}
    for flow, d in deltas.items():
        out[flow] = stretches = []
        qlen = 0
        for cycle in sorted(d):
            was = qlen
            qlen += d[cycle]  # never below 0, as no packet leaves before it comes
            if not was and qlen:
                start = cycle
            elif was and not qlen:
                stretches.append((start, cycle))
        if qlen and close > start:
            stretches.append((start, close))
    return out


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
    rfb_estimate: float = 0.0
    cfb_estimate: float = 0.0
    # what the profile fold reads: each mode's witness, the boundary times,
    # each mode's cumulative curve per flow divided by its weight, and each
    # flow pair's [lo, hi) boundary index spans of its common stretches
    _witness: list[Interval | None] = field(default_factory=lambda: [None, None], repr=False)
    _times: list[int] = field(default_factory=list, repr=False)
    _curves: tuple[dict, ...] = field(default=(), repr=False)
    _spans: dict[tuple, list[Interval]] = field(default_factory=dict, repr=False)

    @cached_property
    def sweeps(self) -> dict[str, ModeSweep]:
        """Per mode, the max gap and its witness with the FM-versus-window-
        length profile and its slope, folded on first read."""
        import numpy as np

        t = np.asarray(self._times, dtype=np.int64)
        bin_best: tuple[dict, dict] = ({}, {})
        if self._spans:
            bin_w = max(1, int(np.ceil(int(t[-1] - t[0]) / _N_BINS)))
        curves = [{f: np.asarray(v) for f, v in c.items()} for c in self._curves]
        self._curves = ()  # the fold runs once; drop the lists before its tables
        for (fa, fb), spans in self._spans.items():
            _fold_profile(t, [c[fa] - c[fb] for c in curves], spans, bin_w, bin_best)
        sweeps = {}
        for m, acct in enumerate(_MODES):
            profile = [
                (int((b + 0.5) * bin_w), v, t1, t2)
                for b, (v, t1, t2) in sorted(bin_best[m].items())
            ]
            slope = 0.0
            if len(profile) >= 2:
                xs = np.array([p[0] for p in profile], dtype=float)
                ys = np.array([p[1] for p in profile], dtype=float)
                slope = float(np.polyfit(xs, ys, 1)[0])
            best = (self.rfb_estimate, self.cfb_estimate)[m]
            sweeps[acct.value] = ModeSweep(best, self._witness[m], profile, slope)
        return sweeps

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


_MODES = (Accounting.PACKET_SIZE, Accounting.OCCUPATION)
_N_BINS = 24
_BLOCK = 256  # window starts per step of the profile fold


def check_weights(weights: dict[FlowId, float], end: int) -> None:
    """Raise ValueError, naming the flow, unless every weight is a finite
    number above 0 that keeps the report of a trace ending by cycle `end`
    finite: a flow's service in a window, sent units or channel cycles, is
    at most `end`, and the profile's slope sums up to _N_BINS + 1 such gaps
    divided by a weight."""
    most = end * (_N_BINS + 1)
    for f, w in weights.items():
        if not (is_finite(w) and w > 0):
            raise ValueError(f"weights[{f!r}] must be a finite number above 0, got {w!r}")
        if most > w * sys.float_info.max:  # most / w overflows
            raise ValueError(f"weights[{f!r}] must be at least {most / sys.float_info.max:.3g} "
                             f"for a trace that ends by cycle {end}, got {w!r}")


def rfb_estimate(
    trace: Trace,
    weights: dict[FlowId, float],
) -> FairnessReport:
    """Sweep fairness gaps over windows spanned by record boundaries.

    Both accounting modes are swept over every record boundary.  The overall
    estimate per mode is exact over all boundary windows inside common
    backlog stretches (cumulative curves make every window a pair
    difference, so the max is a max-minus-min), found here in one pass.
    The FM-versus-window-length profile (`FairnessReport.sweeps`, built on
    first read) holds, per length bin, the largest gap over the same
    windows, found with range max/min queries in O(N log N + N*B) per flow
    pair for N boundaries and B bins.  Its least-squares slope is the
    boundedness statistic: near zero for a fair discipline, positive when
    the gap grows with window length.
    """
    check_weights(weights, trace.end or 0)
    flows = sorted(weights)
    backlogs = backlog_from_trace(trace)
    times = trace.boundaries()
    report = FairnessReport(
        flows=flows,
        weights={f: float(weights[f]) for f in flows},
        grid="empty trace",
        backlogs={f: backlogs.get(f, []) for f in flows},
    )
    if len(times) < 2 or len(flows) < 1:
        return report

    nb = len(times)
    report.grid = f"all {nb} record boundaries"
    report._times = times
    # each flow pair's [lo, hi) boundary index spans of its common stretches,
    # found first, so that only flows in a pair with spans get curves
    for ai, fa in enumerate(flows):
        for fb in flows[ai + 1:]:
            spans = [
                (lo, hi)
                for a, b in _common_stretches(backlogs.get(fa, []), backlogs.get(fb, []))
                for lo, hi in [(bisect_left(times, a), bisect_right(times, b))]
                if hi - lo >= 2
            ]
            if spans:
                report._spans[fa, fb] = spans
    if not report._spans:
        return report
    paired = sorted({f for pair in report._spans for f in pair})
    # units per flow ending at each boundary, one table per mode; records
    # never straddle a boundary of the same trace, so the sums are exact
    incs = tuple({f: [0] * nb for f in paired} for _ in _MODES)
    pos = {t: k for k, t in enumerate(times)}
    for r in trace.records:
        if r.flow in incs[0]:
            k = pos[r.end]
            incs[0][r.flow][k] += r.sent_units
            incs[1][r.flow][k] += r.end - r.start
    # `/` on the weight as given keeps Fraction weights exact
    report._curves = tuple(
        {f: [c / weights[f] for c in accumulate(inc[f])] for f in paired} for inc in incs
    )
    best, witness = [0.0, 0.0], report._witness
    for (fa, fb), spans in report._spans.items():
        for m, c in enumerate(report._curves):
            d = list(map(operator.sub, c[fa], c[fb]))
            for lo, hi in spans:
                seg = d[lo:hi]
                vmax, vmin = max(seg), min(seg)
                gap = float(vmax - vmin)
                if gap > best[m]:
                    best[m] = gap
                    # ties go to the first occurrence of each
                    ends = times[lo + seg.index(vmax)], times[lo + seg.index(vmin)]
                    witness[m] = (min(ends), max(ends))
    report.rfb_estimate, report.cfb_estimate = best
    return report


def _range_table(x: np.ndarray) -> np.ndarray:
    """Sparse table for range max/min queries over `x`.

    Row `k * len(x) + s` holds (max, -min) of `x[s : s + 2**k]`; rows whose
    range would run past the end are never queried.
    """
    import numpy as np

    table = np.empty((len(x).bit_length(), len(x), 2))
    table[0, :, 0] = x
    table[0, :, 1] = -x
    for k in range(1, len(table)):
        h = 1 << (k - 1)
        table[k] = table[k - 1]
        np.maximum(table[k - 1, :-h], table[k - 1, h:], out=table[k, :-h])
    return table.reshape(-1, 2)


def _fold_profile(
    t: np.ndarray,
    ds: Sequence[np.ndarray],
    spans: Sequence[Interval],
    bin_w: int,
    bin_best: Sequence[dict[int, tuple[float, int, int]]],
) -> None:
    """Fold one flow pair's largest gap per window-length bin into each
    mode's `bin_best`, keeping an existing entry unless strictly beaten.

    `ds` holds the pair's gap curve per mode at the boundary times `t`, and
    `spans` the [lo, hi) boundary index ranges of its common stretches.  Each
    boundary of a span but its last starts windows ending inside the span.
    Times increase, so the ends of start i in length bin b form one index
    range, and a range max/min of the curve gives its best gap.  The ranges
    are found per block of _BLOCK starts and shared by both modes.  Ties go
    to the first (i, j) in row-major order, as a scan over every pair would.
    """
    import numpy as np

    starts = np.concatenate([np.arange(lo, hi - 1) for lo, hi in spans])
    stops = np.concatenate([np.full(hi - 1 - lo, hi) for lo, hi in spans])
    n_bins = int(t[-1] - t[0]) // bin_w + 1
    edges = bin_w * np.arange(n_bins + 1)
    cols = np.arange(n_bins)
    tables = [_range_table(d) for d in ds]
    for k in range(0, len(starts), _BLOCK):
        i = starts[k:k + _BLOCK]
        # one row per bin edge, so the keys searched ascend along each row
        ends = np.searchsorted(t, edges[:, None] + t[i])
        lo = np.maximum(ends[:-1], i + 1)
        hi = np.minimum(ends[1:], stops[k:k + _BLOCK])
        ok = lo < hi
        # an empty range queries a one-point range instead
        lo = np.where(ok, lo, 0)
        hi = np.where(ok, hi, 1)
        lev = np.frexp(hi - lo)[1] - 1
        head = lev * len(t) + lo
        tail = head + (hi - lo) - (1 << lev)
        for d, table, bins in zip(ds, tables, bin_best):
            q = np.maximum(table.take(head, axis=0), table.take(tail, axis=0))
            x = d[i]
            # rounding is monotone, so this is max |d[j] - d[i]| over the range
            rows = np.where(ok, np.maximum(q[..., 0] - x, x + q[..., 1]), -np.inf)
            first = rows.argmax(axis=1)
            for b, val in enumerate(rows[cols, first].tolist()):
                cur = bins.get(b)
                if val == -np.inf or cur is not None and val <= cur[0]:
                    continue
                c = int(first[b])
                a, z = int(lo[b, c]), int(hi[b, c])
                j = a + int(np.argmax(np.abs(d[a:z] - x[c])))
                bins[b] = (val, int(t[i[c]]), int(t[j]))


def _common_stretches(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """Pairwise intersection of two lists of disjoint intervals in time
    order, which is how `backlog_from_trace` builds them."""
    out = []
    i = j = 0
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
