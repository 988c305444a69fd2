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
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence, TextIO

from .core import Accounting, FlowId, ServiceRecord, Trace, is_finite

if TYPE_CHECKING:
    import numpy as np

Interval = tuple[int, int]


def backlog_from_trace(trace: Trace) -> dict[FlowId, list[Interval]]:
    """Per flow, the maximal [start, end) stretches, in time order, in which
    it has a packet queued: from the packet's inject until its delivery.

    One merge of each flow's sorted inject and deliver cycles: its queue
    empties at the cycle of its k-th delivery when no k+1-th inject comes
    by then, as no packet is delivered before its inject.  Undelivered
    packets hold the queue to `close`, the last record's end (with no
    records, one cycle past the first undelivered packet's inject), where a
    stretch still open ends.  A packet delivered before its inject raises
    ValueError.
    """
    injects: defaultdict[FlowId, list[int]] = defaultdict(list)
    delivers: defaultdict[FlowId, list[int]] = defaultdict(list)
    close = None
    for ev in trace.events:
        flow, inject, deliver = ev.flow, ev.inject, ev.deliver
        injects[flow].append(inject)
        if deliver is not None:
            if deliver < inject:
                raise ValueError(f"packet {ev.packet_id} of flow {flow} delivered at "
                                 f"{deliver}, before its inject at {inject}")
            delivers[flow].append(deliver)
        elif close is None:
            last = trace.end
            close = last if last is not None else inject + 1
    out: dict[FlowId, list[Interval]] = {}
    for flow, ins in injects.items():
        ins.sort()
        outs = delivers[flow]
        outs.sort()
        out[flow] = stretches = []
        first = 0  # the packets before it were delivered when the queue last emptied
        for k, cycle in enumerate(outs, 1):
            if k < len(ins) and ins[k] <= cycle:
                continue  # the k+1-th packet is queued by then
            if ins[first] < cycle:  # packets injected and delivered in one cycle open nothing
                stretches.append((ins[first], cycle))
            first = k
        if first < len(ins) and close > ins[first]:
            stretches.append((ins[first], close))
    return out


class _Gap:
    """One flow pair's gap curve in one mode: over the pair's open common
    stretch, its max and min, each with the time it first occurred; and the
    best max-minus-min of the stretches closed so far, with its witness."""

    __slots__ = ("hi", "t_hi", "lo", "t_lo", "best", "witness")

    def __init__(self) -> None:
        self.best: float = 0.0
        self.witness: Interval | None = None

    def open(self, d, t: int) -> None:
        self.hi = self.lo = d
        self.t_hi = self.t_lo = t

    def close(self) -> None:
        gap = float(self.hi - self.lo)
        if gap > self.best:  # ties go to the first stretch
            self.best = gap
            self.witness = (min(self.t_hi, self.t_lo), max(self.t_hi, self.t_lo))


class BoundsFold:
    """Both bounds of one service history, folded as it happens, in
    O(flows + pairs) state: per flow, its cumulative sent units and channel
    cycles, and per flow pair and mode, a `_Gap`.  The result equals an
    eager max-minus-min pass over each pair's gap curve at the record
    boundaries of each common backlog stretch, ties going to the first
    pair, then stretch, then time.

    Feed it each flow's backlog stretch starts (`start`) and ends (`end`)
    in time order, starts first at one cycle, each before the first record
    that ends at or after its cycle; and the records in order (`record`).
    Then read `bounds()`.  Every record's start and end is a boundary, but
    only flows with a weight are measured.  The windows are closed, so a
    start applies before the boundary at its cycle and an end after it, and
    a stretch opened between boundaries takes its first value at the next
    one.  At a boundary only the pairs of the flow whose service changed are
    re-evaluated: no other pair's gap moves.
    """

    def __init__(self, weights: dict[FlowId, float]) -> None:
        # per weighted flow: [sent units, channel cycles, weight, and the two
        # divided by the weight], where `/` on the weight as given keeps
        # Fraction weights exact
        self._flows = {f: [0, 0, w, 0 / w, 0 / w] for f, w in weights.items()}
        # per weighted flow, its pairs' gaps (sent size, channel occupation)
        # by the other flow; and every pair's, pairs in order
        self._pairs: dict[FlowId, dict[FlowId, tuple[_Gap, _Gap]]] = {f: {} for f in weights}
        self._order = []
        flows = sorted(weights)
        for i, f in enumerate(flows):
            for g in flows[i + 1:]:
                self._pairs[f][g] = self._pairs[g][f] = gaps = (_Gap(), _Gap())
                self._order.append(gaps)
        # per backlogged weighted flow, the gaps of its pairs with the others
        self._live: dict[FlowId, dict[FlowId, tuple[_Gap, _Gap]]] = {}
        self._pending: deque[tuple[int, bool, FlowId]] = deque()  # (cycle, ends, flow)
        self._last: int | None = None
        self.boundaries = 0  # distinct boundary times so far

    def start(self, flow: FlowId, cycle: int) -> None:
        self._pending.append((cycle, False, flow))

    def end(self, flow: FlowId, cycle: int) -> None:
        self._pending.append((cycle, True, flow))

    def record(self, rec: ServiceRecord) -> None:
        flow, _, start, end, sent, _ = rec
        pending = self._pending
        if start != self._last:
            self.boundaries += 1
            if pending and pending[0] < (start, True):  # a start by then or an end before
                self._boundary(start)
        self.boundaries += 1
        self._last = end
        fs = self._flows.get(flow)
        if fs is not None:
            fs[0] += sent
            fs[1] += end - start
            fs[3] = fs[0] / fs[2]
            fs[4] = fs[1] / fs[2]
        if pending and pending[0] < (end, True):
            self._boundary(end)
        pairs = self._live.get(flow)
        if not pairs:
            return
        vs, vo = fs[3], fs[4]
        flows = self._flows
        for g, (s, o) in pairs.items():
            gs = flows[g]
            if flow < g:
                ds, do = vs - gs[3], vo - gs[4]
            else:
                ds, do = gs[3] - vs, gs[4] - vo
            if ds > s.hi:
                s.hi, s.t_hi = ds, end
            elif ds < s.lo:
                s.lo, s.t_lo = ds, end
            if do > o.hi:
                o.hi, o.t_hi = do, end
            elif do < o.lo:
                o.lo, o.t_lo = do, end

    def _boundary(self, t: int) -> None:
        """Apply the pending starts up to t and ends before it."""
        pending = self._pending
        while pending:
            cycle, ends, flow = pending[0]
            if cycle > t or ends and cycle == t:
                break
            pending.popleft()
            if ends:
                self._close(flow)
            else:
                self._open(flow, t)

    def _open(self, flow: FlowId, t: int) -> None:
        """Open the pairs of `flow` with every backlogged flow at their
        values at t, which are the flows' service so far."""
        fs = self._flows.get(flow)
        if fs is None:
            return
        mine, pairs, flows = {}, self._pairs[flow], self._flows
        for g, peers in self._live.items():
            s, o = peers[flow] = mine[g] = pairs[g]
            a, b = (fs, flows[g]) if flow < g else (flows[g], fs)
            s.open(a[3] - b[3], t)
            o.open(a[4] - b[4], t)
        self._live[flow] = mine

    def _close(self, flow: FlowId) -> None:
        for g, (s, o) in self._live.pop(flow, {}).items():
            del self._live[g][flow]
            s.close()
            o.close()

    def bounds(self) -> tuple[list[float], list[Interval | None]]:
        """End every stretch, and return per mode (sent size, channel
        occupation) the largest gap and its witness window."""
        for _, ends, flow in self._pending:  # no boundary follows, so no start counts
            if ends:
                self._close(flow)
        self._pending.clear()
        for flow in list(self._live):
            self._close(flow)
        best, witness = [0.0, 0.0], [None, None]
        for gaps in self._order:
            for m, gap in enumerate(gaps):
                if gap.best > best[m]:  # ties go to the first pair
                    best[m], witness[m] = gap.best, gap.witness
        return best, witness


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
    rfb_estimate: float
    cfb_estimate: float
    # what the profile fold reads: each mode's witness, the kept trace and
    # the weights as given
    _witness: list[Interval | None] = field(repr=False)
    _trace: Trace = field(repr=False)
    _weights: dict[FlowId, float] = field(repr=False)

    @cached_property
    def sweeps(self) -> dict[str, ModeSweep]:
        """Per mode, the max gap and its witness with the FM-versus-window-
        length profile and its slope, folded on first read."""
        import numpy as np

        times, spans, curves = _curves(self._trace, self._weights, self.backlogs)
        t = np.asarray(times, dtype=np.int64)
        bin_best: tuple[dict, dict] = ({}, {})
        if spans:
            bin_w = max(1, int(np.ceil(int(t[-1] - t[0]) / _N_BINS)))
        curves = [{f: np.asarray(v) for f, v in c.items()} for c in curves]
        for (fa, fb), pair_spans in spans.items():
            _fold_profile(t, [c[fa] - c[fb] for c in curves], pair_spans, bin_w, bin_best)
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
    difference, so the max is a max-minus-min): the trace's stretches
    (`backlog_from_trace`) and records are replayed through a `BoundsFold`.
    The FM-versus-window-length profile (`FairnessReport.sweeps`, built on
    first read from the kept trace) holds, per length bin, the largest gap
    over the same windows, found with range max/min queries in
    O(N log N + N*B) per flow pair for N boundaries and B bins.  Its
    least-squares slope is the boundedness statistic: near zero for a fair
    discipline, positive when the gap grows with window length.
    """
    check_weights(weights, trace.end or 0)
    flows = sorted(weights)
    backlogs = backlog_from_trace(trace)
    fold = BoundsFold(weights)
    # every stretch start and end before the first record, which feeds
    # each before any record that ends at or after its cycle
    for t, ends, f in sorted((t, ends, f) for f in flows for a, b in backlogs.get(f, ())
                             for t, ends in ((a, False), (b, True))):
        (fold.end if ends else fold.start)(f, t)
    for rec in trace.kept():
        fold.record(rec)
    (rfb, cfb), witness = fold.bounds()
    nb = fold.boundaries
    return FairnessReport(
        flows=flows,
        weights={f: float(weights[f]) for f in flows},
        grid=f"all {nb} record boundaries" if nb >= 2 and flows else "empty trace",
        backlogs={f: backlogs.get(f, []) for f in flows},
        rfb_estimate=rfb,
        cfb_estimate=cfb,
        _witness=witness,
        _trace=trace,
        _weights=weights,
    )


def _curves(
    trace: Trace, weights: dict[FlowId, float], backlogs: dict[FlowId, list[Interval]],
) -> tuple[list[int], dict[tuple[FlowId, FlowId], list[Interval]], tuple[dict, ...]]:
    """What the profile fold reads: the boundary times, each flow pair's
    [lo, hi) boundary index spans of its common stretches, and each mode's
    cumulative curve per flow divided by its weight, only for flows in a
    pair with spans."""
    times = trace.boundaries()
    # the spans are found first, so that only flows in a pair with spans get curves
    spans = {}
    flows = sorted(weights)
    for ai, fa in enumerate(flows):
        for fb in flows[ai + 1:]:
            pair_spans = [
                (lo, hi)
                for a, b in _common_stretches(backlogs.get(fa, []), backlogs.get(fb, []))
                for lo, hi in [(bisect_left(times, a), bisect_right(times, b))]
                if hi - lo >= 2
            ]
            if pair_spans:
                spans[fa, fb] = pair_spans
    if not spans:
        return times, spans, ()
    paired = sorted({f for pair in spans for f in pair})
    # units per flow ending at each boundary, one table per mode; records
    # never straddle a boundary of the same trace, so the sums are exact
    incs = tuple({f: [0] * len(times) for f in paired} for _ in _MODES)
    pos = {t: k for k, t in enumerate(times)}
    for r in trace.records:
        if r.flow in incs[0]:
            k = pos[r.end]
            incs[0][r.flow][k] += r.sent_units
            incs[1][r.flow][k] += r.end - r.start
    # `/` on the weight as given keeps Fraction weights exact
    curves = tuple(
        {f: [c / weights[f] for c in accumulate(inc[f])] for f in paired} for inc in incs
    )
    return times, spans, curves


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
