"""Exact reference implementations that the tests hold the fast paths to.

Nothing in the package calls these.  They follow the definitions directly,
in exact rational arithmetic where a value can be fractional:

* the fairness measure over one window, `fm_over_interval`, with the
  prorated service of `sent_in_interval` and `occupation_in_interval`, and
  its exhaustive scan over every integer window, `exact_max_fm`;
* a service-trace CSV reader, the inverse of `Trace.to_csv`;
* a flit census of a mesh run read from its state, `flit_census`;
* the saturated hotspot line of the acceptance criteria, `hotspot_config`.
"""

from __future__ import annotations

import csv
from collections import Counter
from fractions import Fraction
from typing import Sequence, TextIO

from fairmesh import presets
from fairmesh.core import Accounting, FlowId, ServiceRecord, Trace, TraceError
from fairmesh.fairness import Interval, backlog_from_trace
from fairmesh.meshsim import IN_INJ, MeshConfig, MeshSim


def trace_from_csv(fh: TextIO) -> Trace:
    """The trace `Trace.to_csv` wrote to `fh`."""
    rd = csv.reader(fh)
    header = next(rd, None)
    if header != Trace.CSV_HEADER:
        raise TraceError(f"unexpected trace header: {header}")
    t = Trace()
    for row in rd:
        if not row:
            continue
        f, rnd, s, e, u, b = (int(x) for x in row)
        t.append(ServiceRecord(f, rnd, s, e, u, b))
    return t


def _overlap(a0: int, a1: int, t1: int, t2: int) -> int:
    return min(a1, t2) - max(a0, t1)


def sent_in_interval(trace: Trace, flow: FlowId, t1: int, t2: int) -> Fraction:
    """Units flow sent inside (t1, t2), prorating records that straddle a boundary.

    A straddling record contributes sent_units * overlap / duration, i.e. its
    units spread uniformly over its span.  Exact rational arithmetic keeps
    interval additivity an identity rather than an approximation.
    """
    if t2 <= t1:
        raise ValueError(f"empty interval ({t1}, {t2})")
    total = Fraction(0)
    for r in trace.records:
        if r.flow != flow:
            continue
        ov = _overlap(r.start, r.end, t1, t2)
        if ov <= 0:
            continue
        if ov >= r.duration:
            total += r.sent_units
        else:
            total += Fraction(r.sent_units * ov, r.duration)
    return total


def occupation_in_interval(trace: Trace, flow: FlowId, t1: int, t2: int) -> int:
    """Channel cycles (sending + blocking) flow held inside (t1, t2)."""
    if t2 <= t1:
        raise ValueError(f"empty interval ({t1}, {t2})")
    total = 0
    for r in trace.records:
        if r.flow != flow:
            continue
        ov = _overlap(r.start, r.end, t1, t2)
        if ov > 0:
            total += ov
    return total


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
    (t1, t2).  Zero when fewer than two such flows exist."""
    if backlogs is None:
        backlogs = backlog_from_trace(trace)
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


def exact_max_fm(trace: Trace, weights: dict[FlowId, float | Fraction]) -> list[Fraction]:
    """The largest `fm_over_interval` over every integer window inside the
    trace's records, per mode: [sent size, channel occupation].

    The definition admits any window inside a common backlog stretch, and a
    stretch may start or end inside a record.  No service falls outside the
    records, so a window reaching past them has the gap of its part inside.
    """
    backlogs = backlog_from_trace(trace)
    bounds = trace.boundaries()
    best = [Fraction(0), Fraction(0)]
    if not bounds:
        return best
    for t1 in range(bounds[0], bounds[-1]):
        for t2 in range(t1 + 1, bounds[-1] + 1):
            for m, mode in enumerate(Accounting):
                best[m] = max(best[m], fm_over_interval(trace, weights, t1, t2, mode, backlogs))
    return best


def backlog_by_cycle(trace: Trace) -> dict[FlowId, list[Interval]]:
    """Per flow with packet events, the maximal runs of integer cycles at
    which it has a packet injected and not yet delivered, as [start, end).

    An undelivered packet counts up to the close `backlog_from_trace`
    holds it to: the last record's end, or with no records one cycle past
    the first undelivered packet's inject.
    """
    close = trace.end
    if close is None:
        close = next((ev.inject + 1 for ev in trace.events if ev.deliver is None), None)
    queued: dict[FlowId, Counter] = {}
    for ev in trace.events:
        end = close if ev.deliver is None else ev.deliver
        queued.setdefault(ev.flow, Counter()).update(range(ev.inject, end))
    out: dict[FlowId, list[Interval]] = {}
    for flow, n in queued.items():
        out[flow] = runs = []
        for t in sorted(t for t, count in n.items() if count > 0):
            if runs and runs[-1][1] == t:
                runs[-1] = (runs[-1][0], t + 1)
            else:
                runs.append((t, t + 1))
    return out


def flit_census(sim: MeshSim) -> tuple[int, int, int]:
    """(entered network, delivered, in flight) flit counts of a sim made with
    `log_ejects=True`, read from its state.

    Every packet made so far has L flits, less those its source has yet to
    send while it is the source's head packet; every ejected flit is one
    eject_log entry; every other flit sits in a network input FIFO.
    """
    L = sim.L
    # a source head's owner record counts the flits it has sent
    sent = [row[IN_INJ][1] if row[IN_INJ] else 0 for row in sim.holder]
    entered = L * sim.made - sum(
        L - sent[r] for r, pid in enumerate(sim.inj_pkt) if pid >= 0
    )
    in_flight = sum(len(f) for row in sim.fifos for f in row)
    return entered, len(sim.eject_log), in_flight


def hotspot_config(seed: int, **overrides) -> MeshConfig:
    """The saturated hotspot line; `overrides` replace HOTSPOT_DEFAULTS entries."""
    return MeshConfig(seed=seed, **dict(presets.HOTSPOT_DEFAULTS, **overrides))
