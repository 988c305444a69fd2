"""Exact reference implementations that the tests hold the fast paths to.

Nothing in the package calls these.  They follow the definitions directly,
in exact rational arithmetic where a value can be fractional:

* the fairness measure over one window, `fm_over_interval`, with the
  prorated service of `sent_in_interval` and `occupation_in_interval`, and
  its exhaustive scan over every integer window, `exact_max_fm`;
* the two bounds over every record boundary of a kept trace as one eager
  max-minus-min pass per common stretch, `eager_bounds`, which the online
  fold (`fairness.BoundsFold`) must equal, and one scheduler run folded as
  it goes beside the kept trace of the same run, `folded_run`;
* a service-trace CSV reader, the inverse of `Trace.to_csv`;
* a flit census of a mesh run read from its state, `flit_census`, and the
  run's per-flit ejections read from its state cycle by cycle,
  `stepped_ejections`;
* a plain stepper of the mesh, `reference_mesh`, which processes every
  router every cycle and counts channel time per cycle, with what a mesh
  run writes, `run_outputs`, and a wide spread of seeded random mesh
  configs to compare it on, `wide_configs`;
* the weighted merge chain that acceptance ratios describe, as a coin-flip
  simulation, `simulate_acceptance_counts`;
* the saturated hotspot line of the acceptance criteria, `hotspot_config`.
"""

from __future__ import annotations

import csv
import io
import operator
import random
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence, TextIO

from fairmesh import presets
from fairmesh.analysis import WeightTable
from fairmesh.arbitration import ArbiterKind
from fairmesh.core import (Accounting, FlowId, PacketEvent, SchedulerKind, ServiceRecord, Trace,
                           TraceError)
from fairmesh.fairness import BoundsFold, Interval, _common_stretches, backlog_from_trace
from fairmesh.meshsim import (DIR_EJ, DIR_L, DIR_R, IN_INJ, IN_L, IN_R, MeshConfig, MeshSim,
                              SimReport)
from fairmesh.rng import XorShift64Star
from fairmesh.schedulers import SchedulerBase, make_scheduler


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


def eager_bounds(trace: Trace, weights: dict[FlowId, float | Fraction]
                 ) -> tuple[list[float], list[Interval | None]]:
    """Per mode (sent size, channel occupation), the largest gap over every
    window between two record boundaries of a common backlog stretch, and
    its witness window.

    Each flow pair's gap curve over the boundaries is the difference of the
    two flows' cumulative curves divided by their weights, so the best gap
    over a stretch is the curve's max minus its min there.  Pairs go in
    order and stretches in time; ties go to the first pair and stretch, and
    to the first time of the max and of the min.
    """
    flows = sorted(weights)
    backlogs = backlog_from_trace(trace)
    times = trace.boundaries()
    best, witness = [0.0, 0.0], [None, None]
    spans = {}
    for ai, fa in enumerate(flows):
        for fb in flows[ai + 1:]:
            pair = [
                (lo, hi)
                for a, b in _common_stretches(backlogs.get(fa, []), backlogs.get(fb, []))
                for lo, hi in [(bisect_left(times, a), bisect_right(times, b))]
                if hi - lo >= 2
            ]
            if pair:
                spans[fa, fb] = pair
    paired = sorted({f for pair in spans for f in pair})
    incs = tuple({f: [0] * len(times) for f in paired} for _ in range(2))
    pos = {t: k for k, t in enumerate(times)}
    for r in trace.records:
        if r.flow in incs[0]:
            k = pos[r.end]
            incs[0][r.flow][k] += r.sent_units
            incs[1][r.flow][k] += r.end - r.start
    curves = tuple(
        {f: [c / weights[f] for c in accumulate(inc[f])] for f in paired} for inc in incs
    )
    for (fa, fb), pair in spans.items():
        for m, c in enumerate(curves):
            d = list(map(operator.sub, c[fa], c[fb]))
            for lo, hi in pair:
                seg = d[lo:hi]
                vmax, vmin = max(seg), min(seg)
                gap = float(vmax - vmin)
                if gap > best[m]:
                    best[m] = gap
                    ends = times[lo + seg.index(vmax)], times[lo + seg.index(vmin)]
                    witness[m] = (min(ends), max(ends))
    return best, witness


def folded_run(kind, packets, weights, horizon=None, **kw
               ) -> tuple[tuple[list[float], list[Interval | None]], SchedulerBase, Trace]:
    """One run of discipline `kind` on `packets` with a `BoundsFold` of
    `weights`: its bounds and the finished scheduler, whose trace keeps
    nothing; and the kept trace of the same run without a fold."""
    fold = BoundsFold(weights)
    sched = make_scheduler(kind, fold=fold, **kw)
    sched.load(packets)
    sched.run(horizon=horizon)
    kept = make_scheduler(kind, **kw)
    kept.load(packets)
    return fold.bounds(), sched, kept.run(horizon=horizon)


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


def ejected_flits(sim: MeshSim) -> int:
    """The flits `sim` has ejected, read from its state: every packet made
    and no longer live ejected its L flits, and a live packet that owns an
    ejection output has ejected the flits its owner record sent."""
    live = sum(row[DIR_EJ][1] for row in sim.owner if row[DIR_EJ] is not None)
    return sim.L * (sim.made - len(sim.packets)) + live


def flit_census(sim: MeshSim) -> tuple[int, int, int]:
    """(entered network, delivered, in flight) flit counts of a sim, read
    from its state.

    Every packet made so far has L flits, less those its source has yet to
    send while it is the source's head packet; `ejected_flits` counts the
    delivered ones; every other flit sits in a network input FIFO.
    """
    L = sim.L
    # a source head's owner record counts the flits it has sent
    sent = [row[IN_INJ][1] if row[IN_INJ] else 0 for row in sim.holder]
    entered = L * sim.made - sum(
        L - sent[r] for r, pid in enumerate(sim.inj_pkt) if pid >= 0
    )
    in_flight = sum(len(f) for row in sim.fifos for f in row)
    return entered, ejected_flits(sim), in_flight


def stepped_ejections(sim: MeshSim) -> list[tuple[int, int, int]]:
    """Step `sim` to its horizon and return (router, packet, flit) per
    ejected flit, in cycle order and by router within a cycle, read from
    its state around each step.

    A router ejects at most one flit a cycle, of the packet that owns its
    ejection output at either end of the step (an owner record counts the
    flits it has sent, and keeps its count after its tail leaves), or of a
    one-flit packet granted and delivered within it, which the step's
    deliveries name.  Each step's ejections must equal the growth of
    `ejected_flits`, so a flit ejected some other way fails the read.
    """
    out = []
    ejected = ejected_flits(sim)
    while sim.now < sim.cfg.horizon:
        before = [(rec, rec[1]) if rec else None for rec in (row[DIR_EJ] for row in sim.owner)]
        count = len(out)
        sim.log = []  # the step's deliveries, as the fast-forward's search logs them
        sim.step()
        delivered = {e[1][1]: e[0] for e in sim.log if len(e) == 3}  # dest: pid
        sim.log = None
        for r, row in enumerate(sim.owner):
            if before[r] is not None:
                rec, sent = before[r]
                if rec[1] > sent:
                    out.append((r, rec[0], sent))
            elif row[DIR_EJ] is not None:
                out.append((r, row[DIR_EJ][0], 0))
            elif r in delivered:
                out.append((r, delivered[r], 0))
        was, ejected = ejected, ejected_flits(sim)
        assert len(out) - count == ejected - was, f"cycle {sim.now - 1}"
    return out


def reference_mesh(cfg: MeshConfig) -> tuple[SimReport, list[tuple[int, int, int]]]:
    """The report and the per-flit ejections of `cfg`'s run, stepped plainly.

    Every cycle: arrivals join the source queues, and each source with no
    head packet takes its oldest, in source order.  Then every router, in
    order, looks at its inputs in port order: the head flit of a packet
    that owns an output moves when the output has a free downstream slot
    at the start of the cycle (an ejection output always has one); the first
    flit of a packet requests the output its route takes, and each free
    output with requests grants one, whose flit then moves if it can.  Then
    the moves are made.  Sending and blocking count, per (flow, router),
    each head flit that moves or stays, and grants each grant, in every
    cycle from warmup on; an owner's blocked cycles are those it owned and
    did not send.  Of a fresh `MeshSim` it borrows only the ports (arbiters
    or flow-queue kernels) and the random streams.
    """
    sim = MeshSim(cfg)
    k, L, depth = cfg.k, cfg.packet_len, cfg.buffer_depth
    hot = cfg.dest_of() if cfg.pattern == "hotspot" else None
    rates = cfg.rates()
    if hot is not None:
        rates[hot] = 0.0
    links = ([(k - 1 if hot is None else hot, DIR_EJ)] if cfg.trace_links is None
             else sorted({tuple(link) for link in cfg.trace_links}))
    traces = {link: Trace() for link in links}
    kind = None if cfg.scheduler is not None else ArbiterKind(cfg.arbiter)

    pending = [deque() for _ in range(k)]  # arrival cycles not yet made a packet
    packets: list[list] = []  # by id: [src, dest, inject, contention product]
    source = [None] * k  # head packet of each source queue: [pid, flits sent]
    fifos = [[deque(), deque()] for _ in range(k)]  # (pid, flit) at IN_L, IN_R
    owner = [[None] * 3 for _ in range(k)]  # per output: [pid, input, start, sent, blocked]
    holds = [[None] * 3 for _ in range(k)]  # per input: the output its head packet owns
    sending, blocking, grants, ejections = Counter(), Counter(), Counter(), []
    stats = {}

    def downstream(r, o):  # the fifo an output's flits enter
        return fifos[r + 1][IN_L] if o == DIR_R else fifos[r - 1][IN_R]

    def free(r, o):  # whether output o of router r may send a flit this cycle
        return o == DIR_EJ or len(downstream(r, o)) < depth

    for now in range(cfg.horizon):
        if now == cfg.warmup:
            stats = {n: [0, 0, 0] for n in range(k)}  # delivered, latency sum, max
            sending, blocking, grants = Counter(), Counter(), Counter()
        drawn = sim.lanes.step() if sim.lanes.ids else ()
        for n in range(k):
            if rates[n] >= 1.0 or n in drawn:
                pending[n].append(now)
        for n in range(k):
            if source[n] is None and pending[n]:
                dest = hot if hot is not None else (
                    n + 1 + sim.rng_dest[n].randrange(k - 1)) % k
                source[n] = [len(packets), 0]
                packets.append([n, dest, pending[n].popleft(), 1.0])

        moves = []  # (router, input, output)
        for r in range(k):
            heads = [q[0] if q else None for q in fifos[r]] + [
                tuple(source[r]) if source[r] else None]  # (pid, flit) per input
            requests = [[], [], []]
            sends = []  # the inputs whose head flit moves
            for i, flit in enumerate(heads):
                if flit is None:
                    continue
                o = holds[r][i]
                if o is None:
                    pid, seq = flit
                    assert seq == 0, (now, r, i, flit)
                    dest = packets[pid][1]
                    route = DIR_R if dest > r else DIR_L if dest < r else DIR_EJ
                    if owner[r][route] is None:
                        requests[route].append((i, pid))
                elif free(r, o):
                    sends.append(i)
            for o, cands in enumerate(requests):
                if not cands:
                    continue
                if kind is None:
                    vals = [packets[pid][0] for _, pid in cands]
                elif kind is ArbiterKind.ROUND_ROBIN:
                    vals = [i for i, _ in cands]
                elif kind is ArbiterKind.AGE:
                    vals = [(packets[pid][2], i) for i, pid in cands]
                else:
                    vals = [(abs(packets[pid][1] - packets[pid][0]), abs(r - packets[pid][0]),
                             packets[pid][3]) for _, pid in cands]
                i, pid = cands[sim.ports[r][o].choose(vals)]
                if kind is ArbiterKind.PROBABILISTIC:
                    packets[pid][3] *= len(cands)
                owner[r][o] = [pid, i, now, 0, 0]
                holds[r][i] = o
                if now >= cfg.warmup:
                    grants[packets[pid][0], r] += 1
                if free(r, o):
                    sends.append(i)
            for i, flit in enumerate(heads):
                if flit is not None and now >= cfg.warmup:
                    (sending if i in sends else blocking)[packets[flit[0]][0], r] += 1
            for rec in owner[r]:
                if rec is not None and rec[1] not in sends:
                    rec[4] += 1
            moves += [(r, i, holds[r][i]) for i in sends]

        for r, i, o in moves:
            if i == IN_INJ:
                pid, seq = source[r]
                source[r][1] += 1
                if seq == L - 1:
                    source[r] = None
            else:
                pid, seq = fifos[r][i].popleft()
            rec = owner[r][o]
            rec[3] += 1
            src, _, inject, _ = packets[pid]
            if o == DIR_EJ:
                ejections.append((r, pid, seq))
            else:
                downstream(r, o).append((pid, seq))
            if seq < L - 1:
                continue
            owner[r][o] = holds[r][i] = None
            if kind is None:
                sim.ports[r][o].note_service(src, rec[3] + rec[4], rec[3])
            trace = traces.get((r, o))
            if trace is not None and rec[2] >= cfg.warmup:
                trace.append(ServiceRecord(src, trace.count + 1, rec[2], now + 1, rec[3], rec[4]))
            if o == DIR_EJ:
                if now >= cfg.warmup:
                    st = stats[src]
                    st[0] += 1
                    st[1] += now + 1 - inject
                    st[2] = max(st[2], now + 1 - inject)
                if (r, DIR_EJ) in traces:
                    traces[r, DIR_EJ].events.append(PacketEvent(pid, src, inject, now + 1))

    served = {n: st for n, st in sorted(stats.items()) if n != hot}
    total = sum(st[0] for st in served.values())
    report = SimReport(
        config=cfg.to_dict(), cycles=cfg.horizon,
        delivered={n: st[0] for n, st in served.items()},
        shares={n: st[0] / total if total else 0.0 for n, st in served.items()},
        mean_latency={n: st[1] / st[0] if st[0] else 0.0 for n, st in served.items()},
        max_latency={n: st[2] for n, st in served.items()},
        sending=sending, blocking=blocking, packets_through=grants, drops=0, traces=traces)
    return report, ejections


def run_outputs(rep, ejections=None):
    """What a run writes: the report, and each trace's CSV and packet events;
    then the per-flit ejections, if given."""
    parts = [rep.to_json()]
    for link in sorted(rep.traces):
        buf = io.StringIO()
        rep.traces[link].to_csv(buf)
        parts += [str(link), buf.getvalue(), repr(rep.traces[link].events)]
    return parts if ejections is None else parts + [repr(ejections)]


def stepped_outputs(cfg):
    """What stepping `cfg`'s run one cycle at a time writes, its ejections
    included."""
    sim = MeshSim(cfg)
    ejections = stepped_ejections(sim)
    return run_outputs(sim.report(), ejections)


def wide_configs(n=100, seed=2024, horizon_scale=1):
    """`n` seeded random mesh configs: k 2-16, hotspot and uniform traffic,
    rate lists mixing 0, fractions and 1, every arbiter and policy and every
    flow-queue kind with quanta, packet lengths and buffer depths 1-5, a
    warmup anywhere before the horizon, and two traced links.  Each horizon
    is 50-1500 cycles times `horizon_scale`, which leaves every other field
    as it is."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        k = rng.randint(2, 16)
        kw = dict(k=k, packet_len=rng.randint(1, 5), buffer_depth=rng.randint(1, 5),
                  pattern=rng.choice(["hotspot", "uniform"]), horizon=rng.randint(50, 1500),
                  seed=rng.randrange(1000),
                  trace_links=[(rng.randrange(k), rng.choice([DIR_L, DIR_R, DIR_EJ]))
                               for _ in range(2)])
        kw["warmup"] = rng.randrange(kw["horizon"])
        if kw["pattern"] == "hotspot":
            kw["hotspot"] = rng.randrange(k)
        shape = rng.random()
        if shape < 0.3:  # no random arrivals: round robin and age may repeat
            kw["rate"] = [float(rng.random() < 0.7) for _ in range(k)]
        elif shape < 0.6:
            kw["rate"] = [rng.choice([0.0, 1.0, round(rng.random(), 3)]) for _ in range(k)]
        else:
            kw["rate"] = rng.choice([1.0, round(rng.uniform(0.01, 0.5), 3)])
        if rng.random() < 0.5:
            kw["arbiter"] = rng.choice(["round_robin", "age", "probabilistic"])
            kw["policy"] = rng.choice(["fw", "cw", "vw"])
            kw["weight_base"] = rng.choice([1.0, 1.5, 2.0])
        else:
            kw["scheduler"] = rng.choice([s.value for s in SchedulerKind])
            kw["quantum"] = rng.choice([None, 1, 2, 3, 5, 9])
        kw["horizon"] *= horizon_scale
        out.append(kw)
    return out


def _merge_stream(w: WeightTable, j: int, rng: XorShift64Star) -> Iterator[int]:
    """Packets accepted by router j, labeled by source flow.

    The upstream head packet stays pending until the weighted coin picks it;
    otherwise the local flow (always backlogged) emits.  Grant probability at
    each step is W(head, j) : W(j, j), which is the recursion's premise.
    """
    if j == 0:
        while True:
            yield 0
    upstream = _merge_stream(w, j - 1, rng)
    pending: int | None = None
    while True:
        if pending is None:
            pending = next(upstream)
        w_up = float(w.weight(pending, j))
        w_loc = float(w.weight(j, j))
        if rng.random() * (w_up + w_loc) < w_up:
            yield pending
            pending = None
        else:
            yield j


def simulate_acceptance_counts(
    w: WeightTable, j_max: int, grants: int, seed: int
) -> list[int]:
    """Brute-force oracle of `analysis.acceptance_ratios`: count packets per
    source emitted by router j_max."""
    if grants < 1:
        raise ValueError("need at least one grant")
    counts = [0] * (j_max + 1)
    stream = _merge_stream(w, j_max, XorShift64Star(seed))
    for _ in range(grants):
        counts[next(stream)] += 1
    return counts


def hotspot_config(seed: int, **overrides) -> MeshConfig:
    """The saturated hotspot line; `overrides` replace HOTSPOT_DEFAULTS entries."""
    return MeshConfig(seed=seed, **dict(presets.HOTSPOT_DEFAULTS, **overrides))
