"""Exact fast-forward of a mesh run that repeats.

A run that draws no random number (round-robin or age ports, a fixed
destination, every source at rate 0 or 1) is a map on a finite state once its
cycles and packet ids are made relative, so it repeats after a transient.
`fast_forward` finds the first repeat after warmup with Brent's cycle search
(BIT 20, 1980) and skips the whole periods left before the horizon: what the
run writes is what stepping every cycle writes.  `MeshSim.run` imports this
module at its first search, so a run that never searches does not compile it.
"""

from __future__ import annotations

from operator import eq

from .arbitration import ArbiterKind
from .core import ServiceRecord
from .meshsim import IN_INJ, MeshSim


def signature(sim: MeshSim):
    """What the next cycles read, besides the credits that `fast_forward`
    compares first, one part at a time, with cycles relative to `now` and
    packet ids to the next new one; under age, inject cycles relative to the
    oldest pending arrival of a saturated source (whose n-th packet arrived
    in cycle n).  Two cycles equal in all of these start the same run,
    shifted in time and ids."""
    L, now, packets, fifos = sim.L, sim.now, sim.packets, sim.fifos
    yield [getattr(a, "pointer", 0) for row in sim.ports for a in row]
    yield [[s - now if (fifos[r][i] if i < IN_INJ else sim.inj_pkt[r] >= 0) else None
            for i, s in enumerate(row)] for r, row in enumerate(sim.since)]
    nxt = sim.made
    age = sim.ports[0][0].kind is ArbiterKind.AGE
    firsts = [t for t in sim.oldest if t is not None]
    base = min(firsts, default=now)

    def pkt(pid):
        return pid - nxt, packets[pid][0], packets[pid][2] - base if age else 0

    yield [pkt(p) if p >= 0 else None for p in sim.inj_pkt]
    yield [[[pkt(f // L) + (f % L,) for f in q] for q in row] for row in fifos]
    # a record: its packet, input, start, flits sent and output
    yield [[rec and pkt(rec[0]) + (rec[7][1], rec[6] - now, rec[1], rec[2]) for rec in row]
           for row in sim.owner]
    yield sorted(sim.active), sorted(set(sim.fresh)), age and [t - base for t in firsts]
    # sources of rate 0 get no arrival, so an equal queue is one not served
    yield [[run[:] for run in q] for q in sim.queues]


def _mark(sim: MeshSim) -> tuple:
    """Brent's tortoise: the state a later cycle is compared with, and what
    the period after it is measured from.  The run logs its traced records
    and deliveries from here on, under 2 * power cycles' worth."""
    sim.log = []
    return ([c[:] for c in sim.credits], tuple(signature(sim)),
            {key: cell[:] for key, cell in sim.cells.items()})


def fast_forward(sim: MeshSim) -> None:
    """Search from the cycle after warmup.  At the first repeat, with lag P,
    skip the whole periods left before the horizon.  The search ends once its
    power exceeds half the cycles left, as a longer period cannot save a step.

    Each mark is at least `power` >= P cycles past warmup, and a record live
    at a matched mark ends within the period, as its copy holds the same
    output P cycles later.  So it began after warmup: every record of the
    period is traced, as are its shifted copies."""
    horizon, credits = sim.cfg.horizon, sim.credits
    power = lam = 1
    mark = _mark(sim)
    while sim.now <= horizon - 2 * power:
        sim.step()
        # the cheap parts first, the signature part by part
        if credits == mark[0] and all(map(eq, signature(sim), mark[1])):
            skip(sim, mark, lam)
            break
        if lam == power:
            mark = _mark(sim)
            power *= 2
            lam = 0
        lam += 1
    sim.log = None


def skip(sim: MeshSim, mark: tuple, P: int) -> None:
    """Jump m = (horizon - now) // P periods: each cell adds m times its
    growth over the period; its log is replayed, shifted (a record goes to
    its trace's `append`, and a streamed trace writes it); the live packets
    are re-keyed.  The live packets and owner records at the mark and now
    match, so the sending a cell leaves to its live records is the same at
    both, and the period makes as many packets of each source s as it
    delivers, per[s], N in all.  A source's packets share one path and are
    delivered in order, and a saturated source's n-th packet arrived in
    cycle n: each delivery repeats every period with its id N and its
    inject cycle per[s] later, and the live packets and each saturated
    source's oldest arrival move on likewise."""
    cells = mark[2]
    now, L = sim.now, sim.L
    m = (sim.cfg.horizon - now) // P
    log, sim.log = sim.log, None
    per = [0] * sim.cfg.k  # packets per period of each source
    for entry in log:
        if len(entry) == 3:
            per[entry[1][0]] += 1
    N = sum(per)
    for key, cell in sim.cells.items():
        cell[:] = [v + m * (v - v0) for v, v0 in zip(cell, cells.get(key, (0, 0, 0)))]
    for j in range(1, m + 1):
        for entry in log:
            if len(entry) == 2:
                t, r = entry
                t.append(ServiceRecord(r.flow, t.count + 1, r.start + j * P, r.end + j * P,
                                       r.sent_units, r.blocking))
            else:
                pid, (src, dest, inject, cprod), t = entry
                sim._deliver(pid + j * N, (src, dest, inject + j * per[src], cprod), t + j * P)
    dt, dn = m * P, m * N
    sim.now = now + dt
    sim.made += dn
    sim.packets = {pid + dn: [src, dest, inject + m * per[src], cprod]
                   for pid, (src, dest, inject, cprod) in sim.packets.items()}
    for row in sim.fifos:
        for q in row:
            flits = [f + dn * L for f in q]
            q.clear()
            q.extend(flits)
    for row in sim.owner:  # the same records as `holder`
        for rec in row:
            if rec is not None:
                rec[0] += dn
                rec[6] += dt
    sim.inj_pkt[:] = [p + dn if p >= 0 else p for p in sim.inj_pkt]
    for row in sim.since:
        row[:] = [s + dt for s in row]
    for n, first in enumerate(sim.oldest):  # a saturated source's oldest arrival
        if first is not None:
            sim.oldest[n] = first + m * per[n]
