"""Round-robin service disciplines on one shared rotation.

Five disciplines share an engine that injects arrivals, keeps the
backlogged flows in one rotation, sends a visit's packets one whole packet
at a time on a cycle clock, and emits one ServiceRecord per visit:

* RR    - plain round robin, one whole packet per visit.
* DRR   - deficit round robin with a per-flow quantum and deficit counter.
* ERR   - elastic round robin; per-round allowances derived from the previous
          round's surplus counts, whole packets, last packet may overshoot.
* EBRR  - eligibility-based round robin; one packet per visit, a signed
          credit balance that defers over-drawn flows to later rounds and is
          retained across idle periods.
* CARR  - congestion-aware variant of ERR; flows whose channel occupation to
          sending ratio exceeds a threshold are demoted for a few rounds.

Given a fold of the fairness bounds (`fairness.BoundsFold`), the engine
keeps no record and no packet event: it feeds the fold each flow's backlog
stretches and each record as it runs.  Kept or folded, the engine tallies
each flow's sent units and delivery latency for the run's summaries
(`tallies`).

Accounting mode selects the unit the disciplines budget with: packet sizes,
or channel occupation (sending plus blocking cycles).  Control flow is
identical in both modes; only the decrement applied to deficit / surplus /
credit changes.  Blocking itself comes from an optional PeriodicBlocking,
which models downstream back-pressure on one flow and gives each packet's
finish cycle in closed form.

A newly active flow joins the tail of the rotation and is first served in
the following round; the one exception is an EBRR flow with positive
credit, which joins the current round.  Fairness weights are not a
scheduler setting: they belong to the fairness measure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable

from .core import (Accounting, FlowId, Packet, PacketEvent, SchedulerKind, ServiceRecord,
                   Trace, is_finite, is_int)

if TYPE_CHECKING:
    from .fairness import BoundsFold

_OCCUPATION = Accounting.OCCUPATION


@dataclass(slots=True)
class FlowState:
    id: FlowId
    queue: deque[Packet] = field(default_factory=deque)
    events: deque[PacketEvent] = field(default_factory=deque)  # one per queued packet
    # DRR
    deficit: int = 0
    # ERR / CARR
    surplus: int = 0
    # EBRR
    credit: int = 0
    # CARR
    congested_until: int = 0
    # bookkeeping
    listed: bool = False
    drops: int = 0
    # tallies for the run's summaries
    sent: int = 0
    delivered: int = 0
    latency_sum: int = 0
    latency_max: int = 0


class SchedulerBase:
    """Engine shared by all disciplines: arrivals, clock, trace, rounds.

    `now` is the cycle clock.  `active` is the rotation of backlogged flows;
    its first `visits_left` entries are the current round's remaining visits.
    `_due` is the next arrival's inject cycle (infinite once none is left).
    With a `fold`, the trace keeps nothing and the fold measures the run.
    """

    kind: SchedulerKind

    def __init__(
        self,
        accounting: Accounting = Accounting.PACKET_SIZE,
        queue_capacity: int | None = None,
        blocked: PeriodicBlocking | None = None,
        log_visits: bool = False,
        fold: BoundsFold | None = None,
    ):
        self.accounting = accounting
        self.queue_capacity = queue_capacity
        self.blocked = blocked
        self.now = 0
        self.fold = fold
        self.trace = Trace(keep=fold is None)
        self.flows: dict[FlowId, FlowState] = {}
        self.active: deque[FlowState] = deque()
        self.round_number = 0
        self.visits_left = 0
        self.log_visits = log_visits
        self.visit_log: list[dict] = []
        self._arrivals: list[Packet] = []
        self._next_arrival = 0
        self._due = math.inf

    # -- workload ---------------------------------------------------------

    def load(self, packets: Iterable[Packet]) -> None:
        """Queue an arrival schedule; packets are injected as the clock reaches
        their inject_time."""
        self._arrivals = sorted(packets, key=attrgetter("inject_time"))
        self._next_arrival = 0
        self._due = self._arrivals[0].inject_time if self._arrivals else math.inf

    def _new_flow(self, fid: FlowId) -> FlowState:
        return FlowState(id=fid)

    def _inject_due(self) -> None:
        arr = self._arrivals
        i = self._next_arrival
        now = self.now
        while i < len(arr) and arr[i].inject_time <= now:
            self._enqueue(arr[i])
            i += 1
        self._next_arrival = i
        self._due = arr[i].inject_time if i < len(arr) else math.inf

    def _enqueue(self, pkt: Packet) -> None:
        fs = self.flows.get(pkt.flow)
        if fs is None:
            fs = self.flows[pkt.flow] = self._new_flow(pkt.flow)
        if self.queue_capacity is not None and len(fs.queue) >= self.queue_capacity:
            fs.drops += 1  # tail drop, packet never enters the queue
            return
        fs.queue.append(pkt)
        ev = PacketEvent(pkt.id, pkt.flow, pkt.inject_time)
        if self.fold is None:
            self.trace.events.append(ev)
        elif not fs.events:
            self.fold.start(fs.id, pkt.inject_time)
        fs.events.append(ev)
        if not fs.listed:
            fs.listed = True
            self._activate(fs)

    def _activate(self, fs: FlowState) -> None:
        """Put a backlogged flow into the rotation: by default at its tail,
        so it is first served in the following round."""
        self.active.append(fs)

    # -- rounds -----------------------------------------------------------

    def _start_round(self) -> None:
        self.round_number += 1
        self.visits_left = len(self.active)

    def _pop_for_service(self) -> FlowState:
        while True:
            if self.visits_left <= 0:
                self._start_round()
            fs = self.active.popleft()
            self.visits_left -= 1
            if self._should_skip is None or not self._should_skip(fs):
                return fs
            self.active.append(fs)

    # a discipline's test that a popped flow loses this visit, if it has one
    _should_skip: Callable[[FlowState], bool] | None = None

    # -- one visit --------------------------------------------------------

    def _transmit_packet(self, fs: FlowState, pkt: Packet) -> int:
        """Send one whole packet, one unit per non-blocked cycle.

        Returns the number of blocked cycles.  Arrivals up to the finish
        cycle join once, at the end.  That is exact: they are sorted, and
        enqueueing reads neither the clock nor anything a send changes, so
        they join in the order and state they would cycle by cycle.  They
        join before the delivery, so a flow with an arrival by then stays
        backlogged through it.
        """
        start = self.now
        blocked = self.blocked
        if blocked is not None and fs.id == blocked.flow:
            end = blocked.finish(fs.id, start, pkt.size)
        else:
            end = start + pkt.size
        self.now = end
        if self._due <= end:
            self._inject_due()
        ev = fs.events.popleft()
        ev.deliver = end
        latency = end - ev.inject
        fs.delivered += 1
        fs.latency_sum += latency
        if latency > fs.latency_max:
            fs.latency_max = latency
        if self.fold is not None and not fs.events:
            self.fold.end(fs.id, end)
        return end - start - pkt.size

    def _used_units(self, size: int, blocking: int) -> int:
        if self.accounting is _OCCUPATION:
            return size + blocking
        return size

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        raise NotImplementedError

    def _log(self, fs: FlowState, **fields) -> None:
        """Log a visit; a discipline calls it only when `log_visits` is on,
        before `_emit`, which may change the flow."""
        self.visit_log.append({"flow": fs.id, "round": self.round_number, **fields})

    def _emit(self, fs: FlowState, start: int, sent: int, blocking: int) -> ServiceRecord | None:
        """End a visit: put the flow back in the rotation (or delist it if
        its queue is empty), and record it if it moved data."""
        if fs.queue:
            self._activate(fs)
        else:
            fs.listed = False
        if sent == 0:
            return None
        rec = ServiceRecord(fs.id, self.round_number, start, self.now, sent, blocking)
        self.trace.append(rec)
        fs.sent += sent
        if self.fold is not None:
            self.fold.record(rec)
        return rec

    # -- driver -----------------------------------------------------------

    def run(self, horizon: int | None = None) -> Trace:
        """Serve until the workload is exhausted or the clock passes horizon.

        Work conserving: the clock only jumps over spans where no flow is
        backlogged."""
        stop = math.inf if horizon is None else horizon
        while True:
            if self._due <= self.now:
                self._inject_due()
            if not self.active:
                if self._due >= stop:  # and so when no arrival is left
                    break
                self.now = self._due
                continue
            if self.now >= stop:
                break
            self._visit(self._pop_for_service())
        return self.trace

    def drops(self) -> dict[FlowId, int]:
        return {fid: fs.drops for fid, fs in sorted(self.flows.items())}

    def tallies(self) -> tuple[dict[FlowId, int], dict[FlowId, dict[str, float]]]:
        """The run's units sent per flow and delivery latency per flow, as
        `throughput_by_flow` and `latency_stats` read them off a kept trace;
        flows that sent or received nothing are left out."""
        flows = sorted(self.flows.items())
        return ({f: fs.sent for f, fs in flows if fs.sent},
                {f: {"mean": fs.latency_sum / fs.delivered, "max": float(fs.latency_max),
                     "count": float(fs.delivered)} for f, fs in flows if fs.delivered})


class RoundRobinScheduler(SchedulerBase):
    """One whole packet per visit, cyclic order over backlogged flows."""

    kind = SchedulerKind.RR

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        start = self.now
        pkt = fs.queue.popleft()
        blocking = self._transmit_packet(fs, pkt)
        if self.log_visits:
            self._log(fs, packets=1)
        return self._emit(fs, start, pkt.size, blocking)


class _QuantumScheduler(SchedulerBase):
    """A discipline with a quantum per flow: one int for all, or a dict."""

    def __init__(self, quantum: int | dict[FlowId, int], **kw):
        super().__init__(**kw)
        per_flow = isinstance(quantum, dict)
        for q in quantum.values() if per_flow else [quantum]:
            if not (is_int(q) and q >= 1):
                raise ValueError(f"quantum must be an integer >= 1, got {q!r}")
        self._quantum: int | dict[FlowId, int] = dict(quantum) if per_flow else quantum

    def quantum_for(self, fid: FlowId) -> int:
        if not isinstance(self._quantum, dict):
            return self._quantum
        try:
            return self._quantum[fid]
        except KeyError:
            raise ValueError(f"no quantum configured for flow {fid}") from None


class DeficitRoundRobin(_QuantumScheduler):
    """Deficit round robin.

    On each visit the flow's deficit grows by its quantum; head packets are
    sent while the head size fits the deficit (boundary size == deficit
    included).  A flow that empties its queue forfeits the residue.
    """

    kind = SchedulerKind.DRR

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        fs.deficit += self.quantum_for(fs.id)
        start = self.now
        sent = blocking = 0
        while fs.queue and fs.queue[0].size <= fs.deficit:
            pkt = fs.queue.popleft()
            b = self._transmit_packet(fs, pkt)
            fs.deficit -= self._used_units(pkt.size, b)
            sent += pkt.size
            blocking += b
        if not fs.queue:
            fs.deficit = 0  # residue is not carried across idle
        if self.log_visits:
            self._log(fs, deficit=fs.deficit, sent=sent)
        return self._emit(fs, start, sent, blocking)


class ElasticRoundRobin(SchedulerBase):
    """Elastic round robin.

    Round-1 allowance is one unit for every flow.  Later rounds grant
    1 + MaxSC(prev) - SC_i(prev): the flow with the largest previous surplus
    gets exactly one unit.  Packets are sent whole while the accounted units
    stay below the allowance, so the final packet may overshoot; the
    overshoot becomes the next surplus.  A flow that goes idle has its
    surplus reset to zero.  MaxSC needs no reset when every flow goes idle:
    every flow served in the last round then went idle with surplus zero, so
    that round's MaxSC is already zero when the next round starts.
    """

    kind = SchedulerKind.ERR

    def __init__(self, **kw):
        super().__init__(**kw)
        self.max_sc_prev = 0
        self._round_max_sc = 0

    def _start_round(self) -> None:
        super()._start_round()
        self.max_sc_prev = self._round_max_sc
        self._round_max_sc = 0

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        # the max() guard only matters for CARR, where a demoted flow can
        # carry a stale surplus above the current MaxSC
        allowance = max(1, 1 + self.max_sc_prev - fs.surplus)
        start = self.now
        sent = blocking = accounted = 0
        while fs.queue and accounted < allowance:
            pkt = fs.queue.popleft()
            b = self._transmit_packet(fs, pkt)
            accounted += self._used_units(pkt.size, b)
            sent += pkt.size
            blocking += b
        fs.surplus = accounted - allowance if fs.queue else 0
        self._round_max_sc = max(self._round_max_sc, fs.surplus)
        if self.log_visits:
            self._log(fs, allowance=allowance, surplus=fs.surplus, sent=sent)
        return self._emit(fs, start, sent, blocking)


class CongestionAwareRoundRobin(ElasticRoundRobin):
    """ERR plus congestion demotion.

    After a visit whose occupation / sending ratio exceeds tau the flow is
    marked congested until round + demote_rounds.  While marked it loses its
    visit (once per round) whenever some non-congested flow is backlogged; it
    is never skipped as the only backlogged flow.  A restored flow gets no
    make-up allowance.
    """

    kind = SchedulerKind.CARR

    def __init__(self, tau: float = 2.0, demote_rounds: int = 2, **kw):
        super().__init__(**kw)
        if not (is_finite(tau) and tau > 1.0):
            raise ValueError(f"tau must exceed 1.0 and be finite, got {tau!r}")
        if not (is_int(demote_rounds) and demote_rounds >= 1):
            raise ValueError(f"demote_rounds must be an integer >= 1, got {demote_rounds!r}")
        self.tau = tau
        self.demote_rounds = demote_rounds

    def congested(self, fs: FlowState) -> bool:
        return self.round_number < fs.congested_until

    def _should_skip(self, fs: FlowState) -> bool:
        if not self.congested(fs):
            return False
        return any(not self.congested(g) for g in self.active)

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        rec = super()._visit(fs)
        if rec is not None and rec.sending > 0:
            if rec.duration / rec.sending > self.tau:
                fs.congested_until = self.round_number + self.demote_rounds
        return rec


class EligibilityRoundRobin(_QuantumScheduler):
    """Eligibility-based round robin (one packet per visit).

    Each flow holds a signed credit, initialized to one quantum.  A flow with
    positive credit joins the current round; it keeps getting visits in it
    until a transmission's accounted units push the credit to zero or below.
    It is then deferred to the tail of the rotation, gaining one quantum per
    round boundary it sits out, until the credit is positive again.  Credit
    survives idle periods, so a flow cannot launder an overdraft by going
    briefly idle.
    """

    kind = SchedulerKind.EBRR

    def __init__(self, quantum: int | dict[FlowId, int], **kw):
        super().__init__(quantum, **kw)
        # round 1 is open from the start: eligible flows join it on arrival
        self.round_number = 1

    def _new_flow(self, fid: FlowId) -> FlowState:
        return FlowState(id=fid, credit=self.quantum_for(fid))

    def _should_skip(self, fs: FlowState) -> bool:
        """An overdrawn flow sits out a round boundary and gains a quantum."""
        if fs.credit > 0:
            return False
        fs.credit += self.quantum_for(fs.id)
        return True

    def _activate(self, fs: FlowState) -> None:
        if self._should_skip(fs):
            self.active.append(fs)
        else:  # eligible: joins the current round
            self.active.insert(self.visits_left, fs)
            self.visits_left += 1

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        start = self.now
        pkt = fs.queue.popleft()
        blocking = self._transmit_packet(fs, pkt)
        fs.credit -= self._used_units(pkt.size, blocking)
        if self.log_visits:
            self._log(fs, credit=fs.credit, packets=1)
        return self._emit(fs, start, pkt.size, blocking)


_KINDS = {cls.kind: cls for cls in (RoundRobinScheduler, DeficitRoundRobin, ElasticRoundRobin,
                                    EligibilityRoundRobin, CongestionAwareRoundRobin)}


def make_scheduler(kind: SchedulerKind | str, **params) -> SchedulerBase:
    """Build a scheduler by kind; params go to the class constructor."""
    return _KINDS[SchedulerKind(kind)](**params)


@dataclass(frozen=True)
class PeriodicBlocking:
    """Back-pressure model: `flow` cannot advance during the first
    `blocked_slots` cycles of every `period`; other flows never block."""

    flow: FlowId
    period: int
    blocked_slots: int

    def __post_init__(self) -> None:
        if not 0 <= self.blocked_slots < self.period:
            raise ValueError("blocked_slots must lie in [0, period); a fully blocked "
                             "period would never let the head advance")

    def finish(self, fid: FlowId, start: int, size: int) -> int:
        """One past the cycle that sends the last of `size` >= 1 units when
        sending starts at cycle `start`."""
        if fid != self.flow:
            return start + size
        slots = self.blocked_slots
        q, r = divmod(start, self.period)
        # the last unit's place among the free cycles [slots, period) of
        # period q onward
        periods, free = divmod(max(r - slots, 0) + size - 1, self.period - slots)
        return (q + periods) * self.period + slots + free + 1
