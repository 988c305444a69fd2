"""Round-robin service disciplines behind one serve-one-visit contract.

Five disciplines share an engine that injects arrivals, sends a visit's
packets one whole packet at a time on a cycle clock, and emits one
ServiceRecord per visit:

* RR    - plain round robin, one whole packet per visit.
* DRR   - deficit round robin with a per-flow quantum and deficit counter.
* ERR   - elastic round robin; per-round allowances derived from the previous
          round's surplus counts, whole packets, last packet may overshoot.
* EBRR  - eligibility-based round robin; one packet per visit, a signed
          credit balance that defers over-drawn flows to later rounds and is
          retained across idle periods.
* CARR  - congestion-aware variant of ERR; flows whose channel occupation to
          sending ratio exceeds a threshold are demoted for a few rounds.

Accounting mode selects the unit the disciplines budget with: packet sizes,
or channel occupation (sending plus blocking cycles).  Control flow is
identical in both modes; only the decrement applied to deficit / surplus /
credit changes.  Blocking itself comes from an optional PeriodicBlocking,
which models downstream back-pressure on one flow and gives each packet's
finish cycle in closed form.

A newly active flow joins the tail of the schedule and is first served in
the following round; the one exception is a brand-new EBRR flow, whose
initialization grants a full credit and immediate eligibility.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .core import Clock, FlowId, Packet, PacketEvent, ServiceRecord, Trace


class Accounting(Enum):
    PACKET_SIZE = "packet_size"
    OCCUPATION = "channel_occupation"


class SchedulerKind(Enum):
    RR = "rr"
    DRR = "drr"
    ERR = "err"
    EBRR = "ebrr"
    CARR = "carr"


@dataclass
class FlowState:
    id: FlowId
    queue: deque[Packet] = field(default_factory=deque)
    weight: float = 1.0
    # DRR
    deficit: int = 0
    # ERR / CARR
    surplus: int = 0
    allowance: int = 1
    # EBRR
    credit: int = 0
    eligible_round: int = 0
    initialized: bool = False
    # CARR
    congested_until: int = 0
    # bookkeeping
    listed: bool = False
    drops: int = 0

    @property
    def backlogged(self) -> bool:
        return bool(self.queue)


class SchedulerBase:
    """Engine shared by all disciplines: arrivals, clock, trace, rounds."""

    kind: SchedulerKind

    def __init__(
        self,
        accounting: Accounting = Accounting.PACKET_SIZE,
        queue_capacity: int | None = None,
        blocked: PeriodicBlocking | None = None,
        weights: dict[FlowId, float] | None = None,
        log_visits: bool = False,
    ):
        self.accounting = accounting
        self.queue_capacity = queue_capacity
        self.blocked = blocked
        self.clock = Clock()
        self.trace = Trace()
        self.flows: dict[FlowId, FlowState] = {}
        self.active: deque[FlowState] = deque()
        self.round_number = 0
        self.visits_left = 0
        self.log_visits = log_visits
        self.visit_log: list[dict] = []
        self._given_weights = dict(weights) if weights else {}
        self._arrivals: list[Packet] = []
        self._next_arrival = 0
        self._events: dict[int, PacketEvent] = {}
        self._listed_count = 0

    # -- workload ---------------------------------------------------------

    def load(self, packets: Iterable[Packet]) -> None:
        """Queue an arrival schedule; packets are injected as the clock reaches
        their inject_time."""
        self._arrivals = sorted(packets, key=lambda p: p.inject_time)
        self._next_arrival = 0

    def _flow(self, fid: FlowId) -> FlowState:
        fs = self.flows.get(fid)
        if fs is None:
            fs = FlowState(id=fid, weight=self._given_weights.get(fid, 1.0))
            self.flows[fid] = fs
        return fs

    def _inject_due(self) -> None:
        arr = self._arrivals
        i = self._next_arrival
        now = self.clock.now
        while i < len(arr) and arr[i].inject_time <= now:
            self._enqueue(arr[i])
            i += 1
        self._next_arrival = i

    def _enqueue(self, pkt: Packet) -> None:
        fs = self._flow(pkt.flow)
        if self.queue_capacity is not None and len(fs.queue) >= self.queue_capacity:
            fs.drops += 1  # tail drop, packet never enters the queue
            return
        fs.queue.append(pkt)
        ev = PacketEvent(pkt.id, pkt.flow, pkt.inject_time)
        self._events[pkt.id] = ev
        self.trace.add_event(ev)
        if not fs.listed:
            fs.listed = True
            self._listed_count += 1
            self._activate(fs)

    def _activate(self, fs: FlowState) -> None:
        self.active.append(fs)

    def _delist(self, fs: FlowState) -> None:
        fs.listed = False
        self._listed_count -= 1
        if self._listed_count == 0:
            self.visits_left = 0
            self._on_full_idle()

    def _has_backlog(self) -> bool:
        return self._listed_count > 0

    # -- rounds -----------------------------------------------------------

    def _start_round(self) -> None:
        self.round_number += 1
        self.visits_left = len(self.active)
        self._on_round_start()

    def _on_round_start(self) -> None:
        pass

    def _on_full_idle(self) -> None:
        pass

    # -- transmission -----------------------------------------------------

    def _transmit_packet(self, fs: FlowState, pkt: Packet) -> int:
        """Send one whole packet, one unit per non-blocked cycle.

        Returns the number of blocked cycles.  Arrivals up to the finish
        cycle join once, at the end.  That is exact: they are sorted, and
        enqueueing reads neither the clock nor anything a send changes, so
        they join in the order and state they would cycle by cycle.
        """
        start = self.clock.now
        if self.blocked is None:
            end = start + pkt.size
        else:
            end = self.blocked.finish(fs.id, start, pkt.size)
        self.clock.now = end
        self._inject_due()
        pkt.deliver_time = end
        ev = self._events.get(pkt.id)
        if ev is not None:
            ev.deliver = end
        return end - start - pkt.size

    def _used_units(self, size: int, blocking: int) -> int:
        if self.accounting is Accounting.OCCUPATION:
            return size + blocking
        return size

    def _emit(self, fs: FlowState, start: int, sent: int, blocking: int) -> ServiceRecord | None:
        if sent == 0:
            return None
        rec = ServiceRecord(fs.id, self.round_number, start, self.clock.now, sent, blocking)
        self.trace.append(rec)
        return rec

    # -- the uniform contract --------------------------------------------

    def serve_next(self) -> ServiceRecord | None:
        """Serve one visit of the discipline; returns its record, or None if
        the visit moved no data (idle, or a bookkeeping-only visit)."""
        self._inject_due()
        if not self.active:
            return None
        fs = self._pop_for_service()
        return self._visit(fs)

    def _pop_for_service(self) -> FlowState:
        while True:
            if self.visits_left <= 0:
                self._start_round()
            fs = self.active.popleft()
            self.visits_left -= 1
            if self._should_skip(fs):
                self.active.append(fs)
                continue
            return fs

    def _should_skip(self, fs: FlowState) -> bool:
        return False

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        raise NotImplementedError

    # -- driver -----------------------------------------------------------

    def run(self, horizon: int | None = None) -> Trace:
        """Serve until the workload is exhausted or the clock passes horizon.

        Work conserving: the clock only jumps over spans where no flow is
        backlogged."""
        while True:
            self._inject_due()
            if not self._has_backlog():
                if self._next_arrival >= len(self._arrivals):
                    break
                nxt = self._arrivals[self._next_arrival].inject_time
                if horizon is not None and nxt >= horizon:
                    break
                if nxt > self.clock.now:
                    self.clock.now = nxt
                continue
            if horizon is not None and self.clock.now >= horizon:
                break
            self.serve_next()
        return self.trace

    def weights(self) -> dict[FlowId, float]:
        return {fid: fs.weight for fid, fs in sorted(self.flows.items())}

    def drops(self) -> dict[FlowId, int]:
        return {fid: fs.drops for fid, fs in sorted(self.flows.items())}


class RoundRobinScheduler(SchedulerBase):
    """One whole packet per visit, cyclic order over backlogged flows."""

    kind = SchedulerKind.RR

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        start = self.clock.now
        pkt = fs.queue.popleft()
        blocking = self._transmit_packet(fs, pkt)
        if fs.queue:
            self.active.append(fs)
        else:
            self._delist(fs)
        rec = self._emit(fs, start, pkt.size, blocking)
        if self.log_visits:
            self.visit_log.append(
                {"flow": fs.id, "round": self.round_number, "packets": 1}
            )
        return rec


class _QuantumScheduler(SchedulerBase):
    """A discipline with a quantum per flow: one int for all, or a dict."""

    def __init__(self, quantum: int | dict[FlowId, int], **kw):
        super().__init__(**kw)
        if isinstance(quantum, int):
            if quantum < 1:
                raise ValueError(f"quantum must be >= 1, got {quantum}")
            self._quantum: int | dict[FlowId, int] = quantum
        else:
            for fid, q in quantum.items():
                if q < 1:
                    raise ValueError(f"quantum must be >= 1, got {q} for flow {fid}")
            self._quantum = dict(quantum)

    def quantum_for(self, fid: FlowId) -> int:
        if isinstance(self._quantum, int):
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

    def _flow(self, fid: FlowId) -> FlowState:
        fs = super()._flow(fid)
        if fid not in self._given_weights and not isinstance(self._quantum, int):
            # DRR flow weights follow the quantum ratio
            qmin = min(self._quantum.values())
            fs.weight = self.quantum_for(fid) / qmin
        return fs

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        fs.deficit += self.quantum_for(fs.id)
        start = self.clock.now
        sent = blocking = 0
        while fs.queue and fs.queue[0].size <= fs.deficit:
            pkt = fs.queue.popleft()
            b = self._transmit_packet(fs, pkt)
            fs.deficit -= self._used_units(pkt.size, b)
            sent += pkt.size
            blocking += b
        if fs.queue:
            self.active.append(fs)
        else:
            fs.deficit = 0  # residue is not carried across idle
            self._delist(fs)
        rec = self._emit(fs, start, sent, blocking)
        if self.log_visits:
            self.visit_log.append(
                {"flow": fs.id, "round": self.round_number, "deficit": fs.deficit, "sent": sent}
            )
        return rec


class ElasticRoundRobin(SchedulerBase):
    """Elastic round robin.

    Round-1 allowance is one unit for every flow.  Later rounds grant
    1 + MaxSC(prev) - SC_i(prev): the flow with the largest previous surplus
    gets exactly one unit.  Packets are sent whole while the accounted units
    stay below the allowance, so the final packet may overshoot; the
    overshoot becomes the next surplus.  A flow that goes idle has its
    surplus reset to zero.
    """

    kind = SchedulerKind.ERR

    def __init__(self, **kw):
        super().__init__(**kw)
        self.max_sc_prev = 0
        self._round_max_sc = 0

    def _on_round_start(self) -> None:
        self.max_sc_prev = self._round_max_sc
        self._round_max_sc = 0

    def _on_full_idle(self) -> None:
        self.max_sc_prev = 0
        self._round_max_sc = 0

    def _allowance(self, fs: FlowState) -> int:
        # the max() guard only matters for CARR, where a demoted flow can
        # carry a stale surplus above the current MaxSC
        return max(1, 1 + self.max_sc_prev - fs.surplus)

    def _visit(self, fs: FlowState) -> ServiceRecord | None:
        fs.allowance = self._allowance(fs)
        start = self.clock.now
        sent = blocking = accounted = 0
        while fs.queue and accounted < fs.allowance:
            pkt = fs.queue.popleft()
            b = self._transmit_packet(fs, pkt)
            accounted += self._used_units(pkt.size, b)
            sent += pkt.size
            blocking += b
        if fs.queue:
            fs.surplus = accounted - fs.allowance
            self.active.append(fs)
        else:
            fs.surplus = 0
            self._delist(fs)
        self._round_max_sc = max(self._round_max_sc, fs.surplus)
        rec = self._emit(fs, start, sent, blocking)
        if self.log_visits:
            self.visit_log.append(
                {
                    "flow": fs.id,
                    "round": self.round_number,
                    "allowance": fs.allowance,
                    "surplus": fs.surplus,
                    "sent": sent,
                }
            )
        return rec


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
        if not 1.0 < tau < math.inf:
            raise ValueError(f"tau must exceed 1.0 and be finite, got {tau}")
        if demote_rounds < 1:
            raise ValueError(f"demote_rounds must be >= 1, got {demote_rounds}")
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

    Each flow holds a signed credit, initialized to one quantum.  A
    transmission debits the packet's accounted units, which may push the
    credit negative; the flow is then deferred, gaining one quantum per round
    boundary it sits out, and becomes eligible again once the credit is
    positive.  Credit survives idle periods, so a flow cannot launder an
    overdraft by going briefly idle.
    """

    kind = SchedulerKind.EBRR

    def __init__(self, quantum: int | dict[FlowId, int], **kw):
        super().__init__(quantum, **kw)
        self.current: deque[FlowState] = deque()
        self.nxt: deque[FlowState] = deque()
        self.round_number = 1

    def _activate(self, fs: FlowState) -> None:
        if not fs.initialized:
            # FlowInit: full credit, eligible in the current round
            fs.initialized = True
            fs.credit = self.quantum_for(fs.id)
            fs.eligible_round = self.round_number
            self.current.append(fs)
            return
        if fs.credit > 0 and fs.eligible_round <= self.round_number:
            self.current.append(fs)
        else:
            if fs.credit <= 0:
                fs.credit += self.quantum_for(fs.id)
            fs.eligible_round = self.round_number + 1
            self.nxt.append(fs)

    def _defer(self, fs: FlowState) -> None:
        fs.credit += self.quantum_for(fs.id)
        fs.eligible_round = self.round_number + 1
        self.nxt.append(fs)

    def serve_next(self) -> ServiceRecord | None:
        self._inject_due()
        while True:
            if not self.current:
                if not self.nxt:
                    return None
                self.current, self.nxt = self.nxt, self.current
                self.round_number += 1
            fs = self.current.popleft()
            if fs.credit <= 0:
                self._defer(fs)
                continue
            break
        start = self.clock.now
        served_round = self.round_number
        pkt = fs.queue.popleft()
        blocking = self._transmit_packet(fs, pkt)
        fs.credit -= self._used_units(pkt.size, blocking)
        credit_after_tx = fs.credit
        if not fs.queue:
            self._delist(fs)  # credit retained across the idle period
        elif fs.credit > 0:
            self.current.append(fs)
        else:
            self._defer(fs)
        rec = self._emit(fs, start, pkt.size, blocking)
        if self.log_visits:
            self.visit_log.append(
                {"flow": fs.id, "round": served_round, "credit": credit_after_tx, "packets": 1}
            )
        return rec


def make_scheduler(kind: SchedulerKind | str, **params) -> SchedulerBase:
    """Build a scheduler by kind; params go to the class constructor."""
    if isinstance(kind, str):
        kind = SchedulerKind(kind.lower())
    if kind is SchedulerKind.RR:
        return RoundRobinScheduler(**params)
    if kind is SchedulerKind.DRR:
        return DeficitRoundRobin(**params)
    if kind is SchedulerKind.ERR:
        return ElasticRoundRobin(**params)
    if kind is SchedulerKind.EBRR:
        return EligibilityRoundRobin(**params)
    if kind is SchedulerKind.CARR:
        return CongestionAwareRoundRobin(**params)
    raise ValueError(f"unknown scheduler kind: {kind}")


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
