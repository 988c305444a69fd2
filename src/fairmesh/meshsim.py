"""Cycle-level simulator of a line of wormhole routers.

Routers sit on a 1-D mesh; each has left/right network ports plus local
injection and ejection.  A packet of L flits holds every link on its path
from head arrival until its tail passes (wormhole switching), and advances
at most one flit per link per cycle, gated by credit counts that mirror the
downstream input buffer with a one-cycle return delay.  Output ports are
granted per packet by a pluggable arbiter, or in flow-queue mode by a
per-output scheduling kernel that rotates over source flows.

The simulator is strictly deterministic: all randomness derives from the
config seed through per-component stream ids, and a cycle is computed in two
phases (decide from start-of-cycle state, then apply moves and return
credits) so iteration order never leaks into results.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

from .arbitration import (AgeArbiter, ArbiterKind, ProbabilisticArbiter, RoundRobinArbiter,
                          WeightPolicy)
from .core import PacketEvent, SchedulerKind, ServiceRecord, Trace, is_finite, is_int, is_real
from .rng import BernoulliLanes, XorShift64Star

# output directions / input ports share index space per router
DIR_L, DIR_R, DIR_EJ = 0, 1, 2
IN_L, IN_R, IN_INJ = 0, 1, 2
# the credit row an owner record of an ejection output reads: it never waits
_EJECT_CREDIT = (0, 0, 1)
# names the text file a traced link's trace streams to, or None to keep it
Sink = Callable[[tuple[int, int]], TextIO | None]

# the kinds the grant paths test, as plain names: reading a member off its
# Enum class costs about ten times as much (CPython 3.11)
_RR, _AGE, _PROB = ArbiterKind.ROUND_ROBIN, ArbiterKind.AGE, ArbiterKind.PROBABILISTIC
_DRR, _EBRR, _CARR = SchedulerKind.DRR, SchedulerKind.EBRR, SchedulerKind.CARR

# stream-id spacing so every component draws from its own sequence
_SID_INJECT = 0
_SID_DEST = 1
_SID_ARB = 2

_INT_FIELDS = ("k", "packet_len", "buffer_depth", "horizon", "warmup", "seed",
               "demote_rounds", "hotspot", "quantum")
_NONE_OK = ("hotspot", "quantum", "scheduler")  # None picks the default
_ENUM_FIELDS = (("arbiter", ArbiterKind), ("policy", WeightPolicy),
                ("scheduler", SchedulerKind))
_REAL_FIELDS = ("weight_base", "congestion_ratio")
# size limits, so a mistyped config cannot allocate without bound
MAX_K = 1024
MAX_ROUTER_CYCLES = 10**8  # k * horizon


class FieldsError(ValueError):
    """A config error on `fields` whose message states their values and
    need not start with a field's name."""

    def __init__(self, msg: str, *fields: str):
        super().__init__(msg)
        self.fields = fields


@dataclass
class MeshConfig:
    k: int = 8
    packet_len: int = 4
    buffer_depth: int = 4
    pattern: str = "hotspot"  # or "uniform"
    hotspot: int | None = None  # defaults to k - 1
    rate: float | Sequence[float] = 1.0
    arbiter: str | ArbiterKind = ArbiterKind.ROUND_ROBIN
    policy: str | WeightPolicy = WeightPolicy.VW
    weight_base: float = 2.0
    scheduler: str | SchedulerKind | None = None  # flow-queue mode when set
    quantum: int | None = None  # flow-queue quantum in flits, default packet_len
    congestion_ratio: float = 2.0
    demote_rounds: int = 2
    horizon: int = 10_000
    warmup: int = 0
    seed: int = 1
    trace_links: list[tuple[int, int]] | None = None  # default: sink ejection

    def dest_of(self) -> int:
        return (self.k - 1) if self.hotspot is None else self.hotspot

    def validate(self) -> None:
        """Raise FieldsError, or a ValueError whose message starts with the
        name of the field at fault."""
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if not (is_int(v) or v is None and name in _NONE_OK):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name in _REAL_FIELDS:
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (is_real(self.rate) or isinstance(self.rate, (list, tuple))
                and all(is_real(r) for r in self.rate)):
            raise ValueError(f"rate must be a number or a list of numbers, got {self.rate!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.k > MAX_K:
            raise ValueError(f"k must be <= {MAX_K}, got {self.k}")
        if self.packet_len < 1:
            raise ValueError("packet_len must be >= 1")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.pattern not in ("hotspot", "uniform"):
            raise ValueError(f"pattern must be hotspot or uniform, got {self.pattern!r}")
        if self.pattern == "hotspot" and not (0 <= self.dest_of() < self.k):
            raise ValueError(f"hotspot {self.dest_of()} out of range for k={self.k}")
        if not (is_real(self.rate) or len(self.rate) == self.k):
            raise ValueError(f"rate list length {len(self.rate)} != k {self.k}")
        # the entries as given, as float() overflows on a huge integer
        entries = [self.rate] if is_real(self.rate) else self.rate
        if not all(0 <= r <= 1 for r in entries):  # false for NaN as well
            raise ValueError("rate entries must lie in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.k * self.horizon > MAX_ROUTER_CYCLES:
            raise FieldsError(f"k * horizon must be <= {MAX_ROUTER_CYCLES}, got "
                              f"k={self.k} and horizon={self.horizon}", "k", "horizon")
        if not (0 <= self.warmup < self.horizon):
            raise FieldsError("warmup must satisfy 0 <= warmup < horizon, got "
                              f"warmup={self.warmup} and horizon={self.horizon}",
                              "warmup", "horizon")
        for name, kinds in _ENUM_FIELDS:
            v = getattr(self, name)
            if v is None and name in _NONE_OK:
                continue
            try:
                kinds(v)
            except ValueError:
                names = ", ".join(x.value for x in kinds)
                raise ValueError(f"{name} must be one of [{names}], got {v!r}") from None
        # checked whatever the arbiter or scheduler, as the report echoes them
        if not (is_finite(self.weight_base) and self.weight_base >= 1):
            raise ValueError(f"weight_base must be >= 1 and finite, got {self.weight_base}")
        if not (is_finite(self.congestion_ratio) and self.congestion_ratio > 1):
            raise ValueError("congestion_ratio must exceed 1 and be finite, "
                             f"got {self.congestion_ratio}")
        if self.demote_rounds < 1:
            raise ValueError(f"demote_rounds must be >= 1, got {self.demote_rounds}")
        if self.scheduler is None and ArbiterKind(self.arbiter) is ArbiterKind.PROBABILISTIC:
            # on a line the heaviest grant weighs a route of k - 1 hops
            # against one injected a hop later, of at most k - 2
            b = float(self.weight_base)
            try:
                top = b ** (self.k - 1) + b ** (self.k - 2)
            except OverflowError:
                top = math.inf
            if not math.isfinite(top):
                raise FieldsError("the largest weight sum, weight_base ** (k - 1) + "
                                  "weight_base ** (k - 2), must be finite, got "
                                  f"weight_base={self.weight_base} and k={self.k}",
                                  "weight_base", "k")
        if self.quantum is not None and self.quantum < 1:
            raise ValueError("quantum must be >= 1")
        if self.trace_links is not None:
            if not isinstance(self.trace_links, (list, tuple)) or not all(
                isinstance(link, (list, tuple)) and len(link) == 2
                and all(is_int(x) for x in link) for link in self.trace_links
            ):
                raise ValueError("trace_links must be a list of [router, output] "
                                 f"integer pairs, got {self.trace_links!r}")
            for r, o in self.trace_links:
                if not (0 <= r < self.k) or o not in (DIR_L, DIR_R, DIR_EJ):
                    raise FieldsError(f"trace link ({r}, {o}) out of range", "trace_links")

    def rates(self) -> list[float]:
        if is_real(self.rate):
            return [float(self.rate)] * self.k
        return [float(r) for r in self.rate]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "packet_len": self.packet_len,
            "buffer_depth": self.buffer_depth,
            "pattern": self.pattern,
            "hotspot": self.dest_of() if self.pattern == "hotspot" else None,
            "rate": self.rates(),
            "arbiter": ArbiterKind(self.arbiter).value,
            "policy": WeightPolicy(self.policy).value,
            "weight_base": self.weight_base,
            "scheduler": SchedulerKind(self.scheduler).value if self.scheduler else None,
            "quantum": self.quantum,
            "congestion_ratio": self.congestion_ratio,
            "demote_rounds": self.demote_rounds,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "seed": self.seed,
        }


class _FlowKernel:
    """Packet-granular scheduling over source flows at one output port.

    The kernel only sees flows whose head packet has reached this router; a
    flow with no packet at its turn keeps its rotation slot and follows the
    discipline's idle rule.  Every packet is L flits, so an ERR visit ends on
    its first packet with zero surplus and every allowance stays one packet:
    ERR serves as RR, and CARR as RR plus demotion judged on each packet's
    stall ratio.  Only DRR holds a visit open across packets.
    """

    def __init__(self, kind: SchedulerKind, flit_len: int, quantum: int,
                 tau: float, demote_rounds: int):
        self.kind = kind
        self.L = flit_len
        self.q = quantum
        self.tau = tau
        self.demote = demote_rounds
        self.order: deque[int] = deque()
        self.round = 1
        self.visits_left = 0
        self.balance: dict[int, int] = {}  # flits: drr deficit or ebrr credit
        self.congested_until: dict[int, int] = {}
        self.current: int | None = None  # drr flow whose visit is open
        self.skips = kind is not _DRR and kind is not _EBRR  # idle turns only rotate

    def note_service(self, flow: int, duration: int, sending: int) -> None:
        # congestion demotion judged on the finished service's stall ratio
        if self.kind is _CARR and sending > 0 and duration / sending > self.tau:
            self.congested_until[flow] = self.round + self.demote

    def _turns(self, n: int) -> None:
        """Take the next n turns of the rotation at once."""
        self.order.rotate(-n)
        if n > self.visits_left:  # new rounds start within those turns
            n -= self.visits_left
            self.round += -(-n // len(self.order))
            self.visits_left = -n % len(self.order)
        else:
            self.visits_left -= n

    def _join(self, f: int) -> None:
        self.balance[f] = self.q if self.kind is _EBRR else 0
        self.order.append(f)
        self.visits_left += 1

    def choose(self, flows: list[int]) -> int:
        """Index in `flows`, the distinct requesting flows, of the one to grant.

        The rotation runs until it grants: DRR deficit and EBRR credit grow
        by the quantum on each turn, so a port with a ready packet is never
        left idle.  A flow joins the current round at its first request.
        """
        order = self.order
        balance = self.balance
        if self.skips and len(flows) == 1:
            # a lone request is granted, as CARR demotes a flow only in
            # favour of another candidate: take the turns up to its own
            f = flows[0]
            if f not in balance:
                self._join(f)
            self._turns(order.index(f) + 1)
            return 0
        for f in flows:
            if f not in balance:
                self._join(f)
        kind = self.kind
        L = self.L
        f = self.current
        if f is not None:
            if f in flows and balance[f] >= L:
                balance[f] -= L
                return flows.index(f)
            if f not in flows:
                balance[f] = 0
            self.current = None
        until = self.congested_until
        while True:
            if self.skips:
                # the turn of a flow with no packet only rotates: take the
                # turns up to the first candidate's at once
                self._turns(min(map(order.index, flows)) + 1)
            elif self.visits_left > 0:
                order.rotate(-1)
                self.visits_left -= 1
            else:
                self._turns(1)  # a new round
            f = order[-1]
            if kind is _EBRR and balance[f] <= 0:
                balance[f] += self.q  # overdrawn: repays a quantum per turn
                continue
            if f not in flows:
                if kind is _DRR:
                    balance[f] = 0  # idle at its turn: the deficit is forfeit
                continue
            if kind is _DRR:
                balance[f] += self.q
                if balance[f] < L:
                    continue
                balance[f] -= L
                self.current = f
            elif kind is _EBRR:
                balance[f] -= L
            elif kind is _CARR and until.get(f, 0) > self.round and any(
                until.get(g, 0) <= self.round for g in flows
            ):
                continue  # demoted: loses this round's visit
            return flows.index(f)


@dataclass
class SourceStats:
    delivered: int = 0
    latency_sum: int = 0
    latency_max: int = 0


@dataclass
class SimReport:
    config: dict
    cycles: int
    delivered: dict[int, int]
    shares: dict[int, float]
    mean_latency: dict[int, float]
    max_latency: dict[int, int]
    # per (flow, router), summed over the outputs the flow uses there (two
    # under uniform traffic: packets to either side)
    sending: dict[tuple[int, int], int]
    blocking: dict[tuple[int, int], int]
    packets_through: dict[tuple[int, int], int]
    drops: int
    traces: dict[tuple[int, int], Trace] = field(repr=False, default_factory=dict)

    def s_ratio(self, flow: int, router: int) -> float | None:
        s = self.sending.get((flow, router), 0)
        return (s + self.blocking.get((flow, router), 0)) / s if s else None

    def s_matrix(self) -> dict[int, dict[int, float | None]]:
        flows = sorted(
            {f for f, _ in self.sending} | {f for f, _ in self.blocking}
            | set(self.delivered)
        )
        routers = range(self.config["k"])
        return {f: {r: self.s_ratio(f, r) for r in routers} for f in flows}

    def sink_trace(self) -> Trace | None:
        return self.traces[max(self.traces)] if self.traces else None

    def to_dict(self) -> dict:
        def bykey(d):
            return {f"{f},{r}": v for (f, r), v in sorted(d.items())}

        return {
            "config": self.config,
            "cycles": self.cycles,
            "delivered": {str(s): n for s, n in sorted(self.delivered.items())},
            "shares": {str(s): v for s, v in sorted(self.shares.items())},
            "mean_latency": {str(s): v for s, v in sorted(self.mean_latency.items())},
            "max_latency": {str(s): v for s, v in sorted(self.max_latency.items())},
            "sending": bykey(self.sending),
            "blocking": bykey(self.blocking),
            "packets_through": bykey(self.packets_through),
            "s_matrix": {
                str(f): {str(r): v for r, v in row.items()}
                for f, row in self.s_matrix().items()
            },
            "drops": self.drops,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def shares_csv(self, fh) -> None:
        fh.write("source,share,mean_latency,max_latency\n")
        for s in sorted(self.shares):
            fh.write(f"{s},{self.shares[s]},{self.mean_latency[s]},{self.max_latency[s]}\n")


class MeshSim:
    """A run of `cfg`; `sink`, if given, names each traced link's file."""

    def __init__(self, cfg: MeshConfig, sink: Sink | None = None):
        cfg.validate()
        self.cfg = cfg
        k = cfg.k
        self.L = cfg.packet_len
        self.now = 0
        self.dest_fixed = cfg.dest_of() if cfg.pattern == "hotspot" else None
        self.rates = cfg.rates()
        if self.dest_fixed is not None:
            self.rates[self.dest_fixed] = 0.0

        # network state
        self.fifos = [[deque(), deque()] for _ in range(k)]  # [r][IN_L/IN_R]
        self.credits = [[cfg.buffer_depth, cfg.buffer_depth] for _ in range(k)]
        # per input [r][IN_L/IN_R/IN_INJ], the first cycle its head was there
        self.since = [[0] * 3 for _ in range(k)]
        # one owner record per output, None while free, and the same records
        # per input, None while no packet there owns an output: its head
        # flit, if any, is then a packet's first.  A record is
        # [pid, sent, output, credit row, cell, flow, start, input link, output link]
        self.owner: list[list[list | None]] = [[None, None, None] for _ in range(k)]
        self.holder: list[list[list | None]] = [[None, None, None] for _ in range(k)]
        # per (flow, router), summed over the outputs the flow takes there:
        # [sending, blocking, grants]; a record charges its sending at its tail
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.active: set[int] = set()  # routers processed in the next cycle
        # arrivals not yet made a packet, as runs [first_cycle, count]; a
        # source of rate 1 has one arrival every cycle, so it keeps only the
        # cycle of its oldest (None for the others)
        self.queues: list[deque[list[int]]] = [deque() for _ in range(k)]
        self.oldest = [0 if p >= 1.0 else None for p in self.rates]
        self.inj_pkt: list[int] = [-1] * k  # head packet of each source queue
        self.fresh = list(range(k))  # sources that may take a head packet next

        # live packets by id, [src, dest, inject, contention product]: one
        # enters when it reaches the head of its source queue, and leaves
        # when its tail ejects; `made` is the next id
        self.packets: dict[int, list] = {}
        self.made = 0

        seed = cfg.seed
        self.rng_dest = [XorShift64Star(seed, _SID_DEST * k + n) for n in range(k)]
        # those of rate in (0, 1) draw their arrivals together, one lane each
        self.lanes = BernoulliLanes(seed, self.rates, _SID_INJECT * k)

        self.flow_mode = cfg.scheduler is not None
        arb = ArbiterKind(cfg.arbiter)
        # per output of each router: its flow-queue kernel, or its arbiter
        self.ports = [[
            _FlowKernel(SchedulerKind(cfg.scheduler), self.L, cfg.quantum or self.L,
                        cfg.congestion_ratio, cfg.demote_rounds)
            if self.flow_mode else RoundRobinArbiter(3) if arb is _RR else
            AgeArbiter() if arb is _AGE else
            ProbabilisticArbiter(cfg.policy, cfg.weight_base, seed, _SID_ARB * k + r * 3 + o)
            for o in (DIR_L, DIR_R, DIR_EJ)] for r in range(k)]

        if cfg.trace_links is None:
            links = [(cfg.dest_of() if cfg.pattern == "hotspot" else k - 1, DIR_EJ)]
        else:
            links = sorted({tuple(link) for link in cfg.trace_links})
        self.traces = {link: Trace(sink(link) if sink else None) for link in links}

        # what an owner record reads of its links.  An input's: (router,
        # input, its since and holder rows, its fifo, and upstream the credit
        # row, output and router).  An output's: (credit row, owner row,
        # whether its packet ends go to `_release`, and downstream the fifo,
        # its since row and input, and router).  CARR demotes on packet ends,
        # and a trace records them.
        carr = self.flow_mode and SchedulerKind(cfg.scheduler) is SchedulerKind.CARR
        f, c, s = self.fifos, self.credits, self.since
        self.ins, self.outs, self.routers = [], [], []
        for r in range(k):
            ins = [None, None, (r, IN_INJ, s[r], self.holder[r]) + (None,) * 4]
            outs = [None, None, (_EJECT_CREDIT, self.owner[r], carr or (r, DIR_EJ) in self.traces)
                    + (None,) * 4]
            for n, m in ((IN_L, r - 1), (IN_R, r + 1)):  # input n faces output 1 - n of m
                if 0 <= m < k:
                    ins[n] = (r, n, s[r], self.holder[r], f[r][n], c[m], 1 - n, m)
                    outs[n] = (c[r], self.owner[r], carr or (r, n) in self.traces,
                               f[m][1 - n], s[m], 1 - n, m)
            self.ins.append(ins)
            self.outs.append(outs)
            # its holder and owner rows, and the inputs that can hold a flit,
            # in port order; the source's has no fifo
            self.routers.append((self.holder[r], self.owner[r],
                                 [(into[1], into[4]) for into in ins if into]))

        self._reset_stats()
        self.log: list[tuple] | None = None  # searching: (trace, record) or (pid, packet, cycle)

    # -- helpers ----------------------------------------------------------

    def _new_packet(self, src: int, inject_time: int) -> int:
        dest = self.dest_fixed
        if dest is None:
            dest = (src + 1 + self.rng_dest[src].randrange(self.cfg.k - 1)) % self.cfg.k
        pid = self.made
        self.made = pid + 1
        self.packets[pid] = [src, dest, inject_time, 1.0]
        return pid

    def _reset_stats(self) -> None:
        """Zero the statistics per source; `report` counts from here."""
        self.stats = {n: SourceStats() for n in range(self.cfg.k)}
        self.base = self._counts()

    def _counts(self) -> tuple[dict[tuple[int, int], int], ...]:
        """Sending, blocking and grants per (flow, router) since cycle 0: the
        cells, plus each live record's `sent` and each waiting head's wait."""
        L, now, cells = self.L, self.now, self.cells.items()
        sending, blocking, grants = ({key: c[j] for key, c in cells} for j in range(3))
        for r, row in enumerate(self.owner):
            for rec in filter(None, row):
                sending[rec[5], r] += rec[1]
        for r, (fl, fr) in enumerate(self.fifos):
            heads = (fl[0] // L if fl else -1, fr[0] // L if fr else -1, self.inj_pkt[r])
            for pid, first in zip(heads, self.since[r]):
                if pid >= 0 and now > first:
                    key = self.packets[pid][0], r
                    blocking[key] = blocking.get(key, 0) + now - first
        return sending, blocking, grants

    # -- cycle ------------------------------------------------------------

    def step(self) -> None:
        """Advance one cycle, processing only the routers in `active`.

        A router's decisions read only its input heads, its owners and
        arbiter state, and whether each output has a credit.  So it is active
        in a cycle when, in the cycle before, it sent a flit, a flit became
        the head of one of its inputs, or a credit came back to an output that
        had none; or when its source queue gets a new head packet this cycle.
        Any other router would again decide to do nothing, as it did when last
        active: a free output with a candidate always grants, and a granted
        head flit that did not move is waiting for a credit.

        A run is `horizon` cycles long, the length the size limits bound
        and `report` covers, so a step past it is refused.
        """
        cfg = self.cfg
        L = self.L
        now = self.now
        if now >= cfg.horizon:
            raise RuntimeError(f"the run ended at its horizon, cycle {cfg.horizon}")
        if now == cfg.warmup:
            self._reset_stats()

        # arrivals join the (unbounded) source queues; a source takes the
        # oldest as its head packet when its last one has left or it had none
        active = self.active
        inj_pkt = self.inj_pkt
        oldest = self.oldest
        form = self.fresh
        for n in self.lanes.step() if self.lanes.ids else ():
            q = self.queues[n]
            if q and sum(q[-1]) == now:
                q[-1][1] += 1
            else:
                q.append([now, 1])
            form.append(n)
        for n in sorted(set(form)):  # packet ids in source order
            first, q = oldest[n], self.queues[n]
            if inj_pkt[n] >= 0 or first is None and not q:
                continue
            if first is not None:  # a saturated source: arrivals through this cycle
                oldest[n] = first + 1
            else:
                first, count = q.popleft()
                if count > 1:
                    q.appendleft([first + 1, count - 1])
            inj_pkt[n] = self._new_packet(n, first)
            self.since[n][IN_INJ] = now
            active.add(n)
        fresh = self.fresh = []

        # a flit of a packet that owns its output moves when the output has
        # a credit; a first flit requests the output its route takes, and a
        # free output with requests grants one of them
        moves = []  # owner records that send a flit
        woken = set()  # routers active next cycle
        packets = self.packets
        routers = self.routers
        for r in sorted(active):
            held, owners, inputs = routers[r]
            moved = False
            reqs = None  # per output: [(input, pid)]
            for i, fifo in inputs:
                # the source's input has no fifo: its head packet, if any
                if not fifo and (fifo is not None or inj_pkt[r] < 0):
                    continue
                rec = held[i]
                if rec is None:
                    pid = fifo[0] // L if fifo else inj_pkt[r]
                    dest = packets[pid][1]
                    o = DIR_R if dest > r else DIR_L if dest < r else DIR_EJ
                    if owners[o] is None:
                        if reqs is None:
                            reqs = [[], [], []]
                        reqs[o].append((i, pid))
                elif rec[3][rec[2]]:  # its credit row, at its output
                    rec[1] += 1
                    moves.append(rec)
                    moved = True
            if reqs is not None:
                for o, cands in enumerate(reqs):
                    if cands:
                        rec = self._grant(r, o, cands)
                        if rec[3][o]:
                            rec[1] = 1
                            moves.append(rec)
                            moved = True
            if moved:
                woken.add(r)

        for rec in moves:
            pid, sent, o, credit, cell, _flow, _start, into, out = rec
            r, i, since, held, fifo, up, o_up, r_up = into
            tail = sent == L
            # channel time is charged when the head flit moves: the cycles
            # it waited at the head, then the cycle it is sent
            wait = now - since[i]
            if wait > 0:
                cell[1] += wait
            since[i] = now + 1
            # consume from the input side
            if fifo is None:
                if tail:
                    inj_pkt[r] = -1
                    fresh.append(r)
            else:
                fifo.popleft()
                # the freed slot counts upstream from the next cycle on, as
                # every decision of this one is made
                if not up[o_up]:  # the output may send again
                    woken.add(r_up)
                up[o_up] += 1
            # deliver or forward
            _credit, owners, noted, fifo, since, j, nbr = out
            if fifo is None:
                if tail:
                    self._deliver(pid, packets.pop(pid), now)
            else:
                if not fifo:  # the flit is the new head there
                    since[j] = now + 1
                    woken.add(nbr)
                fifo.append(pid * L + sent - 1)
                credit[o] -= 1
            if tail:
                cell[0] += L
                held[i] = owners[o] = None
                if noted:
                    self._release(rec, now)
        self.active = woken
        self.now = now + 1

    def _grant(self, r: int, o: int, cands: list[tuple[int, int]]) -> list:
        """The owner record of the request granted a free output among
        (input, pid) requests: the port chooses over the one value per
        request that it reads."""
        port = self.ports[r][o]
        kind = port.kind
        packets = self.packets
        if self.flow_mode:  # a flow reaches a router through one input port only
            vals = [packets[pid][0] for _i, pid in cands]
        elif kind is _RR:
            vals = [i for i, _pid in cands]
        elif kind is _AGE:
            vals = [(packets[pid][2], i) for i, pid in cands]
        else:  # routes: (hops_total, hops_traversed, contention_product)
            vals = []
            for _i, pid in cands:
                src, dest, _inject, cprod = packets[pid]
                vals.append((abs(dest - src), abs(r - src), cprod))
        i, pid = cands[port.choose(vals)]
        packet = packets[pid]
        if kind is _PROB:  # the one port that reads the product
            packet[3] *= len(cands)
        flow = packet[0]
        cell = self.cells.setdefault((flow, r), [0, 0, 0])
        cell[2] += 1
        out = self.outs[r][o]
        rec = self.owner[r][o] = self.holder[r][i] = [
            pid, 0, o, out[0], cell, flow, self.now, self.ins[r][i], out]
        return rec

    def _release(self, rec: list, now: int) -> None:
        _pid, sent, o, _credit, _cell, flow, start, into, _out = rec
        r = into[0]
        blocked = now + 1 - start - sent  # every owned cycle sends or blocks
        if self.flow_mode:
            self.ports[r][o].note_service(flow, sent + blocked, sent)
        trace = self.traces.get((r, o))
        if trace is not None and start >= self.cfg.warmup:
            rec = ServiceRecord(flow, trace.count + 1, start, now + 1, sent, blocked)
            trace.append(rec)
            if self.log is not None:
                self.log.append((trace, rec))

    def _deliver(self, pid: int, packet: Sequence, now: int) -> None:
        """Count packet `pid`, out of the live table, as delivered in cycle `now`."""
        if self.log is not None:
            self.log.append((pid, packet, now))
        src, dest, inject, _cprod = packet
        st = self.stats[src]
        st.delivered += 1
        latency = now + 1 - inject
        st.latency_sum += latency
        if latency > st.latency_max:
            st.latency_max = latency
        trace = self.traces.get((dest, DIR_EJ))
        if trace is not None and trace.sink is None:  # a streamed trace keeps no event
            trace.events.append(
                PacketEvent(packet_id=pid, flow=src, inject=inject, deliver=now + 1)
            )

    # -- runs -------------------------------------------------------------

    def run(self) -> SimReport:
        """Step to the horizon.  A run that draws no random number (no lanes,
        a fixed destination, the round-robin or age arbiter) first looks for
        a repeat of its state after warmup, and skips the whole periods it
        finds; its output is the stepped output."""
        cfg = self.cfg
        if (not self.flow_mode and self.ports[0][0].kind in (_RR, _AGE)
                and not self.lanes.ids and self.dest_fixed is not None):
            while self.now <= cfg.warmup:
                self.step()
            from .periodic import fast_forward  # compiled only by runs that search
            fast_forward(self)
        while self.now < cfg.horizon:
            self.step()
        return self.report()

    def report(self) -> SimReport:
        """The counts since warmup, or since cycle 0 before warmup."""
        sending, blocking, through = counts = self._counts()
        for d, base in zip(counts, self.base):  # in place, as a run's memory peaks here
            for key in list(d):
                d[key] -= base.get(key, 0)
                if not d[key]:
                    del d[key]
        total = sum(s.delivered for s in self.stats.values())
        shares, mean_lat, max_lat, delivered = {}, {}, {}, {}
        for n, st in sorted(self.stats.items()):
            if n == self.dest_fixed:
                continue
            delivered[n] = st.delivered
            shares[n] = st.delivered / total if total else 0.0
            mean_lat[n] = st.latency_sum / st.delivered if st.delivered else 0.0
            max_lat[n] = st.latency_max
        return SimReport(config=self.cfg.to_dict(), cycles=self.now, delivered=delivered,
                         shares=shares, mean_latency=mean_lat, max_latency=max_lat,
                         sending=sending, blocking=blocking, packets_through=through,
                         drops=0, traces=self.traces)


def run_mesh(cfg: MeshConfig, sink: Sink | None = None) -> SimReport:
    return MeshSim(cfg, sink).run()
