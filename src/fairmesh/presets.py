"""Canned experiment scenarios.

Everything here is a pure function of its arguments, so rebuilding a
workload with the same seed yields byte-identical arrival streams.  This
module alone knows a standalone workload kind (`Workload`).
"""

from __future__ import annotations

import inspect

from .core import Packet, is_int
from .rng import XorShift64Star

# the published decay series for an 8-node saturated hotspot under
# round-robin port arbitration: sources at P0..P6, sink at P7
GEOMETRIC_SHARES = (1 / 64, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2)

# two-flow scenario where size-based fairness looks clean while channel
# occupation diverges: flow 0's downstream credit is withheld 6 of every 10
# cycles, so it holds the channel 2.5 cycles per unit sent
PATHOLOGY_SIZES = {0: 24, 1: 16}
PATHOLOGY_PERIODS = {0: 60, 1: 48}
PATHOLOGY_WEIGHTS = {0: 1.5, 1: 1.0}
PATHOLOGY_DRR_QUANTA = {0: 24, 1: 16}
PATHOLOGY_BLOCK_PERIOD = 10
PATHOLOGY_BLOCK_SLOTS = 6
PATHOLOGY_HORIZON = 24_000

ARB_CONVERGENCE_WEIGHTS = (1.0, 1.0, 2.0)
ARB_CONVERGENCE_TRIALS = 1_000_000

# size limits, so a mistyped workload cannot allocate or run without bound:
# its packets, and its flows, whose pairs the fairness sweep visits; a
# packet's size; and the inject cycles, so every time fits the sweep's int64
# arrays
MAX_WORKLOAD_PACKETS = 100_000
MAX_WORKLOAD_FLOWS = 16
MAX_PACKET_SIZE = 1024
MAX_WORKLOAD_SPREAD = 10**12
_COUNT_BOUNDS = {"n_flows": MAX_WORKLOAD_FLOWS, "max_size": MAX_PACKET_SIZE,
                 "spread": MAX_WORKLOAD_SPREAD}
DEFAULT_QUANTUM = 16  # DRR and EBRR's, on a workload without quanta of its own
# the scheduler turns, packets x ceil(max_size / smallest quantum), as DRR
# and EBRR take up to ceil(size / quantum) turns to send a packet (the
# workload bounds at the default quantum stay within it)
MAX_SCHEDULER_TURNS = MAX_WORKLOAD_PACKETS * MAX_PACKET_SIZE // DEFAULT_QUANTUM
# no trace of a workload within the bounds ends later: its packets arrive
# before the spread, and then a unit is sent a cycle; a pathology run stops
# near its horizon, which the packet bound keeps far below the spread
MAX_TRACE_END = MAX_WORKLOAD_SPREAD + MAX_WORKLOAD_PACKETS * MAX_PACKET_SIZE


def pathology_blocking():
    """Flow 0's withheld credit in the pathology, a `schedulers.PeriodicBlocking`."""
    from .schedulers import PeriodicBlocking  # so a mesh run never compiles schedulers
    return PeriodicBlocking(flow=0, period=PATHOLOGY_BLOCK_PERIOD,
                            blocked_slots=PATHOLOGY_BLOCK_SLOTS)


def pathology_workload(horizon: int = PATHOLOGY_HORIZON) -> list[Packet]:
    """Strictly periodic arrivals; flow 0 stays backlogged under every
    discipline, flow 1 saturates only when service falls behind."""
    Workload("pathology", horizon=horizon)  # checks the counts
    pkts: list[Packet] = []
    pid = 0
    for flow in (0, 1):
        for t in range(0, horizon, PATHOLOGY_PERIODS[flow]):
            pkts.append(Packet(id=pid, flow=flow, size=PATHOLOGY_SIZES[flow], inject_time=t))
            pid += 1
    pkts.sort(key=lambda p: (p.inject_time, p.id))
    return pkts


def random_workload(
    seed: int,
    n_flows: int = 3,
    packets_per_flow: int = 200,
    max_size: int = 16,
    spread: int = 4000,
) -> list[Packet]:
    """Seeded random arrivals with uniform sizes, identical across rebuilds."""
    Workload("random", n_flows=n_flows, packets_per_flow=packets_per_flow, max_size=max_size,
             spread=spread)
    rng = XorShift64Star(seed, stream_id=97)
    pkts: list[Packet] = []
    pid = 0
    for flow in range(n_flows):
        for _ in range(packets_per_flow):
            pkts.append(Packet(
                id=pid, flow=flow, size=1 + rng.randrange(max_size),
                inject_time=rng.randrange(spread),
            ))
            pid += 1
    pkts.sort(key=lambda p: (p.inject_time, p.id))
    return pkts


def backlogged_pair(seed: int, packets_per_flow: int = 500,
                    max_size: int = 16) -> list[Packet]:
    """Two flows, everything queued at time zero: both stay backlogged until
    one side runs out."""
    Workload("backlogged-pair", packets_per_flow=packets_per_flow, max_size=max_size)
    rng = XorShift64Star(seed, stream_id=131)
    pkts: list[Packet] = []
    pid = 0
    for flow in (0, 1):
        for _ in range(packets_per_flow):
            pkts.append(Packet(id=pid, flow=flow, size=1 + rng.randrange(max_size),
                               inject_time=0))
            pid += 1
    return pkts


# each standalone workload kind's counts, with the defaults its builder's
# signature gives
WORKLOAD_COUNTS = {
    kind: {k: p.default for k, p in inspect.signature(f).parameters.items() if k != "seed"}
    for kind, f in (("pathology", pathology_workload), ("random", random_workload),
                    ("backlogged-pair", backlogged_pair))
}


class Workload:
    """A standalone workload kind at its counts, which default and are checked
    as its builder's are (a ValueError names the first count at fault), and
    what a scheduler run of any seed's build takes from it."""

    def __init__(self, kind: str, **counts) -> None:
        self.kind = kind
        if counts.keys() - WORKLOAD_COUNTS[kind]:  # as its builder would refuse them
            raise TypeError(f"{kind} takes the counts {list(WORKLOAD_COUNTS[kind])}, got {counts}")
        counts = self.counts = dict(WORKLOAD_COUNTS[kind], **counts)
        for key, v in counts.items():
            if not (is_int(v) and v > 0):
                raise ValueError(f"{key} must be a positive integer, got {v!r}")
        for key, top in _COUNT_BOUNDS.items():
            if counts.get(key, 0) > top:
                raise ValueError(f"{key} must be <= {top}, got {counts[key]}")
        pathology = kind == "pathology"
        self.flows = range(counts.get("n_flows", 2))  # the pathology's are 0 and 1 too
        self.packets = (sum(-(-counts["horizon"] // p) for p in PATHOLOGY_PERIODS.values())
                        if pathology else len(self.flows) * counts["packets_per_flow"])
        if self.packets > MAX_WORKLOAD_PACKETS:
            key = "horizon" if pathology else "packets_per_flow"
            raise ValueError(f"{key}: the workload must build at most {MAX_WORKLOAD_PACKETS} "
                             f"packets, got {self.packets}")
        self.max_size = counts.get("max_size", max(PATHOLOGY_SIZES.values()))
        self.weights = dict(PATHOLOGY_WEIGHTS) if pathology else {f: 1.0 for f in self.flows}
        self.quantum = dict(PATHOLOGY_DRR_QUANTA) if pathology else DEFAULT_QUANTUM
        self.blocked = pathology_blocking() if pathology else None
        self.horizon = counts.get("horizon")

    def build(self, seed: int) -> list[Packet]:
        """`seed`'s build, by the kind's builder: a global name, read at each
        call, so a builder replaced on this module is the one called."""
        if self.kind == "pathology":
            return pathology_workload(**self.counts)
        return (random_workload if self.kind == "random" else backlogged_pair)(seed, **self.counts)


# saturated hotspot (each source offers a packet a cycle), at the mesh's defaults
HOTSPOT_DEFAULTS = {"horizon": 200_000, "warmup": 20_000}
