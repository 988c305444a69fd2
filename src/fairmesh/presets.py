"""Canned experiment scenarios.

Everything here is a pure function of its arguments, so rebuilding a
workload with the same seed yields byte-identical arrival streams.
"""

from __future__ import annotations

from .core import Packet
from .rng import XorShift64Star
from .schedulers import PeriodicBlocking

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


def pathology_blocking() -> PeriodicBlocking:
    return PeriodicBlocking(flow=0, period=PATHOLOGY_BLOCK_PERIOD,
                            blocked_slots=PATHOLOGY_BLOCK_SLOTS)


def pathology_workload(horizon: int = PATHOLOGY_HORIZON) -> list[Packet]:
    """Strictly periodic arrivals; flow 0 stays backlogged under every
    discipline, flow 1 saturates only when service falls behind."""
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
    rng = XorShift64Star(seed, stream_id=131)
    pkts: list[Packet] = []
    pid = 0
    for flow in (0, 1):
        for _ in range(packets_per_flow):
            pkts.append(Packet(id=pid, flow=flow, size=1 + rng.randrange(max_size),
                               inject_time=0))
            pid += 1
    return pkts


# saturated hotspot: every source offers a packet per cycle toward the far
# end of the line
HOTSPOT_DEFAULTS = {
    "k": 8, "packet_len": 4, "buffer_depth": 4, "pattern": "hotspot",
    "rate": 1.0, "arbiter": "round_robin", "policy": "vw",
    "horizon": 200_000, "warmup": 20_000,
}
