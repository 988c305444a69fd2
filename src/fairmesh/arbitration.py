"""Output-port arbitration for mesh routers.

Three families: cyclic round-robin over input ports, oldest-packet-first, and
probabilistic arbitration where each request is granted with probability
proportional to a weight.  Weights grow exponentially with distance so that
packets which have already crossed many merge points are not starved by
locally fair coin flips: a request of weight w_i wins with probability
w_i / sum(w).  The exponent is either the full route length, the hops already
traversed, or, in the contention-tracking variant, the packet's accumulated
product of observed contention degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .rng import MASK64, XorShift64Star, _STAR_MULTIPLIER


class WeightPolicy(str, Enum):
    """How the probabilistic arbiter weights a request.

    FW: static base raised to the packet's full source-to-destination hop
        count; fixed for the packet's lifetime.
    CW: static base raised to the hops traversed so far; grows as the packet
        advances.
    VW: the contention actually experienced.  When the request carries an
        accumulated contention product the weight is that product; otherwise
        the current contention degree raised to the hops traversed stands in.
    """

    FW = "fw"
    CW = "cw"
    VW = "vw"


class ArbiterKind(str, Enum):
    ROUND_ROBIN = "round_robin"
    AGE = "age"
    PROBABILISTIC = "probabilistic"


@dataclass(frozen=True)
class ArbRequest:
    """Head-flit metadata competing for one output port."""

    input_port: int
    hops_total: int
    hops_traversed: int
    age: int  # inject cycle
    flow: int
    # running product of contention degrees seen at arbitrations already won;
    # None means the carrier does not track it
    contention_product: float | None = None

    def __post_init__(self) -> None:
        if self.hops_total < 0 or self.hops_traversed < 0:
            raise ValueError("hop counts must be nonnegative")
        if self.hops_traversed > self.hops_total:
            raise ValueError(
                f"hops_traversed {self.hops_traversed} exceeds hops_total {self.hops_total}"
            )
        if self.contention_product is not None and self.contention_product <= 0:
            raise ValueError("contention product must be positive")


def weight_for(
    req: ArbRequest,
    policy: WeightPolicy,
    live_contention: int,
    base: float = 2.0,
) -> float:
    """Arbitration weight of one request; zero hops always weighs 1."""
    if live_contention < 1:
        raise ValueError("live contention counts the requesters, so it is >= 1")
    if base < 1:
        raise ValueError("weight base must be >= 1")
    if policy is WeightPolicy.FW:
        return float(base) ** req.hops_total
    if policy is WeightPolicy.CW:
        return float(base) ** req.hops_traversed
    if req.contention_product is not None:
        return float(req.contention_product)
    return float(live_contention) ** req.hops_traversed


def grant_probabilistic(weights: Sequence[float], rng: XorShift64Star) -> int:
    """Roulette-wheel grant: index i wins with probability w_i / sum(w)."""
    if not weights:
        raise ValueError("arbitration needs at least one request")
    total = 0.0
    for w in weights:
        if w <= 0:
            raise ValueError(f"nonpositive arbitration weight {w}")
        total += w
    r = rng.random() * total
    for i, w in enumerate(weights):
        r -= w
        if r < 0:
            return i
    return len(weights) - 1  # guard against accumulated rounding


def grant_age_based(reqs: Sequence[ArbRequest]) -> int:
    """Oldest inject cycle wins; ties go to the lowest input port."""
    if not reqs:
        raise ValueError("arbitration needs at least one request")
    best = 0
    for i in range(1, len(reqs)):
        r, b = reqs[i], reqs[best]
        if (r.age, r.input_port) < (b.age, b.input_port):
            best = i
    return best


def grant_round_robin(
    reqs: Sequence[ArbRequest], pointer: int, num_ports: int
) -> tuple[int, int]:
    """First requesting port at or after the pointer, cyclically.

    Returns (granted request index, advanced pointer).
    """
    return grant_round_robin_ports([r.input_port for r in reqs], pointer, num_ports)


def grant_round_robin_ports(
    ports: Sequence[int], pointer: int, num_ports: int
) -> tuple[int, int]:
    """`grant_round_robin` from the requesting input ports alone."""
    if not ports:
        raise ValueError("arbitration needs at least one request")
    by_port = {p: i for i, p in enumerate(ports)}
    for off in range(num_ports):
        port = (pointer + off) % num_ports
        if port in by_port:
            return by_port[port], (port + 1) % num_ports
    raise ValueError("request input ports out of range for this arbiter")


class RoundRobinArbiter:
    kind = ArbiterKind.ROUND_ROBIN

    def __init__(self, num_ports: int):
        self.num_ports = num_ports
        self.pointer = 0

    def choose(self, reqs: Sequence[ArbRequest]) -> int:
        return self.choose_ports([r.input_port for r in reqs])

    def choose_ports(self, ports: Sequence[int]) -> int:
        """Grant among requests given by their input ports, all this reads."""
        idx, self.pointer = grant_round_robin_ports(ports, self.pointer, self.num_ports)
        return idx


class AgeArbiter:
    kind = ArbiterKind.AGE

    def __init__(self, num_ports: int):
        self.num_ports = num_ports

    def choose(self, reqs: Sequence[ArbRequest]) -> int:
        return grant_age_based(reqs)


class ProbabilisticArbiter:
    """Weighted-random arbiter; the contention degree fed to the weight rule
    is the number of requests in the current cycle."""

    kind = ArbiterKind.PROBABILISTIC

    def __init__(
        self,
        num_ports: int,
        policy: WeightPolicy = WeightPolicy.VW,
        base: float = 2.0,
        seed: int = 0,
        stream_id: int = 0,
    ):
        self.num_ports = num_ports
        self.policy = WeightPolicy(policy)
        self.base = base
        self.rng = XorShift64Star(seed, stream_id)

    def choose(self, reqs: Sequence[ArbRequest]) -> int:
        live = len(reqs)
        weights = [weight_for(r, self.policy, live, self.base) for r in reqs]
        return grant_probabilistic(weights, self.rng)


Arbiter = RoundRobinArbiter | AgeArbiter | ProbabilisticArbiter


def make_arbiter(
    kind: ArbiterKind | str,
    num_ports: int,
    policy: WeightPolicy | str = WeightPolicy.VW,
    base: float = 2.0,
    seed: int = 0,
    stream_id: int = 0,
) -> Arbiter:
    k = ArbiterKind(kind)
    if k is ArbiterKind.ROUND_ROBIN:
        return RoundRobinArbiter(num_ports)
    if k is ArbiterKind.AGE:
        return AgeArbiter(num_ports)
    return ProbabilisticArbiter(num_ports, WeightPolicy(policy), base, seed, stream_id)


def empirical_grant_frequencies(
    weights: Sequence[float],
    trials: int,
    seed: int,
    stream_id: int = 0,
) -> np.ndarray:
    """Grant frequency per request over many draws of a fixed weight vector.

    Consumes the same xorshift stream an arbiter with this seed would, one
    draw per trial, but batches the float conversion and bucket search so a
    million trials stay well under a second.
    """
    ws = np.asarray(weights, dtype=np.float64)
    if ws.ndim != 1 or len(ws) == 0:
        raise ValueError("need a flat, nonempty weight vector")
    if (ws <= 0).any():
        raise ValueError("weights must be positive")
    cum = np.cumsum(ws)
    total = float(cum[-1])
    counts = np.zeros(len(ws), dtype=np.int64)
    x = XorShift64Star(seed, stream_id).state
    mult = _STAR_MULTIPLIER
    chunk = 1 << 15
    buf = [0] * chunk
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        for i in range(n):
            x ^= x >> 12
            x = (x ^ (x << 25)) & MASK64
            x ^= x >> 27
            buf[i] = (x * mult) & MASK64
        u = np.array(buf[:n], dtype=np.uint64)
        r = (u >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) * total
        counts += np.bincount(
            np.searchsorted(cum, r, side="right"), minlength=len(ws)
        )
        done += n
    return counts / float(trials)
