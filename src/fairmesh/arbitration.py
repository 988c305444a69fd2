"""Output-port arbitration for mesh routers.

Three families: cyclic round-robin over input ports, oldest-packet-first, and
probabilistic arbitration where each request is granted with probability
proportional to a weight.  Weights grow exponentially with distance so that
packets which have already crossed many merge points are not starved by
locally fair coin flips: a request of weight w_i wins with probability
w_i / sum(w).  A weight is a base raised to the full route length or to the
hops already traversed, or, in the contention-tracking variant, the packet's
accumulated product of observed contention degrees.  Each arbiter's `choose`
takes only the value it reads per request and returns the granted index.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .core import is_finite, is_int
from .rng import MASK64, XorShift64Star, _STAR_MULTIPLIER

if TYPE_CHECKING:
    import numpy as np


class WeightPolicy(str, Enum):
    """How the probabilistic arbiter weights a request.

    FW: static base raised to the packet's full source-to-destination hop
        count; fixed for the packet's lifetime.
    CW: static base raised to the hops traversed so far; grows as the packet
        advances.
    VW: the contention actually experienced: the packet's running product of
        the contention degrees it met at the arbitrations it has won.
    """

    FW = "fw"
    CW = "cw"
    VW = "vw"


class ArbiterKind(str, Enum):
    ROUND_ROBIN = "round_robin"
    AGE = "age"
    PROBABILISTIC = "probabilistic"


# read on every grant, so bound once: reading a member off its Enum class
# costs about ten times as much (CPython 3.11)
_FW, _CW = WeightPolicy.FW, WeightPolicy.CW
_INF = float("inf")
# a sample gets the step budget of a mesh run, meshsim.MAX_ROUTER_CYCLES:
# at about 10^6 trials a second, no mistyped trial count runs past minutes
MAX_GRANT_TRIALS = 10**8


def grant_probabilistic(weights: Sequence[float], rng: XorShift64Star) -> int:
    """Roulette-wheel grant: index i wins with probability w_i / sum(w)."""
    if not weights:
        raise ValueError("arbitration needs at least one request")
    total = 0.0
    for w in weights:
        if not 0.0 < w < _INF:
            raise ValueError(f"arbitration weight {w!r} is not a finite number above 0")
        total += w
    if total == _INF:  # else every draw lands past the last bucket
        raise ValueError("arbitration weights must have a finite sum")
    r = (rng.next_u64() >> 11) * 2.0 ** -53 * total  # rng.random() * total, one call fewer
    for i, w in enumerate(weights):
        r -= w
        if r < 0:
            return i
    return len(weights) - 1  # guard against accumulated rounding


class RoundRobinArbiter:
    kind = ArbiterKind.ROUND_ROBIN

    def __init__(self, num_ports: int):
        self.num_ports = num_ports
        self.pointer = 0

    def choose(self, ports: Sequence[int]) -> int:
        """Grant among requests given by their distinct input ports: the
        first at or after the pointer, cyclically, which then moves past it."""
        if not ports:
            raise ValueError("arbitration needs at least one request")
        n = self.num_ports
        for off in range(n):
            port = (self.pointer + off) % n
            if port in ports:
                self.pointer = (port + 1) % n
                return ports.index(port)
        raise ValueError("request input ports out of range for this arbiter")


class AgeArbiter:
    kind = ArbiterKind.AGE

    def choose(self, keys: Sequence[tuple[int, int]]) -> int:
        """Grant the smallest (inject cycle, input port): the oldest packet,
        ties to the lowest input port."""
        return keys.index(min(keys))


class ProbabilisticArbiter:
    """Weighted-random arbiter over requests given as routes
    (hops_total, hops_traversed, contention_product)."""

    kind = ArbiterKind.PROBABILISTIC

    def __init__(
        self,
        policy: WeightPolicy = WeightPolicy.VW,
        base: float = 2.0,
        seed: int = 0,
        stream_id: int = 0,
    ):
        self.policy = WeightPolicy(policy)
        self.base = base
        self.rng = XorShift64Star(seed, stream_id)

    def weights(self, routes: Sequence[tuple[int, int, float]]) -> list[float]:
        """Weight of each route under the policy; zero hops always weighs 1."""
        if self.policy is _FW:
            return [float(self.base) ** total for total, _, _ in routes]
        if self.policy is _CW:
            return [float(self.base) ** traversed for _, traversed, _ in routes]
        return [float(product) for _, _, product in routes]

    def choose(self, routes: Sequence[tuple[int, int, float]]) -> int:
        return grant_probabilistic(self.weights(routes), self.rng)


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
    import numpy as np

    ws = np.asarray(weights, dtype=np.float64)
    if ws.ndim != 1 or len(ws) == 0:
        raise ValueError("need a flat, nonempty weight vector")
    for w in weights:
        if not (is_finite(w) and w > 0):
            raise ValueError(f"weights must be finite numbers above 0, got {w!r}")
    if not sum(map(float, weights)) < _INF:  # else draws land past the last bucket
        raise ValueError("weights must have a finite sum")
    if not (is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if trials > MAX_GRANT_TRIALS:
        raise ValueError(f"trials must be <= {MAX_GRANT_TRIALS}, got {trials}")
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
