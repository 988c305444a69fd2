"""Closed-form analysis of weighted merge chains.

A line of routers merges one new local flow per hop: router j receives the
stream accepted by router j-1 plus flow j's own packets, and admits them in
proportion to per-(flow, router) weights.  acceptance_ratios computes the
resulting per-source acceptance proportions exactly (the tests hold it to
a coin-flipping simulation of the same chain).
The S-ratio utilities answer the converse question: given measured
occupation-to-sending ratios, what weights would equalize channel occupation,
and is any weight assignment consistent across routers at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import is_finite

SMatrix = Mapping[int, Mapping[int, float | None]]


class WeightTable:
    """Positive weight W(i, j) of flow i at router j, defined for i <= j."""

    def __init__(self, entries: Mapping[tuple[int, int], Fraction | int | str]):
        self._w: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in entries.items():
            w = Fraction(v)
            if w <= 0:
                raise ValueError(f"weight W({i},{j}) must be positive, got {v}")
            self._w[(i, j)] = w

    @classmethod
    def uniform(cls, j_max: int, value: int = 1) -> "WeightTable":
        return cls({(i, j): value for j in range(1, j_max + 1) for i in range(j + 1)})

    def weight(self, i: int, j: int) -> Fraction:
        try:
            return self._w[(i, j)]
        except KeyError:
            raise ValueError(f"weight W({i},{j}) is not defined") from None


@dataclass
class AcceptanceRatios:
    """Per-router acceptance proportion vectors, exact rationals."""

    per_router: dict[int, list[Fraction]]

    def normalized(self, j: int) -> list[Fraction]:
        r = self.per_router[j]
        total = sum(r)
        return [x / total for x in r]


def acceptance_ratios(w: WeightTable, j_max: int) -> AcceptanceRatios:
    """Expected acceptance proportions R_j(0):...:R_j(j) for routers 1..j_max.

    R_1 is W(0,1):W(1,1).  Each later router keeps the upstream proportions
    and appends the local flow's term: while flow i < j sends R_{j-1}(i)
    packets weighted W(i,j), flow j gets through W(j,j)/W(i,j) times as many
    of each, so its component is the sum of those exchange rates.
    """
    if j_max < 1:
        raise ValueError("need at least one merging router")
    out: dict[int, list[Fraction]] = {}
    r_prev = [w.weight(0, 1), w.weight(1, 1)]
    out[1] = r_prev
    for j in range(2, j_max + 1):
        wjj = w.weight(j, j)
        local = sum(
            (wjj / w.weight(i, j)) * r_prev[i] for i in range(j)
        )
        r_prev = r_prev + [local]
        out[j] = r_prev
    return AcceptanceRatios(out)


def _checked(flow: int, router: int, v) -> float:
    """A defined entry, which is (sending + blocking) / sending: a finite
    number >= 1, so every ratio of two entries is finite as well."""
    if not (is_finite(v) and v >= 1):
        raise ValueError(f"S({flow},{router}) must be a finite number >= 1, got {v!r}")
    return v


def _entry(s: SMatrix, flow: int, router: int) -> float:
    v = s.get(flow, {}).get(router)
    if v is None:
        raise ValueError(f"S({flow},{router}) is undefined")
    return _checked(flow, router, v)


@dataclass
class RequiredWeights:
    """First-hop weight ratio W(0,1)/W(1,1) that would equalize channel
    occupation, derived two independent ways."""

    from_first_router: float  # S(1,1) / S(0,1)
    from_second_router: float  # S(1,2) / S(0,2)

    def consistent(self, tol: float = 0.0) -> bool:
        return abs(self.from_first_router - self.from_second_router) <= tol


def required_weights(s: SMatrix) -> RequiredWeights:
    """Weight ratios implied by measured occupation ratios.

    Valid only under the equal-service premise; when the two candidates
    disagree, no single ratio satisfies both routers and the weighting scheme
    cannot equalize occupation.
    """
    return RequiredWeights(
        from_first_router=_entry(s, 1, 1) / _entry(s, 0, 1),
        from_second_router=_entry(s, 1, 2) / _entry(s, 0, 2),
    )


@dataclass
class FeasibilityVerdict:
    feasible: bool
    max_deviation: float
    witness: tuple[int, int, int, int] | None  # (flow m, flow n, router k, router t)
    vacuous: bool
    pairs_checked: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "max_deviation": self.max_deviation,
            "witness": list(self.witness) if self.witness else None,
            "vacuous": self.vacuous,
            "pairs_checked": self.pairs_checked,
            "tolerance": self.tolerance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def check_ratio_constraint(s: SMatrix, eps: float = 0.05) -> FeasibilityVerdict:
    """Can any per-router weights equalize occupation across flows?

    A consistent weighting requires the occupation ratio between two flows to
    be the same at every router both traverse:
    S(m,k)/S(n,k) == S(m,t)/S(n,t).  The verdict reports the largest
    violation over all defined flow pairs and router pairs; fewer than two
    comparable pairs is vacuously feasible.  A defined entry that is not a
    finite number >= 1 raises ValueError.
    """
    for f, row in s.items():
        for r, v in row.items():
            if v is not None:
                _checked(f, r, v)
    flows = sorted(s)
    best = 0.0
    witness: tuple[int, int, int, int] | None = None
    checked = 0
    for a in range(len(flows)):
        for b in range(len(flows)):
            if a == b:
                continue
            m, n = flows[a], flows[b]
            routers = sorted(set(s[m]) & set(s[n]))
            defined = [
                r for r in routers
                if s[m].get(r) is not None and s[n].get(r) is not None
            ]
            for x in range(len(defined)):
                for y in range(x + 1, len(defined)):
                    k, t = defined[x], defined[y]
                    d = abs(s[m][k] / s[n][k] - s[m][t] / s[n][t])
                    checked += 1
                    if d > best:
                        best = d
                        witness = (m, n, k, t)
    vacuous = checked == 0
    return FeasibilityVerdict(
        feasible=vacuous or best <= eps,
        max_deviation=best,
        witness=witness,
        vacuous=vacuous,
        pairs_checked=checked,
        tolerance=eps,
    )
