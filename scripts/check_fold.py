#!/usr/bin/env python3
"""Check the online fold of the two fairness bounds against the eager pass,
writing nothing.

    PYTHONPATH=src python scripts/check_fold.py

Each trace is built from SEED.  For a scheduler trace, one run is folded
as it goes (`tests/oracles.folded_run`) and the same run keeps its trace:
the fold's bounds and witnesses, and `rfb_estimate`'s of the kept trace,
must equal `tests/oracles.eager_bounds` of the kept trace, and the folded
run must keep no record or event and tally each flow's units and latency
as the kept trace gives them.  A mesh sink trace, which delivers packets
before warmup that no record covers, is checked through `rfb_estimate`.
The traces are (COUNTS):

* `pathology`: the five disciplines on the credit-withheld pathology at
  horizons of 200-30 000 cycles, under the pathology's weights or random
  ones;
* `random`: 2-16 flows of random workloads, some cut by a horizon, some
  with one flow periodically blocked, under float, int or Fraction weights
  for all flows or a subset;
* `backlogged`: backlogged pairs, some blocked;
* `mesh`: sink traces of small mesh runs.

Exits 1, naming each trace that differs.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import eager_bounds, folded_run  # noqa: E402

from fairmesh import presets  # noqa: E402
from fairmesh.core import latency_stats, throughput_by_flow  # noqa: E402
from fairmesh.fairness import rfb_estimate  # noqa: E402
from fairmesh.meshsim import MeshConfig, run_mesh  # noqa: E402
from fairmesh.schedulers import PeriodicBlocking  # noqa: E402

SEED = 29
COUNTS = {"pathology": 200, "random": 500, "backlogged": 200, "mesh": 100}
KINDS = ("rr", "drr", "err", "ebrr", "carr")


def _weights(rng: random.Random, flows: list[int]) -> dict:
    """Random float, int or Fraction weights, for all of `flows` or a subset."""
    shape = rng.choice(["float", "int", "fraction", "subset"])
    if shape == "subset":
        flows = sorted(rng.sample(flows, rng.randint(1, len(flows))))
    return {f: (rng.randint(1, 5) if shape == "int"
                else Fraction(rng.randint(1, 9), rng.randint(1, 9)) if shape == "fraction"
                else round(rng.uniform(0.2, 4.0), 3)) for f in flows}


def _settings(rng: random.Random, kind: str, flows: list[int]) -> dict:
    """A discipline's quantum, one for all flows or one each, and sometimes
    a periodically blocked flow."""
    kw: dict = {}
    if kind in ("drr", "ebrr"):
        kw["quantum"] = (rng.randint(1, 24) if rng.random() < 0.5
                         else {f: rng.randint(1, 24) for f in flows})
    if rng.random() < 0.4:
        period = rng.randint(2, 12)
        kw["blocked"] = PeriodicBlocking(rng.choice(flows), period, rng.randrange(period))
    return kw


def _cases(rng: random.Random):
    """(name, kind, packets, weights, horizon, settings) per scheduler trace."""
    for n in range(COUNTS["pathology"]):
        kind, horizon = KINDS[n % 5], rng.randint(200, 30_000)
        kw = {"blocked": presets.pathology_blocking()}
        if kind in ("drr", "ebrr"):
            kw["quantum"] = dict(presets.PATHOLOGY_DRR_QUANTA)
        weights = dict(presets.PATHOLOGY_WEIGHTS) if n % 2 else _weights(rng, [0, 1])
        yield (f"pathology {n}", kind, presets.pathology_workload(horizon), weights, horizon, kw)
    for n in range(COUNTS["random"]):
        kind, n_flows = rng.choice(KINDS), rng.randint(2, 16)
        packets = presets.random_workload(rng.randrange(10**6), n_flows=n_flows,
                                          packets_per_flow=rng.randint(3, 40),
                                          max_size=rng.randint(1, 16),
                                          spread=rng.choice([30, 300, 3000]))
        horizon = rng.choice([None, rng.randint(50, 3000)])
        flows = list(range(n_flows))
        yield (f"random {n}", kind, packets, _weights(rng, flows), horizon,
               _settings(rng, kind, flows))
    for n in range(COUNTS["backlogged"]):
        kind = rng.choice(KINDS)
        packets = presets.backlogged_pair(rng.randrange(10**6),
                                          packets_per_flow=rng.randint(5, 60),
                                          max_size=rng.randint(1, 16))
        yield (f"backlogged {n}", kind, packets, _weights(rng, [0, 1]), None,
               _settings(rng, kind, [0, 1]))


def main() -> int:
    rng = random.Random(SEED)
    bad, total = [], 0
    start = time.perf_counter()
    for name, kind, packets, weights, horizon, kw in _cases(rng):
        bounds, sched, trace = folded_run(kind, packets, weights, horizon, **kw)
        want = eager_bounds(trace, weights)
        rep = rfb_estimate(trace, weights)
        total += 1
        if bounds != want:
            bad.append(f"{name} ({kind}, {kw}): folded run {bounds}, eager {want}")
        elif ([rep.rfb_estimate, rep.cfb_estimate], rep._witness) != want:
            bad.append(f"{name} ({kind}, {kw}): rfb_estimate differs from eager {want}")
        elif sched.trace.records is not None or sched.trace.events:
            bad.append(f"{name} ({kind}): the folded run kept its trace")
        elif sched.tallies() != (throughput_by_flow(trace), latency_stats(trace.events)):
            bad.append(f"{name} ({kind}): the folded run's tallies differ from its trace's")
    for n in range(COUNTS["mesh"]):
        k = rng.randint(2, 8)
        horizon = rng.randint(300, 2000)
        cfg = MeshConfig(k=k, rate=rng.choice([1.0, 0.5, 0.2, 0.05]),
                         pattern=rng.choice(["hotspot", "uniform"]), horizon=horizon,
                         warmup=rng.randrange(horizon // 2), seed=rng.randrange(1000))
        trace = run_mesh(cfg).sink_trace()
        weights = _weights(rng, sorted({ev.flow for ev in trace.events}) or [0])
        rep = rfb_estimate(trace, weights)
        total += 1
        if ([rep.rfb_estimate, rep.cfb_estimate], rep._witness) != eager_bounds(trace, weights):
            bad.append(f"mesh {n}: rfb_estimate differs from eager on {cfg}")
    for line in bad:
        print(line, file=sys.stderr)
    print(f"{total - len(bad)} of {total} traces: the fold equals the eager pass, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
