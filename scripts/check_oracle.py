#!/usr/bin/env python3
"""Check the mesh simulator against its plain reference stepper, writing nothing.

    PYTHONPATH=src python scripts/check_oracle.py

Each of SETS is `tests/oracles.wide_configs(seed=SEED, horizon_scale=N)`,
100 seeded random mesh configs with each horizon multiplied by N, so that
more of the runs that draw no random number repeat and `MeshSim.run` skips
periods.  For every config, `reference_mesh`, which processes every router
every cycle, must write what MeshSim writes: the report, each traced link's
records and packet events, and the per-flit ejections, with MeshSim stepped
one cycle at a time (its ejections read by `stepped_ejections`), and all
but the ejections through `MeshSim.run()`.  Exits 1, naming the set and the
config, if any differ; prints how many runs the fast-forward skipped in.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import reference_mesh, run_outputs, stepped_outputs, wide_configs  # noqa: E402

from fairmesh import periodic  # noqa: E402
from fairmesh.meshsim import MeshConfig, run_mesh  # noqa: E402

# (seed, horizon multiple): the tier-1 set, then the sets of the re-anchor
# that first ran a reference stepper, the last also at six times its horizons
SETS = [(2024, 1), (1, 1), (7, 1), (99, 1), (4242, 1), (4242, 6)]


def main() -> int:
    skips = []
    skip = periodic.skip

    def spy(sim, mark, period):
        skips.append(period)
        skip(sim, mark, period)

    periodic.skip = spy
    bad, total, skipped = [], 0, 0
    start = time.perf_counter()
    for seed, scale in SETS:
        for n, kw in enumerate(wide_configs(seed=seed, horizon_scale=scale)):
            cfg = MeshConfig(**kw)
            want = run_outputs(*reference_mesh(cfg))
            stepped = stepped_outputs(cfg)
            skips.clear()
            fast = run_outputs(run_mesh(cfg))
            skipped += bool(skips)
            total += 1
            if stepped != want or fast != want[:-1]:
                how = "stepped" if stepped != want else "through run()"
                bad.append(f"seed {seed} x{scale} config {n}: MeshSim {how} differs from the reference: {kw}")
    for line in bad:
        print(line, file=sys.stderr)
    print(f"{total - len(bad)} of {total} configs match the reference "
          f"stepped and through run() ({skipped} runs skipped periods), "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
