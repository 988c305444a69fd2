#!/usr/bin/env python3
"""Record the sha256 of every workload's report.json for a range of seeds.

    python3 perfbench/record_hashes.py --seeds 1-20

The benchmark prints, for each run, whether report.json still matches the
recorded hash, so a speed-only change can show that behaviour is unchanged.
A change that alters behaviour on purpose records the hashes again.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import bench
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-20", help="inclusive range, as first-last")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    wls = workloads.build()
    path = bench.HERE / "expectations.json"
    expect = json.loads(path.read_text())
    table = expect["report_sha256"]
    sys.path.insert(0, str(bench.SRC))  # the hotspot-rr check reads presets
    with bench.scratch_dir() as work:
        for seed in range(first, last + 1):
            (work / str(seed)).mkdir()
            runner = bench.Runner(wls, seed, work / str(seed), time.monotonic() + 600)
            for name in wls:
                call = runner.spawn(name, "plain")
                if call.errors:
                    print(f"{name} seed {seed}: {call.errors}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = call.sha
                print(f"{name} seed {seed}: {call.sha}")
    path.write_text(json.dumps(expect, indent=2, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
