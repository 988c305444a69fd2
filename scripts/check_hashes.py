#!/usr/bin/env python3
"""Check each workload's report.json against its recorded hash, writing nothing.

    python scripts/check_hashes.py --seeds 1-20

Runs every perfbench workload once per seed through perfbench's own `Runner`,
the CLI call the benchmark times, and compares the sha256 of its report.json
with the one in perfbench/expectations.json (which
perfbench/record_hashes.py writes).  Exits 1, naming the workload and seed,
if any report differs or any call fails; a behaviour-preserving change must
pass it unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-20", help="inclusive range, as first-last, or one seed")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    wls = workloads.build()
    table = json.loads((bench.HERE / "expectations.json").read_text())["report_sha256"]
    sys.path.insert(0, str(bench.SRC))  # the hotspot-rr check reads presets
    bad = []
    with bench.scratch_dir() as work:
        for seed in seeds:
            (work / str(seed)).mkdir()
            runner = bench.Runner(wls, seed, work / str(seed), time.monotonic() + 600)
            for name in wls:
                call = runner.spawn(name, "plain")
                want = table.get(name, {}).get(str(seed))
                if call.errors:
                    bad.append(f"{name} seed {seed}: call failed: {'; '.join(call.errors)}")
                elif call.sha != want:
                    bad.append(f"{name} seed {seed}: report.json sha256 {call.sha}, "
                               f"recorded {want}")
    for line in bad:
        print(line, file=sys.stderr)
    total = len(seeds) * len(wls)
    print(f"{total - len(bad)} of {total} reports match their recorded hashes")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
