#!/usr/bin/env python3
"""Mesh simulator cycles/s per arbiter and flow-queue discipline.

Times in-process `MeshSim(cfg).run()` calls on the saturated k=8 hotspot
line (each port arbiter and each flow-queue discipline) and on k=16 uniform
traffic at rate 0.03 under CARR, for this repository's `src/` and, with
`--src DIR`, the `fairmesh` package of a parent checkout side by side:

    python scripts/bench_mesh.py --src ../parent/src --out BENCH.json

Every timed run is its own process, and the trees take turns run by run,
so slow drift of the host hits both alike.  Per config and tree it reports
the median of RUNS run times and all of them, simulated cycles/s at the
median, the `tracemalloc` peak of one further run, and the sha256 of the
report JSON plus every trace CSV (equal hashes mean equal behaviour).  Needs
nothing beyond the standard library and what `fairmesh` itself imports.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

HOTSPOT = {"k": 8, "rate": 1.0}
UNIFORM = {"k": 16, "pattern": "uniform", "rate": 0.03, "scheduler": "carr"}
HORIZON = 40_000
RUNS = 5  # timed runs per config and tree
CHANGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CONFIGS = {
    **{f"hotspot-{a}": dict(HOTSPOT, arbiter=a)
       for a in ("round_robin", "age", "probabilistic")},
    **{f"hotspot-fq-{s}": dict(HOTSPOT, scheduler=s)
       for s in ("rr", "drr", "err", "ebrr", "carr")},
    "uniform-k16-carr": UNIFORM,
}


def one_run(name: str, traced: bool) -> dict:
    """Run one config in this process; `fairmesh` must be importable."""
    from fairmesh.meshsim import MeshConfig, MeshSim

    cfg = MeshConfig(horizon=HORIZON, warmup=HORIZON // 10, seed=1, **CONFIGS[name])
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    rep = MeshSim(cfg).run()
    elapsed = time.perf_counter() - t0
    out = {"seconds": elapsed}
    if traced:
        out["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    blob = [rep.to_json()]
    for link in sorted(rep.traces):
        buf = io.StringIO()
        rep.traces[link].to_csv(buf)
        blob.append(buf.getvalue())
    out["report_sha256"] = hashlib.sha256("".join(blob).encode()).hexdigest()
    return out


def spawn(src: str, name: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", name]
    cmd += ["--traced"] if traced else []
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def measure(trees: dict[str, str]) -> dict:
    table = {}
    for name in CONFIGS:
        order = list(trees)
        times = {t: [] for t in order}
        shas = {t: set() for t in order}
        for n in range(RUNS):
            for tree in order if n % 2 == 0 else order[::-1]:
                res = spawn(trees[tree], name, traced=False)
                times[tree].append(res["seconds"])
                shas[tree].add(res["report_sha256"])
        row = {}
        for tree in order:
            traced = spawn(trees[tree], name, traced=True)
            shas[tree].add(traced["report_sha256"])
            if len(shas[tree]) != 1:
                raise SystemExit(f"{name} on {tree}: report hash differs between runs")
            med = statistics.median(times[tree])
            row[tree] = {
                "median_s": round(med, 4),
                "runs_s": [round(t, 4) for t in times[tree]],
                "cycles_per_s": round(HORIZON / med),
                "peak_mb": round(traced["peak_mb"], 2),
                "report_sha256": shas[tree].pop(),
            }
        if "parent" in row:
            new, old = row["change"], row["parent"]
            new["speedup_vs_parent"] = round(old["median_s"] / new["median_s"], 2)
            new["same_report"] = new["report_sha256"] == old["report_sha256"]
        table[name] = row
        print(name, json.dumps(row), flush=True)
    return table


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", metavar="DIR",
                    help="source tree of a parent checkout (DIR/fairmesh) to time "
                         "against this repository's src/")
    ap.add_argument("--out", help="write the table as JSON here")
    ap.add_argument("--child", choices=sorted(CONFIGS), help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        print(json.dumps(one_run(args.child, args.traced)))
        return
    trees = {"change": CHANGE}
    if args.src:
        if not os.path.isdir(os.path.join(args.src, "fairmesh")):
            ap.error(f"--src {args.src!r}: no fairmesh package there")
        trees = {"parent": os.path.abspath(args.src), **trees}
    table = measure(trees)
    doc = {
        "what": "in-process MeshSim(cfg).run() per config, seed 1, warmup horizon/10",
        "horizon": HORIZON,
        "runs": RUNS,
        "machine": machine(),
        "layer": {"mesh": table},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
