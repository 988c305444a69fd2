#!/usr/bin/env python3
"""Layer timings of fairmesh: mesh, streamed mesh runs, standalone
schedulers, fairness sweeps, a whole `compare` call and the random draws of
the sampling oracles.

Seven layers, each a set of rows timed in process for this repository's
`src/` and, with `--src DIR`, the `fairmesh` package of a parent checkout
side by side:

    python scripts/bench.py --src ../parent/src --out BENCH.json
    python scripts/bench.py --src ../parent/src --layer mesh --layer startup

`--layer NAME`, given once per layer, times only those layers; with none
given, every layer runs.

* `mesh`: `MeshSim(cfg).run()` on the saturated k=8 hotspot line (each port
  arbiter and each flow-queue discipline), on the k=16 line under round
  robin, whose period (~2^16 cycles) exceeds the horizon, so that `run`
  searches for a repeat it never finds, and on k=16 uniform traffic at rate
  0.03 under CARR, MESH_HORIZON cycles, seed 1; cycles/s.
* `memory`: `run_mesh(cfg, sink)` with the sink trace streamed to a
  temporary file, as the CLI runs it, on the k=8 round-robin line and on
  uniform-k16-carr, each at two horizons (MEMORY_HORIZONS), so the two
  `tracemalloc` peaks of a row pair show whether memory grows with the
  horizon; cycles/s.
* `schedulers`: `SchedulerBase.run` for each of the five disciplines on the
  credit-withheld pathology workload, built as `fairmesh compare` builds
  it, at horizon SCHED_HORIZON; scheduled cycles/s.
* `rfb_estimate`: the fairness sweep of the SINK_HORIZON-cycle k=8 hotspot
  sink trace (equal weights) and of each discipline's SCHED_HORIZON
  pathology trace, bounds and profile, up to the report's JSON; trace
  records/s.
* `compare`: the whole `fairmesh compare` call (`cli.main`) on perfbench's
  compare-pathology config, the five disciplines on the pathology workload
  at horizon SCHED_HORIZON, seed 1; its hash covers the `report.json` and
  `comparison.csv` it writes; scheduled cycles/s.
* `sampling`: BERNOULLI_DRAWS `XorShift64Star.bernoulli` draws at the
  uniform row's rate; the merge-chain oracle `simulate_acceptance_counts`
  (in `tests/oracles.py`) for MERGE_GRANTS grants at router MERGE_ROUTER
  on the first weight table acceptance criterion 4 draws; and
  `empirical_grant_frequencies` for GRANT_TRIALS trials on
  `presets.ARB_CONVERGENCE_WEIGHTS`; samples/s.
* `startup`: `import fairmesh.cli` in a fresh interpreter, the start-up
  cost of every CLI call; imports/s.  The row records whether the import
  loaded numpy, and its hash covers the sorted `fairmesh` modules loaded.

Every timed run is its own process, and the trees take turns run by run,
so slow drift of the host hits both alike.  Per row and tree it reports the
median of RUNS run times and all of them, the rate at the median, the
`tracemalloc` peak of one further run, and the sha256 of what the timed
call produced (equal hashes mean equal behaviour).  Needs nothing beyond
the standard library and what `fairmesh` itself imports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

HOTSPOT = {"k": 8, "rate": 1.0}
UNIFORM = {"k": 16, "pattern": "uniform", "rate": 0.03, "scheduler": "carr"}
MESH_HORIZON = 40_000
MEMORY_HORIZONS = {"hotspot-round_robin": (100_000, 1_000_000),
                   "uniform-k16-carr": (10_000, 40_000)}
SCHED_HORIZON = 96_000
SINK_HORIZON = 40_000
# k x MESH_HORIZON: the scalar oracle of the uniform-k16-carr row's arrival
# draws, which the mesh takes one lane-packed step per cycle
BERNOULLI_DRAWS = 640_000
MERGE_GRANTS = 100_000
MERGE_ROUTER = 3
GRANT_TRIALS = 1_000_000
RUNS = 5  # timed runs per row and tree
CHANGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TESTS = os.path.join(os.path.dirname(CHANGE), "tests")  # the merge-chain oracle's home
KINDS = ("rr", "drr", "err", "ebrr", "carr")
MESH_CONFIGS = {
    **{f"hotspot-{a}": dict(HOTSPOT, arbiter=a)
       for a in ("round_robin", "age", "probabilistic")},
    "hotspot-k16-round_robin": dict(HOTSPOT, k=16, arbiter="round_robin"),
    **{f"hotspot-fq-{s}": dict(HOTSPOT, scheduler=s) for s in KINDS},
    "uniform-k16-carr": UNIFORM,
}
LAYERS = {
    "mesh": {"rows": list(MESH_CONFIGS), "unit": "cycles"},
    "memory": {"rows": [f"{name}-{h}" for name, hs in MEMORY_HORIZONS.items() for h in hs],
               "unit": "cycles"},
    "schedulers": {"rows": [f"pathology-{s}" for s in KINDS], "unit": "cycles"},
    "rfb_estimate": {"rows": ["hotspot-sink"] + [f"pathology-{s}" for s in KINDS],
                     "unit": "records"},
    "compare": {"rows": ["pathology"], "unit": "cycles"},
    "sampling": {"rows": ["bernoulli", "merge-chain", "grant-frequencies"],
                 "unit": "samples"},
    "startup": {"rows": ["import-cli"], "unit": "imports"},
}
# times the import alone: json and tracemalloc load after it or only when
# traced, so they cannot preload a module the import would pay for
STARTUP_PROBE = """
import sys, time
traced = sys.argv[1] == "1"
if traced:
    import tracemalloc
    tracemalloc.start()
t0 = time.perf_counter()
import fairmesh.cli
elapsed = time.perf_counter() - t0
peak = tracemalloc.get_traced_memory()[1] / 2**20 if traced else None
mods = sorted(m for m in sys.modules if m.split(".")[0] == "fairmesh")
import json
print(json.dumps({"seconds": elapsed, "peak_mb": peak, "modules": mods,
                  "numpy_loaded": "numpy" in sys.modules}))
"""


def _sha(*parts: str) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def _timed(fn, traced: bool):
    """Call fn(); returns (result, seconds, tracemalloc peak in MB or None)."""
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    peak = None
    if traced:
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return result, elapsed, peak


def _pathology_scheduler(kind: str):
    """A loaded scheduler for the pathology workload, as `compare` builds it
    with no params (CARR's tau and demote_rounds are the constructor's)."""
    from fairmesh import presets
    from fairmesh.schedulers import make_scheduler

    kw = {"blocked": presets.pathology_blocking()}
    if kind in ("drr", "ebrr"):
        kw["quantum"] = dict(presets.PATHOLOGY_DRR_QUANTA)
    sched = make_scheduler(kind, **kw)
    sched.load(presets.pathology_workload(SCHED_HORIZON))
    return sched


def _mesh_row(name: str, traced: bool) -> dict:
    from fairmesh.meshsim import MeshConfig, MeshSim

    cfg = MeshConfig(horizon=MESH_HORIZON, warmup=MESH_HORIZON // 10, seed=1,
                     **MESH_CONFIGS[name])
    rep, elapsed, peak = _timed(MeshSim(cfg).run, traced)
    blob = [rep.to_json()]
    for link in sorted(rep.traces):
        buf = io.StringIO()
        rep.traces[link].to_csv(buf)
        blob.append(buf.getvalue())
    return {"seconds": elapsed, "peak_mb": peak, "work": MESH_HORIZON, "sha256": _sha(*blob)}


def _memory_row(name: str, traced: bool) -> dict:
    from fairmesh import meshsim

    config, _, horizon = name.rpartition("-")
    cfg = meshsim.MeshConfig(horizon=int(horizon), warmup=int(horizon) // 10, seed=1,
                             **MESH_CONFIGS[config])
    with tempfile.TemporaryFile("w+", newline="") as fh:
        rep, elapsed, peak = _timed(lambda: meshsim.run_mesh(cfg, lambda link: fh), traced)
        fh.seek(0)
        blob = [rep.to_json(), fh.read()]
    return {"seconds": elapsed, "peak_mb": peak, "work": int(horizon), "sha256": _sha(*blob)}


def _schedulers_row(name: str, traced: bool) -> dict:
    sched = _pathology_scheduler(name.removeprefix("pathology-"))
    trace, elapsed, peak = _timed(lambda: sched.run(horizon=SCHED_HORIZON), traced)
    buf = io.StringIO()
    trace.to_csv(buf)
    events = [[e.packet_id, e.flow, e.inject, e.deliver] for e in trace.events]
    state = json.dumps([events, sched.drops(), sched.now])
    return {"seconds": elapsed, "peak_mb": peak, "work": SCHED_HORIZON,
            "sha256": _sha(buf.getvalue(), state)}


def _rfb_estimate_row(name: str, traced: bool) -> dict:
    import numpy  # noqa: F401  fairmesh loads it at the first profile fold; time the sweep alone
    from fairmesh import presets
    from fairmesh.fairness import rfb_estimate
    from fairmesh.meshsim import MeshConfig, MeshSim

    if name == "hotspot-sink":
        cfg = MeshConfig(horizon=SINK_HORIZON, warmup=SINK_HORIZON // 10, seed=1, **HOTSPOT)
        trace = MeshSim(cfg).run().sink_trace()
        weights = {f: 1.0 for f in trace.flows()}
    else:
        trace = _pathology_scheduler(name.removeprefix("pathology-")).run(horizon=SCHED_HORIZON)
        weights = dict(presets.PATHOLOGY_WEIGHTS)
    # the report builds its profile on first read, so the timer covers the read
    blob, elapsed, peak = _timed(lambda: rfb_estimate(trace, weights).to_json(), traced)
    return {"seconds": elapsed, "peak_mb": peak, "work": len(trace.records),
            "sha256": _sha(blob)}


def _compare_row(name: str, traced: bool) -> dict:
    from fairmesh import cli

    cfg = {"schema_version": 1, "schedulers": list(KINDS), "seeds": [1],
           "workload": {"kind": name, "horizon": SCHED_HORIZON}}
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: out}), \
                contextlib.redirect_stdout(io.StringIO()):
            code, elapsed, peak = _timed(lambda: cli.main(["compare", path]), traced)
        if code != 0:
            raise SystemExit(f"compare/{name}: fairmesh compare exited {code}")
        blob = [Path(out, f).read_text() for f in ("report.json", "comparison.csv")]
    return {"seconds": elapsed, "peak_mb": peak, "work": SCHED_HORIZON * len(KINDS),
            "sha256": _sha(*blob)}


def _sampling_row(name: str, traced: bool) -> dict:
    import numpy  # noqa: F401  as in _rfb_estimate_row
    from fairmesh import presets
    from fairmesh.analysis import WeightTable
    from fairmesh.arbitration import empirical_grant_frequencies
    from fairmesh.rng import XorShift64Star

    if name == "bernoulli":
        rng, rate, n = XorShift64Star(1, stream_id=0), UNIFORM["rate"], BERNOULLI_DRAWS
        result, elapsed, peak = _timed(lambda: sum(rng.bernoulli(rate) for _ in range(n)),
                                       traced)
        result = [result, rng.state]
    elif name == "merge-chain":
        # acceptance criterion 4's first table: entries 1..4, routers 1..3
        rng, n = XorShift64Star(2024, stream_id=7), MERGE_GRANTS
        w = WeightTable({(i, j): 1 + rng.randrange(4)
                         for j in range(1, MERGE_ROUTER + 1) for i in range(j + 1)})
        sys.path.insert(0, TESTS)
        from oracles import simulate_acceptance_counts
        result, elapsed, peak = _timed(
            lambda: simulate_acceptance_counts(w, MERGE_ROUTER, n, seed=100), traced)
    else:
        n = GRANT_TRIALS
        freqs, elapsed, peak = _timed(lambda: empirical_grant_frequencies(
            presets.ARB_CONVERGENCE_WEIGHTS, n, seed=1), traced)
        result = [float(f) for f in freqs]
    return {"seconds": elapsed, "peak_mb": peak, "work": n, "sha256": _sha(json.dumps(result))}


def _startup_row(name: str, traced: bool) -> dict:
    # the fresh interpreter inherits PYTHONPATH, so it imports the same tree
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, "1" if traced else "0"],
                          capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout)
    return {"seconds": res["seconds"], "peak_mb": res["peak_mb"], "work": 1,
            "sha256": _sha(json.dumps(res["modules"])),
            "info": {"numpy_loaded": res["numpy_loaded"]}}


ROW_FNS = {"mesh": _mesh_row, "memory": _memory_row, "schedulers": _schedulers_row,
           "rfb_estimate": _rfb_estimate_row, "compare": _compare_row, "sampling": _sampling_row,
           "startup": _startup_row}


def spawn(src: str, layer: str, name: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", layer, name]
    cmd += ["--traced"] if traced else []
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def measure(trees: dict[str, str], layer: str) -> dict:
    unit = LAYERS[layer]["unit"]
    table = {}
    for name in LAYERS[layer]["rows"]:
        order = list(trees)
        times = {t: [] for t in order}
        shas = {t: set() for t in order}
        for n in range(RUNS):
            for tree in order if n % 2 == 0 else order[::-1]:
                res = spawn(trees[tree], layer, name, traced=False)
                times[tree].append(res["seconds"])
                shas[tree].add(res["sha256"])
        row = {}
        for tree in order:
            traced = spawn(trees[tree], layer, name, traced=True)
            shas[tree].add(traced["sha256"])
            if len(shas[tree]) != 1:
                raise SystemExit(f"{layer}/{name} on {tree}: hash differs between runs")
            med = statistics.median(times[tree])
            row[tree] = {
                "median_s": round(med, 4),
                "runs_s": [round(t, 4) for t in times[tree]],
                f"{unit}_per_s": round(traced["work"] / med),
                "peak_mb": round(traced["peak_mb"], 2),
                "sha256": shas[tree].pop(),
                **traced.get("info", {}),
            }
        if "parent" in row:
            new, old = row["change"], row["parent"]
            new["speedup_vs_parent"] = round(old["median_s"] / new["median_s"], 2)
            new["same_output"] = new["sha256"] == old["sha256"]
        table[name] = row
        print(layer, name, json.dumps(row), flush=True)
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
    ap.add_argument("--layer", action="append", choices=list(LAYERS),
                    help="time only this layer (repeatable; default: every layer)")
    ap.add_argument("--child", nargs=2, metavar=("LAYER", "ROW"), help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        layer, name = args.child
        print(json.dumps(ROW_FNS[layer](name, args.traced)))
        return
    trees = {"change": CHANGE}
    if args.src:
        if not os.path.isdir(os.path.join(args.src, "fairmesh")):
            ap.error(f"--src {args.src!r}: no fairmesh package there")
        trees = {"parent": os.path.abspath(args.src), **trees}
    doc = {
        "what": {
            "mesh": "in-process MeshSim(cfg).run() per config, seed 1, warmup horizon/10",
            "memory": "in-process run_mesh(cfg, sink) with the sink trace streamed to a "
                      "temporary file, seed 1, warmup horizon/10; a tree without a sink "
                      "writes its kept trace after the run",
            "schedulers": "in-process SchedulerBase.run on the pathology workload "
                          "as `compare` builds it",
            "rfb_estimate": "in-process rfb_estimate and its report JSON on the k=8 "
                            "hotspot sink trace (equal weights) and on each pathology trace",
            "compare": "in-process fairmesh compare (cli.main) of the five disciplines on "
                       "the pathology workload, seed 1; hash of report.json and "
                       "comparison.csv",
            "sampling": "in-process scalar bernoulli draws at the uniform rate (the "
                        "oracle of the mesh's lane-packed arrival draws), the "
                        "merge-chain oracle and empirical_grant_frequencies",
            "startup": "import fairmesh.cli in a fresh interpreter",
        },
        "horizon": {"mesh": MESH_HORIZON, "memory": MEMORY_HORIZONS,
                    "schedulers": SCHED_HORIZON,
                    "rfb_estimate": {"hotspot-sink": SINK_HORIZON, "pathology": SCHED_HORIZON},
                    "compare": SCHED_HORIZON},
        "samples": {"bernoulli": BERNOULLI_DRAWS, "merge-chain": MERGE_GRANTS,
                    "grant-frequencies": GRANT_TRIALS},
        "runs": RUNS,
        "machine": machine(),
        "layer": {layer: measure(trees, layer) for layer in dict.fromkeys(args.layer or LAYERS)},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
