#!/usr/bin/env python3
"""fairmesh benchmark: whole CLI calls, timed one at a time from outside.

Run from the repository root:

    python3 perfbench/bench.py --workload hotspot-rr --seed 1 --seconds 24 --trace 0
    python3 perfbench/bench.py --workload all --seed 1 --seconds 90 --trace 1

The load is a closed loop with one client: every `fairmesh run` or
`fairmesh compare` call runs in its own single-threaded process, and the next
starts when it has exited.  `--workload all` interleaves the workloads.
`--trace 0` runs the reference work, a timed call and a set-up probe in each
round and reports the end-to-end metrics; `--trace 1` alternates an untraced
call with a traced call (timing wrappers from child.py) and reports the
per-layer split.
All timings are host time.  The simulated statistics are deterministic, so
they are checked, not timed.  The metric names and units come from
BENCHMARK.json; the last line of output is one JSON object.

On a shared host the speed of the whole machine drifts by up to 40% over
minutes and from one second to the next, which moves host times together.
`wall_rel` divides each call's time by that of fixed reference work run just
before it, and takes the median, so it keeps the program's share and drops
most of the host's.  The reference work is two processes (child.py
`ref-interp`, interpreter dict and integer work, and `ref-numpy`, numpy import
and dense numpy work): the simulator is interpreter-bound and the fairness
sweep memory-bound, the host slows the two kinds apart, and two processes
sample its speed twice.  `setup_s` does the same for the set-up probes and
scales the ratio back to seconds at the reference speed; `setup_host_s` is
the raw host time.
Nothing in the package can speed the reference work up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a run must end within this many seconds, whatever --seconds says
RUN_BUDGET_S = 170.0
# the reference work's median time on the 2-core host the benchmark was
# calibrated on; setup_s reports set-up time at that speed
REF_NOMINAL_S = 0.5


@dataclass
class Call:
    workload: str
    mode: str  # "warmup", "setup", "plain", "trace", "ref-interp" or "ref-numpy"
    wall_s: float
    rss_mb: float = float("nan")  # the child's own peak, plain calls only
    round: int = -1  # calls of one workload in one round run back to back
    errors: list[str] = field(default_factory=list)
    sha: str | None = None
    info: dict = field(default_factory=dict)
    stats: dict | None = None  # per-callable times of a traced call
    report: dict | None = None
    split: dict | None = None  # per-layer metrics of a traced call


class Runner:
    """Starts the child processes, times them and checks their outputs."""

    def __init__(self, wls: dict, seed: int, work: Path, deadline: float):
        self.wls = wls
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.n = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        # one thread per call: numpy's BLAS would otherwise start a thread per
        # core at import, and those compete with the call on a 2-core host
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.configs = {}
        for w in wls.values():
            cfg = work / f"{w.name}.json"
            cfg.write_text(json.dumps(w.config))
            self.configs[w.name] = cfg

    def spawn(self, name: str, mode: str) -> Call:
        w = self.wls[name]
        self.n += 1
        out = self.work / f"{self.n:05d}-{name}-{mode}"
        out.mkdir()
        argv = [sys.executable, str(HERE / "child.py"), mode]
        if mode == "trace":
            argv.append(str(out / "stats.json"))
        argv += ["--", w.verb, str(self.configs[name]), "--seed", str(self.seed)]
        env = dict(self.env, FAIRMESH_OUT=str(out))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out / "stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=out,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                wall = time.perf_counter() - t0
                proc.kill()
                proc.wait()
        call = Call(name, mode, wall)
        if proc.returncode != 0:
            tail = (out / "stderr.txt").read_text().strip().splitlines()[-1:]
            call.errors.append(f"exit code {proc.returncode} {' '.join(tail)}".strip())
            return call
        if mode == "setup" or mode.startswith("ref-"):
            return call
        self._read_outputs(w, out, call)
        return call

    def _read_outputs(self, w, out: Path, call: Call) -> None:
        try:
            raw = (out / "report.json").read_bytes()
            call.sha = hashlib.sha256(raw).hexdigest()
            call.report = json.loads(raw)
            errors, call.info = w.check(out, self.seed)
            call.errors += errors
            if call.mode == "plain":
                call.rss_mb = int((out / "peak_rss_kb.txt").read_text()) / 1024
            if call.mode == "trace":
                call.stats = json.loads((out / "stats.json").read_text())
        except (OSError, ValueError, KeyError, TypeError) as e:
            call.errors.append(f"unreadable output: {type(e).__name__}: {e}")


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .perfbench_work in the checkout, removed after use."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def measure(runner: Runner, names: list[str], seconds: float, trace: bool) -> list[Call]:
    """Interleave the workloads and the modes, alternating their order, until
    `seconds` pass."""
    calls = [runner.spawn(n, "setup") for n in names]  # warm-up: bytecode, page cache
    for c in calls:
        c.mode = "warmup"
    # the reference work runs right before each timed call, so the two share
    # the host's momentary speed; the set-up probe alternates sides
    orders = ([("plain", "trace"), ("trace", "plain")] if trace
              else [("setup", "ref-interp", "ref-numpy", "plain"),
                    ("ref-numpy", "ref-interp", "plain", "setup")])
    min_rounds = 2 if trace else 1  # two traced calls show the counts repeat
    t0 = time.monotonic()
    rounds = 0
    while True:
        r0 = time.monotonic()
        for n in names:
            for mode in orders[rounds % 2]:
                calls.append(runner.spawn(n, mode))
                calls[-1].round = rounds
        rounds += 1
        now = time.monotonic()
        if rounds >= min_rounds and (now - t0 >= seconds or now + (now - r0) > runner.deadline):
            return calls


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return "n/a"
    q = statistics.quantiles(xs, n=4)
    return f"{q[0]:.4f}..{q[2]:.4f}"


def _tail(xs: list[float]) -> str:
    """Highest percentile with at least ten runs beyond it."""
    n = len(xs)
    if n < 11:
        return f"no tail percentile: {n} runs, needs at least 11"
    v = sorted(xs)[n - 11]
    return f"p{100 * (n - 10) / n:.0f} = {v:.4f} s with 10 of {n} runs beyond it"


def end_to_end(w, calls: list[Call]) -> tuple[dict, list[str]]:
    plain = [c for c in calls if c.mode == "plain" and not c.errors]
    setup = [c for c in calls if c.mode == "setup" and not c.errors]
    halves: dict[int, list[float]] = {}
    for c in calls:
        if c.mode.startswith("ref-") and not c.errors:
            halves.setdefault(c.round, []).append(c.wall_s)
    refs = {r: sum(h) for r, h in halves.items() if len(h) == 2}
    walls = [c.wall_s for c in plain]
    m = {
        "wall_s": _median(walls),
        "ref_s": _median(list(refs.values())),
        # each call against the reference work run just before it
        "wall_rel": _median([c.wall_s / refs[c.round] for c in plain if c.round in refs]),
        # each probe against the reference work of its round, in seconds at
        # the reference speed
        "setup_s": REF_NOMINAL_S * _median(
            [c.wall_s / refs[c.round] for c in setup if c.round in refs]),
        "setup_host_s": _median([c.wall_s for c in setup]),
        "sim_cycles_per_s": _median([w.sim_cycles / c.wall_s for c in plain]),
        "peak_rss_mb": _median([c.rss_mb for c in plain]),
    }
    attempted = len(calls)
    failed = sum(1 for c in calls if c.errors)
    m["error_rate"] = failed / attempted
    notes = {
        "wall_s": f"median of {len(walls)} calls, quartiles {_quartiles(walls)}; {_tail(walls)}",
        "ref_s": f"median of {len(refs)} runs of the reference work",
        "wall_rel": "median over rounds of call time / reference-work time",
        "setup_s": f"median of {len(setup)} probes / reference-work time, "
                   f"times {REF_NOMINAL_S} s",
        "setup_host_s": f"median of {len(setup)} probes, quartiles "
                        f"{_quartiles([c.wall_s for c in setup])}",
        "sim_cycles_per_s": f"median over calls of {w.sim_cycles} simulated cycles / wall_s",
        "peak_rss_mb": f"median of {len(plain)} calls, max "
                       f"{max((c.rss_mb for c in plain), default=float('nan')):.1f}",
        "error_rate": f"{failed} failed of {attempted} attempted",
    }
    ref = [c.info["ref_share_err"] for c in plain if "ref_share_err" in c.info]
    if ref:
        m["ref_share_err"] = ref[0]
        notes["ref_share_err"] = "largest relative deviation from presets.GEOMETRIC_SHARES"
    return m, [notes.get(k, "") for k in m]


E2E_UNITS = {"wall_s": "s", "ref_s": "s", "wall_rel": "ratio", "setup_s": "s",
             "setup_host_s": "s", "sim_cycles_per_s": "cycles/s",
             "peak_rss_mb": "MB", "error_rate": "fraction", "ref_share_err": "fraction"}

# module -> (time metric, count metric, per-unit metric, unit scale)
LAYER_TIMES = {
    "meshsim": ("meshsim.self_s", "meshsim.cycles", "meshsim.us_per_cycle", 1e6),
    "arbitration": ("arbitration.choose_s", "arbitration.choose_calls",
                    "arbitration.us_per_choose", 1e6),
    "rng": ("rng.draw_s", "rng.draws", "rng.ns_per_draw", 1e9),
    "schedulers": ("schedulers.run_s", "schedulers.records",
                   "schedulers.us_per_record", 1e6),
    "fairness": ("fairness.rfb_estimate_s", "fairness.boundaries",
                 "fairness.us_per_boundary", 1e6),
    "analysis": ("analysis.feasibility_s", None, None, 0),
    "core": ("core.csv_s", "core.csv_rows", None, 0),
    "presets": ("presets.workload_s", None, None, 0),
    "cli": ("cli.self_s", None, None, 0),
}
# counts that must repeat exactly between traced calls of one code and seed
EXACT_COUNTS = [
    "meshsim.cycles", "meshsim.packets_delivered", "meshsim.grants",
    "meshsim.blocking_cycles", "meshsim.channel_busy_frac",
    "arbitration.choose_calls", "arbitration.contended_frac", "rng.draws",
    "schedulers.records", "fairness.boundaries", "fairness.grid_points",
    "core.csv_rows",
]


def _mesh_counts(report: dict) -> dict:
    mesh = [p["mesh"] for p in report["runs"].values() if "mesh" in p]
    sending = sum(v for m in mesh for v in m["sending"].values())
    blocking = sum(v for m in mesh for v in m["blocking"].values())
    return {
        "meshsim.cycles": sum(m["cycles"] for m in mesh),
        "meshsim.packets_delivered": sum(v for m in mesh for v in m["delivered"].values()),
        "meshsim.grants": sum(v for m in mesh for v in m["packets_through"].values()),
        "meshsim.blocking_cycles": blocking,
        "meshsim.channel_busy_frac": sending / (sending + blocking) if mesh else 0.0,
    }


def layer_split(call: Call) -> dict:
    """Per-layer self times, counts and shares of one traced call."""
    self_s = dict.fromkeys(LAYER_TIMES, 0.0)
    extra = {"calls": {}, "contended": 0, "records": 0, "rows": 0,
             "boundaries": 0, "grid_points": 0}
    for key, st in call.stats["callables"].items():
        layer = key.partition(":")[0]
        self_s[layer] += st["total_s"] - st["child_s"]
        extra["calls"][layer] = extra["calls"].get(layer, 0) + st["calls"]
        for k in ("contended", "records", "rows", "boundaries", "grid_points"):
            extra[k] += st.get(k, 0)
    choose = extra["calls"].get("arbitration", 0)
    m = _mesh_counts(call.report)
    m.update({
        "arbitration.choose_calls": choose,
        "arbitration.contended_frac": extra["contended"] / choose if choose else 0.0,
        "rng.draws": extra["calls"].get("rng", 0),
        "schedulers.records": extra["records"],
        "fairness.boundaries": extra["boundaries"],
        "fairness.grid_points": extra["grid_points"],
        "core.csv_rows": extra["rows"],
    })
    for layer, (tname, count, per, scale) in LAYER_TIMES.items():
        m[tname] = self_s[layer]
        m[tname.rsplit("_", 1)[0] + "_share"] = self_s[layer] / call.wall_s
        if per is not None:
            m[per] = self_s[layer] / m[count] * scale if m[count] else float("nan")
    m["trace.wall_s"] = call.wall_s
    m["trace.self_sum_frac"] = sum(self_s.values()) / call.wall_s
    m["trace.hook_s"] = call.stats["hook_s"]
    modules = [*LAYER_TIMES, "trace"]
    return dict(sorted(m.items(), key=lambda kv: modules.index(kv[0].partition(".")[0])))


def cross_check(calls: list[Call]) -> None:
    """Fail a call whose report.json or exact counts differ from those of the
    workload's first good call, or whose self times exceed its wall time."""
    good = [c for c in calls if c.sha and not c.errors]
    for c in good[1:]:
        if c.sha != good[0].sha:
            c.errors.append(f"report.json sha256 {c.sha} differs from the first call's")
    traced = [c for c in good if c.mode == "trace" and not c.errors]
    for c in traced:
        c.split = layer_split(c)
        if c.split["trace.self_sum_frac"] > 1.0:
            c.errors.append(f"self times sum to {c.split['trace.self_sum_frac']:.4f} "
                            "of the wall time")
        differ = [k for k in EXACT_COUNTS if c.split[k] != traced[0].split[k]]
        if differ:
            c.errors.append(f"counts differ from the first traced call: {', '.join(differ)}")


def per_layer(calls: list[Call]) -> dict:
    """Medians over the good traced calls, and the tracing overhead against
    the untraced call of the same round."""
    traced = [c for c in calls if c.mode == "trace" and not c.errors]
    if not traced:
        return {}
    splits = [c.split for c in traced]
    # counts repeat exactly (cross_check), so they are taken as they are
    m = {k: v if k in EXACT_COUNTS else _median([s[k] for s in splits])
         for k, v in splits[0].items()}
    plain = {c.round: c.wall_s for c in calls if c.mode == "plain" and not c.errors}
    m["trace.overhead_frac"] = _median(
        [c.wall_s / plain[c.round] for c in traced if c.round in plain]) - 1.0
    return m


def layer_unit(name: str) -> str:
    leaf = name.partition(".")[2]
    if leaf.endswith(("_share", "_frac")):
        return "fraction"
    if leaf.startswith("us_per_"):
        return "us"
    if leaf.startswith("ns_per_"):
        return "ns"
    return "s" if leaf.endswith("_s") else "count"


def _fmt(v) -> str:
    if isinstance(v, float) and v != v:
        return "n/a"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _load_expectations() -> dict:
    return json.loads((HERE / "expectations.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="tiny only exercises the code paths, for the smoke test")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "fairmesh" / "cli.py").is_file():
        print(f"no fairmesh sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = _load_expectations()
    wls = workloads.build(args.size)
    names = list(wls) if args.workload == "all" else [args.workload]
    if any(n not in wls for n in names):
        print(f"unknown workload {args.workload!r}; one of {', '.join(wls)} or all",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()[0]
    with scratch_dir() as work:
        runner = Runner(wls, args.seed, work, started + RUN_BUDGET_S)
        calls = measure(runner, names, args.seconds, bool(args.trace))
    fingerprint = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
    }
    print(f"machine: {json.dumps(fingerprint)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict = {}
    for name in names:
        w = wls[name]
        mine = [c for c in calls if c.workload == name]
        indep = "seed-independent" if name in expect["seed_independent"] else "seed-dependent"
        print(f"\n{name} (seed {args.seed}, {indep}; {w.sim_cycles} simulated cycles per call)")
        cross_check(mine)
        for c in mine:
            for e in c.errors:
                print(f"  FAILED {c.mode} call: {e}")
        recorded = (expect["report_sha256"].get(name, {}).get(str(args.seed))
                    if args.size == "full" else None)
        for sha in sorted({c.sha for c in mine if c.sha}):
            verdict = ("no recorded hash for this seed and size" if recorded is None
                       else "matches the recorded hash" if sha == recorded
                       else f"differs from the recorded {recorded}: behaviour changed")
            print(f"  report.json sha256 {sha}: {verdict}")
        e2e, notes = end_to_end(w, mine)
        values = dict(e2e)
        for (k, v), note in zip(e2e.items(), notes):
            print(f"  {k:<18} {_fmt(v):>12} {E2E_UNITS[k]:<9} {note}")
        if args.trace:
            layers = per_layer(mine)
            values.update(layers)
            for k, v in layers.items():
                check = "  exact: repeats in every traced call" if k in EXACT_COUNTS else ""
                print(f"  {k:<32} {_fmt(v):>12} {layer_unit(k)}{check}")
        prefix = f"{name}." if args.workload == "all" else ""
        for m in wanted:
            v = values.get(m["name"], float("nan"))
            if v != v:
                print(f"  no value for {m['name']}: too few successful calls", file=sys.stderr)
                return 1
            metrics[prefix + m["name"]] = {"value": v, "unit": m["unit"]}

    attempted = len(calls)
    failed = sum(1 for c in calls if c.errors)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
