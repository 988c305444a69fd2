"""One fairmesh CLI call in its own process, in one of three modes, or one
half of the reference work.

    python3 perfbench/child.py plain -- run cfg.json --seed 1
    python3 perfbench/child.py setup -- run cfg.json --seed 1
    python3 perfbench/child.py trace stats.json -- compare cfg.json --seed 1
    python3 perfbench/child.py ref-interp --
    python3 perfbench/child.py ref-numpy --

`plain` is the console-script entry point, `fairmesh.cli.main`, unchanged;
after it returns, the process's own peak resident memory, less file-backed
pages, goes to peak_rss_kb.txt in the working directory.
`setup` exits (code 0) at the first call into any layer below the CLI, so
its wall time is interpreter start, imports and config validation.
`trace` replaces the layers' public callables with timing wrappers, runs the
call, and writes per-callable call counts, total and child time to
stats.json.  The wrappers live here; nothing in the package changes.
`ref-interp` and `ref-numpy` run fixed reference work that uses nothing
from the package, so their time follows only the host's speed.

Self time of a callable is its total time minus the time of wrapped calls
made inside it.  Calls are aggregated, not stored one span each, because
arbiter grants and RNG draws run ~10^5 times per call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import time

# (layer, owner, attribute): owner is a module, or module:Class for methods.
# fairmesh.cli imports run_mesh, rfb_estimate and the analysis functions by
# name, so they are replaced in the cli namespace.
TARGETS = [
    ("meshsim", "fairmesh.cli", "run_mesh"),
    ("fairness", "fairmesh.cli", "rfb_estimate"),
    ("analysis", "fairmesh.cli", "check_ratio_constraint"),
    ("analysis", "fairmesh.cli", "required_weights"),
    ("presets", "fairmesh.presets", "pathology_workload"),
    ("presets", "fairmesh.presets", "random_workload"),
    ("presets", "fairmesh.presets", "backlogged_pair"),
    ("schedulers", "fairmesh.schedulers:SchedulerBase", "run"),
    ("core", "fairmesh.core:Trace", "to_csv"),
    ("arbitration", "fairmesh.arbitration:RoundRobinArbiter", "choose"),
    ("arbitration", "fairmesh.arbitration:AgeArbiter", "choose"),
    ("arbitration", "fairmesh.arbitration:ProbabilisticArbiter", "choose"),
    ("rng", "fairmesh.rng:XorShift64Star", "next_u64"),
]
HOT = {"choose", "next_u64"}


def _owner(spec: str):
    mod, _, cls = spec.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def _grid_points(desc: str, n_bounds: int) -> int:
    """Window-grid size from FairnessReport.grid's description."""
    if desc.startswith("all ") or desc == "empty trace":
        return n_bounds
    step = re.match(r"every (\d+)", desc)
    if step:
        return -(-n_bounds // int(step[1]))
    user = re.match(r"user grid \((\d+)", desc)
    if user:
        return int(user[1])
    raise ValueError(f"unknown window grid description: {desc!r}")


class Tracer:
    """Call counts and times per wrapped callable, nested by a call stack."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.stack: list[list[float]] = []  # per open call: [child seconds]
        self.hook_s = 0.0  # bookkeeping after calls, excluded from every span

    def wrap_hot(self, key: str, fn, count_contended: bool):
        stat = self.stats[key] = {"calls": 0, "total_s": 0.0, "child_s": 0.0,
                                  "contended": 0}
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args):
            if count_contended and len(args[1]) > 1:
                stat["contended"] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["child_s"] += frame[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def wrap(self, key: str, fn, after=None):
        """Wrap a cold callable; `after(stat, args, result)` adds counts and
        its own time is charged to no span."""
        stat = self.stats[key] = {"calls": 0, "total_s": 0.0, "child_s": 0.0}
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["child_s"] += frame[0]
            if after is not None:
                t1 = clock()
                after(stat, args, result)
                hook = clock() - t1
                self.hook_s += hook
                dt += hook
            if stack:
                stack[-1][0] += dt
            return result

        return traced

    def install(self) -> None:
        for layer, owner_spec, attr in TARGETS:
            owner = _owner(owner_spec)
            fn = getattr(owner, attr)
            key = f"{layer}:{owner_spec.rpartition(':')[2] or owner_spec}.{attr}"
            if attr in HOT:
                setattr(owner, attr, self.wrap_hot(key, fn, attr == "choose"))
            else:
                setattr(owner, attr, self.wrap(key, fn, _AFTER.get(attr)))


def _after_scheduler_run(stat, args, trace) -> None:
    stat["records"] = stat.get("records", 0) + len(trace)


def _after_to_csv(stat, args, result) -> None:
    stat["rows"] = stat.get("rows", 0) + len(args[0].records)


def _after_rfb_estimate(stat, args, report) -> None:
    n = len(args[0].boundaries())
    stat["boundaries"] = stat.get("boundaries", 0) + n
    stat["grid_points"] = stat.get("grid_points", 0) + _grid_points(report.grid, n)


_AFTER = {
    "run": _after_scheduler_run,
    "to_csv": _after_to_csv,
    "rfb_estimate": _after_rfb_estimate,
}


def reference_interp() -> int:
    """Dict and integer work in the interpreter, like the simulator's."""
    counts: dict[int, int] = {}
    for i in range(400_000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
    return len(counts)


def reference_numpy() -> float:
    """numpy import and dense differences over a window matrix, like the
    fairness sweep's; the matrices do not fit in cache."""
    import numpy as np

    a = np.arange(1500, dtype=np.float64)
    upper = np.triu_indices(len(a), k=1)
    peak = 0.0
    for _ in range(3):
        peak = max(peak, float(np.abs(a[None, :] - a[:, None])[upper].max()))
    return peak


REFERENCE = {"ref-interp": reference_interp, "ref-numpy": reference_numpy}


def _write_peak_rss() -> None:
    """Peak resident memory less the file-backed pages resident at exit.

    VmHWM is the peak of this process's own memory map; the parent's wait4
    ru_maxrss is not, because Linux carries the pre-exec peak, the parent's
    own resident size at the spawn, into it.  File-backed pages (the
    interpreter's and numpy's shared libraries, ~13 MB) are subtracted
    because how many of them are mapped depends on the host's page cache,
    not on the program."""
    with open("/proc/self/status") as fh:
        status = fh.read()
    hwm, file_rss = (int(re.search(rf"^{key}:\s+(\d+) kB", status, re.M)[1])
                     for key in ("VmHWM", "RssFile"))
    with open("peak_rss_kb.txt", "w") as fh:
        fh.write(str(hwm - file_rss))


def _first_layer_call(*args, **kwargs):
    os._exit(0)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    sep = rest.index("--")
    opts, cli_argv = rest[:sep], rest[sep + 1:]
    if mode in REFERENCE:
        REFERENCE[mode]()
        return 0
    from fairmesh import cli

    if mode == "plain":
        rc = cli.main(cli_argv)
        _write_peak_rss()
        return rc
    if mode == "setup":
        for _, owner_spec, attr in TARGETS:
            setattr(_owner(owner_spec), attr, _first_layer_call)
        cli.main(cli_argv)
        print("setup probe: the call reached no layer", file=sys.stderr)
        return 1
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        run_main = tracer.wrap("cli:main", cli.main)
        rc = run_main(cli_argv)
        with open(opts[0], "w") as fh:
            json.dump({"callables": tracer.stats, "hook_s": tracer.hook_s}, fh)
        return rc
    raise SystemExit(f"unknown mode {mode!r}; use plain, setup, trace, ref-interp or ref-numpy")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
