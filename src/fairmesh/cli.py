"""Command line front end.

Three verbs over one JSON config format:

  fairmesh run <config.json>      run a canned experiment, write report + CSVs
  fairmesh compare <config.json>  replay one workload through several schedulers
  fairmesh analyze <report.json>  feasibility check on a measured service matrix

Exit codes: 0 on success, 2 for config problems (the message names the
offending key), 3 for runtime failures.  Reports are dumped with sorted keys
and no timestamps, so rerunning a config gives byte-identical report.json.
The FAIRMESH_OUT environment variable overrides the output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import shutil
import sys
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import presets
from .analysis import RequiredWeights, check_ratio_constraint, required_weights
from .arbitration import MAX_GRANT_TRIALS, empirical_grant_frequencies
from .core import Accounting, Packet, SchedulerKind, Trace, is_finite, is_int
from .fairness import BoundsFold, FairnessReport, check_weights, rfb_estimate
from .meshsim import MeshConfig, SimReport, run_mesh
from .schedulers import CongestionAwareRoundRobin, DeficitRoundRobin, make_scheduler

OUTPUT_DIR_ENV = "FAIRMESH_OUT"
SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Anything wrong with the input config or report; exit code 2."""


# -- config plumbing -------------------------------------------------------


def _load_json(path: str, what: str = "config") -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return obj


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config missing required key: {key}")
    return cfg[key]


def _check_allowed(d: dict, allowed: set[str], what: str) -> None:
    for k in d:
        if k not in allowed:
            name = k if what == "config" else f"{what}.{k}"
            raise ConfigError(f"unknown config key: {name}")


def _dump_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


# -- workloads and schedulers ----------------------------------------------

def _workload(given, where: str = "workload") -> presets.Workload:
    """The workload `given` names; `where` is the config key that holds it
    (an experiment may take it, or its counts, from params)."""
    if isinstance(given, str):
        given = {"kind": given}
    if not isinstance(given, dict):
        raise ConfigError(f"config key {where} must be a name or an object")
    kind = given.get("kind")
    if not (isinstance(kind, str) and kind in presets.WORKLOAD_COUNTS):
        names = ", ".join(sorted(presets.WORKLOAD_COUNTS))
        raise ConfigError(f"config key {where}.kind must be one of [{names}], got {kind!r}")
    _check_allowed(given, {"kind", *presets.WORKLOAD_COUNTS[kind]}, where)
    try:
        return presets.Workload(**given)
    except ValueError as e:  # the message starts with the count's name
        raise ConfigError(f"config key {where}.{e}") from None


def _by_id(obj, what: str) -> dict:
    """The JSON object `obj` keyed by int ids; `what` names it in an error.
    An id has one spelling, str(id), so no two keys name one id: "00",
    "-0", "+1", "1_0", " 1" and "\u0661" are refused."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object keyed by integer ids")
    out = {}
    for k, v in obj.items():
        try:
            i = int(k)
        except ValueError:
            i = None
        if i is None or str(i) != k:
            raise ConfigError(f"{what} keys must be integers in canonical decimal form, got {k!r}")
        out[i] = v
    return out


def _flow_map(params: dict, key: str, flows: Sequence[int]) -> dict:
    """params[key] as {flow: value}, with an entry for each of `flows` and no other."""
    out = _by_id(params[key], f"config key params.{key}")
    missing = sorted(set(flows) - set(out))
    if missing:
        raise ConfigError(f"config key params.{key} has no entry for flows {missing}")
    extra = sorted(set(out) - set(flows))
    if extra:
        raise ConfigError(f"config key params.{key} has entries for flows {extra}, "
                          f"which the workload does not carry")
    return out


def _scheduler_kind(name, key: str) -> SchedulerKind:
    try:
        return SchedulerKind(name)
    except ValueError:
        names = ", ".join(k.value for k in SchedulerKind)
        raise ConfigError(
            f"config key {key} must use kinds [{names}], got {name!r}"
        ) from None


def _scheduler_settings(
    w: presets.Workload, params: dict
) -> Callable[..., tuple[Trace, FairnessReport | None, dict]]:
    """Check the scheduler keys and fairness weights for workload `w`, and
    return run_one(kind, packets, keep), which runs one discipline on
    `packets`, a build of `w`.  With `keep` the run keeps its trace and
    `rfb_estimate` measures it; without, a `BoundsFold` measures the run as
    it goes, and the run keeps no trace and returns no report.  Every
    scheduler key given is checked, whether or not a discipline reads it:
    its value by the library code that uses it."""
    carr = {k: params[k] for k in ("tau", "demote_rounds") if k in params}
    try:  # each key's shape, then its values, so the first bad key is named
        weights = _flow_map(params, "weights", w.flows) if "weights" in params else w.weights
        check_weights(weights, presets.MAX_TRACE_END)  # the check rfb_estimate makes of a trace
        q = params.get("quantum", w.quantum)
        if isinstance(params.get("quantum"), dict):
            q = _flow_map(params, "quantum", w.flows)
        DeficitRoundRobin(quantum=q)
        CongestionAwareRoundRobin(**carr)
    except ValueError as e:  # the message starts with the field's name
        raise ConfigError(f"config key params.{e}") from None
    smallest = min(q.values()) if isinstance(q, dict) else q
    turns = w.packets * -(-w.max_size // smallest)
    if turns > presets.MAX_SCHEDULER_TURNS:
        raise ConfigError(f"config key params.quantum: {w.packets} packets of up to "
                          f"{w.max_size} units at quantum {smallest} take up to {turns} "
                          f"scheduler turns, more than {presets.MAX_SCHEDULER_TURNS}")

    def run_one(kind: SchedulerKind, packets: list[Packet],
                keep: bool) -> tuple[Trace, FairnessReport | None, dict]:
        kw: dict = {"blocked": w.blocked}
        if kind in (SchedulerKind.DRR, SchedulerKind.EBRR):
            kw["quantum"] = q
        if kind is SchedulerKind.CARR:
            kw.update(carr)
        fold = None if keep else BoundsFold(weights)
        sched = make_scheduler(kind, fold=fold, **kw)
        sched.load(packets)
        trace = sched.run(horizon=w.horizon)
        if fold is None:
            report = rfb_estimate(trace, weights)
            bounds = [report.rfb_estimate, report.cfb_estimate]
        else:
            report, bounds = None, fold.bounds()[0]
        sent, latency = sched.tallies()
        summary = {
            "scheduler": kind.value,
            "throughput": {str(f): n for f, n in sorted(sent.items())},
            "latency": {str(f): st for f, st in sorted(latency.items())},
            "drops": {str(f): n for f, n in sched.drops().items()},
            "rfb_estimate": bounds[0],
            "cfb_estimate": bounds[1],
        }
        return trace, report, summary

    return run_one


def _write_fairness_csvs(outdir: Path, report: FairnessReport) -> None:
    with open(outdir / "fm_windows_size.csv", "w", newline="") as fh:
        report.windows_to_csv(fh, Accounting.PACKET_SIZE)
    with open(outdir / "fm_windows_occupation.csv", "w", newline="") as fh:
        report.windows_to_csv(fh, Accounting.OCCUPATION)


# -- experiments -----------------------------------------------------------
# Each one checks its params and returns run(seeds, outdir) -> runs, which
# raises no ConfigError: the output directory is made between the two.

Run = Callable[[list[int], Path], dict]

_MESH_PARAM_KEYS = {f.name for f in dataclasses.fields(MeshConfig)} - {"seed"}


def _mesh_config(params: dict, defaults: dict) -> MeshConfig:
    """The checked mesh config; an error names the params keys at fault."""
    cfg = MeshConfig(**dict(defaults, **params))
    try:
        cfg.validate()
    except ValueError as e:
        fields = getattr(e, "fields", ())
        if fields:
            msg = f"config key {' and '.join(f'params.{n}' for n in fields)}: {e}"
        else:  # the message starts with the field's name
            msg = f"config key params.{e}"
        for name in fields:
            if name not in params:
                msg += f" (params.{name} was not set and defaults to {getattr(cfg, name)})"
        raise ConfigError(msg) from None
    return cfg


def _run_mesh_csvs(outdir: Path, cfg: MeshConfig) -> SimReport:
    """Run `cfg`, streaming each traced link's records to its CSV under a
    temporary name, renamed only once the run returns, then write shares.csv.
    trace.csv holds one link, the highest: with more, each has its own file."""
    paths: dict[tuple[int, int], Path] = {}  # each traced link's own file
    files = ExitStack()

    def sink(link: tuple[int, int]):
        paths[link] = outdir / "trace-{}-{}.csv".format(*link)
        return files.enter_context(open(paths[link].with_suffix(".part"), "w", newline=""))

    try:
        with files:
            rep = run_mesh(cfg, sink)
    except BaseException:
        for path in paths.values():
            path.with_suffix(".part").unlink(missing_ok=True)
        raise
    for path in paths.values():
        path.with_suffix(".part").replace(path if len(paths) > 1 else outdir / "trace.csv")
    if len(paths) > 1:
        shutil.copyfile(paths[max(paths)], outdir / "trace.csv")
    with open(outdir / "shares.csv", "w", newline="") as fh:
        rep.shares_csv(fh)
    return rep


def _feasibility_entry(s: dict, **eps) -> tuple[dict, RequiredWeights | None]:
    """The feasibility verdict on `s` (`eps` is its tolerance) and the
    first-hop weight ratios `s` implies, or why it implies none."""
    entry: dict = {"feasibility": check_ratio_constraint(s, **eps).to_dict()}
    try:
        rw = required_weights(s)
    except ValueError as e:
        entry["required_weights"] = None
        entry["required_weights_error"] = str(e)
        return entry, None
    entry["required_weights"] = {
        "from_first_router": rw.from_first_router,
        "from_second_router": rw.from_second_router,
    }
    return entry, rw


_SCHEDULER_KEYS = {"scheduler", "quantum", "tau", "demote_rounds"}


def _exp_scheduler(params: dict, allowed: set[str], workload: Callable[[dict], object],
                   where: str) -> Run:
    """One discipline on a standalone workload; `workload(params)` names it,
    and `where` is the config key that holds it."""
    _check_allowed(params, allowed, "params")
    w = _workload(workload(params), where)
    kind = _scheduler_kind(params.get("scheduler", "drr"), "params.scheduler")
    run_one = _scheduler_settings(w, params)

    def run(seeds: list[int], outdir: Path) -> dict:
        runs = {}
        for i, seed in enumerate(seeds):
            trace, report, summary = run_one(kind, w.build(seed), keep=True)
            summary["fairness"] = report.to_dict()
            runs[str(seed)] = summary
            if i == 0:
                with open(outdir / "trace.csv", "w", newline="") as fh:
                    trace.to_csv(fh)
                _write_fairness_csvs(outdir, report)
        return runs

    return run


def _exp_compare(params: dict, kinds: list[SchedulerKind], w: presets.Workload) -> Run:
    """Each discipline of `kinds` on one workload; comparison.csv holds the
    first seed's summaries, one row per scheduler and flow."""
    _check_allowed(params, _SCHEDULER_KEYS - {"scheduler"} | {"weights"}, "params")
    run_one = _scheduler_settings(w, params)

    def run(seeds: list[int], outdir: Path) -> dict:
        runs = {}
        for seed in seeds:
            # every scheduler replays the same packets, which are frozen, and
            # keeps no trace: the bounds are folded as it runs
            packets = w.build(seed)
            runs[str(seed)] = {k.value: run_one(k, packets, keep=False)[2] for k in kinds}
        first = runs[str(seeds[0])]
        with open(outdir / "comparison.csv", "w", newline="") as fh:
            wcsv = csv.writer(fh)
            wcsv.writerow([
                "scheduler", "flow", "throughput", "mean_latency", "max_latency",
                "fm_size", "fm_occupation",
            ])
            for kind in kinds:
                s = first[kind.value]
                for f, n in s["throughput"].items():
                    st = s["latency"].get(f, {"mean": 0.0, "max": 0.0})
                    wcsv.writerow([kind.value, f, n, st["mean"], st["max"],
                                   s["rfb_estimate"], s["cfb_estimate"]])
        return runs

    return run


def _exp_mesh(params: dict, defaults: dict, with_feasibility: bool) -> Run:
    _check_allowed(params, _MESH_PARAM_KEYS, "params")
    cfg = _mesh_config(params, defaults)

    def run(seeds: list[int], outdir: Path) -> dict:
        runs = {}
        for i, seed in enumerate(seeds):
            # only the first seed writes its CSVs: the others trace no link
            if i == 0:
                rep = _run_mesh_csvs(outdir, dataclasses.replace(cfg, seed=seed))
            else:
                rep = run_mesh(dataclasses.replace(cfg, seed=seed, trace_links=[]))
            payload: dict = {"mesh": rep.to_dict()}
            if with_feasibility:
                payload.update(_feasibility_entry(rep.s_matrix())[0])
            runs[str(seed)] = payload
        return runs

    return run


_EQ13_DEFAULTS = dict(presets.HOTSPOT_DEFAULTS, arbiter="probabilistic")


def _exp_arb_convergence(params: dict) -> Run:
    _check_allowed(params, {"weights", "trials"}, "params")
    ws = params.get("weights", list(presets.ARB_CONVERGENCE_WEIGHTS))
    if not isinstance(ws, list) or len(ws) < 2 or not all(
        is_finite(x) and x > 0 for x in ws
    ) or not math.isfinite(sum(map(float, ws))):
        raise ConfigError("config key params.weights must list at least two positive finite "
                          "numbers with a finite sum")
    trials = params.get("trials", presets.ARB_CONVERGENCE_TRIALS)
    if not is_int(trials) or trials < 1:
        raise ConfigError("config key params.trials must be a positive integer")
    if trials > MAX_GRANT_TRIALS:
        raise ConfigError(f"config key params.trials must be <= {MAX_GRANT_TRIALS}, got {trials}")
    expected = [x / sum(ws) for x in ws]

    def run(seeds: list[int], outdir: Path) -> dict:
        runs = {}
        rows = []
        for seed in seeds:
            freqs = empirical_grant_frequencies(ws, trials, seed)
            runs[str(seed)] = {
                "frequencies": [float(f) for f in freqs],
                "max_abs_dev": float(max(abs(f - e) for f, e in zip(freqs, expected))),
                "weights": ws,
                "trials": trials,
            }
            rows.extend(
                [i, ws[i], expected[i], float(freqs[i]), seed] for i in range(len(ws))
            )
        with open(outdir / "frequencies.csv", "w", newline="") as fh:
            wcsv = csv.writer(fh)
            wcsv.writerow(["request", "weight", "expected", "frequency", "seed"])
            wcsv.writerows(rows)
        return runs

    return run


# experiment name -> check(params) -> run(seeds, outdir) -> runs; also the
# list of valid names, in the order the error message gives them
_EXPERIMENTS: dict[str, Callable[[dict], Run]] = {
    "standalone-scheduler": partial(
        _exp_scheduler, allowed=_SCHEDULER_KEYS | {"workload", "weights"},
        workload=lambda p: p.get("workload", "random"), where="params.workload",
    ),
    "mesh-hotspot": partial(
        _exp_mesh, defaults=presets.HOTSPOT_DEFAULTS, with_feasibility=False
    ),
    "rfb-vs-cfb-pathology": partial(
        _exp_scheduler, allowed=_SCHEDULER_KEYS | {"horizon"},
        workload=lambda p: {"kind": "pathology", **{k: p[k] for k in p.keys() - _SCHEDULER_KEYS}},
        where="params",
    ),
    "eq13-feasibility": partial(
        _exp_mesh, defaults=_EQ13_DEFAULTS, with_feasibility=True
    ),
    "arb-convergence": _exp_arb_convergence,
}


# -- verbs -----------------------------------------------------------------

def _run_verb(cfg: dict) -> tuple[dict, Callable[[dict], Run]]:
    exp = _require(cfg, "experiment")
    if exp not in _EXPERIMENTS:
        names = ", ".join(_EXPERIMENTS)
        raise ConfigError(f"config key experiment must be one of [{names}], got {exp!r}")
    return {"experiment": exp}, _EXPERIMENTS[exp]


def _compare_verb(cfg: dict) -> tuple[dict, Callable[[dict], Run]]:
    names = _require(cfg, "schedulers")
    if not isinstance(names, list) or len(names) < 2:
        raise ConfigError("config key schedulers must list at least two scheduler kinds")
    kinds = [_scheduler_kind(n, "schedulers") for n in names]
    if len(set(kinds)) < len(kinds):
        raise ConfigError(f"config key schedulers must not repeat a kind, got {names}")
    w = _workload(cfg.get("workload", "pathology"))
    header = {"schedulers": [k.value for k in kinds], "workload": {"kind": w.kind, **w.counts}}
    return header, partial(_exp_compare, kinds=kinds, w=w)


# verb -> (help, its own top-level keys, the check of those keys that
# returns the report header and the experiment's check(params))
_VERBS = {
    "run": ("run one experiment config", {"experiment"}, _run_verb),
    "compare": ("same workload through several schedulers",
                {"schedulers", "workload"}, _compare_verb),
}
_TOP_KEYS = {"schema_version", "seeds", "output_dir", "params"}


def cmd_config(args) -> int:
    """`run` and `compare`: check the whole config, then make the output
    directory, run the seeds and write report.json."""
    _, keys, verb = _VERBS[args.verb]
    cfg = _load_json(args.config)
    v = _require(cfg, "schema_version")
    if v != SCHEMA_VERSION:
        raise ConfigError(f"config key schema_version must be {SCHEMA_VERSION}, got {v!r}")
    _check_allowed(cfg, _TOP_KEYS | keys, "config")
    header, check = verb(cfg)
    seeds = [args.seed] if args.seed is not None else _require(cfg, "seeds")
    if not (isinstance(seeds, list) and seeds and all(is_int(s) for s in seeds)):
        raise ConfigError("config key seeds must be a non-empty list of integers")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"config key seeds must not repeat a seed, got {seeds}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config key params must be an object")
    out = cfg.get("output_dir", "out")
    if not isinstance(out, str):
        raise ConfigError(f"config key output_dir must be a string, got {out!r}")
    run = check(params)
    outdir = Path(os.environ.get(OUTPUT_DIR_ENV) or out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema_version": SCHEMA_VERSION,
        **header,
        "seeds": seeds,
        "params": params,
        "runs": run(seeds, outdir),
    }
    _dump_json(outdir / "report.json", report)
    print(f"wrote {outdir / 'report.json'}")
    return 0


def _s_matrix_from_payload(payload, seed: str) -> tuple[str, dict[int, dict[int, object]]]:
    """The report key of the run's S matrix, and the matrix with int flow
    and router ids; `check_ratio_constraint` checks its entries."""
    if not isinstance(payload, dict):
        raise ConfigError(f"report key runs.{seed} must be an object")
    where = f"runs.{seed}.s_matrix"
    sm = payload.get("s_matrix")
    if sm is None and isinstance(payload.get("mesh"), dict):
        where = f"runs.{seed}.mesh.s_matrix"
        sm = payload["mesh"].get("s_matrix")
    if not isinstance(sm, dict):
        raise ConfigError(f"report run {seed} missing required key: s_matrix")
    rows = _by_id(sm, f"report key {where}")
    return where, {f: _by_id(row, f"report key {where}.{f}") for f, row in rows.items()}


def cmd_analyze(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    rep = _load_json(args.report, what="report")
    runs = rep.get("runs")
    if not isinstance(runs, dict) or not runs:
        raise ConfigError("report missing required key: runs")
    per_run = {}
    for seed in sorted(runs):
        where, s = _s_matrix_from_payload(runs[seed], seed)
        try:
            entry, rw = _feasibility_entry(s, eps=args.tolerance)
        except ValueError as e:  # an entry that is not null or a finite number >= 1
            raise ConfigError(f"report key {where}: {e}") from None
        if rw is not None:
            entry["required_weights"]["consistent"] = rw.consistent(args.tolerance)
        per_run[seed] = entry
    out = {
        "schema_version": SCHEMA_VERSION,
        "source_experiment": rep.get("experiment"),
        "tolerance": args.tolerance,
        "per_run": per_run,
    }
    env = os.environ.get(OUTPUT_DIR_ENV)
    outdir = Path(env) if env else Path(args.report).resolve().parent
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(outdir / "analysis.json", out)
    print(json.dumps(out, sort_keys=True, indent=2, allow_nan=False))
    return 0


# -- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairmesh",
        description="fair queueing schedulers and a wormhole mesh simulator",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    for verb, (help_, _, _) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_)
        sp.add_argument("config")
        sp.add_argument("--seed", type=int, default=None,
                        help="replace the config's seed list with this one seed")
        sp.set_defaults(func=cmd_config)

    an = sub.add_parser("analyze", help="feasibility check on a run report")
    an.add_argument("report")
    an.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed deviation between occupation ratios")
    an.set_defaults(func=cmd_analyze)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001  anything else is a runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
