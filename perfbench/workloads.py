"""The four benchmark workloads and the checks on their outputs.

Each workload is one whole `fairmesh run` or `fairmesh compare` call on a
config written here.  The checks read what the call left in its output
directory and return a list of failure messages (empty when correct).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# Simulated cycles per call come from these sizes.  `full` is what the
# benchmark measures; `tiny` only exercises the code paths (smoke test).
SIZES = {
    "full": {"hotspot": 10_000, "uniform": 6_000, "pathology": 96_000},
    "tiny": {"hotspot": 400, "uniform": 400, "pathology": 3_000},
}

# criterion 1's tolerance on the halving series, per source
REF_SHARE_TOL = 0.15
# compare-pathology facts behind acceptance criteria 6 and 7: DRR's sent-size
# gap stays within one max packet while its occupation gap exceeds three
DRR_RFB_MAX = 24
DRR_CFB_MIN = 72
SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "run" or "compare"
    config: dict
    sim_cycles: int  # simulated cycles of every simulation in one call
    # (output dir, seed) -> (failure messages, values worth printing)
    check: Callable[[Path, int], tuple[list[str], dict]]


def check_trace_csv(path: Path) -> list[str]:
    """Every service record keeps `end - start - blocking == sent_units`."""
    errors = []
    with open(path, newline="") as fh:
        for n, row in enumerate(csv.DictReader(fh), start=2):
            try:
                start, end = int(row["start"]), int(row["end"])
                blocking, sent = int(row["blocking"]), int(row["sent_units"])
            except (KeyError, TypeError, ValueError) as e:
                errors.append(f"{path.name} line {n}: unreadable row ({e})")
                continue
            if end - start - blocking != sent:
                errors.append(
                    f"{path.name} line {n}: end - start - blocking = "
                    f"{end - start - blocking} != sent_units {sent}"
                )
    return errors


def _mesh_payload(out: Path, seed: int) -> dict:
    report = json.loads((out / "report.json").read_text())
    return report["runs"][str(seed)]


def _check_mesh(out: Path, seed: int) -> tuple[list[str], dict]:
    payload = _mesh_payload(out, seed)
    shares = payload["mesh"]["shares"]
    errors = check_trace_csv(out / "trace.csv")
    total = sum(shares.values())
    if abs(total - 1.0) > SHARE_SUM_TOL:
        errors.append(f"mesh shares sum to {total!r}, not 1")
    return errors, {}


def _check_hotspot_rr(out: Path, seed: int, tol: float | None) -> tuple[list[str], dict]:
    from fairmesh.presets import GEOMETRIC_SHARES

    errors, info = _check_mesh(out, seed)
    shares = _mesh_payload(out, seed)["mesh"]["shares"]
    err = max(
        abs(shares.get(str(src), 0.0) - ref) / ref
        for src, ref in enumerate(GEOMETRIC_SHARES)
    )
    info["ref_share_err"] = err
    if tol is not None and err > tol:
        errors.append(f"ref_share_err {err:.4f} exceeds {tol}")
    return errors, info


def _check_hotspot_vw(out: Path, seed: int) -> tuple[list[str], dict]:
    errors, info = _check_mesh(out, seed)
    # criterion 8: no weights equalize occupation on this line
    verdict = _mesh_payload(out, seed)["feasibility"]
    if verdict["feasible"] or verdict["vacuous"] or verdict["witness"] is None:
        errors.append(f"feasibility verdict is not a witnessed infeasible one: {verdict}")
    return errors, info


def _check_compare(out: Path, seed: int) -> tuple[list[str], dict]:
    runs = json.loads((out / "report.json").read_text())["runs"][str(seed)]
    errors = []
    drr, carr = runs["drr"], runs["carr"]
    if drr["rfb_estimate"] > DRR_RFB_MAX:
        errors.append(f"DRR RFB {drr['rfb_estimate']} exceeds {DRR_RFB_MAX}")
    if drr["cfb_estimate"] < DRR_CFB_MIN:
        errors.append(f"DRR CFB {drr['cfb_estimate']} below {DRR_CFB_MIN}")
    carr_lat, drr_lat = carr["latency"]["1"]["mean"], drr["latency"]["1"]["mean"]
    if not carr_lat < drr_lat:
        errors.append(f"CARR flow-1 mean latency {carr_lat} not below DRR's {drr_lat}")
    return errors, {}


def build(size: str = "full") -> dict[str, Workload]:
    """The workloads at one size, by name, in the order the benchmark runs them."""
    n = SIZES[size]
    hot, uni, path = n["hotspot"], n["uniform"], n["pathology"]

    def mesh_cfg(experiment: str, params: dict) -> dict:
        return {"schema_version": 1, "experiment": experiment, "seeds": [1],
                "params": params}

    hotspot = {"k": 8, "horizon": hot, "warmup": hot // 10}
    schedulers = ["rr", "drr", "err", "ebrr", "carr"]
    wls = [
        # the halving series only emerges over a long enough run
        Workload("hotspot-rr", "run", mesh_cfg("mesh-hotspot", hotspot), hot,
                 partial(_check_hotspot_rr, tol=REF_SHARE_TOL if size == "full" else None)),
        Workload("hotspot-vw", "run", mesh_cfg("eq13-feasibility", hotspot),
                 hot, _check_hotspot_vw),
        Workload(
            "uniform-fq", "run",
            mesh_cfg("mesh-hotspot", {
                "k": 16, "pattern": "uniform", "scheduler": "carr",
                "rate": 0.03, "horizon": uni, "warmup": uni // 10,
            }),
            uni, _check_mesh,
        ),
        Workload(
            "compare-pathology", "compare",
            {"schema_version": 1, "schedulers": schedulers, "seeds": [1],
             "workload": {"kind": "pathology", "horizon": path}},
            path * len(schedulers), _check_compare,
        ),
    ]
    return {w.name: w for w in wls}
