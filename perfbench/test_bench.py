"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_bench.py

Every metric prints with its unit for every workload, the trace.csv check
fires on a corrupted row, and without the sources the benchmark exits
nonzero and prints no result.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the end-to-end and per-layer metrics the benchmark prints, with their units
PRINTED_E2E = {"wall_s": "s", "ref_s": "s", "wall_rel": "ratio", "setup_s": "s",
               "setup_host_s": "s", "sim_cycles_per_s": "cycles/s", "peak_rss_mb": "MB",
               "error_rate": "fraction"}
PRINTED_LAYERS = {
    "meshsim.self_s": "s", "meshsim.us_per_cycle": "us", "meshsim.cycles": "count",
    "meshsim.packets_delivered": "count", "meshsim.grants": "count",
    "meshsim.blocking_cycles": "count", "meshsim.channel_busy_frac": "fraction",
    "arbitration.choose_s": "s", "arbitration.choose_calls": "count",
    "arbitration.us_per_choose": "us", "arbitration.contended_frac": "fraction",
    "rng.draws": "count", "rng.draw_s": "s", "rng.ns_per_draw": "ns",
    "schedulers.run_s": "s", "schedulers.records": "count",
    "schedulers.us_per_record": "us", "fairness.rfb_estimate_s": "s",
    "fairness.boundaries": "count", "fairness.grid_points": "count",
    "fairness.us_per_boundary": "us", "analysis.feasibility_s": "s",
    "core.csv_s": "s", "core.csv_rows": "count", "presets.workload_s": "s",
    "cli.self_s": "s", "trace.overhead_frac": "fraction",
}


def run_bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def sections(stdout: str) -> dict[str, str]:
    """The printed block of each workload, by name."""
    blocks = re.split(r"^(?=\S+ \(seed )", stdout, flags=re.M)
    return {b.split(" ", 1)[0]: b for b in blocks[1:]}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(trace):
    proc = run_bench(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for w in WORKLOADS:
        for m in SPEC["per_layer" if trace else "end_to_end"]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    printed = sections(proc.stdout)
    assert sorted(printed) == sorted(WORKLOADS)
    wanted = dict(PRINTED_E2E, **(PRINTED_LAYERS if trace else {}))
    for w, block in printed.items():
        names = dict(wanted, ref_share_err="fraction") if w == "hotspot-rr" else wanted
        for name, unit in names.items():
            assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b", block, re.M), \
                f"{w}: {name} [{unit}] not printed"


def test_trace_check_fires_on_corrupted_row(tmp_path):
    wls = workloads.build("tiny")
    call = bench.Runner(wls, 1, tmp_path, time.monotonic() + 120).spawn("hotspot-rr", "plain")
    assert not call.errors
    out = next(tmp_path.glob("*-hotspot-rr-plain"))
    assert wls["hotspot-rr"].check(out, 1)[0] == []
    rows = (out / "trace.csv").read_text().splitlines()
    flow, rnd, start, end, sent, blocking = rows[1].split(",")
    rows[1] = ",".join([flow, rnd, start, end, str(int(sent) + 1), blocking])
    (out / "trace.csv").write_text("\n".join(rows) + "\n")
    errors, _ = wls["hotspot-rr"].check(out, 1)
    assert len(errors) == 1 and "line 2" in errors[0] and "sent_units" in errors[0]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
