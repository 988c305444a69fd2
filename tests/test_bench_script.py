"""scripts/bench.py keeps running: each layer's row function, at a tiny size,
gives the same output hash twice, untraced and traced.  perfbench's trace
mode keeps its hooks: every callable it wraps still exists, and the CLI
calls the ones set on fairmesh.cli."""

import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import fresh_python

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("fairmesh_bench_script", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "MESH_HORIZON", 300)
    monkeypatch.setattr(mod, "SCHED_HORIZON", 2000)
    monkeypatch.setattr(mod, "SINK_HORIZON", 300)
    monkeypatch.setattr(mod, "BERNOULLI_DRAWS", 500)
    monkeypatch.setattr(mod, "MERGE_GRANTS", 500)
    monkeypatch.setattr(mod, "GRANT_TRIALS", 500)
    return mod


@pytest.mark.parametrize("layer", ["mesh", "schedulers", "rfb_estimate", "compare",
                                   "sampling", "startup"])
def test_each_layer_row_is_deterministic(bench, layer):
    for name in bench.LAYERS[layer]["rows"][:3]:
        plain = bench.ROW_FNS[layer](name, traced=False)
        traced = bench.ROW_FNS[layer](name, traced=True)
        assert plain["sha256"] == traced["sha256"]
        assert plain["peak_mb"] is None and traced["peak_mb"] > 0
        assert plain["work"] > 0 and plain["seconds"] >= 0


def test_memory_rows_stream_what_a_kept_trace_writes(bench):
    """A memory row streams the sink trace that a run keeping it writes."""
    from fairmesh import meshsim

    for name in ("hotspot-round_robin-300", "uniform-k16-carr-300"):
        streamed = bench.ROW_FNS["memory"](name, traced=True)
        assert streamed["peak_mb"] > 0 and streamed["work"] == 300
        cfg = meshsim.MeshConfig(horizon=300, warmup=30, seed=1,
                                 **bench.MESH_CONFIGS[name.rpartition("-")[0]])
        rep = meshsim.MeshSim(cfg).run()
        buf = io.StringIO()
        rep.sink_trace().to_csv(buf)
        assert streamed["sha256"] == bench._sha(rep.to_json(), buf.getvalue())


@pytest.mark.parametrize("argv,want", [
    ([], ["mesh", "memory", "schedulers", "rfb_estimate", "compare", "sampling", "startup"]),
    (["--layer", "startup", "--layer", "mesh", "--layer", "startup"], ["startup", "mesh"]),
])
def test_layer_option_picks_the_layers_timed(bench, monkeypatch, tmp_path, argv, want):
    timed = []
    monkeypatch.setattr(bench, "measure", lambda trees, layer: timed.append(layer) or {})
    monkeypatch.setattr(bench, "machine", dict)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out)] + argv)
    bench.main()
    assert timed == want
    assert list(json.loads(out.read_text())["layer"]) == want


def test_unknown_layer_is_refused(bench, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bench.py", "--layer", "mesh", "--layer", "meshes"])
    with pytest.raises(SystemExit) as e:
        bench.main()
    assert e.value.code == 2
    assert "--layer" in capsys.readouterr().err


def test_compare_row_hashes_what_the_cli_writes(bench, tmp_path, monkeypatch):
    """The compare row hashes the report.json and comparison.csv that the
    same `fairmesh compare` call writes, and leaves the environment as it was."""
    from fairmesh import cli

    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    row = bench.ROW_FNS["compare"]("pathology", traced=False)
    assert cli.OUTPUT_DIR_ENV not in os.environ
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "schedulers": list(bench.KINDS),
                               "seeds": [1], "output_dir": str(tmp_path / "out"),
                               "workload": {"kind": "pathology", "horizon": 2000}}))
    assert cli.main(["compare", str(cfg)]) == 0
    files = [(tmp_path / "out" / f).read_text() for f in ("report.json", "comparison.csv")]
    assert row["sha256"] == bench._sha(*files)
    assert row["work"] == 5 * 2000


def _child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


# resolves each of perfbench's TARGETS as its trace mode does, in an
# interpreter that has imported fairmesh.cli alone; prints what does not
_TARGETS_PROBE = """
import importlib.util, sys
import fairmesh.cli
spec = importlib.util.spec_from_file_location("perfbench_child", sys.argv[1])
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
for _layer, owner, attr in child.TARGETS:
    if not callable(getattr(child._owner(owner), attr, None)):
        print(owner, attr)
"""


def test_perfbench_targets_resolve():
    assert fresh_python(_TARGETS_PROBE, str(CHILD)) == ""


def test_perfbench_cli_targets_are_called_through_cli(tmp_path, monkeypatch):
    """A replacement that perfbench sets on fairmesh.cli is the one the CLI
    calls: eq13-feasibility reaches the mesh and the analysis, and the
    pathology experiment reaches rfb_estimate."""
    from fairmesh import cli

    called = set()
    for _layer, owner, attr in _child().TARGETS:
        if owner == "fairmesh.cli":
            def spy(*args, _fn=getattr(cli, attr), _attr=attr, **kwargs):
                called.add(_attr)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, attr, spy)
    for name, cfg in {
        "eq13": {"experiment": "eq13-feasibility", "params": {"k": 4, "horizon": 600, "warmup": 100}},
        "path": {"experiment": "rfb-vs-cfb-pathology", "params": {"horizon": 500}},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema_version": 1, "seeds": [1],
                                    "output_dir": str(tmp_path / name), **cfg}))
        assert cli.main(["run", str(path)]) == 0
    assert called == {"run_mesh", "rfb_estimate", "check_ratio_constraint", "required_weights"}
