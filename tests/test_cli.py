"""End-to-end checks of the command line front end: exit codes, error
messages naming the offending config key, artifact formats, and
byte-for-byte deterministic reports."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fairmesh
from fairmesh import periodic, presets
from fairmesh.analysis import check_ratio_constraint
from fairmesh.arbitration import MAX_GRANT_TRIALS
from fairmesh.cli import (OUTPUT_DIR_ENV, ConfigError, _mesh_config, _scheduler_settings,
                          _workload, main)
from fairmesh.core import Trace
from fairmesh.fairness import rfb_estimate
from fairmesh.meshsim import MeshSim, run_mesh
from fairmesh.presets import (MAX_PACKET_SIZE, MAX_WORKLOAD_FLOWS, MAX_WORKLOAD_PACKETS,
                              MAX_WORKLOAD_SPREAD)
from fairmesh.schedulers import CongestionAwareRoundRobin, DeficitRoundRobin, SchedulerBase


def write_cfg(tmp_path, name="cfg.json", **cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def base_cfg(tmp_path, **over):
    cfg = {
        "schema_version": 1,
        "experiment": "arb-convergence",
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
        "params": {"weights": [1, 1, 2], "trials": 20_000},
    }
    cfg.update(over)
    return cfg


P = "config key params."  # how a mesh config error names its key

# a random workload at every bound, MAX_WORKLOAD_FLOWS x 6250 packets
_LARGEST_RANDOM = {"kind": "random", "n_flows": MAX_WORKLOAD_FLOWS, "packets_per_flow": 6250,
                   "max_size": MAX_PACKET_SIZE}

# the shortest pathology horizon whose workload builds more than
# MAX_WORKLOAD_PACKETS packets (TestConfigErrors checks it on the builder)
PAST_HORIZON = 2_666_641


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# spellings of an integer id other than str(id); each names no id
ALIASES = ["00", "-0", "+1", "1_0", pytest.param(" 1", id="space-1"),
           pytest.param("\u0661", id="arabic-indic-1")]


class TestConfigErrors:
    def test_missing_seeds_names_key(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path)
        del cfg["seeds"]
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **base_cfg(tmp_path, schema_version=99))
        assert main(["run", path]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **base_cfg(tmp_path, experiment="mesh-hotspo"))
        assert main(["run", path]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_unknown_params_key(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot",
                       params={"krad": 8})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert "krad" in capsys.readouterr().err

    def test_defaulted_warmup_named_with_both_values(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot", params={"horizon": 500})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        err = capsys.readouterr().err
        assert "warmup=20000" in err and "horizon=500" in err
        assert "params.warmup was not set" in err

    def test_user_warmup_not_called_defaulted(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path, experiment="eq13-feasibility",
                       params={"horizon": 500, "warmup": 500})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        err = capsys.readouterr().err
        assert "warmup=500" in err and "horizon=500" in err
        assert "not set" not in err

    @pytest.mark.parametrize("params,named,defaulted", [
        (dict(k=2000), "k must be <= 1024, got 2000", None),
        (dict(k=1000), "k=1000 and horizon=200000", "params.horizon"),
        (dict(horizon=10**9), "k=8 and horizon=1000000000", "params.k"),
        (dict(k=600, horizon=200_000), "k=600 and horizon=200000", None),
    ])
    def test_size_bounds_name_the_set_key(self, tmp_path, capsys, params,
                                          named, defaulted):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot", params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and "warmup" not in err
        if defaulted:
            assert f"{defaulted} was not set" in err
        else:
            assert "not set" not in err

    def test_only_fields_a_message_states_get_a_default_note(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot",
                       params={"hotspot": 9, "horizon": 100, "warmup": 0})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        err = capsys.readouterr().err
        assert "hotspot 9 out of range for k=8" in err and "not set" not in err

    def test_mesh_field_validation_bubbles_up(self, tmp_path, capsys):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot",
                       params={"k": 1, "horizon": 100})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert "config error: config key params.k must be >= 2" in capsys.readouterr().err

    def test_config_file_not_found(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_seeds_must_be_integer_list(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **base_cfg(tmp_path, seeds="one"))
        assert main(["run", path]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_seeds_must_not_repeat(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **base_cfg(tmp_path, seeds=[3, 1, 3]))
        assert main(["run", path]) == 2
        assert "config key seeds must not repeat a seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a kind that is a list or an object used to exit 3 with a TypeError
    @pytest.mark.parametrize("workload", ["pathological", {"kind": ["random"]},
                                          {"kind": {"random": 1}}])
    def test_bad_workload_kind(self, tmp_path, capsys, workload):
        cfg = base_cfg(tmp_path, experiment="standalone-scheduler",
                       params={"workload": workload})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert "config key params.workload.kind must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("params,key", [
        (dict(scheduler="ebrr", quantum={"0": 4}), "params.quantum"),
        (dict(scheduler="drr", quantum="4"), "params.quantum"),
        (dict(scheduler="drr", quantum={"a": 4}), "params.quantum"),
        (dict(scheduler="drr", quantum=True), "params.quantum"),
        (dict(scheduler="carr", tau="2"), "params.tau"),
        (dict(scheduler="carr", demote_rounds=False), "params.demote_rounds"),
        (dict(scheduler="drr", weights={"0": 0}), "params.weights"),
        (dict(scheduler="drr", weights=[1, 2]), "params.weights"),
        (dict(scheduler="carr", demote_rounds=2.5), "params.demote_rounds"),
        # JSON's NaN and Infinity tokens are numbers, but no valid setting
        (dict(scheduler="carr", tau=math.nan), "params.tau"),
        (dict(scheduler="carr", tau=math.inf), "params.tau"),
        (dict(scheduler="drr", weights={"0": math.inf, "1": 1, "2": 1}), "params.weights"),
        (dict(scheduler="ebrr", quantum={"0": math.inf, "1": 4, "2": 4}), "params.quantum"),
        # workload counts must be positive integers; a NaN spread used to hang the run.
        # The ids keep the paramsN-key form, less the "config key params." prefix
        pytest.param(dict(workload={"kind": "random", "spread": math.nan}),
                     "config key params.workload.spread", id="params13-workload.spread"),
        pytest.param(dict(workload={"kind": "random", "n_flows": 1.5}),
                     "config key params.workload.n_flows", id="params14-workload.n_flows"),
        pytest.param(dict(workload={"kind": "random", "packets_per_flow": True}),
                     "config key params.workload.packets_per_flow",
                     id="params15-workload.packets_per_flow"),
        pytest.param(dict(workload={"kind": "backlogged-pair", "max_size": 0}),
                     "config key params.workload.max_size", id="params16-workload.max_size"),
        pytest.param(dict(workload={"kind": "pathology", "horizon": -5}),
                     "config key params.workload.horizon", id="params17-workload.horizon"),
        # one integer rule for the single quantum and for each per-flow one
        (dict(scheduler="drr", quantum={"0": 2.5, "1": 2.5, "2": 2.5}), "params.quantum"),
        (dict(scheduler="drr", quantum=0), "params.quantum"),
        # each scheduler key is checked whether or not the discipline reads it
        (dict(scheduler="drr", tau="x"), "params.tau"),
        (dict(scheduler="drr", demote_rounds=-3), "params.demote_rounds"),
        (dict(scheduler="rr", quantum=0), "params.quantum"),
        (dict(scheduler="carr", tau=0.5), "params.tau must exceed 1.0"),
        # every workload message names the key under params
        (dict(workload={"kind": "random", "bogus": 3}),
         "unknown config key: params.workload.bogus"),
        (dict(workload=5), "config key params.workload must be a name or an object"),
        # an integer too large for a float is no finite number
        pytest.param(dict(scheduler="carr", tau=10**400), "params.tau", id="huge-int-tau"),
        # one spelling per kind, as mesh-hotspot has: this one used to run DRR
        pytest.param(dict(scheduler="DRR"), "config key params.scheduler must use kinds",
                     id="upper-case-scheduler"),
    ])
    def test_bad_scheduler_params_exit_2(self, tmp_path, capsys, params, key):
        cfg = base_cfg(tmp_path, experiment="standalone-scheduler", params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [1.5, math.nan, math.inf, "x", -5, 0, True])
    def test_bad_pathology_horizon_exit_2(self, tmp_path, capsys, horizon):
        cfg = base_cfg(tmp_path, experiment="rfb-vs-cfb-pathology",
                       params={"horizon": horizon})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert "params.horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("params,key", [
        (dict(weights=[True, 2]), "params.weights"),
        (dict(weights=[float("nan"), 1]), "params.weights"),
        (dict(trials=True), "params.trials"),
        (dict(weights=[10**400, 1]), "params.weights"),
        (dict(trials=MAX_GRANT_TRIALS + 1), "params.trials must be <= 100000000"),
    ], ids=["bool-weight", "nan-weight", "bool-trials", "huge-int-weight", "trials-past"])
    def test_bad_arb_convergence_params_exit_2(self, tmp_path, capsys, params, key):
        cfg = base_cfg(tmp_path, params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("params,key", [
        (dict(k="8"), P + "k must be an integer"),
        (dict(horizon="100"), P + "horizon must be an integer"),
        (dict(quantum=True), P + "quantum must be an integer"),
        (dict(rate="1.0"), P + "rate must be a number"),
        (dict(rate=[1.0] * 7 + ["1"]), P + "rate must be a number"),
        (dict(weight_base="2"), P + "weight_base must be a number"),
        (dict(trace_links=5), P + "trace_links must be a list"),
        (dict(trace_links=[[1]]), P + "trace_links must be a list"),
        (dict(arbiter="probabilistic", weight_base=0.5), P + "weight_base must be >= 1"),
        pytest.param(dict(arbiter="probabilistic", policy="fw", k=700, weight_base=3.0,
                          horizon=100, warmup=0),
                     P + "weight_base and params.k: the largest weight sum",
                     id="params9-the largest weight sum"),
        (dict(arbiter="bogus"), P + "arbiter must be one of [round_robin, age, probabilistic]"),
        (dict(scheduler="carr", congestion_ratio=0.5), P + "congestion_ratio must exceed 1"),
        (dict(scheduler="carr", demote_rounds=0), P + "demote_rounds must be >= 1"),
        (dict(scheduler="carr", congestion_ratio=math.inf),
         P + "congestion_ratio must exceed 1 and be finite"),
        (dict(rate=math.nan), P + "rate entries must lie in [0, 1]"),
        (dict(rate=[1.0] * 7 + [math.nan]), P + "rate entries must lie in [0, 1]"),
        # the real-valued params are echoed into report.json, so they are
        # checked whatever the arbiter or scheduler
        (dict(weight_base=math.nan), P + "weight_base must be >= 1 and finite"),
        (dict(weight_base=0.5), P + "weight_base must be >= 1 and finite"),
        (dict(congestion_ratio=math.inf), P + "congestion_ratio must exceed 1 and be finite"),
        (dict(congestion_ratio=1.0), P + "congestion_ratio must exceed 1 and be finite"),
        (dict(demote_rounds=0), P + "demote_rounds must be >= 1"),
        (dict(arbiter="probabilistic", weight_base=math.inf),
         P + "weight_base must be >= 1 and finite"),
        # a test hook of MeshConfig, not a config key
        (dict(log_ejects=True), "unknown config key: params.log_ejects"),
        # an integer too large for a float is no finite number: these used to
        # exit 3 with an OverflowError, or run and echo it into report.json
        pytest.param(dict(weight_base=10**400), P + "weight_base must be >= 1 and finite",
                     id="huge-int-weight_base"),
        pytest.param(dict(arbiter="probabilistic", weight_base=10**400),
                     P + "weight_base must be >= 1 and finite",
                     id="huge-int-weight_base-probabilistic"),
        pytest.param(dict(scheduler="carr", congestion_ratio=10**400),
                     P + "congestion_ratio must exceed 1 and be finite",
                     id="huge-int-congestion_ratio"),
        pytest.param(dict(rate=10**400), P + "rate entries must lie in [0, 1]",
                     id="huge-int-rate"),
        pytest.param(dict(rate=[1.0] * 7 + [10**400]), P + "rate entries must lie in [0, 1]",
                     id="huge-int-rate-entry"),
        # the ids keep the paramsN-fragment form, less the prefix P
    ], ids=lambda v: v.removeprefix(P) if isinstance(v, str) else None)
    def test_bad_mesh_param_types_exit_2(self, tmp_path, capsys, params, key):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot", params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_past_horizon_is_the_first_past_the_packet_bound(self):
        # the builder refuses it, with the message the CLI puts its key before
        with pytest.raises(ValueError, match=f"^horizon: the workload must build at most "
                                             f"{MAX_WORKLOAD_PACKETS} packets, got 100001$"):
            presets.pathology_workload(PAST_HORIZON)
        assert len(presets.pathology_workload(PAST_HORIZON - 1)) == MAX_WORKLOAD_PACKETS - 1

    @pytest.mark.parametrize("verb,over,key", [
        ("run", dict(experiment="rfb-vs-cfb-pathology", params={"horizon": 10**400}),
         "params.horizon"),
        ("run", dict(experiment="rfb-vs-cfb-pathology", params={"horizon": PAST_HORIZON}),
         "params.horizon"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "pathology", "horizon": 10**400}}),
         "params.workload.horizon"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "n_flows": 10**400}}),
         "params.workload.n_flows"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "n_flows": MAX_WORKLOAD_FLOWS + 1}}),
         "params.workload.n_flows"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "packets_per_flow": 10**400}}),
         "params.workload.packets_per_flow"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "n_flows": MAX_WORKLOAD_FLOWS,
                                          "packets_per_flow":
                                          MAX_WORKLOAD_PACKETS // MAX_WORKLOAD_FLOWS + 1}}),
         "params.workload.packets_per_flow"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "backlogged-pair",
                                          "packets_per_flow": 10**400}}),
         "params.workload.packets_per_flow"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "backlogged-pair",
                                          "packets_per_flow": MAX_WORKLOAD_PACKETS // 2 + 1}}),
         "params.workload.packets_per_flow"),
        ("compare", dict(schedulers=["rr", "drr"],
                         workload={"kind": "pathology", "horizon": 10**400}),
         "workload.horizon"),
        ("compare", dict(schedulers=["rr", "drr"],
                         workload={"kind": "random", "n_flows": MAX_WORKLOAD_FLOWS + 1}),
         "workload.n_flows"),
        # a huge max_size kept DRR adding quanta past any timeout, and a
        # huge spread exited 3 with an OverflowError from the fairness sweep
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "max_size": 10**400}}),
         "params.workload.max_size"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "max_size": MAX_PACKET_SIZE + 1}}),
         "params.workload.max_size"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "backlogged-pair",
                                          "max_size": MAX_PACKET_SIZE + 1}}),
         "params.workload.max_size"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "spread": 10**400}}),
         "params.workload.spread"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"workload": {"kind": "random", "spread": MAX_WORKLOAD_SPREAD + 1}}),
         "params.workload.spread"),
        ("compare", dict(schedulers=["rr", "drr"],
                         workload={"kind": "random", "max_size": 10**400}),
         "workload.max_size"),
        ("compare", dict(schedulers=["rr", "drr"],
                         workload={"kind": "random", "spread": MAX_WORKLOAD_SPREAD + 1}),
         "workload.spread"),
        # quantum 1 at max_size 1024 took size / quantum DRR turns a packet:
        # the 16 x 6250-packet run was killed at 60 s
        ("run", dict(experiment="standalone-scheduler",
                     params={"quantum": 1, "workload": _LARGEST_RANDOM}), "params.quantum"),
        ("run", dict(experiment="standalone-scheduler",
                     params={"scheduler": "ebrr", "workload": _LARGEST_RANDOM,
                             "quantum": {str(f): 1 + 15 * (f > 0) for f in range(16)}}),
         "params.quantum"),
        ("compare", dict(schedulers=["rr", "drr"], workload=_LARGEST_RANDOM,
                         params={"quantum": 15}), "params.quantum"),
    ], ids=["pathology-horizon-huge", "pathology-horizon-past", "workload-horizon-huge",
            "n_flows-huge", "n_flows-past", "random-packets-huge", "random-packets-past",
            "pair-packets-huge", "pair-packets-past", "compare-horizon-huge",
            "compare-n_flows-past", "max_size-huge", "max_size-past", "pair-max_size-past",
            "spread-huge", "spread-past", "compare-max_size-huge", "compare-spread-past",
            "quantum-1", "flow-quantum-1", "compare-quantum-past"])
    def test_workload_size_bounds_exit_2(self, tmp_path, capsys, verb, over, key):
        # these used to build their packets, or sweep their flow pairs,
        # without bound; the check runs before the output directory exists
        cfg = base_cfg(tmp_path, **over)
        if verb == "compare":
            del cfg["experiment"]
            if "params" not in over:
                del cfg["params"]
        with time_limit(10):
            assert main([verb, write_cfg(tmp_path, **cfg)]) == 2
        assert f"config key {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_workload_at_default_quantum_is_accepted(self):
        # checked only: the DRR run itself takes about 25 s
        w = _workload(_LARGEST_RANDOM)
        for params in ({}, {"quantum": 16}, {"quantum": {str(f): 16 for f in range(16)}}):
            _scheduler_settings(w, params)
        with pytest.raises(ConfigError, match="params.quantum: 100000 packets of up to 1024 "
                                              "units at quantum 15 take up to 6900000"):
            _scheduler_settings(w, {"quantum": 15})

    @pytest.mark.parametrize("existing", [False, True])
    def test_config_error_leaves_no_new_directory(self, tmp_path, capsys, existing):
        out = tmp_path / "made" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("x")
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot", output_dir=str(out),
                       params={"quantm": 1})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert "params.quantm" in capsys.readouterr().err
        if existing:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:
            assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("verb,over,key", [
        ("run", dict(experiment="standalone-scheduler", params={"weights": {"0": 0}}),
         "params.weights"),
        ("run", dict(experiment="rfb-vs-cfb-pathology", params={"horizon": 1.5}),
         "params.horizon"),
        ("run", dict(experiment="mesh-hotspot", params={"krad": 8}), "params.krad"),
        ("run", dict(experiment="eq13-feasibility", params={"warmup": -1}),
         "config key params.warmup and params.horizon: warmup must satisfy"),
        ("run", dict(params={"trials": True}), "params.trials"),
        ("compare", dict(schedulers=["rr", "drr"], params={"quantum": 0}), "params.quantum"),
        # used to exit 3 with an OverflowError from float()
        ("run", dict(experiment="eq13-feasibility", params={"weight_base": 10**400}),
         "config key params.weight_base must be >= 1 and finite"),
        # used to be accepted, to run for decades
        ("run", dict(params={"trials": 10**15}),
         f"config key params.trials must be <= {MAX_GRANT_TRIALS}, got {10**15}"),
    ], ids=["standalone-scheduler", "rfb-vs-cfb-pathology", "mesh-hotspot",
            "eq13-feasibility", "arb-convergence", "compare", "eq13-huge-int-weight_base",
            "arb-convergence-trials-past"])
    def test_config_checked_before_output_dir(self, tmp_path, capsys, verb, over, key):
        # the output directory cannot be made under a regular file, so a
        # check that ran after making it would exit 3 with that error
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = base_cfg(tmp_path, output_dir=str(blocker / "out"), **over)
        if verb == "compare":
            del cfg["experiment"]
        assert main([verb, write_cfg(tmp_path, **cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("verb,weights", [
        ("run", {"0": 1e-320, "1": 1, "2": 1}),
        ("run", {"0": 1e308, "1": 1e-308, "2": 1}),
        ("compare", {"0": 1e-320, "1": 1, "2": 1}),
    ], ids=["run-inf", "run-nan", "compare-inf"])
    def test_weights_that_overflow_the_normalized_service_exit_2(self, tmp_path, capsys,
                                                                 verb, weights):
        # each used to exit 3 with "Out of range float values are not JSON
        # compliant" on an inf or nan fairness value, leaving trace.csv and
        # fm_windows_*.csv, or comparison.csv, behind
        params = {"weights": weights}
        if verb == "run":
            cfg = base_cfg(tmp_path, experiment="standalone-scheduler",
                           params=dict(params, workload="random"))
        else:
            cfg = base_cfg(tmp_path, schedulers=["rr", "drr"], workload="random", params=params)
            del cfg["experiment"]
        assert main([verb, write_cfg(tmp_path, **cfg)]) == 2
        assert "config key params.weights[" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_arb_convergence_weights_with_an_infinite_sum_exit_2(self, tmp_path, capsys):
        # used to exit 3 with numpy's "operands could not be broadcast together"
        cfg = base_cfg(tmp_path, params={"weights": [1e308, 1e308]})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert ("config key params.weights must list at least two positive finite numbers "
                "with a finite sum" in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("output_dir", [5, ["a"], None, True])
    def test_output_dir_must_be_a_string(self, tmp_path, capsys, output_dir, monkeypatch):
        # a non-string used to reach Path() and exit 3 with a raw TypeError
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, **base_cfg(tmp_path, output_dir=output_dir))
        assert main(["run", path]) == 2
        assert (f"config key output_dir must be a string, got {output_dir!r}"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("params,library", [
        ({"quantum": 0}, lambda: DeficitRoundRobin(quantum=0)),
        ({"quantum": {"0": 4, "1": 2.5, "2": 4}},
         lambda: DeficitRoundRobin(quantum={0: 4, 1: 2.5, 2: 4})),
        ({"tau": 1.0}, lambda: CongestionAwareRoundRobin(tau=1.0)),
        ({"demote_rounds": 0}, lambda: CongestionAwareRoundRobin(demote_rounds=0)),
        ({"weights": {"0": 1, "1": -2, "2": 1}},
         lambda: rfb_estimate(Trace(), {0: 1, 1: -2, 2: 1})),
    ], ids=["quantum", "per-flow-quantum", "tau", "demote_rounds", "weights"])
    def test_value_rule_is_the_library_text(self, tmp_path, capsys, params, library):
        # each value rule lives in the library code that uses the value;
        # the CLI only puts the config key in front of its message
        with pytest.raises(ValueError) as e:
            library()
        cfg = base_cfg(tmp_path, experiment="standalone-scheduler", params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert capsys.readouterr().err == f"config error: config key params.{e.value}\n"

    @pytest.mark.parametrize("key,value", [("weights", 1), ("quantum", 4)])
    @pytest.mark.parametrize("alias", ALIASES)
    def test_flow_id_has_one_spelling(self, tmp_path, capsys, key, value, alias):
        # "00" and "-0" used to name flow 0 a second time, and "1_0" flow 10
        params = {key: {"0": value, "1": value, "2": value, alias: 2 * value}}
        cfg = base_cfg(tmp_path, experiment="standalone-scheduler", params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 2
        assert (f"config key params.{key} keys must be integers in canonical decimal form, "
                f"got {alias!r}" in capsys.readouterr().err)

    def test_runtime_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(blocker))
        path = write_cfg(tmp_path, **base_cfg(tmp_path))
        assert main(["run", path]) == 3
        assert "runtime error" in capsys.readouterr().err


class TestRunVerb:
    def test_arb_convergence_report_and_csv(self, tmp_path):
        cfg = base_cfg(tmp_path, seeds=[1, 2])
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "report.json").read_text())
        assert sorted(rep["runs"]) == ["1", "2"]
        for run in rep["runs"].values():
            freqs = run["frequencies"]
            assert len(freqs) == 3 and abs(sum(freqs) - 1.0) < 1e-9
            assert abs(freqs[2] - 0.5) < 0.02  # weight 2 of total 4
        with open(out / "frequencies.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["request", "weight", "expected", "frequency", "seed"]
        assert len(rows) == 1 + 3 * 2

    def test_report_byte_identical_across_reruns(self, tmp_path):
        path = write_cfg(tmp_path, **base_cfg(tmp_path))
        assert main(["run", path]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["run", path]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_cfg(tmp_path, **base_cfg(tmp_path, seeds=[1, 2, 3]))
        assert main(["run", path, "--seed", "9"]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["seeds"] == [9]
        assert list(rep["runs"]) == ["9"]

    def test_env_var_redirects_output(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        path = write_cfg(tmp_path, **base_cfg(tmp_path))
        assert main(["run", path]) == 0
        assert (target / "report.json").exists()
        assert not (tmp_path / "out").exists()

    def test_standalone_artifacts(self, tmp_path):
        cfg = base_cfg(
            tmp_path, experiment="standalone-scheduler",
            params={
                "scheduler": "err",
                "workload": {"kind": "backlogged-pair", "packets_per_flow": 60},
            },
        )
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "trace.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["flow", "round", "start", "end", "sent_units", "blocking"]
        for name in ("fm_windows_size.csv", "fm_windows_occupation.csv"):
            with open(out / name) as fh:
                assert next(csv.reader(fh)) == ["t1", "t2", "fm"]
        run = json.loads((out / "report.json").read_text())["runs"]["1"]
        assert run["scheduler"] == "err"
        assert set(run["throughput"]) == {"0", "1"}
        assert run["rfb_estimate"] >= 0

    def test_each_traced_link_has_a_trace_file(self, tmp_path):
        cfg = base_cfg(
            tmp_path, experiment="mesh-hotspot",
            params={"k": 4, "horizon": 2000, "warmup": 200, "trace_links": [[1, 1], [0, 1]]},
        )
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        out = tmp_path / "out"
        flows = {}
        for link in ("1-1", "0-1"):
            with open(out / f"trace-{link}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) > 100
            flows[link] = {int(row["flow"]) for row in rows}
        # router 1's right output carries flows 0 and 1, router 0's flow 0 only
        assert flows == {"1-1": {0, 1}, "0-1": {0}}
        # trace.csv stays the highest link's
        assert (out / "trace.csv").read_text() == (out / "trace-1-1.csv").read_text()

    def test_one_traced_link_has_trace_csv_only(self, tmp_path):
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot",
                       params={"k": 4, "horizon": 500, "warmup": 50,
                               "trace_links": [[1, 1]]})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        assert sorted(p.name for p in (tmp_path / "out").glob("trace*.csv")) == ["trace.csv"]

    def test_mesh_hotspot_shares_csv(self, tmp_path):
        cfg = base_cfg(
            tmp_path, experiment="mesh-hotspot",
            params={"k": 4, "horizon": 6000, "warmup": 500},
        )
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "shares.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["source", "share", "mean_latency", "max_latency"]
        assert len(rows) == 1 + 3  # one row per source port
        shares = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert shares[2] > shares[0]  # final hop owns the biggest share


def csv_bytes(trace) -> bytes:
    buf = io.StringIO()
    trace.to_csv(buf)
    return buf.getvalue().encode()


class TestStreamedTraces:
    """A mesh run streams each traced link's records to its CSV as they
    close; what it writes is `Trace.to_csv` of the library's in-memory run."""

    @pytest.mark.parametrize("params", [
        {"k": 6, "horizon": 1500, "warmup": 100},
        {"k": 5, "arbiter": "age", "horizon": 1200, "warmup": 50},
        {"k": 5, "arbiter": "probabilistic", "policy": "vw", "horizon": 800, "warmup": 100},
        {"k": 5, "scheduler": "drr", "quantum": 2, "horizon": 800, "warmup": 100},
        {"k": 5, "scheduler": "carr", "horizon": 800, "warmup": 100},
        {"k": 6, "pattern": "uniform", "rate": 0.2, "horizon": 800, "warmup": 100},
        {"k": 4, "horizon": 900, "warmup": 0},
        {"k": 6, "horizon": 1500, "warmup": 100, "trace_links": [[3, 1], [5, 2]]},
        {"k": 6, "pattern": "uniform", "rate": 0.15, "scheduler": "carr", "horizon": 800,
         "warmup": 0, "trace_links": [[4, 1], [2, 0]]},
    ], ids=["rr", "age", "vw", "fq-drr", "fq-carr", "uniform-rr", "warmup0",
            "two-links-rr", "two-links-uniform-carr"])
    def test_files_are_the_kept_traces(self, tmp_path, monkeypatch, params):
        skips = []
        skip = periodic.skip
        monkeypatch.setattr(periodic, "skip",
                            lambda sim, mark, p: skips.append(p) or skip(sim, mark, p))
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot", seeds=[3, 4], params=params)
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        searches = params.get("arbiter") != "probabilistic"
        if searches and params.keys().isdisjoint({"scheduler", "pattern"}):
            assert skips, "a saturated line under round robin or age skips periods"
        out = tmp_path / "out"
        runs = json.loads((out / "report.json").read_text())["runs"]
        mesh = _mesh_config(params, presets.HOTSPOT_DEFAULTS)
        # the later seed traces no link; its report is the library's all the same
        reps = {seed: run_mesh(dataclasses.replace(mesh, seed=seed)) for seed in (3, 4)}
        for seed, rep in reps.items():
            assert json.dumps(runs[str(seed)]["mesh"], sort_keys=True) == rep.to_json()
        traces = reps[3].traces
        want = {"trace.csv": csv_bytes(traces[max(traces)])}
        if len(traces) > 1:
            want.update({f"trace-{r}-{o}.csv": csv_bytes(t) for (r, o), t in traces.items()})
        got = {p.name: p.read_bytes() for p in out.iterdir() if p.name.startswith("trace")}
        assert got == want

    def test_later_seeds_trace_no_link(self, tmp_path, monkeypatch):
        traced = []
        run = fairmesh.cli.run_mesh

        def spy(cfg, sink=None):
            rep = run(cfg, sink)
            traced.append(sorted(rep.traces))
            return rep

        monkeypatch.setattr(fairmesh.cli, "run_mesh", spy)
        cfg = base_cfg(tmp_path, experiment="mesh-hotspot", seeds=[1, 2, 3],
                       params={"k": 4, "horizon": 300, "warmup": 50})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        assert traced == [[(3, 2)], [], []]

    def test_failed_run_leaves_no_trace_file(self, tmp_path, monkeypatch, capsys):
        step = MeshSim.step

        def failing(sim):
            if sim.now == 500:
                raise RuntimeError("failed mid-run")
            step(sim)

        monkeypatch.setattr(MeshSim, "step", failing)
        for links in (None, [[2, 1], [5, 2]]):
            params = {"k": 6, "arbiter": "probabilistic", "horizon": 1000, "warmup": 100}
            if links:
                params["trace_links"] = links
            cfg = base_cfg(tmp_path, experiment="mesh-hotspot", params=params)
            assert main(["run", write_cfg(tmp_path, **cfg)]) == 3
            assert "failed mid-run" in capsys.readouterr().err
            # not even a temporary file, though rows were written before the failure
            assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []


class TestCompareVerb:
    def compare_cfg(self, tmp_path, **over):
        cfg = {
            "schema_version": 1,
            "schedulers": ["drr", "carr"],
            "workload": {"kind": "pathology", "horizon": 6000},
            "seeds": [1],
            "output_dir": str(tmp_path / "out"),
        }
        cfg.update(over)
        return write_cfg(tmp_path, name="cmp.json", **cfg)

    def test_single_scheduler_rejected(self, tmp_path, capsys):
        path = self.compare_cfg(tmp_path, schedulers=["drr"])
        assert main(["compare", path]) == 2
        assert "schedulers" in capsys.readouterr().err

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        path = self.compare_cfg(tmp_path, schedulers=["drr", "srr"])
        assert main(["compare", path]) == 2
        err = capsys.readouterr().err
        assert "schedulers" in err and "srr" in err

    def test_repeated_kind_rejected(self, tmp_path, capsys):
        path = self.compare_cfg(tmp_path, schedulers=["rr", "rr", "drr"])
        assert main(["compare", path]) == 2
        assert "config key schedulers must not repeat a kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kind_has_one_spelling(self, tmp_path, capsys):
        # as in mesh configs, a kind is its enum value: "RR" is no kind
        path = self.compare_cfg(tmp_path, schedulers=["RR", "drr"])
        assert main(["compare", path]) == 2
        err = capsys.readouterr().err
        assert "config key schedulers must use kinds" in err and "'RR'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params,key", [
        ({"quantm": 4}, "params.quantm"),
        ({"quantum": 4, "horizon": 5}, "params.horizon"),
    ])
    def test_unknown_params_key_rejected(self, tmp_path, capsys, params, key):
        path = self.compare_cfg(tmp_path, schedulers=["rr", "drr"],
                                workload="random", params=params)
        assert main(["compare", path]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("workload,key", [
        ({"kind": "random", "n_flows": True}, "workload.n_flows"),
        ({"kind": "pathology", "horizon": 1.5}, "workload.horizon"),
    ])
    def test_bad_workload_values_rejected(self, tmp_path, capsys, workload, key):
        path = self.compare_cfg(tmp_path, workload=workload)
        assert main(["compare", path]) == 2
        assert key in capsys.readouterr().err

    def test_fractional_demote_rounds_rejected(self, tmp_path, capsys):
        path = self.compare_cfg(tmp_path, params={"demote_rounds": 2.5})
        assert main(["compare", path]) == 2
        assert "params.demote_rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("schedulers,params,key", [
        (["rr", "drr"], {"tau": "x"}, "params.tau"),
        (["rr", "carr"], {"quantum": 0}, "params.quantum"),
    ])
    def test_params_no_listed_discipline_reads_rejected(self, tmp_path, capsys,
                                                        schedulers, params, key):
        path = self.compare_cfg(tmp_path, schedulers=schedulers, params=params)
        assert main(["compare", path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_known_params_accepted(self, tmp_path):
        path = self.compare_cfg(tmp_path, schedulers=["drr", "carr"], params={
            "quantum": 8, "tau": 3, "demote_rounds": 1, "weights": {"0": 2, "1": 1},
        })
        assert main(["compare", path]) == 0

    @pytest.mark.parametrize("verb", ["compare", "run"])
    def test_weights_missing_a_workload_flow_rejected(self, tmp_path, capsys, verb):
        # a flow left out of the weights would drop out of the sweep and
        # read RFB = CFB = 0.0 for every discipline
        params = {"weights": {"0": 1.5}}
        if verb == "compare":
            path = self.compare_cfg(tmp_path, params=params)
        else:
            path = write_cfg(tmp_path, **base_cfg(
                tmp_path, experiment="standalone-scheduler",
                params=dict(params, workload="pathology")))
        assert main([verb, path]) == 2
        err = capsys.readouterr().err
        assert "params.weights has no entry for flows [1]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("weights", 1.5), ("quantum", 8)])
    @pytest.mark.parametrize("verb", ["compare", "run"])
    def test_map_entry_for_a_flow_the_workload_lacks_rejected(self, tmp_path, capsys,
                                                              verb, key, value):
        # an extra weight used to add flow 2 to the report's fairness flows
        params = {key: {"0": value, "1": value, "2": value}}
        if verb == "compare":
            path = self.compare_cfg(tmp_path, params=params)
        else:
            path = write_cfg(tmp_path, **base_cfg(
                tmp_path, experiment="standalone-scheduler",
                params=dict(params, workload="pathology")))
        assert main([verb, path]) == 2
        err = capsys.readouterr().err
        assert f"params.{key} has entries for flows [2], which the workload" in err
        assert not (tmp_path / "out").exists()

    def test_pathology_comparison(self, tmp_path):
        assert main(["compare", self.compare_cfg(tmp_path)]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "report.json").read_text())
        per = rep["runs"]["1"]
        assert set(per) == {"drr", "carr"}
        # identical replayed arrivals: offered load per flow is fixed, only
        # service order differs, so total units sent can never exceed the
        # workload's total for either discipline
        for kind in ("drr", "carr"):
            stats = per[kind]
            assert set(stats["throughput"]) == {"0", "1"}
            assert stats["cfb_estimate"] >= stats["rfb_estimate"] >= 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "scheduler", "flow", "throughput", "mean_latency", "max_latency",
            "fm_size", "fm_occupation",
        ]
        assert len(rows) == 1 + 4  # 2 schedulers x 2 flows

    def test_comparison_csv_matches_report(self, tmp_path):
        # the first seed listed, not the smallest, fills comparison.csv
        path = self.compare_cfg(
            tmp_path, schedulers=["rr", "drr", "err", "ebrr", "carr"], seeds=[2, 1],
            workload={"kind": "random", "packets_per_flow": 40, "spread": 300},
        )
        assert main(["compare", path]) == 0
        out = tmp_path / "out"
        rep = json.loads((out / "report.json").read_text())
        expected = {}
        for kind in rep["schedulers"]:
            s = rep["runs"]["2"][kind]
            for f, n in s["throughput"].items():
                lat = s["latency"][f]
                expected[(kind, f)] = [n, lat["mean"], lat["max"],
                                       s["rfb_estimate"], s["cfb_estimate"]]
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        got = {
            (r["scheduler"], r["flow"]): [
                float(r[c]) for c in ("throughput", "mean_latency", "max_latency",
                                      "fm_size", "fm_occupation")
            ]
            for r in rows
        }
        assert len(rows) == len(got) == 5 * 3
        assert got == expected
        assert rep["runs"]["1"] != rep["runs"]["2"]

    def test_report_and_csv_hash(self, tmp_path):
        """Byte-identical report.json plus comparison.csv for all five
        disciplines on a random workload over two seeds.  A change that moves
        the hash changes behaviour; record a new one only with a stated reason."""
        path = self.compare_cfg(
            tmp_path, schedulers=["rr", "drr", "err", "ebrr", "carr"], seeds=[1, 2],
            workload={"kind": "random", "packets_per_flow": 40, "spread": 300},
        )
        assert main(["compare", path]) == 0
        out = tmp_path / "out"
        blob = (out / "report.json").read_bytes() + (out / "comparison.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "f7e2453167cd3783262da28fd3a66083eb1039196be8f6d007221aca7a34146e")

    def test_compare_deterministic(self, tmp_path):
        path = self.compare_cfg(tmp_path)
        assert main(["compare", path]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["compare", path]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first


class TestCompareMemory:
    """`compare` keeps no trace: each discipline's run feeds a fold of the
    two bounds as it goes, so the peak memory of perfbench's
    compare-pathology call stays at what the packets and summaries take."""

    @staticmethod
    def path(tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        return write_cfg(tmp_path, schema_version=1, seeds=[1],
                         schedulers=["rr", "drr", "err", "ebrr", "carr"],
                         workload={"kind": "pathology", "horizon": 96_000},
                         output_dir=str(tmp_path / "out"))

    def test_peak(self, tmp_path, monkeypatch):
        path = self.path(tmp_path, monkeypatch)
        assert main(["compare", path]) == 0  # what a first call compiles
        tracemalloc.start()
        try:
            assert main(["compare", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a kept trace per discipline, and the eager pass over it, took the
        # call to 2.1 MB
        assert peak <= 1.5 * 2**20, peak

    def test_no_run_keeps_a_record_or_event(self, tmp_path, monkeypatch):
        seen = []
        run = SchedulerBase.run

        def spy(self, horizon=None):
            trace = run(self, horizon)
            seen.append((self.kind.value, trace.records, trace.events, len(trace)))
            return trace

        monkeypatch.setattr(SchedulerBase, "run", spy)
        assert main(["compare", self.path(tmp_path, monkeypatch)]) == 0
        assert [k for k, *_ in seen] == ["rr", "drr", "err", "ebrr", "carr"]
        assert all(records is None and events == [] and n > 2000
                   for _, records, events, n in seen)


class TestAnalyzeVerb:
    def run_eq13(self, tmp_path):
        cfg = base_cfg(
            tmp_path, experiment="eq13-feasibility",
            params={"k": 4, "horizon": 5000, "warmup": 500},
        )
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        return tmp_path / "out" / "report.json"

    def test_analyze_writes_verdict(self, tmp_path, capsys):
        report = self.run_eq13(tmp_path)
        capsys.readouterr()  # drop the run verb's status line
        assert main(["analyze", str(report)]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((report.parent / "analysis.json").read_text())
        assert printed == saved
        verdict = saved["per_run"]["1"]["feasibility"]
        assert isinstance(verdict["feasible"], bool)
        assert verdict["pairs_checked"] > 0
        assert verdict["tolerance"] == 0.05

    def test_analyze_tolerance_flag(self, tmp_path, capsys):
        report = self.run_eq13(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(report), "--tolerance", "1e9"]) == 0
        saved = json.loads(capsys.readouterr().out)
        assert saved["per_run"]["1"]["feasibility"]["feasible"] is True

    def test_analyze_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys):
        report = self.run_eq13(tmp_path)
        capsys.readouterr()
        for bad in ("nan", "-1", "inf"):
            assert main(["analyze", str(report), "--tolerance", bad]) == 2
            assert "--tolerance" in capsys.readouterr().err
        assert not (report.parent / "analysis.json").exists()

    def test_analyze_missing_s_matrix(self, tmp_path, capsys):
        p = tmp_path / "rep.json"
        p.write_text(json.dumps({"runs": {"1": {"shares": {}}}}))
        assert main(["analyze", str(p)]) == 2
        assert "s_matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("s_matrix", [
        '{"a": {"0": 1.5}}',
        '{"0": {"b": 1.5}}',
        '{"--1": {"0": 1.5}}',
        '{"0": [1.5, 2.0]}',
        '{"0": {"0": "x"}}',
        '{"0": {"0": 0}}',
        '{"0": {"0": -1.5}}',
        '{"0": {"0": true}}',
        '{"0": {"0": 1e400}}',
        '{"0": {"0": NaN}}',
        # (sending + blocking) / sending is never below 1
        '{"0": {"0": 0.5}}',
        # ratios of such entries overflow: max_deviation read Infinity, and
        # inf - inf gave a NaN deviation that passed as feasible
        '{"0": {"0": 1e300, "1": 1.0}, "1": {"0": 1e-300, "1": 1.0}}',
        '{"0": {"0": 1e300, "1": 1e299}, "1": {"0": 1e-300, "1": 1e-300}}',
    ], ids=["flow-key", "router-key", "double-minus", "list-row", "string", "zero", "negative",
            "bool", "overflow", "nan", "below-one", "ratio-overflow", "nan-deviation"])
    def test_analyze_malformed_s_matrix_exit_2(self, tmp_path, capsys, s_matrix):
        p = tmp_path / "rep.json"
        p.write_text('{"runs": {"1": {"s_matrix": %s}}}' % s_matrix)
        assert main(["analyze", str(p)]) == 2
        assert "runs.1.s_matrix" in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("nested", [False, True])
    def test_s_entry_rule_is_the_library_text(self, tmp_path, capsys, nested):
        with pytest.raises(ValueError) as e:
            check_ratio_constraint({0: {0: 1.5, 1: 0.5}})
        run, where = {"s_matrix": {"0": {"0": 1.5, "1": 0.5}}}, "runs.1.s_matrix"
        if nested:  # an eq13-feasibility report keeps it in the mesh report
            run, where = {"mesh": run}, "runs.1.mesh.s_matrix"
        p = tmp_path / "rep.json"
        p.write_text(json.dumps({"runs": {"1": run}}))
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err == f"config error: report key {where}: {e.value}\n"
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("level", ["flow", "router"])
    @pytest.mark.parametrize("alias", ALIASES)
    def test_s_matrix_id_has_one_spelling(self, tmp_path, capsys, level, alias):
        # a row keyed "-0" used to replace row "0"
        sm = ({"0": {"0": 1.5}, alias: {"0": 2.0}} if level == "flow"
              else {"0": {"0": 1.5, alias: 2.0}})
        p = tmp_path / "rep.json"
        p.write_text(json.dumps({"runs": {"1": {"s_matrix": sm}}}))
        assert main(["analyze", str(p)]) == 2
        where = "runs.1.s_matrix" if level == "flow" else "runs.1.s_matrix.0"
        assert (f"report key {where} keys must be integers in canonical decimal form, "
                f"got {alias!r}" in capsys.readouterr().err)

    def test_analyze_missing_runs(self, tmp_path, capsys):
        p = tmp_path / "rep.json"
        p.write_text(json.dumps({"experiment": "mesh-hotspot"}))
        assert main(["analyze", str(p)]) == 2
        assert "runs" in capsys.readouterr().err

    def test_analyze_eq13_inline_verdict_matches(self, tmp_path, capsys):
        report = self.run_eq13(tmp_path)
        inline = json.loads(report.read_text())["runs"]["1"]["feasibility"]
        capsys.readouterr()
        assert main(["analyze", str(report)]) == 0
        recomputed = json.loads(capsys.readouterr().out)["per_run"]["1"]["feasibility"]
        assert recomputed == inline


class TestPathologyPreset:
    def test_run_reports_diverging_modes(self, tmp_path):
        cfg = base_cfg(tmp_path, experiment="rfb-vs-cfb-pathology", params={})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        run = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]["1"]
        # size accounting stays tight while occupation accounting blows up
        assert run["rfb_estimate"] <= 24
        assert run["cfb_estimate"] >= 10 * run["rfb_estimate"]
        occ = run["fairness"]["sweeps"]["channel_occupation"]
        assert occ["slope_per_cycle"] > 0.1

    def test_carr_variant_contains_occupation(self, tmp_path):
        cfg = base_cfg(tmp_path, experiment="rfb-vs-cfb-pathology",
                       params={"scheduler": "carr"})
        assert main(["run", write_cfg(tmp_path, **cfg)]) == 0
        run = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]["1"]
        assert run["cfb_estimate"] <= 100  # no runaway occupation gap


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# size keys that cut each example to a run of a moment
_SMALL_PARAMS = {
    "mesh-hotspot": {"horizon": 2000, "warmup": 200},
    "eq13-feasibility": {"horizon": 2000, "warmup": 200},
    "arb-convergence": {"trials": 1000},
    "standalone-scheduler": {"workload": {"kind": "random", "packets_per_flow": 20}},
    "rfb-vs-cfb-pathology": {"horizon": 2000},
}


def test_every_example_runs(tmp_path):
    seen = set()
    for path in sorted(EXAMPLES.glob("*.json")):
        cfg = json.loads(path.read_text())
        cfg["output_dir"] = str(tmp_path / path.stem)
        if "schedulers" in cfg:
            verb, name = "compare", "compare"
            cfg["workload"]["horizon"] = 2000
        else:
            verb, name = "run", cfg["experiment"]
            cfg["params"].update(_SMALL_PARAMS[name])
        assert main([verb, write_cfg(tmp_path, path.name, **cfg)]) == 0, path.name
        seen.add(name)
    assert seen == {*_SMALL_PARAMS, "compare"}


# runs each argv through the CLI in a fresh interpreter and records, after the
# imports and after each call, whether numpy is loaded and the exit code
_NUMPY_PROBE = """
import json, sys
import fairmesh, fairmesh.cli
seen = [["import", "numpy" in sys.modules, 0]]
for argv in json.loads(sys.argv[1]):
    code = fairmesh.cli.main(argv)
    seen.append([argv[0], "numpy" in sys.modules, code])
with open(sys.argv[2], "w") as fh:
    json.dump(seen, fh)
"""


def test_mesh_runs_and_analyze_do_not_load_numpy(tmp_path):
    """Only the fairness profile fold and the grant-frequency sampler need
    numpy, so the mesh experiments, `analyze` and `compare`, which reads
    only the two bounds, run without it."""
    mesh = {"k": 4, "horizon": 600, "warmup": 100}
    calls = [
        ["run", write_cfg(tmp_path, "mesh.json", **base_cfg(
            tmp_path, experiment="mesh-hotspot", output_dir=str(tmp_path / "mesh"),
            params=mesh))],
        ["run", write_cfg(tmp_path, "eq13.json", **base_cfg(
            tmp_path, experiment="eq13-feasibility", output_dir=str(tmp_path / "eq13"),
            params=mesh))],
        ["analyze", str(tmp_path / "eq13" / "report.json")],
        ["compare", write_cfg(tmp_path, "cmp.json", schema_version=1, seeds=[1],
                              schedulers=["rr", "drr"],
                              workload={"kind": "pathology", "horizon": 500},
                              output_dir=str(tmp_path / "cmp"))],
    ]
    src = str(Path(fairmesh.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = tmp_path / "seen.json"
    subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(calls), str(result)],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    seen = json.loads(result.read_text())
    assert seen == [["import", False, 0], ["run", False, 0], ["run", False, 0],
                    ["analyze", False, 0], ["compare", False, 0]]
    assert (tmp_path / "cmp" / "report.json").exists()
