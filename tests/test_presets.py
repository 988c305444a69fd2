"""The standalone workloads of `fairmesh.presets`: each builder checks its
counts before it allocates, and a `Workload` knows the flows, packets and
sizes of its builds and the scheduler settings they take."""

import re
import tracemalloc

import pytest

from fairmesh import presets
from fairmesh.meshsim import MeshConfig
from fairmesh.presets import MAX_WORKLOAD_PACKETS, Workload

_PAST = f"the workload must build at most {MAX_WORKLOAD_PACKETS} packets, got "


@pytest.mark.parametrize("call,message", [
    (lambda: presets.random_workload(1, n_flows=17), "n_flows must be <= 16, got 17"),
    (lambda: presets.backlogged_pair(1, packets_per_flow=50_001),
     "packets_per_flow: " + _PAST + "100002"),
    (lambda: presets.pathology_workload(2_666_641), "horizon: " + _PAST + "100001"),
    (lambda: presets.pathology_workload(10**15), "horizon: " + _PAST + "37500000000001"),
    (lambda: presets.random_workload(1, packets_per_flow=10**9),
     "packets_per_flow: " + _PAST + "3000000000"),
    (lambda: presets.random_workload(1, max_size=1025), "max_size must be <= 1024, got 1025"),
    (lambda: presets.backlogged_pair(1, max_size=10**400),
     f"max_size must be <= 1024, got {10**400}"),
    (lambda: presets.random_workload(1, spread=10**12 + 1),
     "spread must be <= 1000000000000, got 1000000000001"),
    (lambda: presets.random_workload(1, spread=0), "spread must be a positive integer, got 0"),
    (lambda: presets.pathology_workload(2.5), "horizon must be a positive integer, got 2.5"),
    (lambda: presets.backlogged_pair(1, packets_per_flow=True),
     "packets_per_flow must be a positive integer, got True"),
], ids=["n_flows", "pair-packets", "pathology-packets", "pathology-huge", "random-packets-huge",
        "max_size", "pair-max_size-huge", "spread", "spread-0", "horizon-float",
        "packets-bool"])
def test_builder_refuses_counts_before_it_allocates(call, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # a build past the bounds takes megabytes, or never ends


@pytest.mark.parametrize("kind,counts", [
    ("random", {}),
    ("random", {"n_flows": 5, "packets_per_flow": 1}),
    ("backlogged-pair", {"packets_per_flow": 3}),
    *(("pathology", {"horizon": h}) for h in (1, 47, 48, 49, 200, 240, 241)),
])
def test_counts_are_those_of_every_build(kind, counts):
    """The CLI checks the weights and quanta of `flows`, and bounds
    `packets` and `max_size`, before any packet is built."""
    w = Workload(kind, **counts)
    for seed in range(1, 6):
        pkts = w.build(seed)
        assert len(pkts) == w.packets
        assert {p.flow for p in pkts} == set(w.flows)
        assert max(p.size for p in pkts) <= w.max_size


def test_counts_default_as_the_builders_do():
    # compare echoes the counts, defaults included, in report.json's header
    assert presets.WORKLOAD_COUNTS == {
        "pathology": {"horizon": 24_000},
        "random": {"n_flows": 3, "packets_per_flow": 200, "max_size": 16, "spread": 4000},
        "backlogged-pair": {"packets_per_flow": 500, "max_size": 16},
    }
    assert Workload("random").build(7) == presets.random_workload(7)
    assert Workload("backlogged-pair").build(7) == presets.backlogged_pair(7)
    assert Workload("pathology").build(7) == presets.pathology_workload()


def test_workload_refuses_a_count_its_builder_does_not_take():
    # the CLI names such a key first; a library caller learns before a build
    with pytest.raises(TypeError, match=r"^random takes the counts \['n_flows', "):
        Workload("random", n_flow=3)
    with pytest.raises(TypeError, match="^pathology takes the counts"):
        Workload("pathology", max_size=4)


def test_scheduler_settings_of_each_kind():
    path = Workload("pathology", horizon=600)
    assert (path.weights, path.quantum, path.horizon) == ({0: 1.5, 1: 1.0}, {0: 24, 1: 16}, 600)
    assert path.blocked == presets.pathology_blocking() and path.max_size == 24
    for w in (Workload("random", n_flows=4, max_size=9), Workload("backlogged-pair", max_size=9)):
        assert w.weights == {f: 1.0 for f in w.flows}
        assert (w.quantum, w.blocked, w.horizon, w.max_size) == (16, None, None, 9)


def test_build_calls_the_builder_set_on_the_module(monkeypatch):
    """perfbench's trace mode times the builds by replacing each builder on
    the module; a build made through a `Workload` must reach the wrapper."""
    called = []
    for name in ("pathology_workload", "random_workload", "backlogged_pair"):
        def wrapper(*args, _real=getattr(presets, name), _name=name, **kw):
            called.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(presets, name, wrapper)
    for kind in ("pathology", "random", "backlogged-pair"):
        Workload(kind).build(1)
    assert called == ["pathology_workload", "random_workload", "backlogged_pair"]


def test_hotspot_defaults_are_the_saturated_line():
    # two keys, as the mesh's own defaults are the rest of the scenario
    cfg = MeshConfig(**presets.HOTSPOT_DEFAULTS)
    assert (cfg.k, cfg.packet_len, cfg.buffer_depth, cfg.pattern, cfg.rate, cfg.arbiter,
            cfg.policy, cfg.horizon, cfg.warmup) == (8, 4, 4, "hotspot", 1.0, "round_robin",
                                                     "vw", 200_000, 20_000)
