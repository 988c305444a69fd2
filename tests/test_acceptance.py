"""Acceptance gate.

One test per numbered criterion.  Each prints exactly one PASS/FAIL line
with the measured values next to the stated tolerances, then asserts.  The
two 200k-cycle hotspot runs are module fixtures so the round-robin baseline
and the weighted-arbitration run are each simulated once and shared.
"""

from collections import defaultdict
import time

import pytest

from fairmesh import presets
from fairmesh.analysis import (
    WeightTable,
    acceptance_ratios,
    check_ratio_constraint,
)
from fairmesh.arbitration import empirical_grant_frequencies
from fairmesh.core import Accounting, Trace, latency_stats, throughput_by_flow
from fairmesh.fairness import rfb_estimate
from fairmesh.meshsim import MeshConfig, MeshSim, run_mesh
from fairmesh.rng import XorShift64Star
from fairmesh.schedulers import make_scheduler

from oracles import (flit_census, hotspot_config, simulate_acceptance_counts,
                     stepped_ejections)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def rr_hotspot():
    t0 = time.perf_counter()
    rep = run_mesh(hotspot_config(seed=1))
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def vw_hotspot():
    t0 = time.perf_counter()
    rep = run_mesh(hotspot_config(seed=1, arbiter="probabilistic"))
    return rep, time.perf_counter() - t0


def _pathology_run(kind: str) -> Trace:
    kw = {"blocked": presets.pathology_blocking()}
    if kind == "drr":
        kw["quantum"] = dict(presets.PATHOLOGY_DRR_QUANTA)
    sched = make_scheduler(kind, **kw)
    sched.load(presets.pathology_workload())
    return sched.run(horizon=presets.PATHOLOGY_HORIZON)


def test_criterion_1_geometric_bandwidth_decay(rr_hotspot, capsys):
    rep, elapsed = rr_hotspot
    shares = rep.shares
    errs = {
        src: abs(shares.get(src, 0.0) - exp) / exp
        for src, exp in enumerate(presets.GEOMETRIC_SHARES)
    }
    worst = max(errs.values())
    # the run repeats every 256 cycles, each window delivering the series exactly
    period, want = 256, [1, 1, 2, 4, 8, 16, 32]
    warmup = rep.config["warmup"]
    windows = [[0] * len(want) for _ in range((rep.config["horizon"] - warmup) // period)]
    for ev in rep.sink_trace().events:
        j = (ev.deliver - 1 - warmup) // period  # the cycle its tail ejected
        if 0 <= j < len(windows):
            windows[j][ev.flow] += 1
    exact = sum(w == want for w in windows)
    ok = (len(shares) == 7 and worst <= 0.15 and elapsed < 30.0
          and exact == len(windows) > 0)
    _verdict(
        capsys, 1, ok,
        "saturated 8-node hotspot, round-robin ports: sink shares match the "
        f"halving series 1/64..1/2, worst per-source error {worst:.2%} "
        f"(tol 15%); {exact} of {len(windows)} {period}-cycle windows after "
        f"warmup deliver exactly {want} packets from sources 0-6; "
        f"run {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_grant_frequency_convergence(capsys):
    t0 = time.perf_counter()
    expected = (0.25, 0.25, 0.5)
    worst = 0.0
    for seed in (1, 2, 3):
        freqs = empirical_grant_frequencies((1.0, 1.0, 2.0), 1_000_000, seed)
        worst = max(worst, max(abs(f - e) for f, e in zip(freqs, expected)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.002 and elapsed < 5.0
    _verdict(
        capsys, 2, ok,
        "probabilistic arbiter, weights 1:1:2, 1e6 trials x 3 seeds: worst "
        f"absolute deviation from (0.25, 0.25, 0.5) is {worst:.4f} "
        f"(tol 0.002), run {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_3_weighted_arbitration_equalizes(rr_hotspot, vw_hotspot, capsys):
    rr, _ = rr_hotspot
    vw, elapsed = vw_hotspot
    vw_ratio = max(vw.shares.values()) / min(vw.shares.values())
    rr_ratio = max(rr.shares.values()) / min(rr.shares.values())
    ok = vw_ratio <= 1.5 and rr_ratio >= 16.0 and elapsed < 60.0
    _verdict(
        capsys, 3, ok,
        "same hotspot under contention-weighted probabilistic arbitration: "
        f"max/min source share {vw_ratio:.2f} (tol <= 1.5) versus "
        f"{rr_ratio:.0f} under round robin (required >= 16), "
        f"run {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_acceptance_recursion_matches_simulation(capsys):
    t0 = time.perf_counter()
    rng = XorShift64Star(2024, stream_id=7)
    worst = 0.0
    for t in range(10):
        entries = {
            (i, j): 1 + rng.randrange(4)
            for j in range(1, 4)
            for i in range(j + 1)
        }
        w = WeightTable(entries)
        exact = [float(x) for x in acceptance_ratios(w, 3).normalized(3)]
        counts = simulate_acceptance_counts(w, 3, 100_000, seed=100 + t)
        total = sum(counts)
        worst = max(
            worst, max(abs(c / total - e) for c, e in zip(counts, exact))
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 10.0
    _verdict(
        capsys, 4, ok,
        "10 random weight tables (entries 1..4, 4 flows): closed-form "
        "acceptance proportions versus 1e5-grant merge simulation, worst "
        f"component gap {worst:.4f} (tol 0.01 absolute), "
        f"run {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_5_elastic_rr_fairness_bounded(capsys):
    t0 = time.perf_counter()
    m = 16
    pkts = presets.backlogged_pair(seed=1, packets_per_flow=500, max_size=m)
    sched = make_scheduler("err")
    sched.load(pkts)
    trace = sched.run()
    rep = rfb_estimate(trace, {0: 1.0, 1: 1.0})
    slope = rep.sweeps[Accounting.PACKET_SIZE.value].slope
    elapsed = time.perf_counter() - t0
    ok = rep.rfb_estimate <= 3 * m and abs(slope) <= 0.01 and elapsed < 10.0
    _verdict(
        capsys, 5, ok,
        "elastic round robin, two backlogged flows, 1000 packets sized "
        f"1..{m}: max fairness gap {rep.rfb_estimate:.0f} (tol {3 * m}), "
        f"gap-vs-window slope {slope:+.5f} units/cycle (tol 0.01), "
        f"run {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_6_occupation_gap_invisible_to_size_accounting(capsys):
    t0 = time.perf_counter()
    m = max(presets.PATHOLOGY_SIZES.values())
    trace = _pathology_run("drr")
    rep = rfb_estimate(trace, dict(presets.PATHOLOGY_WEIGHTS))
    elapsed = time.perf_counter() - t0
    ok = (
        rep.rfb_estimate <= m
        and rep.cfb_estimate >= 3 * m
        and elapsed < 10.0
    )
    _verdict(
        capsys, 6, ok,
        "deficit round robin on the credit-withheld two-flow scenario, one "
        f"window sweep per accounting mode over the same grid: size-mode gap "
        f"{rep.rfb_estimate:.0f} stays under {m} while occupation-mode gap "
        f"{rep.cfb_estimate:.0f} exceeds {3 * m}, "
        f"run {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_7_congestion_aware_rr_protects_clean_flow(capsys):
    t0 = time.perf_counter()
    results = {}
    for kind in ("drr", "carr"):
        trace = _pathology_run(kind)
        results[kind] = (throughput_by_flow(trace), latency_stats(trace.events))
    drr_thr, drr_lat = results["drr"]
    carr_thr, carr_lat = results["carr"]
    degradation = (drr_thr[0] - carr_thr[0]) / drr_thr[0]
    elapsed = time.perf_counter() - t0
    ok = (
        carr_lat[1]["mean"] < drr_lat[1]["mean"]
        and carr_thr[1] > drr_thr[1]
        and degradation <= 0.20
        and elapsed < 10.0
    )
    _verdict(
        capsys, 7, ok,
        "congestion-aware round robin on the same scenario: clean flow mean "
        f"latency {carr_lat[1]['mean']:.1f} < {drr_lat[1]['mean']:.1f} and "
        f"throughput {carr_thr[1]} > {drr_thr[1]}, blocked flow loses "
        f"{degradation:.1%} (tol 20%), run {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_8_no_weights_equalize_occupation(vw_hotspot, capsys):
    rep, _ = vw_hotspot
    verdict = check_ratio_constraint(rep.s_matrix(), eps=0.05)
    ok = (
        not verdict.feasible
        and not verdict.vacuous
        and verdict.witness is not None
    )
    _verdict(
        capsys, 8, ok,
        "occupation-to-sending matrix from the weighted-arbitration hotspot "
        "run: cross-router ratio consistency fails, max deviation "
        f"{verdict.max_deviation:.2f} (tol 0.05) at flow pair "
        f"({verdict.witness[0]},{verdict.witness[1]}) across routers "
        f"({verdict.witness[2]},{verdict.witness[3]}), "
        f"{verdict.pairs_checked} comparisons (reuses the shared run)",
    )


# -- criterion 9: invariant suites ----------------------------------------

N_SEEDS = 100


def _work_conservation_suite() -> int:
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        pkts = presets.random_workload(
            seed, n_flows=3, packets_per_flow=30, max_size=12, spread=600
        )
        for kind in ("rr", "drr", "err", "ebrr", "carr"):
            kw = {"quantum": 10} if kind in ("drr", "ebrr") else {}
            sched = make_scheduler(kind, **kw)
            sched.load(pkts)
            trace = sched.run()
            evs = trace.events
            assert all(ev.deliver is not None for ev in evs), (
                f"{kind} seed {seed}: packet left undelivered"
            )
            for prev, nxt in zip(trace.records, trace.records[1:]):
                g1, g2 = prev.end, nxt.start
                if g2 <= g1:
                    continue
                for ev in evs:
                    assert not (ev.inject <= g1 < ev.deliver), (
                        f"{kind} seed {seed}: idle at {g1} with packet "
                        f"{ev.packet_id} backlogged"
                    )
                    assert not (g1 <= ev.inject < g2), (
                        f"{kind} seed {seed}: arrival at {ev.inject} ignored "
                        f"during idle gap ({g1},{g2})"
                    )
            checked += 1
    return checked


def _drr_deficit_suite() -> int:
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        pkts = presets.random_workload(
            seed, n_flows=3, packets_per_flow=25, max_size=14, spread=400
        )
        flow_max = defaultdict(int)
        for p in pkts:
            flow_max[p.flow] = max(flow_max[p.flow], p.size)
        sched = make_scheduler("drr", quantum=4 + seed % 13, log_visits=True)
        sched.load(pkts)
        sched.run()
        for v in sched.visit_log:
            assert 0 <= v["deficit"] < flow_max[v["flow"]], (
                f"seed {seed}: deficit {v['deficit']} outside "
                f"[0, {flow_max[v['flow']]}) for flow {v['flow']}"
            )
            checked += 1
    return checked


def _err_allowance_suite() -> int:
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        sched = make_scheduler("err", log_visits=True)
        sched.load(presets.backlogged_pair(seed, packets_per_flow=40))
        sched.run()
        by_round: dict[int, dict[int, dict]] = defaultdict(dict)
        for v in sched.visit_log:
            assert v["allowance"] >= 1, f"seed {seed}: allowance below 1"
            by_round[v["round"]][v["flow"]] = v
        for r, visits in by_round.items():
            prev = by_round.get(r - 1)
            if not prev or len(prev) < 2 or len(visits) < 2:
                continue
            max_sc = max(v["surplus"] for v in prev.values())
            for f, v in prev.items():
                if v["surplus"] == max_sc and f in visits:
                    assert visits[f]["allowance"] == 1, (
                        f"seed {seed} round {r}: top-surplus flow {f} got "
                        f"allowance {visits[f]['allowance']}"
                    )
                    checked += 1
    return checked


def _ebrr_single_packet_suite() -> int:
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        pkts = presets.random_workload(
            seed, n_flows=3, packets_per_flow=25, max_size=10, spread=300
        )
        sched = make_scheduler("ebrr", quantum=6 + seed % 9, log_visits=True)
        sched.load(pkts)
        trace = sched.run()
        assert all(v["packets"] == 1 for v in sched.visit_log), (
            f"seed {seed}: a visit moved more than one packet"
        )
        delivered = sum(1 for ev in trace.events if ev.deliver is not None)
        assert len(sched.visit_log) == delivered == len(pkts), (
            f"seed {seed}: {len(sched.visit_log)} visits for "
            f"{delivered} delivered packets"
        )
        checked += len(pkts)
    return checked


def _mesh_cfg(seed: int, **kw) -> MeshConfig:
    return MeshConfig(
        k=3 + seed % 3,
        pattern="uniform" if seed % 2 else "hotspot",
        rate=(0.2, 0.6, 1.0)[seed % 3],
        horizon=250,
        seed=seed,
        **kw,
    )


def _flit_conservation_suite() -> int:
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        sim = MeshSim(_mesh_cfg(seed))
        for _ in range(250):
            sim.step()
            entered, delivered, in_flight = flit_census(sim)
            assert entered == delivered + in_flight, (
                f"seed {seed} cycle {sim.now}: {entered} entered but "
                f"{delivered}+{in_flight} accounted"
            )
            checked += 1
    return checked


def _credit_safety_suite() -> int:
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        cfg = _mesh_cfg(seed)
        sim = MeshSim(cfg)
        for _ in range(250):
            sim.step()
            for row in sim.fifos:
                assert all(len(f) <= cfg.buffer_depth for f in row), (
                    f"seed {seed}: buffer overflow"
                )
            for row in sim.credits:
                assert all(0 <= c <= cfg.buffer_depth for c in row), (
                    f"seed {seed}: credit counter out of range"
                )
            checked += 1
    return checked


def _wormhole_contiguity_suite() -> int:
    # each router has one ejection port, so per router the flit stream must
    # be whole packets back to back; streams of different routers interleave
    # freely in the global log
    checked = 0
    for seed in range(1, N_SEEDS + 1):
        cfg = _mesh_cfg(seed)
        L = cfg.packet_len
        mid_eject: dict[int, int] = {}  # router -> pid holding its port
        progress: dict[int, int] = {}  # pid -> flits seen
        for router, pid, seq in stepped_ejections(MeshSim(cfg)):
            holder = mid_eject.get(router)
            if holder is None:
                assert seq == 0, f"seed {seed}: packet {pid} headless"
                assert pid not in progress, f"seed {seed}: packet {pid} restarted"
                progress[pid] = 1
            else:
                assert pid == holder, (
                    f"seed {seed}: packet {pid} cut in while {holder} held "
                    f"router {router}'s ejection port"
                )
                assert seq == progress[pid], f"seed {seed}: flit order broken"
                progress[pid] += 1
            if progress[pid] == L:
                mid_eject.pop(router, None)
            else:
                mid_eject[router] = pid
        unfinished = set(mid_eject.values())
        for pid, n in progress.items():
            assert n == L or pid in unfinished, (
                f"seed {seed}: packet {pid} truncated at {n}/{L} flits"
            )
        checked += len(progress)
    return checked


def test_criterion_9_invariant_suites(capsys):
    t0 = time.perf_counter()
    counts = {
        "work conservation x5 disciplines": _work_conservation_suite(),
        "DRR deficit bound": _drr_deficit_suite(),
        "ERR allowance floor and top-surplus clamp": _err_allowance_suite(),
        "EBRR single-packet visits": _ebrr_single_packet_suite(),
        "flit conservation": _flit_conservation_suite(),
        "credit safety": _credit_safety_suite(),
        "wormhole contiguity": _wormhole_contiguity_suite(),
    }
    elapsed = time.perf_counter() - t0
    ok = all(c > 0 for c in counts.values()) and elapsed < 60.0
    summary = ", ".join(f"{name} ok" for name in counts)
    _verdict(
        capsys, 9, ok,
        f"7 invariant suites over {N_SEEDS} seeded workloads each: "
        f"{summary}, run {elapsed:.1f}s (budget 60s)",
    )
