import hashlib
import io
import json
import os
import random
import tracemalloc

import pytest

from fairmesh import periodic
from fairmesh.analysis import check_ratio_constraint
from fairmesh.core import Packet, SchedulerKind, TraceError, throughput_by_flow
from fairmesh.fairness import rfb_estimate
from fairmesh.meshsim import (
    DIR_EJ,
    DIR_L,
    DIR_R,
    IN_INJ,
    MeshConfig,
    MeshSim,
    _FlowKernel,
    run_mesh,
)
from fairmesh.rng import XorShift64Star
from fairmesh.schedulers import make_scheduler

from oracles import (flit_census, reference_mesh, run_outputs, stepped_ejections,
                     stepped_outputs, wide_configs)


def quiet_config(**kw):
    base = dict(k=3, packet_len=4, pattern="hotspot", hotspot=2,
                rate=[0.0, 0.0, 0.0], horizon=60, seed=1)
    base.update(kw)
    return MeshConfig(**base)


def run_with_arrivals(sim, arrivals):
    """Run `sim` to its horizon with one more arrival at source n in cycle t
    for each (t, n) of `arrivals`, queued as the cycle's drawn arrivals are."""
    queue_arrivals(sim, arrivals)
    sim.run()


def queue_arrivals(sim, arrivals):
    """Step `sim` up to the last of `arrivals`, queueing each in its cycle."""
    for t, n in sorted(arrivals):
        while sim.now < t:
            sim.step()
        q = sim.queues[n]
        if q and sum(q[-1]) == t:
            q[-1][1] += 1
        else:
            q.append([t, 1])
        sim.fresh.append(n)


class TestConfigValidation:
    def test_defaults_valid(self):
        MeshConfig().validate()

    @pytest.mark.parametrize("kw,frag", [
        (dict(k=1), "k"),
        (dict(packet_len=0), "packet_len"),
        (dict(buffer_depth=0), "buffer_depth"),
        (dict(pattern="tornado"), "pattern"),
        (dict(hotspot=9), "hotspot"),
        (dict(rate=1.5), "rate"),
        (dict(horizon=0), "horizon"),
        (dict(horizon=100, warmup=100), "warmup"),
        (dict(trace_links=[(9, 0)]), "trace link"),
        (dict(quantum=0), "quantum"),
        (dict(k=1025), "k must be <= 1024"),
        (dict(k=1000, horizon=100_001), r"k \* horizon must be <= 100000000"),
        (dict(arbiter="probabilistic", weight_base=0.5), "weight_base must be >= 1"),
        (dict(arbiter="probabilistic", policy="fw", k=700, weight_base=3.0, horizon=100),
         "the largest weight sum"),
        # each weight is finite, but two of them sum to inf
        (dict(arbiter="probabilistic", policy="fw", k=1024, weight_base=2.001, horizon=50),
         r"weight_base \*\* \(k - 1\) \+ weight_base \*\* \(k - 2\), must be finite"),
        (dict(arbiter="bogus"), r"arbiter must be one of \[round_robin, age, probabilistic\]"),
        (dict(policy="bogus"), r"policy must be one of \[fw, cw, vw\]"),
        (dict(scheduler="bogus"), r"scheduler must be one of \[rr, drr, err, ebrr, carr\]"),
        (dict(scheduler="carr", congestion_ratio=0.5), "congestion_ratio must exceed 1"),
        (dict(scheduler="carr", demote_rounds=0), "demote_rounds must be >= 1"),
        # checked whatever the arbiter or scheduler
        (dict(weight_base=float("nan")), "weight_base must be >= 1 and finite"),
        (dict(weight_base=0.5), "weight_base must be >= 1 and finite"),
        (dict(arbiter="probabilistic", weight_base=float("inf")),
         "weight_base must be >= 1 and finite"),
        (dict(congestion_ratio=float("inf")), "congestion_ratio must exceed 1 and be finite"),
        (dict(congestion_ratio=1.0), "congestion_ratio must exceed 1"),
        (dict(demote_rounds=0), "demote_rounds must be >= 1"),
    ])
    def test_errors_name_the_field(self, kw, frag):
        cfg = MeshConfig(**kw)
        with pytest.raises(ValueError, match=frag):
            cfg.validate()

    def test_rate_list_length(self):
        with pytest.raises(ValueError, match="rate"):
            MeshConfig(k=4, rate=[0.5, 0.5]).validate()

    def test_hotspot_defaults_to_last_node(self):
        assert MeshConfig(k=8).dest_of() == 7
        assert MeshConfig(k=8, hotspot=3).dest_of() == 3

    def test_smallest_mesh_builds(self):
        sim = MeshSim(MeshConfig(k=2, rate=[0.2, 0.0], horizon=100))
        rep = sim.run()
        assert rep.delivered[0] > 0


class TestSinglePacket:
    """One packet on an empty path: k=3, L=4, source 0 to node 2."""

    def hand_run(self):
        sim = MeshSim(quiet_config())
        run_with_arrivals(sim, [(0, 0)])  # one arrival at source 0, cycle 0
        return sim

    def test_latency_is_hops_plus_pipeline(self):
        sim = self.hand_run()
        # head crosses at cycles 0,1 and ejects at 2; tail ejects at cycle 5,
        # so delivery completes at time 6 = (3 link+eject hops) + (4 - 1)
        assert sim.stats[0].delivered == 1
        assert sim.stats[0].latency_max == 6

    def test_zero_blocking(self):
        rep = self.hand_run().report()
        assert rep.blocking == {}
        assert sum(rep.sending.values()) == 3 * 4  # 4 flits over 3 hops

    def test_sink_record(self):
        sim = self.hand_run()
        trace = sim.traces[(2, DIR_EJ)]
        assert len(trace.records) == 1
        r = trace.records[0]
        assert (r.flow, r.start, r.end, r.sent_units, r.blocking) == (0, 2, 6, 4, 0)
        assert trace.events[0].deliver == 6

    def test_flit_census_balances(self):
        sim = self.hand_run()
        entered, delivered, in_flight = flit_census(sim)
        assert (entered, delivered, in_flight) == (4, 4, 0)


class TestCycleSemantics:
    def test_zero_injection_only_advances_clock(self):
        sim = MeshSim(quiet_config(horizon=10))
        for _ in range(10):
            sim.step()
        assert sim.now == 10
        assert all(not f for row in sim.fifos for f in row)
        assert all(o is None for row in sim.owner for o in row)

    def test_one_grant_per_contended_port(self):
        # both sources saturated toward node 2: sink ejects at most 1 flit/cycle
        cfg = MeshConfig(k=3, rate=[1.0, 1.0, 0.0], horizon=400, seed=5)
        sim = MeshSim(cfg)
        per_cycle = len(stepped_ejections(sim))
        assert per_cycle <= 400
        rep = sim.report()
        assert rep.delivered[0] > 0 and rep.delivered[1] > 0

    def test_credit_safety(self):
        cfg = MeshConfig(k=4, rate=1.0, horizon=300, seed=2)
        sim = MeshSim(cfg)
        depth = cfg.buffer_depth
        for _ in range(300):
            sim.step()
            assert all(len(f) <= depth for row in sim.fifos for f in row)
            assert all(c >= 0 for row in sim.credits for c in row)

    def test_flit_conservation_every_cycle(self):
        sim = MeshSim(MeshConfig(k=4, pattern="uniform", rate=0.3,
                                 horizon=500, seed=7))
        for _ in range(500):
            sim.step()
            entered, delivered, in_flight = flit_census(sim)
            assert entered == delivered + in_flight

    def test_wormhole_contiguity_at_sink(self):
        cfg = MeshConfig(k=4, rate=1.0, horizon=600, seed=3)
        L = cfg.packet_len
        runs = {}
        last_pid = None
        for router, pid, seq in stepped_ejections(MeshSim(cfg)):
            if pid != last_pid:
                assert seq == 0, "packet must start with its head flit"
                assert pid not in runs, "packet flits must not interleave"
                runs[pid] = 0
                last_pid = pid
            else:
                runs[pid] += 1
                assert seq == runs[pid], "flits must eject in order"
        for pid, n in runs.items():
            if pid != last_pid:
                assert n == L - 1


class TestDeterminism:
    @pytest.mark.parametrize("arb", ["round_robin", "age", "probabilistic"])
    def test_identical_reports(self, arb):
        cfg = dict(k=5, rate=1.0, arbiter=arb, policy="vw",
                   horizon=3000, warmup=300, seed=11)
        a = run_mesh(MeshConfig(**cfg)).to_json()
        b = run_mesh(MeshConfig(**cfg)).to_json()
        assert a == b

    def test_seed_changes_probabilistic_outcome(self):
        base = dict(k=5, rate=1.0, arbiter="probabilistic", policy="vw",
                    horizon=3000, warmup=300)
        a = run_mesh(MeshConfig(seed=1, **base))
        b = run_mesh(MeshConfig(seed=2, **base))
        assert a.delivered != b.delivered


class TestShares:
    def test_two_source_merge_splits_evenly(self):
        rep = run_mesh(MeshConfig(k=3, rate=1.0, arbiter="round_robin",
                                  horizon=8000, warmup=800, seed=1))
        assert rep.shares[0] == pytest.approx(0.5, rel=0.05)
        assert rep.shares[1] == pytest.approx(0.5, rel=0.05)

    def test_port_fairness_halves_per_merge(self):
        rep = run_mesh(MeshConfig(k=4, rate=1.0, arbiter="round_robin",
                                  horizon=12000, warmup=1200, seed=1))
        for n, want in enumerate([0.25, 0.25, 0.5]):
            assert rep.shares[n] == pytest.approx(want, rel=0.1)

    def test_single_source_takes_all(self):
        rep = run_mesh(MeshConfig(k=4, rate=[0.5, 0.0, 0.0, 0.0],
                                  horizon=4000, seed=1))
        assert rep.shares[0] == pytest.approx(1.0)

    def test_zero_injection_reports_empty(self):
        rep = run_mesh(MeshConfig(k=4, rate=0.0, horizon=500, seed=1))
        assert all(v == 0 for v in rep.delivered.values())
        assert rep.sink_trace() is not None
        assert len(rep.sink_trace().records) == 0

    def test_uniform_pattern_delivers_everywhere(self):
        rep = run_mesh(MeshConfig(k=4, pattern="uniform", rate=0.15,
                                  horizon=6000, warmup=500, seed=2))
        assert all(rep.delivered[n] > 0 for n in range(4))


def offered_arrivals(cfg):
    """Arrivals per source from one bernoulli call per cycle on each
    source's injection stream: the oracle of the lane-packed draws."""
    rates = cfg.rates()
    if cfg.pattern == "hotspot":
        rates[cfg.dest_of()] = 0.0
    counts = []
    for n, p in enumerate(rates):
        rng = XorShift64Star(cfg.seed, n)
        counts.append(sum(p > 0 and rng.bernoulli(p) for _ in range(cfg.horizon)))
    return counts


def queued(sim, n):
    runs = list(sim.queues[n])
    # runs ascend and are merged: a gap separates each from the next
    for (a, na), (b, _nb) in zip(runs, runs[1:]):
        assert a + na < b
    assert all(count >= 1 for _first, count in runs)
    # a saturated source keeps the cycle of its oldest arrival not yet a packet
    oldest = sim.oldest[n]
    return sum(count for _first, count in runs) + (0 if oldest is None else sim.now - oldest)


class TestSourceQueues:
    @pytest.mark.parametrize("kw", [
        dict(k=6, pattern="uniform", rate=0.2, seed=4),
        dict(k=6, pattern="uniform", rate=[0.9, 0.05, 0.0, 1.0, 0.5, 0.3], seed=8),
        dict(k=5, rate=[1.0, 0.4, 0.7, 1.0, 0.0], seed=2),
    ], ids=["uniform", "uniform-mixed", "hotspot"])
    def test_arrivals_are_delivered_in_flight_or_queued(self, kw):
        cfg = MeshConfig(horizon=900, **kw)
        sim = MeshSim(cfg)
        sim.run()
        arrivals = offered_arrivals(cfg)
        assert sum(arrivals) > 100
        for n in range(cfg.k):
            delivered = sim.stats[n].delivered
            in_flight = sum(src == n for src, *_ in sim.packets.values())
            assert arrivals[n] == delivered + in_flight + queued(sim, n)
        assert sum(sim.stats[n].delivered for n in range(cfg.k)) > 0

    def test_saturated_source_holds_one_run(self):
        horizon = 500
        depth = {}
        for h in (horizon, 4 * horizon):
            sim = MeshSim(MeshConfig(k=8, rate=1.0, horizon=h, seed=1))
            sim.run()
            assert all(len(q) <= 1 for q in sim.queues)
            depth[h] = sum(queued(sim, n) for n in range(8))
        # the backlog grows with the horizon, the run count does not
        assert depth[4 * horizon] > 3 * depth[horizon] > 0

    def test_step_past_the_horizon_is_refused(self):
        sim = MeshSim(quiet_config(horizon=5))
        sim.step()
        sim.run()  # runs the cycles left
        assert sim.now == 5
        with pytest.raises(RuntimeError, match="horizon"):
            sim.step()


class TestServiceCounters:
    def test_unblocked_flow_has_unit_ratio(self):
        # packets spaced far apart never wait anywhere
        sim = MeshSim(quiet_config(horizon=200))
        run_with_arrivals(sim, [(0, 0), (50, 0), (100, 0)])
        S = sim.report().s_matrix()
        assert S[0] == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_contended_flow_ratio_above_one(self):
        rep = run_mesh(MeshConfig(k=3, rate=1.0, arbiter="round_robin",
                                  horizon=4000, warmup=400, seed=1))
        S = rep.s_matrix()
        assert S[0][1] > 1.5
        assert S[1][1] > 1.5

    def test_never_visited_marked_undefined(self):
        rep = run_mesh(MeshConfig(k=3, rate=[0.0, 0.4, 0.0], horizon=2000, seed=1))
        S = rep.s_matrix()
        assert S[1][0] is None  # flow 1 never crosses router 0

    def test_grant_counts_track_deliveries(self):
        cfg = MeshConfig(k=4, rate=1.0, arbiter="round_robin",
                         horizon=5000, warmup=500, seed=4)
        rep = run_mesh(cfg)
        sink = cfg.dest_of()
        for src in range(3):
            grants = rep.packets_through.get((src, sink), 0)
            # ejection grants and completed deliveries differ by at most the
            # packets still in flight at the horizon
            assert abs(grants - rep.delivered[src]) <= 2

    @pytest.mark.parametrize("kw", [
        dict(arbiter="round_robin"), dict(arbiter="age"), dict(arbiter="probabilistic"),
        dict(scheduler="carr"),
    ], ids=["rr", "age", "vw", "fq-carr"])
    def test_report_before_warmup_counts_from_cycle_0(self, kw):
        # waits still open count from cycle 0, as sending and grants do
        reports = []
        for warmup in (900, 0):
            sim = MeshSim(MeshConfig(k=6, rate=1.0, seed=2, horizon=1000, warmup=warmup, **kw))
            for _ in range(500):
                sim.step()
            reports.append(sim.report())
        early, zero = reports
        assert sum(zero.blocking.values()) > 0
        assert early.sending == zero.sending
        assert early.blocking == zero.blocking
        assert early.packets_through == zero.packets_through

    def test_ratio_consistency_depends_on_arbitration(self):
        # round-robin merging is input-blind, so every flow's
        # occupation-to-sending ratio scales identically across routers and
        # the matrix admits an equalizing weight assignment; weighting grants
        # by accumulated contention breaks that proportionality
        base = dict(k=4, rate=1.0, policy="vw", horizon=8000, warmup=1000, seed=1)
        rr = check_ratio_constraint(
            run_mesh(MeshConfig(arbiter="round_robin", **base)).s_matrix()
        )
        assert rr.feasible and rr.max_deviation < 0.05
        vw = check_ratio_constraint(
            run_mesh(MeshConfig(arbiter="probabilistic", **base)).s_matrix()
        )
        assert not vw.feasible and vw.max_deviation > 0.5
        assert vw.witness is not None


class TestFlowQueueMode:
    @pytest.mark.parametrize("sched", ["rr", "drr", "err", "ebrr", "carr"])
    def test_per_flow_scheduling_equalizes_hotspot(self, sched):
        rep = run_mesh(MeshConfig(k=4, rate=1.0, scheduler=sched,
                                  horizon=12000, warmup=1200, seed=3))
        for n in range(3):
            assert rep.shares[n] == pytest.approx(1 / 3, rel=0.1)

    def test_port_arbitration_does_not(self):
        rep = run_mesh(MeshConfig(k=4, rate=1.0, arbiter="round_robin",
                                  horizon=12000, warmup=1200, seed=3))
        assert rep.shares[2] > 1.5 * rep.shares[0]

    def test_flow_queue_conserves_flits(self):
        sim = MeshSim(MeshConfig(k=4, rate=1.0, scheduler="drr",
                                 horizon=400, seed=6))
        for _ in range(400):
            sim.step()
            entered, delivered, in_flight = flit_census(sim)
            assert entered == delivered + in_flight

    def test_flow_queue_deterministic(self):
        cfg = dict(k=4, rate=1.0, scheduler="ebrr", horizon=3000,
                   warmup=300, seed=9)
        assert run_mesh(MeshConfig(**cfg)).to_json() == run_mesh(MeshConfig(**cfg)).to_json()


class TestKernelMatchesStandalone:
    """Always-ready flows of L-unit packets: the mesh kernel at one output
    serves flows in the order the standalone engine does."""

    L = 4

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    @pytest.mark.parametrize("quantum", [1, 2, 3, L, 2 * L, 3 * L])
    def test_service_order(self, kind, quantum):
        L, n_flows, n_pkts = self.L, 3, 30
        pkts = [Packet(id=f * n_pkts + j, flow=f, size=L)
                for f in range(n_flows) for j in range(n_pkts)]
        params = {}
        if kind in (SchedulerKind.DRR, SchedulerKind.EBRR):
            params["quantum"] = quantum
        sched = make_scheduler(kind, **params)
        sched.load(pkts)
        want = [r.flow for r in sched.run().records
                for _ in range(r.sent_units // L)]
        assert len(want) == n_flows * n_pkts
        kern = _FlowKernel(kind, L, quantum, tau=2.0, demote_rounds=2)
        ready = list(range(n_flows))
        assert [ready[kern.choose(ready)] for _ in want] == want


class TurnByTurnKernel(_FlowKernel):
    """The rotation one turn at a time: the oracle of `_FlowKernel.choose`,
    which takes the turns of flows without a packet at once."""

    def choose(self, flows):
        kind, L, balance = self.kind, self.L, self.balance
        for f in flows:
            if f not in balance:
                balance[f] = self.q if kind is SchedulerKind.EBRR else 0
                self.order.append(f)
                self.visits_left += 1
        f = self.current
        if f is not None:
            if f in flows and balance[f] >= L:
                balance[f] -= L
                return flows.index(f)
            if f not in flows:
                balance[f] = 0
            self.current = None

        def congested(g):
            return self.congested_until.get(g, 0) > self.round

        while True:
            if self.visits_left <= 0:
                self.round += 1
                self.visits_left = len(self.order)
            f = self.order[0]
            self.order.rotate(-1)
            self.visits_left -= 1
            if kind is SchedulerKind.EBRR and balance[f] <= 0:
                balance[f] += self.q
                continue
            if f not in flows:
                if kind is SchedulerKind.DRR:
                    balance[f] = 0
                continue
            if kind is SchedulerKind.DRR:
                balance[f] += self.q
                if balance[f] < L:
                    continue
                balance[f] -= L
                self.current = f
            elif kind is SchedulerKind.EBRR:
                balance[f] -= L
            elif kind is SchedulerKind.CARR and congested(f) and any(
                not congested(g) for g in flows
            ):
                continue
            return flows.index(f)


class TestKernelRotation:
    """Flows with and without a packet at each grant, and CARR demotions:
    the kernel grants what a turn-by-turn rotation grants, in the same state."""

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    @pytest.mark.parametrize("quantum", [1, 4, 9])
    def test_matches_turn_by_turn(self, kind, quantum):
        for seed in range(6):
            rng = random.Random(seed)
            args = (kind, 4, quantum, 2.0, 2)
            fast, slow = _FlowKernel(*args), TurnByTurnKernel(*args)
            flows = list(range(2 + seed))
            for _ in range(400):
                picked = rng.sample(flows, rng.randint(1, len(flows)))
                assert fast.choose(picked) == slow.choose(picked)
                if rng.random() < 0.3:
                    f, sent = rng.choice(flows), 4
                    duration = sent * rng.choice([1, 3])  # 3 exceeds tau
                    fast.note_service(f, duration, sent)
                    slow.note_service(f, duration, sent)
                for name in ("order", "round", "visits_left", "balance",
                             "congested_until", "current"):
                    assert getattr(fast, name) == getattr(slow, name), name


class TestLoneRequest:
    """Mostly lone requests, from a pool of flows that grows as the port
    runs, with CARR demotions: the kernel grants what a turn-by-turn rotation
    grants, in the same state after every grant."""

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    @pytest.mark.parametrize("quantum", [1, 4, 9])
    def test_matches_turn_by_turn(self, kind, quantum):
        for seed in range(10):
            rng = random.Random(seed)
            args = (kind, 4, quantum, 2.0, 2)
            fast, slow = _FlowKernel(*args), TurnByTurnKernel(*args)
            flows = [rng.randrange(50)]
            lone = 0
            for _ in range(500):
                if rng.random() < 0.05:  # a new flow's first request is next
                    flows.append(rng.choice([f for f in range(50) if f not in flows]))
                    picked = [flows[-1]]
                elif rng.random() < 0.7:
                    picked = [rng.choice(flows)]
                else:
                    picked = rng.sample(flows, rng.randint(1, len(flows)))
                lone += len(picked) == 1
                assert fast.choose(picked) == slow.choose(picked)
                if rng.random() < 0.3:
                    f, sent = rng.choice(flows), 4
                    duration = sent * rng.choice([1, 3])  # 3 exceeds tau
                    fast.note_service(f, duration, sent)
                    slow.note_service(f, duration, sent)
                for name in ("order", "round", "visits_left", "balance",
                             "congested_until", "current"):
                    assert getattr(fast, name) == getattr(slow, name), name
            assert lone > 300


class TestWorkConservation:
    @pytest.mark.parametrize("kw", [dict(scheduler="ebrr"),
                                    dict(scheduler="drr", quantum=1)])
    def test_lone_saturated_source_matches_rr(self, kw):
        # a port with a ready packet is never left idle, whatever the quantum
        base = dict(k=2, rate=1.0, horizon=8000, warmup=800, seed=1)
        want = run_mesh(MeshConfig(scheduler="rr", **base)).delivered
        assert run_mesh(MeshConfig(**base, **kw)).delivered == want


class TestReport:
    def test_json_round_trip(self):
        rep = run_mesh(MeshConfig(k=3, rate=1.0, horizon=2000, warmup=200, seed=1))
        blob = json.loads(rep.to_json())
        assert blob["cycles"] == 2000
        assert blob["drops"] == 0
        assert "s_matrix" in blob and "shares" in blob

    def test_shares_csv_shape(self, tmp_path):
        rep = run_mesh(MeshConfig(k=4, rate=1.0, horizon=2000, warmup=200, seed=1))
        out = tmp_path / "shares.csv"
        with out.open("w") as fh:
            rep.shares_csv(fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "source,share,mean_latency,max_latency"
        assert len(lines) == 4  # header + 3 sources

    def test_custom_trace_links(self):
        cfg = MeshConfig(k=3, rate=1.0, horizon=2000, warmup=0, seed=1,
                         trace_links=[(1, DIR_R), (2, DIR_EJ)])
        rep = run_mesh(cfg)
        assert len(rep.traces[(1, DIR_R)].records) > 0
        assert len(rep.traces[(2, DIR_EJ)].records) > 0

    def test_sink_records_satisfy_identity(self):
        rep = run_mesh(MeshConfig(k=4, rate=1.0, horizon=3000, warmup=300, seed=2))
        trace = rep.sink_trace()
        assert len(trace.records) > 10
        for r in trace.records:
            assert r.sent_units == 4
            assert r.end - r.start - r.blocking == r.sent_units


_HOT = dict(k=8, rate=1.0, horizon=2000, warmup=200, seed=1)
_UNI = dict(k=16, pattern="uniform", rate=0.05, horizon=2000, warmup=200, seed=1)


class TestGoldenReports:
    """Byte-identical report.json plus sink trace for fixed configs.

    A change that moves one of these hashes changes simulated behaviour;
    record new hashes only together with a stated reason.
    """

    @pytest.mark.parametrize("kw,want", [
        (dict(_HOT, arbiter="round_robin"),
         "db847c87c9809e03ab4bca7feaeb2a2b4cc2db218b3059099d8e077891cd89de"),
        (dict(_HOT, arbiter="age"),
         "fc5a80ef87d85142498337a331c16e0ff1de78787b677a9ca08f325d2866d379"),
        (dict(_HOT, arbiter="probabilistic", policy="vw"),
         "bb48727fd52bae6cf5a8d30a432fe07df51706740163a32033d318cf1a2b5e26"),
        (dict(_HOT, arbiter="probabilistic", policy="fw"),
         "45d11decd3fc1a60b86600f263f2a2e8e48944b599e760bd5615b8ed4040760c"),
        (dict(_UNI, arbiter="probabilistic"),
         "5f94676ad5e233c685a751056388ce28722b6793a4b33cff81f2787e15ed40e0"),
        (dict(_UNI, scheduler="drr", quantum=1),
         "3901fb23d7c7d0a224631e6cf450f21e4812f998560c05747a223e5874097a68"),
        (dict(_UNI, scheduler="ebrr"),
         "dae69bc672bd19f1990cce6d38db60ac3f7eb21efac5c510e814ecd0d01cf414"),
        (dict(_UNI, scheduler="carr"),
         "22290e4c7eeb19a1cccf473f4cbe6f9425862b3a4bdaf7f28179d044683714f2"),
        (dict(_HOT, arbiter="probabilistic", policy="cw"),
         "77e346ffa26d994b087deef86a8272119500fd8987976be9135ed3e8a447638e"),
        (dict(_HOT, arbiter="probabilistic", policy="fw", weight_base=3.0),
         "e155aee220fd2ca776988a045512f9cbf9d14d23522de6a0d7de89bedcb29f33"),
        (dict(_UNI, k=12, rate=0.2, arbiter="age"),
         "22f6d2b95dd8989b0fba3f79b6ef283ecb81a54a0cbb4f827261d38be8ba0b07"),
    ], ids=["hotspot-rr", "hotspot-age", "hotspot-vw", "hotspot-fw",
            "uniform-prob", "uniform-drr-q1", "uniform-ebrr", "uniform-carr",
            "hotspot-cw", "hotspot-fw-base3", "uniform-age"])
    def test_report_hash(self, kw, want):
        rep = run_mesh(MeshConfig(**kw))
        csv_buf = io.StringIO()
        rep.sink_trace().to_csv(csv_buf)
        blob = (rep.to_json() + csv_buf.getvalue()).encode()
        assert hashlib.sha256(blob).hexdigest() == want

    # Cases where a router wakes from an idle cycle: one-slot buffers,
    # one-flit packets, a warmup inside a packet, the smallest line, traced
    # middle links and a horizon that ends with heads still waiting.
    @pytest.mark.parametrize("kw,want", [
        (dict(_HOT, buffer_depth=1),
         "1f624734d41ebf5445ada0b9251b3e06319d0e2b039e31f485582e1b536efb92"),
        (dict(_HOT, packet_len=1, arbiter="probabilistic"),
         "e94b7d02278f8a14e4a7a87adc5c4e03feb849e563c194f33b2222295ca5246d"),
        (dict(_HOT, packet_len=3, buffer_depth=2, arbiter="age"),
         "3dfca6250b5fb31fcc07156a9c876b8335a0e06aaadd1daee4caf6bc5a21f2a7"),
        (dict(_HOT, warmup=0),
         "def26997c12545221cdc380366a25f390e9cabf9838cb8170d851d9416abfeb6"),
        (dict(_HOT, warmup=37, arbiter="probabilistic", policy="fw"),
         "30b30972a522e337e13f36b3e96076f8fcef50a05bb8f2653f810419e2236777"),
        (dict(_HOT, k=2),
         "9ce54b1bf101b068aa28d7acc85a06df94bbb2e6e560e10a74ce2e8ee4ac0fa9"),
        (dict(_UNI, k=8, rate=0.15, trace_links=[(3, DIR_L), (3, DIR_R)]),
         "a98609d274d198ec79b74ac82231294834b4ae073e123d01ca6eafe62ff2c0d5"),
        (dict(_UNI, k=8, rate=0.15, packet_len=1, scheduler="carr",
              trace_links=[(4, DIR_L), (4, DIR_R), (7, DIR_EJ)]),
         "cc771934267e2c68e7c77882830d09aaec5e290cd8f0a49c5eab41103afe5e8b"),
        (dict(_HOT, horizon=150, warmup=10),
         "acef0f1244eb37994f70b934480e550e455282d4e1e3aacd4e906768e2bcd000"),
        (dict(_HOT, horizon=150, warmup=10, scheduler="drr", quantum=1),
         "024e9e3994c38b50b82f9d36583ecdb5eb8a4b145a41eb3d69ad13d50fad917a"),
    ], ids=["depth1", "len1-vw", "len3-depth2-age", "warmup0", "warmup37-fw",
            "k2", "uniform-mid-links", "uniform-len1-carr", "short-rr",
            "short-drr-q1"])
    def test_full_output_hash(self, kw, want):
        parts = stepped_outputs(MeshConfig(**kw))
        assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == want
        assert run_outputs(run_mesh(MeshConfig(**kw))) == parts[:-1]


def recount_channel_time(sim):
    """Run `sim` to its horizon one cycle at a time and recount the
    per-(flow, router) sending and blocking cycles from its public state.

    Every input head present at the start of a post-warmup cycle is either
    sent (the input shows another flit, or none, after the cycle) or blocked.
    A source's head packet is made inside the cycle, so packets new in the
    live table join that cycle's heads with their first flit.  A packet whose
    tail ejects leaves the table, so each head's source is read before the
    step.
    """
    L, k, warmup = sim.L, sim.cfg.k, sim.cfg.warmup
    sending, blocking = {}, {}

    def heads():
        out = {}
        for r in range(k):
            for i, fifo in enumerate(sim.fifos[r]):
                if fifo:
                    out[(r, i)] = fifo[0]
            if sim.inj_pkt[r] >= 0:  # its owner record counts the flits sent
                rec = sim.holder[r][IN_INJ]
                out[(r, IN_INJ)] = sim.inj_pkt[r] * L + (rec[1] if rec else 0)
        return out

    while sim.now < sim.cfg.horizon:
        now, before, made = sim.now, heads(), sim.made
        src = {pos: sim.packets[flit // L][0] for pos, flit in before.items()}
        sim.step()
        for pid in range(made, sim.made):
            r = sim.packets[pid][0]
            before[(r, IN_INJ)], src[(r, IN_INJ)] = pid * L, r
        if now < warmup:
            continue
        after = heads()
        for (r, i), flit in before.items():
            tally = blocking if after.get((r, i)) == flit else sending
            key = (src[(r, i)], r)
            tally[key] = tally.get(key, 0) + 1
    return sending, blocking


class TestChannelTimeOracle:
    @pytest.mark.parametrize("kw", [
        dict(k=6, rate=1.0, arbiter="round_robin", warmup=150),
        dict(k=6, rate=1.0, arbiter="age", warmup=37),
        dict(k=6, rate=1.0, arbiter="probabilistic", policy="vw", warmup=0),
        dict(k=8, pattern="uniform", rate=0.2, arbiter="probabilistic", warmup=150),
        dict(k=8, pattern="uniform", rate=0.2, scheduler="carr", warmup=150),
        dict(k=6, rate=1.0, scheduler="drr", quantum=1, packet_len=3,
             buffer_depth=2, warmup=41),
    ], ids=["hotspot-rr", "hotspot-age", "hotspot-vw", "uniform-vw",
            "uniform-carr", "hotspot-drr-len3"])
    def test_counters_match_recount(self, kw):
        sim = MeshSim(MeshConfig(horizon=1200, seed=3, **kw))
        sending, blocking = recount_channel_time(sim)
        rep = sim.report()
        assert sum(blocking.values()) > 0
        assert rep.sending == sending
        assert rep.blocking == blocking


class TestFastForward:
    """`run` skips the whole periods of a run that draws no random number;
    what it writes is what stepping every cycle writes."""

    @staticmethod
    def stepped(cfg):
        """What stepping writes, then the live packets and the next id it
        leaves; under round robin the signature does not compare inject
        cycles, so these check the re-keyed ones."""
        sim = MeshSim(cfg)
        for _ in range(cfg.horizon):
            sim.step()
        return run_outputs(sim.report()) + [sim.packets, sim.made]

    @staticmethod
    def spy_skips(monkeypatch):
        """The (cycle, period) of every skip `run` makes from now on."""
        seen = []
        skip = periodic.skip

        def spy(sim, mark, period):
            seen.append((sim.now, period))
            skip(sim, mark, period)

        monkeypatch.setattr(periodic, "skip", spy)
        return seen

    def check_horizons(self, monkeypatch, base):
        """Horizons inside the transient, at a period edge, one cycle past it
        and one cycle short of the next, from where a long run finds the
        repeat."""
        seen = self.spy_skips(monkeypatch)
        MeshSim(MeshConfig(horizon=6000, **base)).run()
        (found, period), = seen
        # a long enough horizon finds the repeat at the same cycle
        edge = found + period * -(-2 * found // period)
        for horizon in (found - 1, edge, edge + 1, edge + period - 1):
            seen.clear()
            cfg = MeshConfig(horizon=horizon, **base)
            sim = MeshSim(cfg)
            fast = run_outputs(sim.run()) + [sim.packets, sim.made]
            assert fast == self.stepped(cfg), horizon
            assert seen == ([] if horizon < found else [(found, period)])

    @pytest.mark.parametrize("warmup", [0, 150])
    @pytest.mark.parametrize("arbiter", ["round_robin", "age"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_stepping(self, monkeypatch, k, arbiter, warmup):
        self.check_horizons(monkeypatch, dict(
            k=k, rate=1.0, arbiter=arbiter, warmup=warmup,
            trace_links=[(k // 2, DIR_R), (k - 1, DIR_EJ)]))

    # traffic both ways into a middle sink, traces without the sink's,
    # one-flit packets, one-slot buffers and idle sources
    @pytest.mark.parametrize("kw", [
        dict(k=6, hotspot=3, trace_links=[(2, DIR_R), (4, DIR_L), (3, DIR_EJ)]),
        dict(k=5, trace_links=[(1, DIR_R), (3, DIR_R)]),
        dict(k=5, packet_len=1, arbiter="age"),
        dict(k=5, buffer_depth=1),
        dict(k=6, packet_len=3, buffer_depth=2, arbiter="age", warmup=41),
        dict(k=6, rate=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
        dict(k=3, hotspot=1, packet_len=8, buffer_depth=3, arbiter="age", warmup=6,
             trace_links=[(r, o) for r in range(3) for o in (DIR_L, DIR_R, DIR_EJ)]),
    ], ids=["middle-sink", "no-sink-trace", "len1-age", "depth1", "len3-depth2-age",
            "idle-sources", "len8-every-link-age"])
    def test_matches_stepping_on_other_lines(self, monkeypatch, kw):
        self.check_horizons(monkeypatch, dict(rate=1.0, warmup=20) | kw)

    @pytest.mark.parametrize("arbiter", ["round_robin", "age"])
    def test_live_table_holds_the_undelivered_packets(self, arbiter):
        # the saturated line backs up into its source queues, not the table
        k, depth = 8, 4
        sizes = {}
        for horizon in (20_000, 200_000):
            sim = MeshSim(MeshConfig(k=k, rate=1.0, buffer_depth=depth, arbiter=arbiter,
                                     horizon=horizon))
            sim.run()
            held = {p for p in sim.inj_pkt if p >= 0}
            held |= {f // sim.L for row in sim.fifos for q in row for f in q}
            held |= {row[DIR_EJ][0] for row in sim.owner if row[DIR_EJ] is not None}
            assert set(sim.packets) == held
            delivered = sum(st.delivered for st in sim.stats.values())
            assert sim.made == delivered + len(sim.packets)
            sizes[horizon] = len(sim.packets)
        # at most a source head and a packet per buffered flit, whatever the horizon
        assert all(0 < n <= k + 2 * k * depth for n in sizes.values()), sizes

    @pytest.mark.parametrize("counts", [(12, 0), (30, 5)])
    def test_queued_arrivals_match_stepping(self, counts):
        # sources of rate 0 with arrivals queued by hand, one a cycle: a
        # repeat needs the same queues, not only the same network
        arrivals = [(t, n) for n, c in enumerate(counts) for t in range(c)]
        cfg = quiet_config(horizon=600)
        fast, stepped = MeshSim(cfg), MeshSim(cfg)
        run_with_arrivals(fast, arrivals)
        queue_arrivals(stepped, arrivals)
        while stepped.now < cfg.horizon:
            stepped.step()
        assert run_outputs(fast.report()) == run_outputs(stepped.report())

    # perfbench's hotspot-vw and uniform-fq, the hotspot under each
    # flow-queue discipline, and arrivals drawn at rates below 1
    @pytest.mark.parametrize("kw", [
        dict(k=8, arbiter="probabilistic", policy="vw"),
        dict(k=16, pattern="uniform", rate=0.03, scheduler="carr"),
        dict(k=8, rate=1.0, pattern="uniform", arbiter="age"),
        dict(k=8, rate=0.5),
    ] + [dict(k=8, scheduler=s.value) for s in SchedulerKind],
        ids=["hotspot-vw", "uniform-fq", "uniform-age", "lanes"]
        + [f"hotspot-fq-{s.value}" for s in SchedulerKind])
    def test_random_or_flow_queue_runs_never_search(self, monkeypatch, kw):
        def refuse(sim):
            raise AssertionError("a run that may not repeat computed a signature")

        monkeypatch.setattr(periodic, "signature", refuse)
        assert run_mesh(MeshConfig(horizon=1500, warmup=150, **kw)).cycles == 1500


class TestStreamedMemory:
    """A trace that streams keeps no record or event, so the peak memory of
    a run does not grow with its horizon."""

    @staticmethod
    def peak(cfg):
        """The tracemalloc peak of `cfg`'s run, with its traces streamed.  The
        file is line-buffered, so the text layer holds no pending rows: they
        are bounded too, but fill its chunk only after some 300 rows."""
        with open(os.devnull, "w", buffering=1) as fh:
            tracemalloc.start()
            try:
                run_mesh(cfg, lambda link: fh)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_nothing_kept_while_searching(self, monkeypatch):
        cfg = MeshConfig(k=8, rate=1.0, horizon=6000, warmup=100,
                         trace_links=[(3, DIR_R), (7, DIR_EJ)])
        kept = run_mesh(cfg).traces
        files, seen = {}, []
        skip = periodic.skip

        def spy(sim, mark, period):
            seen.append(period)
            assert all(t.records is None and t.events == [] for t in sim.traces.values())
            skip(sim, mark, period)

        monkeypatch.setattr(periodic, "skip", spy)
        run_mesh(cfg, lambda link: files.setdefault(link, io.StringIO()))
        assert len(seen) == 1 and sorted(files) == [(3, DIR_R), (7, DIR_EJ)]
        for link, fh in files.items():
            want = io.StringIO()
            kept[link].to_csv(want)
            assert fh.getvalue() == want.getvalue(), link

    @pytest.mark.parametrize("read", [
        lambda t: t.to_csv(io.StringIO()),
        lambda t: t.flows(),
        lambda t: t.boundaries(),
        lambda t: rfb_estimate(t, {0: 1.0, 1: 1.0}),
        lambda t: throughput_by_flow(t),
    ], ids=["to_csv", "flows", "boundaries", "rfb_estimate", "throughput_by_flow"])
    def test_reading_records_of_a_streamed_trace_says_so(self, read):
        trace = run_mesh(MeshConfig(horizon=200, warmup=20), lambda link: io.StringIO()).sink_trace()
        assert trace.records is None and len(trace) > 0
        with pytest.raises(TraceError, match="streams its records .* and keeps none"):
            read(trace)

    # a round-robin line that skips periods, and a flow-queue line that
    # steps every cycle, as it never searches
    @pytest.mark.parametrize("kw,horizons", [
        (dict(k=3, packet_len=64), (20_000, 200_000)),
        (dict(k=3, packet_len=16, scheduler="carr"), (600, 3000)),
    ], ids=["rr", "fq-carr"])
    def test_peak_does_not_grow_with_the_horizon(self, kw, horizons):
        self.peak(MeshConfig(horizon=200, warmup=100, **kw))  # what a first run compiles
        short, long = (self.peak(MeshConfig(horizon=h, warmup=100, **kw)) for h in horizons)
        assert abs(long - short) < 0.1 * short, (short, long)


@pytest.fixture(scope="module")
def wide_stepped():
    """`stepped_outputs` of each of `wide_configs()`."""
    return [stepped_outputs(MeshConfig(**kw)) for kw in wide_configs()]


class TestWideDigest:
    """One sha256 over what a wide spread of seeded random configs write:
    each report, every traced link's records and events, and the per-flit
    ejections.  The hash was recorded before the mesh's data layout was
    reworked; a change that moves it changes simulated behaviour."""

    def test_digest(self, wide_stepped):
        h = hashlib.sha256()
        configs = wide_configs()
        for parts in wide_stepped:
            h.update("\n".join(parts).encode())
        kinds = {kw.get("arbiter", kw.get("scheduler")) for kw in configs}
        assert len(kinds) == 8
        assert h.hexdigest() == (
            "71dbfcba1b62016bc680e38c93ae19fe5c488faa45f5029676e1430af3ffe7f6")


class TestReferenceMesh:
    """`MeshSim` against `reference_mesh`, a plain stepper that processes
    every router every cycle, on the wide configs: stepped, with the
    ejections, and through `run()`, which may fast-forward."""

    def test_stepped_equals_reference(self, wide_stepped):
        for kw, stepped in zip(wide_configs(), wide_stepped):
            assert run_outputs(*reference_mesh(MeshConfig(**kw))) == stepped, kw

    def test_run_equals_stepped(self, wide_stepped, monkeypatch):
        skips = TestFastForward.spy_skips(monkeypatch)
        for kw, stepped in zip(wide_configs(), wide_stepped):
            assert run_outputs(run_mesh(MeshConfig(**kw))) == stepped[:-1], kw
        assert skips  # some of the runs fast-forwarded
