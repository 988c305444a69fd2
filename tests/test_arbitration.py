import math

import numpy as np
import pytest

from fairmesh.arbitration import (
    MAX_GRANT_TRIALS,
    AgeArbiter,
    ArbiterKind,
    ProbabilisticArbiter,
    RoundRobinArbiter,
    WeightPolicy,
    empirical_grant_frequencies,
    grant_probabilistic,
)
from fairmesh.meshsim import _SID_ARB, MAX_ROUTER_CYCLES, MeshConfig, MeshSim
from fairmesh.rng import XorShift64Star


def weights(policy, routes, base=2.0):
    return ProbabilisticArbiter(policy, base).weights(routes)


class TestWeights:
    def test_traversed_distance_exponent(self):
        assert weights(WeightPolicy.CW, [(5, 3, 1.0)]) == [8]

    def test_full_route_exponent(self):
        assert weights(WeightPolicy.FW, [(5, 3, 1.0)]) == [32]

    @pytest.mark.parametrize("policy", list(WeightPolicy))
    def test_zero_hops_weighs_one(self, policy):
        assert weights(policy, [(0, 0, 1.0)]) == [1]

    def test_contention_product_under_vw_only(self):
        route = (4, 2, 6.0)
        assert weights(WeightPolicy.VW, [route]) == [6.0]
        # static-base policies ignore the product
        assert weights(WeightPolicy.CW, [route]) == [4]


class TestProbabilisticGrant:
    def test_single_request_always_granted(self):
        rng = XorShift64Star(1)
        assert grant_probabilistic([3.0], rng) == 0

    def test_empty_is_caller_bug(self):
        with pytest.raises(ValueError):
            grant_probabilistic([], XorShift64Star(1))

    def test_nonpositive_weight_rejected(self):
        # NaN and infinite weights used to pass and skew the wheel
        for weights, bad in (([1.0, 0.0], 0.0), ([math.inf, 1.0], math.inf),
                             ([1.0, math.nan], math.nan)):
            with pytest.raises(ValueError, match=f"arbitration weight {bad!r} is not"):
                grant_probabilistic(weights, XorShift64Star(1))

    def test_weights_whose_sum_overflows_rejected(self):
        # each weight is finite, but their sum is not: every draw used to
        # land past the last bucket and grant the last request
        with pytest.raises(ValueError, match="arbitration weights must have a finite sum"):
            grant_probabilistic([1e308, 1e308], XorShift64Star(1, 0))

    def test_replay_identical(self):
        rng1 = XorShift64Star(7, 3)
        rng2 = XorShift64Star(7, 3)
        a = [grant_probabilistic([1, 1, 2], rng1) for _ in range(200)]
        b = [grant_probabilistic([1, 1, 2], rng2) for _ in range(200)]
        assert a == b
        assert len(set(a)) == 3  # all three indices actually drawn

    def test_vectorized_counter_matches_sequential_draws(self):
        weights = [1.0, 1.0, 2.0]
        rng = XorShift64Star(11, 5)
        seq = np.zeros(3, dtype=np.int64)
        for _ in range(10_000):
            seq[grant_probabilistic(weights, rng)] += 1
        vec = empirical_grant_frequencies(weights, 10_000, seed=11, stream_id=5)
        assert np.array_equal(seq / 10_000, vec)

    def test_frequencies_converge(self):
        freqs = empirical_grant_frequencies([1, 1, 2], 200_000, seed=3)
        assert np.all(np.abs(freqs - [0.25, 0.25, 0.5]) < 0.005)

    def test_weight_monotonicity(self):
        lo = empirical_grant_frequencies([1, 1, 2], 50_000, seed=5)
        hi = empirical_grant_frequencies([1, 3, 2], 50_000, seed=5)
        assert hi[1] > lo[1]

    def test_trial_bound_is_the_mesh_run_budget(self):
        assert MAX_GRANT_TRIALS == MAX_ROUTER_CYCLES

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            empirical_grant_frequencies([], 10, seed=1)
        for ws in ([1, -1], [math.nan, 1.0], [math.inf, 1.0], [True, 1.0]):
            with pytest.raises(ValueError, match="finite numbers above 0"):
                empirical_grant_frequencies(ws, 10, seed=1)
        for trials in (0, -5, 2.5, True):
            with pytest.raises(ValueError, match="trials"):
                empirical_grant_frequencies([1, 1], trials, seed=1)
        # refused before the first draw: 10^15 trials would run for decades
        for trials in (MAX_GRANT_TRIALS + 1, 10**15):
            with pytest.raises(ValueError, match=f"^trials must be <= {MAX_GRANT_TRIALS}, "
                                                 f"got {trials}$"):
                empirical_grant_frequencies([1, 1], trials, seed=1)
        # each weight is finite, but their sum is not, so a draw would land
        # past the last bucket
        with pytest.raises(ValueError, match="weights must have a finite sum"):
            empirical_grant_frequencies([1e308, 1e308], 10, seed=1)


class TestAgeGrant:
    # requests as (inject cycle, input port)
    def test_oldest_wins(self):
        assert AgeArbiter().choose([(100, 0), (40, 1), (77, 2)]) == 1

    def test_tie_goes_to_lowest_port(self):
        assert AgeArbiter().choose([(40, 2), (40, 1)]) == 1

    def test_single(self):
        assert AgeArbiter().choose([(9, 5)]) == 0


def round_robin(pointer, num_ports=3):
    arb = RoundRobinArbiter(num_ports)
    arb.pointer = pointer
    return arb


class TestRoundRobinGrant:
    # requests as input ports; choose returns the granted request's index
    def test_pointer_at_first_request(self):
        arb = round_robin(0)
        assert arb.choose([0, 1]) == 0 and arb.pointer == 1

    def test_pointer_skips_served_port(self):
        arb = round_robin(1)
        assert arb.choose([0, 1]) == 1 and arb.pointer == 2

    def test_cyclic_wraparound(self):
        arb = round_robin(2)
        assert arb.choose([1, 0]) == 1 and arb.pointer == 1

    def test_out_of_range_port(self):
        for ports in ([9], []):
            with pytest.raises(ValueError):
                round_robin(0).choose(ports)

    def test_arbiter_alternates(self):
        arb = RoundRobinArbiter(num_ports=2)
        grants = [arb.choose([0, 1]) for _ in range(6)]
        assert grants == [0, 1, 0, 1, 0, 1]


_ARBITERS = {ArbiterKind.ROUND_ROBIN: RoundRobinArbiter, ArbiterKind.AGE: AgeArbiter,
             ArbiterKind.PROBABILISTIC: ProbabilisticArbiter}


class TestFactory:
    """The mesh builds one arbiter per router output from the config."""

    def test_kinds(self):
        k, seed = 3, 4
        for kind, cls in _ARBITERS.items():
            sim = MeshSim(MeshConfig(k=k, arbiter=kind.value, policy="cw", weight_base=3.0,
                                     seed=seed, horizon=10))
            for r, row in enumerate(sim.ports):
                for o, arb in enumerate(row):
                    assert type(arb) is cls
                    if cls is RoundRobinArbiter:
                        assert (arb.num_ports, arb.pointer) == (3, 0)
                    if cls is ProbabilisticArbiter:
                        assert (arb.policy, arb.base) == (WeightPolicy.CW, 3.0)
                        # each port draws from its own stream
                        want = XorShift64Star(seed, _SID_ARB * k + r * 3 + o)
                        assert arb.rng.state == want.state

    def test_probabilistic_arbiter_replay(self):
        routes = [(3, 1, 1.0), (3, 2, 1.0)]
        a = ProbabilisticArbiter(WeightPolicy.CW, seed=9, stream_id=1)
        b = ProbabilisticArbiter(WeightPolicy.CW, seed=9, stream_id=1)
        assert [a.choose(routes) for _ in range(200)] == [b.choose(routes) for _ in range(200)]

    def test_probabilistic_biases_toward_traveled(self):
        # hops 3 vs 0 under traversed-distance weights: 8:1 odds
        routes = [(3, 3, 1.0), (3, 0, 1.0)]
        arb = ProbabilisticArbiter(WeightPolicy.CW, seed=2)
        wins = sum(1 for _ in range(9000) if arb.choose(routes) == 0)
        assert abs(wins / 9000 - 8 / 9) < 0.02


class TestMeshGrantsThroughChoose:
    """The mesh's cycle loop grants every packet through its arbiter's
    `choose`, the method perfbench's trace mode wraps to time arbitration.
    It is stepped here: `run` skips the whole periods of a periodic run."""

    @pytest.mark.parametrize("kind", list(ArbiterKind))
    def test_one_choose_call_per_grant(self, monkeypatch, kind):
        cfg = MeshConfig(k=4, rate=1.0, horizon=300, warmup=0, arbiter=kind)
        cls = type(MeshSim(cfg).ports[0][0])
        choose = cls.choose
        calls = []

        def counted(self, xs):
            calls.append(len(xs))
            return choose(self, xs)

        monkeypatch.setattr(cls, "choose", counted)
        sim = MeshSim(cfg)
        for _ in range(cfg.horizon):
            sim.step()
        rep = sim.report()
        assert len(calls) == sum(rep.packets_through.values()) > 0
        assert max(calls) > 1  # contended grants go through choose too
