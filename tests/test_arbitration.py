import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fairmesh.arbitration import (
    AgeArbiter,
    ArbiterKind,
    ProbabilisticArbiter,
    RoundRobinArbiter,
    WeightPolicy,
    empirical_grant_frequencies,
    grant_probabilistic,
    grant_round_robin,
    make_arbiter,
)
from fairmesh.meshsim import MeshConfig, run_mesh
from fairmesh.rng import XorShift64Star

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


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
        with pytest.raises(ValueError):
            grant_probabilistic([1.0, 0.0], XorShift64Star(1))

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

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            empirical_grant_frequencies([], 10, seed=1)
        with pytest.raises(ValueError):
            empirical_grant_frequencies([1, -1], 10, seed=1)


class TestAgeGrant:
    # requests as (inject cycle, input port)
    def test_oldest_wins(self):
        assert AgeArbiter().choose([(100, 0), (40, 1), (77, 2)]) == 1

    def test_tie_goes_to_lowest_port(self):
        assert AgeArbiter().choose([(40, 2), (40, 1)]) == 1

    def test_single(self):
        assert AgeArbiter().choose([(9, 5)]) == 0


class TestRoundRobinGrant:
    def test_pointer_at_first_request(self):
        assert grant_round_robin([0, 1], 0, 3) == (0, 1)

    def test_pointer_skips_served_port(self):
        assert grant_round_robin([0, 1], 1, 3) == (1, 2)

    def test_cyclic_wraparound(self):
        assert grant_round_robin([0], 2, 3) == (0, 1)

    def test_out_of_range_port(self):
        with pytest.raises(ValueError):
            grant_round_robin([9], 0, 3)

    def test_arbiter_alternates(self):
        arb = RoundRobinArbiter(num_ports=2)
        grants = [arb.choose([0, 1]) for _ in range(6)]
        assert grants == [0, 1, 0, 1, 0, 1]


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_arbiter("round_robin", 3), RoundRobinArbiter)
        assert isinstance(make_arbiter(ArbiterKind.AGE, 3), AgeArbiter)
        arb = make_arbiter("probabilistic", 3, policy="vw", seed=4)
        assert isinstance(arb, ProbabilisticArbiter)
        assert arb.policy is WeightPolicy.VW

    def test_probabilistic_arbiter_replay(self):
        routes = [(3, 1, 1.0), (3, 2, 1.0)]
        a = make_arbiter("probabilistic", 3, policy="cw", seed=9, stream_id=1)
        b = make_arbiter("probabilistic", 3, policy="cw", seed=9, stream_id=1)
        assert [a.choose(routes) for _ in range(200)] == [b.choose(routes) for _ in range(200)]

    def test_probabilistic_biases_toward_traveled(self):
        # hops 3 vs 0 under traversed-distance weights: 8:1 odds
        routes = [(3, 3, 1.0), (3, 0, 1.0)]
        arb = make_arbiter("probabilistic", 2, policy="cw", seed=2)
        wins = sum(1 for _ in range(9000) if arb.choose(routes) == 0)
        assert abs(wins / 9000 - 8 / 9) < 0.02


class TestMeshGrantsThroughChoose:
    """The mesh grants every packet through its arbiter's `choose`, the
    method perfbench's trace mode wraps to time arbitration."""

    @pytest.mark.parametrize("kind", list(ArbiterKind))
    def test_one_choose_call_per_grant(self, monkeypatch, kind):
        cls = type(make_arbiter(kind, 3))
        choose = cls.choose
        calls = []

        def counted(self, xs):
            calls.append(len(xs))
            return choose(self, xs)

        monkeypatch.setattr(cls, "choose", counted)
        rep = run_mesh(MeshConfig(k=4, rate=1.0, horizon=300, warmup=0, arbiter=kind))
        assert len(calls) == sum(rep.packets_through.values()) > 0
        assert max(calls) > 1  # contended grants go through choose too

    def test_trace_targets_resolve(self):
        spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        for _layer, owner, attr in child.TARGETS:
            assert callable(getattr(child._owner(owner), attr, None)), (owner, attr)
