import numpy as np
import pytest

from fairmesh.arbitration import (
    AgeArbiter,
    ArbiterKind,
    ArbRequest,
    ProbabilisticArbiter,
    RoundRobinArbiter,
    WeightPolicy,
    empirical_grant_frequencies,
    grant_age_based,
    grant_probabilistic,
    grant_round_robin,
    make_arbiter,
    weight_for,
)
from fairmesh.rng import XorShift64Star


def req(port=0, total=0, traversed=0, age=0, flow=0, product=None):
    return ArbRequest(input_port=port, hops_total=total, hops_traversed=traversed,
                      age=age, flow=flow, contention_product=product)


class TestWeights:
    def test_traversed_distance_exponent(self):
        assert weight_for(req(total=5, traversed=3), WeightPolicy.CW, 1, base=2.0) == 8

    def test_full_route_exponent(self):
        assert weight_for(req(total=5, traversed=3), WeightPolicy.FW, 1, base=2.0) == 32

    @pytest.mark.parametrize("policy", list(WeightPolicy))
    def test_zero_hops_weighs_one(self, policy):
        assert weight_for(req(), policy, live_contention=3) == 1

    def test_contention_based_uses_live_degree(self):
        assert weight_for(req(total=4, traversed=2), WeightPolicy.VW, 2) == 4
        assert weight_for(req(total=4, traversed=2), WeightPolicy.VW, 3) == 9

    def test_contention_product_overrides_live(self):
        r = req(total=4, traversed=2, product=6.0)
        assert weight_for(r, WeightPolicy.VW, 2) == 6.0
        # static-base policies ignore the product
        assert weight_for(r, WeightPolicy.CW, 2, base=2.0) == 4

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            weight_for(req(), WeightPolicy.CW, 0)
        with pytest.raises(ValueError):
            weight_for(req(), WeightPolicy.CW, 2, base=0.5)
        with pytest.raises(ValueError):
            req(total=1, traversed=2)
        with pytest.raises(ValueError):
            req(product=0.0)


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
    def test_oldest_wins(self):
        reqs = [req(port=0, age=100), req(port=1, age=40), req(port=2, age=77)]
        assert grant_age_based(reqs) == 1

    def test_tie_goes_to_lowest_port(self):
        reqs = [req(port=2, age=40), req(port=1, age=40)]
        assert grant_age_based(reqs) == 1

    def test_single(self):
        assert grant_age_based([req(port=5, age=9)]) == 0


class TestRoundRobinGrant:
    def test_pointer_at_first_request(self):
        idx, ptr = grant_round_robin([req(port=0), req(port=1)], 0, 3)
        assert (idx, ptr) == (0, 1)

    def test_pointer_skips_served_port(self):
        idx, ptr = grant_round_robin([req(port=0), req(port=1)], 1, 3)
        assert (idx, ptr) == (1, 2)

    def test_cyclic_wraparound(self):
        idx, ptr = grant_round_robin([req(port=0)], 2, 3)
        assert (idx, ptr) == (0, 1)

    def test_out_of_range_port(self):
        with pytest.raises(ValueError):
            grant_round_robin([req(port=9)], 0, 3)

    def test_arbiter_alternates(self):
        arb = RoundRobinArbiter(num_ports=2)
        reqs = [req(port=0), req(port=1)]
        grants = [arb.choose(reqs) for _ in range(6)]
        assert grants == [0, 1, 0, 1, 0, 1]

    def test_ports_alone_grant_as_requests_do(self):
        by_reqs, by_ports = RoundRobinArbiter(3), RoundRobinArbiter(3)
        for ports in ([2], [0, 2], [1], [0, 1, 2], [1, 2], [0], [0, 2], [2]):
            assert by_reqs.choose([req(port=p) for p in ports]) == by_ports.choose_ports(ports)
            assert by_reqs.pointer == by_ports.pointer

    def test_frozen_request_rejects_edits(self):
        r = req(total=2, traversed=1)
        with pytest.raises(AttributeError):
            r.hops_traversed = 5


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_arbiter("round_robin", 3), RoundRobinArbiter)
        assert isinstance(make_arbiter(ArbiterKind.AGE, 3), AgeArbiter)
        arb = make_arbiter("probabilistic", 3, policy="vw", seed=4)
        assert isinstance(arb, ProbabilisticArbiter)
        assert arb.policy is WeightPolicy.VW

    def test_probabilistic_arbiter_replay(self):
        reqs = [req(port=0, total=3, traversed=1), req(port=1, total=3, traversed=2)]
        a = make_arbiter("probabilistic", 3, policy="cw", seed=9, stream_id=1)
        b = make_arbiter("probabilistic", 3, policy="cw", seed=9, stream_id=1)
        assert [a.choose(reqs) for _ in range(200)] == [b.choose(reqs) for _ in range(200)]

    def test_probabilistic_biases_toward_traveled(self):
        # hops 3 vs 0 under traversed-distance weights: 8:1 odds
        reqs = [req(port=0, total=3, traversed=3), req(port=1, total=3, traversed=0)]
        arb = make_arbiter("probabilistic", 2, policy="cw", seed=2)
        wins = sum(1 for _ in range(9000) if arb.choose(reqs) == 0)
        assert abs(wins / 9000 - 8 / 9) < 0.02
