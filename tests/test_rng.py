import math
import random

import pytest

from fairmesh.meshsim import MAX_K
from fairmesh.rng import (
    _STAR_MULTIPLIER,
    MASK64,
    BernoulliLanes,
    XorShift64Star,
    derive_stream_seed,
    splitmix64,
)


def test_splitmix64_published_vector():
    # first outputs of splitmix64 for seed 0 (widely published reference values)
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)


def test_known_answer_sequence():
    r = XorShift64Star(42)
    assert [r.next_u64() for _ in range(4)] == [
        0x6CE383D61DCFB15A,
        0x9CBCE48E75367730,
        0xFDD6C37E8ECF0D06,
        0xE1D36262D4A0ADE5,
    ]


def test_replay_is_bit_identical():
    a = XorShift64Star(7, stream_id=3)
    b = XorShift64Star(7, stream_id=3)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_streams_decorrelate():
    a = XorShift64Star(7, stream_id=0)
    b = XorShift64Star(7, stream_id=1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_state_never_zero():
    for sid in range(64):
        assert derive_stream_seed(0, sid) != 0


def test_random_in_unit_interval():
    r = XorShift64Star(123)
    vals = [r.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_bernoulli_extremes():
    r = XorShift64Star(5)
    assert all(r.bernoulli(1.0) for _ in range(10))
    assert not any(r.bernoulli(0.0) for _ in range(10))


def test_randrange_rejects_bad_n():
    with pytest.raises(ValueError):
        XorShift64Star(1).randrange(0)


def test_outputs_are_64_bit():
    r = XorShift64Star(99)
    for _ in range(50):
        assert 0 <= r.next_u64() <= MASK64


# The lane stepper against one `bernoulli` call per stream per step.
# 2**-53 and 1 - 2**-53 are the extreme rates strictly inside (0, 1).
GAP_RATES = [2.0 ** -53, 0.03, 0.5, 1.0 - 2.0 ** -53]
MIXED_RATES = [0.0, 0.3, 1.0, 0.03, 0.0, 1.0 - 2.0 ** -53, 1.0, 2.0 ** -53, 0.5, 1.0]


def lane_state(lanes, j):
    return lanes.x >> (128 * j) & MASK64


def assert_lanes_match(seed, rates, first_stream, steps):
    """Every step's hits of BernoulliLanes are the entries whose own
    XorShift64Star returns True from `bernoulli` (rate-1 entries excepted:
    they arrive without a draw), and every lane ends in that stream's state."""
    lanes = BernoulliLanes(seed, rates, first_stream)
    slow = [XorShift64Star(seed, first_stream + n) for n in range(len(rates))]
    assert lanes.ids == [n for n, p in enumerate(rates) if 0 < p < 1]
    for t in range(steps):
        want = [n for n, (r, p) in enumerate(zip(slow, rates)) if r.bernoulli(p) and p < 1]
        assert lanes.step() == want, t
    for j, n in enumerate(lanes.ids):
        assert lane_state(lanes, j) == slow[n].state


@pytest.mark.parametrize("p", GAP_RATES)
def test_draws_before_hit_matches_bernoulli(p):
    for seed in range(1, 21):
        for sid in (0, 1, 17, 2**40):
            assert_lanes_match(seed, [p, p, p], sid, 120)


def test_draws_before_hit_cycle_by_cycle():
    # each lane at its own rate, over a long run
    for seed in range(1, 6):
        assert_lanes_match(seed, GAP_RATES, 5, 3000)


def test_draws_before_hit_window_with_no_hit():
    # at rate 2**-53 a hit needs a raw output below 2**11
    lanes, slow = BernoulliLanes(3, [2.0 ** -53], 9), XorShift64Star(3, 9)
    assert not any(lanes.step() for _ in range(1000))
    for _ in range(1000):
        slow.next_u64()
    assert lane_state(lanes, 0) == slow.state


def state_before(u):
    """The state whose next output is u: xorshift64* run backwards."""
    x = u * pow(_STAR_MULTIPLIER, -1, 1 << 64) & MASK64
    for shift, left in ((27, False), (25, True), (12, False)):
        y = x
        for _ in range(64 // shift + 1):
            x = y ^ ((x << shift) & MASK64 if left else x >> shift)
    return x


@pytest.mark.parametrize("p", GAP_RATES + [0.1, 1 / 3])
def test_draws_before_hit_at_the_threshold(p):
    # outputs whose top 53 bits sit just below, at and just above p * 2**53,
    # planted one per lane
    top = math.floor(p * 2.0 ** 53)
    outs = [u for m in (top - 1, top, top + 1) for low in (0, 0x7FF)
            if 0 < (u := m << 11 | low) <= MASK64]
    lanes = BernoulliLanes(1, [p] * len(outs))
    lanes.x = sum(state_before(u) << (128 * j) for j, u in enumerate(outs))
    want = []
    for j, u in enumerate(outs):
        slow = XorShift64Star(1)
        slow.state = state_before(u)
        assert slow.next_u64() == u
        slow.state = state_before(u)
        if slow.bernoulli(p):
            want.append(j)
    assert 0 < len(want) < len(outs)  # both sides of the threshold
    assert lanes.step() == want


def test_draws_before_hit_outside_the_open_interval_draws_nothing():
    # rates 0 and 1 take no lane, so they shift no other entry's stream
    assert_lanes_match(4, [1.0, 0.0, 0.3, 1.0, 0.0], 0, 200)
    lanes = BernoulliLanes(4, [1.0, 0.0, 1.0])
    assert lanes.ids == [] and lanes.x == 0
    assert lanes.step() == []


@pytest.mark.parametrize("sid", [0, 3, 2**40])
def test_lanes_with_mixed_rates(sid):
    for seed in range(1, 21):
        assert_lanes_match(seed, MIXED_RATES, sid, 150)


@pytest.mark.parametrize("k", [2, MAX_K])
def test_lanes_at_the_mesh_sizes(k):
    # the rates of a k-source mesh, every kind of entry among them
    rng = random.Random(k)
    rates = [rng.choice([0.0, 1.0, rng.random(), 0.03, 2.0 ** -53]) for _ in range(k)]
    rates[:2] = [0.03, 0.7]
    assert_lanes_match(7, rates, 0, 200)
