import math

import pytest

from fairmesh.rng import (
    _STAR_MULTIPLIER,
    MASK64,
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


# 2**-53 and 1 - 2**-53 are the extreme rates strictly inside (0, 1)
GAP_RATES = [2.0 ** -53, 0.03, 0.5, 1.0 - 2.0 ** -53]


def _gap_by_bernoulli(r, p, n):
    """The scalar oracle: one bernoulli call per draw, up to the hit."""
    for i in range(n):
        if r.bernoulli(p):
            return i
    return n


@pytest.mark.parametrize("p", GAP_RATES)
def test_draws_before_hit_matches_bernoulli(p):
    for seed in range(1, 9):
        for sid in (0, 1, 17, 2**40):
            fast, slow = XorShift64Star(seed, sid), XorShift64Star(seed, sid)
            for n in (0, 1, 5, 0, 300, 1, 40):
                assert fast.draws_before_hit(p, n) == _gap_by_bernoulli(slow, p, n)
                assert fast.state == slow.state


def test_draws_before_hit_cycle_by_cycle():
    # one window per arrival, as the mesh books them, against one bernoulli
    # call per cycle: the same hit cycles and the same final state
    horizon = 3000
    for seed in range(1, 6):
        for p in GAP_RATES:
            fast, slow = XorShift64Star(seed, 5), XorShift64Star(seed, 5)
            want = [t for t in range(horizon) if slow.bernoulli(p)]
            got, t = [], -1
            while True:
                window = horizon - t - 1
                gap = fast.draws_before_hit(p, window)
                if gap == window:
                    break
                t += 1 + gap
                got.append(t)
            assert got == want
            assert fast.state == slow.state


def test_draws_before_hit_window_with_no_hit():
    # at rate 2**-53 a hit needs a raw output below 2**11
    fast, slow = XorShift64Star(3, 9), XorShift64Star(3, 9)
    assert fast.draws_before_hit(2.0 ** -53, 1000) == 1000
    for _ in range(1000):
        slow.next_u64()
    assert fast.state == slow.state


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
    # outputs whose top 53 bits sit just below, at and just above p * 2**53
    top = math.floor(p * 2.0 ** 53)
    for m in (top - 1, top, top + 1):
        for low in (0, 0x7FF):
            u = m << 11 | low
            if not 0 < u <= MASK64:
                continue
            fast, slow = XorShift64Star(1), XorShift64Star(1)
            fast.state = slow.state = state_before(u)
            assert slow.next_u64() == u
            slow.state = fast.state
            assert fast.draws_before_hit(p, 1) == (0 if slow.bernoulli(p) else 1)


def test_draws_before_hit_outside_the_open_interval_draws_nothing():
    r = XorShift64Star(4)
    state = r.state
    assert r.draws_before_hit(1.0, 10) == 0
    assert r.draws_before_hit(0.0, 10) == 10
    assert r.state == state
