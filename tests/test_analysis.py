import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmesh.analysis import (
    AcceptanceRatios,
    FeasibilityVerdict,
    RequiredWeights,
    WeightTable,
    acceptance_ratios,
    check_ratio_constraint,
    required_weights,
)

from oracles import simulate_acceptance_counts


class TestWeightTable:
    def test_lookup(self):
        w = WeightTable({(0, 1): 2, (1, 1): 3})
        assert w.weight(0, 1) == 2 and w.weight(1, 1) == 3
        with pytest.raises(ValueError):
            w.weight(5, 5)

    def test_missing_weight_names_the_pair(self):
        w = WeightTable.uniform(2)
        with pytest.raises(ValueError, match=r"W\(0,3\)"):
            w.weight(0, 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            WeightTable({(0, 1): 0})

    def test_uniform_covers_triangle(self):
        w = WeightTable.uniform(3)
        for j in range(1, 4):
            for i in range(j + 1):
                assert w.weight(i, j) == 1


class TestAcceptanceRatios:
    def test_all_unit_weights_double_per_hop(self):
        r = acceptance_ratios(WeightTable.uniform(3), 3)
        assert r.per_router[1] == [1, 1]
        assert r.per_router[2] == [1, 1, 2]
        assert r.per_router[3] == [1, 1, 2, 4]

    def test_first_router_is_the_weight_ratio(self):
        w = WeightTable({(0, 1): 1, (1, 1): 3})
        assert acceptance_ratios(w, 1).per_router[1] == [1, 3]

    def test_normalized_sums_to_one(self):
        r = acceptance_ratios(WeightTable.uniform(3), 3)
        assert sum(r.normalized(3)) == 1
        assert r.normalized(3) == [
            Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]

    def test_exact_rationals(self):
        w = WeightTable({(0, 1): Fraction(1, 3), (1, 1): Fraction(2, 7)})
        r = acceptance_ratios(w, 1)
        assert r.normalized(1) == [Fraction(7, 13), Fraction(6, 13)]

    def test_missing_entry_raises(self):
        with pytest.raises(ValueError, match=r"W\(2,2\)"):
            acceptance_ratios(WeightTable.uniform(1), 2)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            acceptance_ratios(WeightTable.uniform(1), 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=6, max_size=6),
        st.integers(2, 50),
    )
    def test_scaling_one_router_keeps_proportions(self, vals, c):
        # multiply every weight at router 2 by c: proportions must not move
        base = {
            (0, 1): vals[0], (1, 1): vals[1],
            (0, 2): vals[2], (1, 2): vals[3], (2, 2): vals[4],
        }
        scaled = dict(base)
        for key in ((0, 2), (1, 2), (2, 2)):
            scaled[key] = base[key] * c
        a = acceptance_ratios(WeightTable(base), 2)
        b = acceptance_ratios(WeightTable(scaled), 2)
        assert a.normalized(2) == b.normalized(2)


class TestSimulationOracle:
    def test_matches_recursion_uniform(self):
        counts = simulate_acceptance_counts(WeightTable.uniform(3), 3, 50_000, seed=1)
        total = sum(counts)
        exact = acceptance_ratios(WeightTable.uniform(3), 3).normalized(3)
        for got, want in zip(counts, exact):
            assert abs(got / total - float(want)) < 0.02

    def test_matches_recursion_weighted(self):
        w = WeightTable({
            (0, 1): 3, (1, 1): 1,
            (0, 2): 1, (1, 2): 2, (2, 2): 2,
        })
        counts = simulate_acceptance_counts(w, 2, 50_000, seed=4)
        total = sum(counts)
        exact = acceptance_ratios(w, 2).normalized(2)
        for got, want in zip(counts, exact):
            assert abs(got / total - float(want)) < 0.02

    def test_deterministic(self):
        w = WeightTable.uniform(2)
        a = simulate_acceptance_counts(w, 2, 10_000, seed=9)
        b = simulate_acceptance_counts(w, 2, 10_000, seed=9)
        assert a == b

    def test_grants_validated(self):
        with pytest.raises(ValueError):
            simulate_acceptance_counts(WeightTable.uniform(1), 1, 0, seed=1)


def s_from(rows: dict) -> dict:
    return rows


class TestRequiredWeights:
    def test_first_router_candidate(self):
        s = s_from({0: {1: 2.0, 2: 2.0}, 1: {1: 1.0, 2: 2.0}})
        rw = required_weights(s)
        # occupation 2:1 at router 1 needs weights 1:2 to balance
        assert rw.from_first_router == 0.5

    def test_second_router_candidate(self):
        s = s_from({0: {1: 1.0, 2: 2.0}, 1: {1: 1.0, 2: 4.0}})
        assert required_weights(s).from_second_router == 2.0

    def test_uniform_s_is_consistent(self):
        s = s_from({0: {1: 1.5, 2: 1.5}, 1: {1: 1.5, 2: 1.5}})
        rw = required_weights(s)
        assert rw.from_first_router == rw.from_second_router == 1.0
        assert rw.consistent()

    def test_undefined_entry_raises(self):
        s = s_from({0: {1: 1.0, 2: None}, 1: {1: 1.0, 2: 2.0}})
        with pytest.raises(ValueError, match=r"S\(0,2\)"):
            required_weights(s)


class TestRatioConstraint:
    def test_proportional_rows_feasible(self):
        s = s_from({
            0: {1: 2.0, 2: 4.0, 3: 6.0},
            1: {1: 1.0, 2: 2.0, 3: 3.0},
        })
        v = check_ratio_constraint(s, eps=1e-9)
        assert v.feasible and not v.vacuous
        assert v.max_deviation == 0.0

    def test_ratio_drift_detected(self):
        s = s_from({0: {1: 2.0, 2: 3.0}, 1: {1: 1.0, 2: 1.0}})
        v = check_ratio_constraint(s, eps=0.1)
        assert not v.feasible
        assert v.max_deviation == pytest.approx(1.0)
        assert v.witness in ((0, 1, 1, 2), (1, 0, 1, 2))

    def test_single_flow_vacuous(self):
        v = check_ratio_constraint(s_from({0: {1: 2.0, 2: 3.0}}))
        assert v.feasible and v.vacuous
        assert v.witness is None and v.pairs_checked == 0

    def test_single_router_vacuous(self):
        v = check_ratio_constraint(s_from({0: {1: 2.0}, 1: {1: 1.0}}))
        assert v.feasible and v.vacuous

    def test_none_entries_skipped(self):
        s = s_from({
            0: {1: 2.0, 2: None, 3: 4.0},
            1: {1: 1.0, 2: 9.0, 3: 2.0},
        })
        v = check_ratio_constraint(s, eps=1e-6)
        # router 2 drops out; remaining ratios are proportional
        assert v.feasible
        assert v.pairs_checked == 2  # (0,1) and (1,0) over routers (1,3)

    def test_required_weights_agree_when_constraint_tight(self):
        s = s_from({
            0: {1: 2.0, 2: 4.0},
            1: {1: 1.0, 2: 2.0},
        })
        assert check_ratio_constraint(s, eps=0.0).feasible
        rw = required_weights(s)
        assert rw.consistent()

    def test_entries_below_one_rejected(self):
        # the ratios overflow to inf, inf - inf is NaN and NaN never beats
        # the best deviation: this matrix used to read feasible at 0.0
        s = s_from({0: {0: 1e300, 1: 1e299}, 1: {0: 1e-300, 1: 1e-300}})
        with pytest.raises(ValueError, match=r"S\(1,0\) must be a finite number >= 1"):
            check_ratio_constraint(s)

    @pytest.mark.parametrize("bad", [0.999, 0.0, -2.0, float("nan"), float("inf"), True])
    def test_bad_entry_named(self, bad):
        s = s_from({0: {1: 2.0, 2: 3.0}, 1: {1: 1.0, 2: bad}})
        with pytest.raises(ValueError, match=r"S\(1,2\) must be a finite number >= 1"):
            check_ratio_constraint(s)
        with pytest.raises(ValueError, match=r"S\(1,2\) must be a finite number >= 1"):
            required_weights(s)

    def test_verdict_serializes(self):
        v = check_ratio_constraint(s_from({0: {1: 2.0, 2: 3.0}, 1: {1: 1.0, 2: 1.0}}))
        blob = json.loads(v.to_json())
        assert blob["feasible"] is False
        assert blob["witness"] is not None
