"""Health score: weight rule, logistic factors, monotonicity, bounds."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from oclbudget import (
    InvalidPreferenceError,
    MetricSnapshot,
    SchemaError,
    Thresholds,
    UrgeScore,
    Weights,
    compute_urge,
    load_bundled_scenario,
    run_suite,
    weights_from_preference,
)
from oclbudget.urge import METRIC_NAMES, urge_scorer

TH = Thresholds(plasticity=0.8, stability=0.9, latency_s=100.0, memory_mb=4000.0)
W = weights_from_preference(["memory", "plasticity", "stability", "latency"])


def snap(p=0.8, s=0.9, lat=100.0, mem=4000.0):
    return MetricSnapshot(p, s, lat, mem)


class TestWeightRule:
    def test_documented_example(self):
        w = weights_from_preference(["memory", "plasticity", "stability", "latency"])
        assert (w.k_m, w.k_p, w.k_s, w.k_l) == (0.4, 0.3, 0.2, 0.1)

    def test_same_rule_other_ordering(self):
        w = weights_from_preference(["latency", "stability", "plasticity", "memory"])
        assert (w.k_l, w.k_s, w.k_p, w.k_m) == (0.4, 0.3, 0.2, 0.1)

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidPreferenceError):
            weights_from_preference(["plasticity", "plasticity", "stability", "latency"])

    def test_missing_metric_rejected(self):
        with pytest.raises(InvalidPreferenceError):
            weights_from_preference(["plasticity", "stability", "latency"])

    def test_all_permutations_normalized(self):
        for order in itertools.permutations(METRIC_NAMES):
            w = weights_from_preference(order)
            assert abs(sum(dataclasses.astuple(w)) - 1.0) <= 1e-9
            assert sorted(dataclasses.astuple(w)) == [0.1, 0.2, 0.3, 0.4]
            assert dataclasses.astuple(w) == spec.weights(order)

    def test_negative_weight_rejected(self):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(SchemaError, match=r"^Weights\.k_s: must be in \[0, inf\)"):
                Weights(0.2, bad, 0.3, 0.3)

    def test_one_weights_object_per_ordering(self):
        # Each call derives the weights anew; equal orderings give equal weights.
        order = ["memory", "plasticity", "stability", "latency"]
        weights = weights_from_preference(order)
        assert weights_from_preference(tuple(order)) == weights
        assert weights == Weights(k_p=0.3, k_s=0.2, k_l=0.1, k_m=0.4)
        assert dataclasses.astuple(weights) == spec.weights(order)
        other = weights_from_preference(["latency", "stability", "plasticity", "memory"])
        assert other != weights

    @pytest.mark.parametrize("first", ["list", "namedtuple", "str-subclass", "tuple"])
    def test_every_ordering_form_finds_the_same_weights(self, first):
        # Every form of one ordering gives the spec's weights, and a scenario
        # given it stores the ordering as a tuple of plain str.
        class Name(str):
            pass

        Order = collections.namedtuple("Order", "first second third fourth")
        order = ("stability", "memory", "latency", "plasticity")
        forms = {
            "list": list(order),
            "namedtuple": Order(*order),
            "str-subclass": tuple(map(Name, order)),
            "tuple": order,
        }
        weights = weights_from_preference(forms[first])
        assert dataclasses.astuple(weights) == spec.weights(order)
        for form in forms.values():
            assert weights_from_preference(form) == weights
        scenario = load_bundled_scenario("xavier-er").with_preference(forms[first])
        assert scenario.preference == order
        assert [type(name) for name in scenario.preference] == [str] * 4
        assert type(scenario.preference) is tuple
        assert scenario.weights == weights

    @pytest.mark.parametrize(
        "form, kind",
        [
            (set, "set"),
            (frozenset, "frozenset"),
            (iter, "list_iterator"),
            (dict.fromkeys, "dict"),
            (",".join, "str"),
        ],
    )
    def test_an_ordering_that_is_no_list_or_tuple_is_refused(self, form, kind):
        # A set's order moves with the hash seed, so its weights would too.
        order = form(["memory", "plasticity", "stability", "latency"])
        rule = f"^preference must be a list or tuple, got a {kind}: "
        with pytest.raises(InvalidPreferenceError, match=rule):
            weights_from_preference(order)

    def test_a_tuple_holding_an_unhashable_name_is_refused_as_before(self):
        with pytest.raises(InvalidPreferenceError, match="exactly once"):
            weights_from_preference((["memory"], "plasticity", "stability", "latency"))

    def test_bad_ordering_raises_on_every_call(self):
        for order in (["plasticity", "plasticity", "stability", "latency"], ["memory"]):
            for _ in range(3):
                with pytest.raises(InvalidPreferenceError, match="exactly once"):
                    weights_from_preference(order)

    def test_suite_derives_each_orderings_weights_once(self, monkeypatch):
        # A scenario derives its weights when it is built; a suite run reads
        # scenario.weights and builds no Weights of its own.
        scenario = load_bundled_scenario("xavier-er")
        variants = [scenario.with_preference(p) for p in ("balanced", "prefer-latency")]
        built = []
        check = Weights.__post_init__

        def counted_check(weights):
            built.append(weights)
            check(weights)

        monkeypatch.setattr(Weights, "__post_init__", counted_check)
        for variant in variants:
            run_suite(
                variant,
                ["controller", "max_a", "max_p", "fixed", "oracle"],
                include_overhead=True,
            )
        assert built == []
        assert [dataclasses.astuple(v.weights) for v in variants] == [
            spec.weights(v.preference) for v in variants
        ]


class TestScoreValues:
    def test_all_deviations_zero_gives_sixteenth(self):
        score = compute_urge(snap(), TH, W)
        assert score.value == pytest.approx(0.0625, abs=1e-12)
        for f in score.components():
            assert f == 0.5

    def test_weightless_score_is_exactly_sixteenth(self):
        zero = Weights(0.0, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = snap(
                p=float(rng.uniform(0, 1)),
                s=float(rng.uniform(0, 1)),
                lat=float(rng.uniform(0, 500)),
                mem=float(rng.uniform(0, 8000)),
            )
            assert compute_urge(s, TH, zero).value == 0.0625

    def test_value_is_product_of_components(self):
        score = compute_urge(snap(p=0.3, s=0.95, lat=220.0, mem=3500.0), TH, W)
        assert score.value == pytest.approx(math.prod(score.components()), abs=1e-15)

    def test_deviation_divided_by_threshold_matches_direct_formula(self):
        # Each deviation is divided by its threshold before it is weighted.
        s = snap(p=0.7, s=0.95, lat=140.0, mem=3900.0)
        score = compute_urge(s, TH, W)
        f_p = 1.0 / (1.0 + math.exp(W.k_p * (0.7 - 0.8) / 0.8))
        f_s = 1.0 / (1.0 + math.exp(W.k_s * (0.95 - 0.9) / 0.9))
        f_l = 1.0 / (1.0 + math.exp(-W.k_l * (140.0 - 100.0) / 100.0))
        f_m = 1.0 / (1.0 + math.exp(W.k_m * (3900.0 - 4000.0) / 4000.0))
        assert score.value == pytest.approx(f_p * f_s * f_l * f_m, rel=1e-12)

    def test_nonfinite_inputs_rejected(self):
        match = r"^MetricSnapshot\.latency_s: must be in \[0, inf\), got inf$"
        with pytest.raises(SchemaError, match=match):
            MetricSnapshot(0.5, 0.5, float("inf"), 100.0)

    def test_score_invariant_validation(self):
        with pytest.raises(ValueError):
            UrgeScore(0.9, 0.5, 0.5, 0.5, 0.5)  # product mismatch
        with pytest.raises(ValueError):
            UrgeScore(0.0, 0.0, 0.5, 0.5, 0.5)  # factor at the boundary


class TestScoreBoundsAndMonotonicity:
    def test_strictly_inside_unit_interval_for_extreme_inputs(self):
        extreme = [
            snap(p=0.0, s=0.0, lat=1e9, mem=0.0),
            snap(p=1.0, s=1.0, lat=0.0, mem=1e9),
            snap(lat=1e12),
            snap(mem=1e12),
        ]
        for s in extreme:
            score = compute_urge(s, TH, W)
            assert 0.0 < score.value < 1.0
            for f in score.components():
                assert 0.0 < f < 1.0

    def test_monotone_in_each_metric(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            p = float(rng.uniform(0.05, 0.95))
            s = float(rng.uniform(0.05, 0.95))
            lat = float(rng.uniform(1.0, 400.0))
            mem = float(rng.uniform(100.0, 7000.0))
            base = compute_urge(snap(p, s, lat, mem), TH, W).value
            # Higher plasticity, stability, memory lower the score; higher
            # latency raises it.
            assert compute_urge(snap(p + 0.02, s, lat, mem), TH, W).value < base
            assert compute_urge(snap(p, min(1.0, s + 0.02), lat, mem), TH, W).value < base
            assert compute_urge(snap(p, s, lat + 5.0, mem), TH, W).value > base
            assert compute_urge(snap(p, s, lat, mem + 50.0), TH, W).value < base

    def test_weight_scaling_changes_steepness_not_direction(self):
        # Scaling one sensitivity never flips the sign of the response.
        small = Weights(k_p=0.1, k_s=0.2, k_l=0.3, k_m=0.4)
        big = Weights(k_p=0.8, k_s=0.2, k_l=0.3, k_m=0.4)
        lo, hi = snap(p=0.6), snap(p=0.7)
        d_small = compute_urge(hi, TH, small).value - compute_urge(lo, TH, small).value
        d_big = compute_urge(hi, TH, big).value - compute_urge(lo, TH, big).value
        assert d_small < 0 and d_big < 0
        assert abs(d_big) > abs(d_small)
        # Only the plasticity factor moved.
        a, b = compute_urge(lo, TH, small), compute_urge(lo, TH, big)
        assert a.stability_factor == b.stability_factor
        assert a.latency_factor == b.latency_factor
        assert a.memory_factor == b.memory_factor


unit = st.floats(0.0, 1.0)
# Zero thresholds take the 1e-9 divisor floor; spans of 1e6 against
# thresholds near 1e-3 push the logistic arguments far past the +-36 clamp.
# Thresholds are drawn inside Thresholds' own ranges.
magnitude = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-3))
weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e3))
weights_st = st.builds(Weights, weight, weight, weight, weight)
thresholds_st = st.builds(
    Thresholds,
    st.one_of(st.just(0.0), unit, st.floats(0.0, 1e-3)),
    st.one_of(st.just(0.0), unit, st.floats(0.0, 1e-3)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e4), st.floats(0.0, 1e-3)),
    st.floats(1.0, 1e7),
)


class TestScorerMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(
        p=unit, s=unit, lat=magnitude, mem=magnitude,
        th=thresholds_st, w=weights_st,
    )
    def test_finite_inputs_score_identically(self, p, s, lat, mem, th, w):
        snapshot = MetricSnapshot(p, s, lat, mem)
        expected = spec.urge(snapshot, th, dataclasses.astuple(w))
        assert compute_urge(snapshot, th, w) == expected
        assert urge_scorer(th, w)(snapshot) == expected

    def test_clamp_is_reached(self):
        # Both clamp branches are taken, and the clamped factors still agree.
        th = Thresholds(0.0, 0.0, 1e-3, 1.0)
        heavy = Weights(1e3, 1e3, 1e3, 1e3)
        for lat, mem in ((1e6, 0.0), (0.0, 1e6)):
            snapshot = MetricSnapshot(1.0, 1.0, lat, mem)
            expected = spec.urge(snapshot, th, dataclasses.astuple(heavy))
            assert min(expected[1:]) < 1e-15 or max(expected[1:]) > 1 - 1e-15
            assert urge_scorer(th, heavy)(snapshot) == expected
            assert compute_urge(snapshot, th, heavy) == expected
