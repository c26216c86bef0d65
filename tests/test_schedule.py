import math
from dataclasses import replace

import numpy as np
import pytest

from adasize import RiskSpec, agd_params, iterations_agd, iterations_generic, iterations_svrg, \
    statistical_accuracy, stop_threshold, svrg_params, total_complexity_agd, \
    total_complexity_svrg, warm_start_bound
from adasize.schedule import stage_sizes

UNIT = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=1.0)


class TestAccuracyAndThreshold:
    def test_values(self):
        assert statistical_accuracy(UNIT, 400) == pytest.approx(0.05)
        alpha1 = RiskSpec(alpha=1.0)
        assert statistical_accuracy(alpha1, 1000) == pytest.approx(0.001)

    def test_power_law_halving(self):
        for alpha in (0.5, 0.75, 1.0):
            spec = RiskSpec(alpha=alpha)
            for n in (100, 333, 4096):
                ratio = statistical_accuracy(spec, 2 * n) / statistical_accuracy(spec, n)
                assert ratio == pytest.approx(2.0**-alpha, rel=1e-14)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            statistical_accuracy(UNIT, 0)

    def test_stop_threshold_values(self):
        assert stop_threshold(UNIT, 400) == pytest.approx(0.07071067811865475)
        c4 = RiskSpec(c=4.0, gamma=1.0, alpha=0.5)
        assert stop_threshold(c4, 100) == pytest.approx(0.2828427124746190, rel=1e-12)

    def test_threshold_linear_in_accuracy(self):
        t1 = stop_threshold(UNIT, 400)
        t2 = stop_threshold(UNIT, 1600)  # V halves
        assert t1 / t2 == pytest.approx(2.0, rel=1e-12)


class TestGrowth:
    def test_doubling(self):
        assert stage_sizes(400, 800) == [400, 800]

    def test_clamp(self):
        assert stage_sizes(6000, 10000) == [6000, 10000]

    def test_fixed_point(self):
        assert stage_sizes(10000, 10000) == [10000]

    def test_range_check(self):
        with pytest.raises(ValueError):
            stage_sizes(0, 10)
        with pytest.raises(ValueError):
            stage_sizes(11, 10)

    def test_stage_sizes_protocol(self):
        assert stage_sizes(400, 10000) == [400, 800, 1600, 3200, 6400, 10000]

    def test_stage_count(self):
        for m0, N in ((400, 10000), (256, 8192), (7, 7), (100, 1600)):
            sizes = stage_sizes(m0, N)
            assert len(sizes) == 1 + math.ceil(math.log2(N / m0))
            assert sizes[-1] == N
            assert all(b > a for a, b in zip(sizes, sizes[1:]))


class TestStepParameters:
    def test_agd_params_frozen(self):
        spec = RiskSpec(c=1.0, alpha=0.5, gamma=1.0, M=1.0)
        eta, beta = agd_params(spec, 400)  # cV = 0.05
        assert eta == pytest.approx(0.9523809523809523, rel=1e-12)
        assert beta == pytest.approx(0.6417424305044160, rel=1e-12)

    def test_agd_beta_at_matched_curvatures(self):
        # cV_n = M makes beta = (sqrt(2)-1)/(sqrt(2)+1)
        spec = RiskSpec(c=1.0, alpha=0.5, gamma=20.0, M=1.0)  # V_400 = 1
        _, beta = agd_params(spec, 400)
        assert beta == pytest.approx(0.17157287525380988, rel=1e-12)

    def test_agd_beta_limit(self):
        spec = RiskSpec(c=1.0, alpha=0.5, gamma=1e-9, M=1.0)
        _, beta = agd_params(spec, 4)
        assert beta > 0.9998

    def test_svrg_params_frozen(self):
        q, eta, rho = svrg_params(UNIT, 10000)
        assert q == 10000
        assert eta == pytest.approx(0.1 / (1.0 + 0.01), rel=1e-12)
        assert rho == pytest.approx(0.37625, rel=1e-12)

    def test_svrg_precondition_warning(self):
        with pytest.warns(RuntimeWarning, match="precondition"):
            _, _, rho = svrg_params(UNIT, 100)
        assert rho == pytest.approx(1.625, rel=1e-12)

    def test_svrg_no_warning_when_ratio_small(self, recwarn):
        svrg_params(UNIT, 10000)
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestIterationCounts:
    def test_generic_frozen(self):
        assert iterations_generic(0.5, UNIT) == 3
        alpha1 = RiskSpec(alpha=1.0)
        assert iterations_generic(0.5, alpha1) == 4

    def test_generic_monotone(self):
        prev = 0
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            s = iterations_generic(rho, UNIT)
            assert s >= prev
            prev = s
        a = iterations_generic(0.5, replace(UNIT, wstar_sq=0.0))
        b = iterations_generic(0.5, replace(UNIT, wstar_sq=50.0))
        assert b >= a

    def test_generic_rho_range(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                iterations_generic(bad, UNIT)

    def test_agd_frozen(self):
        assert iterations_agd(UNIT, 10000) == 24

    def test_agd_growth_exponent(self):
        # the count grows like n^(alpha/2): a 16x larger n doubles it at alpha=1/2
        s1 = iterations_agd(UNIT, 10**4)
        s2 = iterations_agd(UNIT, 16 * 10**4)
        assert 1.8 < s2 / s1 < 2.2

    def test_agd_large_gamma_limit(self):
        spec = RiskSpec(c=1.0, alpha=0.5, gamma=1e12, M=1.0)
        arg = 6 * math.sqrt(2) + (math.sqrt(2) - 1) * 4
        assert iterations_agd(spec, 10000) == math.floor(math.log(arg)) + 1

    def test_svrg_frozen(self):
        assert iterations_svrg(UNIT) == 3
        assert iterations_svrg(RiskSpec(alpha=1.0)) == 4
        assert iterations_svrg(replace(UNIT, wstar_sq=4.0)) == 3

    def test_svrg_independent_of_sample_size(self):
        # no sample-size argument exists; the count is a constant of the spec
        assert iterations_svrg(UNIT) == iterations_svrg(UNIT)


class TestTotals:
    def test_agd_total_frozen(self):
        total = total_complexity_agd(UNIT, 10000, 625)
        assert total == pytest.approx(1571929.4564982748, rel=1e-12)

    def test_agd_total_requires_power_of_two_ratio(self):
        with pytest.raises(ValueError):
            total_complexity_agd(UNIT, 10000, 400)

    def test_agd_total_m0_only_moves_log_term(self):
        t1 = total_complexity_agd(UNIT, 2**14, 2**6)
        t2 = total_complexity_agd(UNIT, 2**14, 2**7)
        arg = 6 * math.sqrt(2) + (math.sqrt(2) - 1) * 4
        assert t1 - t2 == pytest.approx(2**14 * math.log(arg), rel=1e-10)

    def test_svrg_total_frozen(self):
        assert total_complexity_svrg(UNIT, 10000) == pytest.approx(93691.58266766616, rel=1e-12)

    def test_svrg_total_linear_in_N(self):
        assert total_complexity_svrg(UNIT, 20000) == pytest.approx(
            2 * total_complexity_svrg(UNIT, 10000), rel=1e-12)

    def test_svrg_total_matches_unfloored_count(self):
        arg = 3 * math.sqrt(2) + (math.sqrt(2) - 1) * (2 + 1.5)
        assert total_complexity_svrg(replace(UNIT, wstar_sq=3.0), 5000) == pytest.approx(
            4 * 5000 * math.log2(arg), rel=1e-12)


def _bound_at_levels(spec, m, n, delta_m):
    """warm_start_bound at the closed-form accuracy levels V_m, V_{n-m}, V_n."""
    return warm_start_bound(spec, m, n, delta_m, statistical_accuracy(spec, m),
                            statistical_accuracy(spec, n - m), statistical_accuracy(spec, n))


class TestWarmStartBound:
    def test_doubled_with_delta_equal_accuracy(self):
        v_m = statistical_accuracy(UNIT, 200)
        bound = _bound_at_levels(UNIT, 200, 400, delta_m=v_m)
        assert bound == pytest.approx(3.5857864376269049 * v_m, rel=1e-12)

    def test_doubled_alpha_one(self):
        spec = RiskSpec(alpha=1.0)
        v_m = statistical_accuracy(spec, 100)
        assert _bound_at_levels(spec, 100, 200, delta_m=0.0) == pytest.approx(
            3.0 * v_m, rel=1e-12)

    def test_general_equals_doubled(self):
        # at n = 2m the bound is delta_m + (2 + (1 - 2^-a)(2 + (c/2)||w*||^2)) V_m
        for alpha in (0.5, 0.75, 1.0):
            for wsq in (0.0, 2.5):
                spec = RiskSpec(c=1.3, alpha=alpha, gamma=1.7, wstar_sq=wsq)
                coefficient = 2.0 + (1.0 - 2.0**-alpha) * (2.0 + 0.5 * spec.c * wsq)
                for m in (100, 537):
                    general = _bound_at_levels(spec, m, 2 * m, 0.01)
                    doubled = 0.01 + coefficient * statistical_accuracy(spec, m)
                    assert general == pytest.approx(doubled, rel=1e-12)

    def test_general_continuity_toward_equal_sizes(self):
        # as m -> n the extra terms vanish and only delta_m remains
        n = 10**9
        bound = _bound_at_levels(UNIT, n - 1, n, delta_m=0.125)
        assert bound == pytest.approx(0.125, abs=1e-6)

    def test_order_check(self):
        with pytest.raises(ValueError):
            warm_start_bound(UNIT, 100, 100, 0.0, 0.1, 0.1, 0.1)
