import numpy as np
import pytest

import gska
from gska.coherence import (ClassWeights, CoherenceParams, curvature_bound,
                            empirical_risk, loss, loss_grad)
from gska.data import DataError


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestLoss:
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
    def test_zero_margin_is_one(self, sigma):
        assert loss(0.0, CoherenceParams(sigma)) == 1.0

    def test_margin_one_sigma_one(self):
        expect = np.log(2) / np.log(1 + np.e)
        np.testing.assert_allclose(loss(1.0, CoherenceParams(1.0)), expect,
                                   atol=1e-12)

    def test_extreme_margin_stable(self):
        # (1 - u)/sigma = -90: must evaluate without overflow or NaN
        v = loss(10.0, CoherenceParams(0.1))
        assert np.isfinite(v) and v > 0
        np.testing.assert_allclose(v, np.exp(-90.0) / np.logaddexp(0, 10.0),
                                   rtol=1e-10)
        assert np.isfinite(loss(-1000.0, CoherenceParams(0.1)))

    def test_monotone_decreasing(self):
        params = CoherenceParams(0.7)
        grid = np.linspace(-5, 5, 101)
        vals = loss(grid, params)
        assert np.all(np.diff(vals) < 0)

    def test_convexity_on_grid(self):
        for sigma in (0.3, 1.0, 2.5):
            params = CoherenceParams(sigma)
            u = np.linspace(-4, 4, 41)
            for t in (0.25, 0.5, 0.75):
                lhs = loss(t * u[:-1] + (1 - t) * u[1:], params)
                rhs = t * loss(u[:-1], params) + (1 - t) * loss(u[1:], params)
                assert np.all(lhs <= rhs + 1e-12)

    def test_hinge_limit(self):
        u = np.linspace(-3, 3, 601)
        params = CoherenceParams(0.01)
        sup = np.max(np.abs(loss(u, params) - np.maximum(0.0, 1.0 - u)))
        assert sup < 0.01

    def test_nonfinite_margin(self):
        with pytest.raises(DataError):
            loss(np.nan, CoherenceParams(1.0))


class TestLossGrad:
    def test_margin_one_sigma_one(self):
        expect = -0.5 / np.log(1 + np.e)
        np.testing.assert_allclose(loss_grad(1.0, CoherenceParams(1.0)),
                                   expect, atol=1e-12)

    def test_saturation(self):
        g = loss_grad(50.0, CoherenceParams(1.0))
        assert -1e-18 < g < 0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("u", [-2.0, -0.5, 0.0, 0.7, 3.0])
    def test_finite_difference(self, sigma, u):
        params = CoherenceParams(sigma)
        fd = central_diff(lambda x: loss(x, params), u)
        assert abs(loss_grad(u, params) - fd) < 1e-6

    def test_always_negative_and_bounded(self):
        params = CoherenceParams(0.8)
        u = np.linspace(-20, 20, 201)
        g = loss_grad(u, params)
        bound = 1.0 / (params.sigma * params.normalizer)
        assert np.all(g < 0)
        assert np.all(np.abs(g) <= bound + 1e-12)


class TestCurvatureBound:
    def test_sigma_one_closed_form(self):
        expect = 1.0 / (4.0 * np.log(1 + np.e))
        np.testing.assert_allclose(curvature_bound(CoherenceParams(1.0)),
                                   expect, atol=1e-12)

    def test_sigma_half_closed_form(self):
        expect = 1.0 / np.log(1 + np.exp(2.0))
        np.testing.assert_allclose(curvature_bound(CoherenceParams(0.5)),
                                   expect, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 3.0])
    def test_bound_attained_at_margin_one(self, sigma):
        # loss'' as a central difference of loss_grad: at most the bound,
        # which it reaches at margin 1
        params = CoherenceParams(sigma)
        bound = curvature_bound(params)

        def curv(u):
            return central_diff(lambda x: loss_grad(x, params), u)

        assert abs(curv(1.0) - bound) <= 1e-6 * bound
        u = np.linspace(-20, 20, 4001)
        assert np.all(curv(u) <= bound * (1 + 1e-6))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0, 1e308,
                                       5e-324])
    def test_sigma_without_a_positive_finite_bound_rejected(self, sigma):
        # the solver divides by the bound
        with pytest.raises(DataError, match="sigma"):
            CoherenceParams(sigma)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_bounds_second_difference_on_grid(self, sigma):
        params = CoherenceParams(sigma)
        u = np.linspace(-10, 10, 2001)
        h = u[1] - u[0]
        vals = loss(u, params)
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        assert second.max() <= curvature_bound(params) + 1e-9


class TestEmpiricalRisk:
    def test_all_zero_margins(self):
        m = np.zeros(5)
        y = np.array([1, 1, -1, -1, 1.0])
        assert empirical_risk(m, y, ClassWeights(), CoherenceParams(1.0)) == 1.0

    def test_mean_of_equal_terms(self):
        m = np.array([1.0, 1.0])
        y = np.array([1.0, -1.0])
        expect = np.log(2) / np.log(1 + np.e)
        np.testing.assert_allclose(
            empirical_risk(m, y, ClassWeights(), CoherenceParams(1.0)),
            expect, atol=1e-12)

    def test_matches_term_by_term_oracle(self):
        m = np.array([0.3, -1.2, 2.0])
        y = np.array([1.0, -1.0, 1.0])
        w = ClassWeights(2.0, 0.5)
        params = CoherenceParams(0.9)
        expect = np.mean([(2.0 if yi > 0 else 0.5) * loss(mi, params)
                          for mi, yi in zip(m, y)])
        np.testing.assert_allclose(
            empirical_risk(m, y, w, params), expect, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            empirical_risk(np.zeros(3), np.ones(2), ClassWeights(),
                           CoherenceParams(1.0))


class TestClassWeights:
    def test_inverse_frequency(self):
        y = np.array([1.0] * 2 + [-1.0] * 8)
        w = ClassWeights.inverse_frequency(y)
        np.testing.assert_allclose(w.weight_pos, 10 / 4)
        np.testing.assert_allclose(w.weight_neg, 10 / 16)
        # mean weight 1
        np.testing.assert_allclose(np.mean(w.per_sample(y)), 1.0)

    def test_single_class_errors(self):
        with pytest.raises(DataError):
            ClassWeights.inverse_frequency(np.ones(5))

    def test_nonpositive_rejected(self):
        with pytest.raises(DataError):
            ClassWeights(0.0, 1.0)
