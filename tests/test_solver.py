import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gska
from gska.coherence import ClassWeights
from gska.data import DataError, Dataset, GroupPartition
from gska.solver import (SolverConfig, _Groups, group_gradient,
                         group_update, spectral_norm_sq, lambda_max,
                         majorization_constant, objective, solve)

from oracles import (gd_smooth_risk, lambda_max_two_products,
                     metric_prox_newton, naive_objective,
                     spectral_norm_sq_two_products)


def make_instance(n, groups, seed, sigma=1.0, lam=0.1, **cfg_kw):
    rng = np.random.default_rng(seed)
    p = sum(len(g) for g in groups)
    X = rng.standard_normal((n, p))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    data = Dataset(X, y, tuple(f"f{i}" for i in range(p)),
                   tuple(str(i) for i in range(n)))
    part = GroupPartition(tuple(tuple(g) for g in groups),
                          tuple(f"g{j}" for j in range(len(groups))))
    kern = gska.median_heuristic_gamma(data, part)
    gram = gska.gram_blocks(data, part, kern)
    cfg = SolverConfig(lam=lam, sigma=sigma, **cfg_kw)
    return gram, y, part, cfg


class TestObjective:
    def test_zero_alpha_unit_weights(self):
        gram, y, part, cfg = make_instance(8, [(0, 1), (2,)], 0, lam=0.3)
        alpha = np.zeros((part.d, len(y)))
        assert objective(alpha, gram, y, part, cfg) == 1.0

    def test_lambda_zero_equals_risk(self):
        gram, y, part, _ = make_instance(8, [(0, 1), (2,)], 1)
        cfg = SolverConfig(lam=0.0, sigma=0.8)
        rng = np.random.default_rng(2)
        alpha = rng.standard_normal((part.d, len(y))) * 0.1
        m = y * sum(gram[j] @ alpha[j] for j in range(part.d))
        risk = gska.empirical_risk(m, y, ClassWeights(), cfg.loss_params)
        np.testing.assert_allclose(objective(alpha, gram, y, part, cfg), risk,
                                   atol=1e-14)

    def test_zero_block_skipped_same_value(self):
        gram, y, part, cfg = make_instance(20, [(0,), (1, 2), (3,)], 30,
                                           lam=0.1)
        alpha = np.zeros((part.d, len(y)))
        alpha[1] = np.linspace(-1.0, 1.0, len(y))
        counted = [_CountingMatrix(K) for K in gram]
        value = objective(alpha, counted, y, part, cfg)
        assert [K.products for K in counted] == [0, 1, 0]
        f = np.zeros(len(y))
        for K, a_j in zip(gram, alpha):
            f += K @ a_j
        risk = gska.empirical_risk(y * f, y, ClassWeights(),
                                   cfg.loss_params)
        assert value == risk + cfg.lam * sum(
            w * float(np.linalg.norm(a_j))
            for w, a_j in zip(part.weights, alpha))

    def test_matches_naive_summation_oracle(self):
        gram, y, part, cfg = make_instance(
            6, [(0,), (1, 2)], 3, sigma=0.7, lam=0.25,
            class_weights=ClassWeights(1.5, 0.6))
        rng = np.random.default_rng(4)
        alpha = rng.standard_normal((part.d, len(y))) * 0.3
        expect = naive_objective(alpha, gram, y, part.weights, cfg.lam,
                                 cfg.sigma, 1.5, 0.6)
        np.testing.assert_allclose(objective(alpha, gram, y, part, cfg),
                                   expect, atol=1e-12)

    def test_dimension_mismatch(self):
        gram, y, part, cfg = make_instance(5, [(0,)], 5)
        with pytest.raises(DataError):
            objective(np.zeros((2, 5)), gram, y, part, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nan_alpha,intercept", [
        (True, 0.0), (False, np.inf), (False, -np.inf)],
        ids=["nan_alpha", "inf_intercept", "minus_inf_intercept"])
    def test_non_finite_input_raises(self, nan_alpha, intercept):
        # both public entry points, not only objective
        gram, y, part, cfg = make_instance(10, [(0,), (1, 2)], 31)
        alpha = np.zeros((part.d, len(y)))
        if nan_alpha:
            alpha[1, 3] = np.nan
        with pytest.raises(DataError, match="margin must be finite"):
            objective(alpha, gram, y, part, cfg, intercept)
        with pytest.raises(DataError, match="margin must be finite"):
            group_gradient(alpha, gram, y, part, cfg, 0, intercept)


class TestGroupGradient:
    def test_finite_difference(self):
        gram, y, part, cfg = make_instance(
            6, [(0, 1), (2,)], 6, sigma=0.9, lam=0.0,
            class_weights=ClassWeights(1.3, 0.8))
        rng = np.random.default_rng(7)
        alpha = rng.standard_normal((part.d, 6)) * 0.2
        h = 1e-6
        for j in range(part.d):
            g = group_gradient(alpha, gram, y, part, cfg, j)
            for k in range(6):
                ap = alpha.copy()
                ap[j, k] += h
                am = alpha.copy()
                am[j, k] -= h
                fd = (objective(ap, gram, y, part, cfg)
                      - objective(am, gram, y, part, cfg)) / (2 * h)
                assert abs(g[k] - fd) < 1e-6

    def test_zero_at_symmetric_labels_with_ones_block(self):
        n = 6
        y = np.array([1.0, -1.0] * 3)
        gram = [np.ones((n, n))]
        part = GroupPartition(((0,),), ("g",))
        cfg = SolverConfig(lam=0.0, sigma=1.0)
        g = group_gradient(np.zeros((1, n)), gram, y, part, cfg, 0)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_class_weight_linearity(self):
        gram, y, part, _ = make_instance(7, [(0, 1)], 8)
        alpha = np.zeros((1, 7))
        g1 = group_gradient(alpha, gram, y, part,
                            SolverConfig(0.0, class_weights=ClassWeights(1, 1)),
                            0)
        g2 = group_gradient(alpha, gram, y, part,
                            SolverConfig(0.0, class_weights=ClassWeights(2, 2)),
                            0)
        np.testing.assert_allclose(g2, 2 * g1, atol=1e-14)

    def test_invalid_group(self):
        gram, y, part, cfg = make_instance(5, [(0,)], 9)
        with pytest.raises(DataError):
            group_gradient(np.zeros((1, 5)), gram, y, part, cfg, 3)


class TestMajorizationConstant:
    def test_single_sample_identity_block(self):
        gram = [np.array([[1.0]])]
        y = np.array([1.0])
        cfg = SolverConfig(lam=0.0, sigma=1.0)
        expect = 1.01 / (4.0 * np.log(1 + np.e))
        np.testing.assert_allclose(majorization_constant(gram, y, cfg, 0),
                                   expect, rtol=1e-7)

    def test_doubling_weights_doubles_gamma(self):
        gram, y, part, _ = make_instance(8, [(0, 1)], 10)
        g1 = majorization_constant(
            gram, y, SolverConfig(0.0, class_weights=ClassWeights(1, 1)), 0)
        g2 = majorization_constant(
            gram, y, SolverConfig(0.0, class_weights=ClassWeights(2, 2)), 0)
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-10)

    def test_upper_bounds_quadratic_growth(self):
        gram, y, part, cfg = make_instance(
            10, [(0, 1, 2)], 11, sigma=0.8,
            class_weights=ClassWeights(1.4, 0.7))
        cfg0 = SolverConfig(0.0, cfg.sigma, class_weights=cfg.class_weights)
        gamma = majorization_constant(gram, y, cfg0, 0)
        rng = np.random.default_rng(12)
        alpha = rng.standard_normal((1, 10)) * 0.2
        base = objective(alpha, gram, y, part, cfg0)
        grad = group_gradient(alpha, gram, y, part, cfg0, 0)
        for _ in range(20):
            delta = rng.standard_normal(10) * 0.5
            trial = alpha.copy()
            trial[0] += delta
            lhs = objective(trial, gram, y, part, cfg0)
            rhs = base + grad @ delta + 0.5 * gamma * delta @ delta
            assert lhs <= rhs + 1e-10


class TestGroupUpdate:
    def test_threshold_zeroes(self):
        out = group_update(np.array([0.1, 0.1]), np.array([0.2, 0.1]),
                           1.0, 10.0, 1.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_lambda_zero_plain_step(self):
        alpha = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.25])
        out = group_update(alpha, grad, 2.0, 0.0, 1.0)
        np.testing.assert_allclose(out, alpha - grad / 2.0, atol=1e-15)

    def test_hand_evaluated_shrinkage(self):
        # u = [3, 4], ||u|| = 5, threshold 2.5 -> (1 - 0.5) u
        out = group_update(np.array([3.0, 4.0]), np.zeros(2), 1.0, 2.5, 1.0)
        np.testing.assert_allclose(out, [1.5, 2.0], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 5e-324])
    def test_vanishing_threshold_gives_the_plain_step(self, lam):
        # at 5e-324, norm / threshold overflows
        alpha = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.25])
        for gamma in (2.0, np.array([2.0, 0.5])):
            out = group_update(alpha, grad, gamma, lam, 1.0)
            np.testing.assert_allclose(out, alpha - grad / gamma,
                                       rtol=1e-15)


class TestMetricProx:
    """group_update with one curvature per coordinate (an eigenbasis)."""

    def test_threshold_zeroes(self):
        m = np.array([4.0, 0.5, 1e-3])
        alpha = np.array([0.1, -0.2, 3.0])
        grad = np.array([0.3, 0.1, 0.0])
        thresh = float(np.linalg.norm(m * alpha - grad))
        out = group_update(alpha, grad, m, thresh, 1.0)
        np.testing.assert_array_equal(out, 0.0)
        assert np.all(group_update(alpha, grad, m, thresh / 2, 1.0) != 0)

    def test_lambda_zero_returns_u(self):
        m = np.array([4.0, 0.5, 1e-3])
        alpha = np.array([1.0, -2.0, 0.5])
        grad = np.array([0.5, 0.25, -1e-3])
        out = group_update(alpha, grad, m, 0.0, 1.0)
        np.testing.assert_allclose(out, alpha - grad / m, rtol=1e-15)

    def test_matches_brute_force_minimizer(self):
        rng = np.random.default_rng(61)
        zeros = 0
        for _ in range(50):
            k = int(rng.integers(1, 7))
            m = 10.0 ** rng.uniform(-3, 2, k)
            alpha = rng.standard_normal(k)
            grad = rng.standard_normal(k)
            u = alpha - grad / m
            thresh = float(np.linalg.norm(m * u)) * rng.uniform(0.0, 1.3)
            out = group_update(alpha, grad, m, thresh, 1.0)
            ref = metric_prox_newton(u, m, thresh)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)
            zeros += not np.any(out)
        assert 0 < zeros < 50

    def test_scalar_curvature_as_vector_matches_closed_form(self):
        # the group soft-threshold u (1 - thresh / ||gamma u||)
        rng = np.random.default_rng(62)
        alpha, grad = rng.standard_normal(5), rng.standard_normal(5)
        u = alpha - grad / 2.5
        closed = u * (1.0 - 0.3 * 1.5 / np.linalg.norm(2.5 * u))
        assert np.all(closed != 0)
        for gamma in (2.5, np.full(5, 2.5)):
            np.testing.assert_allclose(group_update(alpha, grad, gamma, 0.3,
                                                    1.5), closed, rtol=1e-13)

    def test_finite_at_zero_and_underflowing_curvature(self):
        # eigenvalues down to the bottom of a measured Gram spectrum; the
        # gradient in an eigenbasis is Lambda times a vector, so it is zero
        # where the eigenvalue is
        lam_eig = np.array([175.0, 3.0, 1e-16, 0.0, -4e-16])
        m = 0.25 * lam_eig ** 2
        assert m[2] < 1e-31 and m[3] == 0.0
        alpha = np.array([0.2, -0.1, 0.3, 0.0, 0.1])
        grad = lam_eig * np.array([0.01, -0.5, 0.7, 0.4, 0.2])
        for thresh in (0.0, 1e-3, 0.1, 1.0, 1e3):
            out = group_update(alpha, grad, m, thresh, 1.0)
            assert np.all(np.isfinite(out))
            assert out[3] == 0.0
            if thresh > 0 and np.any(out):
                # first-order condition, with no division by m:
                # m alpha - grad = (m + thresh / ||b||) b
                resid = (m * alpha - grad) - (m + thresh
                                              / np.linalg.norm(out)) * out
                assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(
                    m * alpha - grad)


def metric_prox_cases(seed=61, count=50):
    """(alpha, grad, m, thresh) as in TestMetricProx's brute-force cases."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 7))
        m = 10.0 ** rng.uniform(-3, 2, k)
        alpha = rng.standard_normal(k)
        grad = rng.standard_normal(k)
        thresh = float(np.linalg.norm(m * alpha - grad)) * rng.uniform(0.0,
                                                                       1.3)
        yield alpha, grad, m, thresh


def batched(rows):
    """Flat alpha, grad and gamma, the thresholds and the offsets of rows."""
    alpha, grad, m, thresh = (list(col) for col in zip(*rows))
    offsets = np.cumsum([0] + [len(a) for a in alpha])
    return (np.concatenate(alpha), np.concatenate(grad), np.concatenate(m),
            np.array(thresh), offsets)


class TestBatchedProx:
    """group_update on all blocks at once, against one block at a time."""

    @pytest.mark.parametrize("d", [1, 3, 7, 50])
    def test_matches_one_block_at_a_time(self, d):
        rng = np.random.default_rng(63)
        rows = list(metric_prox_cases())
        # zero rows, plain-step rows and rows of a constant metric
        rows += [(np.array([0.1, -0.1]), np.array([0.2, 0.1]),
                  np.array([1.0, 3.0]), 10.0),
                 (np.array([1.0, -2.0]), np.array([0.5, 0.25]),
                  np.array([2.0, 0.5]), 0.0),
                 (np.array([1.0, -2.0, 0.3]), np.array([0.5, 0.25, 0.0]),
                  np.array([2.0, 0.5, 0.0]), 5e-324),
                 (rng.standard_normal(4), rng.standard_normal(4),
                  np.full(4, 2.5), 0.3),
                 (rng.standard_normal(5), rng.standard_normal(5),
                  np.full(5, 0.01), 1e-3)]
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        for start in range(0, len(rows), d):
            batch = rows[start:start + d]
            alpha, grad, m, thresh, offsets = batched(batch)
            out = group_update(alpha, grad, m, 1.0, thresh, offsets)
            assert out.shape == alpha.shape
            for j, (a, g, m_j, t) in enumerate(batch):
                one = group_update(a, g, m_j, t, 1.0)
                part = out[offsets[j]:offsets[j + 1]]
                np.testing.assert_allclose(part, one, rtol=1e-12, atol=0)
                assert np.any(part) == np.any(one)

    def test_warm_starts_reach_the_cold_root(self):
        # from left of the root (but right of nu0, where Newton starts cold)
        # and from right of it
        rows = [r for r in metric_prox_cases(64) if r[3] > 0
                and np.ptp(r[2]) > 0][:20]
        alpha, grad, m, thresh, offsets = batched(rows)
        nu = np.zeros(len(rows))
        cold = group_update(alpha, grad, m, 1.0, thresh, offsets, nu)
        moved = nu > 0
        assert moved.sum() >= 10
        a = m * alpha - grad
        norm = np.sqrt(np.add.reduceat(a * a, offsets[:-1]))
        nu0 = (norm / thresh - 1.0) / np.maximum.reduceat(m, offsets[:-1])
        assert np.all(nu[moved] > nu0[moved])
        for start in (nu0 + 0.5 * (nu - nu0), 2.0 * nu, 50.0 * nu):
            warm = np.where(moved, start, 0.0)
            out = group_update(alpha, grad, m, 1.0, thresh, offsets, warm)
            np.testing.assert_allclose(warm, nu, rtol=1e-12, atol=0)
            np.testing.assert_allclose(out, cold, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("offsets,empty", [
        ([0, 2, 2], 1), ([0, 0, 2], 0), ([0, 2, 2, 5], 1)],
        ids=["last", "first", "middle"])
    def test_empty_block(self, offsets, empty):
        # a basis that keeps no eigenvalue: the block is zero with root 0,
        # and the others are as without it
        a = np.array([1.0, 2.0, -0.5, 0.3, 1.5])[:offsets[-1]]
        m = np.array([1.0, 3.0, 0.5, 2.0, 4.0])[:offsets[-1]]
        w = np.array([1.0, 2.0, 0.7])[:len(offsets) - 1]
        kept = np.delete(np.arange(len(w)), empty)
        nu = np.zeros(len(w))
        out = group_update(a, -a, m, 0.1, w, np.array(offsets), nu)
        nu_ref = np.zeros(len(kept))
        ref = group_update(a, -a, m, 0.1, w[kept],
                           np.delete(np.array(offsets), empty), nu_ref)
        assert np.array_equal(out, ref) and np.all(ref != 0)
        assert nu[empty] == 0.0 and np.array_equal(nu[kept], nu_ref)
        # the same from warm starts
        warm = np.full(len(w), 2.0)
        again = group_update(a, -a, m, 0.1, w, np.array(offsets), warm)
        warm_ref = np.full(len(kept), 2.0)
        assert np.array_equal(again, group_update(
            a, -a, m, 0.1, w[kept], np.delete(np.array(offsets), empty),
            warm_ref))
        assert warm[empty] == 0.0 and np.array_equal(warm[kept], warm_ref)


class TestSolve:
    def test_zero_solution_above_lambda_max(self):
        gram, y, part, _ = make_instance(20, [(0, 1), (2,), (3, 4)], 13)
        cfg0 = SolverConfig(0.0, 1.0, class_weights=ClassWeights(1.2, 0.9))
        lmax = lambda_max(gram, y, part, cfg0)
        cfg = SolverConfig(1.001 * lmax, 1.0,
                           class_weights=cfg0.class_weights)
        alpha, report = solve(gram, y, part, cfg)
        np.testing.assert_array_equal(alpha, 0.0)
        assert report.converged and report.iterations <= 2
        assert report.active_groups == ()

    def test_below_lambda_max_activates_group(self):
        gram, y, part, _ = make_instance(20, [(0, 1), (2,), (3, 4)], 13)
        cfg0 = SolverConfig(0.0, 1.0)
        lmax = lambda_max(gram, y, part, cfg0)
        alpha, report = solve(gram, y, part, SolverConfig(0.5 * lmax, 1.0))
        assert len(report.active_groups) >= 1

    def test_unregularized_matches_gd_oracle(self):
        # duplicated points with conflicting labels keep the minimum finite
        rng = np.random.default_rng(14)
        X = rng.standard_normal((6, 2))
        X = np.vstack([X, X])
        y = np.concatenate([np.ones(6), -np.ones(6)])
        flip = rng.random(6) > 0.4
        y[:6][flip] = -1
        y[6:][flip] = 1
        data = Dataset(X, y, ("a", "b"), tuple(str(i) for i in range(12)))
        part = GroupPartition(((0, 1),), ("g",))
        gram = gska.gram_blocks(data, part, gska.KernelSpec((0.8,)))
        # at lam = 0, tol bounds each block gradient's norm over w_j
        cfg = SolverConfig(0.0, 1.0, max_iters=200000, tol=1e-13)
        alpha, report = solve(gram, y, part, cfg)
        _, oracle_obj = gd_smooth_risk(gram, y, 1.0, 1.0, 1.0, tol=1e-12)
        assert report.converged
        assert abs(report.objective_trace[-1] - oracle_obj) < 1e-6

    def test_objective_trace_non_increasing(self):
        for fit_intercept in (False, True):
            gram, y, part, cfg = make_instance(25, [(0, 1), (2, 3)], 15,
                                               lam=0.02,
                                               fit_intercept=fit_intercept)
            _, report = solve(gram, y, part, cfg)
            trace = np.array(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_subnormal_lambda_with_small_weights(self, capsys):
        # lam * w_j underflows to 0; residuals are then in units of w_j
        gram, y, part, cfg = make_instance(20, [(0, 1), (2,)], 13,
                                           lam=5e-324, max_iters=20)
        _, report = solve(gram, y, part.with_weights((0.5, 0.5)), cfg)
        assert np.isfinite(report.objective_trace[-1])

    @pytest.mark.parametrize("entries,value,message", [
        ("one", np.nan, "init must be finite"),
        ("one", np.inf, "init must be finite"),
        ("one", -np.inf, "init must be finite"),
        ("all", 1e308, "margin must be finite"),
        ("one", 1e308, "init must give a finite objective")],
        ids=["nan", "inf", "-inf", "overflowing-margins",
             "overflowing-penalty"])
    def test_non_finite_start_is_a_data_error(self, entries, value, message):
        # a start whose coefficients, margins or objective are not finite is
        # bad input, found before any iteration, without a warning; at lam
        # = 0.05 <= lambda_max / 3 a sound warm start would take the bases,
        # so the start is checked before they are built
        data, part, _ = gska.synth_generate(60, 1, 0.2)
        gram = gska.gram_blocks(data, part,
                                gska.median_heuristic_gamma(data, part))
        assert 3 * 0.05 <= lambda_max(gram, data.labels, part,
                                      SolverConfig(0.0))
        init = np.zeros((part.d, data.n))
        if entries == "all":
            init[:] = value
        else:
            init[1, 7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                solve(gram, data.labels, part, SolverConfig(0.05), init)
        assert gram.budget is None
        assert all(gram.eigvals(j) is None for j in range(part.d))

    def test_deterministic(self):
        gram, y, part, cfg = make_instance(15, [(0,), (1, 2)], 16, lam=0.05)
        a1, _ = solve(gram, y, part, cfg)
        a2, _ = solve(gram, y, part, cfg)
        np.testing.assert_array_equal(a1, a2)

    def test_group_reordering_permutes_solution(self):
        gram, y, part, cfg = make_instance(18, [(0, 1), (2,), (3, 4)], 17,
                                           lam=0.03, tol=1e-6,
                                           max_iters=20000)
        alpha, rep = solve(gram, y, part, cfg)
        perm = [2, 0, 1]
        part2 = GroupPartition(tuple(part.groups[j] for j in perm),
                               tuple(part.group_names[j] for j in perm),
                               tuple(part.weights[j] for j in perm))
        gram2 = [gram[j] for j in perm]
        alpha2, rep2 = solve(gram2, y, part2, cfg)
        assert rep.converged and rep2.converged
        assert abs(rep.objective_trace[-1] - rep2.objective_trace[-1]) < 1e-8
        np.testing.assert_allclose(alpha2, alpha[perm], atol=1e-5)

    def test_kkt_at_convergence(self):
        gram, y, part, _ = make_instance(30, [(0, 1), (2, 3), (4,)], 18)
        cfg0 = SolverConfig(0.0, 1.0)
        lmax = lambda_max(gram, y, part, cfg0)
        cfg = SolverConfig(0.3 * lmax, 1.0, tol=1e-6, max_iters=50000)
        alpha, report = solve(gram, y, part, cfg)
        assert report.converged
        for j in range(part.d):
            g = group_gradient(alpha, gram, y, part, cfg, j)
            tw = cfg.lam * part.weights[j]
            nj = np.linalg.norm(alpha[j])
            if nj == 0:
                assert np.linalg.norm(g) <= tw + 1e-4
            else:
                assert np.linalg.norm(g + tw * alpha[j] / nj) <= 1e-4

    def test_monotone_sparsity_trend(self):
        d, part, _ = gska.synth_generate(80, 19, 0.2)
        std, _ = gska.standardize(d)
        kern = gska.median_heuristic_gamma(std, part)
        gram = gska.gram_blocks(std, part, kern)
        cfg0 = SolverConfig(0.0, 1.0)
        lmax = lambda_max(gram, std.labels, part, cfg0)
        counts = []
        for frac in (0.01, 0.05, 0.2, 0.6, 1.1):
            _, rep = solve(gram, std.labels, part,
                           SolverConfig(frac * lmax, 1.0))
            counts.append(len(rep.active_groups))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def kkt_violations(alpha, gram, y, part, cfg, intercept=0.0):
    """Per-group KKT violation in units of lam * w_j, via group_gradient."""
    out = []
    for j, w in enumerate(part.weights):
        g = group_gradient(alpha, gram, y, part, cfg, j, intercept)
        tw = cfg.lam * w
        nj = np.linalg.norm(alpha[j])
        viol = (np.linalg.norm(g + tw * alpha[j] / nj) if nj > 0
                else max(np.linalg.norm(g) - tw, 0.0))
        out.append(viol / tw)
    return out


class TestStoppingRule:
    @pytest.mark.parametrize("seed,frac,tol,fit_intercept", [
        pytest.param(22, 0.3, 1e-2, False, id="22-0.3-0.01"),
        pytest.param(23, 0.1, 1e-4, False, id="23-0.1-0.0001"),
        pytest.param(24, 0.6, 1e-6, False, id="24-0.6-1e-06"),
        pytest.param(22, 0.3, 1e-2, True, id="22-0.3-0.01-intercept"),
        pytest.param(23, 0.1, 1e-4, True, id="23-0.1-0.0001-intercept"),
        pytest.param(24, 0.6, 1e-6, True, id="24-0.6-1e-06-intercept")])
    def test_converged_means_kkt_within_tol(self, seed, frac, tol,
                                            fit_intercept):
        gram, y, part, _ = make_instance(40, [(0, 1), (2,), (3, 4)], seed)
        part = part.sqrt_size_weights()
        cw = ClassWeights(1.3, 0.8)
        lmax = lambda_max(gram, y, part,
                          SolverConfig(0.0, 0.7, class_weights=cw))
        cfg = SolverConfig(frac * lmax, 0.7, tol=tol, max_iters=20000,
                           class_weights=cw, fit_intercept=fit_intercept)
        alpha, report = solve(gram, y, part, cfg)
        b = report.intercept
        assert report.converged
        assert max(kkt_violations(alpha, gram, y, part, cfg, b)) <= tol
        if not fit_intercept:
            assert b == 0.0
            return
        # dR/db = d objective / d intercept, by central difference
        h = 1e-6
        grad_b = (objective(alpha, gram, y, part, cfg, b + h)
                  - objective(alpha, gram, y, part, cfg, b - h)) / (2 * h)
        assert abs(grad_b) <= tol * cfg.lam * min(part.weights)

    def test_warm_start_above_a_third_of_lambda_max_stays_dense(self):
        # lam = 0.07 is lambda_max / 2.6: this solve, warm-started from the
        # solution at twice lam, runs past iteration 50 on the dense blocks
        gram, y, part, cfg = make_instance(15, [(0,), (1, 2)], 16, lam=0.07,
                                           tol=1e-4)
        assert 3 * cfg.lam > lambda_max(gram, y, part, cfg)
        init, _ = solve([np.array(K) for K in gram], y, part,
                        replace(cfg, lam=2 * cfg.lam))
        _, report = solve(gram, y, part, cfg, init)
        assert report.converged and report.iterations > 50
        assert all(gram.eigvals(j) is None for j in range(part.d))

    # Reference objectives of synth_generate(500, seed, noise=0.2) with
    # inverse-frequency weights, sigma = 1: long runs stopped at the
    # rounding floor (KKT <= 5e-6 lam w_j; the seed-1 lam = 0.03 value
    # agrees with an independent accelerated run to KKT 4e-9, objective
    # 0.644051). The seed 2 and 3 values come from the scalar-bound solver
    # that preceded the eigenbasis solves: gska.fit with tol=1e-9 and
    # max_iters=200000, which runs dense and stops at the rounding floor
    # after 755-2969 iterations with KKT 1.9e-7 to 3.3e-6 lam w_j.
    # The intercept fit's reference is a run at tol 1e-6.
    @pytest.mark.parametrize("seed,lam,reference,fit_intercept", [
        pytest.param(1, 0.05, 0.7419846932, False, id="0.05-0.7419846932"),
        pytest.param(1, 0.03, 0.6440507746, False, id="0.03-0.6440507746"),
        pytest.param(1, 0.01, 0.4651543006, False, id="0.01-0.4651543006"),
        pytest.param(1, 0.03, 0.625720772434, True,
                     id="0.03-0.625720772434-intercept"),
        pytest.param(2, 0.05, 0.7370004812, False, id="seed2-0.05"),
        pytest.param(2, 0.03, 0.6357516779, False, id="seed2-0.03"),
        pytest.param(2, 0.01, 0.4589835774, False, id="seed2-0.01"),
        pytest.param(3, 0.05, 0.7387948187, False, id="seed3-0.05"),
        pytest.param(3, 0.03, 0.6383249792, False, id="seed3-0.03"),
        pytest.param(3, 0.01, 0.4611642257, False, id="seed3-0.01")])
    def test_tol_1e4_reaches_long_run_objective(self, seed, lam, reference,
                                                fit_intercept):
        data, part, _ = gska.synth_generate(500, seed, 0.2)
        model = gska.fit(data, part,
                         SolverConfig(lam, 1.0, tol=1e-4, max_iters=5000,
                                      fit_intercept=fit_intercept))
        assert model.report.converged
        assert abs(model.report.objective_trace[-1] - reference) \
            <= 1e-6 * reference

    def test_nan_gradient_is_never_within_tol(self):
        # a NaN in any block, not only the first, makes the residual NaN
        groups = _Groups(np.array([0, 2, 4]), 0.1, (1.0, 1.0))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        for g in (np.array([np.nan, 0.0, 0.0, 0.0]),
                  np.array([0.0, 0.0, 0.0, np.nan])):
            assert np.isnan(groups.kkt(x, g, 0.0))
        assert np.isnan(groups.kkt(x, np.zeros(4), np.nan))

    def test_empty_segments_have_zero_norm(self):
        # a basis that keeps no eigenvalue holds no coordinates, in the
        # middle of the flat vector or at its end
        v = np.array([3.0, 4.0, 0.0, 6.0, 8.0])
        for offsets, norms in (([0, 3, 3, 5], [5.0, 0.0, 10.0]),
                               ([0, 2, 5, 5], [5.0, 10.0, 0.0]),
                               ([0, 0, 0], [0.0, 0.0])):
            groups = _Groups(np.array(offsets), 0.1, (1.0,) * len(norms))
            w = v[:offsets[-1]]
            np.testing.assert_array_equal(groups.norms(w), norms)
            assert groups.penalty(w) == pytest.approx(0.1 * sum(norms))
            assert groups.kkt(0 * w, 0 * w, 0.0) == 0.0

    def test_cap_warns_once_on_stderr(self, capsys):
        gram, y, part, _ = make_instance(30, [(0, 1), (2, 3)], 25)
        cfg = SolverConfig(0.01, 0.5, max_iters=2, tol=1e-8)
        alpha, report = solve(gram, y, part, cfg)
        assert not report.converged and report.iterations == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "lambda=0.01" in lines[0] and "sigma=0.5" in lines[0]
        kkt = max(kkt_violations(alpha, gram, y, part, cfg))
        assert f"KKT residual {kkt:.3g} " in lines[0]

    def test_no_warning_when_converged(self, capsys):
        gram, y, part, _ = make_instance(30, [(0, 1), (2, 3)], 25)
        _, report = solve(gram, y, part, SolverConfig(0.05, 1.0))
        assert report.converged
        assert capsys.readouterr().err == ""


class _CountingMatrix:
    """A symmetric matrix that counts its products with vectors."""

    def __init__(self, K):
        self.K, self.shape, self.products = K, K.shape, 0

    @property
    def T(self):
        return self

    def __matmul__(self, v):
        self.products += 1
        return self.K @ v


class TestSpectralNormSq:
    def test_equals_two_product_loop_exactly(self):
        gram, _, _, _ = make_instance(40, [(0, 1), (2,)], 26)
        rng = np.random.default_rng(27)
        for K in (*gram, rng.standard_normal((30, 30)), np.eye(3),
                  np.zeros((4, 4))):
            assert spectral_norm_sq(K) == spectral_norm_sq_two_products(K)

    def test_exact_where_clustered_eigenvalues_stall_the_iteration(self):
        # eigenvalues 1, 0.9999, ...: the estimate still moves by more than
        # its tolerance after the iteration cap
        K = np.diag(1.0 - 1e-4 * np.arange(30))
        assert spectral_norm_sq(K) == 1.0

    def test_one_product_per_iteration(self):
        gram, _, _, _ = make_instance(40, [(0, 1)], 28)
        one, two = _CountingMatrix(gram[0]), _CountingMatrix(gram[0])
        assert spectral_norm_sq(one) == spectral_norm_sq_two_products(two)
        # k iterations: 2(k + 1) matvecs against 4k
        assert one.products == two.products // 2 + 2


class TestLambdaMax:
    def test_weight_homogeneity(self):
        gram, y, part, _ = make_instance(12, [(0, 1), (2,)], 20)
        cfg = SolverConfig(0.0, 1.0)
        base = lambda_max(gram, y, part, cfg)
        doubled = lambda_max(gram, y, part.with_weights(
            tuple(2 * w for w in part.weights)), cfg)
        np.testing.assert_allclose(doubled, base / 2, rtol=1e-12)

    def test_one_product_per_block_same_value(self):
        gram, y, part, _ = make_instance(30, [(0, 1), (2,), (3, 4)], 29)
        part = part.with_weights((1.5, 0.5, 1.0))
        cfg = SolverConfig(0.0, 0.5, class_weights=ClassWeights(1.3, 0.7))
        one = [_CountingMatrix(K) for K in gram]
        two = [_CountingMatrix(K) for K in gram]
        value = lambda_max(one, y, part, cfg)
        assert value == lambda_max_two_products(two, y, part.weights, 0.5,
                                                1.3, 0.7)
        assert [K.products for K in one] == [1, 1, 1]
        assert [K.products for K in two] == [2, 2, 2]


class TestIntercept:
    def test_intercept_improves_imbalanced_objective(self):
        gram, y, part, _ = make_instance(30, [(0, 1)], 21)
        y = np.where(np.arange(30) < 25, 1.0, -1.0)     # 83% positive
        lmax = lambda_max(gram, y, part, SolverConfig(0.0, 1.0))
        cfg_no = SolverConfig(2 * lmax, 1.0)
        cfg_b = SolverConfig(2 * lmax, 1.0, fit_intercept=True)
        _, rep_no = solve(gram, y, part, cfg_no)
        _, rep_b = solve(gram, y, part, cfg_b)
        assert rep_b.objective_trace[-1] < rep_no.objective_trace[-1]
        assert rep_b.intercept > 0

    def test_step_stays_finite_where_curvature_underflows(self, capsys):
        # at sigma = 0.001 the loss curvature at zero margins underflows to 0
        gram, y, part, cfg = make_instance(25, [(0, 1), (2, 3)], 15,
                                           sigma=0.001, lam=0.02,
                                           fit_intercept=True, max_iters=50)
        _, report = solve(gram, y, part, cfg)
        assert np.isfinite(report.intercept) and report.intercept != 0.0
        assert np.all(np.diff(report.objective_trace) <= 1e-10)


def _named(name):
    """(module, top-level definition, written) for every place in the
    package's code that names `name`: a use, an import or a definition. A
    method counts under its class."""
    places = set()
    for path in sorted(Path(gska.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if name in (getattr(node, key, None)
                            for key in ("id", "attr", "name")):
                    places.add((path.stem, getattr(top, "name", ""),
                                isinstance(getattr(node, "ctx", None),
                                           ast.Store)))
    return places


def test_the_path_policy_lives_in_the_solver():
    # a fold's lambda order, warm starts and basis budget are solve_path's:
    # fit and grid search solve only through it, the evaluation layer names
    # no budget or floor, and only solve_path sets the shared budget (beside
    # GramBlocks' own initial value)
    assert {m for m, _, _ in _named("basis_budget")} == {"solver"}
    assert {m for m, _, _ in _named("shared_budget")} == {"solver", "kernels"}
    assert {(m, top) for m, top, written in _named("shared_budget")
            if written} == {("solver", "solve_path"), ("kernels", "GramBlocks")}
    assert {(m, top) for m, top, _ in _named("solve")} == {
        ("__init__", ""), ("solver", "solve"), ("solver", "solve_path")}
    assert {m for m, _, _ in _named("solve_path")} == {"solver", "model"}
    source = (Path(gska.__file__).resolve().parent
              / "evaluation.py").read_text(encoding="utf-8")
    assert "budget" not in source and "floor" not in source
