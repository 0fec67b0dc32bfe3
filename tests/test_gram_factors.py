"""Long solves on pivoted-Cholesky factors of the Gram blocks.

A GramBlocks from `gram_blocks` switches a solve that is still running after
50 iterations to low-rank factors of its blocks. The oracle is the same
solve on a plain list of the dense blocks, which never factors. The
instances use one- and two-feature groups so that the blocks have rank well
below n / 2 at n = 300.
"""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import gska
from gska import kernels
from gska.coherence import ClassWeights
from gska.data import Dataset, GroupPartition
from gska.interpret import (_component_matrix, group_contribution,
                            rkhs_contribution)
from gska.solver import (SolverConfig, group_gradient, lambda_max, objective,
                         solve)

from test_solver import kkt_violations


def instance(n, groups, seed=3):
    rng = np.random.default_rng(seed)
    p = sum(len(g) for g in groups)
    X = rng.standard_normal((n, p))
    y = np.where(np.sin(2 * X[:, 0]) + X[:, 1] ** 2 - 1
                 + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
    data = Dataset(X, y, tuple(f"f{i}" for i in range(p)),
                   tuple(str(i) for i in range(n)))
    part = GroupPartition(tuple(tuple(g) for g in groups),
                          tuple(f"g{j}" for j in range(len(groups))))
    return data, part, gska.median_heuristic_gamma(data, part)


LOW_RANK = [(0,), (1,), (2, 3)]


@pytest.fixture(scope="module")
def low_rank():
    data, part, spec = instance(300, LOW_RANK)
    cw = ClassWeights.inverse_frequency(data.labels)
    top = lambda_max(gska.gram_blocks(data, part, spec), data.labels, part,
                     SolverConfig(0.0, 1.0, class_weights=cw))
    cfg = SolverConfig(0.1 * top, 1.0, tol=1e-4, max_iters=5000,
                       class_weights=cw)
    return data, part, spec, cfg


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture
def factor_calls(monkeypatch):
    calls = []
    original = kernels._pivoted_cholesky

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "_pivoted_cholesky", counted)
    return calls


class TestLongSolve:
    def test_matches_dense_oracle(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        alpha, rep = solve(gram, data.labels, part, cfg)
        alpha_d, rep_d = solve(dense, data.labels, part, cfg)
        assert rep.iterations > 50
        assert all(gram.factored(j) for j in range(part.d))
        assert rep.converged and rep_d.converged
        assert rel(rep.objective_trace[-1], rep_d.objective_trace[-1]) < 1e-8
        assert max(kkt_violations(alpha, dense, data.labels, part,
                                  cfg)) <= cfg.tol

    def test_reported_objective_is_exact(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        alpha, rep = solve(gram, data.labels, part, cfg)
        assert rel(rep.objective_trace[-1],
                   objective(alpha, dense, data.labels, part, cfg)) < 1e-12

    def test_dense_array_is_freed(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        refs = [weakref.ref(K) for K in gram]
        solve(gram, data.labels, part, cfg)
        assert all(r() is None for r in refs)

    def test_rebuilt_block_is_bit_identical(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        solve(gram, data.labels, part, cfg)
        v = np.random.default_rng(0).standard_normal(data.n)
        for j in range(part.d):
            assert gram.factored(j)
            assert np.array_equal(gram[j], dense[j])
            np.testing.assert_allclose(gram.dot(j, v), dense[j] @ v,
                                       rtol=1e-12, atol=1e-12)

    def test_short_solve_never_factors(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        _, rep = solve(gram, data.labels, part, replace(cfg, lam=cfg.lam * 5))
        assert rep.converged and rep.iterations < 50
        assert factor_calls == []
        assert not any(gram.factored(j) for j in range(part.d))

    def test_tiny_tol_stays_dense(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        _, rep = solve(gram, data.labels, part, replace(cfg, tol=1e-9))
        assert rep.iterations > 50
        assert not any(gram.factored(j) for j in range(part.d))
        assert factor_calls == []

    def test_tiny_tol_after_factors_rebuilds_dense(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        solve(gram, data.labels, part, cfg)
        tight = replace(cfg, tol=1e-9)
        alpha, rep = solve(gram, data.labels, part, tight)
        alpha_d, rep_d = solve(dense, data.labels, part, tight)
        assert not any(gram.factored(j) for j in range(part.d))
        assert np.array_equal(alpha, alpha_d)
        assert rep.objective_trace == rep_d.objective_trace

    def test_tight_solve_rearms_factoring(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        alpha, _ = solve(gram, data.labels, part, cfg)
        assert len(factor_calls) == part.d
        solve(gram, data.labels, part, replace(cfg, tol=1e-9))
        assert not any(gram.factored(j) for j in range(part.d))
        assert len(factor_calls) == part.d
        again, _ = solve(gram, data.labels, part, cfg)
        assert all(gram.factored(j) for j in range(part.d))
        assert len(factor_calls) == 2 * part.d
        assert np.array_equal(again, alpha)

    def test_later_solve_starts_on_factors(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        solve(gram, data.labels, part, cfg)
        assert len(factor_calls) == part.d
        alpha, rep = solve(gram, data.labels, part,
                           replace(cfg, lam=cfg.lam * 0.8))
        assert len(factor_calls) == part.d
        assert rep.converged


class TestFullRankBlock:
    def test_stays_dense_and_is_not_tried_again(self, factor_calls):
        # a five-feature group at n = 120 has numerical rank above n / 2
        data, part, spec = instance(120, [(0,), (1,), (2, 3, 4, 5, 6)])
        cw = ClassWeights.inverse_frequency(data.labels)
        gram = gska.gram_blocks(data, part, spec)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(0.05 * top, 1.0, tol=1e-4, max_iters=5000,
                           class_weights=cw)
        full = gram[2]
        _, rep = solve(gram, data.labels, part, cfg)
        assert rep.iterations > 50
        assert [gram.factored(j) for j in range(3)] == [True, True, False]
        assert np.array_equal(gram[2], full)
        tried = len(factor_calls)
        assert tried == 3
        _, rep = solve(gram, data.labels, part, replace(cfg, lam=cfg.lam * 2))
        assert rep.iterations > 50
        assert len(factor_calls) == tried


class TestExactPublicValues:
    def test_objective_gradient_lambda_max(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        alpha, rep = solve(gram, data.labels, part, cfg)
        assert all(gram.factored(j) for j in range(part.d))
        y = data.labels
        assert rel(objective(alpha, gram, y, part, cfg),
                   objective(alpha, dense, y, part, cfg)) < 1e-12
        for j in range(part.d):
            g = group_gradient(alpha, gram, y, part, cfg, j)
            g_d = group_gradient(alpha, dense, y, part, cfg, j)
            assert np.linalg.norm(g - g_d) <= 1e-12 * np.linalg.norm(g_d)
        assert rel(lambda_max(gram, y, part, cfg),
                   lambda_max(dense, y, part, cfg)) < 1e-12

    def test_group_contribution(self, low_rank, factor_calls):
        # the fit solves on factors; the components are exact all the same
        data, part, spec, cfg = low_rank
        model = gska.fit(data, part, cfg, spec)
        assert len(factor_calls) == part.d
        dense = gska.gram_blocks(model.train, part, spec)
        exact = np.vstack([a @ K for a, K in zip(model.alpha, dense)])
        assert np.array_equal(_component_matrix(model), exact)
        contrib = np.sqrt(np.mean(exact ** 2, axis=1))
        importances = group_contribution(model)
        assert [gi.contribution for gi in importances] == contrib.tolist()
        assert [gi.normalized_share for gi in importances] \
            == (contrib / contrib.sum()).tolist()
        assert np.array_equal(rkhs_contribution(model), [
            np.sqrt(max(c @ a, 0.0)) for c, a in zip(exact, model.alpha)])


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestTrainingComponents:
    def test_interpretation_never_rebuilds_a_block(self, low_rank,
                                                   factor_calls):
        # n = 300 is above one scoring tile, so a tile is under n x n
        data, part, spec, cfg = low_rank
        model = gska.fit(data, part, cfg, spec)
        assert len(factor_calls) == part.d
        peaks = [traced_peak(fn, model)[1] for fn in
                 (_component_matrix, group_contribution, rkhs_contribution)]
        assert max(peaks) < data.n * data.n * 8


class TestCurvatureConstants:
    def test_spectral_norm_once_per_block(self, low_rank, rebind):
        data, part, spec, cfg = low_rank
        calls = []
        original = gska.solver.spectral_norm_sq

        def counted(K, *args, **kwargs):
            calls.append(K)
            return original(K, *args, **kwargs)

        rebind(original, counted)
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        _, rep = solve(gram, data.labels, part, cfg)
        solve(gram, data.labels, part, replace(cfg, lam=cfg.lam / 2))
        assert len(calls) == part.d
        _, rep_d = solve(dense, data.labels, part, cfg)
        assert len(calls) == 2 * part.d
        # the cached values are the ones the power iteration gives
        assert rep.objective_trace[:50] == rep_d.objective_trace[:50]
