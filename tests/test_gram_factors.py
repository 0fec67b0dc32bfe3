"""Long solves in eigenbases of the Gram blocks.

A GramBlocks from `gram_blocks` switches a solve that has not met tol after
50 iterations to an eigenbasis of each block: from the thin SVD of a
pivoted-Cholesky factor where the block's rank is below n / 2, else from a
full eigendecomposition. The oracle is the same solve on a plain list of the
dense blocks, which never switches. The low-rank instances use one- and
two-feature groups so that the blocks have rank well below n / 2 at n = 300;
five-feature groups at n = 120 have full numerical rank.
"""

import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import gska
from gska import kernels
from gska.cli import run
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
FULL_RANK = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]


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


def in_basis(gram, j):
    return gram.eigvals(j) is not None


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
        assert all(in_basis(gram, j) for j in range(part.d))
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
            assert in_basis(gram, j)
            assert np.array_equal(gram[j], dense[j])
            np.testing.assert_allclose(gram.dot(j, v), dense[j] @ v,
                                       rtol=1e-12, atol=1e-12)

    def test_short_solve_never_factors(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        _, rep = solve(gram, data.labels, part, replace(cfg, lam=cfg.lam * 5))
        assert rep.converged and rep.iterations < 50
        assert factor_calls == []
        assert not any(in_basis(gram, j) for j in range(part.d))

    def test_tiny_tol_stays_dense(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        _, rep = solve(gram, data.labels, part, replace(cfg, tol=1e-9))
        assert rep.iterations > 50
        assert not any(in_basis(gram, j) for j in range(part.d))
        assert factor_calls == []

    def test_tiny_tol_after_factors_rebuilds_dense(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        solve(gram, data.labels, part, cfg)
        tight = replace(cfg, tol=1e-9)
        alpha, rep = solve(gram, data.labels, part, tight)
        alpha_d, rep_d = solve(dense, data.labels, part, tight)
        assert not any(in_basis(gram, j) for j in range(part.d))
        assert np.array_equal(alpha, alpha_d)
        assert rep.objective_trace == rep_d.objective_trace

    def test_tight_solve_rearms_factoring(self, low_rank, factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        alpha, _ = solve(gram, data.labels, part, cfg)
        assert len(factor_calls) == part.d
        solve(gram, data.labels, part, replace(cfg, tol=1e-9))
        assert not any(in_basis(gram, j) for j in range(part.d))
        assert len(factor_calls) == part.d
        again, _ = solve(gram, data.labels, part, cfg)
        assert all(in_basis(gram, j) for j in range(part.d))
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
    def test_takes_a_full_eigenbasis_and_is_not_tried_again(self,
                                                            factor_calls):
        # a five-feature group at n = 120 has numerical rank above n / 2, so
        # its basis comes from an eigendecomposition, the others' from factors
        data, part, spec = instance(120, [(0,), (1,), (2, 3, 4, 5, 6)])
        cw = ClassWeights.inverse_frequency(data.labels)
        gram = gska.gram_blocks(data, part, spec)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(0.05 * top, 1.0, tol=1e-4, max_iters=5000,
                           class_weights=cw)
        full = np.array(gram[2])
        _, rep = solve(gram, data.labels, part, cfg)
        assert rep.iterations > 50
        assert all(in_basis(gram, j) for j in range(3))
        ranks = [np.count_nonzero(gram.eigvals(j)) for j in range(3)]
        assert [r < data.n // 2 for r in ranks] == [True, True, False]
        assert np.array_equal(gram[2], full)
        tried = len(factor_calls)
        assert tried == 3
        _, rep = solve(gram, data.labels, part, replace(cfg, lam=cfg.lam / 2))
        assert rep.iterations > 50
        assert len(factor_calls) == tried


class TestIntercept:
    # Each reference is the same fit at tol 1e-6 (max_iters 20000, run dense):
    # 120/0.05 and 120/0.02 stop at the rounding floor with KKT 1.3e-6 and
    # 2.1e-6 lam w_j, the others converge.
    @pytest.mark.parametrize("n,frac,reference", [
        (120, 0.1, 0.7457703329164678), (120, 0.05, 0.6164828817316569),
        (120, 0.02, 0.4398404670617763), (500, 0.1, 0.8286535424507511),
        (500, 0.05, 0.7399762547696882), (500, 0.02, 0.6152446738071254)])
    def test_converges_within_1000_iterations(self, n, frac, reference):
        # b moves with the blocks' momentum instead of zig-zagging against
        # them along the blocks' near-constant top eigenvector
        data, part, spec = instance(n, FULL_RANK)
        cw = ClassWeights.inverse_frequency(data.labels)
        gram = gska.gram_blocks(data, part, spec)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(frac * top, 1.0, tol=1e-4, max_iters=5000,
                           class_weights=cw, fit_intercept=True)
        _, rep = solve(gram, data.labels, part, cfg)
        assert rep.converged and rep.iterations <= 1000
        assert rel(rep.objective_trace[-1], reference) <= 1e-6


class TestExactPublicValues:
    def test_objective_gradient_lambda_max(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        alpha, rep = solve(gram, data.labels, part, cfg)
        assert all(in_basis(gram, j) for j in range(part.d))
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


@pytest.fixture
def basis_calls(monkeypatch):
    """Which decomposition built each basis: "eigh" or "svd", in order."""
    calls = []
    for name, tag in (("_basis_from_gram", "eigh"),
                      ("_basis_from_factor", "svd")):
        def counted(*args, _original=getattr(kernels, name), _tag=tag):
            calls.append(_tag)
            return _original(*args)
        monkeypatch.setattr(kernels, name, counted)
    return calls


class TestSwitch:
    @pytest.mark.parametrize("n,groups,frac,path", [
        (300, LOW_RANK, 0.1, "svd"), (120, FULL_RANK, 0.05, "eigh")],
        ids=["svd", "eigh"])
    def test_objective_trace_non_increasing(self, basis_calls, n, groups,
                                            frac, path):
        data, part, spec = instance(n, groups)
        cw = ClassWeights.inverse_frequency(data.labels)
        for fit_intercept in (False, True):
            gram = gska.gram_blocks(data, part, spec)
            top = lambda_max(gram, data.labels, part,
                             SolverConfig(0.0, 1.0, class_weights=cw))
            cfg = SolverConfig(frac * top, 1.0, tol=1e-4, max_iters=5000,
                               class_weights=cw, fit_intercept=fit_intercept)
            _, rep = solve(gram, data.labels, part, cfg)
            assert rep.iterations > 50 and rep.converged
            assert all(in_basis(gram, j) for j in range(part.d))
            trace = np.array(rep.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)
        assert basis_calls == [path] * (2 * part.d)

    @pytest.mark.parametrize("n,groups,frac", [
        (300, LOW_RANK, 0.1), (120, FULL_RANK, 0.05)], ids=["svd", "eigh"])
    def test_basis_is_orthonormal(self, n, groups, frac):
        # ||U_j beta_j|| = ||beta_j|| is what keeps the penalty unchanged
        data, part, spec = instance(n, groups)
        gram = gska.gram_blocks(data, part, spec)
        cw = ClassWeights.inverse_frequency(data.labels)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        solve(gram, data.labels, part, SolverConfig(
            frac * top, 1.0, tol=1e-4, max_iters=5000, class_weights=cw))
        rng = np.random.default_rng(5)
        for j in range(part.d):
            r = np.count_nonzero(gram.eigvals(j))
            x = np.zeros(n)
            x[:r] = rng.standard_normal(r)
            a = gram.expand(j, x)
            assert abs(np.linalg.norm(a) - np.linalg.norm(x)) \
                <= 1e-13 * np.linalg.norm(x)
            np.testing.assert_allclose(gram.coords(j, a), x, rtol=0,
                                       atol=1e-13 * np.linalg.norm(x))

    @pytest.mark.parametrize("seed,container", [
        pytest.param(1, "gram_blocks", id="1"),
        pytest.param(4, "gram_blocks", id="4"),
        pytest.param(1, "list", id="list-1"),
        pytest.param(4, "list", id="list-4")])
    def test_settles_to_a_tenth_of_tol_in_the_bases(self, seed, container):
        # A solve that meets tol goes on to tol / 10 (eight more iterations
        # would leave these at 0.0039 and 0.0049 in the bases), and so does
        # one on a plain list of the dense blocks, which never switches. The
        # exact residual may exceed the one in the bases by 1% of tol.
        data, part, _ = gska.synth_generate(500, seed, 0.2)
        data, _ = gska.standardize(data)
        gram = gska.gram_blocks(data, part,
                                gska.median_heuristic_gamma(data, part))
        dense = [np.array(K) for K in gram]
        cfg = SolverConfig(0.03, 1.0, class_weights=ClassWeights
                           .inverse_frequency(data.labels))
        alpha, rep = solve(gram if container == "gram_blocks" else dense,
                           data.labels, part, cfg)
        assert rep.converged and rep.iterations < cfg.max_iters
        assert in_basis(gram, 0) == (container == "gram_blocks")
        assert max(kkt_violations(alpha, dense, data.labels, part,
                                  cfg)) <= 0.11 * cfg.tol

    def test_grid_size_basis_holds_less_than_the_dense_blocks(self):
        # a grid fold's training set: n = 400, the paper's 3-feature groups
        data, part, _ = gska.synth_generate(400, 1, 0.2)
        data, _ = gska.standardize(data)
        spec = gska.median_heuristic_gamma(data, part)
        cfg = SolverConfig(0.01, 0.5, class_weights=ClassWeights
                           .inverse_frequency(data.labels))
        tracemalloc.start()
        try:
            gram = gska.gram_blocks(data, part, spec)
            alpha, rep = solve(gram, data.labels, part, cfg)
            del alpha
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.iterations > 50
        assert all(in_basis(gram, j) for j in range(part.d))
        assert held <= part.d * data.n ** 2 * 8


@pytest.fixture(scope="module")
def switch_data(tmp_path_factory):
    # n = 200: the paper's 3-feature groups have rank above n / 2 (eigh);
    # twelve 1-feature groups have rank far below it (SVD of the factor)
    out = tmp_path_factory.mktemp("switch")
    assert run(["synth", "--n", "200", "--seed", "5", "--noise", "0.2",
                "--out", str(out)]) == 0
    singles = [{"name": f"s{i}", "features": [f"f{i}"], "weight": 1.0}
               for i in range(1, 13)]
    (out / "singles.json").write_text(json.dumps({"groups": singles}))
    return out


class TestSwitchedReruns:
    @pytest.mark.parametrize("groups,path", [("groups.json", "eigh"),
                                             ("singles.json", "svd")],
                             ids=["eigh", "svd"])
    def test_fit_and_grid_byte_identical(self, switch_data, tmp_path,
                                         basis_calls, groups, path):
        data = ["--data", str(switch_data / "features.csv"),
                "--groups", str(switch_data / groups)]
        commands = {
            "fit": ["fit", *data, "--lambda", "0.03", "--sigma", "0.5"],
            "grid": ["grid", *data, "--lambdas", "0.03", "--sigmas", "0.5",
                     "--folds", "2"]}
        for name, argv in commands.items():
            outs = [tmp_path / f"{name}{k}.json" for k in range(2)]
            for out in outs:
                assert run([*argv, "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()
        assert basis_calls and set(basis_calls) == {path}
