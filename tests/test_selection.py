from dataclasses import replace

import numpy as np
import pytest

import gska
from gska import selection
from gska.data import DataError, Dataset
from gska.selection import ENConfig, en_lambda_max, en_logistic_path, select_top_k

from oracles import ridge_logistic_gd


def random_dataset(n, p, seed, beta=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if beta is None:
        beta = np.zeros(p)
    logits = X @ beta + 0.3 * rng.standard_normal(n)
    y = np.where(logits + rng.logistic(size=n) > 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return Dataset(X, y, tuple(f"f{i}" for i in range(p)),
                   tuple(str(i) for i in range(n)))


class TestLambdaMax:
    def test_null_model_at_boundary(self):
        data = random_dataset(40, 6, 30)
        lmax = en_lambda_max(data.samples, data.labels, 0.5)
        cfg = ENConfig(0.5, (1.5 * lmax, 1.0001 * lmax))
        _, coefs, intercepts = en_logistic_path(data, cfg)
        np.testing.assert_allclose(coefs, 0.0, atol=1e-8)
        n_pos = np.sum(data.labels > 0)
        n_neg = np.sum(data.labels < 0)
        np.testing.assert_allclose(intercepts, np.log(n_pos / n_neg),
                                   atol=1e-6)

    def test_just_below_boundary_activates(self):
        data = random_dataset(60, 5, 31, beta=np.array([2, 0, 0, 0, 0.0]))
        lmax = en_lambda_max(data.samples, data.labels, 0.5)
        cfg = ENConfig(0.5, (lmax * 0.9,))
        _, coefs, _ = en_logistic_path(data, cfg)
        assert np.any(coefs != 0)


class TestPath:
    def test_ridge_limit_matches_gd_oracle(self):
        data = random_dataset(10, 5, 32, beta=np.array([1, -1, 0, 0, 0.5]))
        lam = 0.3
        cfg = ENConfig(0.0, (lam,), kkt_tol=1e-10)
        _, coefs, intercepts = en_logistic_path(data, cfg)
        beta_o, b_o = ridge_logistic_gd(data.samples, data.labels, lam)
        np.testing.assert_allclose(coefs[0], beta_o, atol=1e-5)
        np.testing.assert_allclose(intercepts[0], b_o, atol=1e-5)

    def test_separating_feature_dominates(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((80, 4))
        y = np.where(X[:, 2] > 0, 1.0, -1.0)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        data = Dataset(X, y, ("a", "b", "c", "d"),
                       tuple(str(i) for i in range(80)))
        lmax = en_lambda_max(X, y, 0.5)
        cfg = ENConfig(0.5, tuple(np.geomspace(lmax, 0.01 * lmax, 10)))
        _, coefs, _ = en_logistic_path(data, cfg)
        assert np.argmax(np.abs(coefs[-1])) == 2

    def test_kkt_residual_small(self):
        from gska.selection import _prox_grad_fit
        data = random_dataset(50, 6, 34, beta=np.array([1, 0, -0.5, 0, 0, 0.0]))
        x_norm_sq = np.linalg.norm(data.samples, 2) ** 2
        beta, b, kkt = _prox_grad_fit(data.samples, data.labels, 0.05, 0.5,
                                      np.zeros(6), 0.0, 1e-6, x_norm_sq)
        assert kkt < 1e-5

    @pytest.mark.parametrize("signal", [True, False], ids=["signal", "null"])
    def test_every_point_certified_when_p_exceeds_n(self, signal):
        beta = np.zeros(80)
        if signal:
            beta[:3] = (1.0, -1.0, 0.5)
        data = random_dataset(60, 80, 42, beta=beta)
        cfg = ENConfig(0.5)
        grid, coefs, intercepts = en_logistic_path(data, cfg)
        X, y = data.samples, data.labels
        for lam, coef, b in zip(grid, coefs, intercepts):
            s = y / (1.0 + np.exp(y * (b + X @ coef)))     # y * expit(-m)
            g = -(X.T @ s) / 60 + lam * 0.5 * coef
            res = np.where(coef != 0, np.abs(g + lam * 0.5 * np.sign(coef)),
                           np.maximum(np.abs(g) - lam * 0.5, 0.0))
            assert max(res.max(), abs(s.sum()) / 60) <= cfg.kkt_tol

    def test_point_at_the_iteration_cap_warns(self, monkeypatch, capsys):
        data = random_dataset(60, 5, 35, beta=np.array([1.5, -1, 0.5, 0, 0.0]))
        lmax = en_lambda_max(data.samples, data.labels, 0.5)
        cfg = ENConfig(0.5, (0.5 * lmax, 0.1 * lmax))
        en_logistic_path(data, cfg)
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(selection, "_MAX_ITERS", 1)
        en_logistic_path(data, cfg)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "2 of 2 elastic-net path points" in err[0]
        assert "kkt_tol=1e-06" in err[0]
        assert any(f"lambda={lam!r}" in err[0] for lam in cfg.lambda_grid)

    def test_path_continuity(self):
        data = random_dataset(60, 5, 35, beta=np.array([1.5, -1, 0.5, 0, 0.0]))
        lmax = en_lambda_max(data.samples, data.labels, 0.5)
        cfg = ENConfig(0.5, tuple(np.geomspace(lmax, 1e-3 * lmax, 30)))
        _, coefs, _ = en_logistic_path(data, cfg)
        steps = np.linalg.norm(np.diff(coefs, axis=0), axis=1)
        assert steps.max() <= 10 * max(np.median(steps), 1e-12)


class TestSelectTopK:
    def test_k_equals_p_returns_all(self):
        data = random_dataset(60, 4, 36, beta=np.array([1, -1, 0.5, 0.0]))
        res = select_top_k(data, ENConfig(k=4, folds=3), seed=1)
        assert sorted(res.selected) == sorted(data.feature_names)
        assert len(res.selected) == 4

    def test_deterministic(self):
        data = random_dataset(60, 5, 37, beta=np.array([1, 0, 0, -1, 0.0]))
        r1 = select_top_k(data, ENConfig(k=3, folds=3), seed=5)
        r2 = select_top_k(data, ENConfig(k=3, folds=3), seed=5)
        assert r1.selected == r2.selected
        assert r1.chosen_lambda == r2.chosen_lambda
        np.testing.assert_array_equal(r1.fold_scores, r2.fold_scores)

    def test_synthetic_informative_features_recovered(self):
        data, part, truth = gska.synth_generate(1000, 40, 0.1)
        informative = {data.feature_names[i]
                       for j in truth for i in part.groups[j]}
        res = select_top_k(data, ENConfig(k=6, folds=5), seed=2)
        hits = sum(1 for f in res.selected if f in informative)
        assert hits >= 4

    def test_folds_share_the_path(self, monkeypatch):
        data = random_dataset(60, 5, 41, beta=np.array([1, 0, 0, -1, 0.0]))
        calls = []

        def recording(fold_data, cfg):
            out = en_logistic_path(fold_data, cfg)
            calls.append((fold_data.n, cfg, out))
            return out

        monkeypatch.setattr(selection, "en_logistic_path", recording)
        res = select_top_k(data, ENConfig(k=3, folds=3), seed=4)
        assert [n for n, _, _ in calls] == [40, 40, 40]
        assert all(cfg == replace(ENConfig(k=3, folds=3),
                                  lambda_grid=res.lambda_grid)
                   for _, cfg, _ in calls)

    def test_demo_selection_pinned(self):
        data, _, _ = gska.synth_generate(n=800, seed=4, noise=0.1)
        res = select_top_k(data, ENConfig(alpha_mix=0.5, k=6, folds=5), seed=4)
        assert res.selected == ("f1", "f7", "f5", "f2", "f8", "f3")
        assert res.chosen_lambda == pytest.approx(0.08177325765615613,
                                                  rel=1e-12)
        assert res.padded

    def test_k_too_large(self):
        data = random_dataset(40, 3, 38)
        with pytest.raises(DataError):
            select_top_k(data, ENConfig(k=5, folds=3), seed=0)

    def test_single_class_errors(self):
        X = np.random.default_rng(39).standard_normal((20, 3))
        data = Dataset(X, np.ones(20), ("a", "b", "c"),
                       tuple(str(i) for i in range(20)))
        with pytest.raises(DataError):
            select_top_k(data, ENConfig(k=2, folds=3), seed=0)


class TestENConfig:
    def test_grid_must_decrease(self):
        with pytest.raises(DataError):
            ENConfig(lambda_grid=(0.1, 0.2))

    def test_mix_bounds(self):
        with pytest.raises(DataError):
            ENConfig(alpha_mix=1.5)
