import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gska
from gska import evaluation, model as model_mod, solver
from gska.data import DataError
from gska.evaluation import (accuracy_f1, auroc, cross_validate, grid_search,
                             paired_ttest, pearson_matrix, stratified_kfold)
from gska.solver import SolverConfig, group_gradient

from oracles import brute_force_auroc, naive_pearson, t_sf_high_precision


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes about half a second to import
    src = os.path.dirname(os.path.dirname(gska.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gska; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "False"


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.1], [1.0, -1.0]) == 1.0

    def test_hand_case(self):
        # 4 pos-neg pairs, 3 wins: 0.75
        assert auroc([0.8, 0.4, 0.6, 0.2], [1, 1, -1, -1.0]) == 0.75

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1.0]) == 0.5

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = rng.integers(4, 31)
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            scores = np.round(rng.standard_normal(n), 1)   # force some ties
            assert auroc(scores, y) == brute_force_auroc(scores, y)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(51)
        y = np.where(rng.random(30) > 0.5, 1.0, -1.0)
        s = rng.standard_normal(30)
        np.testing.assert_allclose(auroc(np.exp(s), y), auroc(s, y),
                                   atol=1e-12)

    def test_negation_complement(self):
        rng = np.random.default_rng(52)
        y = np.where(rng.random(25) > 0.5, 1.0, -1.0)
        s = rng.standard_normal(25)
        np.testing.assert_allclose(auroc(s, y) + auroc(-s, y), 1.0,
                                   atol=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(DataError):
            auroc([0.1, 0.2], [1.0, 1.0])


class TestAccuracyF1:
    def test_perfect(self):
        assert accuracy_f1([1, -1, 1.0], [1, -1, 1.0]) == (100.0, 100.0)

    def test_confusion_matrix_case(self):
        # TP=2, FP=1, FN=1, TN=6
        y = np.array([1, 1, 1, -1, -1, -1, -1, -1, -1, -1.0])
        pred = np.array([1, 1, -1, 1, -1, -1, -1, -1, -1, -1.0])
        acc, f1 = accuracy_f1(pred, y)
        assert acc == 80.0
        np.testing.assert_allclose(f1, 200.0 / 3.0, atol=1e-10)

    def test_no_positive_predictions(self):
        acc, f1 = accuracy_f1([-1, -1, -1.0], [1, -1, -1.0])
        assert f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            accuracy_f1([1.0], [1.0, -1.0])


class TestStratifiedKfold:
    def test_class_smaller_than_k(self):
        y = np.array([1, 1, -1, -1, -1, -1, -1, -1, -1, -1.0])
        with pytest.raises(DataError):
            stratified_kfold(y, 5, 0)

    def test_imbalanced_class_ratio_exact(self):
        y = np.concatenate([np.ones(60), -np.ones(440)])
        assign = stratified_kfold(y, 5, 3)
        for f in range(5):
            mask = assign == f
            assert np.sum(y[mask] > 0) == 12
            assert np.sum(y[mask] < 0) == 88

    def test_deterministic(self):
        y = np.where(np.random.default_rng(53).random(50) > 0.3, 1.0, -1.0)
        np.testing.assert_array_equal(stratified_kfold(y, 5, 9),
                                      stratified_kfold(y, 5, 9))

    def test_folds_partition_samples(self):
        y = np.where(np.random.default_rng(54).random(47) > 0.4, 1.0, -1.0)
        assign = stratified_kfold(y, 4, 1)
        assert np.all(assign >= 0) and np.all(assign < 4)
        sizes = np.bincount(assign)
        assert sizes.max() - sizes.min() <= 2


@pytest.fixture(scope="module")
def synth():
    data, part, _ = gska.synth_generate(200, 60, 0.1)
    return data, part


class TestCrossValidate:
    def test_zero_model_metrics(self, synth):
        data, part = synth
        report = cross_validate(data, part, SolverConfig(1e6, 1.0), 5, 0)
        for f, m in enumerate(report.per_fold):
            mask = report.fold_assignments == f
            majority = max(np.mean(data.labels[mask] > 0),
                           np.mean(data.labels[mask] < 0)) * 100
            np.testing.assert_allclose(m.accuracy, majority, atol=1e-9)
            assert m.f1 == 0.0
            assert m.auroc == 0.5

    def test_deterministic_and_mean_consistent(self):
        data, part, _ = gska.synth_generate(150, 61, 0.2)
        cfg = SolverConfig(0.05, 1.0)
        r1 = cross_validate(data, part, cfg, 5, 0)
        r2 = cross_validate(data, part, cfg, 5, 0)
        assert r1.mean == r2.mean
        np.testing.assert_array_equal(r1.fold_assignments,
                                      r2.fold_assignments)
        np.testing.assert_allclose(
            r1.mean.auroc, np.mean([m.auroc for m in r1.per_fold]),
            atol=1e-12)
        np.testing.assert_allclose(
            r1.mean.f1, np.mean([m.f1 for m in r1.per_fold]), atol=1e-12)

    def test_synthetic_benchmark(self):
        data, part, _ = gska.synth_generate(500, 62, 0.2)
        report = cross_validate(data, part, SolverConfig(0.03, 1.0), 5, 0)
        assert report.mean.auroc > 0.85

    def test_heldout_disjoint(self, synth):
        data, part = synth
        report = cross_validate(data, part, SolverConfig(0.1, 1.0), 4, 2)
        assign = report.fold_assignments
        assert assign.size == data.n
        assert set(np.unique(assign)) == set(range(4))


class TestDefaultLambdaGrid:
    def test_holds_one_gram_block_at_a_time(self):
        # all four 2000 x 2000 blocks held at once would take 128 MB
        n = 2000
        data, part, _ = gska.synth_generate(n, 1, 0.2)
        tracemalloc.start()
        try:
            evaluation.default_lambda_grid(data, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8

    def test_top_is_the_largest_lambda_max(self):
        data, part, _ = gska.synth_generate(300, 2, 0.2)
        fold = model_mod._prepare_fold(data, part)
        tops = []
        for s in evaluation.DEFAULT_SIGMAS:
            cfg = SolverConfig(0.0, s, class_weights=fold.class_weights)
            tops.append(max(
                np.linalg.norm(group_gradient(
                    np.zeros((part.d, fold.train.n)), fold.gram,
                    fold.train.labels, part, cfg, j)) / part.weights[j]
                for j in range(part.d)))
        grid = evaluation.default_lambda_grid(data, part)
        assert grid[-1] == pytest.approx(max(tops), rel=1e-12)
        assert grid[0] == 1e-4 and len(grid) == 20


class TestGridSearch:
    def test_single_point(self):
        data, part, _ = gska.synth_generate(100, 63, 0.2)
        res = grid_search(data, part, lambdas=[0.05], sigmas=[1.0], k=4,
                          seed=0)
        assert (res.best_lambda, res.best_sigma) == (0.05, 1.0)

    def test_all_above_lambda_max_scores_chance(self):
        data, part, _ = gska.synth_generate(100, 64, 0.2)
        res = grid_search(data, part, lambdas=[50.0, 100.0], sigmas=[1.0],
                          k=4, seed=0)
        for _, _, a in res.points:
            assert a == 0.5
        assert res.unconverged == (0, 0)
        assert res.best_lambda == 100.0     # tie toward larger lambda

    def test_synthetic_best_below_lambda_max(self):
        data, part, _ = gska.synth_generate(200, 65, 0.2)
        res = grid_search(data, part, lambdas=[0.01, 0.05, 10.0],
                          sigmas=[1.0], k=4, seed=0)
        assert res.best_lambda < 10.0


    def test_paper_grid_never_caps(self, rebind, capsys):
        # demo 01's grid: 5 folds x 2 sigmas x 3 warm-started lambdas
        reports = []
        original = solver.solve

        def recording(gram, labels, partition, cfg, init=None):
            alpha, report = original(gram, labels, partition, cfg, init)
            reports.append((cfg.lam, cfg.sigma, report))
            return alpha, report

        rebind(original, recording)
        data, part, _ = gska.synth_generate(500, 1, 0.2)
        res = grid_search(data, part, lambdas=[0.01, 0.03, 0.1],
                          sigmas=[0.5, 1.0], k=5, seed=1)
        assert res.unconverged == (0,) * 6
        assert len(reports) == 30
        assert [(lam, s) for lam, s, _ in reports[:6]] == [
            (0.1, 0.5), (0.03, 0.5), (0.01, 0.5),
            (0.1, 1.0), (0.03, 1.0), (0.01, 1.0)]
        assert all(rep.converged and rep.iterations < 1000
                   for _, _, rep in reports)
        assert "max_iters" not in capsys.readouterr().err

    def test_capped_solves_counted_per_point(self, capsys):
        # every lambda is far below lambda_max, so no solve converges in one
        # iteration, cold or warm
        data, part, _ = gska.synth_generate(100, 63, 0.2)
        res = grid_search(data, part, lambdas=[0.003, 0.01], sigmas=[0.5, 1.0],
                          k=3, seed=0, max_iters=1)
        assert res.unconverged == (3,) * 4
        assert capsys.readouterr().err.count("(max_iters=1)") == 3 * 4

    @pytest.mark.parametrize("lambdas,sigmas,repeated", [
        ([0.1, 0.02, 0.1], [1.0], "lambda grid repeats the value 0.1"),
        ([0.1], [1.0, 0.5, 1.0], "sigma grid repeats the value 1.0"),
    ])
    def test_repeated_value_rejected(self, lambdas, sigmas, repeated):
        data, part, _ = gska.synth_generate(60, 66, 0.2)
        with pytest.raises(DataError, match=repeated):
            grid_search(data, part, lambdas=lambdas, sigmas=sigmas, k=2,
                        seed=0)


class TestPearson:
    def test_self_correlation(self):
        x = np.arange(10.0).reshape(-1, 1)
        np.testing.assert_allclose(pearson_matrix(x, x), [[1.0]], atol=1e-12)

    def test_exact_negative(self):
        a = np.array([[1.0], [2.0], [3.0]])
        b = np.array([[6.0], [4.0], [2.0]])
        np.testing.assert_allclose(pearson_matrix(a, b), [[-1.0]], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(55)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(pearson_matrix(a, b), naive_pearson(a, b),
                                   atol=1e-12)

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(56)
        a = rng.standard_normal((20, 1))
        b = rng.standard_normal((20, 1))
        base = pearson_matrix(a, b)[0, 0]
        np.testing.assert_allclose(pearson_matrix(3 * a + 5, b)[0, 0], base,
                                   atol=1e-12)
        np.testing.assert_allclose(pearson_matrix(-2 * a, b)[0, 0], -base,
                                   atol=1e-12)

    def test_constant_column_nan(self):
        a = np.ones((5, 1))
        b = np.arange(5.0).reshape(-1, 1)
        assert np.isnan(pearson_matrix(a, b)[0, 0])

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            pearson_matrix(np.ones((2, 1)), np.ones((2, 1)))


class TestPairedTtest:
    def test_identical_samples(self):
        assert paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_known_case(self):
        d = np.array([0.02, 0.01, 0.03, 0.00, 0.04])
        t, p = paired_ttest(d, np.zeros(5))
        np.testing.assert_allclose(t, 2.8284271, atol=1e-6)
        np.testing.assert_allclose(p, 0.0474, atol=5e-4)
        # high-precision oracle agreement
        np.testing.assert_allclose(p, 2 * t_sf_high_precision(t, 4),
                                   atol=1e-8)

    def test_negation_symmetry(self):
        a = np.array([0.5, 0.1, -0.2, 0.7])
        b = np.array([0.2, 0.0, 0.1, 0.3])
        t1, p1 = paired_ttest(a, b)
        t2, p2 = paired_ttest(b, a)
        np.testing.assert_allclose(t2, -t1, atol=1e-12)
        np.testing.assert_allclose(p2, p1, atol=1e-12)

    def test_degenerate_nonzero_mean(self):
        t, p = paired_ttest([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert p == 0.0 and t == np.inf
