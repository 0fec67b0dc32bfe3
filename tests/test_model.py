import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gska
from gska import model as model_mod
from gska.coherence import ClassWeights
from gska.data import DataError, Dataset, GroupPartition
from gska.solver import SolverConfig, lambda_max, solve


def one_shot_scores(model, query):
    """intercept + sum_j alpha_j K_j(train, query), blocks built whole."""
    q = model_mod._align_query(model, query)
    blocks = gska.cross_gram(model.train, q, model.partition, model.kernel)
    f = np.full(q.n, model.report.intercept)
    for j, Kq in enumerate(blocks):
        f += model.alpha[j] @ Kq
    return f


@pytest.fixture(scope="module")
def tiled_query():
    # crosses two tile boundaries of synth_fit's model (150 training rows)
    # and ends in a part tile
    return gska.synth_generate(2 * model_mod._tile_rows(150) + 37, 11,
                               0.1)[0]


@pytest.fixture(scope="module")
def synth_fit():
    data, part, truth = gska.synth_generate(150, 7, 0.1)
    model = gska.fit(data, part, SolverConfig(lam=0.01))
    return data, part, truth, model


class TestFit:
    def test_synthetic_support_recovery_in_sparse_regime(self):
        # At prediction-optimal lambda, spurious kernel groups keep small
        # nonzero blocks; exact support recovery needs a larger lambda.
        data, part, truth = gska.synth_generate(400, 7, 0.1)
        std, _ = gska.standardize(data)
        kern = gska.median_heuristic_gamma(std, part)
        gram = gska.gram_blocks(std, part, kern)
        cw = ClassWeights.inverse_frequency(std.labels)
        lmax = lambda_max(gram, std.labels, part,
                          SolverConfig(0.0, 1.0, class_weights=cw))
        model = gska.fit(data, part,
                         SolverConfig(0.6 * lmax, 1.0, max_iters=5000,
                                      tol=1e-5), kern)
        assert model.report.converged
        active = set(model.report.active_groups)
        assert active <= set(truth)
        assert 0 in active

    def test_truth_groups_dominate_at_cv_lambda(self):
        # Very dense solutions (lambda below ~0.01 here) can spread RMS
        # mass onto noise groups, so the grid starts at 0.01.
        data, part, truth = gska.synth_generate(400, 7, 0.1)
        grid = gska.grid_search(data, part,
                                lambdas=[0.01, 0.05], sigmas=[1.0],
                                k=5, seed=7)
        model = gska.fit(data, part,
                         SolverConfig(grid.best_lambda, grid.best_sigma,
                                      max_iters=5000, tol=1e-5))
        assert model.report.converged
        contrib = [gi.contribution for gi in gska.group_contribution(model)]
        assert min(contrib[j] for j in truth) > \
            max(contrib[j] for j in range(part.d) if j not in truth)

    def test_all_zero_above_lambda_max(self):
        data, part, _ = gska.synth_generate(60, 3, 0.2)
        std, _ = gska.standardize(data)
        kern = gska.median_heuristic_gamma(std, part)
        gram = gska.gram_blocks(std, part, kern)
        cw = ClassWeights.inverse_frequency(std.labels)
        lmax = lambda_max(gram, std.labels, part,
                          SolverConfig(0.0, 1.0, class_weights=cw))
        model = gska.fit(data, part, SolverConfig(1.01 * lmax, 1.0), kern)
        np.testing.assert_array_equal(model.alpha, 0.0)
        np.testing.assert_array_equal(gska.decision_function(model, data), 0.0)

    def test_single_class_errors(self):
        d = Dataset(np.random.default_rng(0).standard_normal((10, 2)),
                    np.ones(10), ("a", "b"), tuple(str(i) for i in range(10)))
        part = GroupPartition(((0,), (1,)), ("ga", "gb"))
        with pytest.raises(DataError, match="single-class"):
            gska.fit(d, part, SolverConfig(0.1))

    def test_default_class_weights_inverse_frequency(self, synth_fit):
        data, _, _, model = synth_fit
        n_pos = int(np.sum(data.labels > 0))
        np.testing.assert_allclose(model.class_weights.weight_pos,
                                   data.n / (2 * n_pos))

    def test_explicit_unit_class_weights_honoured(self):
        data, part, _ = gska.synth_generate(150, 7, 0.1)
        neg = np.flatnonzero(data.labels < 0)
        data = data.subset(np.sort(np.concatenate(
            [neg[:30], np.flatnonzero(data.labels > 0)])))
        unit = ClassWeights(1.0, 1.0)
        model = gska.fit(data, part, SolverConfig(0.01, class_weights=unit))
        assert model.class_weights == unit
        fold = model_mod._prepare_fold(data, part)
        assert fold.class_weights != unit
        # a bare solve without class weights weights the classes equally
        alpha, _ = solve(fold.gram, fold.train.labels, part,
                         SolverConfig(0.01))
        assert np.array_equal(model.alpha, alpha)


class TestDecisionFunction:
    def test_training_margins_match_solver(self, synth_fit):
        data, part, _, model = synth_fit
        f = gska.decision_function(model, data)
        gram = gska.gram_blocks(model.train, part, model.kernel)
        internal = sum(gram[j] @ model.alpha[j] for j in range(part.d))
        np.testing.assert_allclose(f, internal, atol=1e-10)

    def test_hand_built_two_point_model(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]), ("x",),
                    ("0", "1"))
        part = GroupPartition(((0,),), ("g",))
        model = gska.fit(d, part, SolverConfig(lam=1e9), gska.KernelSpec((1.0,)))
        forced = gska.ModelState(
            alpha=np.array([[1.0, -1.0]]), train=model.train,
            scaling=model.scaling, partition=part, kernel=model.kernel,
            loss_params=model.loss_params, lam=model.lam,
            class_weights=model.class_weights, report=model.report)
        q = Dataset(np.array([[0.3]]), np.array([1.0]), ("x",), ("q",))
        f = gska.decision_function(forced, q)[0]
        zq = (0.3 - model.scaling.means[0]) / model.scaling.stds[0]
        z0 = model.train.samples[0, 0]
        z1 = model.train.samples[1, 0]
        expect = (gska.gaussian_kernel([z0], [zq], 1.0)
                  - gska.gaussian_kernel([z1], [zq], 1.0))
        np.testing.assert_allclose(f, expect, atol=1e-12)

    def test_inactive_groups_skipped_bit_identically(self, synth_fit,
                                                     monkeypatch):
        data, part, _, model = synth_fit
        alpha = np.array(model.alpha)
        alpha[[1, 3]] = 0.0
        sparse = replace(model, alpha=alpha)
        query, _, _ = gska.synth_generate(40, 8, 0.1)
        q = model_mod._align_query(sparse, query)
        blocks = gska.cross_gram(sparse.train, q, part, sparse.kernel)
        expect = np.full(q.n, sparse.report.intercept)
        for j, Kq in enumerate(blocks):
            expect += sparse.alpha[j] @ Kq
        built = []

        def recording(*args, groups=None):
            built.append(groups)
            return gska.cross_gram(*args, groups=groups)

        monkeypatch.setattr(model_mod, "cross_gram", recording)
        f = gska.decision_function(sparse, query)
        assert built == [[0, 2]]
        assert np.array_equal(f, expect)

    def test_tiled_scores_match_one_shot_with_intercept(self, synth_fit,
                                                       tiled_query):
        data, part, _, _ = synth_fit
        model = gska.fit(data, part, SolverConfig(0.01, fit_intercept=True))
        assert model.report.intercept != 0.0
        assert np.array_equal(gska.decision_function(model, tiled_query),
                              one_shot_scores(model, tiled_query))

    def test_tiled_scores_match_one_shot_with_zero_group(self, synth_fit,
                                                        tiled_query):
        _, _, _, model = synth_fit
        alpha = np.array(model.alpha)
        alpha[2] = 0.0
        sparse = replace(model, alpha=alpha)
        assert sum(map(np.any, alpha)) == 3
        assert np.array_equal(gska.decision_function(sparse, tiled_query),
                              one_shot_scores(sparse, tiled_query))

    def test_scoring_memory_holds_one_tile(self):
        # whole cross-Gram blocks would take 4 x 300 x 20 000 x 8 B = 192 MB
        data, part, _ = gska.synth_generate(300, 5, 0.1)
        model = gska.fit(data, part, SolverConfig(0.01))
        rng = np.random.default_rng(0)
        dense = replace(model, alpha=rng.standard_normal(model.alpha.shape))
        m = 20_000
        query = Dataset(rng.standard_normal((m, data.p)), np.ones(m),
                        data.feature_names, tuple(map(str, range(m))))
        tracemalloc.start()
        try:
            gska.decision_function(dense, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_row_permutation_equivariance(self, synth_fit):
        data, _, _, model = synth_fit
        perm = np.random.default_rng(1).permutation(data.n)
        f = gska.decision_function(model, data)
        f_perm = gska.decision_function(model, data.subset(perm))
        # BLAS blocking makes per-column sums order-sensitive at ulp level
        np.testing.assert_allclose(f_perm, f[perm], atol=1e-12)

    def test_column_matching_by_name(self, synth_fit):
        data, _, _, model = synth_fit
        rev = tuple(reversed(data.feature_names))
        order = [data.feature_names.index(f) for f in rev]
        shuffled = Dataset(data.samples[:, order], data.labels, rev,
                           data.sample_ids)
        np.testing.assert_array_equal(gska.decision_function(model, shuffled),
                                      gska.decision_function(model, data))

    def test_column_mismatch_errors(self, synth_fit):
        data, _, _, model = synth_fit
        bad = Dataset(data.samples[:, :6], data.labels,
                      data.feature_names[:6], data.sample_ids)
        with pytest.raises(DataError):
            gska.decision_function(model, bad)

    def test_missing_column_named(self, synth_fit):
        data, _, _, model = synth_fit
        bad = Dataset(data.samples[:, :6], data.labels,
                      data.feature_names[:6], data.sample_ids)
        with pytest.raises(DataError, match="training column 'f7'"):
            gska.decision_function(model, bad)

    def test_label_flip_symmetry(self):
        data, part, _ = gska.synth_generate(80, 9, 0.1)
        flipped = Dataset(data.samples, -data.labels, data.feature_names,
                          data.sample_ids)
        cw = ClassWeights.inverse_frequency(data.labels)
        cw_swap = ClassWeights(cw.weight_neg, cw.weight_pos)
        m1 = gska.fit(data, part, SolverConfig(0.01, class_weights=cw))
        m2 = gska.fit(flipped, part, SolverConfig(0.01, class_weights=cw_swap))
        np.testing.assert_allclose(gska.decision_function(m2, data),
                                   -gska.decision_function(m1, data),
                                   atol=1e-8)


class TestPredict:
    def test_signs(self, synth_fit):
        data, _, _, model = synth_fit
        f = gska.decision_function(model, data)
        pred = gska.predict(model, data)
        np.testing.assert_array_equal(pred, np.where(f > 0, 1.0, -1.0))

    def test_tie_breaks_negative(self, synth_fit):
        data, part, _, model = synth_fit
        zero = gska.ModelState(
            alpha=np.zeros_like(model.alpha), train=model.train,
            scaling=model.scaling, partition=part, kernel=model.kernel,
            loss_params=model.loss_params, lam=model.lam,
            class_weights=model.class_weights,
            report=gska.SolveReport(1, (1.0,), True, ()))
        np.testing.assert_array_equal(gska.predict(zero, data), -1.0)


class TestPersistence:
    def test_roundtrip_exact(self, synth_fit, tmp_path):
        data, _, _, model = synth_fit
        path = tmp_path / "model.json"
        gska.save(model, path)
        loaded = gska.load(path)
        np.testing.assert_array_equal(gska.decision_function(loaded, data),
                                      gska.decision_function(model, data))
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        assert loaded.kernel.gammas == model.kernel.gammas

    def test_saved_bytes_are_json_dumps(self, synth_fit, tmp_path):
        # the C encoder of json.dumps writes what json.dump's Python one did
        _, _, _, model = synth_fit
        path = tmp_path / "model.json"
        gska.save(model, path)
        expected = io.StringIO()
        json.dump(model_mod._model_doc(model), expected, sort_keys=True)
        assert path.read_bytes() == (expected.getvalue() + "\n").encode()

    def test_active_group_with_zero_alpha_rejected(self, synth_fit,
                                                   tmp_path):
        _, _, _, model = synth_fit
        path = tmp_path / "model.json"
        gska.save(model, path)
        assert gska.load(path).report.active_groups \
            == model.report.active_groups
        doc = json.loads(path.read_text())
        j = model.report.active_groups[-1]
        doc["alpha"][j] = [0.0] * len(doc["alpha"][j])
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="report.active_groups"):
            gska.load(path)

    def test_truncated_file(self, synth_fit, tmp_path):
        data, _, _, model = synth_fit
        path = tmp_path / "model.json"
        gska.save(model, path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(DataError):
            gska.load(path)

    def test_dimension_mismatch_rejected(self, synth_fit, tmp_path):
        data, _, _, model = synth_fit
        path = tmp_path / "model.json"
        gska.save(model, path)
        doc = json.loads(path.read_text())
        doc["alpha"] = doc["alpha"][:2]       # drop blocks: d mismatch
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            gska.load(path)

    def test_version_mismatch(self, synth_fit, tmp_path):
        data, _, _, model = synth_fit
        path = tmp_path / "model.json"
        gska.save(model, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            gska.load(path)
