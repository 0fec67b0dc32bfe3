import numpy as np
import pytest

import gska
from gska import model as model_mod
from gska.data import DataError, Dataset, GroupPartition
from gska.interpret import read_pd_csv
from gska.model import _align_query
from gska.solver import SolverConfig


@pytest.fixture(scope="module")
def fitted():
    data, part, truth = gska.synth_generate(400, 21, 0.1)
    model = gska.fit(data, part, SolverConfig(lam=0.05, max_iters=3000,
                                              tol=1e-5))
    assert model.report.converged
    return data, part, truth, model


def zero_model(model, part):
    return gska.ModelState(
        alpha=np.zeros_like(model.alpha), train=model.train,
        scaling=model.scaling, partition=part, kernel=model.kernel,
        loss_params=model.loss_params, lam=model.lam,
        class_weights=model.class_weights,
        report=gska.SolveReport(1, (1.0,), True, ()))


class TestComponentValues:
    def test_sum_equals_decision_function(self, fitted):
        data, part, _, model = fitted
        total = sum(gska.component_values(model, data, j)
                    for j in range(part.d))
        np.testing.assert_allclose(total,
                                   gska.decision_function(model, data),
                                   atol=1e-10)

    def test_zero_block_zero_component(self, fitted):
        data, part, _, model = fitted
        zm = zero_model(model, part)
        np.testing.assert_array_equal(
            gska.component_values(zm, data, 0), 0.0)

    def test_single_group_equals_decision(self):
        rng = np.random.default_rng(22)
        d = Dataset(rng.standard_normal((30, 2)),
                    np.where(rng.random(30) > 0.5, 1.0, -1.0),
                    ("a", "b"), tuple(str(i) for i in range(30)))
        part = GroupPartition(((0, 1),), ("g",))
        model = gska.fit(d, part, SolverConfig(0.05))
        np.testing.assert_array_equal(
            gska.component_values(model, d, 0),
            gska.decision_function(model, d))

    def test_tiled_query_matches_one_shot(self, fitted):
        _, part, _, model = fitted
        # crosses two tile boundaries and ends in a part tile
        rows = model_mod._tile_rows(model.train.n)
        query = gska.synth_generate(2 * rows + 37, 11, 0.1)[0]
        blocks = gska.cross_gram(model.train, _align_query(model, query),
                                 part, model.kernel)
        for j in range(part.d):
            assert np.array_equal(gska.component_values(model, query, j),
                                  model.alpha[j] @ blocks[j])

    def test_invalid_group(self, fitted):
        data, part, _, model = fitted
        with pytest.raises(DataError):
            gska.component_values(model, data, 99)


class TestGroupContribution:
    def test_inactive_group_zero(self, fitted):
        data, part, _, model = fitted
        zm = zero_model(model, part)
        for gi in gska.group_contribution(zm):
            assert gi.contribution == 0.0
            assert gi.normalized_share == 0.0

    def test_shares_sum_to_one(self, fitted):
        _, _, _, model = fitted
        shares = [gi.normalized_share for gi in gska.group_contribution(model)]
        np.testing.assert_allclose(sum(shares), 1.0, atol=1e-12)

    def test_truth_groups_dominate(self, fitted):
        _, part, truth, model = fitted
        contrib = [gi.contribution for gi in gska.group_contribution(model)]
        assert min(contrib[j] for j in truth) > \
            max(contrib[j] for j in range(part.d) if j not in truth)

    def test_alpha_scaling_homogeneity(self, fitted):
        _, part, _, model = fitted
        doubled = gska.ModelState(
            alpha=2.0 * model.alpha, train=model.train,
            scaling=model.scaling, partition=part, kernel=model.kernel,
            loss_params=model.loss_params, lam=model.lam,
            class_weights=model.class_weights, report=model.report)
        c1 = [gi.contribution for gi in gska.group_contribution(model)]
        c2 = [gi.contribution for gi in gska.group_contribution(doubled)]
        np.testing.assert_allclose(c2, [2 * c for c in c1], rtol=1e-12)

    def test_rkhs_alternative_nonnegative(self, fitted):
        _, _, _, model = fitted
        assert np.all(gska.rkhs_contribution(model) >= 0)


class TestPartialDependence:
    def test_inactive_group_flat_zero(self, fitted):
        data, part, _, model = fitted
        zm = zero_model(model, part)
        curve = gska.partial_dependence(zm, data, 0, "f1")
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_singleton_group_matches_component(self):
        rng = np.random.default_rng(23)
        d = Dataset(rng.standard_normal((40, 2)),
                    np.where(rng.random(40) > 0.5, 1.0, -1.0),
                    ("a", "b"), tuple(str(i) for i in range(40)))
        part = GroupPartition(((0,), (1,)), ("ga", "gb"))
        model = gska.fit(d, part, SolverConfig(0.02))
        curve = gska.partial_dependence(model, d, 0, "a", grid_size=25)
        q = Dataset(np.column_stack([curve.grid, np.zeros(25)]),
                    np.ones(25), ("a", "b"),
                    tuple(str(i) for i in range(25)))
        np.testing.assert_allclose(curve.values,
                                   gska.component_values(model, q, 0),
                                   atol=1e-12)

    def test_quadratic_term_gives_u_shape(self):
        # group 1 carries x2^2 - 1: the fitted curve should dip mid-grid
        data, part, _ = gska.synth_generate(500, 24, 0.05)
        model = gska.fit(data, part, SolverConfig(0.02, max_iters=3000,
                                                  tol=1e-5))
        assert model.report.converged
        curve = gska.partial_dependence(model, data, 0, "f2", grid_size=30)
        mid = curve.values[len(curve.values) // 2]
        assert mid < curve.values[2] and mid < curve.values[-3]

    def test_feature_not_in_group(self, fitted):
        data, part, _, model = fitted
        with pytest.raises(DataError):
            gska.partial_dependence(model, data, 0, "f5")

    @pytest.mark.parametrize("j", [-1, 4, 100])
    def test_invalid_group_id(self, fitted, j):
        # -1 would index the last group, and 4 or more would raise
        # IndexError
        data, part, _, model = fitted
        with pytest.raises(DataError, match=f"invalid group id {j}"):
            gska.partial_dependence(model, data, j, "f1")

    def test_training_columns_matched_by_name(self, fitted):
        data, part, _, model = fitted
        rev = tuple(reversed(data.feature_names))
        order = [data.feature_names.index(f) for f in rev]
        reversed_data = Dataset(data.samples[:, order], data.labels, rev,
                                data.sample_ids)
        for j, feature in ((0, "f2"), (1, "f4")):
            want = gska.partial_dependence(model, data, j, feature, 9)
            got = gska.partial_dependence(model, reversed_data, j, feature, 9)
            np.testing.assert_array_equal(got.grid, want.grid)
            np.testing.assert_array_equal(got.values, want.values)
            assert got.reference == want.reference
            assert (got.group_id, got.feature_name) == (j, feature)

    def test_missing_training_column_named(self, fitted):
        data, part, _, model = fitted
        short = Dataset(data.samples[:, 1:], data.labels,
                        data.feature_names[1:], data.sample_ids)
        with pytest.raises(DataError, match="'f1'"):
            gska.partial_dependence(model, short, 1, "f4")

    def test_grid_in_original_units(self, fitted):
        data, part, _, model = fitted
        curve = gska.partial_dependence(model, data, 1, "f4")
        col = data.samples[:, 3]
        assert curve.grid[0] == col.min() and curve.grid[-1] == col.max()


class TestExport:
    def test_file_count_and_roundtrip(self, fitted, tmp_path):
        data, part, _, model = fitted
        written = gska.export_interpretation(model, data, tmp_path,
                                             grid_size=10)
        assert len(written) == 12 + 1
        for path in written[:-1]:
            grid, values = read_pd_csv(path)
            assert grid.size == 10

    def test_pd_roundtrip_exact(self, fitted, tmp_path):
        data, part, _, model = fitted
        gska.export_interpretation(model, data, tmp_path, grid_size=10)
        curve = gska.partial_dependence(model, data, 0, "f1", grid_size=10)
        grid, values = read_pd_csv(tmp_path / "pd_g1_f1.csv")
        np.testing.assert_array_equal(grid, curve.grid)
        np.testing.assert_array_equal(values, curve.values)

    def test_zero_model_flat_exports(self, fitted, tmp_path):
        data, part, _, model = fitted
        zm = zero_model(model, part)
        written = gska.export_interpretation(zm, data, tmp_path, grid_size=5)
        for path in written[:-1]:
            _, values = read_pd_csv(path)
            np.testing.assert_array_equal(values, 0.0)

    def test_scatter_flag_adds_files(self, fitted, tmp_path):
        data, part, _, model = fitted
        written = gska.export_interpretation(model, data, tmp_path,
                                             grid_size=5, scatter=True)
        assert len(written) == 12 + 1 + part.d

    def test_contribution_invariant_under_sample_permutation(self, fitted):
        data, part, _, model = fitted
        perm = np.random.default_rng(25).permutation(data.n)
        permuted = gska.ModelState(
            alpha=model.alpha[:, perm], train=model.train.subset(perm),
            scaling=model.scaling, partition=part, kernel=model.kernel,
            loss_params=model.loss_params, lam=model.lam,
            class_weights=model.class_weights, report=model.report)
        c1 = [gi.contribution for gi in gska.group_contribution(model)]
        c2 = [gi.contribution for gi in gska.group_contribution(permuted)]
        np.testing.assert_allclose(c1, c2, rtol=1e-9)
