import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gska
from gska import kernels
from gska.data import DataError, Dataset, GroupPartition


def random_dataset(n, p, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, p)),
                   np.where(rng.random(n) > 0.5, 1.0, -1.0),
                   tuple(f"f{i}" for i in range(p)),
                   tuple(str(i) for i in range(n)))


class TestGaussianKernel:
    def test_zero_distance(self):
        assert gska.gaussian_kernel([1.0, 2.0], [1.0, 2.0], 3.7) == 1.0

    def test_unit_case(self):
        np.testing.assert_allclose(gska.gaussian_kernel([0.0], [1.0], 1.0),
                                   np.exp(-1), atol=1e-12)

    def test_hand_computed(self):
        # squared distance (1-3)^2 + (2-4)^2 = 8
        np.testing.assert_allclose(
            gska.gaussian_kernel([1.0, 2.0], [3.0, 4.0], 0.5),
            np.exp(-4.0), atol=1e-12)

    def test_symmetry(self):
        a, b = [0.3, -1.2], [2.0, 0.1]
        assert gska.gaussian_kernel(a, b, 0.7) == gska.gaussian_kernel(b, a, 0.7)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            gska.gaussian_kernel([1.0], [1.0, 2.0], 1.0)

    def test_nonfinite(self):
        with pytest.raises(DataError):
            gska.gaussian_kernel([np.inf], [1.0], 1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_nonfinite_bandwidth_rejected(self, gamma):
        with pytest.raises(DataError, match="gammas"):
            gska.KernelSpec((1.0, gamma))


class TestGramBlocks:
    def test_n1_block_is_one(self):
        d = Dataset(np.array([[0.5, 1.0]]), np.array([1.0]), ("a", "b"),
                    ("0",))
        part = GroupPartition(((0,), (1,)), ("ga", "gb"))
        blocks = gska.gram_blocks(d, part, gska.KernelSpec((1.0, 2.0)))
        for B in blocks:
            np.testing.assert_array_equal(B, [[1.0]])

    def test_identical_samples_all_ones(self):
        d = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]),
                    np.array([1.0, -1.0]), ("a", "b"), ("0", "1"))
        part = GroupPartition(((0, 1),), ("g",))
        B = gska.gram_blocks(d, part, gska.KernelSpec((0.3,)))[0]
        np.testing.assert_array_equal(B, np.ones((2, 2)))

    def test_matches_entrywise_oracle(self):
        d = random_dataset(3, 1, 7)
        part = GroupPartition(((0,),), ("g",))
        B = gska.gram_blocks(d, part, gska.KernelSpec((1.0,)))[0]
        for i in range(3):
            for k in range(3):
                expect = gska.gaussian_kernel(d.samples[i], d.samples[k], 1.0)
                np.testing.assert_allclose(B[i, k], expect, atol=1e-12)

    def test_invariants_symmetric_unit_diag_psd(self):
        d = random_dataset(50, 6, 8)
        part = GroupPartition(((0, 1), (2, 3, 4), (5,)), ("a", "b", "c"))
        blocks = gska.gram_blocks(d, part, gska.KernelSpec((0.5, 1.0, 2.0)))
        for B in blocks:
            assert np.max(np.abs(B - B.T)) <= 1e-12
            np.testing.assert_array_equal(np.diag(B), 1.0)
            assert np.all(B > 0) and np.all(B <= 1)
            assert np.linalg.eigvalsh(B).min() >= -1e-8

    def test_gamma_count_mismatch(self):
        d = random_dataset(4, 2, 9)
        part = GroupPartition(((0,), (1,)), ("a", "b"))
        with pytest.raises(DataError):
            gska.gram_blocks(d, part, gska.KernelSpec((1.0,)))

    def test_small_gamma_approaches_ones(self):
        d = random_dataset(6, 2, 10)
        part = GroupPartition(((0, 1),), ("g",))
        prev_min = 0.0
        for gamma in (1.0, 0.1, 0.01, 1e-4):
            B = gska.gram_blocks(d, part, gska.KernelSpec((gamma,)))[0]
            assert B.min() >= prev_min
            prev_min = B.min()
        assert prev_min > 0.999


class TestCrossGram:
    def test_query_equals_train_matches_gram(self):
        d = random_dataset(8, 4, 11)
        part = GroupPartition(((0, 1), (2, 3)), ("a", "b"))
        spec = gska.KernelSpec((0.7, 1.3))
        gram = gska.gram_blocks(d, part, spec)
        cross = gska.cross_gram(d, d, part, spec)
        for B, C in zip(gram, cross):
            np.testing.assert_array_equal(B, C)

    def test_query_at_training_point(self):
        d = random_dataset(5, 2, 12)
        part = GroupPartition(((0, 1),), ("g",))
        spec = gska.KernelSpec((1.0,))
        q = d.subset([2])
        C = gska.cross_gram(d, q, part, spec)[0]
        assert C[2, 0] == 1.0

    def test_matches_entrywise_oracle(self):
        train = random_dataset(4, 3, 13)
        query = random_dataset(2, 3, 14)
        part = GroupPartition(((0, 2), (1,)), ("a", "b"))
        spec = gska.KernelSpec((0.4, 2.2))
        blocks = gska.cross_gram(train, query, part, spec)
        for j, idx in enumerate(part.groups):
            for i in range(4):
                for q in range(2):
                    expect = gska.gaussian_kernel(
                        train.samples[i, list(idx)],
                        query.samples[q, list(idx)], spec.gammas[j])
                    np.testing.assert_allclose(blocks[j][i, q], expect,
                                               atol=1e-12)

    def test_column_mismatch(self):
        train = random_dataset(4, 2, 15)
        query = Dataset(np.zeros((1, 2)), np.array([1.0]), ("x", "y"), ("0",))
        part = GroupPartition(((0, 1),), ("g",))
        with pytest.raises(DataError):
            gska.cross_gram(train, query, part, gska.KernelSpec((1.0,)))


class TestMedianHeuristic:
    def test_three_point_enumeration(self):
        # squared distances {1, 4, 1}, median 1 -> gamma 1
        d = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, -1, 1.0]),
                    ("x",), ("0", "1", "2"))
        part = GroupPartition(((0,),), ("g",))
        spec = gska.median_heuristic_gamma(d, part)
        np.testing.assert_allclose(spec.gammas[0], 1.0)

    def test_single_pair(self):
        d = Dataset(np.array([[0.0], [2.0]]), np.array([1, -1.0]), ("x",),
                    ("0", "1"))
        part = GroupPartition(((0,),), ("g",))
        spec = gska.median_heuristic_gamma(d, part)
        np.testing.assert_allclose(spec.gammas[0], 0.25)

    def test_all_identical_errors(self):
        d = Dataset(np.array([[1.0], [1.0], [1.0]]), np.array([1, -1, 1.0]),
                    ("x",), ("0", "1", "2"))
        part = GroupPartition(((0,),), ("g",))
        with pytest.raises(DataError):
            gska.median_heuristic_gamma(d, part)

    def test_all_identical_error_names_the_group(self):
        samples = np.column_stack([np.arange(4.0), np.full(4, 2.5)])
        d = Dataset(samples, np.array([1, -1, 1, -1.0]), ("x", "y"),
                    ("0", "1", "2", "3"))
        part = GroupPartition(((0,), (1,)), ("varied", "flat"))
        with pytest.raises(DataError, match="in group 'flat'"):
            gska.median_heuristic_gamma(d, part)

    def test_memory_bounded_at_n10000(self):
        # the m = 5e7 squared distances alone would take 400 MB
        d = random_dataset(10_000, 3, 21)
        part = GroupPartition(((0, 1, 2),), ("g",))
        tracemalloc.start()
        try:
            gska.median_heuristic_gamma(d, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestBitIdentity:
    """The kernel layer matches the plain full-matrix formulas exactly."""

    def test_median_heuristic_equals_full_matrix_triangle(self):
        d = random_dataset(60, 5, 16)
        samples = d.samples.copy()
        samples[7] = samples[3]                 # zero distances are dropped
        d = Dataset(samples, d.labels, d.feature_names, d.sample_ids)
        part = GroupPartition(((0, 1), (2,), (3, 4)), ("a", "b", "c"))
        spec = gska.median_heuristic_gamma(d, part)
        iu = np.triu_indices(d.n, k=1)
        for j, idx in enumerate(part.groups):
            A = d.samples[:, idx]
            d2 = cdist(A, A, "sqeuclidean")[iu]
            assert spec.gammas[j] == 1.0 / float(np.median(d2[d2 > 0]))

    @staticmethod
    def _reference_gamma(X):
        iu = np.triu_indices(len(X), k=1)
        d2 = cdist(X, X, "sqeuclidean")[iu]
        return 1.0 / float(np.median(d2[d2 > 0]))

    def _check(self, X):
        d = Dataset(X, np.where(np.arange(len(X)) % 2, 1.0, -1.0),
                    tuple(f"f{i}" for i in range(X.shape[1])),
                    tuple(str(i) for i in range(len(X))))
        part = GroupPartition((tuple(range(X.shape[1])),), ("g",))
        gamma = gska.median_heuristic_gamma(d, part).gammas[0]
        assert gamma == self._reference_gamma(X)

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 513])
    def test_median_heuristic_default_tiles(self, n):
        # 65536 // n rows a tile: one tile up to n = 256, then two, then five
        self._check(np.random.default_rng(n).standard_normal((n, 3)))

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 8, 9, 15, 16])
    def test_median_heuristic_small_tiles(self, n, monkeypatch):
        # 7-row tiles: n = tile - 1, tile, tile + 1 (one tile of pairs, the
        # last row having none), tile + 2, 2 tile + 1 and 2 tile + 2
        monkeypatch.setattr(kernels, "_MEDIAN_TILE_ENTRIES", 7 * n)
        self._check(np.random.default_rng(n).standard_normal((n, 2)))

    @pytest.mark.parametrize("shape", ["duplicates", "rounded", "sorted",
                                       "few_values"])
    def test_median_heuristic_ties_and_order(self, shape, monkeypatch):
        monkeypatch.setattr(kernels, "_MEDIAN_TILE_ENTRIES", 30 * 200)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((200, 3))
        if shape == "duplicates":
            X = X[rng.integers(0, 40, len(X))]
        elif shape == "rounded":
            X = np.round(X, 1)
        elif shape == "sorted":
            X = X[np.argsort(X[:, 0])]
        else:
            X = np.round(X[:, :1]) * 0.5    # few distinct distances, many 0
        self._check(X)

    @pytest.mark.parametrize("miss", ["low", "high", "straddle"])
    def test_median_heuristic_bracket_miss(self, miss, monkeypatch):
        # a first bracket that misses the median widens on the side it
        # missed only, and the second sweep still finds np.median's value
        X = np.random.default_rng(23).standard_normal((40, 2))
        d2 = np.sort(cdist(X, X, "sqeuclidean")[np.triu_indices(40, k=1)])
        assert d2[0] > 0 and len(d2) % 2 == 0
        a, b = d2[len(d2) // 2 - 1], d2[len(d2) // 2]
        assert a < b
        forced = {"low": (d2[-20], d2[-10]), "high": (d2[10], d2[20]),
                  "straddle": ((a + b) / 2, (a + b) / 2)}[miss]
        calls, sweeps = [], []
        bracket, sweep = kernels._median_bracket, kernels._sweep_sq_dists

        def forced_first(sample, below, above):
            calls.append((below, above))
            return forced if len(calls) == 1 else bracket(sample, below,
                                                          above)

        def counted(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(kernels, "_median_bracket", forced_first)
        monkeypatch.setattr(kernels, "_sweep_sq_dists", counted)
        self._check(X)
        (below, above), widened = calls[0], calls[1]
        assert widened == {"low": (4 * below, above),
                           "high": (below, 4 * above),
                           "straddle": (4 * below, 4 * above)}[miss]
        assert len(sweeps) == 2

    def test_blocks_equal_exp_of_scaled_distances(self):
        train = random_dataset(30, 4, 17)
        query = random_dataset(11, 4, 18)
        part = GroupPartition(((0, 1), (2, 3)), ("a", "b"))
        spec = gska.KernelSpec((0.37, 1.9))
        gram = gska.gram_blocks(train, part, spec)
        cross = gska.cross_gram(train, query, part, spec)
        for j, idx in enumerate(part.groups):
            A, Q = train.samples[:, idx], query.samples[:, idx]
            assert np.array_equal(
                gram[j], np.exp(-spec.gammas[j] * cdist(A, A, "sqeuclidean")))
            assert np.array_equal(
                cross[j], np.exp(-spec.gammas[j] * cdist(A, Q, "sqeuclidean")))

    def test_cross_gram_selected_groups(self):
        train = random_dataset(9, 5, 19)
        query = random_dataset(4, 5, 20)
        part = GroupPartition(((0,), (1, 2), (3, 4)), ("a", "b", "c"))
        spec = gska.KernelSpec((0.5, 1.0, 2.0))
        full = gska.cross_gram(train, query, part, spec)
        picked = gska.cross_gram(train, query, part, spec, groups=(2, 0))
        assert len(picked) == 2
        assert np.array_equal(picked[0], full[2])
        assert np.array_equal(picked[1], full[0])
