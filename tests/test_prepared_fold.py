"""Each training set's Gram is built once and freed with its fold, and the
default lambda grid matches its public definition."""

import tracemalloc
import weakref

import numpy as np
import pytest

import gska
from gska import kernels
from gska.evaluation import cross_validate, default_lambda_grid, grid_search
from gska.solver import SolverConfig


@pytest.fixture(scope="module")
def synth():
    data, part, _ = gska.synth_generate(120, 70, 0.2)
    return data, part


@pytest.fixture
def gram_builds(rebind):
    """A weak reference to each Gram built through any gska module binding
    of gram_blocks."""
    calls = []
    original = kernels.gram_blocks

    def counted(*args, **kwargs):
        gram = original(*args, **kwargs)
        calls.append(weakref.ref(gram))
        return gram

    rebind(original, counted)
    return calls


class TestGramBuiltOncePerFold:
    def test_cross_validate(self, synth, gram_builds):
        data, part = synth
        cross_validate(data, part, SolverConfig(0.05, 1.0), k=4, seed=0)
        assert len(gram_builds) == 4

    def test_grid_search(self, synth, gram_builds):
        data, part = synth
        grid_search(data, part, lambdas=[0.02, 0.1], sigmas=[0.5, 1.0], k=3,
                    seed=0)
        assert len(gram_builds) == 3

    def test_export_interpretation_of_loaded_model(self, tmp_path,
                                                   gram_builds):
        # n = 600 is above one scoring tile, so a tile is under n x n
        data, part, _ = gska.synth_generate(600, 70, 0.2)
        gska.save(gska.fit(data, part, SolverConfig(0.05, 1.0)),
                  tmp_path / "model.json")
        model = gska.load(tmp_path / "model.json")
        gram_builds.clear()
        tracemalloc.start()
        try:
            gska.export_interpretation(model, data, tmp_path / "interp",
                                       grid_size=5, scatter=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(gram_builds) == 0
        assert peak < data.n * data.n * 8


def test_fitted_model_keeps_no_gram(synth, gram_builds):
    data, part = synth
    model = gska.fit(data, part, SolverConfig(0.05, 1.0))
    assert not hasattr(model, "gram")
    assert len(gram_builds) == 1
    assert gram_builds[0]() is None


def test_default_lambda_grid_matches_public_route(synth):
    data, part = synth
    sigmas = (0.5, 1.0, 2.0)
    grid = default_lambda_grid(data, part, sigmas)

    std, _ = gska.standardize(data)
    gram = gska.gram_blocks(std, part, gska.median_heuristic_gamma(std, part))
    cw = gska.ClassWeights.inverse_frequency(std.labels)
    top = max(gska.lambda_max(gram, std.labels, part,
                              SolverConfig(0.0, s, class_weights=cw))
              for s in sigmas)
    assert top > 2e-4
    assert len(grid) == 20
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == 1e-4
    assert grid[-1] == top
