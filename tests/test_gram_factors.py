"""Long solves in eigenbases of the Gram blocks.

On a GramBlocks from `gram_blocks` whose blocks hold no bases, a solve at
lam <= lambda_max / 3, read off the gradient at alpha = 0 whether it starts
cold or warm, builds an eigenbasis of each block before its first iteration;
a solve above that ratio, or at lam = 0, runs dense to the end.
`gram_blocks` builds no block: each is built dense when a product first
needs it, so a cold start that decides for the bases on its first blocks
never builds the others.
Each basis is built to the solve's error budget: from the thin SVD of a
pivoted-Cholesky factor where one of rank below n / 2 meets the budget, else
from a full eigendecomposition. The oracle is the same solve on a plain list
of the dense blocks, which never leaves them. Most solves here start cold at
0.05 or 0.1 lambda_max, in the bases; tests of dense solves run above
lambda_max / 3. The low-rank instances use one- and two-feature groups so
that the blocks have rank well below n / 2 at n = 300; five-feature groups
at n = 120 have full numerical rank.
"""

import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

import gska
from gska import kernels, model, solver
from gska.cli import run
from gska.coherence import ClassWeights, LabelledRisk, loss_grad
from gska.data import Dataset, GroupPartition
from gska.evaluation import grid_search
from gska.interpret import (_component_matrix, group_contribution,
                            rkhs_contribution)
from gska.solver import (SolverConfig, _exact, basis_budget, group_gradient,
                         lambda_max, objective, solve)

from test_solver import kkt_violations, make_instance


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


def set_aside(gram, labels, part, cfg):
    """The groups a cold dense solve at cfg sets aside: ||g_j|| / w_j at
    alpha = 0 below 2 lam - lambda_max (the basic strong rule)."""
    zero = np.zeros((part.d, len(labels)))
    ratio = np.array([np.linalg.norm(group_gradient(zero, gram, labels, part,
                                                    cfg, j)) / w
                      for j, w in enumerate(part.weights)])
    return ratio < 2 * cfg.lam - ratio.max()


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
        # a looser lambda's budget is looser: it starts on the bases; a
        # tighter one's is tighter: it rebuilds them, once
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        solve(gram, data.labels, part, cfg)
        assert len(factor_calls) == part.d
        alpha, rep = solve(gram, data.labels, part,
                           replace(cfg, lam=cfg.lam * 1.25))
        assert len(factor_calls) == part.d
        assert rep.converged
        alpha, rep = solve(gram, data.labels, part,
                           replace(cfg, lam=cfg.lam * 0.8))
        assert len(factor_calls) == 2 * part.d
        assert rep.converged


@pytest.fixture
def events(monkeypatch):
    """The solver's calls in order: "basis" for each to_eigenbasis that
    built the bases, "prox" for each batched prox step, "norm" for each
    power iteration."""
    calls = []
    for owner, name, tag in ((kernels.GramBlocks, "to_eigenbasis", "basis"),
                             (gska.solver, "group_update", "prox"),
                             (gska.solver, "spectral_norm_sq", "norm")):
        def counted(*args, _original=getattr(owner, name), _tag=tag,
                    **kwargs):
            out = _original(*args, **kwargs)
            if out is not False:
                calls.append(_tag)
            return out
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def gradient_events(events, monkeypatch):
    """events, with "exact" for each GramBlocks.exact_gradients call: every
    gradient on dense blocks, and the final KKT check's."""
    original = kernels.GramBlocks.exact_gradients

    def counted(self, s, groups=None):
        events.append("exact")
        return original(self, s, groups)

    monkeypatch.setattr(kernels.GramBlocks, "exact_gradients", counted)
    return events


@pytest.fixture
def block_events(gradient_events, monkeypatch):
    """gradient_events, with ("dot", j) for each GramBlocks.dot call and
    ("build", j) for each block j built whole from its training rows."""
    dot, rows = kernels.GramBlocks.dot, kernels.GramBlocks._kernel_rows

    def counted_dot(self, j, v):
        gradient_events.append(("dot", j))
        return dot(self, j, v)

    def counted_rows(self, j, start, stop):
        if (start, stop) == (0, self.n):
            gradient_events.append(("build", j))
        return rows(self, j, start, stop)

    monkeypatch.setattr(kernels.GramBlocks, "dot", counted_dot)
    monkeypatch.setattr(kernels.GramBlocks, "_kernel_rows", counted_rows)
    return gradient_events


class TestBasesFirst:
    """A solve on dense blocks at lam <= lambda_max / 3 builds the bases
    before its first iteration and takes no power iteration; nearer
    lambda_max, a solve runs dense to the end."""

    @pytest.mark.parametrize("fit_intercept", [False, True],
                             ids=["plain", "intercept"])
    @pytest.mark.parametrize("n,groups,frac,path", [
        (300, LOW_RANK, 0.1, "svd"), (120, FULL_RANK, 0.3, "eigh")],
        ids=["svd", "eigh"])
    def test_cold_start_far_below_lambda_max(self, events, basis_calls, n,
                                             groups, frac, path,
                                             fit_intercept):
        data, part, spec = instance(n, groups)
        cw = ClassWeights.inverse_frequency(data.labels)
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        top = lambda_max(dense, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(frac * top, 1.0, tol=1e-4, max_iters=5000,
                           class_weights=cw, fit_intercept=fit_intercept)
        alpha, rep = solve(gram, data.labels, part, cfg)
        assert events[0] == "basis" and events.count("basis") == 1
        assert "norm" not in events
        assert basis_calls == [path] * part.d
        assert all(in_basis(gram, j) for j in range(part.d))
        alpha_d, rep_d = solve(dense, data.labels, part, cfg)
        assert rep.converged and rep_d.converged
        assert rel(rep.objective_trace[-1], rep_d.objective_trace[-1]) < 1e-8
        assert max(kkt_violations(alpha, dense, data.labels, part, cfg,
                                  rep.intercept)) <= cfg.tol
        assert np.all(np.diff(rep.objective_trace) <= 1e-10)

    def test_cold_start_near_lambda_max_stays_dense(self, low_rank, events):
        # lam = 0.8 lambda_max: bit for bit the solve on the dense arrays,
        # with a power iteration for each group the strong rule keeps
        data, part, spec, cfg = low_rank
        cfg = replace(cfg, lam=cfg.lam * 8)
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        kept = ~set_aside(dense, data.labels, part, cfg)
        assert 0 < np.count_nonzero(kept) < part.d
        alpha, rep = solve(gram, data.labels, part, cfg)
        assert rep.converged and "basis" not in events
        assert events.count("norm") == np.count_nonzero(kept)
        assert not any(in_basis(gram, j) for j in range(part.d))
        alpha_d, rep_d = solve(dense, data.labels, part, cfg)
        assert np.array_equal(alpha, alpha_d)
        assert rep.objective_trace == rep_d.objective_trace

    def test_warm_start_far_below_lambda_max(self, low_rank, block_events):
        # from the solution at lambda_max / 2: the start's own exact
        # gradient, then the gradient at alpha = 0 one block at a time up to
        # the first block whose own ||g_j|| / w_j is at least 3 lam (block 0
        # at 0.1 lambda_max, fewer than d products; block 1 at 0.25), then
        # the bases
        data, part, spec, low = low_rank
        dense = [np.array(K) for K in gska.gram_blocks(data, part, spec)]
        init, _ = solve(dense, data.labels, part,
                        replace(low, lam=low.lam * 5))
        zero = np.zeros((part.d, data.n))
        for frac, decides in ((0.1, 0), (0.25, 1)):
            cfg = replace(low, lam=low.lam * frac / 0.1)
            ratio = [np.linalg.norm(group_gradient(
                zero, dense, data.labels, part, cfg, j)) / w
                for j, w in enumerate(part.weights)]
            assert decides == min(j for j, r in enumerate(ratio)
                                  if r >= 3 * cfg.lam)
            gram = gska.gram_blocks(data, part, spec)
            block_events.clear()
            _, rep = solve(gram, data.labels, part, cfg, init)
            first = block_events.index("prox")
            start = [e for e in block_events[:first] if e[0] != "build"]
            k = start.index("exact")
            assert start[k + 1:] == ([("dot", j) for j in range(part.d)]
                                     + [("dot", j)
                                        for j in range(decides + 1)]
                                     + ["basis"])
            assert block_events.count("basis") == 1
            assert "norm" not in block_events
            assert all(in_basis(gram, j) for j in range(part.d))
            _, rep_d = solve(dense, data.labels, part, cfg, init)
            assert rep.converged and rep_d.converged
            assert rel(rep.objective_trace[-1],
                       rep_d.objective_trace[-1]) < 1e-8
            assert np.all(np.diff(rep.objective_trace) <= 1e-10)

    @pytest.mark.parametrize("fit_intercept", [False, True],
                             ids=["plain", "intercept"])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    @pytest.mark.parametrize("n,groups,frac,tol,bases", [
        (120, FULL_RANK, 0.0, 1e-2, False), (300, LOW_RANK, 0.0, 1e-2, False),
        (300, LOW_RANK, 0.2, 2.0, True), (300, LOW_RANK, 0.2, 5.0, True),
        (120, FULL_RANK, 0.2, 5.0, True), (300, LOW_RANK, 0.4, 5.0, False)],
        ids=["lam0", "lam0-svd", "tol2", "tol5", "tol5-eigh", "tol5-dense"])
    def test_edge_inputs(self, n, groups, frac, tol, bases, start,
                         fit_intercept):
        # lam = 0, where every block's ratio passes the test but the basis
        # budget is 0, under the floor, so the solve runs dense (no penalty
        # bounds ||alpha||, so no budget bounds the margins' error in a
        # factor's basis); and tol 2 and 5, where a block's own residual at
        # alpha = 0 need not exceed tol (at 0.2 lambda_max it is at most 4
        # on these blocks): each solve ends in the coordinates its ratio
        # and budget give, and converges. A warm start comes from
        # lambda_max / 2 (lambda_max / 10 for lam = 0).
        data, part, spec = instance(n, groups)
        y = data.labels
        cw = ClassWeights.inverse_frequency(y)
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        top = lambda_max(dense, y, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(frac * top, 1.0, tol=tol, max_iters=5000,
                           class_weights=cw, fit_intercept=fit_intercept)
        init = None
        if start == "warm":
            init, _ = solve(dense, y, part, replace(
                cfg, lam=(0.5 if frac else 0.1) * top, tol=1e-4))
        alpha, rep = solve(gram, y, part, cfg, init)
        assert all(in_basis(gram, j) == bases for j in range(part.d))
        assert rep.converged
        _, kkt, _ = _exact(kernels.GramBlocks(dense),
                           LabelledRisk(y, cw, cfg.loss_params), alpha, part,
                           cfg.lam, rep.intercept, fit_intercept)
        assert kkt == pytest.approx(rep.kkt_residual, rel=1e-9)
        assert kkt <= tol

    def test_settled_warm_start_builds_nothing(self, low_rank, events):
        # a start already within tol / 10 runs no iteration: it keeps its
        # own coefficients, on the dense blocks
        data, part, spec, cfg = low_rank
        dense = [np.array(K) for K in gska.gram_blocks(data, part, spec)]
        init, rep_d = solve(dense, data.labels, part, cfg)
        assert rep_d.kkt_residual <= 0.1 * cfg.tol
        gram = gska.gram_blocks(data, part, spec)
        alpha, rep = solve(gram, data.labels, part, cfg, init)
        assert rep.iterations == 0 and "basis" not in events
        assert not any(in_basis(gram, j) for j in range(part.d))
        assert np.array_equal(alpha, init)
        assert rep.kkt_residual == rep_d.kkt_residual

    @pytest.mark.parametrize("frac", [0.1, 0.8])
    def test_cold_start_takes_one_gradient_at_zero(self, low_rank,
                                                   block_events, frac):
        # the gradient at alpha = 0 both decides the coordinates and starts
        # the iterations: one product a block, each block built as its
        # product needs it
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        _, rep = solve(gram, data.labels, part,
                       replace(cfg, lam=cfg.lam * frac / 0.1))
        assert rep.converged
        assert in_basis(gram, 0) == (frac < 1 / 3)
        first = block_events.index("prox")
        start = block_events[:first]
        builds = [e for e in block_events if e[0] == "build"]
        if frac > 1 / 3:
            # dense to the end: every block built once, by the start's
            # product with it, and no whole gradient before the first prox
            assert "exact" not in start
            assert [e for e in start if e[0] == "dot"] \
                == [("dot", j) for j in range(part.d)]
            assert builds == [("build", j) for j in range(part.d)]
            assert builds == [e for e in start if e[0] == "build"]
            return
        # the bases come before all d blocks are built, each built block
        # having taken one product; after them, only the final check takes
        # an exact gradient, and no block is built whole again
        k = start.index("basis")
        assert start[k + 1:] == [] and "exact" not in start
        built = [e for e in start if e[0] == "build"]
        assert 1 <= len(built) < part.d
        assert built == [("build", j) for j in range(len(built))]
        assert [e for e in start if e[0] == "dot"] \
            == [("dot", j) for j in range(len(built))]
        assert builds == built
        after = [e for e in block_events[first:] if e in ("exact", "prox")]
        assert after.count("exact") == 1 and after[-1] == "exact"

    def test_solve_on_held_bases_takes_no_dense_gradient(self, low_rank,
                                                         gradient_events):
        # as a grid's later solves on a fold: cold and warm starts on bases
        # within their budget take only the final check's exact gradient
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        init, _ = solve(gram, data.labels, part, cfg)
        for start in (None, init):
            gradient_events.clear()
            _, rep = solve(gram, data.labels, part,
                           replace(cfg, lam=cfg.lam * 1.25), start)
            assert rep.converged and "prox" in gradient_events
            assert gradient_events.count("exact") == 1
            assert gradient_events[-1] == "exact"
            assert "basis" not in gradient_events
            assert "norm" not in gradient_events


class TestWorkingSet:
    """A cold solve that stays dense sets aside each group whose ||g_j|| /
    w_j at alpha = 0 is below 2 lam - lambda_max (the basic strong rule)
    and iterates on the others, W. Once W's residual settles, each
    set-aside block takes one exact product at the iterate, and any above
    tol / 10 joins W; the final objective and KKT residual, over every
    group, come from the loop's own exact products."""

    @staticmethod
    def synth(frac, fit_intercept=False):
        # synth_generate(300, 1) prepared as a CLI fit prepares it, at frac
        # lambda_max
        data, part, _ = gska.synth_generate(300, 1, 0.2)
        fold = model._prepare_fold(data, part)
        cw = fold.class_weights
        top = lambda_max(fold.gram, fold.train.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(frac * top, 1.0, tol=1e-4, max_iters=5000,
                           class_weights=cw, fit_intercept=fit_intercept)
        return fold, part, cfg

    @staticmethod
    def reference(dense, labels, part, cfg):
        # a long run from a start off zero, which the rule never screens
        init = np.full((part.d, len(labels)), 1e-9)
        _, rep = solve(dense, labels, part,
                       replace(cfg, tol=1e-7, max_iters=100000), init)
        return rep.objective_trace[-1]

    @staticmethod
    def dots(events, j):
        return [k for k, e in enumerate(events) if e == ("dot", j)]

    @pytest.mark.parametrize("fit_intercept", [False, True],
                             ids=["plain", "intercept"])
    def test_set_aside_blocks_take_two_products(self, block_events,
                                                fit_intercept):
        fold, part, cfg = self.synth(0.75, fit_intercept)
        y = fold.train.labels
        dense = [np.array(K) for K in fold.gram]
        aside = set_aside(dense, y, part, cfg)
        kept = np.flatnonzero(~aside)
        assert aside.any() and kept.size
        block_events.clear()
        alpha, rep = solve(fold.gram, y, part, cfg)
        events = list(block_events)
        assert rep.converged and "basis" not in events
        assert rel(rep.objective_trace[-1],
                   self.reference(dense, y, part, cfg)) < 1e-9
        assert max(kkt_violations(alpha, dense, y, part, cfg,
                                  rep.intercept)) <= cfg.tol
        proxes = [k for k, e in enumerate(events) if e == "prox"]
        first, last = proxes[0], proxes[-1]
        # a power iteration for each group in W only, before the first step
        assert events.count("norm") == kept.size
        assert "norm" not in events[first:]
        for j in np.flatnonzero(aside):
            # one product at alpha = 0, one in the final check
            at = self.dots(events, j)
            assert len(at) == 2 and at[0] < first and at[1] > last
            assert not np.any(alpha[j])
        # the iterations' products are W's blocks only. After the last step
        # come its margins, W's gradient at it and the set-aside blocks'
        # check, and no more: the final objective and KKT residual reuse them
        steps = [e for e in events[first:last] if e[0] == "dot"]
        assert len(steps) >= rep.iterations
        assert {j for _, j in steps} <= set(kept)
        assert events[last:].count("exact") == 2
        assert all(len(self.dots(events[last:], j)) <= 2 for j in kept)
        obj, kkt, _ = _exact(kernels.GramBlocks(dense), LabelledRisk(
            y, cfg.class_weights, cfg.loss_params), alpha, part, cfg.lam,
            rep.intercept, fit_intercept)
        assert rep.objective_trace[-1] == obj and rep.kkt_residual == kkt

    @pytest.mark.parametrize("fit_intercept,iterations,objective,abs_alpha", [
        (False, 75, 0.9818186500817281, 3.400631122890017),
        (True, 88, 0.9675203194304276, 3.2757269318308566)],
        ids=["plain", "intercept"])
    def test_nothing_set_aside_at_half_lambda_max(self, block_events,
                                                  fit_intercept, iterations,
                                                  objective, abs_alpha):
        # 2 lam - lambda_max = 0: every group stays in W, and the solve is
        # the unscreened one (iterations, final objective and sum |alpha|
        # as before the rule, which gave the same bits)
        gram, y, part, cfg = make_instance(
            40, [(0, 1), (2,), (3, 4)], 22, tol=1e-6, max_iters=20000,
            fit_intercept=fit_intercept)
        cfg = replace(cfg, lam=0.5 * lambda_max(gram, y, part, cfg))
        assert not set_aside(gram, y, part, cfg).any()
        block_events.clear()
        alpha, rep = solve(gram, y, part, cfg)
        first = block_events.index("prox")
        assert block_events[:first].count("norm") == part.d
        assert "norm" not in block_events[first:]
        assert rep.iterations == iterations
        assert rel(rep.objective_trace[-1], objective) < 1e-12
        assert rel(float(np.abs(alpha).sum()), abs_alpha) < 1e-12
        steps = {j for _, j in (e for e in block_events[first:]
                                if e[0] == "dot")}
        assert steps == set(range(part.d))

    @pytest.mark.parametrize("fit_intercept", [False, True],
                             ids=["plain", "intercept"])
    def test_above_lambda_max_w_is_empty(self, block_events, fit_intercept):
        # unit weights on unbalanced labels: dR/db is not 0 at the start
        gram, y, part, cfg = make_instance(
            40, [(0, 1), (2,), (3, 4)], 22, tol=1e-6,
            fit_intercept=fit_intercept)
        assert y.sum() != 0
        cfg = replace(cfg, lam=1.5 * lambda_max(gram, y, part, cfg))
        assert set_aside(gram, y, part, cfg).all()
        block_events.clear()
        alpha, rep = solve(gram, y, part, cfg)
        assert rep.converged and rep.active_groups == ()
        assert not np.any(alpha) and "norm" not in block_events
        products = 2 if fit_intercept else 1
        assert all(len(self.dots(block_events, j)) == products
                   for j in range(part.d))
        if not fit_intercept:
            assert rep.iterations == 0 and rep.intercept == 0.0
            return
        # b alone is fitted: dR/db, by central difference, is within tol
        assert rep.iterations > 0 and rep.intercept != 0.0
        h = 1e-6
        grad_b = (objective(alpha, gram, y, part, cfg, rep.intercept + h)
                  - objective(alpha, gram, y, part, cfg,
                              rep.intercept - h)) / (2 * h)
        assert abs(grad_b) <= cfg.tol * cfg.lam * min(part.weights)

    def test_single_group_is_kept(self, events):
        gram, y, part, cfg = make_instance(40, [(0, 1)], 22, tol=1e-4,
                                           max_iters=5000)
        cfg = replace(cfg, lam=0.75 * lambda_max(gram, y, part, cfg))
        dense = [np.array(K) for K in gram]
        assert not set_aside(dense, y, part, cfg).any()
        alpha, rep = solve(gram, y, part, cfg)
        assert rep.converged and rep.active_groups == (0,)
        assert events.count("norm") == 1
        assert rel(rep.objective_trace[-1],
                   self.reference(dense, y, part, cfg)) < 1e-9

    def test_set_aside_group_active_at_the_optimum_joins(self, block_events):
        # Pinned by a seeded search (seeds 0-19 of this construction) for a
        # group the rule sets aside that is active at the optimum: g1's
        # kernel is nearly constant (a hundredth of its median-heuristic
        # bandwidth), so with balanced class weights its gradient at
        # alpha = 0 is near 0, and it grows like an intercept's once g0's
        # fit shifts the mean slope.
        rng = np.random.default_rng(4)
        n = 40
        x0, x1 = rng.exponential(size=n), rng.standard_normal(n)
        y = np.where(x0 + 0.5 * rng.standard_normal(n) > 0.8, 1.0, -1.0)
        data = Dataset(np.column_stack([x0, x1]), y, ("f0", "f1"),
                       tuple(str(i) for i in range(n)))
        part = GroupPartition(((0,), (1,)), ("g0", "g1"))
        gammas = gska.median_heuristic_gamma(data, part).gammas
        spec = kernels.KernelSpec((gammas[0], 0.01 * gammas[1]))
        dense = [np.array(K) for K in gska.gram_blocks(data, part, spec)]
        cw = ClassWeights.inverse_frequency(y)
        top = lambda_max(dense, y, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        cfg = SolverConfig(0.6 * top, 1.0, tol=1e-4, max_iters=5000,
                           class_weights=cw)
        assert list(set_aside(dense, y, part, cfg)) == [False, True]
        block_events.clear()
        alpha, rep = solve(gska.gram_blocks(data, part, spec), y, part, cfg)
        events = list(block_events)
        assert rep.converged and rep.active_groups == (0, 1)
        assert max(kkt_violations(alpha, dense, y, part, cfg)) <= cfg.tol
        assert rel(rep.objective_trace[-1],
                   self.reference(dense, y, part, cfg)) < 1e-9
        # g1 joined W after the first steps: its power iteration came then,
        # and it took products in the steps that followed
        first = events.index("prox")
        assert events[:first].count("norm") == 1
        assert events[first:].count("norm") == 1
        assert len(self.dots(events, 1)) > 3


class TestFullRankBlock:
    def test_takes_a_full_eigenbasis_and_is_not_tried_again(self,
                                                            factor_calls,
                                                            basis_calls):
        # a five-feature group at n = 120 needs a factor of rank above
        # n / 2, so its basis comes from an eigendecomposition, the others'
        # from factors; a solve at a looser lambda reuses them all, one at a
        # tighter lambda rebuilds them all, the same way
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
        assert basis_calls == ["svd", "svd", "eigh"]
        assert np.array_equal(gram[2], full)
        tried = len(factor_calls)
        assert tried == 3
        _, rep = solve(gram, data.labels, part, replace(cfg, lam=cfg.lam * 2))
        assert rep.converged
        assert len(factor_calls) == tried
        assert basis_calls == ["svd", "svd", "eigh"]
        _, rep = solve(gram, data.labels, part, replace(cfg, lam=cfg.lam / 2))
        assert rep.iterations > 50
        assert len(factor_calls) == 2 * tried
        assert basis_calls == ["svd", "svd", "eigh"] * 2


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
    @pytest.mark.parametrize("fit_intercept", [False, True],
                             ids=["plain", "intercept"])
    def test_report_holds_the_exact_kkt_residual(self, low_rank,
                                                 fit_intercept):
        # the residual that decides `converged`, recomputed on the dense
        # blocks at the returned point (the solve ran in the bases)
        data, part, spec, cfg = low_rank
        cfg = replace(cfg, fit_intercept=fit_intercept)
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        alpha, rep = solve(gram, data.labels, part, cfg)
        assert all(in_basis(gram, j) for j in range(part.d))
        y, b = data.labels, rep.intercept
        f = sum(K @ a for K, a in zip(dense, alpha)) + b
        grad_b = np.sum(cfg.class_weights.per_sample(y)
                        * loss_grad(y * f, cfg.loss_params) * y) / data.n
        expect = max(kkt_violations(alpha, dense, y, part, cfg, b))
        if fit_intercept:
            expect = max(expect, abs(grad_b) / (cfg.lam * min(part.weights)))
        assert rep.kkt_residual == pytest.approx(expect, rel=1e-9)
        assert rep.converged == (rep.kkt_residual <= cfg.tol)

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
                                                   factor_calls, monkeypatch):
        # tiles of n / 2 entries per training row (2^17 entries would hold
        # every one of these n = 300 rows), so a tile is under n x n
        data, part, spec, cfg = low_rank
        monkeypatch.setattr(gska.model, "_TILE_ENTRIES", data.n * data.n // 2)
        model = gska.fit(data, part, cfg, spec)
        assert len(factor_calls) == part.d
        peaks = [traced_peak(fn, model)[1] for fn in
                 (_component_matrix, group_contribution, rkhs_contribution)]
        assert max(peaks) < data.n * data.n * 8


class TestLazyBlocks:
    """`gram_blocks` builds no block; each is built when first needed."""

    def test_fresh_container_holds_no_block(self, low_rank, monkeypatch):
        data, part, spec, _ = low_rank
        calls = []
        original = kernels._kernel_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "_kernel_matrix", counted)
        gram, peak = traced_peak(gska.gram_blocks, data, part, spec)
        assert calls == [] and peak < data.n * data.n * 8
        K = gram[1]
        assert len(calls) == 1 and gram[1] is K and not K.flags.writeable
        A = data.samples[:, part.groups[1]]
        assert np.array_equal(
            K, np.exp(-spec.gammas[1] * cdist(A, A, "sqeuclidean")))

    @pytest.mark.parametrize("case", ["cold-0.1", "cold-0.8", "warm",
                                      "intercept"])
    def test_lazy_solve_is_bit_identical_to_eager(self, low_rank, case):
        # eager: every block built before the solve, as gram_blocks did
        data, part, spec, cfg = low_rank
        init = None
        if case == "cold-0.8":
            cfg = replace(cfg, lam=cfg.lam * 8)
        elif case == "warm":
            init, _ = solve(gska.gram_blocks(data, part, spec), data.labels,
                            part, replace(cfg, lam=cfg.lam * 5))
        elif case == "intercept":
            cfg = replace(cfg, fit_intercept=True)
        lazy = gska.gram_blocks(data, part, spec)
        eager = gska.gram_blocks(data, part, spec)
        [eager[j] for j in range(part.d)]
        alpha, rep = solve(lazy, data.labels, part, cfg, init)
        alpha_e, rep_e = solve(eager, data.labels, part, cfg, init)
        assert rep.converged
        assert in_basis(lazy, 0) == (case != "cold-0.8") == in_basis(eager, 0)
        assert np.array_equal(alpha, alpha_e)
        assert rep.objective_trace == rep_e.objective_trace
        assert rep.kkt_residual == rep_e.kkt_residual
        assert rep.intercept == rep_e.intercept

    def test_cold_fit_holds_under_one_block_per_group(self):
        # synth n = 2000 at lam = 0.03, far below lambda_max: the first
        # block's gradient decides for the bases, so the fit never holds
        # all d dense blocks (d n^2 doubles)
        data, part, _ = gska.synth_generate(2000, 1, 0.2)
        model, peak = traced_peak(gska.fit, data, part, SolverConfig(0.03))
        assert model.report.converged
        assert peak < 0.6 * part.d * data.n ** 2 * 8


class TestCurvatureConstants:
    def test_spectral_norm_once_per_block(self, low_rank, rebind):
        data, part, spec, cfg = low_rank
        calls = []
        original = gska.solver.spectral_norm_sq

        def counted(K, *args, **kwargs):
            calls.append(K)
            return original(K, *args, **kwargs)

        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        # warm starts above lambda_max / 3 run dense: lam = 0.35 lambda_max
        # from the solution at twice lam takes more than 50 iterations
        cfg = replace(cfg, lam=cfg.lam * 3.5)
        init, _ = solve(dense, data.labels, part,
                        replace(cfg, lam=cfg.lam * 2))
        rebind(original, counted)
        _, rep = solve(gram, data.labels, part, cfg, init)
        solve(gram, data.labels, part, replace(cfg, lam=cfg.lam * 1.25), init)
        assert len(calls) == part.d
        assert not any(in_basis(gram, j) for j in range(part.d))
        _, rep_d = solve(dense, data.labels, part, cfg, init)
        assert len(calls) == 2 * part.d
        # the cached values are the ones the power iteration gives
        assert rep.iterations > 50
        assert rep.objective_trace == rep_d.objective_trace


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


class TestSolvesInTheBases:
    """A solve far below lambda_max, run in the eigenbases: its objective
    trace never rises, its bases are orthonormal, it settles to tol / 10 as
    a solve on the dense blocks does, and its stacked bases hold less than
    the dense blocks."""

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
            x = rng.standard_normal(len(gram.eigvals(j)))
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
        # one on a plain list of the dense blocks, which never leaves them. The
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


def tall_factor(n, s, seed):
    """An n x len(s) factor with singular values s and random singular
    vectors, transposed (r x n, row-major) as a basis is built from it."""
    rng = np.random.default_rng(seed)
    A, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    B, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    return np.ascontiguousarray(((A * s) @ B.T).T)


def kernel_factor(n, groups, seed):
    """Pivoted Cholesky of a Gaussian block, run to GramBlocks.floor."""
    data, part, spec = instance(n, groups, seed)
    gram = gska.gram_blocks(data, part, spec)
    K = np.array(gram[0])
    return kernels._pivoted_cholesky(lambda p: K[p], n, gram.floor)


class TestBasisFromFactor:
    """The factor's rows give U^T with Lambda = s^2, L L^T = U^T Lambda U."""

    @pytest.mark.parametrize("make", [
        lambda: np.random.default_rng(1).standard_normal((150, 400)),
        # trailing eigenvalues s^2 from 2 floor down to floor / 2
        lambda: tall_factor(400, np.sqrt(np.r_[
            np.geomspace(400.0, 1e-4, 100),
            400 * kernels._FACTOR_EPS * np.linspace(2, 0.5, 20)]), 2),
        lambda: kernel_factor(300, [(0, 1)], 4),
    ], ids=["gaussian", "near_floor", "pivoted_cholesky"])
    def test_orthonormal_rows_and_squared_singular_values(self, make):
        Lt = make()
        L = Lt.T.copy()
        s = np.linalg.svd(L, compute_uv=False)
        Ut, lam = kernels._basis_from_factor(Lt)
        np.testing.assert_array_equal(Lt, L.T)      # the factor is kept
        assert Ut.shape == Lt.shape and lam.shape == s.shape
        np.testing.assert_allclose(Ut @ Ut.T, np.eye(len(s)), rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(lam, s * s, rtol=1e-12, atol=0)
        assert np.linalg.norm(L @ L.T - (Ut.T * lam) @ Ut, 2) \
            <= 1e-12 * s[0] ** 2

    @pytest.mark.parametrize("n,groups,path", [
        (300, LOW_RANK, "svd"), (120, FULL_RANK, "eigh")],
        ids=["svd", "eigh"])
    def test_bases_need_no_scipy_decomposition(self, basis_calls,
                                               monkeypatch, n, groups, path):
        # every basis is built in numpy's LAPACK, the solver's own
        def refuse(*args, **kwargs):
            raise AssertionError("scipy decomposition called")

        for name in ("qr", "svd", "eigh"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        monkeypatch.setattr(scipy.linalg.lapack, "dsyevd", refuse)
        data, part, spec = instance(n, groups)
        cw = ClassWeights.inverse_frequency(data.labels)
        gram = gska.gram_blocks(data, part, spec)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        _, rep = solve(gram, data.labels, part, SolverConfig(
            0.05 * top, 1.0, tol=1e-4, max_iters=5000, class_weights=cw))
        assert rep.iterations > 50 and rep.converged
        assert basis_calls == [path] * part.d


class TestBasisFromGram:
    """A full-rank block's basis: the eigenvectors of K above the budget."""

    @pytest.mark.parametrize("n,seed", [(120, 3), (400, 1)])
    def test_matches_scipy_syevd(self, n, seed):
        data, part, spec = instance(n, FULL_RANK, seed)
        K = np.array(gska.gram_blocks(data, part, spec)[0])
        before = K.copy()
        # the reference: scipy's LAPACK, which the library does not use
        w, U, info = scipy.linalg.lapack.dsyevd(K, compute_v=1, lower=1)
        assert info == 0
        # a budget between two eigenvalues 10% apart, so that the kept
        # subspace is well defined (Davis-Kahan: rounding moves it by about
        # eps ||K|| / gap)
        budget = 1e-3
        keep = w > budget
        assert 0 < keep.sum() < n
        Ut, lam = kernels._basis_from_gram(K, budget)
        np.testing.assert_array_equal(K, before)
        assert Ut.shape == (keep.sum(), n)
        np.testing.assert_allclose(lam, w[keep], rtol=1e-12, atol=0)
        np.testing.assert_allclose(Ut @ Ut.T, np.eye(len(lam)), rtol=0,
                                   atol=1e-13)
        gap = w[keep][0] - w[~keep][-1]
        P, P_ref = Ut.T @ Ut, U[:, keep] @ U[:, keep].T
        assert np.linalg.norm(P - P_ref, 2) <= 1e-12 * w[-1] / gap


class TestStackedProducts:
    """`gradients` and `scores` take one product with all the blocks, or,
    on dense blocks, one per block of a working set; while the bases are
    held, a working set raises."""

    @pytest.mark.parametrize("n,groups,frac", [
        (300, LOW_RANK, 0.1), (120, FULL_RANK, 0.05)], ids=["svd", "eigh"])
    def test_match_products_block_by_block(self, n, groups, frac):
        data, part, spec = instance(n, groups)
        gram = gska.gram_blocks(data, part, spec)
        rng = np.random.default_rng(7)
        s = rng.standard_normal(n)

        def check():
            x = rng.standard_normal(gram.offsets[-1])
            parts = np.split(x, gram.offsets[1:-1])
            if in_basis(gram, 0):
                grads = [gram.eigvals(j) * gram.coords(j, s)
                         for j in range(part.d)]
                score = [gram.expand(j, gram.eigvals(j) * x_j)
                         for j, x_j in enumerate(parts)]
            else:
                grads = [gram.dot(j, s) for j in range(part.d)]
                score = [gram.dot(j, x_j) for j, x_j in enumerate(parts)]
            # all blocks, and on dense blocks working sets: those blocks
            # alone, their coordinates end to end
            sets = (None, [], [part.d - 1], [0, part.d - 1])
            if in_basis(gram, 0):
                for ids in sets[1:]:
                    with pytest.raises(ValueError, match="working set"):
                        gram.gradients(s, ids)
                    with pytest.raises(ValueError, match="working set"):
                        gram.scores(np.empty(0), ids)
                sets = (None,)
            for ids in sets:
                each = range(part.d) if ids is None else ids
                want = np.concatenate([np.empty(0)] + [grads[j] for j in each])
                np.testing.assert_allclose(
                    gram.gradients(s, ids), want, rtol=0,
                    atol=1e-12 * np.abs(grads[0]).max())
                x_ids = np.concatenate([np.empty(0)]
                                       + [parts[j] for j in each])
                want = sum((score[j] for j in each), np.zeros(n))
                np.testing.assert_allclose(
                    gram.scores(x_ids, ids), want, rtol=0,
                    atol=1e-12 * np.abs(sum(score)).max())

        check()
        assert list(gram.offsets) == [j * n for j in range(part.d + 1)]
        cw = ClassWeights.inverse_frequency(data.labels)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        solve(gram, data.labels, part, SolverConfig(
            frac * top, 1.0, tol=1e-4, max_iters=5000, class_weights=cw))
        assert all(in_basis(gram, j) for j in range(part.d))
        assert list(np.diff(gram.offsets)) == [len(gram.eigvals(j))
                                               for j in range(part.d)]
        check()

    def test_no_basis_sits_beside_the_stack(self, basis_calls):
        # a grid fold's n = 400: every block takes a full eigendecomposition
        # (its factor would pass rank n / 2); a copy of a block's basis
        # would add r_j n
        data, part, _ = gska.synth_generate(400, 1, 0.2)
        data, _ = gska.standardize(data)
        spec = gska.median_heuristic_gamma(data, part)
        cfg = SolverConfig(0.01, 0.5, class_weights=ClassWeights
                           .inverse_frequency(data.labels))
        tracemalloc.start()
        try:
            gram = gska.gram_blocks(data, part, spec)
            alpha, rep = solve(gram, data.labels, part, cfg)
            del alpha, rep
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ranks = [len(gram.eigvals(j)) for j in range(part.d)]
        assert basis_calls == ["eigh"] * part.d
        assert all(r < data.n for r in ranks)
        # the stack, and O(n) beside it: eigenvalues, training rows, offsets
        assert held <= (sum(ranks) + 32) * data.n * 8

    def test_bases_are_built_one_block_at_a_time(self, basis_calls):
        # n = 1000, the paper's 3-feature groups, all on the factor path
        # (r_j about n / 3): each factor is freed before the next block's
        # is built, and the stack is made once, from the finished bases, so
        # the peak is the bases held twice while they are stacked (about
        # 2.6 n^2 doubles here)
        data, part, _ = gska.synth_generate(1000, 1, 0.2)
        data, _ = gska.standardize(data)
        gram = gska.gram_blocks(data, part,
                                gska.median_heuristic_gamma(data, part))
        built, peak = traced_peak(gram.to_eigenbasis, 1e-5)
        assert built and basis_calls == ["svd"] * part.d
        assert peak <= 3 * data.n ** 2 * 8


def fixed_tolerance_rank(K, eps=1e-10):
    """Rows a basis of K keeps under a fixed per-entry tolerance: the rank
    of a pivoted-Cholesky factor stopped once every remaining diagonal
    entry of K - L L^T is at most eps, where that rank is below n / 2, else
    the number of eigenvalues above eps."""
    n = len(K)
    resid = np.diag(K).copy()
    Lt = np.empty((0, n))
    while len(Lt) < n // 2:
        p = int(np.argmax(resid))
        if resid[p] <= eps:
            return len(Lt)
        row = (K[p] - Lt[:, p] @ Lt) / np.sqrt(resid[p])
        Lt = np.vstack([Lt, row])
        resid -= row * row
    return int(np.count_nonzero(np.linalg.eigvalsh(K) > eps))


class TestBudget:
    """Every basis is built to an error budget, which the blocks record."""

    @pytest.mark.parametrize("tol", [1e-2, 1e-4])
    @pytest.mark.parametrize("n,groups,frac,path", [
        (300, LOW_RANK, 0.1, "svd"), (120, FULL_RANK, 0.05, "eigh")],
        ids=["svd", "eigh"])
    def test_basis_error_within_budget(self, basis_calls, n, groups, frac,
                                       path, tol):
        data, part, spec = instance(n, groups)
        gram = gska.gram_blocks(data, part, spec)
        dense = [np.array(K) for K in gram]
        cw = ClassWeights.inverse_frequency(data.labels)
        top = lambda_max(gram, data.labels, part,
                         SolverConfig(0.0, 1.0, class_weights=cw))
        budget = basis_budget(n, part, SolverConfig(
            frac * top, 1.0, tol=tol, class_weights=cw))
        assert gram.floor < budget
        assert gram.to_eigenbasis(budget)
        assert gram.budget == budget
        assert basis_calls == [path] * part.d
        for j, K in enumerate(dense):
            lam_j = gram.eigvals(j)
            Ut = gram.expand(j, np.eye(len(lam_j)))
            assert np.linalg.norm(K - (Ut.T * lam_j) @ Ut, 2) <= budget
            assert len(lam_j) <= fixed_tolerance_rank(K)

    def test_shared_budget_and_floor(self, low_rank):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        budget = basis_budget(data.n, part, cfg)
        gram.shared_budget = budget / 4
        assert gram.to_eigenbasis(budget)
        assert gram.budget == budget / 4
        gram.drop_bases()
        assert gram.budget is None
        gram.shared_budget = gram.floor / 10
        assert gram.to_eigenbasis(budget)
        assert gram.budget == gram.floor

    def test_tighter_budget_rebuilds_looser_reuses(self, low_rank,
                                                   factor_calls):
        data, part, spec, cfg = low_rank
        gram = gska.gram_blocks(data, part, spec)
        budgets = {tol: basis_budget(data.n, part, replace(cfg, tol=tol))
                   for tol in (cfg.tol / 2, cfg.tol, cfg.tol * 10)}
        assert gram.floor <= budgets[cfg.tol / 2]
        solve(gram, data.labels, part, cfg)
        assert gram.budget == budgets[cfg.tol]
        _, rep = solve(gram, data.labels, part, replace(cfg, tol=cfg.tol * 10))
        assert rep.converged
        assert gram.budget == budgets[cfg.tol]
        assert len(factor_calls) == part.d
        _, rep = solve(gram, data.labels, part, replace(cfg, tol=cfg.tol / 2))
        assert rep.converged and rep.iterations > 50
        assert gram.budget == budgets[cfg.tol / 2]
        assert len(factor_calls) == 2 * part.d

    def test_grid_search_builds_each_fold_once(self, monkeypatch):
        # warm starts walk lambda down, tightening the budget at each step;
        # the first build on a fold takes the grid's tightest budget instead.
        # A solve at lam = 0 runs dense and drops the bases: the fold runs
        # it after every sigma's path in the bases, and its budget of 0
        # binds no other
        built = []
        original = kernels.GramBlocks.to_eigenbasis

        def counted(self, budget):
            done = original(self, budget)
            if done:
                built.append((self, self.budget))   # held: no id is reused
            return done

        monkeypatch.setattr(kernels.GramBlocks, "to_eigenbasis", counted)
        data, part, _ = gska.synth_generate(300, 1, 0.2)
        for lambdas in ((0.003, 0.01, 0.03), (0.0, 0.003, 0.01, 0.03)):
            grid_search(data, part, lambdas=lambdas, sigmas=(0.5, 1.0), k=3,
                        max_iters=50)
        assert len(built) == 6
        assert len({id(g) for g, _ in built}) == 6
        budgets = [b for _, b in built]
        assert budgets[:3] == budgets[3:]
        assert min(budgets) > 10 * data.n * kernels._FACTOR_EPS

    def test_solve_path_order_warm_starts_and_one_build(self, monkeypatch,
                                                        rebind):
        # configs given in no order: the path runs sigma ascending, lam
        # descending, with the solves under the floor (lam = 0) last; each
        # solve starts from its sigma's last alpha, and the first basis build
        # takes the tightest budget at or above the floor
        data, part, _ = gska.synth_generate(300, 1, 0.2)
        fold = model._prepare_fold(data, part)
        cfgs = [SolverConfig(lam, s, max_iters=50,
                             class_weights=fold.class_weights)
                for s in (1.0, 0.5) for lam in (0.01, 0.0, 0.03, 0.003)]
        calls, builds = [], []
        original_solve = solver.solve
        original_build = kernels.GramBlocks.to_eigenbasis

        def recording(gram, labels, partition, cfg, init=None):
            alpha, report = original_solve(gram, labels, partition, cfg, init)
            calls.append((gram, cfg, init, alpha))
            return alpha, report

        def counted(self, budget):
            done = original_build(self, budget)
            if done:
                builds.append(self.budget)
            return done

        rebind(original_solve, recording)
        monkeypatch.setattr(kernels.GramBlocks, "to_eigenbasis", counted)
        path = list(solver.solve_path(fold.gram, fold.train.labels, part,
                                      cfgs))
        assert [(cfg.sigma, cfg.lam) for cfg, _, _ in path] == [
            (0.5, 0.03), (0.5, 0.01), (0.5, 0.003),
            (1.0, 0.03), (1.0, 0.01), (1.0, 0.003), (0.5, 0.0), (1.0, 0.0)]
        assert [c[1] for c in calls] == [cfg for cfg, _, _ in path]
        assert [c[3] for c in calls] == [alpha for _, alpha, _ in path]
        assert all(gram is fold.gram for gram, _, _, _ in calls)
        last = {}
        for _, cfg, init, alpha in calls:
            assert init is last.get(cfg.sigma)
            last[cfg.sigma] = alpha
        budgets = [basis_budget(fold.train.n, part, cfg) for cfg in cfgs]
        tightest = min(b for b in budgets if b >= fold.gram.floor)
        assert tightest == min(b for b in budgets if b > 0)
        assert fold.gram.shared_budget == tightest
        assert builds == [tightest]


@pytest.fixture(scope="module")
def basis_data(tmp_path_factory):
    # n = 200: the paper's 3-feature groups have rank above n / 2 (eigh);
    # twelve 1-feature groups have rank far below it (SVD of the factor)
    out = tmp_path_factory.mktemp("bases")
    assert run(["synth", "--n", "200", "--seed", "5", "--noise", "0.2",
                "--out", str(out)]) == 0
    singles = [{"name": f"s{i}", "features": [f"f{i}"], "weight": 1.0}
               for i in range(1, 13)]
    (out / "singles.json").write_text(json.dumps({"groups": singles}))
    return out


class TestBasisReruns:
    @pytest.mark.parametrize("groups,path", [("groups.json", "eigh"),
                                             ("singles.json", "svd")],
                             ids=["eigh", "svd"])
    def test_fit_and_grid_byte_identical(self, basis_data, tmp_path,
                                         basis_calls, groups, path):
        data = ["--data", str(basis_data / "features.csv"),
                "--groups", str(basis_data / groups)]
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
