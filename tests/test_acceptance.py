"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N (<name>): PASS/FAIL" line so the
suite output doubles as a checklist. Expected values are tagged at the
assertion site: [TRIVIAL] for identities that need no oracle, [DERIVED]
for values recomputed here by an independent naive route.
"""

import json

import numpy as np
import pytest

import gska
from gska.cli import run
from gska.coherence import ClassWeights, CoherenceParams, loss, loss_grad
from gska.data import Dataset, GroupPartition
from gska.selection import ENConfig, en_lambda_max, en_logistic_path
from gska.solver import SolverConfig, group_gradient, lambda_max, solve

from oracles import (brute_force_auroc, gd_smooth_risk, naive_pearson,
                     ridge_logistic_gd, t_sf_high_precision)


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_loss_correctness():
    ok = True
    # [TRIVIAL] normalization pins loss(0) to 1 by construction
    for sigma in (0.1, 0.5, 1.0, 2.0):
        ok &= loss(0.0, CoherenceParams(sigma)) == 1.0
    # [DERIVED] loss(1, 1) = softplus(0)/softplus(1) = log 2 / log(1 + e)
    expect = np.log(2.0) / np.log1p(np.e)
    ok &= abs(loss(1.0, CoherenceParams(1.0)) - expect) < 1e-12
    h = 1e-6
    grid = np.linspace(-3.0, 3.0, 15)
    for sigma in (0.3, 1.0, 2.0):
        params = CoherenceParams(sigma)
        fd = (loss(grid + h, params) - loss(grid - h, params)) / (2 * h)
        ok &= bool(np.max(np.abs(loss_grad(grid, params) - fd)) < 1e-6)
    report(1, "loss correctness", ok)


def make_instance(n, groups, seed, lam_frac=None):
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
    return gram, y, part


def test_criterion_2_solver_soundness():
    ok = True
    groups = [(0,), (1, 2), (3, 4), (5,)]     # d = 4
    for seed in range(10):
        gram, y, part = make_instance(60, groups, 100 + seed)
        cfg0 = SolverConfig(0.0, 1.0)
        lmax = lambda_max(gram, y, part, cfg0)
        cfg = SolverConfig(0.3 * lmax, 1.0, tol=1e-9, max_iters=50000)
        alpha, rep = solve(gram, y, part, cfg)
        trace = np.array(rep.objective_trace)
        ok &= bool(np.all(np.diff(trace) <= 1e-10))
        for j in range(part.d):
            g = group_gradient(alpha, gram, y, part, cfg, j)
            tw = cfg.lam * part.weights[j]
            nj = np.linalg.norm(alpha[j])
            if nj == 0:
                ok &= bool(np.linalg.norm(g) <= tw + 1e-4)
            else:
                ok &= bool(np.linalg.norm(g + tw * alpha[j] / nj) <= 1e-4)
        a0, rep0 = solve(gram, y, part, SolverConfig(1.001 * lmax, 1.0))
        ok &= bool(np.all(a0 == 0.0))
        _, rep_half = solve(gram, y, part, SolverConfig(0.5 * lmax, 1.0))
        ok &= len(rep_half.active_groups) >= 1
    report(2, "solver soundness", ok)


def test_criterion_3_oracle_equivalence():
    # duplicated points with conflicting labels keep the lam = 0 minimum
    # finite (a separable Gaussian-kernel problem has none)
    rng = np.random.default_rng(110)
    X = rng.standard_normal((10, 1))
    X = np.vstack([X, X])
    y = np.concatenate([np.ones(10), -np.ones(10)])
    flip = rng.random(10) > 0.4
    y[:10][flip] = -1
    y[10:][flip] = 1
    data = Dataset(X, y, ("a",), tuple(str(i) for i in range(20)))
    part = GroupPartition(((0,),), ("g",))
    gram = gska.gram_blocks(data, part, gska.KernelSpec((0.8,)))
    # at lam = 0, tol bounds the block gradient's norm over w_j
    _, rep = solve(gram, y, part,
                   SolverConfig(0.0, 1.0, max_iters=300000, tol=1e-13))
    # [DERIVED] plain fixed-step gradient descent on the same objective
    _, oracle_obj = gd_smooth_risk(gram, y, 1.0, 1.0, 1.0, tol=1e-10)
    ok = rep.converged and abs(rep.objective_trace[-1] - oracle_obj) < 1e-6
    report(3, "oracle equivalence", ok)


def test_criterion_4_additivity_invariant():
    data, part, _ = gska.synth_generate(150, 120, 0.1)
    model = gska.fit(data, part, SolverConfig(0.01))
    query, _, _ = gska.synth_generate(100, 121, 0.1)
    total = sum(gska.component_values(model, query, j)
                for j in range(part.d))
    dev = np.max(np.abs(total - gska.decision_function(model, query)))
    report(4, "additivity invariant", bool(dev < 1e-10))


def test_criterion_5_synthetic_recovery():
    aurocs = []
    ordered = 0
    for seed in (1, 2, 3, 4, 5):
        data, part, truth = gska.synth_generate(500, seed, 0.2)
        grid = gska.grid_search(data, part, lambdas=[0.03, 0.05],
                                sigmas=[1.0], k=5, seed=seed)
        cv = gska.cross_validate(
            data, part, SolverConfig(grid.best_lambda, grid.best_sigma),
            5, seed)
        aurocs.append(cv.mean.auroc)
        mean_imp = cv.per_fold_group_importance.mean(axis=0)
        noise = [j for j in range(part.d) if j not in truth]
        if min(mean_imp[list(truth)]) > max(mean_imp[noise]):
            ordered += 1
    ok = (float(np.mean(aurocs)) > 0.85) and ordered >= 4
    report(5, "synthetic recovery", ok)


def test_criterion_6_class_ratio_fidelity():
    y = np.concatenate([np.ones(60), -np.ones(440)])
    assign = gska.stratified_kfold(y, 5, 0)
    ok = all(int(np.sum(y[assign == f] > 0)) == 12 for f in range(5))
    report(6, "class-ratio fidelity", ok)


def test_criterion_7_metric_oracles():
    ok = True
    rng = np.random.default_rng(130)
    for _ in range(200):
        n = rng.integers(4, 31)
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        s = np.round(rng.standard_normal(n), 1)
        # [DERIVED] brute-force pairwise counting
        ok &= gska.auroc(s, y) == brute_force_auroc(s, y)
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((12, 4))
    # [DERIVED] two-pass covariance loops
    ok &= bool(np.max(np.abs(gska.pearson_matrix(a, b)
                             - naive_pearson(a, b))) < 1e-12)
    d = np.array([0.02, 0.01, 0.03, 0.00, 0.04])
    t, p = gska.paired_ttest(d, np.zeros(5))
    ok &= abs(p - 0.0474) < 5e-4
    # [DERIVED] 50-digit incomplete-beta t CDF
    ok &= abs(p - 2 * t_sf_high_precision(t, 4)) < 1e-8
    report(7, "metric oracles", ok)


def test_criterion_8_elastic_net_boundary():
    rng = np.random.default_rng(140)
    X = rng.standard_normal((40, 6))
    y = np.where(X[:, 0] + rng.logistic(size=40) > 0, 1.0, -1.0)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    data = Dataset(X, y, tuple(f"f{i}" for i in range(6)),
                   tuple(str(i) for i in range(40)))
    lmax = en_lambda_max(X, y, 0.5)
    _, coefs, _ = en_logistic_path(
        data, ENConfig(0.5, (2.0 * lmax, 1.0001 * lmax)))
    ok = bool(np.max(np.abs(coefs)) < 1e-8)
    X2 = rng.standard_normal((10, 5))
    y2 = np.where(rng.random(10) > 0.5, 1.0, -1.0)
    if np.all(y2 == y2[0]):
        y2[0] = -y2[0]
    X2 = (X2 - X2.mean(axis=0)) / X2.std(axis=0)
    data2 = Dataset(X2, y2, tuple(f"f{i}" for i in range(5)),
                    tuple(str(i) for i in range(10)))
    _, coefs2, ints2 = en_logistic_path(
        data2, ENConfig(0.0, (0.3,), kkt_tol=1e-10))
    # [DERIVED] plain gradient descent on the ridge logistic objective
    beta_o, b_o = ridge_logistic_gd(X2, y2, 0.3)
    ok &= bool(np.max(np.abs(coefs2[0] - beta_o)) < 1e-5)
    ok &= abs(ints2[0] - b_o) < 1e-5
    report(8, "elastic-net boundary", ok)


def test_criterion_9_determinism_roundtrip(tmp_path):
    ok = True
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        ok &= run(["synth", "--n", "80", "--seed", "9", "--noise", "0.1",
                   "--out", str(d)]) == 0
        ok &= run(["fit", "--data", str(d / "features.csv"),
                   "--groups", str(d / "groups.json"),
                   "--lambda", "0.05", "--out", str(d / "model.json")]) == 0
        ok &= run(["cv", "--data", str(d / "features.csv"),
                   "--groups", str(d / "groups.json"),
                   "--lambda", "0.05", "--folds", "4", "--seed", "2",
                   "--out", str(d / "cv.json")]) == 0
    for name in ("features.csv", "groups.json", "model.json", "cv.json"):
        ok &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
    data, part, _ = gska.synth_generate(80, 9, 0.1)
    model = gska.fit(data, part, SolverConfig(0.05))
    gska.save(model, d1 / "direct.json")
    loaded = gska.load(d1 / "direct.json")
    # [TRIVIAL] repr round-trip must preserve scores bit for bit
    ok &= bool(np.array_equal(gska.decision_function(loaded, data),
                              gska.decision_function(model, data)))
    report(9, "determinism and roundtrip", ok)


def test_criterion_10_hinge_limit():
    u = np.linspace(-3.0, 3.0, 601)
    hinge = np.maximum(0.0, 1.0 - u)
    dev = np.max(np.abs(loss(u, CoherenceParams(0.01)) - hinge))
    report(10, "hinge limit", bool(dev < 0.01))
