"""Tests of the benchmark's quality measures and layer tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import gska
from gska import cli, solver
from gska.coherence import ClassWeights

from layertrace import Tracer
from quality import SolveRecord, dense_gram, evaluate, kkt_residual
from workloads import LAM_FIT, NOISE, SIGMA, Fit


@pytest.fixture(scope="module")
def problem():
    data, partition, _ = gska.synth_generate(200, 3, NOISE)
    std, _ = gska.standardize(data)
    kernel = gska.median_heuristic_gamma(std, partition)
    gram = dense_gram(std, partition, kernel)
    cw = ClassWeights.inverse_frequency(std.labels)
    top = solver.lambda_max(gram, std.labels, partition,
                            solver.SolverConfig(0.0, SIGMA, class_weights=cw))
    return std, partition, gram, cw, top


@pytest.mark.parametrize("scale", [1.0, 1.5, 10.0])
def test_kkt_zero_at_zero_when_lam_at_least_lambda_max(problem, scale):
    std, partition, gram, cw, top = problem
    cfg = solver.SolverConfig(scale * top, SIGMA, class_weights=cw)
    zero = np.zeros((partition.d, std.n))
    assert kkt_residual(zero, gram, std.labels, partition, cfg) == 0.0


def test_kkt_positive_at_zero_below_lambda_max(problem):
    std, partition, gram, cw, top = problem
    cfg = solver.SolverConfig(0.5 * top, SIGMA, class_weights=cw)
    zero = np.zeros((partition.d, std.n))
    # the strongest group violates ||g_j|| <= lam w_j by a factor of 2
    assert kkt_residual(zero, gram, std.labels, partition, cfg) == \
        pytest.approx(1.0, rel=1e-9)


def test_kkt_positive_for_fit_n2000_baseline():
    data, partition, _ = gska.synth_generate(Fit.n, 1, NOISE)
    model = gska.fit(data, partition, solver.SolverConfig(LAM_FIT, SIGMA))
    q = evaluate([SolveRecord.from_model(model)])
    assert q["kkt_residual"] > 0
    assert q["objective"] == pytest.approx(model.report.objective_trace[-1],
                                           rel=1e-12)


def test_tracer_spans_cover_fit_and_restore(tmp_path):
    assert cli.run(["synth", "--n", "60", "--seed", "2", "--out",
                    str(tmp_path)]) == 0
    original = gska.solver.group_update
    tracer = Tracer("test").install()
    try:
        assert cli.run(["fit", "--data", str(tmp_path / "features.csv"),
                        "--groups", str(tmp_path / "groups.json"),
                        "--lambda", "0.05", "--out",
                        str(tmp_path / "model.json")]) == 0
    finally:
        tracer.restore()
    assert gska.solver.group_update is original
    assert gska.model.gram_blocks is gska.kernels.gram_blocks

    top = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in top] == ["cli.cmd_fit"]
    wall = top[0][4] - top[0][3]
    m = tracer.metrics(wall, wall)
    assert m["cli.cmd_fit.calls"][0] == 1
    assert m["model.fit.calls"][0] == 1
    assert m["solver.solve.calls"][0] == 1
    sweeps = m["solver.sweeps"][0]
    assert m["solver.group_update.calls"][0] == 4 * sweeps
    assert m["kernels.gram_entries"][0] == 4 * 60 * 60
    # self times partition the root span
    self_total = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(wall, rel=1e-9)
    assert 0 < m["solver.useful_update_ratio"][0] <= 1
