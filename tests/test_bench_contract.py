"""The benchmark's tracer still fits the package it wraps.

perfbench/layertrace.py wraps package functions by qualified name and, for
the quality capture, by their full signature: grid quality looks up the Gram
that `gram_blocks` returned by its id inside `solve`, and CV quality wraps
`model.fit` once per fold. Its quality step calls `solver.objective`,
`group_gradient` and `lambda_max` by position. The tracer file is parsed,
not imported, so these checks need nothing from the benchmark.

perfbench/workloads.py is parsed the same way for the workloads' lambdas and
sizes: the benchmark keeps one solve on each side of the solver's rule that
starts a cold solve far below lambda_max in the Gram eigenbases, and the cv
workload's dense fold solves are ones whose working set the strong rule
trims.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import gska
from gska import interpret, kernels, model, solver
from gska.data import stratified_kfold
from gska.evaluation import cross_validate, grid_search

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
WORKLOADS = PERFBENCH / "workloads.py"
REQUIRED = "<required>"


@pytest.fixture(scope="module")
def tree():
    return ast.parse(LAYERTRACE.read_text(encoding="utf-8"))


def _traced(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in layertrace.py")


def _wrapper_params(tree, name):
    """(name, default) of every parameter of Capture's `name`, in order,
    keyword-only ones included, and their kinds."""
    capture = next(n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == "Capture")
    fn = next(n for n in ast.walk(capture)
              if isinstance(n, ast.FunctionDef) and n.name == name)
    a, P = fn.args, inspect.Parameter
    positional = a.posonlyargs + a.args
    defaults = [REQUIRED] * (len(positional) - len(a.defaults)) + [
        ast.literal_eval(d) for d in a.defaults]
    kinds = ([P.POSITIONAL_ONLY] * len(a.posonlyargs)
             + [P.POSITIONAL_OR_KEYWORD] * len(a.args))
    params = [(p.arg, d) for p, d in zip(positional, defaults)]
    if a.vararg:
        params.append((a.vararg.arg, REQUIRED))
        kinds.append(P.VAR_POSITIONAL)
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        params.append((p.arg, REQUIRED if d is None else ast.literal_eval(d)))
        kinds.append(P.KEYWORD_ONLY)
    if a.kwarg:
        params.append((a.kwarg.arg, REQUIRED))
        kinds.append(P.VAR_KEYWORD)
    return params, kinds


def _package_params(fn):
    """The same for a package function."""
    params = inspect.signature(fn).parameters.values()
    return ([(p.name, REQUIRED if p.default is p.empty else p.default)
             for p in params], [p.kind for p in params])


def test_every_traced_name_resolves(tree):
    traced = _traced(tree)
    assert traced
    for qualname in traced:
        module, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"gska.{module}"), attr, None)
        assert callable(fn), f"gska.{qualname} no longer exists"


@pytest.mark.parametrize("qualname,expect", [
    ("solver.solve", [("gram", REQUIRED), ("labels", REQUIRED),
                      ("partition", REQUIRED), ("cfg", REQUIRED),
                      ("init", None)]),
    ("kernels.gram_blocks", [("train", REQUIRED), ("partition", REQUIRED),
                             ("spec", REQUIRED)]),
])
def test_captured_signatures_unchanged(tree, qualname, expect):
    module, attr = qualname.split(".")
    fn = getattr(importlib.import_module(f"gska.{module}"), attr)
    wrapper, wrapper_kinds = _wrapper_params(tree, attr)
    package, package_kinds = _package_params(fn)
    assert wrapper == expect
    assert package == expect
    assert package_kinds == wrapper_kinds


@pytest.mark.parametrize("qualname,expect", [
    ("solver.objective", [("alpha", REQUIRED), ("gram", REQUIRED),
                          ("labels", REQUIRED), ("partition", REQUIRED),
                          ("cfg", REQUIRED), ("intercept", 0.0)]),
    ("solver.group_gradient", [("alpha", REQUIRED), ("gram", REQUIRED),
                               ("labels", REQUIRED), ("partition", REQUIRED),
                               ("cfg", REQUIRED), ("j", REQUIRED),
                               ("intercept", 0.0)]),
    ("solver.lambda_max", [("gram", REQUIRED), ("labels", REQUIRED),
                           ("partition", REQUIRED), ("cfg", REQUIRED)]),
])
def test_positional_quality_signatures_unchanged(qualname, expect):
    # the benchmark's quality step and workload checks call these
    # positionally, with a plain list of dense Gram arrays
    module, attr = qualname.split(".")
    fn = getattr(importlib.import_module(f"gska.{module}"), attr)
    params, kinds = _package_params(fn)
    assert params == expect
    assert kinds == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(expect)


def _package_users(name):
    """module.top-level-name of every package definition that names `name`."""
    users = set()
    for path in sorted(Path(gska.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute)
                        and node.attr == name):
                    users.add(f"{path.stem}.{getattr(top, 'name', '')}")
    return users


def test_gram_blocks_is_used_only_by_prepare_fold():
    # the tracer's Gram build counts must come from the prepared-fold path
    assert _package_users("gram_blocks") == {"model._prepare_fold"}


def test_median_heuristic_gamma_is_used_only_by_prepare_fold():
    # the tracer's kernels.median_heuristic_gamma.* metrics must count every
    # bandwidth computation, on the prepared-fold path
    assert _package_users("median_heuristic_gamma") == {"model._prepare_fold"}


@pytest.fixture(scope="module")
def synth():
    data, part, _ = gska.synth_generate(60, 5, 0.2)
    return data, part


def test_cross_validate_fits_once_per_fold(synth, rebind):
    data, part = synth
    fits = []
    original = model.fit

    def counted(*args, **kwargs):
        fits.append(args)
        return original(*args, **kwargs)

    rebind(original, counted)
    cross_validate(data, part, solver.SolverConfig(0.05), k=3, seed=0)
    assert len(fits) == 3


def test_grid_solves_receive_a_gram_blocks_list(synth, rebind):
    data, part = synth
    built, received = [], []
    gram_blocks, solve = kernels.gram_blocks, solver.solve

    def recording_gram_blocks(*args, **kwargs):
        built.append(gram_blocks(*args, **kwargs))
        return built[-1]

    def recording_solve(gram, *args, **kwargs):
        received.append(gram)
        return solve(gram, *args, **kwargs)

    rebind(gram_blocks, recording_gram_blocks)
    rebind(solve, recording_solve)
    grid_search(data, part, lambdas=[0.02, 0.1], sigmas=[0.5, 1.0], k=2,
                seed=0)
    assert len(built) == 2 and len(received) == 2 * 2 * 2
    by_id = {id(g) for g in built}
    assert all(id(g) in by_id for g in received)


@pytest.mark.parametrize("score", [
    model.decision_function,
    lambda fitted, query: interpret.component_values(fitted, query, 1),
], ids=["decision_function", "component_values"])
def test_scoring_counts_every_query_row_one_tile_at_a_time(synth, rebind,
                                                           score):
    # the tracer counts cross-Gram entries at `cross_gram`, so all of
    # scoring's kernel work must pass through it
    data, part = synth
    fitted = model.fit(data, part, solver.SolverConfig(0.01))
    assert np.any(fitted.alpha[1])
    # three tiles, the last one part full
    tile = model._tile_rows(fitted.train.n)
    query = gska.synth_generate(2 * tile + 37, 9, 0.2)[0]
    rows = []
    cross_gram = kernels.cross_gram

    def recording(train, query, *args, **kwargs):
        rows.append(query.n)
        return cross_gram(train, query, *args, **kwargs)

    rebind(cross_gram, recording)
    score(fitted, query)
    assert rows == [tile, tile, 37]


@pytest.fixture(scope="module")
def workloads():
    """workloads.py's literal module constants, and each workload's n by
    its name."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    constants, sizes = {}, {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0],
                                                       ast.Name):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
        elif isinstance(node, ast.ClassDef):
            attrs = {t.id: stmt.value for stmt in node.body
                     if isinstance(stmt, ast.Assign)
                     for t in stmt.targets if isinstance(t, ast.Name)}
            if "name" in attrs and "n" in attrs:
                sizes[ast.literal_eval(attrs["name"])] = ast.literal_eval(
                    attrs["n"])
    return constants, sizes


def _lambda_max(data, partition, sigma):
    # as a CLI fit prepares its training set: standardized, median-heuristic
    # bandwidths, inverse-frequency class weights
    fold = model._prepare_fold(data, partition)
    return solver.lambda_max(fold.gram, fold.train.labels, partition,
                             solver.SolverConfig(
                                 0.0, sigma, class_weights=fold.class_weights))


@pytest.mark.parametrize("seed", [1, 104729])
def test_workloads_sit_on_each_side_of_the_bases_first_rule(workloads,
                                                            seed):
    # fit_n2000's solve starts in the bases; cv_sparse_n3000's fold solves
    # run dense (the first fold stands for the five). The inputs are those
    # `gska synth` writes, whose repr floats read back exactly.
    constants, sizes = workloads
    noise, sigma = constants["NOISE"], constants["SIGMA"]
    data, part, _ = gska.synth_generate(sizes["fit_n2000"], seed, noise)
    assert (constants["LAM_FIT"] * solver._BASES_FIRST
            <= _lambda_max(data, part, sigma))
    data, part, _ = gska.synth_generate(sizes["cv_sparse_n3000"], seed, noise)
    held_out = stratified_kfold(data.labels, constants["FOLDS"], seed) == 0
    assert (constants["LAM_SPARSE"] * solver._BASES_FIRST
            > _lambda_max(data.subset(~held_out), part, sigma))


def _start_ratios(data, partition, sigma, groups):
    """||g_j|| / w_j at alpha = 0 for each group j in `groups`, as a CLI
    fit's cold solve reads them; only those blocks are built."""
    fold = model._prepare_fold(data, partition)
    cfg = solver.SolverConfig(0.0, sigma, class_weights=fold.class_weights)
    zero = np.zeros((partition.d, fold.train.n))
    return np.array([np.linalg.norm(solver.group_gradient(
        zero, fold.gram, fold.train.labels, partition, cfg, j))
        / partition.weights[j] for j in groups])


@pytest.mark.parametrize("seed", [1, 104729])
def test_strong_rule_runs_on_every_cv_fold_and_never_on_the_fit(workloads,
                                                                 seed):
    # every cv_sparse_n3000 fold solve sets aside at least one group (its
    # ||g_j|| / w_j at alpha = 0 below 2 lam - lambda_max), so its dense
    # iterations skip that block; fit_n2000's first block alone decides for
    # the bases (lam <= its ||g_0|| / w_0 / 3), so its cold start takes no
    # other block's gradient and the rule never runs there
    constants, sizes = workloads
    noise, sigma = constants["NOISE"], constants["SIGMA"]
    data, part, _ = gska.synth_generate(sizes["fit_n2000"], seed, noise)
    first = _start_ratios(data, part, sigma, [0])[0]
    assert constants["LAM_FIT"] * solver._BASES_FIRST <= first
    data, part, _ = gska.synth_generate(sizes["cv_sparse_n3000"], seed, noise)
    folds = stratified_kfold(data.labels, constants["FOLDS"], seed)
    lam = constants["LAM_SPARSE"]
    for k in range(constants["FOLDS"]):
        ratio = _start_ratios(data.subset(folds != k), part, sigma,
                              range(part.d))
        assert np.any(ratio < 2 * lam - ratio.max()), k
