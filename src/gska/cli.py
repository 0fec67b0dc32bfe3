"""Command-line pipeline: synth, select, fit, predict, cv, grid, correlate,
interpret.

Every subcommand prints a one-line JSON summary to stdout and writes its
artifacts under the requested output location. Outputs are canonical: no
timestamps, all randomness flows from --seed, so identical invocations are
byte-identical. Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import (data as data_mod, evaluation, interpret as interpret_mod,
               model as model_mod, selection)
from .data import DataError, FileError
from .kernels import KernelSpec
from .solver import SolverConfig

_DEFAULTS = SolverConfig(lam=0.0)


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _summary(doc):
    print(json.dumps(doc, sort_keys=True))


def _load_data_and_groups(args):
    data = data_mod.load_csv(args.data, args.label)
    partition = data_mod.load_groups_json(args.groups, data.feature_names)
    if args.weights_mode == "sqrt-size":
        partition = partition.sqrt_size_weights()
    return data, partition


def _load_model_data(args, fitted):
    """--data with its columns in the model's order; errors name the file."""
    data = data_mod.load_csv(args.data, args.label)
    try:
        return model_mod._model_columns(fitted, data)
    except DataError as e:
        raise DataError(f"{args.data}: {e}") from e


def _solver_config(args) -> SolverConfig:
    return SolverConfig(lam=args.lam, sigma=args.sigma,
                        max_iters=args.max_iters, tol=args.tol,
                        fit_intercept=args.intercept)


def _positive(convert):
    """An argparse type: a finite, positive value of type `convert`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(
                f"must be a positive {convert.__name__}, got {text!r}")
        return value
    return parse


def _kernel(args, d: int) -> KernelSpec | None:
    return None if args.gamma is None else KernelSpec.shared(args.gamma, d)


def cmd_synth(args):
    data, partition, truth = data_mod.synth_generate(args.n, args.seed,
                                                     args.noise)
    os.makedirs(args.out, exist_ok=True)
    data_mod.write_csv(data, os.path.join(args.out, "features.csv"))
    data_mod.dump_groups_json(partition, data.feature_names,
                              os.path.join(args.out, "groups.json"))
    _write_json({"active_groups": [partition.group_names[j] for j in truth],
                 "seed": args.seed, "noise": args.noise},
                os.path.join(args.out, "truth.json"))
    _summary({"command": "synth", "n": data.n, "p": data.p, "seed": args.seed,
              "out": args.out})


def cmd_select(args):
    data = data_mod.load_csv(args.data, args.label)
    cfg = selection.ENConfig(alpha_mix=args.mix, k=args.top_k,
                             folds=args.folds)
    result = selection.select_top_k(data, cfg, args.seed)
    doc = {"selected": list(result.selected),
           "chosen_lambda": result.chosen_lambda,
           "fold_scores": result.fold_scores.tolist(),
           "lambda_grid": list(result.lambda_grid),
           "padded": result.padded,
           "seed": args.seed}
    _write_json(doc, args.out)
    _summary({"command": "select", "selected": list(result.selected),
              "chosen_lambda": result.chosen_lambda, "out": args.out})


def cmd_fit(args):
    data, partition = _load_data_and_groups(args)
    fitted = model_mod.fit(data, partition, _solver_config(args),
                           _kernel(args, partition.d))
    model_mod.save(fitted, args.out)
    active = [partition.group_names[j] for j in fitted.report.active_groups]
    _summary({"command": "fit", "active_groups": active,
              "converged": fitted.report.converged,
              "iterations": fitted.report.iterations,
              "objective": fitted.report.objective_trace[-1],
              "kkt_residual": fitted.report.kkt_residual,
              "out": args.out})


def cmd_predict(args):
    fitted = model_mod.load(args.model)
    query = _load_model_data(args, fitted)
    scores = model_mod.decision_function(fitted, query)
    preds = np.where(scores > 0, 1, -1)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([data_mod.SAMPLE_ID_COLUMN, "score", "prediction"])
        writer.writerows(zip(query.sample_ids, map(repr, scores.tolist()),
                             preds.tolist()))
    acc, f1 = evaluation.accuracy_f1(np.asarray(preds, dtype=float),
                                     query.labels)
    _summary({"command": "predict", "n": query.n, "accuracy": acc, "f1": f1,
              "out": args.out})


def _metricset_doc(m):
    return {"auroc": m.auroc, "accuracy": m.accuracy, "f1": m.f1}


def cmd_cv(args):
    data, partition = _load_data_and_groups(args)
    report = evaluation.cross_validate(data, partition, _solver_config(args),
                                       args.folds, args.seed,
                                       _kernel(args, partition.d))
    doc = {"per_fold": [_metricset_doc(m) for m in report.per_fold],
           "mean": _metricset_doc(report.mean),
           "sd": _metricset_doc(report.sd),
           "fold_assignments": report.fold_assignments.tolist(),
           "group_names": list(report.group_names),
           "per_fold_group_importance":
               report.per_fold_group_importance.tolist(),
           "seed": args.seed, "lambda": args.lam, "sigma": args.sigma}
    _write_json(doc, args.out)
    _summary({"command": "cv", "mean": _metricset_doc(report.mean),
              "sd": _metricset_doc(report.sd), "out": args.out})


def cmd_grid(args):
    data, partition = _load_data_and_groups(args)
    lambdas = args.lambdas
    sigmas = args.sigmas or list(evaluation.DEFAULT_SIGMAS)
    result = evaluation.grid_search(data, partition, lambdas, sigmas,
                                    args.folds, args.seed,
                                    _kernel(args, partition.d),
                                    tol=args.tol, max_iters=args.max_iters)
    doc = {"points": [{"lambda": lam, "sigma": s, "auroc": a,
                       "unconverged": u}
                      for (lam, s, a), u in zip(result.points,
                                                result.unconverged)],
           "best": {"lambda": result.best_lambda, "sigma": result.best_sigma,
                    "auroc": result.best_auroc},
           "seed": args.seed}
    _write_json(doc, args.out)
    _summary({"command": "grid", "best": doc["best"], "out": args.out})


def cmd_correlate(args):
    feats = data_mod.load_csv(args.data, args.label)
    chars = data_mod.load_csv(args.chars, args.chars_label)
    if feats.n != chars.n:
        raise DataError("feature and characteristic files must have the "
                        "same number of rows")
    r = evaluation.pearson_matrix(feats.samples, chars.samples)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(chars.feature_names))
        for i, fname in enumerate(feats.feature_names):
            writer.writerow([fname] + ["" if np.isnan(v) else repr(float(v))
                                       for v in r[i]])
    long_path = os.path.splitext(args.out)[0] + "_long.csv"
    with open(long_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "characteristic", "r"])
        for i, fname in enumerate(feats.feature_names):
            for j, cname in enumerate(chars.feature_names):
                v = "" if np.isnan(r[i, j]) else repr(float(r[i, j]))
                writer.writerow([fname, cname, v])
    _summary({"command": "correlate", "shape": list(r.shape),
              "out": args.out, "long": long_path})


def cmd_interpret(args):
    fitted = model_mod.load(args.model)
    train = _load_model_data(args, fitted)
    written = interpret_mod.export_interpretation(fitted, train, args.out,
                                                  args.grid_size,
                                                  args.scatter)
    _summary({"command": "interpret", "files": len(written),
              "out": args.out})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gska",
        description="Group-sparse kernel additive classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, groups=True):
        p.add_argument("--data", required=True, help="feature CSV")
        p.add_argument("--label", default="label", help="label column name")
        if groups:
            p.add_argument("--groups", required=True,
                           help="group configuration JSON")
            p.add_argument("--weights-mode", choices=("config", "sqrt-size"),
                           default="config", dest="weights_mode")

    def controls(p):
        p.add_argument("--tol", type=_positive(float), default=_DEFAULTS.tol,
                       help="KKT tolerance, a multiple of lambda w_j")
        p.add_argument("--max-iters", type=_positive(int),
                       default=_DEFAULTS.max_iters, dest="max_iters",
                       help="iteration cap of each solve")

    def hyper(p):
        p.add_argument("--lambda", type=float, default=0.001, dest="lam")
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--gamma", type=_positive(float), default=None,
                       help="shared kernel bandwidth override")
        p.add_argument("--intercept", action="store_true")
        controls(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select", help="elastic-net top-k feature selection")
    common(p, groups=False)
    p.add_argument("--top-k", type=int, default=10, dest="top_k")
    p.add_argument("--mix", type=float, default=0.5, help="L1 share")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="selection report JSON")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", help="fit the classifier")
    common(p)
    hyper(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="score a dataset with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--out", required=True, help="predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="stratified cross-validation report")
    common(p)
    hyper(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CV report JSON")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    common(p)
    p.add_argument("--gamma", type=_positive(float), default=None)
    p.add_argument("--lambdas", type=float, nargs="+", default=None)
    p.add_argument("--sigmas", type=float, nargs="+", default=None)
    controls(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="grid report JSON")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("correlate",
                       help="Pearson correlation of two feature tables")
    p.add_argument("--data", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--chars", required=True,
                   help="characteristics CSV (same row order)")
    p.add_argument("--chars-label", default="label", dest="chars_label")
    p.add_argument("--out", required=True, help="correlation matrix CSV")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("interpret",
                       help="export partial dependence and importances")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="training CSV, original units")
    p.add_argument("--label", default="label")
    p.add_argument("--grid-size", type=int, default=50, dest="grid_size")
    p.add_argument("--scatter", action="store_true",
                   help="also export per-sample component scatters")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_interpret)

    for sp in sub.choices.values():
        sp.add_argument("--verbose", action="store_true")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    start = time.monotonic()
    try:
        args.func(args)
    except (FileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
