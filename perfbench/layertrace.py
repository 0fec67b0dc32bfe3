"""Outside-in tracing of the gska layers, installed from the benchmark only.

Each traced function is replaced by a wrapper at every `gska` module
attribute that refers to it, which is where callers look it up (for example
`gska.model.gram_blocks` and `gska.evaluation.gram_blocks` both point at
`gska.kernels.gram_blocks`). No source file of the package changes.

A span holds (id, parent id, name, start, end); all spans of one traced
invocation share the tracer's run id. Spans stay in memory until
`write_spans` is called after the run. Counters recorded at the same
boundaries (sweeps, kernel entries, rows read) feed the work-count metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from quality import SolveRecord

LAYERS = ("data", "kernels", "coherence", "solver", "model", "interpret",
          "evaluation", "cli")

TRACED = (
    "data.load_csv", "data.standardize", "data.apply_scaling",
    "kernels.median_heuristic_gamma", "kernels.gram_blocks",
    "kernels.cross_gram",
    "solver.solve", "solver.majorization_constant", "solver.spectral_norm_sq",
    "solver.group_update", "solver.lambda_max",
    "coherence.loss_grad", "coherence.empirical_risk",
    "model.fit", "model.decision_function", "model.save", "model.load",
    "interpret.group_contribution",
    "evaluation.cross_validate", "evaluation.grid_search", "evaluation.auroc",
    "cli.cmd_fit", "cli.cmd_cv", "cli.cmd_grid", "cli.cmd_predict",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Patcher:
    """Swaps a package function for a replacement wherever gska binds it."""

    def __init__(self):
        self._undo = []

    def patch(self, qualname: str, make_replacement):
        mod_name, attr = qualname.split(".")
        original = getattr(importlib.import_module(f"gska.{mod_name}"), attr)
        replacement = make_replacement(original)
        for name, module in list(sys.modules.items()):
            if name != "gska" and not name.startswith("gska."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def restore(self):
        while self._undo:
            module, key, original = self._undo.pop()
            setattr(module, key, original)


class Capture(Patcher):
    """Keeps the inputs and results of a workload's solves for the quality check.

    It wraps `model.fit` (called per fold by cross-validation) or the
    `gram_blocks`/`solve` pair that grid search calls directly. The wrappers
    only keep references; they compute nothing, so they may stay on during
    the timed invocation.
    """

    def __init__(self):
        super().__init__()
        self.records = []
        self._gram_args = {}

    def install(self, qualnames):
        wrappers = {"model.fit": self._wrap_fit,
                    "kernels.gram_blocks": self._wrap_gram_blocks,
                    "solver.solve": self._wrap_solve}
        for q in qualnames:
            self.patch(q, wrappers[q])
        return self

    def _wrap_fit(self, fn):
        @functools.wraps(fn)
        def fit(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.records.append(SolveRecord.from_model(model))
            return model
        return fit

    def _wrap_gram_blocks(self, fn):
        @functools.wraps(fn)
        def gram_blocks(train, partition, spec):
            gram = fn(train, partition, spec)
            self._gram_args[id(gram)] = (train, partition, spec)
            return gram
        return gram_blocks

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def solve(gram, labels, partition, cfg, init=None):
            alpha, report = fn(gram, labels, partition, cfg, init)
            train, part, spec = self._gram_args[id(gram)]
            self.records.append(SolveRecord(train, part, spec, cfg, alpha,
                                            report))
            return alpha, report
        return solve


class Tracer(Patcher):
    """Records a span around every call of the functions in TRACED."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self.solve_reports = []
        self._stack = []
        self._ids = itertools.count()

    def install(self):
        counters = {"solver.solve": self._count_solve,
                    "solver.group_update": self._count_group_update,
                    "kernels.gram_blocks": self._count_gram_blocks,
                    "kernels.cross_gram": self._count_cross_gram,
                    "data.load_csv": self._count_load_csv}
        for q in TRACED:
            self.patch(q, functools.partial(self._wrap, q, counters.get(q)))
        return self

    def _wrap(self, name, count, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, \
            time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    # Work counters, recorded at the boundary where the work happens.

    def _count_solve(self, args, kwargs, result):
        alpha, report = result
        d, n = alpha.shape
        self.solve_reports.append(report)
        self.counts["matvec_flops"] += 2.0 * d * n * n      # initial margins

    def _count_group_update(self, args, kwargs, result):
        alpha_j = np.asarray(_arg(args, kwargs, 0, "alpha_j"))
        n = alpha_j.size
        changed = not np.array_equal(result, alpha_j)
        self.counts["group_updates_changed"] += changed
        # block gradient, plus the margin refresh when the block moved
        self.counts["matvec_flops"] += 2.0 * n * n * (1 + changed)

    def _count_gram_blocks(self, args, kwargs, result):
        train = _arg(args, kwargs, 0, "train")
        self.counts["gram_entries"] += len(result) * train.n * train.n

    def _count_cross_gram(self, args, kwargs, result):
        train = _arg(args, kwargs, 0, "train")
        query = _arg(args, kwargs, 1, "query")
        self.counts["cross_gram_entries"] += len(result) * train.n * query.n

    def _count_load_csv(self, args, kwargs, result):
        self.counts["rows_loaded"] += result.n

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{self.run_id}\t{sid}\t{'' if parent is None else parent}"
                         f"\t{name}\t{start!r}\t{end!r}\n")

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics derived from the spans and counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            self_s[name] += (end - start) - child[sid]

        out = {}
        for q in TRACED:
            out[f"{q}.calls"] = (calls[q], "count")
            out[f"{q}.self_s"] = (self_s[q], "s")
            out[f"{q}.total_s"] = (total[q], "s")
        for layer in LAYERS:
            share = sum(v for k, v in self_s.items()
                        if k.startswith(layer + ".")) / traced_wall
            out[f"layer.{layer}.self_share"] = (share, "ratio")

        c = self.counts
        reports = self.solve_reports
        sweeps = sum(r.iterations for r in reports)
        solve_s = [end - start for _, _, name, start, end in self.spans
                   if name == "solver.solve"]
        p50 = p90 = 0.0
        if len(solve_s) == 1:
            p50 = p90 = solve_s[0]
        elif solve_s:
            p50 = statistics.median(solve_s)
            p90 = statistics.quantiles(solve_s, n=10, method="inclusive")[-1]
        updates = calls["solver.group_update"]
        gram_entries = c["gram_entries"]
        cross_entries = c["cross_gram_entries"]
        load_s = total["data.load_csv"]
        out.update({
            "solver.sweeps": (sweeps, "count"),
            "solver.s_per_sweep": (total["solver.solve"] / sweeps
                                   if sweeps else 0.0, "s"),
            "solver.solve_s_p50": (p50, "s"),
            "solver.solve_s_p90": (p90, "s"),
            "solver.unconverged_solves": (sum(not r.converged for r in reports),
                                          "count"),
            "solver.useful_update_ratio": (c["group_updates_changed"] / updates
                                           if updates else 0.0, "ratio"),
            "solver.matvec_flops_computed": (c["matvec_flops"], "flop"),
            "kernels.gram_entries": (gram_entries, "count"),
            "kernels.cross_gram_entries": (cross_entries, "count"),
            "kernels.bytes_computed": (8.0 * (gram_entries + cross_entries),
                                       "B"),
            "data.load_csv.rows_per_s": (c["rows_loaded"] / load_s
                                         if load_s else 0.0, "1/s"),
            "trace.spans": (len(self.spans), "count"),
            "trace.overhead_share": (traced_wall / untraced_wall - 1.0,
                                     "ratio"),
        })
        return out
