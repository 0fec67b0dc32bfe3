"""Benchmark of the gska command line: one workload per run, timed end to end.

    python3 perfbench/run.py --workload fit_n2000 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a gska checkout; it imports the package from `src/`.
A run imports gska (and times two more imports in fresh interpreters), makes
the workload's inputs from --seed three times (set-up time is the median
import plus the median input generation), then calls
`gska.cli.run` in-process, untraced, until --seconds have passed and at least
once. Every invocation's exit code and artifacts are checked. Solution
quality (objective, KKT residual, AUROC) is computed after the timed
invocations. With --trace 1 one more invocation runs under the layer tracer,
its spans go to .perfbench_work/traces/, and the result carries the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--workload all` runs every workload in a fresh process and prints each
end-to-end metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Named here rather than taken from workloads.py, which imports gska: the
# package must first be imported inside the timed set-up.
WORKLOAD_NAMES = ("fit_n2000", "grid_n500", "cv_sparse_n3000", "predict_q50k")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_import_seconds(src: Path) -> float:
    """Time `import gska` in a fresh interpreter, as this process paid it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import gska; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def run_all(args) -> int:
    """Each workload in its own process; print its end-to-end metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<18} {m['value']:<24.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "gska" / "__init__.py").is_file():
        print(f"error: no gska package under {src}; run from the root of a "
              "gska checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import gska  # noqa: F401  (set-up time includes the package import)
    import_times = [time.perf_counter() - t0]
    import_times += [child_import_seconds(src)
                     for _ in range(SETUP_REPEATS - 1)]

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return run_workload(args, import_times, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, import_times: list, work: Path) -> int:
    import envinfo
    import quality
    from layertrace import Capture, Tracer
    from workloads import WORKLOADS, run_cli

    wl = WORKLOADS[args.workload](args.seed)
    clock = time.perf_counter

    setup_times = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
        t = clock()
        wl.setup(work / f"setup{i}")
        setup_times.append(clock() - t)

    # Timed, untraced invocations: as many as fit in --seconds, at least one.
    # The first keeps references to its solves (no computation) so their
    # quality can be measured afterwards.
    runs = []           # (output dir, exit code, stdout, wall seconds)
    captured = Capture()
    start = clock()
    while not runs or (clock() - start + statistics.median(r[3] for r in runs)
                       <= args.seconds):
        out = work / f"run{len(runs)}"
        out.mkdir()
        argv = wl.argv(out)
        if not runs:
            captured.install(wl.capture)
        try:
            t = clock()
            rc, stdout = run_cli(argv)
            wall = clock() - t
        finally:
            captured.restore()
        runs.append((out, rc, stdout, wall))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [r[3] for r in runs]

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        out = work / "traced"
        out.mkdir()
        argv = wl.argv(out)
        tracer.install()
        try:
            t = clock()
            rc, stdout = run_cli(argv)
            traced_wall = clock() - t
        finally:
            tracer.restore()
        runs.append((out, rc, stdout, traced_wall))

    problems = []
    failed = 0
    for out, rc, stdout, _ in runs:
        try:
            found = ([f"exit code {rc}"] if rc != 0 else
                     wl.check(out, json.loads(stdout.strip().splitlines()[-1])))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            found = [f"artifact does not parse: {type(e).__name__}: {e}"]
        failed += bool(found)
        problems.extend(f"{out.name}: {p}" for p in found)
    attempted = len(runs)

    detail = {"workload": wl.name, "seed": args.seed,
              "timed_invocations": len(walls), "wall_s": walls,
              "import_s": import_times, "inputs_s": setup_times,
              "problems": problems}
    if tracer is not None:
        spans_dir = WORK / "traces"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{wl.name}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
        metrics = tracer.metrics(traced_wall, statistics.median(walls))
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(import_times)
                        + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
        if not problems:    # quality is measured only on correct outputs
            first = runs[0][0]
            q = quality.evaluate(wl.records(first, captured))
            detail["quality"] = q
            metrics.update({
                "objective": (q["objective"], "1"),
                "kkt_residual": (q["kkt_residual"], "lam_w"),
                "auroc": (wl.auroc(first), "ratio"),
            })

    print(json.dumps({"env": envinfo.environment(
        wl.largest_array, wl.largest_array_bytes())}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
