"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads grid_n500
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10

Runs perfbench/run.py once per (workload, seed), one process at a time, and
prints for each metric the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A spread at or above a third of the metric's bound in BENCHMARK.json
is flagged; setup_s is reported but not held to it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for name in args.workloads:
        values = {m: [] for m in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: failed\n{proc.stdout}{proc.stderr}")
                return 1
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        for m, v in values.items():
            s = spread(v)
            flag = "" if m == "setup_s" or s < bounds[m] / 3 else "  WIDE"
            status |= bool(flag)
            print(f"{name:<16} {m:<18} median {statistics.median(v):<12.6g} "
                  f"spread {s:.4f} bound {bounds[m]}{flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
