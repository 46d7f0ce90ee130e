"""Run workloads over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 benchmark/reference.py [--runs 10] [--seconds S] [--trace 0|1]
        [--workload NAME ...]

By default it runs the workloads and the run length that BENCHMARK.json
lists, with seeds 1..runs.  Each run is a fresh `benchmark/run.py`
process, one after another.  For every workload and metric it prints the
median of the runs and the spread, (third quartile - first quartile) /
median, with the quartiles taken as `statistics.quantiles(values, n=4)`
gives them.  It also prints the share of failed items.  The raw results go
to benchmark/out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    results: dict[str, list[dict]] = {}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = results[name] = []
        for seed in range(1, args.runs + 1):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))

        print(f"\n{name}  ({args.runs} runs, seeds 1..{args.runs}, {args.seconds} s)")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"  correct on every run: {correct}; failed share: {shares}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"  {metric:32s} median {statistics.median(values):14.6g} {unit:9s}"
                  f" spread {spread(values):7.2%}  min {min(values):.6g}  max {max(values):.6g}")
        sys.stdout.flush()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "trace": args.trace, "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
