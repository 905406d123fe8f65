"""Run the benchmark on several workloads and seeds and summarise it.

    python3 perfbench/report.py [--runs N] [--seed S] [--workload NAME ...]

Runs ``run.py --trace 0`` N times per workload, with seeds S, S+1, ...
and the ``run_seconds`` that BENCHMARK.json sets.  Prints for each workload
every end-to-end metric with its unit, the median and quartiles across
runs, the quartile spread as a share of the median, and the run count,
followed by failed_frac (failed jobs over jobs attempted).  Exits 1 if any
run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    all_ok = True
    for workload in args.workload or list(WORKLOADS):
        values = {name: [] for name in END_TO_END}
        attempted = failed = 0
        for i in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed + i),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {args.seed + i}: no result (exit {proc.returncode})\n"
                      f"{proc.stderr[-2000:]}")
                all_ok = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            all_ok &= proc.returncode == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {args.seed + i}: " + ", ".join(
                f"{n} {m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}  ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<12} {'unit':<7} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}")
        for name, unit in END_TO_END.items():
            if values[name]:
                med, q1, q3 = summarise(values[name])
                print(f"  {name:<12} {unit:<7} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{(q3 - q1) / med:7.2%}")
        frac = failed / attempted if attempted else 1.0
        print(f"  {'failed_frac':<12} {'ratio':<7} {frac:11.5g}   ({failed}/{attempted} jobs)\n",
              flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
