"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--workloads certificate ...]

For every workload, runs `perfbench/run.py` once per seed (1..runs) with
the run length from BENCHMARK.json, then prints, per end-to-end metric,
the median, the quartiles from statistics.quantiles(values, n=4), the
spread (Q3 - Q1) / median against the metric's bound, and the share of
failed operations.  This regenerates the reference figures in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print(f"{workload}: {args.runs} runs, correct {correct}, failed share "
              f"{sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:12s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}  "
                  f"spread {spread:6.3f} (bound {bound})")
            print(f"    values {[round(v, 4) for v in values]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
