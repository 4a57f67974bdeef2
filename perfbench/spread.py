"""Run each workload with ten seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py [--workloads paper sweep design] [--first-seed 1]

Every run is a separate ``run.py`` process with trace 0 and the run length
``run_seconds`` of BENCHMARK.json, as in a normal benchmark run. For each
metric it prints the median, the quartiles (Python's statistics.quantiles
with n = 4) and the spread (q3 - q1) / median, and for each workload the
share of failed operations. The summary is also written to
``perfbench/results/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = 10


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    ok = True
    for workload in args.workloads:
        values, shares = {}, []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            line = json.loads(lines[-1])
            ok = ok and line["correct"]
            shares.append(line["failed"] / line["attempted"])
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
        summary[workload] = {"failed_share": shares, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[workload]["metrics"][name] = {"values": vals, "median": med, "q1": q1,
                                                  "q3": q3, "spread": spread}
            print(f"  {workload:7s} {name:30s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f} %")
        print(f"  {workload:7s} failed share {sorted(set(shares))}", flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "spread.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
