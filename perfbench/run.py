"""Benchmark of ratstab: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper|sweep|design|all --seed N \
        [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in. The measured jobs run in a worker process with BLAS
pinned to one thread. This process times the worker's set-up, then checks
every job's outputs against the oracles (checks.py) and prints the metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
A full record, with versions, thread settings and seed, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "_work"

SETUP_PROBES = 4        # extra set-ups timed per run; setup_s is the median of five
RUN_DEADLINE_S = 175.0  # a run that is not done by then is stopped and fails

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run could not be carried out; no result is printed."""


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(argv, deadline):
    """Start worker.py; returns (process, seconds until it printed 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=worker_env(), text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (said {line.strip()!r})")
    return proc, setup


def finish(proc, deadline):
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def stop(proc):
    proc.kill()
    proc.communicate()


def run_workload(workload, seed, seconds, trace):
    """Measure one workload and check its outputs; returns the result record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "ratstab" / "__init__.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src' / 'ratstab'}")
    work = WORK / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    manifest_path = work / "manifest.json"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    try:
        setups = []
        for probe in range(SETUP_PROBES):
            proc, setup = start_worker(common + ["--work", str(work / f"probe{probe}"),
                                                 "--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)
        proc, setup = start_worker(common + ["--work", str(work / "jobs"),
                                             "--manifest", str(manifest_path)], deadline)
        setups.append(setup)
        finish(proc, deadline)
        manifest = json.loads(manifest_path.read_text())
        return evaluate(workload, seed, trace, manifest, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(workload, result, seed, cache, matrices):
    """The problems of one job; a missing or malformed output is one too."""
    import checks

    try:
        return checks.check_job(workload, result, seed, cache, matrices)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def evaluate(workload, seed, trace, manifest, setups):
    import scipy

    import selftest

    problems = [f"oracle self-test: {p}" for p in selftest.run()]
    cache = {}
    warmup = check(workload, manifest["warmup"], seed, cache, manifest["matrices"])
    problems += [f"warm-up job: {p}" for p in warmup]
    failed = 0
    verdicts = {}  # equal results get equal verdicts
    for job in manifest["jobs"]:
        result = manifest["results"][job["result"]]
        if job["result"] not in verdicts:
            verdicts[job["result"]] = check(workload, result, seed, cache, manifest["matrices"])
        found = verdicts[job["result"]]
        if found:
            failed += 1
            problems += [f"job {job['id']}: {p}" for p in found]
    jobs = manifest["jobs"]
    if trace:
        import tracer

        metrics, self_time = tracer.per_layer_metrics(jobs, manifest["spans"])
        if not self_time["self_time_sum_vs_job_max_rel_gap"] <= 1e-9:
            problems.append("traced self times do not add up to the job times")
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{workload}-seed{seed}.trace.json").write_text(
            json.dumps({"jobs": [{k: j[k] for k in ("id", "wall_s", "counters")} for j in jobs],
                        "spans": manifest["spans"]}))
    else:
        self_time = None
        values = {"setup_s": statistics.median(setups),
                  "jobs_per_s": len(jobs) / manifest["window_s"],
                  "job_p50_s": manifest["job_p50_s"],
                  "peak_rss_mb": manifest["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not problems, "attempted": len(jobs), "failed": failed,
        "metrics": metrics, "problems": problems[:50],
        "environment": {**manifest["environment"], "scipy": scipy.__version__,
                        "seed": seed, "cpu_count": os.cpu_count()},
        "setup_samples_s": setups, "window_s": manifest["window_s"], "self_time": self_time,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record):
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {record['correct']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"][:10]:
        print(f"  PROBLEM {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for record in records:
        report(record)
    line = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (records[0]["metrics"] if len(records) == 1 else
                    {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}),
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
