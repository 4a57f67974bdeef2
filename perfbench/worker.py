"""The measured process: builds one workload's inputs, then runs its jobs.

Started by run.py with BLAS pinned to one thread and ``src`` of the
checkout on the import path. It prints ``ready`` once its inputs are
built (run.py times the set-up up to that line) and, unless
``--setup-only``, runs a warm-up job and then whole rounds of jobs, one
after another, until ``--seconds`` have passed. It writes what every job
returned to ``--manifest``; it checks nothing itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the thread pinning done by run.py's environment)

import ratstab  # noqa: E402
from ratstab import certify, cli, matops, sysmodel  # noqa: E402
from ratstab.errors import NoFeasibleThetaError  # noqa: E402

import workloads  # noqa: E402

if Path(ratstab.__file__).resolve().parent != (ROOT / "src" / "ratstab").resolve():
    sys.exit(f"imported ratstab from {ratstab.__file__}, not from this checkout")


def _quiet_main(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# --- jobs -----------------------------------------------------------------------------


class PaperJobs:
    """One job: ``repro-paper --out <fresh dir>``."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.round = [None]

    def run(self, job_id, _item):
        out = self.work / f"job{job_id:05d}"
        code, text = _quiet_main(["repro-paper", "--out", str(out)])
        return {"out": str(out), "code": code, "stdout": text}


class SweepJobs:
    """One job: ``certify`` then ``simulate`` on one seeded member's config."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.round = []
        for member in workloads.sweep_round(seed):
            path = work / f"member{member['index']}.json"
            path.write_text(json.dumps(workloads.sweep_config(member)))
            self.round.append((member["index"], str(path)))

    def run(self, job_id, item):
        index, config = item
        out = str(self.work / f"job{job_id:05d}")
        certify_code, text = _quiet_main(["certify", "--config", config, "--out", out])
        simulate_code, _ = _quiet_main(["simulate", "--config", config, "--out", out])
        return {"member": index, "out": out, "certify_code": certify_code,
                "simulate_code": simulate_code, "stdout": text}


class DesignJobs:
    """One job: certify one gain design through the library.

    GainSet (two Hurwitz tests), the two Lyapunov solves, the margins at
    the design's theta, the smallest feasible theta and, where there is
    one, the margins and composite weights there.
    """

    def __init__(self, work: Path, seed: int):
        self.round = [(i, d, np.array(d["L"]), np.array(d["K"]))
                      for i, d in enumerate(workloads.design_round(seed))]
        self.matrices = {}

    def run(self, job_id, item):
        index, d, L, K = item
        tau, k = d["tau"], d["k"]
        gains = sysmodel.GainSet(L=L, K=K, theta=d["theta0"])
        cert_p = matops.solve_lyapunov(gains.A_L)
        cert_s = matops.solve_lyapunov(gains.A_K)
        norm_p, norm_s = cert_p.spectral_norm, cert_s.spectral_norm
        at_design = certify.build_report(d["theta0"], tau, norm_p, norm_s, k)
        result = {"design": index, "norm_p": norm_p, "norm_s": norm_s,
                  "min_eig_p": cert_p.min_eig, "min_eig_s": cert_s.min_eig,
                  "P": self._digest(cert_p.solution), "S": self._digest(cert_s.solution),
                  "margins_design": _margins(at_design), "theta_star": None}
        try:
            theta_star = certify.find_theta_min(tau, norm_p, norm_s, k, d["theta_max"], d["tol"])
        except NoFeasibleThetaError:
            return result
        report = certify.build_report(theta_star, tau, norm_p, norm_s, k)
        result["theta_star"] = theta_star
        result["margins_star"] = _margins(report)
        result["alpha_observer_based"] = certify.select_alpha_observer_based(
            theta_star, report.a, report.c, norm_s, float(np.linalg.norm(gains.K)),
            workloads.DESIGN_ALPHA_MARGIN)
        result["alpha_output_feedback"] = certify.select_alpha_output_feedback(
            report.c, report.d, k, norm_p, workloads.DESIGN_ALPHA_MARGIN)
        return result

    def _digest(self, matrix):
        """Hash of the solution; each distinct matrix is kept once for the checker."""
        key = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()[:24]
        if key not in self.matrices:
            self.matrices[key] = matrix.tolist()
        return key


def _margins(report):
    return {"a": report.a, "b": report.b, "c": report.c, "d": report.d,
            "output_feedback": report.of_margin, "all_pass": report.all_pass}


JOBS = {"paper": PaperJobs, "sweep": SweepJobs, "design": DesignJobs}


def peak_rss_mb():
    """Peak resident set of this process, in MB.

    Linux's VmHWM belongs to this process's own address space; ru_maxrss
    would also count the parent's resident set at the fork that started it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the timed loop -------------------------------------------------------------------


def _attempt(runner, tracer, job_id, item):
    """One job; an exception is recorded as the job's result, not raised."""
    try:
        if tracer is None:
            return runner.run(job_id, item), None
        return tracer.run_job(job_id, runner.run, job_id, item)
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        return {"error": f"{type(exc).__name__}: {exc}"}, None


def measure(runner, seconds, tracer):
    """Whole rounds until `seconds` have passed; returns (jobs, results, window).

    A job keeps only its wall time and the index of its result among the
    distinct results, so the process does not grow with the number of jobs
    and a faster program does not read as a larger peak_rss_mb.
    """
    walls, indices, counters = [], [], []
    results = []
    latest = {}  # position in the round -> index of that position's last result
    window_start = time.perf_counter()
    while time.perf_counter() - window_start < seconds:
        for position, item in enumerate(runner.round):
            start = time.perf_counter()
            result, counted = _attempt(runner, tracer, len(walls), item)
            walls.append(time.perf_counter() - start)
            index = latest.get(position)
            if index is None or results[index] != result:
                results.append(result)
                index = latest[position] = len(results) - 1
            indices.append(index)
            counters.append(counted)
    window = time.perf_counter() - window_start
    jobs = [{"id": i, "wall_s": wall, "result": index, "counters": counted}
            for i, (wall, index, counted) in enumerate(zip(walls, indices, counters))]
    return jobs, results, window


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and job outputs")
    parser.add_argument("--manifest", help="where to write the jobs' results")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    runner = JOBS[args.workload](work, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    warmup, _ = _attempt(runner, None, -1, runner.round[0])
    if tracer is not None:
        tracer.spans.clear()
    jobs, results, window = measure(runner, args.seconds, tracer)
    peak_rss = peak_rss_mb()

    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "window_s": window, "peak_rss_mb": peak_rss,
        "job_p50_s": statistics.median(job["wall_s"] for job in jobs),
        "warmup": warmup, "jobs": jobs, "results": results,
        "matrices": getattr(runner, "matrices", {}),
        "spans": tracer.spans if tracer is not None else None,
        "environment": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "ratstab": ratstab.__version__, "ratstab_path": str(Path(ratstab.__file__).parent),
            "threads": {v: os.environ.get(v) for v in workloads.THREAD_VARS},
        },
    }
    Path(args.manifest).write_text(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
