"""Spans around the calls into each module of the program, taken from outside.

Each public function is wrapped where its caller looks the name up: the
module attribute for calls made through a module (``analyze.emit_csv``,
``certify.find_theta_min``, ``exprlang.parse``), and the name bound at
import for ``cli`` (``run_scenario``, ``solve_lyapunov``,
``estimate_lipschitz``, ``make_nonlinearity``, ``GainSet``) and
``sysmodel`` (``is_hurwitz``). ``solve_lyapunov`` finds ``sym_eigenvalues``
in ``matops``, and the design jobs call through the module attributes.
The wrappers are installed in the measured process only for a traced
run; the program's files are not changed.

A span is [job, id, parent, name, start, end, f_s at start, f_s at end,
info]; spans stay in memory until the run ends. Calls that come in the hundreds of thousands per job
(``Nonlinearity.__call__`` and the recursive ``exprlang.evaluate``) get no
span: they are counted, and f is timed in aggregate.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self.f_calls = 0
        self.f_s = 0.0
        self.evaluate_calls = 0

    # --- wrapping ---------------------------------------------------------------

    def _span(self, name, fn, info=None):
        """Wrap fn; info(args, kwargs), if given, is stored with each span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [self.job, len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                      self.f_s, 0.0, info(args, kwargs) if info else None]
            spans.append(record)
            stack.append(record[1])
            record[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = clock()
                record[7] = self.f_s
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr, name, info=None):
        setattr(owner, attr, self._span(name, getattr(owner, attr), info))

    def install(self):
        """Wrap every call site the jobs reach in the imported package."""
        from ratstab import analyze, certify, cli, ddesim, exprlang, matops, sysmodel

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "make_nonlinearity", "sysmodel.make_nonlinearity")
        self.wrap(cli, "estimate_lipschitz", "sysmodel.estimate_lipschitz")
        self.wrap(cli, "GainSet", "sysmodel.GainSet")
        self.wrap(sysmodel, "GainSet", "sysmodel.GainSet")
        self.wrap(sysmodel, "is_hurwitz", "matops.is_hurwitz")
        self.wrap(cli, "solve_lyapunov", "matops.solve_lyapunov", _dimension)
        self.wrap(matops, "solve_lyapunov", "matops.solve_lyapunov", _dimension)
        self.wrap(matops, "sym_eigenvalues", "matops.sym_eigenvalues")
        for attr in ("build_report", "find_theta_min", "select_alpha_observer_based",
                     "select_alpha_output_feedback"):
            self.wrap(certify, attr, f"certify.{attr}")
        self.wrap(cli, "run_scenario", "ddesim.run_scenario")
        self.wrap(ddesim, "integrate", "ddesim.integrate", _steps)
        for attr in ("emit_csv", "emit_plot", "fit_envelope"):
            self.wrap(analyze, attr, f"analyze.{attr}")
        self.wrap(exprlang, "parse", "exprlang.parse")

        call = sysmodel.Nonlinearity.__call__
        clock = time.perf_counter

        def counted_call(nonlinearity, x, xd, u):
            start = clock()
            try:
                return call(nonlinearity, x, xd, u)
            finally:
                self.f_s += clock() - start
                self.f_calls += 1

        sysmodel.Nonlinearity.__call__ = counted_call

        evaluate = exprlang.evaluate

        def counted_evaluate(expr, env):
            self.evaluate_calls += 1
            return evaluate(expr, env)

        # evaluate recurses through its module name, so every AST node counts
        exprlang.evaluate = counted_evaluate

    # --- jobs -------------------------------------------------------------------

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span; returns (result, counters)."""
        self.job = job_id
        self.f_calls = 0
        self.f_s = 0.0
        self.evaluate_calls = 0
        result = self._span("job", fn)(*args)
        counters = {"f_calls": self.f_calls, "f_s": self.f_s,
                    "evaluate_calls": self.evaluate_calls}
        return result, counters


def _dimension(args, kwargs):
    """Dimension of the matrix handed to solve_lyapunov."""
    return len(args[0] if args else kwargs["a_cl"])


def _steps(args, kwargs):
    """Steps of integrate's RK4 loop."""
    h = args[3] if len(args) > 3 else kwargs["h"]
    horizon = args[4] if len(args) > 4 else kwargs["horizon"]
    return int(round(horizon / h))


# --- per-layer metrics ------------------------------------------------------------------

# metric -> the span whose total time per job it is; the rest are derived below
SPAN_TOTALS = {
    "exprlang.parse_s": "exprlang.parse",
    "sysmodel.make_nonlinearity_s": "sysmodel.make_nonlinearity",
    "sysmodel.estimate_lipschitz_s": "sysmodel.estimate_lipschitz",
    "sysmodel.gainset_s": "sysmodel.GainSet",
    "matops.is_hurwitz_s": "matops.is_hurwitz",
    "matops.solve_lyapunov_s": "matops.solve_lyapunov",
    "matops.sym_eigenvalues_s": "matops.sym_eigenvalues",
    "certify.find_theta_min_s": "certify.find_theta_min",
    "certify.build_report_s": "certify.build_report",
    "ddesim.run_scenario_s": "ddesim.run_scenario",
    "ddesim.integrate_s": "ddesim.integrate",
    "analyze.emit_csv_s": "analyze.emit_csv",
    "analyze.emit_plot_s": "analyze.emit_plot",
    "analyze.fit_envelope_s": "analyze.fit_envelope",
}

# every per-layer metric with its unit, in the order they are reported
UNITS = {
    "cli.self_s": "s", "exprlang.parse_s": "s", "exprlang.evaluate_calls": "count",
    "sysmodel.make_nonlinearity_s": "s", "sysmodel.f_calls": "count", "sysmodel.f_s": "s",
    "sysmodel.estimate_lipschitz_s": "s", "sysmodel.gainset_s": "s",
    "matops.is_hurwitz_s": "s", "matops.solve_lyapunov_s": "s",
    "matops.solve_lyapunov_max_n_s": "s", "matops.sym_eigenvalues_s": "s",
    "certify.find_theta_min_s": "s", "certify.build_report_s": "s",
    "ddesim.run_scenario_s": "s", "ddesim.integrate_s": "s", "ddesim.step_us": "us",
    "ddesim.self_step_us": "us", "analyze.emit_csv_s": "s", "analyze.emit_plot_s": "s",
    "analyze.fit_envelope_s": "s", "trace.job_p50_s": "s",
}


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def job_breakdown(spans):
    """Per job: total and self time per span name, calls, and the root span.

    Self time is a span's duration minus the durations of its children;
    the self times of a job's spans therefore add up to its root span.
    """
    jobs = {}
    durations = {}
    children = {}
    for job, sid, parent, name, start, end, *_ in spans:
        durations[sid] = end - start
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    for job, sid, parent, name, start, end, f_start, f_end, info in spans:
        entry = jobs.setdefault(job, {"total": {}, "self": {}, "calls": {}, "root_s": 0.0,
                                      "steps": 0, "integrate_f_s": 0.0})
        self_s = durations[sid] - children.get(sid, 0.0)
        entry["total"][name] = entry["total"].get(name, 0.0) + durations[sid]
        entry["self"][name] = entry["self"].get(name, 0.0) + self_s
        entry["calls"][name] = entry["calls"].get(name, 0) + 1
        if parent is None:
            entry["root_s"] += durations[sid]
        if name == "ddesim.integrate":
            entry["steps"] += info
            entry["integrate_f_s"] += f_end - f_start
    return jobs


def per_layer_metrics(jobs, spans):
    """Median over jobs of each per-layer value, over the jobs that make the call.

    A layer a workload never calls reads 0. Also returns the median self
    time per job of each module ("job" is the benchmark's own share) and
    the largest gap between a job's summed self times and its duration.
    """
    breakdown = job_breakdown(spans)
    counters = {job["id"]: job["counters"] for job in jobs if job["counters"] is not None}
    per_job = {name: [] for name in UNITS}
    for job_id, entry in breakdown.items():
        total, calls = entry["total"], entry["calls"]
        for metric, span in SPAN_TOTALS.items():
            if span in calls:
                per_job[metric].append(total[span])
        if "cli.main" in calls:
            per_job["cli.self_s"].append(entry["self"]["cli.main"])
        count = counters[job_id]
        if count["evaluate_calls"]:
            per_job["exprlang.evaluate_calls"].append(count["evaluate_calls"])
        if count["f_calls"]:
            per_job["sysmodel.f_calls"].append(count["f_calls"])
            per_job["sysmodel.f_s"].append(count["f_s"])
        if entry["steps"]:
            integrate = total["ddesim.integrate"]
            per_job["ddesim.step_us"].append(1e6 * integrate / entry["steps"])
            per_job["ddesim.self_step_us"].append(
                1e6 * (integrate - entry["integrate_f_s"]) / entry["steps"])
        per_job["trace.job_p50_s"].append(entry["root_s"])
    solves = [(s[8], s[5] - s[4]) for s in spans if s[3] == "matops.solve_lyapunov"]
    if solves:
        top = max(n for n, _ in solves)
        per_job["matops.solve_lyapunov_max_n_s"] = [d for n, d in solves if n == top]
    metrics = {name: {"value": _median(values), "unit": UNITS[name]}
               for name, values in per_job.items()}

    modules = {}
    for entry in breakdown.values():
        per_module = {}
        for name, self_s in entry["self"].items():
            module = name.split(".")[0]
            per_module[module] = per_module.get(module, 0.0) + self_s
        for module, self_s in per_module.items():
            modules.setdefault(module, []).append(self_s)
    coverage = max(abs(sum(e["self"].values()) - e["root_s"]) / e["root_s"]
                   for e in breakdown.values())
    return metrics, {"self_s_median_per_job": {m: _median(v) for m, v in modules.items()},
                     "self_time_sum_vs_job_max_rel_gap": coverage}
