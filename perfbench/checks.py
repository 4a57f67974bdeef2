"""Checks of every job's outputs against the oracles, per workload.

Each check returns a list of problems for one job (empty when the job is
right). The expected values are recomputed from the seeded inputs in
workloads.py, never taken from a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracles as O
import workloads as W

EPS = float(np.finfo(float).eps)
LYAP_RTOL = 1e-9          # small, well-conditioned Lyapunov problems (n <= 4)
FORMULA_RTOL = 1e-12      # a closed-form margin recomputed from the same norms
CSV_EXACT_RTOL = 1e-12    # columns derived from other columns of the same row
ADVISORY_DIGITS = 5e-5    # the advisory is printed with four decimals
TRAJECTORY_S4 = 5.0       # allowed CSV gap per s^4, s the RK4 stability number
PAPER_ADVISORY_MAX = math.sqrt(31.0**2 + 1.0)
PAPER_DECAY = 1e-2

_ADVISORY = re.compile(r"advisory Lipschitz lower bound over .*: ([-+0-9.eE]+|nan|inf)")


def _advisory(stdout: str):
    m = _ADVISORY.search(stdout)
    return float(m.group(1)) if m else None


def _svg_problems(path: Path):
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError) as exc:
        return [f"{path.name} does not parse as XML: {exc}"]
    return [] if root.tag.endswith("svg") else [f"{path.name} root is <{root.tag}>, not <svg>"]


def _margin_problems(where, got: dict, want: dict, theta, tau, norm, k):
    """Margins a-d (and output feedback) and the verdict against the formula."""
    scale = theta + norm * (abs(math.log(theta)) / tau + 3 * k) + 1.0
    problems = []
    for key, value in want.items():
        if abs(got[key] - value) > FORMULA_RTOL * scale:
            problems.append(f"{where}: margin {key} = {got[key]!r}, formula gives {value!r}")
    all_pass = all(want[key] > 0.0 for key in "abcd")
    if got["all_pass"] != all_pass:
        problems.append(f"{where}: verdict all_pass = {got['all_pass']} but the margins say {all_pass}")
    return problems


def certificate_problems(cert: dict, L, K, theta, tau, k, lyap_rtol=LYAP_RTOL):
    """A certificate.json against scipy's Lyapunov solutions and the formulas.

    Returns (problems, oracle margins).
    """
    A_L, A_K = O.closed_loop_matrices(L, K)
    P, S = O.lyapunov(A_L), O.lyapunov(A_K)
    problems = []
    for name, got, want in (("P", cert["lyapunov"]["P"], P), ("S", cert["lyapunov"]["S"], S)):
        if not O.rel_close(got, want, lyap_rtol):
            problems.append(f"{name} differs from scipy's solution beyond {lyap_rtol:g}")
    norm_p, norm_s = O.sym_norm(P), O.sym_norm(S)
    for name, got, want in (("norm_p", cert["norm_p"], norm_p), ("norm_s", cert["norm_s"], norm_s)):
        if not O.rel_close(got, want, lyap_rtol):
            problems.append(f"{name} = {got!r}, scipy gives {want!r}")
    want = O.margins(theta, tau, norm_p, norm_s, k)
    # margins move by (|ln theta|/(2 tau) + 3k) per unit of norm
    slack = lyap_rtol * max(norm_p, norm_s) * (abs(math.log(theta)) / (2 * tau) + 3 * k)
    for key, value in want.items():
        got = cert["margins"][key]
        if abs(got - value) > slack + FORMULA_RTOL * (theta + 1.0):
            problems.append(f"margin {key} = {got!r}, formula with scipy's norms gives {value!r}")
        if cert["pass"][key] != (got > 0.0):
            problems.append(f"pass flag of {key} contradicts its margin {got!r}")
    all_pass = all(want[key] > 0.0 for key in "abcd")
    if cert["pass"]["all"] != all_pass:
        problems.append(f"overall verdict {cert['pass']['all']} but the margins say {all_pass}")
    got_m = cert["margins"]
    if want["a"] > 0 and want["c"] > 0:
        alpha, threshold = O.alpha_observer_based(theta, got_m["a"], got_m["c"], cert["norm_s"],
                                                  float(np.linalg.norm(K)), 0.1)
        entry = cert.get("alpha_observer_based")
        if entry is None or not O.rel_close([entry["alpha"], entry["threshold"]],
                                            [alpha, threshold], FORMULA_RTOL * 10):
            problems.append(f"alpha_observer_based {entry} != formula ({alpha!r}, {threshold!r})")
    elif "alpha_observer_based" in cert:
        problems.append("alpha_observer_based given although margin a or c fails")
    if want["c"] > 0 and want["d"] > 0:
        alpha = O.alpha_output_feedback(got_m["c"], got_m["d"], k, cert["norm_p"], 0.1)
        entry = cert.get("alpha_output_feedback")
        if entry is None or not O.rel_close(entry, alpha, FORMULA_RTOL * 10):
            problems.append(f"alpha_output_feedback {entry} != formula {alpha!r}")
    elif "alpha_output_feedback" in cert:
        problems.append("alpha_output_feedback given although margin c or d fails")
    return problems, want


# --- paper --------------------------------------------------------------------------


def check_paper(result: dict, seed: int, cache: dict):
    p = W.PAPER
    if result.get("code") != 0:
        return [f"repro-paper exited {result.get('code')}"]
    out = Path(result["out"])
    cert = json.loads((out / "repro_certificate.json").read_text())
    problems, _ = certificate_problems(cert, p["L"], p["K"], p["theta"], p["tau"], p["k"])

    advisory = _advisory(result["stdout"])
    if advisory is None or not 0.0 <= advisory <= PAPER_ADVISORY_MAX:
        problems.append(f"Lipschitz advisory {advisory} outside [0, sqrt(31^2 + 1)]")

    names, rows = O.read_csv(out / "repro_trajectory.csv")
    problems += trajectory_shape_problems(names, rows, 2, True, p["tau"], p["h"], p["T"])
    if problems:
        return problems
    t, x, xh = rows[:, 0], rows[:, 1:3], rows[:, 3:5]
    history = t <= 0.0
    if not (np.all(x[history] == p["x0"]) and np.all(xh[history] == p["xhat0"])):
        problems.append("history rows differ from x0 / xhat0")
    _, K_theta = O.scaled_gains(p["L"], p["K"], p["theta"])
    problems += derived_column_problems(names, rows, 2, "observer_based", K_theta)
    i0 = int(np.argmin(np.abs(t)))
    err = xh - x
    for label, v in (("x", x), ("xhat - x", err)):
        ratio = np.linalg.norm(v[-1]) / np.linalg.norm(v[i0])
        if not ratio <= PAPER_DECAY:
            problems.append(f"|{label}(T)|/|{label}(0)| = {ratio:.3g} > {PAPER_DECAY:g}")
    return problems + _svg_problems(out / "repro_trajectory.svg")


def trajectory_shape_problems(names, rows, n, observer, tau, h, horizon):
    want = (["t"] + [f"x{i + 1}" for i in range(n)]
            + ([f"xh{i + 1}" for i in range(n)] if observer else []) + ["u", "norm_x"]
            + (["norm_err"] if observer else []))
    if names != want:
        return [f"CSV header {names} != {want}"]
    m, steps = round(tau / h), round(horizon / h)
    if rows.shape[0] != m + steps + 1:
        return [f"CSV has {rows.shape[0]} rows, expected {m + steps + 1}"]
    grid = -tau + h * np.arange(m + steps + 1)
    if not O.rel_close(rows[:, 0], grid, 1e-12, 1e-12):
        return ["CSV time column is not the grid -tau, -tau + h, ..., T"]
    if not np.all(np.isfinite(rows)):
        return ["CSV holds non-finite values"]
    return []


def derived_column_problems(names, rows, n, mode, K_theta):
    """u, norm_x and norm_err recomputed from the state columns of each row."""
    t = rows[:, 0]
    x = rows[:, 1:1 + n]
    observer = mode in W.OBSERVER_MODES
    xh = rows[:, 1 + n:1 + 2 * n] if observer else None
    u = rows[:, names.index("u")]
    live = t >= -1e-12
    want_u = np.zeros(len(t))
    if mode == "state_feedback":
        want_u[live] = x[live] @ K_theta
    elif mode in ("observer_based", "output_feedback"):
        want_u[live] = xh[live] @ K_theta
    problems = []
    scale = np.abs(K_theta).sum() * np.max(np.abs(xh if observer else x))
    if not O.rel_close(u, want_u, 0.0, CSV_EXACT_RTOL * scale):
        problems.append("u column is not K_theta times the state used for feedback")
    if not O.rel_close(rows[:, names.index("norm_x")], np.linalg.norm(x, axis=1), CSV_EXACT_RTOL):
        problems.append("norm_x column is not |x|")
    if observer and not O.rel_close(rows[:, names.index("norm_err")],
                                    np.linalg.norm(xh - x, axis=1), CSV_EXACT_RTOL):
        problems.append("norm_err column is not |xhat - x|")
    return problems


# --- sweep --------------------------------------------------------------------------


def _split_terms(member):
    n = member["n"]
    F1, F2 = np.zeros((n, n)), np.zeros((n, n))
    for i, comp in enumerate(member["terms"]):
        for coef, _, var in comp:
            if var.startswith("xd"):
                F2[i, int(var[2:]) - 1] += coef
            else:
                F1[i, int(var[1:]) - 1] += coef
    return F1, F2


def _history(member):
    """History as (a, b) of a + b t for linear members, or as a function."""
    n = member["n"]
    observer = member["mode"] in W.OBSERVER_MODES
    const = np.array(member["x0"] + (member["xhat0"] if observer else []), dtype=float)
    hist = member["history"]
    if hist is None:
        return (const, np.zeros(len(const))), (lambda t: const)
    parts = [O.vector_function(W.history_texts(hist["kind"], hist["x"]))]
    if observer:
        parts.append(O.vector_function(W.history_texts(hist["kind"], hist["xhat"]))
                     if "xhat" in hist else (lambda x, xd, t: np.asarray(member["xhat0"], float)))

    def fn(t):
        return np.concatenate([p(None, None, t) for p in parts])

    affine = None
    if hist["kind"] == "affine":
        a, b = const.copy(), np.zeros(len(const))
        a[:n] = [c[0] for c in hist["x"]]
        b[:n] = [c[1] for c in hist["x"]]
        if "xhat" in hist:
            a[n:] = [c[0] for c in hist["xhat"]]
            b[n:] = [c[1] for c in hist["xhat"]]
        affine = (a, b)
    return affine, fn


def stability_number(member):
    A_L, A_K = O.closed_loop_matrices(member["L"], member["K"])
    rho = max(np.max(np.abs(np.linalg.eigvals(A))) for A in (A_L, A_K))
    return member["h"] * member["theta"] * rho


def sweep_oracle(member):
    """Exact (linear) or tight-tolerance (nonlinear) trajectory of a member."""
    n, mode = member["n"], member["mode"]
    L_theta, K_theta = O.scaled_gains(member["L"], member["K"], member["theta"])
    affine, history = _history(member)
    steps, delays = W.SWEEP_STEPS_PER_DELAY, W.SWEEP_DELAYS
    if not member["nonlinear"]:
        M, N = O.closed_loop_linear(mode, n, *_split_terms(member), L_theta, K_theta)
        states = O.mos_linear(M, N, *affine, member["tau"], steps, delays)
    else:
        f = O.vector_function(member["f"])
        rhs = O.closed_loop_rhs(mode, n, lambda x, xd: f(x, xd, 0.0), L_theta, K_theta)
        states = O.mos_ivp(rhs, history, member["tau"], steps, delays)
    return {"states": states, "history": history, "K_theta": K_theta}


def trajectory_rtol(member):
    """RK4's global error is of order (h lambda)^4 relative to the solution.

    The largest ratio of gap to s^4 seen on seeds 1-22 was 1.48; a delayed
    midpoint value taken from the node instead (first order) gave 15 or more.
    """
    return 1e-8 + TRAJECTORY_S4 * stability_number(member) ** 4


def check_sweep(result: dict, seed: int, cache: dict):
    index = result["member"]
    if index not in cache:
        member = W.sweep_member(seed, index)
        cache[index] = (member, sweep_oracle(member))
    member, oracle = cache[index]
    n, mode = member["n"], member["mode"]
    problems = []
    if result["certify_code"] not in (0, 1):
        problems.append(f"certify exited {result['certify_code']}")
    if result["simulate_code"] != 0:
        problems.append(f"simulate exited {result['simulate_code']}")
    if problems:
        return problems
    out = Path(result["out"])

    cert = json.loads((out / "certificate.json").read_text())
    problems, want = certificate_problems(cert, member["L"], member["K"], member["theta"],
                                          member["tau"], member["k"])
    verdict = 0 if all(want[key] > 0.0 for key in "abcd") else 1
    if result["certify_code"] != verdict:
        problems.append(f"certify exited {result['certify_code']}, the margins say {verdict}")

    advisory = _advisory(result["stdout"])
    upper = W.lipschitz_upper(n, member["terms"])
    lower = 0.0
    if not member["nonlinear"]:
        # a linear f has quotient |F e_c| along every axis and at most |F|_2 anywhere
        F = np.hstack(_split_terms(member))
        upper = float(np.linalg.norm(F, 2))
        lower = float(np.max(np.linalg.norm(F, axis=0)))
    if advisory is None or not lower - ADVISORY_DIGITS <= advisory <= upper * (1 + 1e-12) + ADVISORY_DIGITS:
        problems.append(f"Lipschitz advisory {advisory} outside [{lower:.6g}, {upper:.6g}]")

    observer = mode in W.OBSERVER_MODES
    names, rows = O.read_csv(out / "trajectory.csv")
    shape = trajectory_shape_problems(names, rows, n, observer, member["tau"], member["h"], member["T"])
    if shape:
        return problems + shape
    width = 2 * n if observer else n
    states = rows[:, 1:1 + width]
    m = W.SWEEP_STEPS_PER_DELAY
    hist_rows = np.array([oracle["history"](t) for t in rows[:m + 1, 0]])
    if not O.rel_close(states[:m + 1], hist_rows, CSV_EXACT_RTOL, CSV_EXACT_RTOL):
        problems.append("history rows differ from the configured history")
    rtol = trajectory_rtol(member)
    scale = float(np.max(np.abs(oracle["states"])))
    gap = float(np.max(np.abs(states - oracle["states"])))
    if not gap <= rtol * scale:
        problems.append(f"trajectory differs from the method-of-steps solution by {gap / scale:.3g} "
                        f"relative (allowed {rtol:.3g})")
    problems += derived_column_problems(names, rows, n, mode, oracle["K_theta"])
    return problems + _svg_problems(out / "trajectory.svg")


# --- design -------------------------------------------------------------------------


def lyapunov_rtol(A):
    """Forward error allowed between two backward-stable solvers: 10 cond eps."""
    n = A.shape[0]
    operator = np.kron(np.eye(n), A.T) + np.kron(A.T, np.eye(n))
    return max(1e-12, 10.0 * np.linalg.cond(operator) * EPS)


def _min_margin(theta, tau, norm_p, norm_s, k):
    return min(O.margins(theta, tau, norm_p, norm_s, k)[key] for key in "abcd")


def design_oracle(d):
    A_L, A_K = O.closed_loop_matrices(d["L"], d["K"])
    out = {}
    for name, A in (("P", A_L), ("S", A_K)):
        X = O.lyapunov(A)
        out[name] = (X, O.sym_norm(X), float(np.linalg.eigvalsh(X)[0]), lyapunov_rtol(A))
    return out


def check_design(result: dict, seed: int, cache: dict, matrices: dict):
    index = result["design"]
    if index not in cache:
        d = W.design_round(seed)[index]
        cache[index] = (d, design_oracle(d))
    d, oracle = cache[index]
    problems = []
    for name, key in (("P", "p"), ("S", "s")):
        X, norm, min_eig, rtol = oracle[name]
        if not O.rel_close(matrices[result[name]], X, rtol):
            problems.append(f"{name} differs from scipy's solution beyond {rtol:.2g}")
        if not O.rel_close(result[f"norm_{key}"], norm, rtol):
            problems.append(f"norm_{key} = {result[f'norm_{key}']!r}, scipy gives {norm!r}")
        if not (result[f"min_eig_{key}"] > 0.0 and abs(result[f"min_eig_{key}"] - min_eig) <= rtol * norm):
            problems.append(f"min_eig_{key} = {result[f'min_eig_{key}']!r}, scipy gives {min_eig!r}")
    if problems:
        return problems

    tau, k, norm_p, norm_s = d["tau"], d["k"], result["norm_p"], result["norm_s"]
    norm = max(norm_p, norm_s)
    theta0 = d["theta0"]
    problems += _margin_problems("design theta", result["margins_design"],
                                 O.margins(theta0, tau, norm_p, norm_s, k), theta0, tau, norm, k)
    theta_star, theta_max, tol = result["theta_star"], d["theta_max"], d["tol"]
    if theta_star is None:
        # infeasible: every theta of a fine grid over [1, theta_max] fails a margin
        grid = np.linspace(1.0, theta_max, 20 * int(theta_max) + 1)
        feasible = [theta for theta in grid if _min_margin(theta, tau, norm_p, norm_s, k) > 0.0]
        if feasible:
            problems.append(f"no feasible theta reported, but theta = {feasible[0]:.4g} is feasible")
        return problems
    if not 1.0 <= theta_star <= theta_max:
        return problems + [f"theta* = {theta_star!r} outside [1, {theta_max:g}]"]
    if not _min_margin(theta_star, tau, norm_p, norm_s, k) > 0.0:
        problems.append(f"theta* = {theta_star!r} is not feasible")
    below = theta_star - 2 * tol
    if theta_star != 1.0 and below >= 1.0 and _min_margin(below, tau, norm_p, norm_s, k) > 0.0:
        problems.append(f"theta* = {theta_star!r} is not the smallest: theta* - 2 tol is feasible")
    want = O.margins(theta_star, tau, norm_p, norm_s, k)
    problems += _margin_problems("theta*", result["margins_star"], want, theta_star, tau, norm, k)
    got = result["margins_star"]
    alpha = O.alpha_observer_based(theta_star, got["a"], got["c"], norm_s,
                                   float(np.linalg.norm(d["K"])), W.DESIGN_ALPHA_MARGIN)
    if not O.rel_close(result["alpha_observer_based"], alpha, FORMULA_RTOL * 10):
        problems.append(f"alpha_observer_based {result['alpha_observer_based']} != formula {alpha}")
    alpha_of = O.alpha_output_feedback(got["c"], got["d"], k, norm_p, W.DESIGN_ALPHA_MARGIN)
    if not O.rel_close(result["alpha_output_feedback"], alpha_of, FORMULA_RTOL * 10):
        problems.append(f"alpha_output_feedback {result['alpha_output_feedback']} != formula {alpha_of}")
    return problems


def check_job(workload, result, seed, cache, matrices):
    """Problems of one job's result; a job that raised is reported as such."""
    if "error" in result:
        return [f"raised {result['error']}"]
    if workload == "design":
        return check_design(result, seed, cache, matrices)
    return (check_paper if workload == "paper" else check_sweep)(result, seed, cache)
