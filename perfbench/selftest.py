"""Self-test of the oracles: closed forms, and rejection of perturbed answers.

    python3 perfbench/selftest.py

run.py runs it before every check, so a broken oracle makes the run
incorrect instead of passing wrong output.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks
import oracles as O
import workloads as W


def _lyapunov():
    # A = diag(-1, -2): X = diag(1/2, 1/4)
    yield "diagonal Lyapunov solution", O.rel_close(O.lyapunov(np.diag([-1.0, -2.0])),
                                                    np.diag([0.5, 0.25]), 1e-15)
    # (lam + 1)^2 companion gains: |P| = |S| = 1 + 1/sqrt(2)
    A_L, A_K = O.closed_loop_matrices([-2.0, -1.0], [-1.0, -2.0])
    want = 1.0 + 1.0 / math.sqrt(2.0)
    yield "companion (lam+1)^2 norms", all(abs(O.sym_norm(O.lyapunov(A)) - want) < 1e-14
                                           for A in (A_L, A_K))
    X = O.lyapunov(A_L)
    yield "Lyapunov check rejects 1e-6 relative error", not O.rel_close(X * (1 + 1e-6), X, checks.LYAP_RTOL)


def _margins():
    # at theta = e: a = e/2 - m/(2 tau) - 3 k m, b = sqrt(e)/2 - k m
    m = O.margins(math.e, 2.0, 1.0, 3.0, 0.1)
    yield "margin formula", (abs(m["a"] - (math.e / 2 - 0.25 - 0.3)) < 1e-15
                             and abs(m["d"] - (math.sqrt(math.e) / 2 - 0.3)) < 1e-15)
    # margin c = e/2 - 3/4 - 0.9 < 0, so the verdict is a fail
    exact = dict(m, all_pass=False)
    yield "margin check accepts the formula", not checks._margin_problems(
        "t", exact, m, math.e, 2.0, 3.0, 0.1)
    got = dict(exact, b=exact["b"] + 1e-9)
    yield "margin check rejects a 1e-9 shift", bool(
        checks._margin_problems("t", got, m, math.e, 2.0, 3.0, 0.1))
    yield "margin check rejects a wrong verdict", bool(
        checks._margin_problems("t", dict(exact, all_pass=True), m, math.e, 2.0, 3.0, 0.1))


def _delay_equations():
    # x' = -x(t - 1), history 1: x = 1 - t on [0, 1], x(1) = 0, x(2) = -1/2
    z = O.mos_linear([[0.0]], [[-1.0]], [1.0], [0.0], 1.0, 100, 2)
    yield "expm method of steps: x(1) = 0, x(2) = -1/2", (abs(z[200, 0]) < 1e-14
                                                          and abs(z[300, 0] + 0.5) < 1e-14)
    zi = O.mos_ivp(lambda t, x, xd: -xd, lambda t: np.array([1.0]), 1.0, 100, 2)
    yield "DOP853 method of steps: x(1) = 0, x(2) = -1/2", (abs(zi[200, 0]) < 1e-12
                                                            and abs(zi[300, 0] + 0.5) < 1e-12)
    # affine history x = t on [-1, 0]: x' = -x(t-1) gives x(1) = -(1/2 - 1) = 1/2
    za = O.mos_linear([[0.0]], [[-1.0]], [0.0], [1.0], 1.0, 100, 1)
    yield "affine history generator: x(1) = 1/2", abs(za[200, 0] - 0.5) < 1e-14
    # nonlinear: x' = -x(t-1)^2, history 1: x(1) = 0, x(2) = -1/3
    zn = O.mos_ivp(lambda t, x, xd: -xd**2, lambda t: np.array([1.0]), 1.0, 100, 2)
    yield "nonlinear method of steps: x(2) = -1/3", abs(zn[300, 0] + 1.0 / 3.0) < 1e-12
    yield "trajectory check rejects a 2e-5 relative error", not O.rel_close(
        z * (1 + 2e-5), z, 1e-8 + checks.TRAJECTORY_S4 * 0.04**4)


def _expressions():
    f = O.vector_function(["2^3^2 - x1^2", "-x1^2 + ln(exp(xd2))", "tanh(x2)*cos(t)"])
    got = f(np.array([3.0, 0.5]), np.array([0.0, 2.0]), 0.0)
    yield "expression translation", O.rel_close(got, [512.0 - 9.0, -9.0 + 2.0, math.tanh(0.5)], 1e-15)


def _csv():
    names, rows = O.parse_csv("t,x1\n-1,0.5\n0,1e-3\n")
    yield "CSV parser", names == ["t", "x1"] and rows.tolist() == [[-1.0, 0.5], [0.0, 1e-3]]
    try:
        O.parse_csv("t,x1\n-1\n")
        yield "CSV parser rejects a ragged row", False
    except ValueError:
        yield "CSV parser rejects a ragged row", True


def _theta_search():
    """The design check accepts the smallest feasible theta and rejects others."""
    d = W.design_round(0)[0]
    oracle = checks.design_oracle(d)
    (P, norm_p, min_p, _), (S, norm_s, min_s, _) = oracle["P"], oracle["S"]
    tau, k, tol = d["tau"], d["k"], d["tol"]
    low, high = 1.0, d["theta_max"]
    while high - low > tol / 4:  # plain bisection on the oracle's margins
        mid = 0.5 * (low + high)
        low, high = (low, mid) if checks._min_margin(mid, tau, norm_p, norm_s, k) > 0 else (mid, high)

    def result(theta_star):
        m = O.margins(theta_star, tau, norm_p, norm_s, k)
        margins = {**m, "all_pass": True}
        m0 = O.margins(d["theta0"], tau, norm_p, norm_s, k)
        at_design = {**m0, "all_pass": all(m0[key] > 0 for key in "abcd")}
        return {"design": 0, "norm_p": norm_p, "norm_s": norm_s, "min_eig_p": min_p,
                "min_eig_s": min_s, "P": "p", "S": "s", "margins_design": at_design,
                "theta_star": theta_star, "margins_star": margins,
                "alpha_observer_based": list(O.alpha_observer_based(
                    theta_star, m["a"], m["c"], norm_s, float(np.linalg.norm(d["K"])), 0.1)),
                "alpha_output_feedback": O.alpha_output_feedback(m["c"], m["d"], k, norm_p, 0.1)}

    matrices = {"p": P.tolist(), "s": S.tolist()}
    yield "design check accepts the smallest feasible theta", not checks.check_design(
        result(high), 0, {0: (d, oracle)}, matrices)
    yield "design check rejects theta* + 4 tol", bool(checks.check_design(
        result(high + 4 * tol), 0, {0: (d, oracle)}, matrices))
    yield "design check rejects theta* - tol", bool(checks.check_design(
        result(high - tol), 0, {0: (d, oracle)}, matrices))


def run():
    """Names of the failed self-checks (empty when all pass)."""
    failures = []
    for group in (_lyapunov, _margins, _delay_equations, _expressions, _csv, _theta_search):
        failures += [name for name, ok in group() if not ok]
    return failures


if __name__ == "__main__":
    failed = run()
    for name in failed:
        print(f"FAIL {name}")
    print("oracle self-test:", "failed" if failed else "passed")
    sys.exit(1 if failed else 0)
