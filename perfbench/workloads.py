"""Seeded inputs of the three workloads.

Pure Python: the same seed gives the same inputs in the measured worker
and in the checker, and neither the program nor numpy is needed to build
them. Every draw that matters to an oracle is written into the input
itself (coefficient texts, gains, histories), so the checker recomputes
everything from this description, never from what the program returned.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("paper", "sweep", "design")

# BLAS thread settings; run.py sets each to 1 for the worker, before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SCENARIO_MODES = ("open_loop", "state_feedback", "observer", "observer_based", "output_feedback")
OBSERVER_MODES = ("observer", "observer_based", "output_feedback")

# --- sweep -----------------------------------------------------------------

# One round of the sweep: (mode, n, nonlinear terms, history kind). Every
# mode occurs twice, every n three or four times; the seed only draws the
# numbers, so each round costs the same whatever the seed.
SWEEP_TEMPLATES = (
    ("open_loop", 2, False, "constant"),
    ("state_feedback", 3, True, "expr"),
    ("observer", 4, False, "expr"),
    ("observer_based", 2, True, "constant"),
    ("output_feedback", 3, False, "constant"),
    ("open_loop", 4, True, "expr"),
    ("state_feedback", 2, False, "expr"),
    ("observer", 3, True, "constant"),
    ("observer_based", 4, False, "expr"),
    ("output_feedback", 2, True, "expr"),
)

SWEEP_STEPS_PER_DELAY = 250
SWEEP_DELAYS = 10  # horizon T = 10 tau
SWEEP_BOX = 5.0    # Lipschitz advisory box [-5, 5] on every coordinate
SWEEP_MAX_STABILITY = 0.04


def _poly_from_roots(roots):
    """Coefficients [c1..cn] of prod (lam - r) = lam^n + c1 lam^(n-1) + ... + cn."""
    coeffs = [1.0]
    for r in roots:
        nxt = coeffs + [0.0]
        for i in range(1, len(nxt)):
            nxt[i] -= r * coeffs[i - 1]
        coeffs = nxt
    return coeffs[1:]


def companion_gains(l_roots, k_roots):
    """(L, K) placing the poles of A + L C at l_roots and of A + B K at k_roots.

    A + L C carries L in its first column, so its characteristic polynomial
    is lam^n - L1 lam^(n-1) - ... - Ln; A + B K carries K in its last row,
    giving lam^n - Kn lam^(n-1) - ... - K1.
    """
    L = [-c for c in _poly_from_roots(l_roots)]
    K = [-c for c in reversed(_poly_from_roots(k_roots))]
    return L, K


def _coef(rng, lo, hi):
    value = round(rng.uniform(lo, hi), 4)
    return value if rng.random() < 0.5 else -value


def _expression(terms):
    """Expression text of sum(coef * g(var)) over (coef, g or None, var) terms."""
    text = ""
    for coef, func, var in terms:
        body = f"{abs(coef):.4f}*" + (f"{func}({var})" if func else var)
        sign = "-" if coef < 0 else "+"
        text = f"{text} {sign} {body}" if text else ("-" + body if coef < 0 else body)
    return text


def _component_terms(rng, i, nonlinear, scale):
    """Two terms for component i (1-based): one in x, one in the delayed state.

    Each term is coef * g(v) with |g'| <= 1, so the entrywise bound of the
    Jacobian is |coef| in the column of v.
    """
    j = rng.randint(1, i)
    jd = rng.randint(1, i)
    g = rng.choice(("tanh", "sin")) if nonlinear else None
    return [(_coef(rng, *scale), g, f"x{j}"), (_coef(rng, *scale), None, f"xd{jd}")]


def lipschitz_upper(n, terms):
    """Frobenius norm of the entrywise Jacobian bound: a true Lipschitz constant."""
    bound = [[0.0] * (2 * n) for _ in range(n)]
    for i, comp in enumerate(terms):
        for coef, _, var in comp:
            col = int(var[2:]) - 1 + n if var.startswith("xd") else int(var[1:]) - 1
            bound[i][col] += abs(coef)
    return math.sqrt(sum(v * v for row in bound for v in row))


def _history_coeffs(rng, n):
    """(a, b) per coordinate of a history a + b t or a + b cos(t)."""
    return [(round(rng.uniform(-1.5, 1.5), 3), round(rng.uniform(-1.0, 1.0), 3)) for _ in range(n)]


def history_texts(kind, coeffs):
    """Expression texts in t of the affine (a + b t) or cosine (a + b cos t) histories."""
    if kind == "affine":
        return [f"{a:.3f} + {b:.3f}*t".replace("+ -", "- ") for a, b in coeffs]
    return [f"{a:.3f} + {b:.3f}*cos(t)".replace("+ -", "- ") for a, b in coeffs]


def sweep_member(seed: int, index: int) -> dict:
    """Member `index` of the seeded sweep round (index in 0..len(SWEEP_TEMPLATES)-1)."""
    mode, n, nonlinear, history_kind = SWEEP_TEMPLATES[index]
    rng = random.Random(f"sweep/{seed}/{index}")
    tau = rng.choice((0.5, 0.75, 1.0, 1.25))
    h = tau / SWEEP_STEPS_PER_DELAY
    # even members: weak terms and a high gain, so certificates can pass;
    # odd members: strong terms and a low gain, so they mostly fail
    strong = index % 2 == 1
    theta = round(rng.uniform(1.5, 4.0) if strong else rng.uniform(4.0, 8.0), 3)
    scale = (0.05, 0.3) if strong else (0.01, 0.06)
    l_root = round(rng.uniform(0.8, 1.6), 3)
    k_root = round(rng.uniform(0.8, 1.6), 3)
    L, K = companion_gains([-l_root * (1 + 0.25 * j) for j in range(n)],
                           [-k_root * (1 + 0.25 * j) for j in range(n)])
    # keep the RK4 stability number h theta max(rho(A_L), rho(A_K)) at most
    # SWEEP_MAX_STABILITY, far below RK4's 2.78, so the CSV is accurate to
    # about its fourth power
    rho = max(l_root, k_root) * (1 + 0.25 * (n - 1))
    theta = min(theta, math.floor(SWEEP_MAX_STABILITY / (h * rho) * 1e3) / 1e3)
    terms = [_component_terms(rng, i + 1, nonlinear, scale) for i in range(n)]
    f_texts = [_expression(comp) for comp in terms]
    k_decl = math.ceil(lipschitz_upper(n, terms) * 1e4) / 1e4
    x0 = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(n)]
    xhat0 = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(n)]
    history = None
    if history_kind == "expr":
        # linear members get affine histories (the exact oracle needs a
        # history generated by a linear ODE); nonlinear members get cosines
        kind = "cos" if nonlinear else "affine"
        history = {"kind": kind, "x": _history_coeffs(rng, n)}
        if mode in OBSERVER_MODES and index % 2 == 0:
            history["xhat"] = _history_coeffs(rng, n)
    return {
        "index": index, "mode": mode, "n": n, "nonlinear": nonlinear,
        "tau": tau, "h": h, "T": SWEEP_DELAYS * tau, "theta": theta,
        "L": L, "K": K, "terms": terms, "f": f_texts, "k": k_decl,
        "x0": x0, "xhat0": xhat0, "history": history,
    }


def sweep_config(member: dict) -> dict:
    """The program's JSON config for a sweep member."""
    n = member["n"]
    sim = {"h": member["h"], "T": member["T"], "x0": member["x0"], "seed": 0}
    if member["mode"] in OBSERVER_MODES:
        sim["xhat0"] = member["xhat0"]
    hist = member["history"]
    if hist is not None:
        sim["history"] = {"x": history_texts(hist["kind"], hist["x"])}
        if "xhat" in hist:
            sim["history"]["xhat"] = history_texts(hist["kind"], hist["xhat"])
    return {
        "system": {"n": n, "tau": member["tau"], "lipschitz_k": member["k"], "f": member["f"],
                   "domain_box": [[-SWEEP_BOX, SWEEP_BOX]] * n},
        "gains": {"L": member["L"], "K": member["K"], "theta": member["theta"]},
        "sim": sim,
        "scenario": {"mode": member["mode"]},
        "output": {"emit_plots": True},
    }


def sweep_round(seed: int) -> list[dict]:
    return [sweep_member(seed, i) for i in range(len(SWEEP_TEMPLATES))]


# --- design ----------------------------------------------------------------

DESIGN_DIMS = tuple(range(2, 12))
DESIGN_THETA_MAX = 100.0
DESIGN_TOL = 1e-4
DESIGN_ALPHA_MARGIN = 0.1

# Pole families that stay within the program's Lyapunov acceptance up to
# n = 11 (see CHANGES.md: the absolute residual test rejects (lam+1)^12).
DESIGN_FAMILIES = {
    "(l+1)^n": lambda n: [-1.0] * n,
    "(l+1)^(n-1)(l+2)": lambda n: [-1.0] * (n - 1) + [-2.0],
}


def design_round(seed: int) -> list[dict]:
    """One design per (family, n); tau and k drawn from the seed."""
    rng = random.Random(f"design/{seed}")
    designs = []
    for family, roots in DESIGN_FAMILIES.items():
        for n in DESIGN_DIMS:
            L, K = companion_gains(roots(n), roots(n))
            designs.append({
                "family": family, "n": n, "L": L, "K": K,
                "theta0": round(rng.uniform(1.0, 10.0), 3),
                "tau": round(rng.uniform(0.8, 1.25), 4),
                "k": round(rng.uniform(0.005, 0.05), 5),
                "theta_max": DESIGN_THETA_MAX, "tol": DESIGN_TOL,
            })
    return designs


# --- paper -----------------------------------------------------------------

# The built-in benchmark of `repro-paper`, restated for the checker.
PAPER = {
    "n": 2, "tau": 1.0, "k": 0.5, "theta": 8.0,
    "L": [-14.0, -28.0], "K": [-30.0, -30.0],
    "x0": [-20.0, -10.0], "xhat0": [10.0, 10.0],
    "h": 0.001, "T": 10.0, "box": 30.0,
}
