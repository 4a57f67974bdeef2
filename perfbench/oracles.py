"""Independent solutions the benchmark checks the program against.

Nothing here imports the program. Lyapunov solutions come from scipy's
Bartels-Stewart solver, margins from the paper's formulas, closed-loop
trajectories from the method of steps (matrix exponentials for linear
members, scipy's DOP853 at tight tolerances for nonlinear ones), and
expressions from a translation of the expression text into numpy code.
"""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

# --- matrices and margins -----------------------------------------------------


def chain(n: int):
    """Chain of integrators: A with ones on the superdiagonal, B = e_n, C = e_1."""
    A = np.diag(np.ones(n - 1), 1)
    B = np.zeros(n)
    B[-1] = 1.0
    C = np.zeros(n)
    C[0] = 1.0
    return A, B, C


def closed_loop_matrices(L, K):
    """(A + L C, A + B K) for unscaled gain vectors."""
    L = np.asarray(L, dtype=float)
    K = np.asarray(K, dtype=float)
    A, B, C = chain(len(L))
    return A + np.outer(L, C), A + np.outer(B, K)


def scaled_gains(L, K, theta):
    """L_theta = [l_i theta^i], K_theta = [k_i theta^(n-i+1)], i = 1..n."""
    n = len(L)
    up = np.array([theta ** (i + 1) for i in range(n)])
    return np.asarray(L, dtype=float) * up, np.asarray(K, dtype=float) * up[::-1]


def lyapunov(A):
    """X with A' X + X A = -I, from scipy's Bartels-Stewart solver."""
    A = np.asarray(A, dtype=float)
    X = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(A.shape[0]))
    return 0.5 * (X + X.T)


def sym_norm(X) -> float:
    eigs = scipy.linalg.eigvalsh(X)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def margins(theta, tau, norm_p, norm_s, k) -> dict:
    """The delay-dependent margins a-d and the output-feedback margin."""
    def pair(m):
        return (theta / 2 - m * math.log(theta) / (2 * tau) - 3 * k * m,
                math.sqrt(theta) / 2 - k * m)
    a, b = pair(norm_p)
    c, d = pair(norm_s)
    return {"a": a, "b": b, "c": c, "d": d, "output_feedback": c}


def alpha_observer_based(theta, a, c, norm_s, norm_k, margin):
    threshold = 2 * theta**2 * norm_s**2 * norm_k**2 / (a * c)
    return (1 + margin) * threshold, threshold


def alpha_output_feedback(c, d, k, norm_p, margin):
    return min(c, d) / (k * norm_p) * (1 - margin)


def rel_close(x, y, rtol, atol=0.0) -> bool:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or not np.all(np.isfinite(x)):
        return False
    return float(np.max(np.abs(x - y), initial=0.0)) <= rtol * float(np.max(np.abs(y), initial=0.0)) + atol


# --- expressions ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")
_FUNCS = {"sin": "np.sin", "cos": "np.cos", "tan": "np.tan", "tanh": "np.tanh",
          "exp": "np.exp", "ln": "np.log", "sqrt": "np.sqrt", "abs": "np.abs"}


def translate(text: str) -> str:
    """Expression text -> Python source over x[i], xd[i], t (power becomes **)."""
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot translate {text!r} at offset {pos}")
        number, name, op = m.groups()
        if number is not None:
            out.append(repr(float(number)))
        elif name is not None:
            if name in _FUNCS:
                out.append(_FUNCS[name])
            elif name == "t":
                out.append("t")
            elif re.fullmatch(r"xd[1-9][0-9]*", name):
                out.append(f"xd[{int(name[2:]) - 1}]")
            elif re.fullmatch(r"x[1-9][0-9]*", name):
                out.append(f"x[{int(name[1:]) - 1}]")
            else:
                raise ValueError(f"unknown name {name!r} in {text!r}")
        else:
            out.append("**" if op == "^" else op)
        pos = m.end()
    return " ".join(out)


def vector_function(texts):
    """f(x, xd, t) -> array, compiled from one expression text per component."""
    source = "lambda x, xd, t: np.array([" + ", ".join(translate(s) for s in texts) + "], dtype=float)"
    return eval(compile(source, "<oracle expression>", "eval"), {"np": np})


# --- delay differential equations -----------------------------------------------


def mos_linear(M, N, a, b, tau, steps_per_delay, delays):
    """Exact solution of z' = M z + N z(t - tau), z(t) = a + b t on [-tau, 0].

    Method of steps: on delay interval k the pieces y_j(s) = z(j tau + s),
    j = 0..k, and the history generator w(s) = [1, s] solve one linear ODE
    with a block-bidiagonal matrix, so y_k at the grid nodes is a power of
    expm(M_k h) applied to the known starting values. Returns the states at
    t = -tau, -tau + h, ..., delays * tau (history rows included).
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = M.shape[0]
    h = tau / steps_per_delay
    hist_t = -tau + h * np.arange(steps_per_delay + 1)
    rows = [a + np.outer(hist_t, b)]
    # history phi(s - tau) = (a - b tau) * 1 + b * s in the generator w = [1, s]
    G = np.column_stack([a - b * tau, b])
    starts = [a.copy()]
    for k in range(delays):
        size = 2 + (k + 1) * m
        big = np.zeros((size, size))
        big[1, 0] = 1.0  # w2' = w1
        for j in range(k + 1):
            r = 2 + j * m
            big[r:r + m, r:r + m] = M
            if j == 0:
                big[r:r + m, 0:2] = N @ G
            else:
                big[r:r + m, r - m:r] = N
        step = scipy.linalg.expm(big * h)
        Y = np.concatenate([[1.0, 0.0]] + starts)
        piece = np.empty((steps_per_delay, m))
        for i in range(steps_per_delay):
            Y = step @ Y
            piece[i] = Y[-m:]
        rows.append(piece)
        starts.append(piece[-1].copy())
    return np.vstack(rows)


def mos_ivp(rhs, history, tau, steps_per_delay, delays, rtol=1e-12, atol=1e-13):
    """Solution of z' = rhs(t, z, z(t - tau)) with z = history(t) on [-tau, 0].

    Method of steps with scipy's DOP853 restarted at every multiple of tau,
    where the derivative may jump; the delayed value comes from the history
    or from the previous interval's dense output. Returns the states on the
    same grid as mos_linear.
    """
    h = tau / steps_per_delay
    hist_t = -tau + h * np.arange(steps_per_delay + 1)
    rows = [np.array([history(t) for t in hist_t])]
    delayed = history
    z = rows[0][-1]
    for k in range(delays):
        t0, t1 = k * tau, (k + 1) * tau
        nodes = t0 + h * np.arange(1, steps_per_delay + 1)
        nodes[-1] = t1
        lag = delayed
        sol = solve_ivp(lambda t, y, lag=lag: rhs(t, y, lag(t - tau)), (t0, t1), z,
                        method="DOP853", rtol=rtol, atol=atol, t_eval=nodes, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed on [{t0}, {t1}]: {sol.message}")
        piece = sol.y.T
        rows.append(piece)
        z = piece[-1]
        dense = sol.sol
        delayed = lambda t, dense=dense: dense(t)
    return np.vstack(rows)


def closed_loop_rhs(mode, n, f, L_theta, K_theta):
    """Right-hand side of the plant x' = A x + B u + f(x, xd) and, for the
    observer modes, xhat' = A xhat + B u + f(xhat, xhatd) + L_theta (xhat1 - x1),
    without f for output feedback."""
    A, B, _ = chain(n)

    def plant(x, xd, u):
        return A @ x + B * u + f(x, xd)

    if mode == "open_loop":
        return lambda t, z, zd: plant(z, zd, 0.0)
    if mode == "state_feedback":
        return lambda t, z, zd: plant(z, zd, float(K_theta @ z))

    def rhs(t, z, zd):
        x, xh = z[:n], z[n:]
        u = 0.0 if mode == "observer" else float(K_theta @ xh)
        dxh = A @ xh + B * u + L_theta * (xh[0] - x[0])
        if mode != "output_feedback":
            dxh = dxh + f(xh, zd[n:])
        return np.concatenate([plant(x, zd[:n], u), dxh])

    return rhs


def closed_loop_linear(mode, n, F1, F2, L_theta, K_theta):
    """(M, N) with z' = M z + N z(t - tau) when f(x, xd) = F1 x + F2 xd."""
    A, B, C = chain(n)
    P = A + F1
    if mode == "open_loop":
        return P, F2
    if mode == "state_feedback":
        return P + np.outer(B, K_theta), F2
    BK = np.outer(B, K_theta) if mode != "observer" else np.zeros((n, n))
    LC = np.outer(L_theta, C)
    obs = A + BK + LC + (F1 if mode != "output_feedback" else 0.0)
    M = np.block([[P, BK], [-LC, obs]])
    N = np.zeros((2 * n, 2 * n))
    N[:n, :n] = F2
    if mode != "output_feedback":
        N[n:, n:] = F2
    return M, N


# --- artifacts -------------------------------------------------------------------


def read_csv(path):
    """(header names, rows) of a numeric CSV file, parsed here."""
    with open(path, "r", newline="") as handle:
        return parse_csv(handle.read())


def parse_csv(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    names = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(names) for row in cells):
        raise ValueError("ragged rows")
    return names, np.array(cells, dtype=float)
