"""Plant description: triangular nonlinearity, delay, gains and Lipschitz data.

The plant is the chain of integrators x' = Ax + Bu + f(x, x_delayed, u),
y = x1, where component i of f may depend only on the first i coordinates
of the state and of the delayed state. Gains are a pair of vectors (L, K)
plus the high-gain parameter theta; the scaled versions follow the usual
power-of-theta pattern.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import exprlang
from .errors import ConfigError, NotHurwitzError
from .matops import MAX_DIM, build_companion, delta_theta, is_hurwitz

# f(0, 0, u) = 0 is asserted on this input grid at construction time; the
# Lipschitz advisory cycles u through it
U_ZERO_GRID = (-10.0, -1.0, 0.0, 1.0, 10.0)

_ZERO_TOL = 1e-9
_VAR_INDEX_RE = re.compile(r"(xd?)([1-9][0-9]*)\Z")


class Nonlinearity:
    """Triangular vector nonlinearity f(x, x_delayed, u) -> R^n.

    Built either from a plain Python callable (registry entries) or from a
    list of expression ASTs, one per component, compiled once here. Either
    way f has one scalar core, :attr:`point`: ``point(xs, xds, u)`` takes
    two lists of n Python floats and a float and returns n floats. A
    callable ``fn`` is that core itself, so it must follow this contract.
    Construction validates the triangular dependency structure, that f
    returns n values, and that the origin is an equilibrium for a grid of
    input values. Call it on one point; :meth:`rows` evaluates many points,
    and :meth:`blocks` the n-blocks of one stacked state.
    """

    def __init__(self, n: int, components=None, fn: Callable | None = None, name: str = ""):
        if (components is None) == (fn is None):
            raise ConfigError("exactly one of components/fn must be given")
        self.n = int(n)
        self.name = name
        self.components = list(components) if components is not None else None
        if self.components is not None:
            if len(self.components) != self.n:
                raise ConfigError(
                    f"expected {self.n} component expressions, got {len(self.components)}"
                )
            self._var_names = var_names = [f"x{i + 1}" for i in range(self.n)] + [
                f"xd{i + 1}" for i in range(self.n)
            ]
            self._check_triangular_structure()
            scalar = [exprlang.compile_expr(c) for c in self.components]
            self._columns = [exprlang.compile_expr(c, columns=True) for c in self.components]

            def point(xs, xds, u):
                env = dict(zip(var_names, xs + xds))
                env["u"] = u
                return [c(env) for c in scalar]

            self.point = point
        else:
            self.point = fn
        self._check_zero_at_origin()
        if fn is not None:
            self._probe_triangularity()

    def __call__(self, x, xd, u: float) -> np.ndarray:
        xs = np.asarray(x, dtype=float).tolist()
        xds = np.asarray(xd, dtype=float).tolist()
        return np.array(self.point(xs, xds, float(u)), dtype=float)

    def blocks(self, z: np.ndarray, zd: np.ndarray, u: float, count: int) -> list[float]:
        """f on each of the first ``count`` n-blocks of the 1-D arrays z and zd, at input u.

        Returns the ``count * n`` values as one list; block b of it holds
        exactly ``self(z[b*n:(b+1)*n], zd[b*n:(b+1)*n], u)``.
        """
        n = self.n
        zs, zds = z.tolist(), zd.tolist()
        out = []
        for lo in range(0, count * n, n):
            out += self.point(zs[lo:lo + n], zds[lo:lo + n], u)
        return out

    def rows(self, X, XD, U) -> np.ndarray:
        """f on each row: X and XD of shape (B, n) and U of shape (B,) give (B, n).

        Expression components run once on whole columns. An opaque callable
        is called row by row, so row i is exactly ``self(X[i], XD[i], U[i])``.
        """
        X = np.asarray(X, dtype=float)
        XD = np.asarray(XD, dtype=float)
        U = np.asarray(U, dtype=float)
        if self.components is None:
            values = [self.point(x, xd, u) for x, xd, u in zip(X.tolist(), XD.tolist(), U.tolist())]
            return np.array(values, dtype=float).reshape(len(U), self.n)
        env = dict(zip(self._var_names, np.concatenate([X.T, XD.T])))
        env["u"] = U
        out = np.empty((len(U), self.n))
        for i, c in enumerate(self._columns):
            out[:, i] = c(env)
        return out

    def _check_triangular_structure(self):
        for i, comp in enumerate(self.components):
            for var in sorted(exprlang.free_vars(comp)):
                if var == "u":
                    continue
                if var == "t":
                    raise ConfigError(
                        f"component {i + 1} references 't'; the nonlinearity is time-invariant"
                    )
                m = _VAR_INDEX_RE.match(var)
                index = int(m.group(2))
                if index > self.n:
                    raise ConfigError(
                        f"component {i + 1} references {var!r} but the system has n={self.n}"
                    )
                if index > i + 1:
                    raise ConfigError(
                        f"triangularity violated: component {i + 1} references {var!r} "
                        f"(only indices up to {i + 1} are allowed)"
                    )

    def _probe_triangularity(self):
        # opaque callable: randomized probing of coordinates j > i
        rng = np.random.default_rng(12345)
        for _ in range(6):
            x = rng.uniform(-3.0, 3.0, self.n)
            xd = rng.uniform(-3.0, 3.0, self.n)
            u = float(rng.uniform(-2.0, 2.0))
            base = self(x, xd, u)
            for j in range(1, self.n):
                for arr in (x, xd):
                    bumped = arr.copy()
                    bumped[j] += float(rng.uniform(0.5, 1.5))
                    out = self(bumped, xd, u) if arr is x else self(x, bumped, u)
                    drift = np.max(np.abs(out[:j] - base[:j]))
                    if drift > _ZERO_TOL * (1.0 + np.max(np.abs(base[:j]))):
                        raise ConfigError(
                            f"triangularity violated: component <= {j} changed when "
                            f"coordinate {j + 1} was perturbed"
                        )

    def _check_zero_at_origin(self):
        zeros = [0.0] * self.n
        for u in U_ZERO_GRID:
            val = np.asarray(self.point(zeros, zeros, u), dtype=float)
            if val.shape != (self.n,):
                raise ConfigError(f"f must return {self.n} values, got shape {val.shape} at x = xd = 0")
            if not np.all(np.isfinite(val)) or np.linalg.norm(val) > _ZERO_TOL:
                raise ConfigError(f"f(0, 0, u) must vanish; got {val} at u={u}")


def _zero_factory(n: int) -> Nonlinearity:
    return Nonlinearity(n, fn=lambda x, xd, u: [0.0] * len(x), name="zero")


def _paper_example_factory(n: int) -> Nonlinearity:
    # first component x1*cos(x1) + xd1*cos(u), all others zero
    cos = exprlang.FUNCTIONS["cos"]  # nan at +-inf, as in the expression form
    rest = [0.0] * (n - 1)

    def fn(x, xd, u):
        x1, xd1 = x[0], xd[0]
        return [x1 * cos(x1) + xd1 * cos(u)] + rest

    return Nonlinearity(n, fn=fn, name="paper_example")


REGISTRY: dict[str, Callable[[int], Nonlinearity]] = {
    "zero": _zero_factory,
    "paper_example": _paper_example_factory,
}


def make_nonlinearity(source, n: int) -> Nonlinearity:
    """Build a nonlinearity from a registry name or a list of expression strings."""
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_DIM:
        raise ConfigError(f"dimension must be an integer in 1..{MAX_DIM}, got {n!r}")
    if isinstance(source, str):
        try:
            factory = REGISTRY[source]
        except KeyError:
            known = ", ".join(sorted(REGISTRY))
            raise ConfigError(f"unknown nonlinearity {source!r} (known: {known})") from None
        return factory(n)
    exprs = [exprlang.parse(text) for text in source]
    return Nonlinearity(n, components=exprs, name="<expressions>")


def scale_gains(L, K, theta: float):
    """High-gain scaling: L(theta)[i] = l_i theta^i, K(theta)[i] = k_i theta^(n-i+1).

    Indices are 1-based in the formulas; both returned vectors have the
    input length n.
    """
    if not (theta > 0.0) or not math.isfinite(theta):
        raise ConfigError(f"theta must be positive and finite, got {theta!r}")
    L = np.asarray(L, dtype=float)
    K = np.asarray(K, dtype=float)
    if L.ndim != 1 or K.ndim != 1 or L.shape != K.shape:
        raise ConfigError("L and K must be one-dimensional vectors of equal length")
    n = L.shape[0]
    with np.errstate(all="ignore"):  # a huge theta gives inf or nan entries, not a warning
        powers_up = theta ** np.arange(1, n + 1, dtype=float)
        return L * powers_up, K * powers_up[::-1]


@dataclass(frozen=True)
class GainSet:
    """Observer/feedback gain vectors with their high-gain parameter.

    Construction fails unless both closed-loop companion matrices
    A + L C and A + B K are Hurwitz.
    """

    L: np.ndarray
    K: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float))
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))
        scale_gains(self.L, self.K, self.theta)  # validates theta and the shapes
        n = self.L.shape[0]
        if n < 1 or n > MAX_DIM:
            raise ConfigError(f"gain length {n} outside 1..{MAX_DIM}")
        if not is_hurwitz(self.A_L):
            raise NotHurwitzError(f"A + L*C is not Hurwitz for L={self.L.tolist()}")
        if not is_hurwitz(self.A_K):
            raise NotHurwitzError(f"A + B*K is not Hurwitz for K={self.K.tolist()}")

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def A_L(self) -> np.ndarray:
        A, _, C = build_companion(self.n)
        return A + np.outer(self.L, C)

    @property
    def A_K(self) -> np.ndarray:
        A, B, _ = build_companion(self.n)
        return A + np.outer(B, self.K)

    @property
    def L_scaled(self) -> np.ndarray:
        return scale_gains(self.L, self.K, self.theta)[0]

    @property
    def K_scaled(self) -> np.ndarray:
        return scale_gains(self.L, self.K, self.theta)[1]

    @property
    def delta(self) -> np.ndarray:
        return delta_theta(self.theta, self.n)


def _validated_box(box, n: int) -> tuple[tuple[float, float], ...]:
    pairs = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(pairs) != n:
        raise ConfigError(f"domain box must have {n} coordinate ranges, got {len(pairs)}")
    for i, (lo, hi) in enumerate(pairs):
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ConfigError(f"domain box range {i + 1} is empty or inverted: [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"domain box range {i + 1} has a width that overflows: [{lo}, {hi}]")
    return pairs


@dataclass(frozen=True)
class SystemSpec:
    """Triangular time-delay plant: dimension, delay, nonlinearity, Lipschitz data."""

    n: int
    tau: float
    f: Nonlinearity
    lipschitz_k: float
    domain_box: tuple[tuple[float, float], ...] | None = field(default=None)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1 or self.n > MAX_DIM:
            raise ConfigError(f"dimension must be an integer in 1..{MAX_DIM}, got {self.n!r}")
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise ConfigError(f"delay must be positive and finite, got {self.tau!r}")
        if not (self.lipschitz_k >= 0.0) or not math.isfinite(self.lipschitz_k):
            raise ConfigError(f"lipschitz_k must be >= 0, got {self.lipschitz_k!r}")
        if self.f.n != self.n:
            raise ConfigError(f"nonlinearity is {self.f.n}-dimensional, system is {self.n}")
        box = self.domain_box if self.domain_box is not None else ((-10.0, 10.0),) * self.n
        object.__setattr__(self, "domain_box", _validated_box(box, self.n))


# probe step for difference quotients; fixed so that nested boxes see identical probes
_FD_STEP = 1e-6


def estimate_lipschitz(f: Nonlinearity, box: Sequence, samples: int = 2000, seed: int = 0) -> float:
    """Sampled lower bound on the Lipschitz constant of f over a box.

    Takes the maximum difference quotient |f(p) - f(q)| / |p - q| over
    random point pairs, random finite-difference probes and per-axis grid
    sweeps (both x and delayed-x coordinates range over the box, the input
    u over a fixed grid). f is evaluated on batches of probe rows, at most
    ``max(samples, 201)`` rows each, through :meth:`Nonlinearity.rows`.
    Deterministic for a fixed seed, which must be >= 0. This is advisory:
    a true Lipschitz constant is at least the returned value, which is inf
    when f is not finite at some probe.
    """
    if samples < 100:
        raise ConfigError(f"need at least 100 samples, got {samples}")
    if seed < 0:
        raise ConfigError(f"the advisory seed must be >= 0, got {seed}")
    n = f.n
    pairs = _validated_box(box, n)
    lo = np.array([p[0] for p in pairs] * 2)  # x block then xd block
    hi = np.array([p[1] for p in pairs] * 2)
    width = hi - lo
    rng = np.random.default_rng(seed)

    def value(points: np.ndarray, u) -> np.ndarray:
        return f.rows(points[:, :n], points[:, n:], np.broadcast_to(u, len(points)))

    def top_quotient(p: np.ndarray, q: np.ndarray, fp: np.ndarray, fq: np.ndarray) -> float:
        # largest |f(p) - f(q)| / |p - q| over the rows; p = q is 0, nan (f not finite) is inf
        with np.errstate(all="ignore"):
            gap = np.hypot.reduce(p - q, axis=1)
            ratio = np.hypot.reduce(fp - fq, axis=1) / np.where(gap == 0.0, np.inf, gap)
        return float(np.max(np.where(np.isnan(ratio), np.inf, ratio)))

    def fd_partner(p: np.ndarray, axis) -> np.ndarray:
        # p moved by _FD_STEP along its axis, inward at the upper edge
        rows = np.arange(len(p))
        q = p.copy()
        q[rows, axis] += np.where(p[rows, axis] + _FD_STEP <= hi[axis], _FD_STEP, -_FD_STEP)
        return q

    # the same stream as drawing p, q per sample, then one p per sample, then the anchors
    u_cycle = np.resize(np.asarray(U_ZERO_GRID), samples)
    pairs = lo + rng.random((samples, 2, 2 * n)) * width
    p, q = pairs[:, 0], pairs[:, 1]
    best = top_quotient(p, q, value(p, u_cycle), value(q, u_cycle))

    p = lo + rng.random((samples, 2 * n)) * width
    q = fd_partner(p, np.arange(samples) % (2 * n))
    best = max(best, top_quotient(p, q, value(p, u_cycle), value(q, u_cycle)))

    # per-axis sweeps from fixed anchors, probing each grid node inward at edges
    anchors = [0.5 * (lo + hi)] + [lo + rng.random(2 * n) * width for _ in range(2)]
    grid_points = 201
    for c in range(2 * n):
        for anchor in anchors:
            p = np.tile(anchor, (grid_points, 1))
            p[:, c] = np.linspace(lo[c], hi[c], grid_points)
            q = fd_partner(p, c)
            for u in (-1.0, 0.0, 1.0):
                fp = value(p, u)
                best = max(best, top_quotient(p[1:], p[:-1], fp[1:], fp[:-1]))  # adjacent nodes
                best = max(best, top_quotient(p, q, fp, value(q, u)))
    return best
