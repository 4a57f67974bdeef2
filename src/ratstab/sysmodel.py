"""Plant description: triangular nonlinearity, delay, gains and Lipschitz data.

The plant is the chain of integrators x' = Ax + Bu + f(x, x_delayed, u),
y = x1, where component i of f may depend only on the first i coordinates
of the state and of the delayed state. Gains are a pair of vectors (L, K)
plus the high-gain parameter theta; the scaled versions follow the usual
power-of-theta pattern.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import exprlang
from .errors import ConfigError, NotHurwitzError, check_numbers
from .matops import build_companion, check_dimension, delta_theta, is_hurwitz

# f(0, 0, u) = 0 is asserted on this input grid at construction time; the
# Lipschitz advisory cycles u through it
U_ZERO_GRID = (-10.0, -1.0, 0.0, 1.0, 10.0)

_ZERO_TOL = 1e-9


class Nonlinearity:
    """Triangular vector nonlinearity f(x, x_delayed, u) -> R^n.

    Built either from a list of expression ASTs, one per component, or
    from a plain Python callable. Either way f has one scalar core,
    :attr:`point`: ``point(xs, xds, u)`` takes two lists of n Python
    floats and a float and returns n floats. The components compile here
    once into that core, and once into one column function on the first
    :meth:`rows` call, the only one that needs it; a callable ``fn`` is
    the core itself, so it must follow this contract, and :meth:`rows`
    calls it row by row. The simulator's generated stage spells small
    expression components inline, through the emitter that writes
    :attr:`point`, and calls :attr:`point` for a callable or larger f.
    Construction validates the triangular dependency structure, that f
    returns n values, and that the origin is an equilibrium for a grid of
    input values. Call it on one point; :meth:`rows` evaluates many points.
    """

    def __init__(self, n: int, components=None, fn: Callable | None = None):
        if (components is None) == (fn is None):
            raise ConfigError("exactly one of components/fn must be given")
        self.n = int(n)
        self.components = list(components) if components is not None else None
        self._columns = None
        if self.components is not None:
            if len(self.components) != self.n:
                raise ConfigError(
                    f"expected {self.n} component expressions, got {len(self.components)}"
                )
            self._check_triangular_structure()
            self.point = exprlang.compile_vector(self.components, ("x", "xd", "u"))
        else:
            self.point = fn
        self._check_zero_at_origin()
        if fn is not None:
            self._probe_triangularity()

    def __call__(self, x, xd, u: float) -> np.ndarray:
        xs = np.asarray(x, dtype=float).tolist()
        xds = np.asarray(xd, dtype=float).tolist()
        return np.array(self.point(xs, xds, float(u)), dtype=float)

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
        if self._columns is None:
            self._columns = exprlang.compile_vector(self.components, ("x", "xd", "u"), columns=True)
        columns = np.concatenate([X.T, XD.T])  # one contiguous row per variable
        out = np.empty((len(U), self.n))
        with np.errstate(all="ignore"):
            for i, value in enumerate(self._columns(columns[:self.n], columns[self.n:], U)):
                out[:, i] = value  # a component that reads no variable is one number
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
                state = exprlang.state_index(var)
                if state is None:  # only a hand-built AST holds such a name
                    raise ConfigError(f"component {i + 1} references unknown variable {var!r}")
                if state[1] > self.n:
                    raise ConfigError(
                        f"component {i + 1} references {var!r} but the system has n={self.n}"
                    )
                if state[1] > i + 1:
                    raise ConfigError(
                        f"triangularity violated: component {i + 1} references {var!r} "
                        f"(only indices up to {i + 1} are allowed)"
                    )

    def _probe_triangularity(self):
        # opaque callable: randomized probing of coordinates j > i
        rng = random.Random(12345)
        for _ in range(6):
            x = np.array([rng.uniform(-3.0, 3.0) for _ in range(self.n)])
            xd = np.array([rng.uniform(-3.0, 3.0) for _ in range(self.n)])
            u = rng.uniform(-2.0, 2.0)
            base = self(x, xd, u)
            for j in range(1, self.n):
                for arr in (x, xd):
                    bumped = arr.copy()
                    bumped[j] += rng.uniform(0.5, 1.5)
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


# built-in nonlinearities: a name stands for its leading component texts,
# and every further component is "0"
REGISTRY: dict[str, tuple[str, ...]] = {
    "zero": (),
    "paper_example": ("x1*cos(x1) + xd1*cos(u)",),
}


def make_nonlinearity(source, n: int) -> Nonlinearity:
    """Build a nonlinearity from a registry name or a list of expression strings."""
    check_dimension(n)
    if isinstance(source, str):
        if source not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise ConfigError(f"unknown nonlinearity {source!r} (known: {known})")
        leading = REGISTRY[source]
        source = [*leading, *["0"] * (n - len(leading))]
    return Nonlinearity(n, components=[exprlang.parse(text) for text in source])


def scale_gains(L, K, theta: float):
    """High-gain scaling: L(theta)[i] = l_i theta^i, K(theta)[i] = k_i theta^(n-i+1).

    Indices are 1-based in the formulas; both returned vectors have the
    input length n.
    """
    check_numbers(("theta", theta, theta > 0.0, "positive and finite"))
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
        check_dimension(self.L.shape[0])
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
        check_numbers((f"domain box range {i + 1}'s upper end", hi, True, "finite"),
                      (f"domain box range {i + 1}'s lower end", lo, lo < hi, f"finite and below {hi!r}"))
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
        check_dimension(self.n)
        check_numbers(("delay", self.tau, self.tau > 0.0, "positive and finite"),
                      ("lipschitz_k", self.lipschitz_k, self.lipschitz_k >= 0.0, "finite and >= 0"))
        if self.f.n != self.n:
            raise ConfigError(f"nonlinearity is {self.f.n}-dimensional, system is {self.n}")
        box = self.domain_box if self.domain_box is not None else ((-10.0, 10.0),) * self.n
        object.__setattr__(self, "domain_box", _validated_box(box, self.n))


# probe step for difference quotients; fixed so that nested boxes see identical probes
_FD_STEP = 1e-6

# each axis sweep runs the grid from every anchor at every input value
_SWEEP_NODES = 201
_SWEEP_U = (-1.0, 0.0, 1.0)


def _norm(d: np.ndarray) -> np.ndarray:
    # Euclidean norm over the last axis, folded column by column with hypot (the
    # bits of np.hypot.reduce, without its per-row inner loop): nothing is squared
    acc = np.abs(d[..., 0])
    for j in range(1, d.shape[-1]):
        acc = np.hypot(acc, d[..., j])
    return acc


def _top_quotient(fp: np.ndarray, fq: np.ndarray, gap: np.ndarray) -> float:
    # largest |f(p) - f(q)| / |p - q| over the rows, given f(p), f(q) and |p - q|; p = q reads 0,
    # nan (f not finite) reads inf. Taken at 1/16 scale, exact for doubles of normal size, so that
    # f(p) - f(q) and its norm stay finite for a finite f; np.max passes a nan row on
    with np.errstate(all="ignore"):
        best = float(np.max(_norm(fp * 0.0625 - fq * 0.0625) / (np.where(gap == 0.0, np.inf, gap) * 0.0625)))
    return math.inf if math.isnan(best) else best


def _unit_draws(rng: random.Random, *shape: int) -> np.ndarray:
    # uniform [0, 1) numbers of 32 random bits each, from the stream's next 4 bytes apiece
    return (np.frombuffer(rng.randbytes(4 * math.prod(shape)), dtype="<u4") * 2.0 ** -32).reshape(shape)


def estimate_lipschitz(f: Nonlinearity, box: Sequence, samples: int = 2000, seed: int = 0) -> float:
    """Sampled lower bound on the Lipschitz constant of f over a box.

    Takes the maximum difference quotient |f(p) - f(q)| / |p - q| over
    random point pairs, random finite-difference probes and per-axis grid
    sweeps (both x and delayed-x coordinates range over the box, the input
    u over a fixed grid). A finite-difference probe and a sweep's
    neighbouring nodes differ in one coordinate, so their |p - q| is that
    coordinate's step, taken exactly. f is evaluated through
    :meth:`Nonlinearity.rows` on batches of probe rows, at most
    ``max(samples, 1809)`` rows each: a sweep along one axis takes its
    3 anchors x 3 inputs x 201 nodes in one batch and their
    finite-difference partners in another.
    The probes take 32 random bits per coordinate from ``random.Random(seed)``, in
    this order: the pairs, the finite-difference probes, the two random sweep anchors.
    Deterministic for a fixed seed, which must be an integer >= 0. This is advisory:
    a true Lipschitz constant is at least the returned value, which is inf
    when f is not finite at some probe.
    """
    check_numbers(("samples", samples, samples >= 100, "at least 100"),
                  ("the advisory seed", seed, seed >= 0, ">= 0"),
                  ("the advisory seed", seed, isinstance(seed, (int, np.integer)), "an integer"))
    n = f.n
    pairs = _validated_box(box, n)
    lo = np.array([p[0] for p in pairs] * 2)  # x block then xd block
    hi = np.array([p[1] for p in pairs] * 2)
    width = hi - lo
    rng = random.Random(int(seed))  # Random rejects a numpy integer seed

    def value(points: np.ndarray, u) -> np.ndarray:
        return f.rows(points[:, :n], points[:, n:], np.broadcast_to(u, len(points)))

    def fd_partner(x: np.ndarray, axis) -> np.ndarray:
        # coordinate x moved by _FD_STEP along its axis, inward at the upper edge
        return x + np.where(x + _FD_STEP <= hi[axis], _FD_STEP, -_FD_STEP)

    # the same stream as drawing p, q per sample, then one p per sample, then the anchors
    u_cycle = np.resize(np.asarray(U_ZERO_GRID), samples)
    pairs = lo + _unit_draws(rng, samples, 2, 2 * n) * width
    p, q = pairs[:, 0], pairs[:, 1]
    with np.errstate(over="ignore"):  # a gap past the largest double is inf
        gap = _norm(p - q)
    best = _top_quotient(value(p, u_cycle), value(q, u_cycle), gap)

    rows = np.arange(samples)
    axis = rows % (2 * n)
    p = lo + _unit_draws(rng, samples, 2 * n) * width
    q = p.copy()
    x = p[rows, axis]
    q[rows, axis] = moved = fd_partner(x, axis)
    best = max(best, _top_quotient(value(p, u_cycle), value(q, u_cycle), np.abs(x - moved)))

    # per-axis sweeps from fixed anchors, probing each grid node inward at edges: one
    # batch per axis, laid out (anchor, u, node); every pair differs along axis c only,
    # so its gap is a step of the grid or to the partner
    anchors = np.vstack([0.5 * (lo + hi), lo + _unit_draws(rng, 2, 2 * n) * width])
    starts = np.repeat(anchors, len(_SWEEP_U), axis=0)[:, None, :]
    u = np.repeat(np.tile(_SWEEP_U, len(anchors)), _SWEEP_NODES)
    for c in range(2 * n):
        grid = np.linspace(lo[c], hi[c], _SWEEP_NODES)
        partner = fd_partner(grid, c)
        p = np.repeat(starts, _SWEEP_NODES, axis=1)
        q = p.copy()
        p[:, :, c] = grid
        q[:, :, c] = partner
        fp = value(p.reshape(-1, 2 * n), u).reshape(len(starts), _SWEEP_NODES, n)
        fq = value(q.reshape(-1, 2 * n), u).reshape(fp.shape)
        best = max(best, _top_quotient(fp[:, 1:], fp[:, :-1], np.abs(grid[1:] - grid[:-1])),
                   _top_quotient(fp, fq, np.abs(grid - partner)))
    return best
