"""Constant-delay DDE integration and closed-loop scenario wiring.

The integrator is the method of steps with classical fixed-step RK4. The
delay must be an integer multiple (>= 2) of the step so that every
breakpoint lands on a grid node; delayed stage values at half steps come
from cubic Hermite interpolation using stored node states and node
derivatives, which keeps the scheme fourth order between breakpoints.
Whole-step delayed lookups are node reads and therefore exact. The delayed
midpoints of the m history segments come from one Hermite call before the
first step. From step m on, since the delay spans m >= 2 steps, each step
sets the slope that the midpoint m - 1 segments ahead needs, so one call
gives the delayed midpoints of the next m - 1 steps. Each row depends only
on its own segment, so the numbers are the same as one call per step.

Every scenario is one table over the state z = x, or z = (x, xhat) with
an observer: a matrix M, an input column b, a feedback row k and the
blocks of z that receive f. For observer-based control
M = [[A, B K_theta], [-L_theta C, A + B K_theta + L_theta C]]; output
feedback shares it but drops f from the observer block, and the plain
observer has no B K_theta terms and takes u = u_ext(t) through b. A
single right-hand side serves all of them: u = k z (+ u_ext),
dz = M z (+ b u_ext), then f(z_block, z_block(t - tau), u) on each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractViolation, DivergedError
from .matops import build_companion
from .sysmodel import GainSet, SystemSpec

DIVERGENCE_GUARD = 1e12

# step used to differentiate the initial history function (it is a callable,
# so the step is independent of the grid)
_PHI_SLOPE_STEP_SCALE = 1e-5


class Scenario(Enum):
    """Closed-loop configuration; decides which blocks are integrated."""

    OPEN_LOOP = "open_loop"
    STATE_FEEDBACK = "state_feedback"
    OBSERVER = "observer"
    OBSERVER_BASED = "observer_based"
    OUTPUT_FEEDBACK = "output_feedback"

    @property
    def has_observer(self) -> bool:
        return self in (Scenario.OBSERVER, Scenario.OBSERVER_BASED, Scenario.OUTPUT_FEEDBACK)


def _cubic_hermite(left, left_slope, right, right_slope, h: float, lam: float):
    """Cubic Hermite values at fraction lam of segments of width h, elementwise
    over row-aligned node values and slopes at the segments' two ends."""
    h00 = (1.0 + 2.0 * lam) * (1.0 - lam) ** 2
    h10 = lam * (1.0 - lam) ** 2
    h01 = lam * lam * (3.0 - 2.0 * lam)
    h11 = lam * lam * (lam - 1.0)
    return h00 * left + h * h10 * left_slope + h01 * right + h * h11 * right_slope


class HistoryBuffer:
    """Uniform-grid state store with node derivatives for Hermite lookups.

    Node j corresponds to time t0 + j h. The derivative stored at a node is
    the right-hand derivative; the left-hand slope of the initial history
    at the junction node is kept separately because the first derivative
    jumps there.
    """

    def __init__(self, t0: float, h: float, capacity: int, width: int, break_index: int):
        self.t0 = float(t0)
        self.h = float(h)
        self._states = np.empty((capacity, width))
        self._derivs = np.empty((capacity, width))
        self._break_index = break_index
        self._break_left_slope = np.zeros(width)
        self._filled = 0

    @property
    def states(self) -> np.ndarray:
        return self._states[: self._filled]

    def seed(self, values: np.ndarray, slopes: np.ndarray):
        count = values.shape[0]
        self._states[:count] = values
        self._derivs[:count] = slopes
        if 0 <= self._break_index < count:
            self._break_left_slope = slopes[self._break_index].copy()
        self._filled = count

    def append(self, state: np.ndarray):
        self._states[self._filled] = state
        self._filled += 1

    def set_derivative(self, j: int, value: np.ndarray):
        self._derivs[j] = value

    def node(self, j: int) -> np.ndarray:
        if j < 0 or j >= self._filled:
            raise ContractViolation(f"node {j} outside stored history")
        return self._states[j]

    def _hermite(self, start: int, stop: int, lam: float) -> np.ndarray:
        """Cubic Hermite values at fraction lam of segments start..stop-1.

        Segment j spans [node j, node j+1]; row r of the result belongs to
        segment start + r. Every slope the range reads must already be set.
        """
        if start < 0 or stop <= start or stop >= self._filled:
            raise ContractViolation(f"segments {start}..{stop - 1} outside stored history")
        left_slope = self._derivs[start:stop]
        right_slope = self._derivs[start + 1:stop + 1]
        if start < self._break_index <= stop:
            right_slope = right_slope.copy()
            right_slope[self._break_index - start - 1] = self._break_left_slope
        return _cubic_hermite(self._states[start:stop], left_slope,
                              self._states[start + 1:stop + 1], right_slope, self.h, lam)

    def midpoints(self, start: int, stop: int) -> np.ndarray:
        """Hermite midpoints of segments start..stop-1, one row per segment."""
        return self._hermite(start, stop, 0.5)

    def segment_midpoint(self, j: int) -> np.ndarray:
        """Cubic Hermite value at the midpoint of segment [node j, node j+1]."""
        return self._hermite(j, j + 1, 0.5)[0]

    def value_at(self, s: float) -> np.ndarray:
        """State at an arbitrary stored time; node-aligned queries are exact."""
        position = (s - self.t0) / self.h
        j = int(round(position))
        if abs(position - j) <= 1e-9:
            return self.node(j).copy()
        j = int(math.floor(position))
        return self._hermite(j, j + 1, position - j)[0]


def _as_history_fn(phi, width: int | None = None) -> tuple[Callable[[float], np.ndarray], int]:
    """phi as a function of s returning float vectors, and their length. phi is
    probed once, at s = 0; the probe must have `width` entries when one is given."""
    probe = np.asarray(phi(0.0) if callable(phi) else phi, dtype=float)
    width = probe.size if width is None else width
    if callable(phi):
        if probe.shape != (width,):
            raise ConfigError(f"history function must return length-{width} vectors")
        return (lambda s: np.asarray(phi(s), dtype=float)), width
    if probe.shape != (width,):
        raise ConfigError(f"constant history must have length {width}, got shape {probe.shape}")
    return (lambda s: probe), width


def _grid_layout(tau: float, h: float, horizon: float) -> tuple[int, int]:
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigError(f"step must be positive and finite, got {h!r}")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ConfigError(f"delay must be positive and finite, got {tau!r}")
    if not (horizon >= h and math.isfinite(horizon)):
        raise ConfigError(f"horizon must be finite and at least one step, got T={horizon!r}")
    if not math.isfinite(tau / h + horizon / h):
        raise ConfigError(f"too many grid nodes for tau={tau!r}, T={horizon!r} at step h={h!r}")
    m = int(round(tau / h))
    if m < 2 or abs(m * h - tau) > 1e-9 * max(1.0, tau):
        raise ConfigError(
            f"delay must be an integer multiple (>= 2) of the step, got tau={tau!r}, h={h!r}"
        )
    steps = int(round(horizon / h))
    if abs(steps * h - horizon) > 1e-9 * max(1.0, horizon):
        raise ConfigError(f"horizon must sit on the step grid, got T={horizon!r}, h={h!r}")
    return m, steps


def integrate(rhs: Callable, phi, tau: float, h: float, horizon: float):
    """Integrate x'(t) = rhs(t, x(t), x(t - tau)) from the history phi.

    phi is a constant vector or a callable on [-tau, 0]; its value at 0 is
    the initial state. Returns (t, states) on the uniform grid covering
    [-tau, horizon], history included. Raises DivergedError at the first
    node whose state is non-finite or larger than the guard.
    """
    m, steps = _grid_layout(tau, h, horizon)
    history, width = _as_history_fn(phi)

    nodes = m + steps + 1
    try:
        states, derivs = np.empty((nodes, width)), np.empty((nodes, width))
    except ValueError as exc:  # numpy's dimension limit, not a memory shortage
        raise ConfigError(f"a grid of {nodes:.3g} nodes exceeds numpy's array size limit") from exc
    except MemoryError as exc:
        raise ConfigError(f"a grid of {nodes:.3g} nodes does not fit in memory") from exc

    for j in range(m + 1):
        states[j] = history(-tau + j * h)
    if not np.all(np.isfinite(states[:m + 1])):
        raise ConfigError("initial history contains non-finite values")

    # numpy stays silent on overflow: only the divergence guard reports it
    with np.errstate(all="ignore"):
        # slopes of the history callable; one-sided second-order stencils at the
        # ends, step capped by h so no evaluation leaves [-tau, 0]
        delta = min(_PHI_SLOPE_STEP_SCALE * max(1.0, tau), h)
        for j in range(m + 1):
            s = -tau + j * h
            if j == 0:
                derivs[j] = (-3.0 * history(s) + 4.0 * history(s + delta) - history(s + 2 * delta)) / (2 * delta)
            elif j == m:
                derivs[j] = (3.0 * history(s) - 4.0 * history(s - delta) + history(s - 2 * delta)) / (2 * delta)
            else:
                derivs[j] = (history(s + delta) - history(s - delta)) / (2 * delta)

        # one Hermite call gives the delayed midpoints of steps start..stop-1.
        # The first block is the m history segments, taken while node m still
        # holds the history's slope phi'(0), which step 0 then overwrites with
        # the right-hand side's. From step m on, step i sets the slope of node
        # m + i, so when a block starts the slopes of its m - 1 segments are known.
        edges = [0, *range(m, steps, m - 1), steps]
        half = 0.5 * h
        sixth = h / 6.0
        for start, stop in zip(edges, edges[1:]):
            mids = _cubic_hermite(states[start:stop], derivs[start:stop],
                                  states[start + 1:stop + 1], derivs[start + 1:stop + 1], h, 0.5)
            for i, x_mid_delayed in zip(range(start, stop), mids):
                node = m + i
                t = i * h
                x = states[node]
                k1 = derivs[node] = np.asarray(rhs(t, x, states[i]), dtype=float)
                k2 = np.asarray(rhs(t + half, x + half * k1, x_mid_delayed), dtype=float)
                k3 = np.asarray(rhs(t + half, x + half * k2, x_mid_delayed), dtype=float)
                k4 = np.asarray(rhs(t + h, x + h * k3, states[i + 1]), dtype=float)
                advanced = states[node + 1] = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # nan or inf fails the comparison, so one reduction covers both checks
                if not math.sqrt(advanced.dot(advanced)) <= DIVERGENCE_GUARD:
                    raise DivergedError((i + 1) * h)

    t = np.arange(-m, steps + 1, dtype=float) * h
    return t, states


@dataclass
class Trajectory:
    """Simulation output on the uniform grid covering [-tau, T].

    ``x`` rows are plant states, ``xhat`` observer states when the scenario
    has one, ``u`` the control value applied at each node (zero on the
    history segment). ``theta`` is carried along so the scaled coordinates
    can be reproduced.
    """

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray | None
    u: np.ndarray
    theta: float
    tau: float
    h: float

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def history_len(self) -> int:
        """Number of grid segments covering one delay interval."""
        return int(round(self.tau / self.h))

    def index_of(self, time: float) -> int:
        position = (time - self.t[0]) / self.h
        j = int(round(position))
        if abs(position - j) > 1e-9 or j < 0 or j >= len(self.t):
            raise ContractViolation(f"time {time} is not a grid node")
        return j

    def norm_x(self) -> np.ndarray:
        return np.linalg.norm(self.x, axis=1)

    def norm_err(self) -> np.ndarray | None:
        if self.xhat is None:
            return None
        return np.linalg.norm(self.xhat - self.x, axis=1)

    def _scaling(self) -> np.ndarray:
        return self.theta ** -np.arange(self.n, dtype=float)

    def eta(self) -> np.ndarray | None:
        """Scaled observer error eta = Delta_theta (xhat - x), one row per node."""
        if self.xhat is None:
            return None
        return (self.xhat - self.x) * self._scaling()

    def chi(self) -> np.ndarray:
        """Scaled state chi = Delta_theta x, one row per node."""
        return self.x * self._scaling()


def _closed_loop(scenario: Scenario, gains: GainSet):
    """Closed-loop table (M, b, k, f_blocks) of a scenario, as in the module
    docstring; b is None for every scenario but the plain observer."""
    n = gains.n
    with np.errstate(all="ignore"):  # overflowing gains are for the divergence guard to report
        A, B, C = build_companion(n)
        BK = np.outer(B, gains.K_scaled)
        LC = np.outer(gains.L_scaled, C)
        plant, observer = slice(0, n), slice(n, 2 * n)
        if scenario is Scenario.OPEN_LOOP:
            return A, None, np.zeros(n), (plant,)
        if scenario is Scenario.STATE_FEEDBACK:
            return A + BK, None, gains.K_scaled, (plant,)
        if scenario is Scenario.OBSERVER:
            M = np.block([[A, np.zeros((n, n))], [-LC, A + LC]])
            return M, np.concatenate([B, B]), np.zeros(2 * n), (plant, observer)
        M = np.block([[A, BK], [-LC, A + BK + LC]])
        k = np.concatenate([np.zeros(n), gains.K_scaled])
        if scenario is Scenario.OBSERVER_BASED:
            return M, None, k, (plant, observer)
        if scenario is Scenario.OUTPUT_FEEDBACK:
            return M, None, k, (plant,)  # nonlinearity-free observer
    raise ConfigError(f"unknown scenario {scenario!r}")


def run_scenario(sys: SystemSpec, gains: GainSet, scenario: Scenario, phi, phi_hat=None,
                 h: float = 1e-3, horizon: float = 10.0,
                 u_ext: Callable[[float], float] | None = None) -> Trajectory:
    """Wire the requested closed-loop configuration and integrate it.

    phi (plant) and phi_hat (observer, when present) are constant vectors
    or callables on [-tau, 0]. For the plain observer scenario the control
    is externally given; it is zero when u_ext is omitted. Other scenarios
    ignore u_ext.
    """
    n = sys.n
    if gains.n != n:
        raise ConfigError(f"gain length {gains.n} does not match system dimension {n}")
    M, b, k, f_blocks = _closed_loop(scenario, gains)
    external = u_ext if b is not None else None
    f = sys.f

    plant_phi, _ = _as_history_fn(phi, n)
    if scenario.has_observer:
        if phi_hat is None:
            raise ConfigError(f"scenario {scenario.value} needs an observer history")
        observer_phi, _ = _as_history_fn(phi_hat, n)
        stacked_phi = lambda s: np.concatenate([plant_phi(s), observer_phi(s)])
    else:
        stacked_phi = plant_phi

    count = len(f_blocks)  # f acts on a prefix of z: the plant, or the plant and the observer

    def rhs(t, z, zd):
        u = float(k.dot(z))
        dz = M.dot(z)
        if external is not None:
            v = float(external(t))
            u += v
            dz += b * v
        dz[:count * n] += f.blocks(z, zd, u, count)
        return dz

    t, states = integrate(rhs, stacked_phi, sys.tau, h, horizon)
    x, xhat = states[:, :n], (states[:, n:] if scenario.has_observer else None)

    u = np.zeros(len(t))
    live = t >= 0.0
    u[live] = states[live] @ k
    if external is not None:
        u[live] += [float(external(ti)) for ti in t[live]]

    return Trajectory(t=t, x=x, xhat=xhat, u=u, theta=gains.theta, tau=sys.tau, h=h)
