"""Constant-delay DDE integration and closed-loop scenario wiring.

The integrator is the method of steps with classical fixed-step RK4. The
delay must be an integer multiple m >= 2 of the step so that every
breakpoint lands on a grid node. Whole-step delayed lookups are node
reads and therefore exact. On the first delay interval, steps 0..m-1,
the delayed state is the history itself, so the delayed half-step values
are its samples at the segment midpoints of [-tau, 0]. From step m on
they come from cubic Hermite interpolation on the stored node states and
the slopes the loop stored there, which keeps the scheme fourth order
between breakpoints; no Hermite value reads a slope of the history, so
the jump of the first derivative at t = 0 needs no rule of its own.

The grid is one HistoryBuffer. Step i sets the slope of node m + i, so a
chunk of at most m - 1 steps reads only slopes set before it starts, and
one Hermite call gives its delayed midpoints. integrate thus runs one
loop over chunks of min(_BLOCK_CHUNK, m - 1) steps, none of which crosses
step m. Each midpoint depends only on its own segment, so the numbers are
those of one call per step, and the Python-float rows in flight do not
grow with the delay; only the grid grows with the horizon.

Every scenario is one table over the state z = x, or z = (x, xhat) with
an observer: a matrix M, an input column b, a feedback row k and the
blocks of z that receive f. For observer-based control
M = [[A, B K_theta], [-L_theta C, A + B K_theta + L_theta C]]; output
feedback shares it but drops f from the observer block, and the plain
observer has no B K_theta terms and takes u = u_ext(t) through b. A
single right-hand side serves all of them: u = k z (+ u_ext),
dz = M z (+ b u_ext), then f(z_block, z_block(t - tau), u) on each block.
Each run generates it once from the table as straight-line Python on
floats. Its sums add the nonzero products in index order, so the
trajectory does not depend on the BLAS kernel. An expression f is
spelled into that code by exprlang's emitter, the one that writes f's own
``point`` function, so a stage computes the same doubles without calling
it; a callable f, or one of more than _INLINE_NODES operator nodes, is
called once per block and stage.

integrate takes each chunk's RK4 steps in one generated function. One
template writes it for every right-hand side: a stage is either the
closed loop's straight-line code or a call of a plain rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import exprlang
from .errors import ConfigError, ContractViolation, DivergedError, check_numbers
from .matops import build_companion
from .sysmodel import GainSet, SystemSpec

DIVERGENCE_GUARD = 1e12

# most RK4 steps integrate passes to a generated block in one call; a chunk
# also takes at most m - 1 steps (see the module docstring)
_BLOCK_CHUNK = 256

# a stage spells an expression f of at most this many operator nodes inline and
# calls a larger one: each node spelled costs compile time and memory in every
# stage, while inlining saves about 1 us a step; with 64 nodes on each of two
# blocks it paid off from about 2,500 steps (2-vCPU x86-64 VM, Python 3.11)
_INLINE_NODES = 64


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


class HistoryBuffer:
    """Uniform-grid store of node states and node slopes for Hermite lookups.

    Node j is the time t0 + j h, and the slope stored there is its
    right-hand derivative.
    """

    def __init__(self, t0: float, h: float, capacity: int, width: int):
        self.t0 = float(t0)
        self.h = float(h)
        self._states = np.empty((capacity, width))
        self._derivs = np.full((capacity, width), np.nan)  # a slope read before it is set is nan
        self._filled = 0

    @property
    def states(self) -> np.ndarray:
        return self._states[: self._filled]

    def seed(self, values: np.ndarray, slopes: np.ndarray):
        count = values.shape[0]
        self._states[:count] = values
        self._derivs[:count] = slopes
        self._filled = count

    def append(self, *rows):
        """Store rows as the next nodes: row vectors, or one flat sequence of whole rows."""
        self._filled += self._store(self._states, self._filled, rows)

    def set_derivative(self, j: int, *rows):
        """Store rows, given as append takes them, as the slopes of nodes j, j + 1, ..."""
        self._store(self._derivs, j, rows)

    @staticmethod
    def _store(array: np.ndarray, j: int, rows: tuple) -> int:
        """Write rows into array from row j by one flat assignment; returns their count."""
        width = array.shape[1]
        values = rows[0] if len(rows) == 1 else np.ravel(rows)
        count, rest = divmod(len(values), width)
        if rest:
            raise ContractViolation(f"{len(values)} values are not whole rows of width {width}")
        array.reshape(-1)[j * width:(j + count) * width] = values
        return count

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
        h00 = (1.0 + 2.0 * lam) * (1.0 - lam) ** 2
        h10 = lam * (1.0 - lam) ** 2
        h01 = lam * lam * (3.0 - 2.0 * lam)
        h11 = lam * lam * (lam - 1.0)
        return (h00 * self._states[start:stop] + self.h * h10 * self._derivs[start:stop]
                + h01 * self._states[start + 1:stop + 1] + self.h * h11 * self._derivs[start + 1:stop + 1])

    def midpoints(self, start: int, stop: int) -> np.ndarray:
        """Hermite midpoints of segments start..stop-1, one row per segment."""
        return self._hermite(start, stop, 0.5)

    def segment_midpoint(self, j: int) -> np.ndarray:
        """Cubic Hermite value at the midpoint of segment [node j, node j+1]."""
        return self._hermite(j, j + 1, 0.5)[0]

    def value_at(self, s: float) -> np.ndarray:
        """State at an arbitrary stored time; node-aligned queries are exact."""
        check_numbers(("time", s, True, "finite"), error=ContractViolation)
        position = (s - self.t0) / self.h
        j = int(round(position))
        if abs(position - j) <= 1e-9:
            return self.node(j).copy()
        j = int(math.floor(position))
        return self._hermite(j, j + 1, position - j)[0]


def _as_history_fn(phi, width: int | None = None) -> tuple[np.ndarray | Callable, int]:
    """phi as data (a float vector) if constant, else the callable itself, and the
    vectors' length. phi is probed once, at s = 0, and must give `width` entries if set."""
    probe = np.asarray(phi(0.0) if callable(phi) else phi, dtype=float)
    width = probe.size if width is None else width
    if probe.shape != (width,):
        raise ConfigError(f"history function must return length-{width} vectors" if callable(phi)
                          else f"constant history must have length {width}, got shape {probe.shape}")
    return (phi if callable(phi) else probe), width


def grid_layout(tau: float, h: float, horizon: float) -> tuple[int, int]:
    """(m, steps) of a step-h grid: tau = m h and T = steps h; ConfigError if it has none."""
    check_numbers(("step", h, h > 0.0, "positive and finite"), ("delay", tau, tau > 0.0, "positive and finite"),
                  ("horizon", horizon, horizon >= h, "finite and at least one step"))
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


def _unpack(names: list) -> str:
    return f"[{', '.join(names)}]"


def _total(terms) -> str:
    return " + ".join(["0.0", *terms])


def _rk4_block(width: int, stage: Callable, bound: dict) -> Callable:
    """Generated ``block(start, stop, x, past, mids, h)``: integrate's RK4 steps start..stop-1.

    It starts from the state x, reads the delayed nodes start..stop from
    ``past`` and the delayed midpoints from ``mids``, and returns the new
    states and the slopes at the steps' first nodes, each as one flat list
    of floats, row after row. Its guard raises DivergedError as integrate documents.
    ``stage(time, z, zd, out)`` spells a stage: the lines, run on the values
    ``bound``, that set the floats ``out`` to the right-hand side at (time, z, zd).
    """
    x, z, d, e, c, k1, k2, k3, k4 = ([f"{p}{i}" for i in range(width)] for p in "xzdecpqrs")
    step = [
        "t = i * h",
        *stage("t", x, d, k1),
        f"slopes += ({', '.join(k1)},)",
        *(f"{z[i]} = {x[i]} + half * {k1[i]}" for i in range(width)),
        *stage("t + half", z, c, k2),
        *(f"{z[i]} = {x[i]} + half * {k2[i]}" for i in range(width)),
        *stage("t + half", z, c, k3),
        *(f"{z[i]} = {x[i]} + h * {k3[i]}" for i in range(width)),
        *stage("t + h", z, e, k4),
        *(f"{x[i]} = {x[i]} + sixth * ({k1[i]} + 2.0 * {k2[i]} + 2.0 * {k3[i]} + {k4[i]})"
          for i in range(width)),
        # nan or inf fails the comparison, so one test covers both checks
        f"if not sqrt({_total(f'{v} * {v}' for v in x)}) <= GUARD:",
        "    raise DivergedError((i + 1) * h)",
        f"states += ({', '.join(x)},)",
    ]
    source = "\n".join([
        "def block(start, stop, x, past, mids, h):",
        "    half = 0.5 * h",
        "    sixth = h / 6.0",
        f"    {_unpack(x)} = x",
        "    states, slopes = [], []",
        f"    for i, {_unpack(d)}, {_unpack(e)}, {_unpack(c)} in "
        "zip(range(start, stop), past, past[1:], mids):",
        *(f"        {line}" for line in step),
        "    return states, slopes",
    ])
    namespace = {"__builtins__": {}, "range": range, "zip": zip, "sqrt": math.sqrt,
                 "DivergedError": DivergedError, "GUARD": DIVERGENCE_GUARD, **bound}
    exec(compile(source, "<rk4 block>", "exec"), namespace)
    return namespace["block"]


def _called_block(rhs: Callable, width: int) -> Callable:
    """The RK4 block of a plain ``rhs(t, x, xd)``: each stage calls it on fresh
    1-D float arrays and takes np.asarray(..., dtype=float) of its result,
    broadcast to the state's width (only when needed: broadcast_to is slow)."""
    def stage(time: str, z: list, zd: list, out: list) -> list:
        return [f"{_unpack(out)} = slope(rhs({time}, array({_unpack(z)}), array({_unpack(zd)})))"]

    def slope(value) -> list:
        value = np.asarray(value, dtype=float)
        return (value if value.shape == (width,) else np.broadcast_to(value, (width,))).tolist()

    return _rk4_block(width, stage, {"rhs": rhs, "array": np.array, "slope": slope})


def integrate(rhs: Callable, phi, tau: float, h: float, horizon: float):
    """Integrate x'(t) = rhs(t, x(t), x(t - tau)) from the history phi.

    phi is a constant vector or a callable on [-tau, 0]; its value at 0 is
    the initial state. Returns (t, states) on the uniform grid covering
    [-tau, horizon], history included. Raises DivergedError at the first
    node whose state is non-finite or larger than the guard. A callable phi
    is called 2m + 2 times, m = tau / h: once at 0 to probe its length, then
    at the m + 1 nodes and the m segment midpoints of [-tau, 0]; a constant
    is never called. Any non-finite sample is a ConfigError. Steps 0..m-1
    take their delayed midpoints from those samples, later steps from the
    :class:`HistoryBuffer` that holds the grid. A generated function (see
    :func:`_rk4_block`) takes the steps in chunks of min(_BLOCK_CHUNK, m - 1):
    the ``block`` that rhs carries when it is a generated closed loop (see
    :func:`_compile_loop`), else one that calls rhs four times per step.
    """
    m, steps = grid_layout(tau, h, horizon)
    history, width = _as_history_fn(phi)

    nodes = m + steps + 1
    try:
        buffer = HistoryBuffer(-tau, h, nodes, width)
    except ValueError as exc:  # numpy's dimension limit, not a memory shortage
        raise ConfigError(f"a grid of {nodes:.3g} nodes exceeds numpy's array size limit") from exc
    except MemoryError as exc:
        raise ConfigError(f"a grid of {nodes:.3g} nodes does not fit in memory") from exc

    # the 2m + 1 half-step times of [-tau, 0]: even rows are the nodes, odd rows the
    # midpoints of their segments, which are steps 0..m-1's delayed midpoints; a
    # constant is broadcast, uncalled, and a callable gets Python floats
    times = (-tau + np.arange(2 * m + 1) * (0.5 * h)).tolist()
    if callable(history):
        values = [history(s) for s in times]
        wrong_length = ConfigError(f"history function must return length-{width} vectors")
        try:
            samples = np.array(values, dtype=float)
        except ValueError as exc:  # vectors of different lengths
            raise wrong_length from exc
        if samples.shape != (len(times), width):
            raise wrong_length
    else:
        samples = np.broadcast_to(history, (len(times), width))
    if not np.all(np.isfinite(samples)):
        raise ConfigError("initial history contains non-finite values")
    buffer.append(samples[::2].ravel())
    history_midpoints = samples[1::2]

    # numpy stays silent on overflow: only the divergence guard reports it
    with np.errstate(all="ignore"):
        # step i sets node m + i's slope: a chunk of at most m - 1 steps reads none of its own,
        # and no chunk crosses step m, the first to take Hermite midpoints
        chunk = min(_BLOCK_CHUNK, m - 1)
        block = getattr(rhs, "block", None) or _called_block(rhs, width)
        for first, last in ((0, min(m, steps)), (m, steps)):
            for lo in range(first, last, chunk):
                hi = min(lo + chunk, last)
                mids = history_midpoints[lo:hi] if lo < m else buffer.midpoints(lo, hi)
                states, slopes = block(lo, hi, buffer.node(m + lo).tolist(),
                                       buffer.states[lo:hi + 1].tolist(), mids.tolist(), h)
                buffer.append(states)
                buffer.set_derivative(m + lo, slopes)

    t = np.arange(-m, steps + 1, dtype=float) * h
    return t, buffer.states


@dataclass
class Trajectory:
    """Simulation output on the uniform grid covering [-tau, T].

    ``x`` rows are plant states, ``xhat`` observer states when the scenario
    has one, ``u`` the control value applied at each node (zero on the
    history segment). ``theta`` is carried along so the scaled coordinates
    can be reproduced. The arrays are not changed once it is made, so each
    norm column is computed on its first request and then kept, read-only.
    """

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray | None
    u: np.ndarray
    theta: float
    tau: float
    h: float
    _norm_x: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _norm_err: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def history_len(self) -> int:
        """Number of grid segments covering one delay interval."""
        return int(round(self.tau / self.h))

    def index_of(self, time: float) -> int:
        check_numbers(("time", time, True, "finite"), error=ContractViolation)
        position = (time - self.t[0]) / self.h
        j = int(round(position))
        if abs(position - j) > 1e-9 or j < 0 or j >= len(self.t):
            raise ContractViolation(f"time {time} is not a grid node")
        return j

    def norm_x(self) -> np.ndarray:
        if self._norm_x is None:
            self._norm_x = np.linalg.norm(self.x, axis=1)
            self._norm_x.flags.writeable = False
        return self._norm_x

    def norm_err(self) -> np.ndarray | None:
        if self.xhat is None:
            return None
        if self._norm_err is None:
            self._norm_err = np.linalg.norm(self.xhat - self.x, axis=1)
            self._norm_err.flags.writeable = False
        return self._norm_err

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
        return M, None, k, (plant,)  # output feedback: a nonlinearity-free observer


def _compile_loop(M, b, k, n: int, count: int, f, external):
    """The closed loop of a table (M, b, k) as generated straight-line Python on floats.

    The nonlinearity f acts on the first ``count`` n-blocks of z, and
    ``external`` gives u_ext(t) when b is set. Returns ``rhs(t, z, zd)``, a
    right-hand side for :func:`integrate` on 1-D arrays, which carries two
    more functions generated from the same stage code:

    - ``rhs.block``, integrate's RK4 steps of a chunk (see
      :func:`_rk4_block`), with each stage written out inline;
    - ``rhs.control(columns)`` is u = k z on the columns of the states.

    u, each row of M z and b v are sums that start from 0.0 and add the
    products of the nonzero entries in index order. So no BLAS kernel's
    summation order reaches a result, and an exact zero is +0. Table
    entries are bound as namespace values, never written as text, so inf
    and nan gains compile too. A stage spells an expression f of at most
    _INLINE_NODES operator nodes inline, through :func:`exprlang.emit`, and
    shares a call with the same operands between blocks; a literal-0
    component adds no term, as the sum is never -0.0. A callable f, or a
    larger one, is called as ``f.point`` once per block.
    """
    width = len(k)
    namespace = {"__builtins__": {}, "float": float, "point": f.point, "external": external}

    def bind(value) -> str:
        name = f"w{len(namespace)}"
        namespace[name] = value
        return name

    def weights(row) -> list:
        """The bound name of each nonzero entry of row (nan is not zero), None for a zero."""
        return [bind(value) if value != 0.0 else None for value in row.tolist()]

    def products(bound: list, values: list) -> list:
        return [f"{w} * {v}" for w, v in zip(bound, values) if w]

    M_bound, k_bound = [weights(row) for row in M], weights(k)
    b_bound = weights(b) if external is not None else [None] * width
    blocks = range(0, count * n, n)
    components = f.components
    if components is not None and sum(exprlang.operator_count(component, _INLINE_NODES)
                                      for component in components) > _INLINE_NODES:
        components = None

    def nonlinearity(z: list, zd: list) -> tuple[list, dict]:
        """Lines that compute f on each block of (z, zd) at u, and the operand
        that holds each component of z they give (none for a literal 0)."""
        if components is None:
            fs = [f"f{i}" for i in range(count * n)]
            return ([f"{_unpack(fs[lo:lo + n])} = "
                     f"point({_unpack(z[lo:lo + n])}, {_unpack(zd[lo:lo + n])}, u)" for lo in blocks],
                    dict(enumerate(fs)))
        items, rows = [], []
        for lo in blocks:
            read = {"u": "u", **{f"x{i + 1}": z[lo + i] for i in range(n)},
                    **{f"xd{i + 1}": zd[lo + i] for i in range(n)}}.get
            for i, component in enumerate(components):
                if component != exprlang.Num(0.0):
                    items.append((component, read))
                    rows.append(lo + i)
        lines, values = exprlang.emit(items, bind, "f_")
        return lines, dict(zip(rows, values))

    def stage(time: str, z: list, zd: list, out: list) -> list:
        """Lines that set ``out`` to the right-hand side at (time, z, zd)."""
        lines = [f"u = {_total(products(k_bound, z))}"]
        if external is not None:
            lines += [f"v = float(external({time}))", "u = u + v"]
        f_lines, fs = nonlinearity(z, zd)
        lines += f_lines
        for i in range(width):
            terms = products(M_bound[i], z)
            if b_bound[i]:
                terms.append(f"{b_bound[i]} * v")
            if i in fs:
                terms.append(fs[i])
            lines.append(f"{out[i]} = {_total(terms)}")
        return lines

    z, zd, dz = ([f"{prefix}{i}" for i in range(width)] for prefix in "zcp")
    source = "\n".join([
        "def rhs(t, z, zd):",
        f"    {_unpack(z)} = z.tolist()",
        f"    {_unpack(zd)} = zd.tolist()",
        *(f"    {line}" for line in stage("t", z, zd, dz)),
        f"    return {_unpack(dz)}",
        "def control(columns):",
        f"    {_unpack(z)} = columns",
        f"    return {_total(products(k_bound, z))}",
        "",
    ])
    exec(compile(source, "<closed loop>", "exec"), namespace)
    rhs = namespace["rhs"]
    rhs.block, rhs.control = _rk4_block(width, stage, namespace), namespace["control"]
    return rhs


def run_scenario(sys: SystemSpec, gains: GainSet, scenario: Scenario, phi, phi_hat=None,
                 h: float = 1e-3, horizon: float = 10.0,
                 u_ext: Callable[[float], float] | None = None) -> Trajectory:
    """Wire the requested closed-loop configuration and integrate it.

    phi (plant) and phi_hat (observer, when present) are constant vectors or
    callables on [-tau, 0]; a callable is called 2m + 3 times, a probe at 0
    here and integrate's 2m + 2. The plain observer scenario's control is
    u_ext, zero when omitted; the other scenarios ignore u_ext.
    """
    n = sys.n
    if gains.n != n:
        raise ConfigError(f"gain length {gains.n} does not match system dimension {n}")
    M, b, k, f_blocks = _closed_loop(scenario, gains)
    external = u_ext if b is not None else None

    if scenario.has_observer and phi_hat is None:
        raise ConfigError(f"scenario {scenario.value} needs an observer history")
    parts = [_as_history_fn(p, n)[0] for p in ((phi, phi_hat) if scenario.has_observer else (phi,))]
    stacked = (np.concatenate(parts) if not any(map(callable, parts))
               else lambda s: np.concatenate([p(s) if callable(p) else p for p in parts]))

    loop = _compile_loop(M, b, k, n, len(f_blocks), sys.f, external)
    t, states = integrate(loop, stacked, sys.tau, h, horizon)
    x, xhat = states[:, :n], (states[:, n:] if scenario.has_observer else None)

    # node m is t = 0: u is zero on the history and k z (+ u_ext) from there on
    m = int(round(sys.tau / h))
    u = np.zeros(len(t))
    with np.errstate(all="ignore"):  # the last node's u is never a stage's; it may overflow
        u[m:] = loop.control(states[m:].T)
    if external is not None:
        u[m:] += [float(external(ti)) for ti in t[m:]]

    return Trajectory(t=t, x=x, xhat=xhat, u=u, theta=gains.theta, tau=sys.tau, h=h)
