import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ratstab as rs
from ratstab import ddesim, exprlang
from ratstab.ddesim import DIVERGENCE_GUARD, HistoryBuffer, _closed_loop
from ratstab.errors import ConfigError, ContractViolation, DivergedError

from conftest import BENCH_X0, BENCH_XHAT0
from test_exprlang import _reference


def test_scalar_delay_oracle():
    # x' = -x(t-1), phi = 1: x(t) = 1 - t on [0,1], 1 - t + (t-1)^2/2 on [1,2]
    t, xs = rs.integrate(lambda t, x, xd: -xd, np.array([1.0]), tau=1.0, h=0.01, horizon=2.0)
    i1 = int(round((1.0 - t[0]) / 0.01))
    i2 = int(round((2.0 - t[0]) / 0.01))
    assert abs(xs[i1, 0]) <= 1e-10
    assert abs(xs[i2, 0] + 0.5) <= 1e-8
    mid = int(round((1.5 - t[0]) / 0.01))
    assert xs[mid, 0] == pytest.approx(1 - 1.5 + 0.25 / 2, abs=1e-8)


def test_zero_rhs_keeps_state():
    t, xs = rs.integrate(lambda t, x, xd: np.zeros(2), np.array([3.0, -1.0]),
                         tau=0.5, h=0.05, horizon=2.0)
    assert np.allclose(xs, [3.0, -1.0], atol=0.0)


def test_polynomial_history_is_exact():
    # phi(s) = 1 + s gives rhs -x(t-1) = -(t) on [0,1]; RK4 is exact for it
    t, xs = rs.integrate(lambda t, x, xd: -xd, lambda s: np.array([1.0 + s]),
                         tau=1.0, h=0.01, horizon=1.0)
    i1 = len(t) - 1
    assert xs[i1, 0] == pytest.approx(0.5, abs=1e-12)  # 1 - t^2/2 at t=1


def test_grid_layout_validation():
    rhs = lambda t, x, xd: -xd
    with pytest.raises(ConfigError):
        rs.integrate(rhs, np.array([1.0]), tau=1.0, h=0.3, horizon=2.0)  # h does not divide tau
    with pytest.raises(ConfigError):
        rs.integrate(rhs, np.array([1.0]), tau=1.0, h=1.0, horizon=2.0)  # m = 1 < 2
    with pytest.raises(ConfigError):
        rs.integrate(rhs, np.array([1.0]), tau=1.0, h=0.1, horizon=0.05)  # T < h
    with pytest.raises(ConfigError):
        rs.integrate(rhs, np.array([1.0]), tau=1.0, h=0.1, horizon=1.23)  # off-grid horizon
    with pytest.raises(ConfigError, match="step must be positive and finite, got -0.1"):
        rs.integrate(rhs, np.array([1.0]), tau=1.0, h=-0.1, horizon=2.0)
    with pytest.raises(ConfigError, match="delay must be positive and finite, got 0.0"):
        rs.integrate(rhs, np.array([1.0]), tau=0.0, h=0.1, horizon=2.0)


@pytest.mark.parametrize("h, horizon", [(0.1, math.inf), (0.1, 1e300), (1e-300, 2.0),
                                        (5e-324, 2.0), (0.1, 1e308)])
def test_unrepresentable_grid_is_a_config_error(h, horizon):
    # too many nodes for numpy's index range, or for a float to count
    with pytest.raises(ConfigError):
        rs.integrate(lambda t, x, xd: -xd, np.array([1.0]), tau=1.0, h=h, horizon=horizon)


def test_divergence_guard():
    # x' = x^2 from x(0) = 5 blows up around t = 0.2
    with pytest.raises(DivergedError) as err:
        rs.integrate(lambda t, x, xd: x * x, np.array([5.0]), tau=0.2, h=0.01, horizon=2.0)
    assert 0.0 < err.value.time <= 0.5


def test_history_buffer_node_reads_are_exact():
    buf = HistoryBuffer(t0=-1.0, h=0.5, capacity=8, width=1)
    values = np.array([[1.0], [2.0], [4.0]])
    slopes = np.array([[0.5], [0.5], [0.5]])
    buf.seed(values, slopes)
    assert buf.node(1)[0] == 2.0
    assert buf.value_at(-0.5)[0] == 2.0  # node-aligned lookup, no interpolation
    with pytest.raises(ContractViolation):
        buf.node(5)


def test_history_buffer_hermite_reproduces_cubics():
    # values/slopes from x(t) = t^3 - 2t: the cubic interpolant is exact
    h = 0.25
    ts = np.array([0.0, h])
    buf = HistoryBuffer(t0=0.0, h=h, capacity=4, width=1)
    buf.seed(np.array([[v**3 - 2 * v] for v in ts]), np.array([[3 * v**2 - 2] for v in ts]))
    for frac in (0.25, 0.5, 0.7):
        s = frac * h
        assert buf.value_at(s)[0] == pytest.approx(s**3 - 2 * s, abs=1e-14)
    assert buf.segment_midpoint(0)[0] == pytest.approx((h / 2) ** 3 - 2 * (h / 2), abs=1e-14)


def test_linear_closed_loop_matches_expm(linear_system, bench_gains):
    # f = 0: every scenario is the linear ODE z' = M z, written out here from
    # the plant x' = Ax + Bu and the observer xhat' = A xhat + Bu + L C (xhat - x)
    x0 = np.array([1.0, 1.0])
    xhat0 = np.array([0.5, -0.5])
    A, B, C = rs.build_companion(2)
    BK = np.outer(B, bench_gains.K_scaled)
    LC = np.outer(bench_gains.L_scaled, C)
    observer_based = np.block([[A, BK], [-LC, A + BK + LC]])
    closed = {
        rs.Scenario.OPEN_LOOP: A,
        rs.Scenario.STATE_FEEDBACK: A + BK,
        rs.Scenario.OBSERVER: np.block([[A, np.zeros((2, 2))], [-LC, A + LC]]),
        rs.Scenario.OBSERVER_BASED: observer_based,
        rs.Scenario.OUTPUT_FEEDBACK: observer_based,
    }
    for scenario in rs.Scenario:
        traj = rs.run_scenario(linear_system, bench_gains, scenario, x0, xhat0,
                               h=0.001, horizon=1.0)
        if scenario.has_observer:
            reference = scipy.linalg.expm(closed[scenario]) @ np.concatenate([x0, xhat0])
            final = np.concatenate([traj.x[-1], traj.xhat[-1]])
        else:
            reference = scipy.linalg.expm(closed[scenario]) @ x0
            final = traj.x[-1]
        assert np.linalg.norm(final - reference) <= 1e-8, scenario
        live = traj.t >= 0.0
        source = {rs.Scenario.STATE_FEEDBACK: traj.x, rs.Scenario.OBSERVER_BASED: traj.xhat,
                  rs.Scenario.OUTPUT_FEEDBACK: traj.xhat}.get(scenario)
        expected = 0.0 if source is None else source[live] @ bench_gains.K_scaled
        assert np.allclose(traj.u[live], expected, rtol=1e-12, atol=0.0), scenario


def test_benchmark_observer_based_converges(bench_system, bench_gains):
    traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                           BENCH_X0, BENCH_XHAT0, h=0.002, horizon=6.0)
    i0 = traj.index_of(0.0)
    assert traj.norm_err()[i0] == pytest.approx(np.sqrt(30.0**2 + 20.0**2), rel=1e-12)
    assert traj.norm_x()[-1] < 0.1 * traj.norm_x()[i0]
    assert traj.norm_err()[-1] < 1e-6 * traj.norm_err()[i0]


def test_zero_history_stays_zero(bench_system, bench_gains):
    for scenario in rs.Scenario:
        traj = rs.run_scenario(bench_system, bench_gains, scenario,
                               np.zeros(2), np.zeros(2), h=0.05, horizon=1.0)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.u == 0.0)
        if traj.xhat is not None:
            assert np.all(traj.xhat == 0.0)


def test_self_convergence_observer_only(bench_system, bench_gains):
    ends = {}
    for h in (0.02, 0.01, 0.005):
        traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER,
                               BENCH_X0, BENCH_XHAT0, h=h, horizon=3.0)
        ends[h] = np.concatenate([traj.x[-1], traj.xhat[-1]])
    d1 = np.linalg.norm(ends[0.02] - ends[0.01])
    d2 = np.linalg.norm(ends[0.01] - ends[0.005])
    assert d1 / d2 >= 12.0


def test_self_convergence_scalar_nonlinear():
    # delayed logistic x' = x (1 - x(t-1)), phi = 0.5
    ends = {}
    for h in (0.02, 0.01, 0.005):
        _, xs = rs.integrate(lambda t, x, xd: x * (1.0 - xd), np.array([0.5]),
                             tau=1.0, h=h, horizon=3.0)
        ends[h] = xs[-1]
    d1 = np.linalg.norm(ends[0.02] - ends[0.01])
    d2 = np.linalg.norm(ends[0.01] - ends[0.005])
    assert d1 / d2 >= 12.0


def test_self_convergence_across_the_slope_jump_at_zero():
    # phi'(0) = [2, 0] differs from x'(0+) = -2 phi(-1)[::-1] + sin(phi(0)), so the first
    # derivative jumps at t = 0; the scheme stays fourth order across it
    phi = lambda s: np.array([math.cos(3 * s) + 2 * s, 1 - s * s])
    rhs = lambda t, x, xd: -2 * xd[::-1] + np.sin(x) * math.cos(t)
    ends = {h: rs.integrate(rhs, phi, tau=1.0, h=h, horizon=3.0)[1][-1] for h in (0.02, 0.01, 0.005)}
    d1 = np.linalg.norm(ends[0.02] - ends[0.01])
    d2 = np.linalg.norm(ends[0.01] - ends[0.005])
    assert d1 / d2 >= 12.0


def test_determinism_bit_identical(bench_system, bench_gains):
    runs = [
        rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                        BENCH_X0, BENCH_XHAT0, h=0.005, horizon=2.0)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].x, runs[1].x)
    assert np.array_equal(runs[0].xhat, runs[1].xhat)
    assert np.array_equal(runs[0].u, runs[1].u)


def test_causality_prefix_invariant(bench_system, bench_gains):
    short = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                            BENCH_X0, BENCH_XHAT0, h=0.01, horizon=2.0)
    long = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                           BENCH_X0, BENCH_XHAT0, h=0.01, horizon=4.0)
    count = len(short.t)
    assert np.array_equal(short.x, long.x[:count])
    assert np.array_equal(short.xhat, long.xhat[:count])


def test_stiff_step_diverges(bench_system, bench_gains):
    # fastest closed-loop mode times h = 0.02 sits outside the RK4 stability interval
    with pytest.raises(DivergedError):
        rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                        BENCH_X0, BENCH_XHAT0, h=0.02, horizon=3.0)


def test_output_feedback_observer_is_nonlinearity_free(bench_system, linear_system, bench_gains):
    kwargs = dict(h=0.005, horizon=1.0)
    # with f = 0 both observer couplings coincide exactly
    a = rs.run_scenario(linear_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                        BENCH_X0, BENCH_XHAT0, **kwargs)
    b = rs.run_scenario(linear_system, bench_gains, rs.Scenario.OUTPUT_FEEDBACK,
                        BENCH_X0, BENCH_XHAT0, **kwargs)
    assert np.array_equal(a.xhat, b.xhat)
    # with the benchmark f they must differ
    c = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                        BENCH_X0, BENCH_XHAT0, **kwargs)
    d = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OUTPUT_FEEDBACK,
                        BENCH_X0, BENCH_XHAT0, **kwargs)
    assert not np.array_equal(c.xhat, d.xhat)


def test_observer_scenario_external_input(bench_system, bench_gains):
    traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER,
                           BENCH_X0, BENCH_XHAT0, h=0.01, horizon=1.0,
                           u_ext=lambda t: 0.25)
    i0 = traj.index_of(0.0)
    assert np.all(traj.u[:i0] == 0.0)
    assert np.all(traj.u[i0:] == 0.25)


def test_trajectory_transforms(bench_system, bench_gains):
    traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                           BENCH_X0, BENCH_XHAT0, h=0.01, horizon=1.0)
    scaling = np.array([1.0, 1.0 / 8.0])
    assert np.allclose(traj.eta(), (traj.xhat - traj.x) * scaling, atol=0.0)
    assert np.allclose(traj.chi(), traj.x * scaling, atol=0.0)
    i0 = traj.index_of(0.0)
    live = traj.t >= 0.0
    assert np.allclose(traj.u[live], traj.xhat[live] @ bench_gains.K_scaled, atol=0.0)
    assert np.all(traj.u[:i0] == 0.0)
    with pytest.raises(ContractViolation):
        traj.index_of(0.0051)


def test_scenario_dimension_checks(bench_gains):
    sys3 = rs.SystemSpec(n=3, tau=1.0, f=rs.make_nonlinearity("zero", 3), lipschitz_k=0.0)
    with pytest.raises(ConfigError):
        rs.run_scenario(sys3, bench_gains, rs.Scenario.OPEN_LOOP, np.zeros(3), h=0.01, horizon=1.0)


def test_observer_scenario_requires_history(bench_system, bench_gains):
    with pytest.raises(ConfigError):
        rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED,
                        BENCH_X0, None, h=0.01, horizon=1.0)


# --- same arithmetic as a step-by-step RK4 loop ------------------------------


def _stepwise_integrate(rhs, phi, tau, h, horizon):
    """Reference method of steps on its own arrays: for steps 0..m-1 the
    delayed midpoint is phi at that time, after that one Hermite midpoint
    per step, by the weights written out, on the slopes the steps stored;
    the factor (h / 6.0) inside the update; and the divergence guard as two
    checks (non-finite entries, then the Euclidean norm). integrate must
    return the same bits and raise at the same time."""
    m, steps = int(round(tau / h)), int(round(horizon / h))
    history = phi if callable(phi) else (lambda s: np.asarray(phi, dtype=float))
    width = len(history(0.0))
    states, derivs = np.empty((m + steps + 1, width)), np.full((m + steps + 1, width), np.nan)
    states[:m + 1] = [history(-tau + j * h) for j in range(m + 1)]
    half = 0.5 * h
    for i in range(steps):
        t = i * h
        x = states[m + i]
        k1 = np.asarray(rhs(t, x, states[i]), dtype=float)
        derivs[m + i] = k1
        if i < m:
            x_mid_delayed = np.asarray(history(-tau + (i + 0.5) * h), dtype=float)
        else:
            x_mid_delayed = (0.5 * states[i] + h * 0.125 * derivs[i]
                             + 0.5 * states[i + 1] + h * -0.125 * derivs[i + 1])
        k2 = np.asarray(rhs(t + half, x + half * k1, x_mid_delayed), dtype=float)
        k3 = np.asarray(rhs(t + half, x + half * k2, x_mid_delayed), dtype=float)
        k4 = np.asarray(rhs(t + h, x + h * k3, states[i + 1]), dtype=float)
        advanced = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(advanced)) or np.linalg.norm(advanced) > DIVERGENCE_GUARD:
            raise DivergedError((i + 1) * h)
        states[m + i + 1] = advanced
    return states


def _spelled_dot(M, z):
    """M z, or k z for a 1-D k, as sums that start from 0.0 and add the
    products of the nonzero entries in index order: the sums the generated
    closed loop spells, which no BLAS kernel reorders. (Python's ``sum``
    compensates from 3.12 on, so the loop is written out.)"""
    sums = []
    for row in np.atleast_2d(M).tolist():
        total = 0.0
        for a, v in zip(row, z.tolist()):
            if a != 0.0:
                total += a * v
        sums.append(total)
    return sums[0] if np.ndim(M) == 1 else np.array(sums)


def _matmul_rhs(sys_spec, gains, scenario):
    # the closed-loop right-hand side written with numpy rows and the spelled sums
    M, _, k, f_blocks = _closed_loop(scenario, gains)

    def rhs(t, z, zd):
        u = _spelled_dot(k, z)
        dz = _spelled_dot(M, z)
        for block in f_blocks:
            dz[block] += sys_spec.f(z[block], zd[block], u)
        return dz

    return rhs


def test_integrate_matches_stepwise_loop_on_benchmark(bench_system, bench_gains):
    scenario = rs.Scenario.OBSERVER_BASED
    phi = np.concatenate([BENCH_X0, BENCH_XHAT0])
    rhs = _matmul_rhs(bench_system, bench_gains, scenario)
    reference = _stepwise_integrate(rhs, phi, 1.0, 0.002, 3.0)
    _, states = rs.integrate(rhs, phi, tau=1.0, h=0.002, horizon=3.0)
    assert np.array_equal(states, reference)
    traj = rs.run_scenario(bench_system, bench_gains, scenario, BENCH_X0, BENCH_XHAT0,
                           h=0.002, horizon=3.0)
    assert np.array_equal(np.hstack([traj.x, traj.xhat]), reference)


def test_run_scenario_memory_does_not_grow_with_the_delay(bench_gains):
    # m = 3,000 steps a delay: t, x, xhat and u take 0.43 MB, while Python-float
    # lists of whole Hermite blocks peak at 4.2 MB (tracemalloc)
    system = rs.SystemSpec(n=2, tau=3.0, f=rs.make_nonlinearity("paper_example", 2), lipschitz_k=0.5)
    tracemalloc.start()
    try:
        traj = rs.run_scenario(system, bench_gains, rs.Scenario.OBSERVER_BASED, BENCH_X0, BENCH_XHAT0,
                               h=1e-3, horizon=6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.history_len == 3_000 and len(traj.t) == 9_001
    assert peak < 2e6


def test_run_scenario_takes_u_from_a_view_of_the_states(bench_system, bench_gains, monkeypatch):
    # u is k z on the nodes from t = 0 on, taken from a view of the states there: after
    # integrate returns, run_scenario allocates u and the temporaries of k z's sums, about
    # 3.75 arrays of u's length; a copy of those states' rows would add about 4 more
    integrate = ddesim.integrate

    def then_trace(*args):
        result = integrate(*args)
        tracemalloc.start()
        return result

    monkeypatch.setattr(ddesim, "integrate", then_trace)
    try:
        traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED, BENCH_X0,
                               BENCH_XHAT0, h=1e-3, horizon=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.u) == 11_001
    assert peak < 5 * traj.u.nbytes


def test_history_buffer_takes_several_rows_a_call():
    rng = np.random.default_rng(3)
    values, slopes = rng.normal(size=(2, 6, 2))
    one, several = (HistoryBuffer(t0=0.0, h=0.1, capacity=8, width=2) for _ in range(2))
    for buf in (one, several):
        buf.seed(values[:3], slopes[:3])
    for row, slope in zip(values[3:], slopes[3:]):
        one.append(row)
        one.set_derivative(len(one.states) - 1, slope)
    several.append(*values[3:].tolist())
    several.set_derivative(3, *slopes[3:].tolist())
    assert np.array_equal(several.states, values) and np.array_equal(one.states, values)
    assert np.array_equal(several.midpoints(0, 5), one.midpoints(0, 5))


def test_history_buffer_rejects_partial_rows():
    buf = HistoryBuffer(t0=0.0, h=0.1, capacity=8, width=2)
    with pytest.raises(ContractViolation, match="3 values are not whole rows of width 2"):
        buf.append([1.0, 2.0, 3.0])
    with pytest.raises(ContractViolation, match="3 values are not whole rows of width 2"):
        buf.set_derivative(0, [1.0, 2.0, 3.0])
    assert len(buf.states) == 0


def _opaque_f3(x, xd, u):
    return [0.5 * math.sin(x[0]) + 0.2 * xd[0] * math.cos(u), math.tanh(x[1] * xd[0]) - 0.1 * xd[1],
            0.3 * math.sin(xd[2]) * math.tanh(x[0]) + 0.1 * x[2] * xd[1]]


F3_KINDS = {
    "registry": lambda: rs.make_nonlinearity("paper_example", 3),
    "expression": lambda: rs.make_nonlinearity(
        ["0.5*sin(x1) + 0.2*xd1*cos(u)", "tanh(x2*xd1) - 0.1*xd2", "0.3*sin(xd3)*tanh(x1) + 0.1*x3*xd2"], 3),
    "every-function": lambda: rs.make_nonlinearity(
        ["0.5*sin(x1) + 0.2*xd1*cos(u) - 0.1*xd1/(1 + abs(x1))",
         "-0.1*xd2 + tanh(x2*xd1) + 0.05*ln(1 + x2^2)",
         "0.1*tan(0.5*xd3) + 0.05*(sqrt(1 + x3*x3) - 1) - 0.02*(exp(x1) - 1)"], 3),
    "opaque": lambda: rs.Nonlinearity(3, fn=_opaque_f3),
}


def _walked(f):
    """f(x, xd, u) of a Nonlinearity without generated code: expression components
    by a recursive walk over exprlang's scalar table, a callable f through its call."""
    if f.components is None:
        return f

    def value(x, xd, u):
        env = {"u": u, **{f"x{i + 1}": v for i, v in enumerate(x.tolist())},
               **{f"xd{i + 1}": v for i, v in enumerate(xd.tolist())}}
        return np.array([_reference(component, env, exprlang._SCALAR_OPS) for component in f.components])

    return value


def _stepwise_loop(sys_spec, gains, scenario, x0, xhat0, h, horizon, u_ext=None):
    """The stepwise reference of run_scenario's states: per-block M @ z and one walked
    f per block, integrated step by step."""
    M, b, k, f_blocks = _closed_loop(scenario, gains)
    f = _walked(sys_spec.f)

    def rhs(t, z, zd):
        u = _spelled_dot(k, z)
        dz = _spelled_dot(M, z)
        if b is not None and u_ext is not None:
            v = float(u_ext(t))
            u += v
            dz += b * v
        for block in f_blocks:
            dz[block] += f(z[block], zd[block], u)
        return dz

    phi = np.concatenate([x0, xhat0]) if scenario.has_observer else np.asarray(x0, dtype=float)
    return _stepwise_integrate(rhs, phi, sys_spec.tau, h, horizon)


def _states(traj):
    return np.hstack([traj.x, traj.xhat]) if traj.xhat is not None else traj.x


@pytest.mark.parametrize("kind", sorted(F3_KINDS))
@pytest.mark.parametrize("scenario, u_ext", [pytest.param(s, None, id=s.value) for s in rs.Scenario] + [
    pytest.param(rs.Scenario.OBSERVER, lambda t: math.sin(3.0 * t), id="observer-u_ext")])
def test_run_scenario_matches_stepwise_loop(kind, scenario, u_ext):
    # reference: per-block M @ z and f walked per block, integrated step by step
    sys_spec = rs.SystemSpec(n=3, tau=0.1, f=F3_KINDS[kind](), lipschitz_k=1.0)
    gains = rs.GainSet(L=[-3.0, -3.0, -1.0], K=[-1.0, -3.0, -3.0], theta=2.0)
    x0, xhat0 = np.array([0.8, -0.5, 0.3]), np.array([-0.4, 0.6, 0.1])
    reference = _stepwise_loop(sys_spec, gains, scenario, x0, xhat0, 0.01, 1.0, u_ext)
    traj = rs.run_scenario(sys_spec, gains, scenario, x0, xhat0, h=0.01, horizon=1.0, u_ext=u_ext)
    assert np.array_equal(_states(traj), reference)


@pytest.mark.parametrize("n, scenario", [(1, rs.Scenario.OPEN_LOOP), (4, rs.Scenario.OBSERVER_BASED)],
                         ids=["width-1", "width-8"])
def test_flat_row_hand_off_matches_the_stepwise_loop_at_every_width(n, scenario):
    # the generated block hands integrate each chunk's states and slopes as flat lists, which
    # HistoryBuffer stores as rows of the state's width: 1 for the open loop at n = 1, 8 with
    # the observer at n = 4. m = 300 gives chunks of 256 steps, and 400 steps end mid-chunk
    texts = ["0.5*sin(x1) + 0.2*xd1*cos(u)", "tanh(x2*xd1) - 0.1*xd2",
             "0.3*sin(xd3)*tanh(x1) + 0.1*x3*xd2", "0.1*x4*cos(xd1) - 0.2*xd4"][:n]
    sys_spec = rs.SystemSpec(n=n, tau=3.0, f=rs.make_nonlinearity(texts, n), lipschitz_k=1.0)
    # companion gains with every pole at -1
    gains = (rs.GainSet(L=[-1.0], K=[-1.0], theta=2.0) if n == 1 else
             rs.GainSet(L=[-4.0, -6.0, -4.0, -1.0], K=[-1.0, -4.0, -6.0, -4.0], theta=2.0))
    x0, xhat0 = np.array([0.8, -0.5, 0.3, 0.2][:n]), np.array([-0.4, 0.6, 0.1, -0.2][:n])
    m, steps = 300, 400
    assert steps % min(ddesim._BLOCK_CHUNK, m - 1) != 0
    reference = _stepwise_loop(sys_spec, gains, scenario, x0, xhat0, 0.01, 4.0)
    traj = rs.run_scenario(sys_spec, gains, scenario, x0, xhat0, h=0.01, horizon=4.0)
    states = _states(traj)
    assert states.shape == (m + steps + 1, 2 * n if scenario.has_observer else n)
    assert np.all(np.isfinite(states)) and np.array_equal(states, reference)


_F3_GAINS = dict(L=[-3.0, -3.0, -1.0], K=[-1.0, -3.0, -3.0], theta=2.0)
_F3_CASES = [pytest.param(s, None, id=s.value) for s in rs.Scenario] + [
    pytest.param(rs.Scenario.OBSERVER, lambda t: math.sin(3.0 * t), id="observer-u_ext")]


@pytest.mark.parametrize("kind", sorted(F3_KINDS))
@pytest.mark.parametrize("scenario, u_ext", _F3_CASES)
def test_generated_block_equals_the_loop_as_a_plain_rhs(kind, scenario, u_ext, monkeypatch):
    # integrate runs the loop's generated block of steps, its stages inline; with the
    # block hidden it generates one whose stages call the loop, to the same bits
    sys_spec = rs.SystemSpec(n=3, tau=0.1, f=F3_KINDS[kind](), lipschitz_k=1.0)
    args = (sys_spec, rs.GainSet(**_F3_GAINS), scenario, [0.8, -0.5, 0.3], [-0.4, 0.6, 0.1])
    kwargs = dict(h=0.01, horizon=1.0, u_ext=u_ext)
    generated = rs.run_scenario(*args, **kwargs)
    integrate, loops = ddesim.integrate, []

    def plain(rhs, *rest):
        loops.append(rhs)
        return integrate(lambda t, z, zd: rhs(t, z, zd), *rest)

    monkeypatch.setattr(ddesim, "integrate", plain)
    hidden = rs.run_scenario(*args, **kwargs)
    assert callable(loops[0].block)
    assert np.array_equal(generated.x, hidden.x)
    assert np.array_equal(generated.u, hidden.u)
    if scenario.has_observer:
        assert np.array_equal(generated.xhat, hidden.xhat)


def _over_the_inline_limit():
    """A sum of literal multiples of x1: one operator node more than a stage spells inline."""
    terms = ddesim._INLINE_NODES // 2 + 1  # a product per term and a sum between terms
    return "+".join(f"{0.01 * (j + 1):g}*x1" for j in range(terms))


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "point"])
def test_trig_of_an_overflowing_operand_diverges_with_the_reference(inline, monkeypatch):
    # exp(700 x1) overflows to +inf once x1 passes 1.014; sin(inf) is nan, so the state is
    # nan, in the generated stage and in the walk over the scalar table alike
    monkeypatch.setattr(ddesim, "_INLINE_NODES", ddesim._INLINE_NODES if inline else -1)
    sys_spec = rs.SystemSpec(n=3, tau=0.1, f=rs.make_nonlinearity(["0.1*x1*sin(exp(700*x1))", "0", "0"], 3),
                             lipschitz_k=1.0)
    args = (sys_spec, rs.GainSet(**_F3_GAINS), rs.Scenario.OPEN_LOOP, [0.8, 2.0, 0.0], None)
    with pytest.raises(DivergedError) as expected:
        _stepwise_loop(*args, h=0.01, horizon=1.0)
    with pytest.raises(DivergedError) as err:
        rs.run_scenario(*args, h=0.01, horizon=1.0)
    assert err.value.time == expected.value.time and 0.05 < err.value.time < 0.5


def _distinct_literal_text(tokens):
    """A component of at most ``tokens`` tokens, a sum of bracketed 50-term chains with
    one distinct literal per term: its tree stays under the height cap."""
    group = lambda j: "(" + "+".join(f"{1e-7 * (50 * j + i + 1):.6e}*x1" for i in range(50)) + ")"
    return "+".join(group(j) for j in range((tokens + 1) // 202))  # 201 tokens a group and a +


_DEEPEST = "-" * 149 + "(x1" + "+x1" * 150 + ")"  # 300 levels, the most parse accepts


@pytest.mark.parametrize("text, inline", [
    pytest.param(_DEEPEST, False, id="deepest-point"),
    pytest.param(_DEEPEST, True, id="deepest-inline"),
    pytest.param(_distinct_literal_text(9_900), False, id="large-point"),
])
def test_deep_and_large_f_match_the_stepwise_reference(text, inline, monkeypatch):
    tree = exprlang.parse(text)
    if inline:  # no stage spells a 300-node f inline unless the limit admits it
        monkeypatch.setattr(ddesim, "_INLINE_NODES", exprlang.operator_count(tree))
    else:
        assert exprlang.operator_count(tree) > ddesim._INLINE_NODES
    sys_spec = rs.SystemSpec(n=2, tau=0.05, f=rs.Nonlinearity(2, components=[tree, exprlang.Num(0.0)]),
                             lipschitz_k=1.0)
    gains = rs.GainSet(L=[-3.0, -2.0], K=[-2.0, -3.0], theta=2.0)
    x0, xhat0 = np.array([0.8, -0.5]), np.array([-0.4, 0.6])
    scenario = rs.Scenario.OBSERVER_BASED
    reference = _stepwise_loop(sys_spec, gains, scenario, x0, xhat0, 0.01, 0.2)
    # trace the loop's compilation only: tracemalloc looks up the line of every float that
    # a 5,000-line point allocates, which slows integration a thousandfold
    integrate, peaks = ddesim.integrate, []

    def untraced(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return integrate(*args)

    monkeypatch.setattr(ddesim, "integrate", untraced)
    tracemalloc.start()
    try:
        traj = rs.run_scenario(sys_spec, gains, scenario, x0, xhat0, h=0.01, horizon=0.2)
    finally:
        tracemalloc.stop()
    assert np.array_equal(_states(traj), reference)
    # stages that call point compile at the cost of a small f; spelled inline, the large f
    # peaked near 92 MB
    assert inline or peaks[0] < 1e6


@pytest.mark.parametrize("scenario", list(rs.Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize("kind, calls_per_stage", [("expression", 0), ("opaque", 1), ("over-limit", 1)])
def test_point_is_called_only_for_a_callable_or_oversized_f(kind, calls_per_stage, scenario):
    f = (rs.make_nonlinearity([_over_the_inline_limit(), "0", "0"], 3) if kind == "over-limit"
         else F3_KINDS[kind]())
    calls, point = [], f.point

    def counted(*args):
        calls.append(args)
        return point(*args)

    f.point = counted
    sys_spec = rs.SystemSpec(n=3, tau=0.1, f=f, lipschitz_k=1.0)
    rs.run_scenario(sys_spec, rs.GainSet(**_F3_GAINS), scenario, [0.8, -0.5, 0.3], [-0.4, 0.6, 0.1],
                    h=0.01, horizon=1.0)
    blocks = len(_closed_loop(scenario, rs.GainSet(**_F3_GAINS))[3])
    assert len(calls) == calls_per_stage * 4 * blocks * 100


def test_run_scenario_integrates_once_through_the_module_attribute(bench_system, bench_gains,
                                                                   monkeypatch):
    # a tracer that wraps ddesim.integrate reads h and horizon at positions 3 and 4
    calls, integrate = [], ddesim.integrate

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ddesim, "integrate", spy)
    rs.run_scenario(bench_system, bench_gains, rs.Scenario.OBSERVER_BASED, BENCH_X0, BENCH_XHAT0,
                    h=0.01, horizon=2.0)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 5 and (args[3], args[4]) == (0.01, 2.0)


_KERNEL_PROBE = """
import contextlib, hashlib, math, os, sys
import ratstab as rs
from ratstab import cli
with contextlib.redirect_stdout(open(os.devnull, "w")):
    assert cli.main(["repro-paper", "--out", sys.argv[1]]) == 0
f = rs.make_nonlinearity(["0.5*sin(x1) + 0.2*xd1*cos(u)", "tanh(x2*xd1) - 0.1*xd2",
                          "0.3*sin(xd3)*tanh(x1) + 0.1*x3*xd2"], 3)
sys_spec = rs.SystemSpec(n=3, tau=0.1, f=f, lipschitz_k=1.0)
gains = rs.GainSet(L=[-3.0, -3.0, -1.0], K=[-1.0, -3.0, -3.0], theta=2.0)
for scenario in rs.Scenario:
    traj = rs.run_scenario(sys_spec, gains, scenario, [0.8, -0.5, 0.3], [-0.4, 0.6, 0.1],
                           h=0.01, horizon=1.0, u_ext=lambda t: math.sin(3.0 * t))
    parts = [traj.x, traj.u] + ([traj.xhat] if traj.xhat is not None else [])
    print(scenario.value, hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest())
"""


def test_trajectories_are_the_same_under_every_blas_kernel(tmp_path):
    # numpy's dot products sum in a kernel-specific order; the closed loop spells its sums,
    # so the trajectory files and states must not change with OPENBLAS_CORETYPE
    src = str(Path(rs.__file__).resolve().parents[1])
    runs = {}
    for kernel in (None, "Nehalem"):
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / (kernel or "default")
        done = subprocess.run([sys.executable, "-c", _KERNEL_PROBE, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        files = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("repro_trajectory.csv", "repro_trajectory.svg")}
        runs[kernel] = (files, done.stdout.split())
    assert len(runs[None][1]) == 2 * len(rs.Scenario)
    assert runs[None] == runs["Nehalem"]


@pytest.mark.parametrize("tau, h", [(1.0, 0.05), (0.02, 0.01)], ids=["m=20", "m=2"])
def test_integrate_matches_stepwise_loop_with_callable_history(tau, h):
    # phi'(0) = 2 differs from the right-hand side at t = 0, so the first derivative
    # jumps at node m, where the midpoints taken from phi give way to Hermite ones
    phi = lambda s: np.array([math.cos(3.0 * s) + 2.0 * s])
    rhs = lambda t, x, xd: -2.0 * xd + np.sin(x)
    reference = _stepwise_integrate(rhs, phi, tau, h, 3.0)
    _, states = rs.integrate(rhs, phi, tau=tau, h=h, horizon=3.0)
    assert np.array_equal(states, reference)


@pytest.mark.parametrize("m, steps", sorted({(m, steps) for m in (2, 5)
                                             for steps in (m - 1, m, m + 1, 2 * m - 1, 2 * m)}
                                            | {(257, 600), (258, 600)}))
def test_integrate_matches_stepwise_loop_at_the_block_edges(m, steps):
    # chunks of min(_BLOCK_CHUNK, m - 1) steps, none across step m; step m - 1 is the
    # last to take its delayed midpoint from phi, whose phi'(0) = 2 differs from the
    # right-hand side, as in the test above. At m = 257 that step is a chunk's first row,
    # at m = 258 its second; 600 steps leave a ragged last chunk
    assert ddesim._BLOCK_CHUNK == 256
    phi = lambda s: np.array([math.cos(3.0 * s) + 2.0 * s, 1.0 - s * s])
    rhs = lambda t, x, xd: -2.0 * xd + np.sin(x)
    h = 0.05
    reference = _stepwise_integrate(rhs, phi, m * h, h, steps * h)
    _, states = rs.integrate(rhs, phi, tau=m * h, h=h, horizon=steps * h)
    assert np.array_equal(states, reference)


def test_integrate_calls_the_right_hand_side_four_times_per_step():
    calls = []

    def rhs(t, x, xd):
        calls.append(t)
        return -xd

    rs.integrate(rhs, np.array([1.0]), tau=0.1, h=0.02, horizon=1.0)
    assert len(calls) == 4 * 50


def test_integrate_samples_a_callable_history_2m_plus_1_times_after_its_probe():
    # the m + 1 nodes and the m segment midpoints of [-tau, 0]
    calls = []

    def phi(s):
        calls.append(s)
        return [math.cos(3.0 * s) + 2.0 * s]

    m, h = 20, 0.01
    rs.integrate(lambda t, x, xd: -xd, phi, tau=m * h, h=h, horizon=0.1)
    assert calls[0] == 0.0 and len(calls) == 1 + 2 * m + 1
    assert -m * h - 1e-9 < min(calls) and max(calls) < 1e-9  # no sample leaves [-tau, 0]



@pytest.mark.parametrize("scenario", [rs.Scenario.STATE_FEEDBACK, rs.Scenario.OBSERVER_BASED],
                         ids=lambda s: s.value)
def test_run_scenario_calls_each_callable_history_2m_plus_3_times(bench_gains, scenario):
    # run_scenario probes each history at 0, then integrate probes the joined one and
    # samples it at the m + 1 nodes and the m segment midpoints of [-tau, 0]
    calls = {"x": [], "xhat": []}

    def history(name, value):
        def phi(s):
            calls[name].append(s)
            return [value, -value]
        return phi

    m, h = 10, 0.001
    sys_spec = rs.SystemSpec(n=2, tau=m * h, f=rs.make_nonlinearity("zero", 2), lipschitz_k=0.0)
    rs.run_scenario(sys_spec, bench_gains, scenario, history("x", 1.0), history("xhat", 0.5),
                    h=h, horizon=0.02)
    assert len(calls["x"]) == 2 * m + 3
    assert calls["xhat"] == (calls["x"] if scenario.has_observer else [])


# inexact in binary (3 * 0.1 != 0.3), so arithmetic on its samples would show in the bits
_INEXACT_CONSTANT = np.array([0.1, -0.7, 0.3])


def test_constant_and_callable_histories_give_the_same_bits():
    rhs = lambda t, x, xd: -2.0 * xd[::-1] + np.sin(x)
    _, constant = rs.integrate(rhs, _INEXACT_CONSTANT, tau=0.1, h=0.01, horizon=1.0)
    _, called = rs.integrate(rhs, lambda s: _INEXACT_CONSTANT.tolist(), tau=0.1, h=0.01, horizon=1.0)
    assert np.array_equal(constant, called)
    assert np.array_equal(constant, _stepwise_integrate(rhs, _INEXACT_CONSTANT, 0.1, 0.01, 1.0))


@pytest.mark.parametrize("scenario", list(rs.Scenario), ids=lambda s: s.value)
def test_run_scenario_gives_constant_and_callable_histories_the_same_bits(scenario, monkeypatch):
    sys_spec = rs.SystemSpec(n=3, tau=0.1, f=F3_KINDS["expression"](), lipschitz_k=1.0)
    xhat0 = np.array([-0.4, 0.6, 0.1])
    histories, integrate = [], ddesim.integrate

    def spy(rhs, phi, *rest):
        histories.append(phi)
        return integrate(rhs, phi, *rest)

    monkeypatch.setattr(ddesim, "integrate", spy)
    runs = [rs.run_scenario(sys_spec, rs.GainSet(**_F3_GAINS), scenario, phi, phi_hat, h=0.01, horizon=1.0)
            for phi, phi_hat in [(_INEXACT_CONSTANT, xhat0),
                                 (lambda s: _INEXACT_CONSTANT.tolist(), lambda s: xhat0.copy()),
                                 (lambda s: _INEXACT_CONSTANT.copy(), xhat0)]]  # callable plant only
    # constants reach integrate as one constant, not as a function that returns it
    stacked = np.concatenate([_INEXACT_CONSTANT, xhat0]) if scenario.has_observer else _INEXACT_CONSTANT
    assert type(histories[0]) is np.ndarray and np.array_equal(histories[0], stacked)
    assert callable(histories[1]) and callable(histories[2])
    for called in runs[1:]:
        assert np.array_equal(called.x, runs[0].x) and np.array_equal(called.u, runs[0].u)
        if scenario.has_observer:
            assert np.array_equal(called.xhat, runs[0].xhat)


_SLOPE_SHAPES = {
    "list": lambda slope: slope.tolist(),
    "tuple": lambda slope: tuple(slope.tolist()),
    "length-1": lambda slope: slope[:1].copy(),
    "scalar": lambda slope: float(slope[0]),
}


@pytest.mark.parametrize("shape", sorted(_SLOPE_SHAPES))
def test_plain_rhs_gets_float_vectors_and_may_return_any_broadcastable_slope(shape):
    # a plain right-hand side receives 1-D float64 arrays of the state's width, and
    # its result counts as np.asarray(..., dtype=float) broadcast to that width
    phi = lambda s: np.array([math.cos(3.0 * s) + 2.0 * s, 1.0 - s * s])

    def rhs(t, x, xd):
        for v in (x, xd):
            assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (2,)
        return _SLOPE_SHAPES[shape](-2.0 * xd[::-1] + np.sin(x) * math.cos(t))

    reference = _stepwise_integrate(rhs, phi, 0.25, 0.05, 1.5)
    _, states = rs.integrate(rhs, phi, tau=0.25, h=0.05, horizon=1.5)
    assert np.array_equal(states, reference)


def test_block_midpoints_equal_single_segments_across_break():
    m, width = 6, 2
    rng = np.random.default_rng(7)
    buf = HistoryBuffer(t0=-0.6, h=0.1, capacity=3 * m, width=width)
    values, slopes = rng.normal(size=(m + 1, width)), rng.normal(size=(m + 1, width))
    buf.seed(values, slopes)
    for j in range(m, 2 * m):
        buf.set_derivative(j, rng.normal(size=width))  # overwrites the right slope at node m
        buf.append(rng.normal(size=width))
    for start, stop in [(0, m - 1), (1, m + 2), (m - 1, m), (m, 2 * m - 1), (0, 2 * m - 1)]:
        block = buf.midpoints(start, stop)
        assert block.shape == (stop - start, width)
        for row, j in enumerate(range(start, stop)):
            assert np.array_equal(block[row], buf.segment_midpoint(j))
    with pytest.raises(ContractViolation):
        buf.midpoints(m + 1, 2 * m + 1)  # its last segment ends past the stored nodes
    with pytest.raises(ContractViolation):
        buf.midpoints(3, 3)


# --- divergence guard --------------------------------------------------------


def _breaks_at(value, t_break):
    return lambda t, x, xd: np.full(len(x), value) if t >= t_break else -xd


@pytest.mark.parametrize("rhs, phi", [
    (_breaks_at(np.nan, 0.3), np.array([1.0])),
    (_breaks_at(np.inf, 0.3), np.array([1.0, -2.0])),
    (_breaks_at(1e15, 0.5), np.array([1.0, -2.0])),
    (lambda t, x, xd: x * x, np.array([5.0])),
    (lambda t, x, xd: np.zeros(1), np.array([np.nextafter(DIVERGENCE_GUARD, np.inf)])),
], ids=["nan", "inf", "past-guard", "blow-up", "one-ulp-past-guard"])
def test_divergence_guard_matches_stepwise_checks(rhs, phi):
    with pytest.raises(DivergedError) as expected:
        _stepwise_integrate(rhs, phi, 0.2, 0.01, 2.0)
    with pytest.raises(DivergedError) as err:
        rs.integrate(rhs, phi, tau=0.2, h=0.01, horizon=2.0)
    assert err.value.time == expected.value.time


def test_overflow_is_reported_by_the_guard_alone():
    # the first stage overflows M x; numpy must not warn before the guard raises
    M = np.array([[0.0, 1e200], [-1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError) as err:
            rs.integrate(lambda t, x, xd: M.dot(x), [1.0, 1.0], tau=0.2, h=0.01, horizon=2.0)
    assert err.value.time == 0.01


def test_divergence_guard_admits_the_guard_itself():
    # a state of norm exactly 1e12 is not past the guard, in either form
    phi = np.array([DIVERGENCE_GUARD])
    rhs = lambda t, x, xd: np.zeros(1)
    _, states = rs.integrate(rhs, phi, tau=0.2, h=0.01, horizon=0.5)
    assert np.array_equal(states, _stepwise_integrate(rhs, phi, 0.2, 0.01, 0.5))
    assert np.all(states == DIVERGENCE_GUARD)


def test_history_not_finite_between_nodes_is_a_config_error(bench_system, bench_gains):
    # nan only inside the first segment: every node is finite, its midpoint is not
    tau, h = 0.2, 0.01
    calls = []

    def phi(s):
        calls.append(s)
        return [math.nan if -tau < s < -tau + h else 0.0]

    with pytest.raises(ConfigError, match="initial history contains non-finite values"):
        rs.integrate(lambda t, x, xd: -xd, phi, tau=tau, h=h, horizon=1.0)
    assert any(-tau < s < -tau + h for s in calls)
    with pytest.raises(ConfigError, match="history function must return length-2 vectors"):
        rs.run_scenario(bench_system, bench_gains, rs.Scenario.STATE_FEEDBACK, lambda s: [0.0, 0.0, 0.0])


def test_constant_history_of_the_wrong_length_is_a_config_error(bench_system, bench_gains):
    with pytest.raises(ConfigError, match="constant history must have length 2, got shape \\(1,\\)"):
        rs.run_scenario(bench_system, bench_gains, rs.Scenario.STATE_FEEDBACK, [1.0])


@pytest.mark.parametrize("later", [[3.0], [3.0, 4.0, 5.0]], ids=["shorter", "longer"])
def test_history_of_the_wrong_length_after_its_probe_is_a_config_error(later):
    # the probe phi(0) has the right length; the samples on [-tau, 0) do not, and are
    # neither broadcast across the state nor left to numpy's broadcasting error
    def phi(s):
        return [1.0, 2.0] if s == 0.0 else later

    with pytest.raises(ConfigError, match="history function must return length-2 vectors"):
        rs.integrate(lambda t, x, xd: -xd, phi, tau=0.1, h=0.05, horizon=0.1)


def test_grid_beyond_memory_is_a_config_error():
    # 1e15 nodes of 4 doubles: 28 PiB, past any 48-bit address space, so it fails at once
    with pytest.raises(ConfigError, match="1e\\+15 nodes does not fit in memory"):
        rs.integrate(lambda t, x, xd: -xd, np.zeros(4), tau=1.0, h=0.01, horizon=1e13)


def test_a_memory_error_from_the_grid_allocation_is_a_config_error(monkeypatch):
    # the grid is small; only the allocation fails, so the message does not depend on the machine
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(ddesim, "HistoryBuffer", no_memory)
    with pytest.raises(ConfigError, match="^a grid of 31 nodes does not fit in memory$") as caught:
        rs.integrate(lambda t, x, xd: -xd, np.zeros(2), tau=1.0, h=0.1, horizon=2.0)
    assert isinstance(caught.value.__cause__, MemoryError)


def test_history_that_changes_length_after_its_probe_is_a_config_error():
    # the probe at s = 0 sets the width to 1; every later sample has 2 entries
    calls = []

    def phi(s):
        calls.append(s)
        return [1.0] if len(calls) == 1 else [1.0, 2.0]

    with pytest.raises(ConfigError, match="history function must return length-1 vectors"):
        rs.integrate(lambda t, x, xd: -xd, phi, tau=0.1, h=0.05, horizon=0.1)


def test_trajectory_without_observer_has_no_eta(bench_system, bench_gains):
    traj = rs.run_scenario(bench_system, bench_gains, rs.Scenario.STATE_FEEDBACK, BENCH_X0,
                           h=0.01, horizon=0.1)
    assert traj.eta() is None and traj.norm_err() is None


@pytest.mark.parametrize("lookup", [
    pytest.param(lambda traj, buffer: traj.index_of(math.nan), id="index_of-nan"),
    pytest.param(lambda traj, buffer: traj.index_of(math.inf), id="index_of-inf"),
    pytest.param(lambda traj, buffer: buffer.value_at(math.nan), id="value_at-nan"),
    pytest.param(lambda traj, buffer: buffer.value_at(-math.inf), id="value_at-minus-inf"),
])
def test_a_non_finite_time_is_a_contract_violation(lookup):
    t, states = rs.integrate(lambda t, x, xd: -xd, np.array([1.0]), tau=0.1, h=0.05, horizon=0.1)
    traj = rs.Trajectory(t=t, x=states, xhat=None, u=np.zeros(len(t)), theta=1.0, tau=0.1, h=0.05)
    buffer = HistoryBuffer(t0=-0.1, h=0.05, capacity=len(t), width=1)
    buffer.seed(states, np.zeros_like(states))
    with pytest.raises(ContractViolation, match="^time must be finite, got -?(nan|inf)$"):
        lookup(traj, buffer)
