import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import ratstab as rs
from ratstab.ddesim import DIVERGENCE_GUARD, HistoryBuffer, _closed_loop
from ratstab.errors import ConfigError, ContractViolation, DivergedError

from conftest import BENCH_X0, BENCH_XHAT0


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
    buf = HistoryBuffer(t0=-1.0, h=0.5, capacity=8, width=1, break_index=2)
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
    buf = HistoryBuffer(t0=0.0, h=h, capacity=4, width=1, break_index=0)
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
    """Reference method of steps: one Hermite midpoint per step, the factor
    (h / 6.0) inside the update, and the divergence guard as two checks
    (non-finite entries, then the Euclidean norm). integrate must return
    the same bits and raise at the same time."""
    m, steps = int(round(tau / h)), int(round(horizon / h))
    history = phi if callable(phi) else (lambda s: np.asarray(phi, dtype=float))
    width = len(history(0.0))
    nodes = [-tau + j * h for j in range(m + 1)]
    values = np.array([history(s) for s in nodes], dtype=float)
    delta = min(1e-5 * max(1.0, tau), h)
    slopes = np.empty((m + 1, width))
    for j, s in enumerate(nodes):
        if j == 0:
            slopes[j] = (-3.0 * history(s) + 4.0 * history(s + delta) - history(s + 2 * delta)) / (2 * delta)
        elif j == m:
            slopes[j] = (3.0 * history(s) - 4.0 * history(s - delta) + history(s - 2 * delta)) / (2 * delta)
        else:
            slopes[j] = (history(s + delta) - history(s - delta)) / (2 * delta)
    buffer = HistoryBuffer(t0=-tau, h=h, capacity=m + steps + 1, width=width, break_index=m)
    buffer.seed(values, slopes)
    half = 0.5 * h
    for i in range(steps):
        t = i * h
        x = buffer.node(m + i)
        k1 = np.asarray(rhs(t, x, buffer.node(i)), dtype=float)
        buffer.set_derivative(m + i, k1)
        x_mid_delayed = buffer.segment_midpoint(i)
        k2 = np.asarray(rhs(t + half, x + half * k1, x_mid_delayed), dtype=float)
        k3 = np.asarray(rhs(t + half, x + half * k2, x_mid_delayed), dtype=float)
        k4 = np.asarray(rhs(t + h, x + h * k3, buffer.node(i + 1)), dtype=float)
        advanced = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(advanced)) or np.linalg.norm(advanced) > DIVERGENCE_GUARD:
            raise DivergedError((i + 1) * h)
        buffer.append(advanced)
    return buffer.states.copy()


def _matmul_rhs(sys_spec, gains, scenario):
    # the closed-loop right-hand side written with the @ operator
    M, _, k, f_blocks = _closed_loop(scenario, gains)

    def rhs(t, z, zd):
        u = float(k @ z)
        dz = M @ z
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


def _opaque_f3(x, xd, u):
    return [0.5 * math.sin(x[0]) + 0.2 * xd[0] * math.cos(u), math.tanh(x[1] * xd[0]) - 0.1 * xd[1],
            0.3 * math.sin(xd[2]) * math.tanh(x[0]) + 0.1 * x[2] * xd[1]]


F3_KINDS = {
    "registry": lambda: rs.make_nonlinearity("paper_example", 3),
    "expression": lambda: rs.make_nonlinearity(
        ["0.5*sin(x1) + 0.2*xd1*cos(u)", "tanh(x2*xd1) - 0.1*xd2", "0.3*sin(xd3)*tanh(x1) + 0.1*x3*xd2"], 3),
    "opaque": lambda: rs.Nonlinearity(3, fn=_opaque_f3, name="opaque"),
}


@pytest.mark.parametrize("kind", sorted(F3_KINDS))
@pytest.mark.parametrize("scenario, u_ext", [pytest.param(s, None, id=s.value) for s in rs.Scenario] + [
    pytest.param(rs.Scenario.OBSERVER, lambda t: math.sin(3.0 * t), id="observer-u_ext")])
def test_run_scenario_matches_stepwise_loop(kind, scenario, u_ext):
    # reference: per-block M @ z and one f call per block, integrated step by step
    f = F3_KINDS[kind]()
    gains = rs.GainSet(L=[-3.0, -3.0, -1.0], K=[-1.0, -3.0, -3.0], theta=2.0)
    M, b, k, f_blocks = _closed_loop(scenario, gains)

    def rhs(t, z, zd):
        u = float(k @ z)
        dz = M @ z
        if b is not None and u_ext is not None:
            v = float(u_ext(t))
            u += v
            dz += b * v
        for block in f_blocks:
            dz[block] += f(z[block], zd[block], u)
        return dz

    x0, xhat0 = np.array([0.8, -0.5, 0.3]), np.array([-0.4, 0.6, 0.1])
    phi = np.concatenate([x0, xhat0]) if scenario.has_observer else x0
    reference = _stepwise_integrate(rhs, phi, 0.1, 0.01, 1.0)
    traj = rs.run_scenario(rs.SystemSpec(n=3, tau=0.1, f=f, lipschitz_k=1.0), gains, scenario,
                           x0, xhat0, h=0.01, horizon=1.0, u_ext=u_ext)
    states = np.hstack([traj.x, traj.xhat]) if scenario.has_observer else traj.x
    assert np.array_equal(states, reference)


@pytest.mark.parametrize("tau, h", [(1.0, 0.05), (0.02, 0.01)], ids=["m=20", "m=2"])
def test_integrate_matches_stepwise_loop_with_callable_history(tau, h):
    # phi'(0) = 2 differs from the right-hand side at t = 0, so the first
    # derivative jumps at node m and its left slope enters the midpoints
    phi = lambda s: np.array([math.cos(3.0 * s) + 2.0 * s])
    rhs = lambda t, x, xd: -2.0 * xd + np.sin(x)
    reference = _stepwise_integrate(rhs, phi, tau, h, 3.0)
    _, states = rs.integrate(rhs, phi, tau=tau, h=h, horizon=3.0)
    assert np.array_equal(states, reference)


@pytest.mark.parametrize("m, steps", sorted({(m, steps) for m in (2, 5)
                                             for steps in (m - 1, m, m + 1, 2 * m - 1, 2 * m)}))
def test_integrate_matches_stepwise_loop_at_the_block_edges(m, steps):
    # the history block ends at step m, then blocks of m - 1 steps follow; phi'(0) = 2
    # differs from the right-hand side at t = 0, as in the test above
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


def test_block_midpoints_equal_single_segments_across_break():
    m, width = 6, 2
    rng = np.random.default_rng(7)
    buf = HistoryBuffer(t0=-0.6, h=0.1, capacity=3 * m, width=width, break_index=m)
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
    # the segment ending at the break uses the history's own slope there,
    # not the right-hand side's slope that step 0 stored at node m
    h = buf.h
    by_hand = (0.5 * values[m - 1] + h * 0.125 * slopes[m - 1]
               + 0.5 * values[m] + h * -0.125 * slopes[m])
    assert np.array_equal(buf.midpoints(m - 1, m)[0], by_hand)
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


def test_grid_beyond_memory_is_a_config_error():
    # 1e15 nodes of 4 doubles: 28 PiB, past any 48-bit address space, so it fails at once
    with pytest.raises(ConfigError, match="1e\\+15 nodes does not fit in memory"):
        rs.integrate(lambda t, x, xd: -xd, np.zeros(4), tau=1.0, h=0.01, horizon=1e13)
