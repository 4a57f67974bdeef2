import math

import numpy as np
import pytest

import ratstab as rs
from ratstab.errors import (
    ConditionsNotSatisfiedError,
    ConfigError,
    ContractViolation,
    NoFeasibleThetaError,
)

# benchmark margins frozen from the direct-formula oracle, using the
# published reference norms of the built-in benchmark system
NORM_P_REF = 1.0682
NORM_S_REF = 1.0169
A_REF = 1.2870702725888
B_REF = 0.8801135623730951
C_REF = 1.4173579481328873
D_REF = 0.9057635623730952


def test_margins_at_theta_one_k_zero():
    assert rs.observer_conditions(1.0, 1.0, 2.0, 0.0) == (0.5, 0.5)
    assert rs.feedback_conditions(1.0, 0.3, 5.0, 0.0) == (0.5, 0.5)
    assert rs.output_feedback_condition(1.0, 1.0, 5.0, 0.0) == 0.5


def test_margin_reference_values():
    a, b = rs.observer_conditions(8.0, 1.0, NORM_P_REF, 0.5)
    assert a == pytest.approx(A_REF, abs=1e-12)
    assert b == pytest.approx(B_REF, abs=1e-12)
    assert a == pytest.approx(1.28707, abs=1e-4)
    assert b == pytest.approx(0.88011, abs=1e-4)
    c, d = rs.feedback_conditions(8.0, 1.0, NORM_S_REF, 0.5)
    assert c == pytest.approx(C_REF, abs=1e-12)
    assert d == pytest.approx(D_REF, abs=1e-12)
    assert c == pytest.approx(1.41736, abs=1e-4)
    assert d == pytest.approx(0.90576, abs=1e-4)


def test_output_feedback_margin_equals_c():
    rng = np.random.default_rng(6)
    for _ in range(50):
        theta = float(rng.uniform(1.01, 20.0))
        tau = float(rng.uniform(0.1, 5.0))
        norm = float(rng.uniform(0.1, 3.0))
        k = float(rng.uniform(0.0, 2.0))
        c, _ = rs.feedback_conditions(theta, tau, norm, k)
        assert rs.output_feedback_condition(theta, tau, norm, k) == c


def test_margin_symmetry_cross_call():
    # observer and feedback margins are the same function of (theta, tau, norm, k)
    rng = np.random.default_rng(8)
    for _ in range(50):
        theta = float(rng.uniform(1.01, 20.0))
        tau = float(rng.uniform(0.1, 5.0))
        norm = float(rng.uniform(0.1, 3.0))
        k = float(rng.uniform(0.0, 2.0))
        assert rs.observer_conditions(theta, tau, norm, k) == rs.feedback_conditions(
            theta, tau, norm, k
        )


def test_threshold_k_values():
    # a(theta) = 0 and c(theta) = 0 as linear equations in k
    k_a = (8.0 / 2.0 - NORM_P_REF * math.log(8.0) / 2.0) / (3.0 * NORM_P_REF)
    assert rs.observer_conditions(8.0, 1.0, NORM_P_REF, k_a)[0] == pytest.approx(0.0, abs=1e-14)
    assert k_a == pytest.approx(0.90166, abs=1e-4)
    k_c = (8.0 / 2.0 - NORM_S_REF * math.log(8.0) / 2.0) / (3.0 * NORM_S_REF)
    assert rs.feedback_conditions(8.0, 1.0, NORM_S_REF, k_c)[0] == pytest.approx(0.0, abs=1e-14)
    assert k_c == pytest.approx(0.96455, abs=1e-4)


def test_report_flags_match_margin_signs():
    report = rs.build_report(8.0, 1.0, NORM_P_REF, NORM_S_REF, 0.5)
    assert report.all_pass
    assert (report.pass_a, report.pass_b, report.pass_c, report.pass_d) == (
        report.a > 0, report.b > 0, report.c > 0, report.d > 0)
    failing = rs.build_report(8.0, 1.0, NORM_P_REF, NORM_S_REF, 2.0)
    assert not failing.pass_a
    assert not failing.all_pass
    payload = failing.to_dict()
    assert payload["pass"]["a"] is False
    assert payload["margins"]["a"] == failing.a


def _brute_feasible(thetas, tau, norm_p, norm_s, k):
    """Mask of the grid points where all four margins, written out here, are positive."""
    mask = np.ones(thetas.shape, dtype=bool)
    for norm in (norm_p, norm_s):
        a = 0.5 * thetas - norm * np.log(thetas) / (2.0 * tau) - 3.0 * k * norm
        b = 0.5 * np.sqrt(thetas) - k * norm
        mask &= (a > 0.0) & (b > 0.0)
    return mask


def _brute_theta_star(tau, norm_p, norm_s, k, theta_max, step=1e-4):
    thetas = np.arange(1.0, theta_max + step, step)
    hits = np.flatnonzero(_brute_feasible(thetas, tau, norm_p, norm_s, k))
    return float(thetas[hits[0]]) if hits.size else None


def test_find_theta_min_k_zero():
    assert rs.find_theta_min(1.0, 1.5, 1.2, 0.0, 50.0, 1e-6) == 1.0


def test_find_theta_min_benchmark():
    theta_star = rs.find_theta_min(1.0, 1.28596, 1.01694, 0.5, 100.0, 1e-6)
    assert theta_star == pytest.approx(6.21, abs=0.01)
    brute = _brute_theta_star(1.0, 1.28596, 1.01694, 0.5, 100.0)
    assert theta_star == pytest.approx(brute, abs=2e-4)


def test_find_theta_min_bracketing():
    tol = 1e-6
    theta_star = rs.find_theta_min(1.0, 1.28596, 1.01694, 0.5, 100.0, tol)

    def feasible(theta):
        a, b = rs.observer_conditions(theta, 1.0, 1.28596, 0.5)
        c, d = rs.feedback_conditions(theta, 1.0, 1.01694, 0.5)
        return min(a, b, c, d) > 0.0

    assert feasible(theta_star + tol)
    assert not feasible(theta_star - tol)


def test_find_theta_min_infeasible():
    # b needs sqrt(theta) > 2 k norm_p: with k=5 that is theta > ~165
    closed_form = (2.0 * 5.0 * 1.28596) ** 2
    assert closed_form > 100.0
    with pytest.raises(NoFeasibleThetaError):
        rs.find_theta_min(1.0, 1.28596, 1.01694, 5.0, 100.0, 1e-6)


def test_find_theta_min_validation():
    with pytest.raises(ConfigError):
        rs.find_theta_min(1.0, 1.0, 1.0, 0.5, 1.0, 1e-6)
    with pytest.raises(ConfigError):
        rs.find_theta_min(1.0, 1.0, 1.0, 0.5, 10.0, 0.0)


# (tau, norm_p, norm_s, k, theta_max, tol) of a valid search, and one bad value per case
_VALID_SEARCH = dict(tau=1.0, norm_p=1.28596, norm_s=1.01694, k=0.5, theta_max=100.0, tol=1e-6)


@pytest.mark.parametrize("name, value", [
    ("tau", 0.0), ("tau", -1.0), ("tau", math.inf), ("tau", math.nan),
    ("k", -0.5), ("k", math.inf), ("k", math.nan),
    ("norm_p", -1.0), ("norm_p", 0.0), ("norm_p", math.inf),
    ("norm_s", -1.0), ("norm_s", 0.0), ("norm_s", math.nan),
    ("theta_max", math.inf), ("theta_max", math.nan), ("theta_max", 0.5),
    ("tol", math.inf), ("tol", math.nan), ("tol", -1e-6),
])
def test_find_theta_min_rejects_invalid_inputs(name, value):
    args = dict(_VALID_SEARCH, **{name: value})
    with pytest.raises(ConfigError, match=name):
        rs.find_theta_min(**args)


def test_find_theta_min_tol_below_float_spacing():
    # the bracket stops shrinking at adjacent doubles: theta* is feasible, its predecessor not
    theta_star = rs.find_theta_min(1.0, 1.28596, 1.01694, 0.5, 100.0, 1e-300)
    below = np.nextafter(theta_star, 0.0)
    assert _brute_feasible(np.array([theta_star, below]), 1.0, 1.28596, 1.01694, 0.5).tolist() == [
        True, False]


def test_find_theta_min_huge_theta_max():
    # bisection needs about log2(theta_max / tol) steps: 1e300 costs ~1,010 margin evaluations
    near = rs.find_theta_min(1.0, 1.28596, 1.01694, 0.5, 100.0, 1e-6)
    far = rs.find_theta_min(1.0, 1.28596, 1.01694, 0.5, 1e300, 1e-6)
    assert abs(far - near) <= 1e-6
    # theta* near 1e12 (b needs theta > (2 k |P|)^2): a bracket of adjacent doubles ends the search
    theta_star = rs.find_theta_min(1.0, 1e6, 1.0, 0.5, 1e300, 1e-6)
    assert theta_star == pytest.approx(1e12, rel=1e-6)
    assert _brute_feasible(np.array([theta_star]), 1.0, 1e6, 1.0, 0.5)[0]


def test_find_theta_min_random_against_brute_grid():
    # 200 seeded cases against a fine grid over [1, theta_max]; one in ten has k = 0 with
    # |P| > tau, so theta = 1 is feasible but margin a dips negative just above it
    rng = np.random.default_rng(2026)
    dips = 0
    for case in range(200):
        tau = float(rng.uniform(0.1, 3.0))
        norm_p, norm_s = (float(v) for v in rng.uniform(0.05, 4.0, 2))
        if case % 10 == 0:
            k, norm_p = 0.0, float(rng.uniform(3.0, 20.0)) * tau
        else:
            k = float(rng.uniform(0.0, 1.5))
        theta_max = float(rng.uniform(1.5, 60.0))
        tol = 10.0 ** float(rng.uniform(-9.0, -3.0))
        grid = np.linspace(1.0, theta_max, int((theta_max - 1.0) / 1e-3) + 2)
        step = grid[1] - grid[0]
        mask = _brute_feasible(grid, tau, norm_p, norm_s, k)
        if mask[0]:
            assert rs.find_theta_min(tau, norm_p, norm_s, k, theta_max, tol) == 1.0
            dips += int(not mask.all())
            continue
        if not mask[-1]:
            with pytest.raises(NoFeasibleThetaError):
                rs.find_theta_min(tau, norm_p, norm_s, k, theta_max, tol)
            assert not mask.any()
            continue
        theta_star = rs.find_theta_min(tau, norm_p, norm_s, k, theta_max, tol)
        assert _brute_feasible(np.array([theta_star]), tau, norm_p, norm_s, k)[0]
        first = int(np.argmax(mask))
        assert mask[first:].all()  # once theta = 1 fails, the feasible set is an interval
        assert grid[first] - step - tol <= theta_star <= grid[first] + tol
    assert dips >= 10


def test_alpha_observer_based():
    alpha, threshold = rs.select_alpha_observer_based(1.0, 0.5, 0.5, 1.0, 1.0, margin=0.1)
    assert threshold == pytest.approx(8.0, rel=1e-15)
    assert alpha == pytest.approx(8.8, rel=1e-15)
    alpha, threshold = rs.select_alpha_observer_based(1.0, 0.5, 0.5, 1.0, 0.0, margin=0.25)
    assert threshold == 0.0
    assert alpha == 0.25  # any positive value works; the margin is returned
    norm_k = math.sqrt(1800.0)  # |K| for K = [-30, -30]
    _, threshold = rs.select_alpha_observer_based(8.0, A_REF, C_REF, NORM_S_REF, norm_k)
    direct = 2.0 * 64.0 * NORM_S_REF**2 * 1800.0 / (A_REF * C_REF)
    assert threshold == pytest.approx(direct, rel=1e-15)
    assert threshold == pytest.approx(1.306e5, rel=1e-3)
    with pytest.raises(ConditionsNotSatisfiedError):
        rs.select_alpha_observer_based(8.0, -0.1, C_REF, NORM_S_REF, norm_k)
    with pytest.raises(ConditionsNotSatisfiedError):
        rs.select_alpha_observer_based(8.0, A_REF, 0.0, NORM_S_REF, norm_k)


def test_alpha_output_feedback():
    assert rs.select_alpha_output_feedback(1.0, 1.0, 1.0, 1.0, margin=0.5) == 0.5
    alpha = rs.select_alpha_output_feedback(C_REF, D_REF, 0.5, NORM_P_REF, margin=0.1)
    direct = min(C_REF, D_REF) / (0.5 * NORM_P_REF) * 0.9
    assert alpha == pytest.approx(direct, rel=1e-15)
    assert alpha == pytest.approx(1.5264, abs=2e-3)
    assert rs.select_alpha_output_feedback(1.0, 1.0, 0.0, 1.0) == math.inf
    with pytest.raises(ConditionsNotSatisfiedError):
        rs.select_alpha_output_feedback(-1.0, 1.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        rs.select_alpha_output_feedback(1.0, 1.0, 0.5, 1.0, margin=1.5)


def unit_params(**overrides):
    base = dict(lam1=1.0, lam2=1.0, lam3=1.0, r1=2.0, r2=2.0, k=1.0)
    base.update(overrides)
    return rs.StabilityParams(**base)


def test_rational_bound_values():
    params = unit_params()
    assert rs.rational_bound(params, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert rs.rational_bound(params, 1.0, 3.0) == pytest.approx(0.5, abs=1e-15)
    # actual finite-t ratio of the displayed bound (the asymptotic limit is 2)
    ratio = rs.rational_bound(params, 1.0, 100.0) / rs.rational_bound(params, 1.0, 400.0)
    assert ratio == pytest.approx(math.sqrt(401.0 / 101.0), rel=1e-12)
    assert rs.rational_bound(params, 0.0, 5.0) == 0.0


def test_rational_bound_t0_reduction():
    rng = np.random.default_rng(12)
    for _ in range(200):
        params = rs.StabilityParams(
            lam1=float(rng.uniform(0.1, 5.0)), lam2=float(rng.uniform(0.1, 5.0)),
            lam3=float(rng.uniform(0.1, 5.0)), r1=float(rng.uniform(0.5, 4.0)),
            r2=float(rng.uniform(0.5, 4.0)), k=float(rng.uniform(0.1, 3.0)))
        phi = float(rng.uniform(0.05, 10.0))
        at_zero = rs.rational_bound(params, phi, 0.0)
        expected = params.M * phi ** params.e
        assert at_zero == pytest.approx(expected, rel=1e-12)


def test_rational_bound_monotonicity():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        params = rs.StabilityParams(
            lam1=float(rng.uniform(0.1, 5.0)), lam2=float(rng.uniform(0.1, 5.0)),
            lam3=float(rng.uniform(0.1, 5.0)), r1=float(rng.uniform(0.5, 4.0)),
            r2=float(rng.uniform(0.5, 4.0)), k=float(rng.uniform(0.1, 3.0)))
        phi = float(rng.uniform(0.05, 10.0))
        t1, t2 = sorted(rng.uniform(0.0, 50.0, 2))
        if t1 == t2:
            continue
        assert rs.rational_bound(params, phi, t2) < rs.rational_bound(params, phi, t1)
        phi2 = phi * float(rng.uniform(1.01, 3.0))
        assert rs.rational_bound(params, phi2, t1) > rs.rational_bound(params, phi, t1)


def test_stability_params_validation():
    with pytest.raises(ConfigError):
        unit_params(lam1=0.0)
    with pytest.raises(ConfigError):
        unit_params(k=-1.0)
    with pytest.raises(ConfigError):
        rs.StabilityParams(lam1=1, lam2=1, lam3=1, r1=2, r2=2, k=1, r3=2.0)
    params = rs.StabilityParams(lam1=4.0, lam2=9.0, lam3=1.0, r1=2.0, r2=1.0, k=1.0)
    assert params.M == pytest.approx(math.sqrt(9.0 / 4.0), rel=1e-15)
    assert params.e == 0.5


def test_corollary_k():
    assert rs.corollary_k(2.0, 3.0) == 0.5
    assert rs.corollary_k(1.0, 4.0) == 3.0
    with pytest.raises(ContractViolation):
        rs.corollary_k(2.0, 2.0)
    with pytest.raises(ContractViolation):
        rs.corollary_k(3.0, 2.0)


def _constant_history_value(theta, tau):
    # closed form of (theta/2) * integral of theta^((s-t)/(2 tau)) over one delay
    return theta * tau / math.log(theta) * (1.0 - theta ** -0.5)


def test_krasovskii_zero_history():
    spec = rs.FunctionalSpec(matrix=np.eye(2), theta=4.0, tau=1.0)
    hist = np.zeros((11, 2))
    assert rs.krasovskii_value(spec, hist, 3.0) == 0.0


def test_krasovskii_constant_history_closed_form():
    spec = rs.FunctionalSpec(matrix=np.eye(1), theta=4.0, tau=1.0)
    closed = 1.0 + _constant_history_value(4.0, 1.0)
    assert closed == pytest.approx(1.0 + 1.442695, abs=1e-6)
    hist = np.ones((1001, 1))  # h = 1e-3
    assert rs.krasovskii_value(spec, hist, 7.0) == pytest.approx(closed, abs=1e-6)


def test_krasovskii_trapezoid_second_order():
    spec = rs.FunctionalSpec(matrix=np.eye(1), theta=4.0, tau=1.0)
    closed = 1.0 + _constant_history_value(4.0, 1.0)
    errors = []
    for m in (50, 100, 200):
        hist = np.ones((m + 1, 1))
        errors.append(abs(rs.krasovskii_value(spec, hist, 2.0) - closed))
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5


def test_krasovskii_sandwich_property():
    # lam_min(P) |z(t)|^2 <= V <= (lam_max(P) + theta tau / 2) max |z|^2
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        theta = float(rng.uniform(1.1, 10.0))
        tau = float(rng.uniform(0.2, 3.0))
        raw = rng.normal(size=(n, n))
        P = raw @ raw.T + np.eye(n) * float(rng.uniform(0.05, 1.0))
        spec = rs.FunctionalSpec(matrix=P, theta=theta, tau=tau)
        m = int(rng.integers(4, 40))
        hist = rng.normal(size=(m + 1, n)) * float(rng.uniform(0.1, 5.0))
        value = rs.krasovskii_value(spec, hist, float(rng.uniform(0.0, 100.0)))
        eigs = rs.sym_eigenvalues(P)
        tail_sq = float(hist[-1] @ hist[-1])
        peak_sq = float(np.max(np.einsum("ij,ij->i", hist, hist)))
        assert value >= eigs[0] * tail_sq - 1e-9
        assert value <= (eigs[-1] + 0.5 * theta * tau) * peak_sq + 1e-9


def test_krasovskii_contract_errors():
    spec = rs.FunctionalSpec(matrix=np.eye(2), theta=4.0, tau=1.0)
    with pytest.raises(ContractViolation):
        rs.krasovskii_value(spec, np.zeros((1, 2)), 1.0)
    with pytest.raises(ContractViolation):
        rs.krasovskii_value(spec, np.zeros((5, 3)), 1.0)
    with pytest.raises(ConfigError):
        rs.FunctionalSpec(matrix=np.eye(2), theta=1.0, tau=1.0)  # ln(theta) = 0
    with pytest.raises(ContractViolation):
        rs.FunctionalSpec(matrix=np.array([[1.0, 0.0], [0.0, -1.0]]), theta=4.0, tau=1.0)


def test_certify_gains_requires_theta_at_least_one():
    # below 1 the certified rate ln(theta) / (2 tau) is negative, so no margin may pass
    L, K = [-14.0, -28.0], [-30.0, -30.0]
    with pytest.raises(ConfigError, match="theta must be at least 1 to certify decay, got 0.5"):
        rs.certify_gains(rs.GainSet(L=L, K=K, theta=0.5), tau=1.0, k=0.0, advisory=0.0)
    result = rs.certify_gains(rs.GainSet(L=L, K=K, theta=1.0), tau=1.0, k=0.0, advisory=0.0)
    assert result.report.theta == 1.0
