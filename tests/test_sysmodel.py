import itertools
import math

import numpy as np
import pytest

import ratstab as rs
from ratstab.errors import ConfigError, NotHurwitzError
from ratstab.sysmodel import U_ZERO_GRID, Nonlinearity

from conftest import BENCH_K, BENCH_L, ulp_distance


def test_scale_gains_theta_one():
    L_s, K_s = rs.scale_gains(BENCH_L, BENCH_K, 1.0)
    assert np.array_equal(L_s, BENCH_L)
    assert np.array_equal(K_s, BENCH_K)


def test_scale_gains_benchmark_golden():
    L_s, K_s = rs.scale_gains(BENCH_L, BENCH_K, 8.0)
    assert L_s.tolist() == [-112.0, -1792.0]
    assert K_s.tolist() == [-1920.0, -240.0]


def test_scale_gains_rejects_bad_theta():
    with pytest.raises(ConfigError):
        rs.scale_gains(BENCH_L, BENCH_K, 0.0)
    with pytest.raises(ConfigError):
        rs.scale_gains(BENCH_L, BENCH_K, -2.0)


def test_scale_gains_matrix_identities():
    # Delta (L(theta) C) Delta^-1 = theta L C  and  Delta B K(theta) = theta B K Delta
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        theta = float(rng.uniform(0.5, 10.0))
        L = rng.normal(size=n)
        K = rng.normal(size=n)
        L_s, K_s = rs.scale_gains(L, K, theta)
        _, B, C = rs.build_companion(n)
        delta = rs.delta_theta(theta, n)
        delta_inv = np.diag(1.0 / np.diag(delta))
        lhs = delta @ np.outer(L_s, C) @ delta_inv
        rhs = theta * np.outer(L, C)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
        lhs = delta @ np.outer(B, K_s)
        rhs = theta * np.outer(B, K) @ delta
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_registry_zero():
    f = rs.make_nonlinearity("zero", 2)
    out = f(np.array([3.0, -1.0]), np.array([0.5, 2.0]), 7.0)
    assert np.array_equal(out, np.zeros(2))


def test_registry_paper_example_value():
    f = rs.make_nonlinearity("paper_example", 2)
    out = f(np.array([math.pi, 0.0]), np.array([2.0, 0.0]), 0.0)
    assert out[0] == pytest.approx(2.0 - math.pi, rel=1e-15)
    assert out[1] == 0.0


def test_registry_unknown_name():
    with pytest.raises(ConfigError, match="unknown nonlinearity"):
        rs.make_nonlinearity("nope", 2)


def test_zero_at_origin_grid():
    for name in ("zero", "paper_example"):
        f = rs.make_nonlinearity(name, 3)
        for u in U_ZERO_GRID:
            assert np.linalg.norm(f(np.zeros(3), np.zeros(3), u)) == 0.0


def test_expression_triangularity_violation():
    with pytest.raises(ConfigError, match="'x2'"):
        rs.make_nonlinearity(["x2", "x1"], 2)
    with pytest.raises(ConfigError, match="'xd3'"):
        rs.make_nonlinearity(["x1", "xd3", "x1"], 3)
    with pytest.raises(ConfigError, match="'t'"):
        rs.make_nonlinearity(["t*x1", "0"], 2)


def test_expression_nonlinearity_matches_builtin():
    f_expr = rs.make_nonlinearity(["x1*cos(x1)+xd1*cos(u)", "0"], 2)
    f_builtin = rs.make_nonlinearity("paper_example", 2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(-5, 5, 2)
        xd = rng.uniform(-5, 5, 2)
        u = float(rng.uniform(-3, 3))
        assert np.allclose(f_expr(x, xd, u), f_builtin(x, xd, u), rtol=1e-15, atol=1e-15)


def test_nonzero_origin_rejected():
    with pytest.raises(ConfigError, match="must vanish"):
        rs.make_nonlinearity(["x1+1", "0"], 2)


def test_opaque_triangularity_probing():
    with pytest.raises(ConfigError, match="triangularity"):
        Nonlinearity(2, fn=lambda x, xd, u: np.array([x[1], 0.0]), name="bad")
    with pytest.raises(ConfigError, match="triangularity"):
        Nonlinearity(2, fn=lambda x, xd, u: np.array([xd[1], 0.0]), name="bad-delayed")


def test_gainset_validates_hurwitz():
    gains = rs.GainSet(L=BENCH_L, K=BENCH_K, theta=8.0)
    assert gains.n == 2
    assert np.array_equal(gains.A_L, np.array([[-14.0, 1.0], [-28.0, 0.0]]))
    assert np.array_equal(gains.A_K, np.array([[0.0, 1.0], [-30.0, -30.0]]))
    with pytest.raises(NotHurwitzError, match="B\\*K"):
        rs.GainSet(L=BENCH_L, K=np.zeros(2), theta=8.0)
    with pytest.raises(NotHurwitzError, match="L\\*C"):
        rs.GainSet(L=np.zeros(2), K=BENCH_K, theta=8.0)
    with pytest.raises(ConfigError):
        rs.GainSet(L=BENCH_L, K=BENCH_K, theta=0.0)


def test_gainset_scaled_regenerate():
    gains = rs.GainSet(L=BENCH_L, K=BENCH_K, theta=8.0)
    assert np.array_equal(gains.L_scaled, gains.L_scaled)
    assert gains.L_scaled.tolist() == [-112.0, -1792.0]
    assert gains.K_scaled.tolist() == [-1920.0, -240.0]
    assert np.allclose(np.diag(gains.delta), [1.0, 0.125])


def test_systemspec_validation():
    f = rs.make_nonlinearity("zero", 2)
    with pytest.raises(ConfigError):
        rs.SystemSpec(n=2, tau=0.0, f=f, lipschitz_k=0.0)
    with pytest.raises(ConfigError):
        rs.SystemSpec(n=2, tau=1.0, f=f, lipschitz_k=-0.5)
    with pytest.raises(ConfigError):
        rs.SystemSpec(n=3, tau=1.0, f=f, lipschitz_k=0.0)  # dimension mismatch
    spec = rs.SystemSpec(n=2, tau=1.0, f=f, lipschitz_k=0.0)
    assert spec.domain_box == ((-10.0, 10.0), (-10.0, 10.0))


def test_lipschitz_zero_function():
    f = rs.make_nonlinearity("zero", 2)
    assert rs.estimate_lipschitz(f, [(-5, 5), (-5, 5)], samples=200, seed=0) == 0.0


def test_lipschitz_sine():
    f = Nonlinearity(2, fn=lambda x, xd, u: np.array([math.sin(x[0]), 0.0]), name="sine")
    est = rs.estimate_lipschitz(f, [(-5, 5), (-5, 5)], samples=2000, seed=0)
    assert est == pytest.approx(1.0, abs=0.05)


def test_lipschitz_benchmark_band():
    # dense-grid oracle for the x-partial of x*cos(x) on [-20, 20]
    grid = np.linspace(-20.0, 20.0, 400001)
    oracle = float(np.max(np.abs(np.cos(grid) - grid * np.sin(grid))))
    f = rs.make_nonlinearity("paper_example", 2)
    est = rs.estimate_lipschitz(f, [(-20, 20), (-20, 20)], samples=2000, seed=0)
    assert est == pytest.approx(17.9, abs=0.5)
    assert est <= oracle + 1e-3  # a lower bound must not exceed the true sup
    assert est >= oracle - 0.5


def test_lipschitz_is_deterministic():
    f = rs.make_nonlinearity("paper_example", 2)
    a = rs.estimate_lipschitz(f, [(-9, 9), (-9, 9)], samples=300, seed=42)
    b = rs.estimate_lipschitz(f, [(-9, 9), (-9, 9)], samples=300, seed=42)
    assert a == b


def test_lipschitz_monotone_in_box():
    f = rs.make_nonlinearity("paper_example", 2)
    small = rs.estimate_lipschitz(f, [(-10, 10), (-10, 10)], samples=500, seed=1)
    large = rs.estimate_lipschitz(f, [(-20, 20), (-20, 20)], samples=500, seed=1)
    assert large >= small - 1e-12
    f_sine = Nonlinearity(1, fn=lambda x, xd, u: np.array([math.sin(x[0])]), name="sine1")
    small = rs.estimate_lipschitz(f_sine, [(-2, 2)], samples=500, seed=1)
    large = rs.estimate_lipschitz(f_sine, [(-5, 5)], samples=500, seed=1)
    assert large >= small - 1e-12


def test_lipschitz_input_validation():
    f = rs.make_nonlinearity("zero", 2)
    with pytest.raises(ConfigError):
        rs.estimate_lipschitz(f, [(-5, 5), (-5, 5)], samples=50, seed=0)
    with pytest.raises(ConfigError):
        rs.estimate_lipschitz(f, [(5, -5), (-5, 5)], samples=200, seed=0)
    with pytest.raises(ConfigError):
        rs.estimate_lipschitz(f, [(-5, 5)], samples=200, seed=0)  # wrong arity


def test_lipschitz_expression_goldens():
    # values of the per-point sampler; they pin the seeded probe stream and its order.
    # The first two maxima come from the finite-difference probes; the third f is
    # steepest along diagonals, which only the random pairs probe
    cases = [
        (["tanh(x1) - 0.3*xd1", "0.5*sin(x2)*x1 + xd2"], 3.0,
         1.3403139534154955, 1.461536322520866),
        (["sin(x1)*xd1", "tanh(x2)", "x3*xd1"], 2.0, 2.1618587424027322, 2.214219713489688),
        (["tanh(x1 + xd1)", "x2 - xd2"], 3.0, 1.39461232354662, 1.4074727715760342),
    ]
    for texts, radius, at_300_seed_7, at_defaults in cases:
        f = rs.make_nonlinearity(texts, len(texts))
        box = [(-radius, radius)] * len(texts)
        est = rs.estimate_lipschitz(f, box, samples=300, seed=7)
        assert est == pytest.approx(at_300_seed_7, rel=1e-13)
        assert rs.estimate_lipschitz(f, box) == pytest.approx(at_defaults, rel=1e-13)


def test_lipschitz_non_finite_f_reads_inf():
    # f is not finite at some probe: x1*x1 overflows, sqrt(x1) is nan for x1 < 0
    f = rs.make_nonlinearity(["x1*x1", "0"], 2)
    assert rs.estimate_lipschitz(f, [(-8e307, 8e307), (-1, 1)]) == math.inf
    f = rs.make_nonlinearity(["sqrt(x1)*x1", "0"], 2)
    assert rs.estimate_lipschitz(f, [(-1, 1)] * 2) == math.inf


@pytest.mark.parametrize("seed", range(40))
def test_lipschitz_of_linear_f_lies_between_column_and_spectral_norm(seed):
    # f = F (x, xd) with lower-triangular blocks: every quotient is at most ||F||_2,
    # and the axis probes of the steepest column reach its norm
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    F = np.hstack([np.tril(rng.uniform(-2.0, 2.0, (n, n))) for _ in range(2)])
    names = [f"x{j + 1}" for j in range(n)] + [f"xd{j + 1}" for j in range(n)]
    texts = [" + ".join(f"({c!r})*{v}" for c, v in zip(row.tolist(), names) if c != 0.0)
             for row in F]
    f = rs.make_nonlinearity(texts, n)
    box = [(-3.0, 3.0)] * n
    est = rs.estimate_lipschitz(f, box, samples=200, seed=seed)
    assert np.max(np.linalg.norm(F, axis=0)) <= est <= np.linalg.norm(F, 2)


def test_rows_match_call():
    rng = np.random.default_rng(5)
    rows = 400
    opaque = [
        rs.make_nonlinearity("paper_example", 3),
        Nonlinearity(2, fn=lambda x, xd, u: np.array([math.sin(x[0]) * u, xd[0] * x[1]]),
                     name="opaque"),
    ]
    for f in opaque:
        X, XD = rng.uniform(-5, 5, (2, rows, f.n))
        U = rng.uniform(-3, 3, rows)
        out = f.rows(X, XD, U)
        assert out.shape == (rows, f.n)
        for i in range(rows):
            assert np.array_equal(out[i], f(X[i], XD[i], U[i]))
    # one transcendental function on top of each component: the few-ulp gap of numpy's
    # tanh, ln and tan is not amplified by a later cancellation
    f = rs.make_nonlinearity(["tanh(x1 - 0.3*xd1)", "sin(x2*x1 + xd2)*cos(u)",
                              "ln(1 + x3^2 + abs(xd1*u))", "tan(xd4/8 - x4^3/(1 + u^2))"], 4)
    X, XD = rng.uniform(-5, 5, (2, rows, 4))
    U = rng.uniform(-3, 3, rows)
    out = f.rows(X, XD, U)
    want = np.array([f(X[i], XD[i], U[i]) for i in range(rows)])
    assert np.max(ulp_distance(out, want)) <= 4.0


def test_paper_example_registry_equals_its_expression():
    # nan where math.cos raises (cos of +-inf), as in the expression's scalar table
    registry = rs.make_nonlinearity("paper_example", 2)
    expression = rs.make_nonlinearity(["x1*cos(x1) + xd1*cos(u)", "0"], 2)
    values = (0.0, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan)
    for i, (x1, xd1, u) in enumerate(itertools.product(values, repeat=3)):
        x = np.array([x1, values[i % len(values)]])
        xd = np.array([xd1, values[(i // 3) % len(values)]])
        assert np.array_equal(registry(x, xd, u), expression(x, xd, u), equal_nan=True), (x, xd, u)


@pytest.mark.parametrize("exprs, box, expected", [
    (["x1", "0"], [(-1e200, 1e200), (-1, 1)], 1.0),  # squared norms would overflow here
    (["x1*x1", "0"], [(-8e307, 8e307), (-1, 1)], math.inf),
    (["sqrt(x1)*x1", "0"], [(-1, 1)] * 2, math.inf),
])
def test_lipschitz_norms_do_not_overflow(exprs, box, expected):
    f = rs.make_nonlinearity(exprs, 2)
    assert rs.estimate_lipschitz(f, box) == expected


@pytest.mark.parametrize("result", [np.zeros(3), [0.0], 0.0], ids=["three", "one", "scalar"])
def test_callable_must_return_n_values(result):
    with pytest.raises(ConfigError, match="f must return 2 values"):
        Nonlinearity(2, fn=lambda x, xd, u: result, name="wrong-length")


def _list_contract_fn(x, xd, u):
    # raises unless called as documented: lists of Python floats and a float
    if not (type(x) is type(xd) is list and type(u) is float
            and all(type(v) is float for v in x + xd)):
        raise TypeError(f"called with {type(x)}, {type(xd)}, {type(u)}")
    return [math.sin(x[0]) * u, math.tanh(xd[0] * x[1]), x[2] * xd[1] - 0.5 * math.sin(xd[2])]


@pytest.mark.parametrize("make", [
    lambda: rs.make_nonlinearity("paper_example", 3),
    lambda: rs.make_nonlinearity(["sin(x1)*u", "tanh(xd1*x2)", "x3*xd2 - 0.5*sin(xd3)"], 3),
    lambda: Nonlinearity(3, fn=_list_contract_fn, name="lists"),
], ids=["registry", "expression", "opaque"])
def test_blocks_match_call(make):
    f = make()
    rng = np.random.default_rng(11)
    n = f.n
    for count in (1, 2):
        for _ in range(50):
            z, zd = rng.uniform(-5, 5, (2, 2 * n))  # the blocks past count are not read
            u = float(rng.uniform(-3, 3))
            want = [f(z[b * n:(b + 1) * n], zd[b * n:(b + 1) * n], u) for b in range(count)]
            assert np.array_equal(np.array(f.blocks(z, zd, u, count)), np.concatenate(want))


def test_rows_match_call_on_lists():
    f = Nonlinearity(3, fn=_list_contract_fn, name="lists")
    rng = np.random.default_rng(13)
    X, XD = rng.uniform(-5, 5, (2, 100, 3))
    U = rng.uniform(-3, 3, 100)
    out = f.rows(X, XD, U)
    for i in range(100):
        assert np.array_equal(out[i], f(X[i], XD[i], U[i]))
