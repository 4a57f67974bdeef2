import itertools
import math
import random
import struct

import numpy as np
import pytest

import ratstab as rs
from ratstab import exprlang as el
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
        Nonlinearity(2, fn=lambda x, xd, u: np.array([x[1], 0.0]))
    with pytest.raises(ConfigError, match="triangularity"):
        Nonlinearity(2, fn=lambda x, xd, u: np.array([xd[1], 0.0]))


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
    f = Nonlinearity(2, fn=lambda x, xd, u: np.array([math.sin(x[0]), 0.0]))
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
    f_sine = Nonlinearity(1, fn=lambda x, xd, u: np.array([math.sin(x[0])]))
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
    # values of the per-sweep reference sampler; they pin the seeded probe stream and its
    # order. The finite-difference probes set the first f's maxima and the second's at the
    # defaults, an axis sweep the second's at 300 samples; the third f is steepest along
    # diagonals, which only the random pairs probe
    cases = [
        (["tanh(x1) - 0.3*xd1", "0.5*sin(x2)*x1 + xd2"], 3.0,
         1.4567524924309279, 1.4872005150697425),
        (["sin(x1)*xd1", "tanh(x2)", "x3*xd1"], 2.0, 2.193460334454972, 2.2314491896857795),
        (["tanh(x1 + xd1)", "x2 - xd2"], 3.0, 1.4062732894101233, 1.4108161675212036),
    ]
    for texts, radius, at_300_seed_7, at_defaults in cases:
        f = rs.make_nonlinearity(texts, len(texts))
        box = [(-radius, radius)] * len(texts)
        est = rs.estimate_lipschitz(f, box, samples=300, seed=7)
        assert est == pytest.approx(at_300_seed_7, rel=1e-13)
        assert rs.estimate_lipschitz(f, box) == pytest.approx(at_defaults, rel=1e-13)


def test_lipschitz_accepts_a_numpy_integer_seed():
    # random.Random rejects an np.int64 seed; the sampler seeds it with the equal int
    f = rs.make_nonlinearity(["tanh(x1) - 0.3*xd1", "0.5*sin(x2)*x1 + xd2"], 2)
    box = [(-3.0, 3.0)] * 2
    assert rs.estimate_lipschitz(f, box, seed=np.int64(3)) == rs.estimate_lipschitz(f, box, seed=3)


@pytest.mark.parametrize("seed", range(8))
def test_lipschitz_of_a_finite_f_near_the_largest_double_stays_finite(seed):
    # f reaches 1.2e308, so f(p) - f(q) of a random pair can pass the largest double; that
    # overflow is no sign of a steep f: F = [[0.5, 0, -1, 0], [0, 0, 0, 1]] bounds every quotient
    f = rs.make_nonlinearity(["0.5*x1 - xd1", "xd2"], 2)
    est = rs.estimate_lipschitz(f, [(-8e307, 8e307), (-1.0, 1.0)], samples=200, seed=seed)
    assert 1.0 <= est <= math.sqrt(1.25) * (1.0 + 1e-12)


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


def _per_sweep_lipschitz(f, box, samples, seed):
    """Reference sampler on the same seeded probes: every quotient takes full
    np.hypot.reduce norms of p - q and f(p) - f(q), and f runs on 201 rows
    per anchor, input and axis. estimate_lipschitz must return the same double.

    The probes follow the documented stream: each coordinate is the next 4 bytes of
    random.Random(seed), read as a little-endian integer over 2^32, drawn point by
    point: p then q for every pair, then the finite-difference points, then two anchors."""
    n = f.n
    lo = np.array([float(p[0]) for p in box] * 2)
    hi = np.array([float(p[1]) for p in box] * 2)
    width = hi - lo
    stream = random.Random(seed)

    def point():
        return lo + np.array([int.from_bytes(stream.randbytes(4), "little") / 2**32
                              for _ in range(2 * n)]) * width

    def value(points, u):
        return f.rows(points[:, :n], points[:, n:], np.broadcast_to(u, len(points)))

    def top_quotient(p, q, fp, fq):
        # f(p) - f(q) at 1/16 scale, so that it does not overflow for a finite f; for doubles
        # of normal size the scaled quotient equals the unscaled one
        with np.errstate(all="ignore"):
            gap = np.hypot.reduce(p - q, axis=1)
            ratio = np.hypot.reduce(fp / 16 - fq / 16, axis=1) / np.where(gap == 0.0, np.inf, gap / 16)
        return float(np.max(np.where(np.isnan(ratio), np.inf, ratio)))

    def fd_partner(p, axis):
        rows = np.arange(len(p))
        q = p.copy()
        q[rows, axis] += np.where(p[rows, axis] + 1e-6 <= hi[axis], 1e-6, -1e-6)
        return q

    u_cycle = np.resize(np.asarray(U_ZERO_GRID), samples)
    pairs = np.array([[point(), point()] for _ in range(samples)])
    p, q = pairs[:, 0], pairs[:, 1]
    best = top_quotient(p, q, value(p, u_cycle), value(q, u_cycle))
    p = np.array([point() for _ in range(samples)])
    q = fd_partner(p, np.arange(samples) % (2 * n))
    best = max(best, top_quotient(p, q, value(p, u_cycle), value(q, u_cycle)))
    anchors = [0.5 * (lo + hi), point(), point()]
    for c in range(2 * n):
        for anchor in anchors:
            p = np.tile(anchor, (201, 1))
            p[:, c] = np.linspace(lo[c], hi[c], 201)
            q = fd_partner(p, c)
            for u in (-1.0, 0.0, 1.0):
                fp = value(p, u)
                best = max(best, top_quotient(p[1:], p[:-1], fp[1:], fp[:-1]))
                best = max(best, top_quotient(p, q, fp, value(q, u)))
    return best


def _random_triangular_texts(rng, n):
    # sums of terms that vanish at the origin; component i reads coordinates up to i only
    def var(i):
        return ("x", "xd")[int(rng.integers(0, 2))] + str(int(rng.integers(1, i + 2)))

    texts = []
    for i in range(n):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            g = ("sin", "tanh", "abs", "")[int(rng.integers(0, 4))]
            factor = ("", "*cos(u)", "*u", "*" + var(i))[int(rng.integers(0, 4))]
            terms.append(f"({float(rng.uniform(-2.0, 2.0))!r})*{g}({var(i)}){factor}")
        texts.append(" + ".join(terms))
    return texts


def test_lipschitz_equals_the_per_sweep_sampler():
    rng = np.random.default_rng(25)
    cases = []
    for _ in range(24):
        n = int(rng.integers(1, 5))
        radius = float(rng.choice([0.5, 3.0, 30.0]))
        cases.append((rs.make_nonlinearity(_random_triangular_texts(rng, n), n),
                      [(-radius, radius)] * n, int(rng.choice([100, 300])), int(rng.integers(0, 1000))))
    # boxes where the 1e-6 step rounds away (p = q reads 0), and an f that overflows there
    for texts in (["tanh(x1)", "sin(xd2)*cos(x1)"], ["0.5*x1 - xd1", "xd2"], ["x1*x1", "0"]):
        cases.append((rs.make_nonlinearity(texts, 2), [(-8e307, 8e307), (-1.0, 1.0)], 200, 3))
    # f not finite at some probe, and an opaque callable that rows calls row by row
    cases.append((rs.make_nonlinearity(["sqrt(x1)*x1", "xd1 - x2"], 2), [(-1.0, 1.0)] * 2, 100, 0))
    cases.append((Nonlinearity(2, fn=lambda x, xd, u: [math.sin(x[0]) * u, xd[0] * x[1]]),
                  [(-2.0, 3.0), (-1.0, 1.0)], 100, 4))
    values = []
    for f, box, samples, seed in cases:
        want = _per_sweep_lipschitz(f, box, samples, seed)
        assert rs.estimate_lipschitz(f, box, samples=samples, seed=seed) == want, (f.components, box)
        values.append(want)
    # on the huge boxes p = q reads 0 where the step rounds away, unless f overflows
    assert [math.isfinite(v) for v in values[24:27]] == [True, True, False]
    assert values[27] == math.inf  # nan reads inf
    assert rs.estimate_lipschitz(cases[0][0], cases[0][1]) == _per_sweep_lipschitz(
        cases[0][0], cases[0][1], 2000, 0)


@pytest.mark.parametrize("samples", [100, 2000])
def test_lipschitz_batches_stay_within_one_axis_sweep(samples):
    f = rs.make_nonlinearity(["tanh(x1) - 0.3*xd1", "sin(x2)*x1 + xd2", "x3*xd1*cos(u)", "xd4"], 4)
    batches = []
    rows = f.rows

    def counted(X, XD, U):
        batches.append(len(U))
        return rows(X, XD, U)

    f.rows = counted
    rs.estimate_lipschitz(f, [(-3.0, 3.0)] * 4, samples=samples)
    assert max(batches) <= max(samples, 1809)
    # the probes of the per-sweep sampler: two random families of pairs, then per axis
    # 3 anchors x 3 inputs x 201 nodes and their finite-difference partners
    assert sum(batches) == 4 * samples + 8 * 2 * 1809


def test_rows_match_call():
    rng = np.random.default_rng(5)
    rows = 400
    opaque = [
        rs.make_nonlinearity("paper_example", 3),
        Nonlinearity(2, fn=lambda x, xd, u: np.array([math.sin(x[0]) * u, xd[0] * x[1]])),
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
        Nonlinearity(2, fn=lambda x, xd, u: result)


def _list_contract_fn(x, xd, u):
    # raises unless called as documented: lists of Python floats and a float
    if not (type(x) is type(xd) is list and type(u) is float
            and all(type(v) is float for v in x + xd)):
        raise TypeError(f"called with {type(x)}, {type(xd)}, {type(u)}")
    return [math.sin(x[0]) * u, math.tanh(xd[0] * x[1]), x[2] * xd[1] - 0.5 * math.sin(xd[2])]


def test_rows_match_call_on_lists():
    f = Nonlinearity(3, fn=_list_contract_fn)
    rng = np.random.default_rng(13)
    X, XD = rng.uniform(-5, 5, (2, 100, 3))
    U = rng.uniform(-3, 3, 100)
    out = f.rows(X, XD, U)
    for i in range(100):
        assert np.array_equal(out[i], f(X[i], XD[i], U[i]))


def test_point_matches_component_expressions():
    texts = ["0.3*x1 - xd1*cos(u)", "x1*x2 + sin(xd2)/2 - x2/1e999", "0",
             "tanh(x3)^2 - abs(xd1)*x2 + exp(-xd3^2)*u*x4"]
    f = rs.make_nonlinearity(texts, 4)
    compiled = [el.compile_expr(c) for c in f.components]
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]
    for _ in range(200):
        xs = [float(v) for v in rng.uniform(-3.0, 3.0, 4)]
        xds = [float(v) for v in rng.uniform(-3.0, 3.0, 4)]
        u = float(rng.choice(specials)) if rng.random() < 0.2 else float(rng.uniform(-2.0, 2.0))
        xs[int(rng.integers(0, 4))] = float(rng.choice(specials))
        env = dict(zip([f"x{i}" for i in range(1, 5)] + [f"xd{i}" for i in range(1, 5)], xs + xds))
        env["u"] = u
        want = [c(env) for c in compiled]
        got = f.point(xs, xds, u)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


def test_state_index_past_the_integer_digit_limit_is_a_config_error():
    with pytest.raises(ConfigError, match="the system has n=1"):
        rs.make_nonlinearity(["x" + "1" * 5000], 1)


def test_unknown_variable_in_a_built_ast_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown variable 'y'"):
        Nonlinearity(1, components=[el.Bin("*", el.Num(0.0), el.Var("y"))])


def _point_not_called(*args):
    raise AssertionError("rows must run on columns, not through the scalar core")


def test_registry_entries_are_expression_text():
    f = rs.make_nonlinearity("paper_example", 3)
    assert f.components == [el.parse(t) for t in ["x1*cos(x1) + xd1*cos(u)", "0", "0"]]
    assert rs.make_nonlinearity("zero", 2).components == [el.Num(0.0)] * 2


def test_paper_advisory_runs_on_columns():
    f = rs.make_nonlinearity("paper_example", 2)
    f.point = _point_not_called
    advisory = rs.estimate_lipschitz(f, [(-30.0, 30.0)] * 2, seed=0)
    assert advisory == pytest.approx(29.79520149849768, rel=1e-12)


def test_rows_of_zero_registry_entry():
    f = rs.make_nonlinearity("zero", 4)
    f.point = _point_not_called
    X, XD = np.random.default_rng(3).uniform(-5, 5, (2, 7, 4))
    out = f.rows(X, XD, np.linspace(-1.0, 1.0, 7))
    assert out.shape == (7, 4) and out.dtype == float
    assert np.array_equal(out, np.zeros((7, 4)))


def test_column_function_compiles_on_the_first_rows_call(bench_gains, monkeypatch):
    texts = ["0.5*sin(x1) + 0.2*xd1*cos(u)", "tanh(x2*xd1) - 0.1*xd2^2"]
    compiled = []
    compile_vector = el.compile_vector

    def counted(exprs, params, columns=False):
        compiled.append(columns)
        return compile_vector(exprs, params, columns=columns)

    monkeypatch.setattr(el, "compile_vector", counted)
    f = rs.make_nonlinearity(texts, 2)
    sys_spec = rs.SystemSpec(n=2, tau=0.1, f=f, lipschitz_k=1.0)
    rs.run_scenario(sys_spec, bench_gains, rs.Scenario.OBSERVER_BASED, [0.5, -0.5], [0.0, 0.0],
                    h=0.01, horizon=0.5)
    assert compiled == [False]  # building f and simulating compile only the scalar core

    X, XD = np.random.default_rng(9).uniform(-3.0, 3.0, (2, 40, 2))
    U = np.linspace(-2.0, 2.0, 40)
    eager = compile_vector(f.components, ("x", "xd", "u"), columns=True)
    for _ in range(2):
        assert np.array_equal(f.rows(X, XD, U), np.column_stack(eager(X.T, XD.T, U)))
    assert compiled == [False, True]


@pytest.mark.parametrize("call, message", [
    (lambda: Nonlinearity(2), "exactly one of components/fn must be given"),
    (lambda: Nonlinearity(2, components=[el.parse("0")]), "expected 2 component expressions, got 1"),
    (lambda: rs.scale_gains(BENCH_L, BENCH_K[:1], 2.0), "L and K must be one-dimensional vectors of equal length"),
    (lambda: rs.scale_gains(BENCH_L, BENCH_K, math.nan), "theta must be positive and finite, got nan"),
    (lambda: rs.estimate_lipschitz(rs.make_nonlinearity("zero", 2), [(-5, 5), (-5, 5)], seed=1.5),
     "the advisory seed must be an integer, got 1.5"),
    (lambda: rs.estimate_lipschitz(rs.make_nonlinearity("zero", 2), [(-5, 5), (-5, 5)], seed=math.nan),
     "the advisory seed must be >= 0, got nan"),
    (lambda: rs.SystemSpec(n=2, tau=1.0, f=rs.make_nonlinearity("zero", 2), lipschitz_k=math.inf),
     "lipschitz_k must be finite and >= 0, got inf"),
    (lambda: rs.SystemSpec(n=2, tau=1.0, f=rs.make_nonlinearity("zero", 2), lipschitz_k=0.0,
                           domain_box=[(-1.0, 1.0), (math.nan, 1.0)]),
     "domain box range 2's lower end must be finite and below 1.0, got nan"),
], ids=["neither_components_nor_fn", "too_few_components", "gain_lengths_differ", "theta_nan",
        "seed_not_an_integer", "seed_nan", "lipschitz_k_inf", "box_end_nan"])
def test_construction_input_errors(call, message):
    with pytest.raises(ConfigError) as caught:
        call()
    assert str(caught.value) == message


def test_lipschitz_takes_a_seed_past_the_largest_double():
    # a 400-digit seed is an integer >= 0 that math.isfinite could not convert
    f = rs.make_nonlinearity("zero", 2)
    assert rs.estimate_lipschitz(f, [(-5, 5), (-5, 5)], samples=100, seed=10 ** 399) == 0.0
