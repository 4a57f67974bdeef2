import math

import numpy as np
import pytest

from ratstab import exprlang as el
from ratstab.exprlang import Bin, Call, ExprEvalError, ExprSyntaxError, Neg, Num, Var

from conftest import ulp_distance


def ev(text, **env):
    return el.evaluate(el.parse(text), env)


def test_precedence_goldens():
    assert ev("1+2*3") == 7.0
    assert ev("2*3+4") == 10.0
    assert ev("(1+2)*3") == 9.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("-2^2") == -4.0  # unary minus binds below the power
    assert ev("2^-1") == 0.5
    assert ev("--3") == 3.0
    assert ev("6/3/2") == 1.0  # left-associative
    assert ev("1-2-3") == -4.0


def test_benchmark_expression():
    e = el.parse("x1*cos(x1)+xd1*cos(u)")
    value = el.evaluate(e, {"x1": math.pi, "xd1": 2.0, "u": 0.0})
    assert value == pytest.approx(2.0 - math.pi, rel=1e-15)
    assert el.free_vars(e) == {"x1", "xd1", "u"}


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
    assert ev("ln(exp(2))") == pytest.approx(2.0, rel=1e-15)
    assert ev("sqrt(9)") == 3.0
    assert ev("abs(0-4)") == 4.0
    assert ev("tanh(0)") == 0.0
    assert ev("tan(0)") == 0.0


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        el.parse("x1+*2")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError) as err:
        el.parse("1+")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        el.parse("1 2")
    assert err.value.offset == 2


def test_unknown_identifiers():
    with pytest.raises(ExprSyntaxError, match="unknown function 'foo'"):
        el.parse("foo(1)")
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'y1'"):
        el.parse("y1+1")
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'x0'"):
        el.parse("x0")
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'sin'"):
        el.parse("sin + 1")  # function name without a call


def test_unbound_variable_named():
    with pytest.raises(ExprEvalError, match="xd2"):
        el.evaluate(el.parse("x1+xd2"), {"x1": 1.0})


def test_free_vars_goldens():
    assert el.free_vars(el.parse("3.5")) == set()
    assert el.free_vars(el.parse("x2+xd3")) == {"x2", "xd3"}
    assert el.free_vars(el.parse("t*u")) == {"t", "u"}


def test_nonfinite_policy():
    assert math.isinf(ev("1/0"))
    assert ev("1/0") > 0
    assert ev("(0-1)/0") < 0
    assert math.isnan(ev("0/0"))
    assert math.isnan(ev("ln(0-1)"))
    assert ev("ln(0)") == -math.inf
    assert math.isnan(ev("sqrt(0-4)"))
    assert math.isnan(ev("(0-2)^0.5"))
    assert math.isinf(ev("exp(10000)"))
    assert math.isinf(ev("0^-1"))
    assert math.isnan(ev("sin(1/0)"))


_FUNC_NAMES = sorted(el.FUNCTIONS)


_VAR_POOL = ["x1", "x2", "x3", "xd1", "xd2", "u", "t"]


def _random_tree(rng, depth, funcs=_FUNC_NAMES):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(float(rng.integers(0, 40)) / 4.0)
        return Var(_VAR_POOL[int(rng.integers(0, len(_VAR_POOL)))])
    pick = rng.random()
    if pick < 0.55:
        op = "+-*/^"[int(rng.integers(0, 5))]
        return Bin(op, _random_tree(rng, depth - 1, funcs), _random_tree(rng, depth - 1, funcs))
    if pick < 0.75:
        return Neg(_random_tree(rng, depth - 1, funcs))
    func = funcs[int(rng.integers(0, len(funcs)))]
    return Call(func, _random_tree(rng, depth - 1, funcs))


def test_unparse_roundtrip_property():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        tree = _random_tree(rng, int(rng.integers(1, 7)))
        assert el.parse(el.to_string(tree)) == tree


def test_matches_builtin_registry_entry():
    import ratstab as rs

    handle = rs.make_nonlinearity("paper_example", 2)
    e = el.parse("x1*cos(x1)+xd1*cos(u)")
    rng = np.random.default_rng(99)
    for _ in range(1000):
        x1, xd1, u = rng.uniform(-10.0, 10.0, 3)
        mine = el.evaluate(e, {"x1": x1, "xd1": xd1, "u": u})
        ref = handle(np.array([x1, 0.0]), np.array([xd1, 0.0]), u)[0]
        assert mine == pytest.approx(ref, rel=1e-15, abs=1e-15)


def test_fuzz_no_crash():
    rng = np.random.default_rng(1234)
    crafted = [
        "(" * 4096,
        ")" * 4096,
        "-" * 4096,
        "1e" * 2048,
        "x1" * 2048,
        "((((1+2)*3" * 300,
        "\x00\xff\x7f",
        "",
        " " * 4096,
    ]
    for _ in range(300):
        length = int(rng.integers(0, 4096))
        crafted.append(bytes(rng.integers(0, 256, length).tolist()).decode("latin-1"))
    alphabet = "x1 xd2 u t +-*/^() sin cos ln sqrt 0123456789 . e"
    for _ in range(300):
        length = int(rng.integers(0, 200))
        picks = rng.integers(0, len(alphabet), length)
        crafted.append("".join(alphabet[i] for i in picks))
    for text in crafted:
        try:
            tree = el.parse(text)
        except ExprSyntaxError:
            continue
        el.free_vars(tree)  # parsed trees must be walkable too


# --- the column table against the scalar one --------------------------------------------


def _literals_as_columns(tree, env, size):
    """The tree with every literal read from a constant column added to env."""
    if isinstance(tree, Num):
        name = f"c{len(env)}"
        env[name] = np.full(size, tree.value)
        return Var(name)
    if isinstance(tree, Neg):
        return Neg(_literals_as_columns(tree.arg, env, size))
    if isinstance(tree, Call):
        return Call(tree.func, _literals_as_columns(tree.arg, env, size))
    if isinstance(tree, Bin):
        return Bin(tree.op, _literals_as_columns(tree.left, env, size),
                   _literals_as_columns(tree.right, env, size))
    return tree


def ev_columns(text, size=3):
    """Evaluate constant text through the column table, every operand a column."""
    env = {}
    tree = _literals_as_columns(el.parse(text), env, size)
    out = el.compile_expr(tree, columns=True)(env)
    assert out.shape == (size,)
    assert np.all(ulp_distance(out, out[0]) == 0.0)
    return float(out[0])


def test_column_table_follows_nonfinite_policy():
    # every case of test_nonfinite_policy and test_functions, plus (-0)^(negative odd)
    cases = ["1/0", "(0-1)/0", "0/0", "ln(0-1)", "ln(0)", "sqrt(0-4)", "(0-2)^0.5",
             "exp(10000)", "0^-1", "sin(1/0)", "sin(0)", "cos(0)", "exp(1)", "ln(exp(2))",
             "sqrt(9)", "abs(0-4)", "tanh(0)", "tan(0)", "(0*(0-1))^(0-1)"]
    for text in cases:
        assert ulp_distance(ev_columns(text), ev(text)) <= 4.0, text
    assert ev("(0*(0-1))^(0-1)") == math.inf
    assert ev_columns("(0*(0-1))^(0-1)") == math.inf
    assert ev_columns("(0-1)/0") == -math.inf
    assert math.isnan(ev_columns("0/0"))


def test_column_table_matches_scalar_on_random_trees():
    # + - * / ^, negation, sqrt and abs are correctly rounded in math and numpy alike
    rng = np.random.default_rng(31)
    specials = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan])
    size = 64
    for _ in range(400):
        tree = _random_tree(rng, int(rng.integers(1, 7)), funcs=("sqrt", "abs"))
        env = {}
        for name in _VAR_POOL:
            column = rng.uniform(-4.0, 4.0, size)
            column[:12] = rng.choice(specials, 12)
            env[name] = column
        got = np.broadcast_to(el.compile_expr(tree, columns=True)(env), size)
        scalar = el.compile_expr(tree)
        want = [scalar({k: float(v[i]) for k, v in env.items()}) for i in range(size)]
        assert np.array_equal(got, want, equal_nan=True), el.to_string(tree)


def test_column_functions_within_4_ulp():
    rng = np.random.default_rng(8)
    args = np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e6, -1e6, 710.0, -746.0],
        rng.uniform(-1e6, 1e6, 2000),
        rng.uniform(-30.0, 30.0, 2000),
        rng.uniform(-1e-3, 1e-3, 500),
    ])
    for func in ("sin", "cos", "tan", "tanh", "exp", "ln"):
        got = el.compile_expr(el.parse(f"{func}(x1)"), columns=True)({"x1": args})
        want = np.array([el.FUNCTIONS[func](float(a)) for a in args])
        assert np.max(ulp_distance(got, want)) <= 4.0, func


def test_column_unbound_variable_named():
    with pytest.raises(ExprEvalError, match="xd2"):
        el.compile_expr(el.parse("x1+xd2"), columns=True)({"x1": np.zeros(3)})
