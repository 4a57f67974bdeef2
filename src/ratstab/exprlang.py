"""Small arithmetic expression language for configuring nonlinearities.

Grammar, lowest to highest precedence::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Identifiers are case-sensitive. Valid variables are the states x1, x2, ...,
the delayed states xd1, xd2, ..., the input u and time t. Available
functions: sin, cos, tan, tanh, exp, ln, sqrt, abs.

An AST is compiled once by :func:`compile_expr` into nested closures, which
callers keep and call for every point. One builder serves two operation
tables. The scalar table evaluates one point, a mapping from variable name
to float, with :mod:`math`; the column table evaluates many points at once,
a mapping from variable name to a 1-D numpy column, with numpy ufuncs.
:func:`evaluate` is "compile with the scalar table, then call".

Both tables follow one non-finite policy. Evaluation is plain IEEE double
arithmetic and total: domain errors (ln of a negative number, division by
zero, ...) produce non-finite values instead of raising, so callers driving
the evaluator inside a simulation loop can apply their own divergence
policy; ``0^y`` with ``y < 0`` is ``+inf`` whatever the sign of the zero.
The column table raises no floating-point warnings. Its ``+ - * / ^``,
negation, ``sqrt`` and ``abs`` give the scalar table's doubles bit for bit;
its other functions may differ from :mod:`math` by a few ulp, never in
class (finite, nan, +inf or -inf). The names :func:`evaluate` and
:func:`compile_expr` avoid shadowing the ``eval`` and ``compile`` builtins.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from .errors import ToolkitError

_MAX_NEST = 150  # parse recursion guard; arbitrary byte strings must not blow the stack
_MAX_HEIGHT = 300  # AST height guard; free_vars, compile_expr and to_string recurse per level


class ExprSyntaxError(ToolkitError):
    """Malformed expression text; ``offset`` is the character position."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExprEvalError(ToolkitError):
    """Evaluation hit an unbound variable."""


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Neg, Call, Bin]

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"(?:xd?[1-9][0-9]*|[ut])\Z")


def _safe_ln(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    if x == 0.0:
        return -math.inf
    return math.nan


def _safe_sqrt(x: float) -> float:
    if x >= 0.0:
        return math.sqrt(x)
    return math.nan  # negative or nan


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _safe_trig(fn):
    def wrapped(x: float) -> float:
        try:
            return fn(x)
        except ValueError:  # sin/cos/tan of +-inf
            return math.nan

    return wrapped


FUNCTIONS = {
    "sin": _safe_trig(math.sin),
    "cos": _safe_trig(math.cos),
    "tan": _safe_trig(math.tan),
    "tanh": math.tanh,
    "exp": _safe_exp,
    "ln": _safe_ln,
    "sqrt": _safe_sqrt,
    "abs": abs,
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(text, pos)
        if m is not None:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m is not None:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(pos, f"unexpected character {ch!r}")
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self._toks = tokens
        self._i = 0

    def _peek(self):
        return self._toks[self._i]

    def _advance(self):
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def _check_depth(self, depth: int):
        if depth > _MAX_NEST:
            raise ExprSyntaxError(self._peek()[2], "expression nests too deeply")

    def parse(self) -> Expr:
        e = self._expr(0)
        kind, value, offset = self._peek()
        if kind != "end":
            raise ExprSyntaxError(offset, f"unexpected {value!r}")
        if _height(e) > _MAX_HEIGHT:
            raise ExprSyntaxError(0, f"expression tree is more than {_MAX_HEIGHT} levels deep")
        return e

    def _expr(self, depth: int) -> Expr:
        self._check_depth(depth)
        e = self._term(depth)
        while self._peek()[:2] in (("op", "+"), ("op", "-")):
            op = self._advance()[1]
            e = Bin(op, e, self._term(depth))
        return e

    def _term(self, depth: int) -> Expr:
        e = self._unary(depth)
        while self._peek()[:2] in (("op", "*"), ("op", "/")):
            op = self._advance()[1]
            e = Bin(op, e, self._unary(depth))
        return e

    def _unary(self, depth: int) -> Expr:
        self._check_depth(depth)
        if self._peek()[:2] == ("op", "-"):
            self._advance()
            return Neg(self._unary(depth + 1))
        return self._power(depth)

    def _power(self, depth: int) -> Expr:
        base = self._atom(depth)
        if self._peek()[:2] == ("op", "^"):
            self._advance()
            return Bin("^", base, self._unary(depth + 1))
        return base

    def _atom(self, depth: int) -> Expr:
        kind, value, offset = self._advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if self._peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(offset, f"unknown function {value!r}")
                self._advance()
                arg = self._expr(depth + 1)
                if self._peek()[:2] != ("op", ")"):
                    raise ExprSyntaxError(self._peek()[2], "expected ')'")
                self._advance()
                return Call(value, arg)
            if _VAR_RE.match(value) is None:
                raise ExprSyntaxError(offset, f"unknown identifier {value!r}")
            return Var(value)
        if (kind, value) == ("op", "("):
            e = self._expr(depth + 1)
            if self._peek()[:2] != ("op", ")"):
                raise ExprSyntaxError(self._peek()[2], "expected ')'")
            self._advance()
            return e
        return _raise_expected_value(kind, value, offset)


def _children(expr: Expr) -> tuple:
    if isinstance(expr, Bin):
        return expr.left, expr.right
    if isinstance(expr, (Neg, Call)):
        return (expr.arg,)
    return ()


def _height(expr: Expr) -> int:
    """Number of levels of the tree, counted without recursion.

    Operator chains such as ``x1+x1+...`` are parsed in a loop, so the parse
    depth does not bound the height of the left-leaning tree they build.
    """
    height, level = 0, [expr]
    while level:
        height += 1
        level = [child for node in level for child in _children(node)]
    return height


def _raise_expected_value(kind, value, offset):
    shown = "end of input" if kind == "end" else repr(value)
    raise ExprSyntaxError(offset, f"expected a value, found {shown}")


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError with offset."""
    return _Parser(_tokenize(text)).parse()


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except ValueError:
        if base == 0.0 and exponent < 0.0:
            return math.inf
        return math.nan  # negative base with fractional exponent
    except OverflowError:
        if base < 0.0 and exponent == round(exponent) and int(round(exponent)) % 2 == 1:
            return -math.inf
        return math.inf


def _div(left: float, right: float) -> float:
    try:
        return left / right
    except ZeroDivisionError:
        if left == 0.0 or math.isnan(left):
            return math.nan
        return math.copysign(math.inf, left) * math.copysign(1.0, right)


def _column_pow(base, exponent):
    # np.float_power gives math.pow's doubles; np.power's SIMD loop can be an ulp
    # off, and its x^0.5 -> sqrt shortcut gives nan for (-inf)^0.5
    out = np.float_power(base, exponent)
    return np.where((base == 0.0) & (exponent < 0.0), np.inf, out)  # (-0)^(-odd)


# operation tables: one entry per binary operator, "neg" and every function
_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
               "^": _pow, "neg": operator.neg, **FUNCTIONS}
_COLUMN_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
               "^": _column_pow, "neg": np.negative,
               "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
               "exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "abs": np.abs}


def _build(expr: Expr, ops: Mapping[str, Callable]) -> Callable:
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        return operator.itemgetter(expr.name)
    if isinstance(expr, Neg):
        op, arg = ops["neg"], _build(expr.arg, ops)
        return lambda env: op(arg(env))
    if isinstance(expr, Call):
        op, arg = ops[expr.func], _build(expr.arg, ops)
        return lambda env: op(arg(env))
    op, left, right = ops[expr.op], _build(expr.left, ops), _build(expr.right, ops)
    return lambda env: op(left(env), right(env))


def compile_expr(expr: Expr, columns: bool = False) -> Callable[[Mapping], float]:
    """Compile an AST once into a function of a variable assignment.

    With ``columns=False`` the function maps names to floats and returns a
    float. With ``columns=True`` it maps names to 1-D float arrays of one
    length and returns an array of that length, or a numpy scalar when the
    expression reads no variable. Every variable read must be bound, or
    the call raises ExprEvalError naming it.
    """
    fn = _build(expr, _COLUMN_OPS if columns else _SCALAR_OPS)

    def compiled(env):
        try:
            if columns:
                with np.errstate(all="ignore"):
                    return fn(env)
            return fn(env)
        except KeyError as exc:  # only a variable lookup raises it, in either table
            raise ExprEvalError(f"unbound variable {exc.args[0]!r}") from None

    return compiled


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate an AST under a variable assignment.

    Every free variable must be bound in ``env``; non-finite results are
    legal and returned as-is. Compiles on every call: callers evaluating
    one expression at many points keep :func:`compile_expr`'s result.
    """
    return compile_expr(expr)(env)


def free_vars(expr: Expr) -> set[str]:
    """Exact set of variable names appearing in the expression."""
    names, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        stack.extend(_children(node))
    return names


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(expr: Expr) -> int:
    if isinstance(expr, Bin):
        if expr.op in "+-":
            return _PREC_ADD
        if expr.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(expr, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_string(expr: Expr) -> str:
    """Unparse an AST; parse(to_string(e)) is structurally identical to e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_string(expr.arg)
        if _prec(expr.arg) < _PREC_NEG:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(expr, Call):
        return f"{expr.func}({to_string(expr.arg)})"
    left, right = to_string(expr.left), to_string(expr.right)
    if expr.op == "^":
        # right-associative and the exponent slot only admits unary/power forms
        if _prec(expr.left) <= _PREC_POW:
            left = f"({left})"
        if _prec(expr.right) < _PREC_NEG:
            right = f"({right})"
        return f"{left}^{right}"
    own = _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if _prec(expr.left) < own:
        left = f"({left})"
    if _prec(expr.right) <= own:
        right = f"({right})"
    return f"{left}{expr.op}{right}"
