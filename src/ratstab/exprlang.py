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

An AST is compiled once into a generated Python function, which callers
keep and call for every point. One emitter, :func:`emit`, walks the tree
with an explicit stack and writes one assignment per operator node as
straight-line source; :func:`compile_expr` and :func:`compile_vector` wrap
its lines in a ``def`` and hand that to the ``compile`` builtin once, and
the simulator writes them into its own generated RK4 stage. Literals and
table entries are bound as values, and a variable is read through the
caller's code for its name, so no AST text becomes code. The emitter
serves two operation tables. The scalar table evaluates one point with
:mod:`math`; the column table evaluates many points at once, 1-D numpy
columns, with numpy ufuncs. :func:`compile_expr` gives a
function of a mapping from variable name to value, in either table, and
:func:`evaluate` is "compile with the scalar table, then call".
:func:`compile_vector` compiles several ASTs into one function of
positional arguments, in either table, such as a nonlinearity's
``point(xs, xds, u)`` or a history's ``phi(t)``, with no mapping built per
call. The scalar table's ``+ - *`` and negation are spelled as Python
operators, and its sin, cos and tan as ``cos(a) if -inf < a < inf else
nan``, which gives the table entry's values without calling it.

Both tables follow one non-finite policy. Evaluation is plain IEEE double
arithmetic and total: domain errors (ln of a negative number, division by
zero, ...) produce non-finite values instead of raising, so callers driving
the evaluator inside a simulation loop can apply their own divergence
policy; ``0^y`` with ``y < 0`` is ``+inf`` whatever the sign of the zero.
The column table raises no floating-point warnings. Its ``+ - * / ^``,
negation, ``sqrt`` and ``abs`` give the scalar table's doubles bit for bit,
up to the sign of a NaN; its other functions may differ from :mod:`math`
by a few ulp, never in class (finite, nan, +inf or -inf). The names :func:`evaluate` and
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
_MAX_HEIGHT = 300  # AST height guard; to_string recurses, generated code keeps a local, per level
_MAX_TOKENS = 10_000  # size guard; compiling costs time and memory linear in the size


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

# whitespace (str.isspace), then at most one token: a number, an identifier, an operator or,
# as "bad", any other character
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<op>[-+*/^()])|(?P<bad>\S))?")
_STATE_RE = re.compile(r"(xd?)([1-9][0-9]*)\Z")


def state_index(name: str) -> tuple[str, float] | None:
    """("x" or "xd", 1-based index) of a state variable's name, else None. An index
    of more than 9 digits reads as inf (int() caps at 4300 digits; no state has one)."""
    m = _STATE_RE.match(name)
    if m is None:
        return None
    digits = m.group(2)
    return m.group(1), (int(digits) if len(digits) <= 9 else math.inf)


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
    tokens, pos = [], 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind is None:  # only whitespace was left
            break
        if len(tokens) == _MAX_TOKENS:
            raise ExprSyntaxError(m.start(kind), f"expression has more than {_MAX_TOKENS} tokens")
        if kind == "bad":
            raise ExprSyntaxError(m.start(kind), f"unexpected character {m[kind]!r}")
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
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
        call = kind == "ident" and self._peek()[:2] == ("op", "(")
        if call:
            if value not in FUNCTIONS:
                raise ExprSyntaxError(offset, f"unknown function {value!r}")
            self._advance()
        elif kind == "ident":
            if value not in ("u", "t") and state_index(value) is None:
                raise ExprSyntaxError(offset, f"unknown identifier {value!r}")
            return Var(value)
        elif (kind, value) != ("op", "("):
            shown = "end of input" if kind == "end" else repr(value)
            raise ExprSyntaxError(offset, f"expected a value, found {shown}")
        e = self._expr(depth + 1)  # a call's argument or a bracketed expression
        if self._peek()[:2] != ("op", ")"):
            raise ExprSyntaxError(self._peek()[2], "expected ')'")
        self._advance()
        return Call(value, e) if call else e


def _children(expr: Expr) -> tuple:
    if isinstance(expr, Bin):
        return expr.left, expr.right
    if isinstance(expr, (Neg, Call)):
        return (expr.arg,)
    return ()


def _walk(expr: Expr):
    """Every node of the tree and its level, the root's being 1, without recursion."""
    stack = [(expr, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        for child in _children(node):
            stack.append((child, level + 1))


def _height(expr: Expr) -> int:
    """Number of levels of the tree.

    Operator chains such as ``x1+x1+...`` are parsed in a loop, so the parse
    depth does not bound the height of the left-leaning tree they build.
    """
    return max(level for _, level in _walk(expr))


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError with offset.

    Text of more than 10,000 tokens (numbers, names, operators and
    brackets), nested more than 150 levels or whose tree is more than 300
    levels high is rejected.
    """
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


# table entries that generated code spells as Python operators: the same operations
_SYNTAX = {(operator.add, 2): "{0} + {1}", (operator.sub, 2): "{0} - {1}",
           (operator.mul, 2): "{0} * {1}", (operator.neg, 1): "-{0}"}
# the scalar table's sin, cos and tan, spelled as a finite check around math's own: the
# check stands in for the entry's handler of +-inf, so math sees the same finite inputs
_TRIG = {FUNCTIONS[name]: getattr(math, name) for name in ("sin", "cos", "tan")}


def operator_count(expr: Expr, limit: float = math.inf) -> int:
    """Number of operator nodes (operators, negations and calls) in the tree;
    the count stops once it passes ``limit``."""
    count = 0
    for node, _ in _walk(expr):
        if count > limit:
            break
        count += not isinstance(node, (Num, Var))
    return count


def emit(items, bind: Callable, prefix: str = "",
         ops: Mapping[str, Callable] = _SCALAR_OPS) -> tuple[list, list]:
    """Straight-line assignment lines that compute expressions, for a caller's generated source.

    ``items`` are pairs ``(expr, read)``. ``read(name)`` gives the code
    that reads variable ``name`` in the caller's source, or None when
    nothing binds it (ExprEvalError). A read that is not a plain name is
    taken once, into a local. ``bind(value)`` puts a literal or an entry
    of ``ops``, the scalar table by default, into the generated code's
    namespace and returns its name. The walk is post-order with an
    explicit stack and writes one assignment per operator node: the value
    at stack position d goes to local ``<prefix>s<d>``, so the lines use
    one such local per tree level, not one per node. A call whose operand
    is a name that the lines never reassign (a variable, a literal or
    another such call) is written once, into its own local, however often
    it appears. So no AST text ever becomes code. Returns the lines,
    unindented, and one operand per expression: the name that holds its
    value after the lines have run.
    """
    templates = {}  # (table key, arity) -> code with {0}, {1} for the operands
    held, calls = {}, {}  # read code -> local or name; (key, operand) -> local of a call
    slots = set()
    reads, body = [], []
    values = []  # operand per stack position: a slot, or a name the lines never reassign

    def template(key, arity) -> str:
        if key not in ops:
            raise ExprEvalError(f"unknown operation {key!r}")
        fn = ops[key]
        if (fn, arity) in _SYNTAX:
            return _SYNTAX[fn, arity]
        if fn in _TRIG:
            return (f"{bind(_TRIG[fn])}({{0}}) if {bind(-math.inf)} < {{0}} < {bind(math.inf)} "
                    f"else {bind(math.nan)}")
        return f"{bind(fn)}({', '.join(f'{{{i}}}' for i in range(arity))})"

    for expr, read in items:
        todo = [(expr, False)]
        while todo:
            node, expanded = todo.pop()
            if isinstance(node, Num):
                values.append(bind(node.value))
            elif isinstance(node, Var):
                code = read(node.name)
                if code is None:
                    raise ExprEvalError(f"unbound variable {node.name!r}")
                if code not in held:
                    held[code] = code if code.isidentifier() else f"{prefix}v{len(reads)}"
                    if held[code] != code:
                        reads.append(f"{held[code]} = {code}")
                values.append(held[code])
            elif not expanded:
                todo.append((node, True))
                todo.extend((child, False) for child in reversed(_children(node)))
            else:
                arity = 2 if isinstance(node, Bin) else 1
                key = node.op if arity == 2 else "neg" if isinstance(node, Neg) else node.func
                if (key, arity) not in templates:
                    templates[key, arity] = template(key, arity)
                args = values[-arity:]
                del values[-arity:]
                code = templates[key, arity].format(*args)
                if isinstance(node, Call) and args[0] not in slots:
                    if (key, args[0]) not in calls:
                        calls[key, args[0]] = f"{prefix}c{len(calls)}"
                        body.append(f"{calls[key, args[0]]} = {code}")
                    values.append(calls[key, args[0]])
                else:
                    slot = f"{prefix}s{len(values)}"
                    slots.add(slot)
                    body.append(f"{slot} = {code}")
                    values.append(slot)
    return reads + body, values


def _generate(exprs, ops: Mapping[str, Callable], params: tuple, read: Callable) -> Callable:
    """Compile ASTs into one straight-line Python function of ``params``.

    The body is :func:`emit`'s lines, and the function returns the list of
    the expressions' values. Literals and table entries are bound as values
    in the function's namespace, which holds no builtins, and ``read(name)``
    gives the code that reads variable ``name`` from ``params``.
    """
    namespace = {"__builtins__": {}}

    def bind(value) -> str:
        name = f"k{len(namespace) - 1}"
        namespace[name] = value
        return name

    lines, values = emit([(expr, read) for expr in exprs], bind, ops=ops)
    source = "\n".join([f"def generated({', '.join(params)}):", *(f"    {line}" for line in lines),
                        f"    return [{', '.join(values)}]", ""])
    exec(compile(source, "<exprlang>", "exec"), namespace)
    return namespace["generated"]


def _env_read(name):
    return f"env[{name!r}]" if type(name) is str else None  # a str's repr is a string literal


def compile_expr(expr: Expr, columns: bool = False) -> Callable[[Mapping], float]:
    """Compile an AST once into a function of a variable assignment.

    With ``columns=False`` the function maps names to floats and returns a
    float. With ``columns=True`` it maps names to 1-D float arrays of one
    length and returns an array of that length, or a numpy scalar when the
    expression reads no variable. Every variable read must be bound, or
    the call raises ExprEvalError naming it.
    """
    fn = _generate([expr], _COLUMN_OPS if columns else _SCALAR_OPS, ("env",), _env_read)

    def compiled(env):
        try:
            if columns:
                with np.errstate(all="ignore"):
                    return fn(env)[0]
            return fn(env)[0]
        except KeyError as exc:  # only a variable read raises it, in either table
            raise ExprEvalError(f"unbound variable {exc.args[0]!r}") from None

    return compiled


def compile_vector(exprs, params: tuple, columns: bool = False) -> Callable[..., list]:
    """Compile ASTs once into one function of positional ``params``.

    ``params`` names the arguments in order: ``"x"`` and ``"xd"`` are
    sequences, read as x1 = x[0], xd2 = xd[1] and so on, and ``"u"`` and
    ``"t"`` are single values. With ``columns=False`` every value is a
    float; with ``columns=True`` it is a 1-D float array, all of one
    length, and the caller chooses numpy's error state. The function
    returns the list of the expressions' values, where an expression that
    reads no variable gives one number. A variable that no parameter binds
    raises ExprEvalError naming it here, at compile time.
    """
    def read(name):
        if type(name) is not str:
            return None
        if name in ("u", "t"):
            return name if name in params else None
        state = state_index(name)
        if state is None or state[0] not in params or state[1] == math.inf:
            return None
        return f"{state[0]}[{state[1] - 1}]"

    return _generate(exprs, _COLUMN_OPS if columns else _SCALAR_OPS, tuple(params), read)


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate an AST under a variable assignment.

    Every free variable must be bound in ``env``; non-finite results are
    legal and returned as-is. Compiles on every call: callers evaluating
    one expression at many points keep :func:`compile_expr`'s result.
    """
    return compile_expr(expr)(env)


def free_vars(expr: Expr) -> set[str]:
    """Exact set of variable names appearing in the expression."""
    return {node.name for node, _ in _walk(expr) if isinstance(node, Var)}


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
        return "1e999" if expr.value == math.inf else repr(expr.value)  # parse overflows to inf
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
