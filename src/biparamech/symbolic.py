"""Expression trees over para-complex coordinates.

Variables come in the families ``z1..zn`` and ``zb1..zbn``, which are
formally independent: the partial derivative of ``zb_k`` by ``z_i`` is
zero.  Velocity symbols ``xi1..xin`` and ``xib1..xibn`` appear in derived
quantities (energies, synthesized equation rows) but are not part of the
input grammar.  Expressions are immutable and compare structurally.

Grammar accepted by :func:`parse` (standard precedence, ``^`` binds
tighter than unary minus, ``*``/``/`` and ``+``/``-`` associate left; a
chain of ``+``/``-`` is one flat Sum and a chain of ``*`` one Product)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" integer)?
    primary := number | "j" | variable | function "(" expr ")" | "(" expr ")"

Numbers are decimal with optional fraction and exponent; variables are
``z<digits>`` or ``zb<digits>``; functions are exp, ln, sin, cos.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Iterator
from functools import partial, reduce

from .para_algebra import (
    FUNCTIONS,
    INVERTIBILITY_FLOOR,
    J,
    ONE,
    ZERO,
    DomainError,
    ParaComplex,
    ValueType,
    ZeroDivisor,
    _pow_leg,
    apply_function,
)

_FAMILIES = ("z", "zb", "xi", "xib")
_FAMILY_RANK = {f: i for i, f in enumerate(_FAMILIES)}


class ExpressionError(ValueError):
    """Problem with an expression's text or its use of the chart."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (column {pos + 1})"
        super().__init__(message)


class ExprSyntaxError(ExpressionError):
    pass


class UnknownVariable(ExpressionError):
    pass


class IndexOutOfRange(ExpressionError):
    pass


class CoordinateChart(ValueType):
    """n para-complex coordinates z1..zn with formal partners zb1..zbn."""

    _fields = ("n",)

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise ValueError("chart needs a positive integer coordinate count")
        self.__dict__["n"] = n

    def indices(self) -> range:
        return range(1, self.n + 1)

    def slots(self) -> tuple:
        """(family, index) of z1..zn, zb1..zbn, the order of a state's legs."""
        return tuple((family, i) for family in ("z", "zb") for i in self.indices())


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class Expr(ValueType):
    """Base node.

    A node's hash is computed once and kept in its __dict__, as sort_key
    is: an lru_cache key may be a whole system.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash(self._values())
        return h


class Constant(Expr):
    _fields = ("value",)

    def __init__(self, value: ParaComplex) -> None:
        self.__dict__["value"] = value


class Var(Expr):
    _fields = ("family", "index")

    def __init__(self, family: str, index: int) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown variable family {family!r}")
        if index < 1:
            raise ValueError("variable index is 1-based")
        d = self.__dict__
        d["family"] = family
        d["index"] = index

    @property
    def name(self) -> str:
        return f"{self.family}{self.index}"


class Sum(Expr):
    _fields = ("children",)

    def __init__(self, children: tuple) -> None:
        self.__dict__["children"] = children


class Product(Expr):
    _fields = ("children",)

    def __init__(self, children: tuple) -> None:
        self.__dict__["children"] = children


class Power(Expr):
    _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        d = self.__dict__
        d["base"] = base
        d["exponent"] = exponent


class Quotient(Expr):
    _fields = ("num", "den")

    def __init__(self, num: Expr, den: Expr) -> None:
        d = self.__dict__
        d["num"] = num
        d["den"] = den


class Apply(Expr):
    _fields = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr) -> None:
        d = self.__dict__
        d["fn"] = fn
        d["arg"] = arg


class Negate(Expr):
    _fields = ("child",)

    def __init__(self, child: Expr) -> None:
        self.__dict__["child"] = child


ZERO_EXPR = Constant(ZERO)
ONE_EXPR = Constant(ONE)
J_EXPR = Constant(J)


def z_var(i: int) -> Var:
    return Var("z", i)


def zb_var(i: int) -> Var:
    return Var("zb", i)


def xi_var(i: int) -> Var:
    return Var("xi", i)


def xib_var(i: int) -> Var:
    return Var("xib", i)


def children_of(e: Expr) -> tuple:
    if isinstance(e, (Sum, Product)):
        return e.children
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Quotient):
        return (e.num, e.den)
    if isinstance(e, Apply):
        return (e.arg,)
    if isinstance(e, Negate):
        return (e.child,)
    return ()


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children_of(e):
        yield from walk(c)


def vars_of(e: Expr) -> frozenset[tuple[str, int]]:
    return frozenset((n.family, n.index) for n in walk(e) if isinstance(n, Var))


def is_zero(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value.a == 0.0 and e.value.b == 0.0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_VAR_RE = re.compile(r"^(z|zb|xi|xib)([0-9]+)$")
_INT_RE = re.compile(r"^\d+$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _chain(node, items: list) -> Expr:
    # one flat node per chain, so a long input does not nest deeply
    return items[0] if len(items) == 1 else node(tuple(items))


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], chart: CoordinateChart):
        self.tokens = tokens
        self.chart = chart
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text
        return None

    def expect_op(self, op: str, expected: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {expected}, got {text or 'end of input'!r}", pos)
        self.advance()

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while (op := self.accept_op("+", "-")) is not None:
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else Negate(rhs))
        return _chain(Sum, terms)

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while (op := self.accept_op("*", "/")) is not None:
            rhs = self.parse_factor()
            if op == "*":
                factors.append(rhs)
            else:
                factors = [Quotient(_chain(Product, factors), rhs)]
        return _chain(Product, factors)

    def parse_factor(self) -> Expr:
        if self.accept_op("-"):
            return Negate(self.parse_factor())
        base = self.parse_primary()
        if self.accept_op("^"):
            return Power(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        sign = -1 if self.accept_op("-") else 1
        kind, text, pos = self.advance()
        if kind != "num" or not _INT_RE.match(text):
            raise ExprSyntaxError("expected an integer exponent", pos)
        if not math.isfinite(float(text)):  # differentiate needs float(k); int() takes <= 4300 digits
            raise ExprSyntaxError(f"exponent {text!r} overflows", pos)
        k = sign * int(text)
        if k == 0:
            raise ExprSyntaxError("exponent must be a nonzero integer", pos)
        return k

    def parse_primary(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} overflows", pos)
            return Constant(ParaComplex(value, 0.0))
        if kind == "ident":
            if text == "j":
                return J_EXPR
            if text in FUNCTIONS:
                self.expect_op("(", "'(' after function name")
                arg = self.parse_expr()
                self.expect_op(")", "')'")
                return Apply(text, arg)
            m = _VAR_RE.match(text)
            if m is None or m.group(1) not in ("z", "zb"):
                raise UnknownVariable(f"unknown variable or function {text!r}", pos)
            index = int(m.group(2))
            if index < 1 or index > self.chart.n:
                raise IndexOutOfRange(
                    f"{text!r} is outside the chart (valid indices 1..{self.chart.n})", pos
                )
            return Var(m.group(1), index)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")", "')'")
            return inner
        raise ExprSyntaxError(
            f"expected a number, variable, function or '(', got {text or 'end of input'!r}", pos
        )


def parse(text: str, chart: CoordinateChart) -> Expr:
    """Parse text into an expression tree over the chart."""
    parser = _Parser(_tokenize(text), chart)
    e = parser.parse_expr()
    kind, text_, pos = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {text_!r}", pos)
    return e


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels used when rendering: sums 1, products/quotients/unary
# minus 2, powers 3, atoms 9.  A child is parenthesized when its level is
# below the level its context demands.
_LEVEL_SUM = 1
_LEVEL_TERM = 2
_LEVEL_POWER = 3
_LEVEL_ATOM = 9


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _const_text_level(v: ParaComplex) -> tuple[str, int]:
    if v.b == 0.0:
        text = _fmt_real(v.a)
        return text, (_LEVEL_ATOM if v.a >= 0 else _LEVEL_TERM)
    if v.a == 0.0:
        if v.b == 1.0:
            return "j", _LEVEL_ATOM
        if v.b == -1.0:
            return "-j", _LEVEL_TERM
        return f"{_fmt_real(v.b)}*j", _LEVEL_TERM
    sign = "+" if v.b > 0 else "-"
    tail = "j" if abs(v.b) == 1.0 else f"{_fmt_real(abs(v.b))}*j"
    return f"({_fmt_real(v.a)}{sign}{tail})", _LEVEL_ATOM


def _split_sign(e: Expr) -> tuple[bool, Expr]:
    """Peel a leading minus off a term for tidy sum printing."""
    if isinstance(e, Negate):
        return True, e.child
    if isinstance(e, Constant) and e.value.b == 0.0 and e.value.a < 0:
        return True, Constant(-e.value)
    if isinstance(e, Constant) and e.value.a == 0.0 and e.value.b < 0:
        return True, Constant(-e.value)
    if isinstance(e, Product) and e.children:
        head = e.children[0]
        if isinstance(head, Constant) and (
            (head.value.b == 0.0 and head.value.a < 0)
            or (head.value.a == 0.0 and head.value.b < 0)
        ):
            rest = (Constant(-head.value),) + e.children[1:]
            if rest[0] == ONE_EXPR and len(rest) > 1:
                rest = rest[1:]
            return True, rest[0] if len(rest) == 1 else Product(rest)
    return False, e


def _render(e: Expr, need: int) -> str:
    text, level = _render_level(e)
    if level < need:
        return f"({text})"
    return text


def _render_level(e: Expr) -> tuple[str, int]:
    if isinstance(e, Constant):
        return _const_text_level(e.value)
    if isinstance(e, Var):
        return e.name, _LEVEL_ATOM
    if isinstance(e, Sum):
        parts = []
        for idx, c in enumerate(e.children):
            neg, body = _split_sign(c)
            rendered = _render(body, _LEVEL_TERM)
            if idx == 0:
                parts.append(f"-{rendered}" if neg else rendered)
            else:
                parts.append(f" - {rendered}" if neg else f" + {rendered}")
        return "".join(parts), _LEVEL_SUM
    if isinstance(e, Product):
        neg, body = _split_sign(e)
        if neg:
            return f"-{_render(body, _LEVEL_TERM)}", _LEVEL_TERM
        return "*".join(_render(c, _LEVEL_TERM) for c in e.children), _LEVEL_TERM
    if isinstance(e, Quotient):
        return f"{_render(e.num, _LEVEL_TERM)}/{_render(e.den, _LEVEL_POWER)}", _LEVEL_TERM
    if isinstance(e, Power):
        return f"{_render(e.base, _LEVEL_ATOM)}^{e.exponent}", _LEVEL_POWER
    if isinstance(e, Apply):
        return f"{e.fn}({_render(e.arg, 0)})", _LEVEL_ATOM
    if isinstance(e, Negate):
        return f"-{_render(e.child, _LEVEL_TERM)}", _LEVEL_TERM
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Deterministic text form; parse(to_text(e)) equals e after simplify."""
    return _render(e, 0)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr, var: Var) -> Expr:
    """Formal partial derivative; the coordinate families are independent.

    The result is the ZERO_EXPR object exactly when var is not in
    vars_of(e), and it holds that object nowhere else unless e does: a
    one-child rule returns ZERO_EXPR where its child's partial is
    ZERO_EXPR, a sum leaves out such a child, and a product or a quotient
    leaves out a term whose differentiated factor is ZERO_EXPR.
    """
    if isinstance(e, Constant):
        return ZERO_EXPR
    if isinstance(e, Var):
        return ONE_EXPR if (e.family, e.index) == (var.family, var.index) else ZERO_EXPR
    if isinstance(e, Sum):
        terms = tuple(d for d in (differentiate(c, var) for c in e.children)
                      if d is not ZERO_EXPR)
        return Sum(terms) if terms else ZERO_EXPR
    if isinstance(e, Product):
        terms = []
        for i, c in enumerate(e.children):
            d = differentiate(c, var)
            if d is not ZERO_EXPR:
                terms.append(Product(e.children[:i] + (d,) + e.children[i + 1:]))
        return Sum(tuple(terms)) if terms else ZERO_EXPR
    if isinstance(e, Quotient):
        dn = differentiate(e.num, var)
        if isinstance(e.den, Constant):  # no square to overflow: d(n/c) = dn/c
            return dn if dn is ZERO_EXPR else Quotient(dn, e.den)
        dd = differentiate(e.den, var)
        terms = []
        if dn is not ZERO_EXPR:
            terms.append(Product((dn, e.den)))
        if dd is not ZERO_EXPR:
            terms.append(Negate(Product((e.num, dd))))
        return Quotient(Sum(tuple(terms)), Power(e.den, 2)) if terms else ZERO_EXPR
    if isinstance(e, (Negate, Power, Apply)):  # one child: its partial, or ZERO_EXPR
        d = differentiate(children_of(e)[0], var)
        if d is ZERO_EXPR:
            return d
    if isinstance(e, Negate):
        return Negate(d)
    if isinstance(e, Power):
        if e.exponent == 1:
            return d
        k = Constant(ParaComplex(float(e.exponent), 0.0))
        if e.exponent - 1 == 1:
            return Product((k, e.base, d))
        return Product((k, Power(e.base, e.exponent - 1), d))
    if isinstance(e, Apply):
        if e.fn == "exp":
            return Product((e, d))
        if e.fn == "ln":
            return Quotient(d, e.arg)
        if e.fn == "sin":
            return Product((Apply("cos", e.arg), d))
        if e.fn == "cos":
            return Negate(Product((Apply("sin", e.arg), d)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class EvalState(ValueType):
    """Values bound to the chart variables; xi families optional."""

    _fields = ("z", "zb", "xi", "xib")

    def __init__(
        self, z: tuple, zb: tuple, xi: tuple | None = None, xib: tuple | None = None
    ) -> None:
        d = self.__dict__
        d["z"] = z
        d["zb"] = zb
        d["xi"] = xi
        d["xib"] = xib


def _lookup(state, family: str, index: int) -> ParaComplex:
    seq = getattr(state, family, None)
    if seq is None:
        raise ExpressionError(f"state binds no {family!r} variables")
    if index > len(seq):
        raise ExpressionError(f"state binds only {len(seq)} {family!r} variables")
    return seq[index - 1]


# Evaluation runs on plain float legs and builds one ParaComplex, at the
# root, which keeps those legs exactly; folding the same tree with
# ParaComplex's ring ops gives the same legs bit for bit, at an object per
# node.  The interpreter below and the lowered code share the checks and
# their messages.


def _zero_divisor(e: Expr):
    """Raise ZeroDivisor naming e with its operands simplified, once its
    check has failed: the chain rule's trees are unreadable, and simplify(e)
    itself may cancel the divisor (0/x is 0).  e is named as it is when
    simplify raises."""
    what = "base" if isinstance(e, Power) else "denominator"
    try:
        if isinstance(e, Power):
            shown = Power(simplify(e.base), e.exponent)
        else:
            shown = Quotient(simplify(e.num), simplify(e.den))
    except (ArithmeticError, ExpressionError, RecursionError):
        shown = e
    raise ZeroDivisor(f"zero-divisor {what} in '{to_text(shown)}'")


def _domain_failure(e: Expr):
    raise DomainError(f"domain failure in '{to_text(e)}'") from None


def _eval_constant(e, state):
    return e.value.u, e.value.v


def _eval_var(e, state):
    try:
        w = getattr(state, e.family)[e.index - 1]
    except (AttributeError, TypeError, IndexError):
        w = _lookup(state, e.family, e.index)  # raises the state's error
    return w.u, w.v


def _eval_sum(e, state):
    if not e.children:
        return 0.0, 0.0
    c = e.children[0]  # start at the first term, as the lowered sum does
    u, v = _EVAL[type(c)](c, state)
    for c in e.children[1:]:
        cu, cv = _EVAL[type(c)](c, state)
        u += cu
        v += cv
    return u, v


def _eval_product(e, state):
    u = v = 1.0
    for c in e.children:
        cu, cv = _EVAL[type(c)](c, state)
        u *= cu
        v *= cv
    return u, v


def _eval_negate(e, state):
    u, v = _EVAL[type(e.child)](e.child, state)
    return -u, -v


def _eval_power(e, state):
    u, v = _EVAL[type(e.base)](e.base, state)
    k = e.exponent
    if k < 0 and (abs(u) < INVERTIBILITY_FLOOR or abs(v) < INVERTIBILITY_FLOOR):
        _zero_divisor(e)
    return _pow_leg(u, k), _pow_leg(v, k)


def _eval_quotient(e, state):
    nu, nv = _EVAL[type(e.num)](e.num, state)
    du, dv = _EVAL[type(e.den)](e.den, state)
    if abs(du) < INVERTIBILITY_FLOOR or abs(dv) < INVERTIBILITY_FLOOR:
        _zero_divisor(e)
    return nu / du, nv / dv


def _eval_apply(e, state):
    u, v = _EVAL[type(e.arg)](e.arg, state)
    leg = FUNCTIONS[e.fn]
    try:
        return leg(u), leg(v)
    except DomainError:
        _domain_failure(e)


def _not_a_node(e, state):
    raise TypeError(f"not an expression node: {e!r}")


class _Dispatch(dict):
    def __missing__(self, cls):
        return _not_a_node


# the interpreter: one function per node type, found by one probe on the
# exact type instead of a chain of isinstance tests; any other type, at the
# root or as a child, is not a node
_EVAL = _Dispatch({
    Constant: _eval_constant, Var: _eval_var, Sum: _eval_sum, Product: _eval_product,
    Negate: _eval_negate, Power: _eval_power, Quotient: _eval_quotient, Apply: _eval_apply,
})


def _eval_pair(e: Expr, state):
    return _EVAL[type(e)](e, state)


def evaluate(e: Expr, state) -> ParaComplex:
    """Evaluate at a state.  Zero-divisor and domain failures name the
    offending subexpression."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Var):
        return _lookup(state, e.family, e.index)
    return ParaComplex.from_idempotent(*_eval_pair(e, state))


# ---------------------------------------------------------------------------
# Lowering to straight-line code on the legs
# ---------------------------------------------------------------------------

# names the lowered source may use besides its own locals and y
_LOWERED_GLOBALS = {
    "inf": math.inf,
    "nan": math.nan,
    "DomainError": DomainError,
    "_zero_divisor": _zero_divisor,
    "_domain_failure": _domain_failure,
    "leg_pow": _pow_leg,
    **{f"leg_{name}": leg for name, leg in FUNCTIONS.items()},
}
_FLOOR = repr(INVERTIBILITY_FLOOR)


class _Vanishing(float):
    """A zero leg of a term simplify() drops from a sum (a literal zero, or
    a product with one); a sum leaves it out, elsewhere it is that zero."""


_VANISHING = _Vanishing(0.0)


def leg_text(leg) -> str:
    """A leg as lowered code reads it: a local's name, or a float literal."""
    if not isinstance(leg, float):
        return leg
    literal = repr(leg)  # inf and nan are names in _LOWERED_GLOBALS
    return f"({literal})" if literal.startswith("-") else literal


class Lowering:
    """lower()'s emitter, left open so that a caller can add its own lines.

    legs(e) lowers e into lines and returns its two legs, each a float
    literal or the name of a local; function(out) compiles the lines into
    one function of y that returns out.  Equal leg computations, within a
    root or across roots, are computed once.  The arithmetic is
    evaluate()'s, leg by leg, and a zero divisor or domain failure names
    the offending subexpression as evaluate() does.  Legs fold as they are
    built: literal operands give a finite literal that raises nothing; a
    factor 1.0 and a term -0.0 go, exactly; a product with a literal zero
    is 0.0, which a sum drops, as simplify() does; one operand left is an
    alias; a passing literal denominator is not checked.  Anything else is
    emitted as written, factors and terms in order, as evaluate() computes
    them.
    """

    def __init__(self, slots: tuple):
        self.where = {slot: k for k, slot in enumerate(slots)}
        self.lines: list[str] = []
        self.nodes: list[Expr] = []  # the checks' nodes, rendered only when one fails
        self.names: dict[str, str] = {}  # hash-consing: a leg's code -> the local holding it
        self.done: dict[int, tuple] = {}  # id(node) -> (node, legs): shared subtrees once
        self.checked: set[str] = set()  # zero-divisor tests already emitted

    def bind(self, code: str) -> str:
        names = self.names
        if code not in names:
            names[code] = f"t{len(names)}"
            self.lines.append(f"{names[code]} = {code}")
        return names[code]

    def fold(self, e: Expr, args: list):
        """One leg of e from its children's legs: a float literal or a name."""
        if isinstance(e, (Sum, Product)):
            is_sum = isinstance(e, Sum)
            if is_sum:
                args = [a for a in args if not isinstance(a, _Vanishing)]
            elif 0.0 in args:  # a local's name is a str, never equal to 0.0
                return _VANISHING
            if not args:
                return _VANISHING if is_sum else 1.0
            exact = "-0.0" if is_sum else "1.0"  # x + -0.0 and x * 1.0 are x
            args = [a for a in args if not (isinstance(a, float) and repr(a) == exact)] or args
            if len(args) == 1:
                return args[0]
            op = lambda *legs: reduce(operator.add if is_sum else operator.mul, legs)
            code = (" + " if is_sum else " * ").join(map(leg_text, args))
        elif isinstance(e, Negate):
            op, code = operator.neg, f"-{leg_text(args[0])}"
        elif isinstance(e, Power):
            op, code = partial(_pow_leg, k=e.exponent), f"leg_pow({leg_text(args[0])}, {e.exponent})"
        elif isinstance(e, Quotient):  # a failing check on a literal raises first
            op, code = operator.truediv, f"{leg_text(args[0])} / {leg_text(args[1])}"
        else:
            op, code = FUNCTIONS[e.fn], f"leg_{e.fn}({leg_text(args[0])})"
        if all(isinstance(a, float) for a in args):
            try:
                value = op(*args)
                if math.isfinite(value):
                    return value
                simplify(e)  # raises, as derive does, if e is a constant that overflows
            except ArithmeticError:  # a zero divisor or a domain failure
                pass
        return self.bind(code)

    def zero_test(self, legs) -> str:
        """The test that a denominator with these legs is a zero divisor;
        empty when every leg is a passing literal."""
        return " or ".join(f"abs({leg_text(d)}) < {_FLOOR}" for d in legs
                           if not (isinstance(d, float) and abs(d) >= INVERTIBILITY_FLOOR))

    def assume_nonzero(self, legs) -> None:
        """Emit no zero-divisor test on these legs: the caller's own lines
        have raised by then unless each is at least INVERTIBILITY_FLOOR."""
        self.checked.add(self.zero_test(legs))

    def legs(self, e: Expr) -> tuple:
        """e's two legs, each a float literal or a local's name."""
        if isinstance(e, Constant):
            legs = e.value.u, e.value.v
            return tuple(map(_Vanishing, legs)) if is_zero(e) else legs
        if isinstance(e, Var):
            k = self.where.get((e.family, e.index))
            if k is None:
                raise ExpressionError(f"no slot binds {e.name}")
            return self.bind(f"y[{2 * k}]"), self.bind(f"y[{2 * k + 1}]")
        if id(e) in self.done:
            return self.done[id(e)][1]
        kids = [self.legs(c) for c in children_of(e)]
        lines, nodes = self.lines, self.nodes
        if isinstance(e, Quotient) or isinstance(e, Power) and e.exponent < 0:
            tests = self.zero_test(kids[-1])
            if tests and tests not in self.checked:
                self.checked.add(tests)
                nodes.append(e)
                lines.append(f"if {tests}: _zero_divisor(nodes[{len(nodes) - 1}])")
        first = len(lines)
        legs = tuple(self.fold(e, [c[side] for c in kids]) for side in (0, 1))
        if isinstance(e, Apply) and len(lines) > first:
            nodes.append(e)
            lines[first:] = ["try:", *(f"    {a}" for a in lines[first:]), "except DomainError:",
                             f"    _domain_failure(nodes[{len(nodes) - 1}])"]
        self.done[id(e)] = e, legs
        return legs

    def source(self, out: list) -> str:
        """The lines as the source of lowered(y) -> out."""
        body = "".join(f"    {line}\n" for line in self.lines)
        return f"def lowered(y):\n{body}    return [{', '.join(map(leg_text, out))}]\n"

    def function(self, out: list, **names) -> Callable[[list], list]:
        """The lines compiled into lowered(y) -> out; names join its globals."""
        namespace = dict(_LOWERED_GLOBALS, nodes=tuple(self.nodes), **names)
        exec(compile(self.source(out), "<lowered>", "exec"), namespace)
        return namespace["lowered"]


def lower(roots: tuple, slots: tuple) -> Callable[[list], list]:
    """Lower expressions to one straight-line Python function on the legs.

    ``slots`` names the variables as (family, index) pairs.  The function
    takes their legs as one flat list ``y = [u(s0), v(s0), u(s1), v(s1),
    ...]`` and returns the roots' legs in the same interleaved layout.  See
    Lowering for how the legs are computed.
    """
    low = Lowering(slots)
    return low.function([leg for root in roots for leg in low.legs(root)])


# ---------------------------------------------------------------------------
# Simplification: an expanded, canonically ordered normal form
# ---------------------------------------------------------------------------

def sort_key(e: Expr):
    """Total structural order used to canonicalize factor and term order.

    A pure function of structure, so it is computed once per node and kept
    in the node's __dict__, which eq, hash and repr ignore: they read only
    the node's fields.
    """
    try:
        return e._sort_key
    except AttributeError:
        key = e.__dict__["_sort_key"] = _structural_key(e)
        return key


def _structural_key(e: Expr):
    if isinstance(e, Constant):
        return (0, (e.value.a, e.value.b))
    if isinstance(e, Var):
        return (1, (_FAMILY_RANK[e.family], e.index))
    if isinstance(e, Apply):
        return (2, (e.fn, sort_key(e.arg)))
    if isinstance(e, Power):
        return (3, (sort_key(e.base), e.exponent))
    if isinstance(e, Quotient):
        return (4, (sort_key(e.num), sort_key(e.den)))
    if isinstance(e, Sum):
        return (5, tuple(sort_key(c) for c in e.children))
    if isinstance(e, Product):
        return (6, tuple(sort_key(c) for c in e.children))
    if isinstance(e, Negate):
        return (7, (sort_key(e.child),))
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding, flattening, expansion and term collection.

    The result evaluates to the same values (to roundoff) and is canonical:
    structurally equal inputs produce identical trees, and terms that cancel
    exactly disappear.  A subtree that appears in e more than once, as the
    same object, is normalized once; that memo lives for this call only.
    """
    return _normalize(e, {})


def _negate_normalized(e: Expr) -> Expr:
    """Exact negation of a normalized tree (no -1 multiplication, which
    would round mixed constants through the idempotent components)."""
    if isinstance(e, Constant):
        return Constant(-e.value)
    if isinstance(e, Sum):
        collected: list = []
        for c in e.children:
            _gather_terms(_negate_normalized(c), collected)
        return _rebuild_terms(_collect(collected))
    if isinstance(e, Quotient):
        return Quotient(_negate_normalized(e.num), e.den)
    coeff, factors = _as_term(e)
    return _rebuild_term(-coeff, factors)


def _normalize(e: Expr, memo: dict) -> Expr:
    if isinstance(e, (Constant, Var)):
        return e
    if id(e) not in memo:  # the entry holds e, so its id is not reused
        memo[id(e)] = e, _normalize_node(e, memo)
    return memo[id(e)][1]


def _normalize_node(e: Expr, memo: dict) -> Expr:
    if isinstance(e, Negate):
        return _negate_normalized(_normalize(e.child, memo))
    if isinstance(e, Sum):
        terms: list[tuple[ParaComplex, tuple]] = []
        for c in e.children:
            _gather_terms(_normalize(c, memo), terms)
        return _rebuild_terms(_collect(terms))
    if isinstance(e, Product):
        return _normalize_product([_normalize(c, memo) for c in e.children])
    if isinstance(e, Power):
        return _normalize_power(_normalize(e.base, memo), e.exponent)
    if isinstance(e, Quotient):
        return _normalize_quotient(_normalize(e.num, memo), _normalize(e.den, memo))
    if isinstance(e, Apply):
        arg = _normalize(e.arg, memo)
        if isinstance(arg, Constant):
            # fold only a finite result: exp(1000) stays a call rather than
            # becoming a constant with an inf leg and a nan component
            try:
                value = apply_function(e.fn, arg.value)
                if value.is_finite():
                    return Constant(value)
            except DomainError:
                pass
        return Apply(e.fn, arg)
    raise TypeError(f"not an expression node: {e!r}")


def _as_term(e: Expr) -> tuple[ParaComplex, tuple]:
    """Split a normalized non-sum expression into (coefficient, factor powers)."""
    if isinstance(e, Constant):
        return e.value, ()
    # seed with None, not ONE: multiplying by ONE round-trips through the
    # idempotent components and can shave an ulp off mixed constants
    coeff = None
    factors: list[tuple[Expr, int]] = []
    parts = e.children if isinstance(e, Product) else (e,)
    for p in parts:
        if isinstance(p, Constant):
            coeff = p.value if coeff is None else coeff * p.value
        elif isinstance(p, Power):
            factors.append((p.base, p.exponent))
        else:
            factors.append((p, 1))
    factors.sort(key=lambda be: (sort_key(be[0]), be[1]))
    return (ONE if coeff is None else coeff), tuple(factors)


def _gather_terms(e: Expr, out: list) -> None:
    if isinstance(e, Sum):
        for c in e.children:
            _gather_terms(c, out)
        return
    # a normalized term holds a quotient only as itself, with coefficient 1
    out.append(_as_term(e))


# an overflowing fold is an input error, not a constant with an inf leg
def _folded(value: ParaComplex, what: str) -> ParaComplex:
    if not value.is_finite():
        raise ExpressionError(f"constant {what} overflows")
    return value


def _collect(terms: list[tuple[ParaComplex, tuple]]) -> list[tuple[ParaComplex, tuple]]:
    acc: dict[tuple, ParaComplex] = {}
    for coeff, factors in terms:
        acc[factors] = _folded(acc.get(factors, ZERO) + coeff, "sum")
    out = []
    for factors, coeff in acc.items():
        if coeff.a == 0.0 and coeff.b == 0.0:
            continue
        out.append((coeff, factors))
    return out


def _term_key(factors: tuple):
    return tuple((sort_key(b), k) for b, k in factors)


def _rebuild_term(coeff: ParaComplex, factors: tuple) -> Expr:
    parts: list[Expr] = []
    if coeff.a != 1.0 or coeff.b != 0.0:
        parts.append(Constant(coeff))
    if any(isinstance(base, Quotient) for base, _ in factors):
        # a term is never a product holding a quotient: fold the
        # coefficient and cofactors into the quotient's numerator
        parts.extend(
            base if k == 1 else _normalize_power(base, k) for base, k in factors
        )
        return _normalize_product(parts)
    for base, k in factors:
        parts.append(base if k == 1 else Power(base, k))
    if not parts:
        return ONE_EXPR
    if len(parts) == 1:
        return parts[0]
    return Product(tuple(parts))


def _rebuild_terms(terms: list[tuple[ParaComplex, tuple]]) -> Expr:
    # order on the final built terms: rebuilding can fold a merged
    # coefficient into a quotient numerator, which shifts the sort key
    built = []
    for c, f in terms:
        e = _rebuild_term(c, f)
        if not is_zero(e):
            built.append(e)
    built.sort(key=lambda x: (_term_key(_as_term(x)[1]), sort_key(x)))
    if not built:
        return ZERO_EXPR
    return built[0] if len(built) == 1 else Sum(tuple(built))


def _normalize_product(factors: list[Expr]) -> Expr:
    coeff = None  # None means an implicit exact 1 (see _as_term)
    plain: list[Expr] = []
    dens: list[Expr] = []
    queue = list(factors)
    while queue:
        f = queue.pop(0)
        if isinstance(f, Constant):
            coeff = f.value if coeff is None else _folded(coeff * f.value, "product")
        elif isinstance(f, Product):
            queue = list(f.children) + queue
        elif isinstance(f, Quotient):
            queue.insert(0, f.num)
            dens.append(f.den)
        else:
            plain.append(f)
    if coeff is not None and coeff.a == 0.0 and coeff.b == 0.0:
        return ZERO_EXPR
    coeff_factors = [] if coeff is None else [Constant(coeff)]
    if dens:
        num = _normalize_product(coeff_factors + plain)
        den = _normalize_product(dens) if len(dens) > 1 else dens[0]
        return _normalize_quotient(num, den)
    sums = [f for f in plain if isinstance(f, Sum)]
    if sums:
        # expand: distribute every sum factor over the rest
        terms: list[list[Expr]] = [list(coeff_factors)]
        for f in plain:
            if isinstance(f, Sum):
                terms = [fs + [child] for fs in terms for child in f.children]
            else:
                terms = [fs + [f] for fs in terms]
        collected: list[tuple[ParaComplex, tuple]] = []
        for fs in terms:
            _gather_terms(_normalize_product(fs), collected)
        return _rebuild_terms(_collect(collected))
    # merge repeated bases into powers
    merged: dict[tuple, list] = {}
    for f in plain:
        base, k = (f.base, f.exponent) if isinstance(f, Power) else (f, 1)
        key = sort_key(base)
        if key in merged:
            merged[key][1] += k
        else:
            merged[key] = [base, k]
    parts: list[tuple[Expr, int]] = []
    for key in sorted(merged):
        base, k = merged[key]
        if k == 0:
            continue
        parts.append((base, k))
    return _rebuild_term(ONE if coeff is None else coeff, tuple(parts))


def _normalize_power(base: Expr, k: int) -> Expr:
    if k == 1:
        return base
    if k == 0:
        return ONE_EXPR
    if isinstance(base, Constant):
        try:
            return Constant(_folded(base.value**k, "power"))
        except ZeroDivisor:
            return Power(base, k)
    if isinstance(base, Power):
        return _normalize_power(base.base, base.exponent * k)
    if isinstance(base, Product):
        return _normalize_product([_normalize_power(c, k) for c in base.children])
    if isinstance(base, Quotient):
        if k > 0:
            return _normalize_quotient(
                _normalize_power(base.num, k), _normalize_power(base.den, k)
            )
        return _normalize_quotient(
            _normalize_power(base.den, -k), _normalize_power(base.num, -k)
        )
    if isinstance(base, Sum) and 2 <= k <= 4:
        return _normalize_product([base] * k)
    return Power(base, k)


def _normalize_quotient(num: Expr, den: Expr) -> Expr:
    while isinstance(den, Quotient):
        num = _normalize_product([num, den.den])
        den = den.num
    if isinstance(num, Quotient):
        den = _normalize_product([den, num.den])
        num = num.num
    if is_zero(num):
        return ZERO_EXPR
    if isinstance(den, Constant):
        if den.value.invertible:
            return _normalize_product([num, Constant(ONE / den.value)])
        return Quotient(num, den)
    if num == den:
        return ONE_EXPR
    return Quotient(num, den)
