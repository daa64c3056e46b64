"""Expression trees over para-complex coordinates.

Variables come in the families ``z1..zn`` and ``zb1..zbn``, which are
formally independent: the partial derivative of ``zb_k`` by ``z_i`` is
zero.  Velocity symbols ``xi1..xin`` and ``xib1..xibn`` appear in derived
quantities (energies, synthesized equation rows) but are not part of the
input grammar.  Expressions are immutable and compare structurally.

Grammar accepted by :func:`parse` (standard precedence, ``^`` binds
tighter than unary minus, ``*``/``/`` and ``+``/``-`` associate left)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" integer)?
    primary := number | "j" | variable | function "(" expr ")" | "(" expr ")"

Numbers are decimal with optional fraction and exponent; variables are
``z<digits>`` or ``zb<digits>``; functions are exp, ln, sin, cos.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .para_algebra import (
    FUNCTIONS,
    INVERTIBILITY_FLOOR,
    J,
    ONE,
    ZERO,
    DomainError,
    ParaComplex,
    ZeroDivisor,
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


@dataclass(frozen=True)
class CoordinateChart:
    """n para-complex coordinates z1..zn with formal partners zb1..zbn."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("chart needs a positive integer coordinate count")

    def indices(self) -> range:
        return range(1, self.n + 1)


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base node.  Arithmetic operators build trees without simplifying."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, as_expr(other)))

    def __radd__(self, other):
        return Sum((as_expr(other), self))

    def __sub__(self, other):
        return Sum((self, Negate(as_expr(other))))

    def __rsub__(self, other):
        return Sum((as_expr(other), Negate(self)))

    def __mul__(self, other):
        return Product((self, as_expr(other)))

    def __rmul__(self, other):
        return Product((as_expr(other), self))

    def __truediv__(self, other):
        return Quotient(self, as_expr(other))

    def __rtruediv__(self, other):
        return Quotient(as_expr(other), self)

    def __pow__(self, k: int):
        return Power(self, k)

    def __neg__(self):
        return Negate(self)


@dataclass(frozen=True)
class Constant(Expr):
    value: ParaComplex


@dataclass(frozen=True)
class Var(Expr):
    family: str
    index: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown variable family {self.family!r}")
        if self.index < 1:
            raise ValueError("variable index is 1-based")

    @property
    def name(self) -> str:
        return f"{self.family}{self.index}"


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple


@dataclass(frozen=True)
class Product(Expr):
    children: tuple


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Quotient(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Apply(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Negate(Expr):
    child: Expr


ZERO_EXPR = Constant(ZERO)
ONE_EXPR = Constant(ONE)
J_EXPR = Constant(J)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, ParaComplex):
        return Constant(x)
    if isinstance(x, (int, float)):
        return Constant(ParaComplex(float(x), 0.0))
    raise TypeError(f"cannot interpret {x!r} as an expression")


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


def is_constant(e: Expr) -> bool:
    return not any(isinstance(n, Var) for n in walk(e))


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
        acc = self.parse_term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return acc
            rhs = self.parse_term()
            acc = Sum((acc, rhs if op == "+" else Negate(rhs)))

    def parse_term(self) -> Expr:
        acc = self.parse_factor()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return acc
            rhs = self.parse_factor()
            acc = Product((acc, rhs)) if op == "*" else Quotient(acc, rhs)

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
    """Formal partial derivative; the coordinate families are independent."""
    if isinstance(e, Constant):
        return ZERO_EXPR
    if isinstance(e, Var):
        return ONE_EXPR if (e.family, e.index) == (var.family, var.index) else ZERO_EXPR
    if isinstance(e, Sum):
        return Sum(tuple(differentiate(c, var) for c in e.children))
    if isinstance(e, Negate):
        return Negate(differentiate(e.child, var))
    if isinstance(e, Product):
        terms = []
        for i in range(len(e.children)):
            factors = list(e.children)
            factors[i] = differentiate(factors[i], var)
            terms.append(Product(tuple(factors)))
        return Sum(tuple(terms))
    if isinstance(e, Power):
        db = differentiate(e.base, var)
        k = Constant(ParaComplex(float(e.exponent), 0.0))
        if e.exponent == 1:
            return db
        if e.exponent - 1 == 1:
            return Product((k, e.base, db))
        return Product((k, Power(e.base, e.exponent - 1), db))
    if isinstance(e, Quotient):
        dn = differentiate(e.num, var)
        dd = differentiate(e.den, var)
        num = Sum((Product((dn, e.den)), Negate(Product((e.num, dd)))))
        return Quotient(num, Power(e.den, 2))
    if isinstance(e, Apply):
        da = differentiate(e.arg, var)
        if e.fn == "exp":
            return Product((e, da))
        if e.fn == "ln":
            return Quotient(da, e.arg)
        if e.fn == "sin":
            return Product((Apply("cos", e.arg), da))
        if e.fn == "cos":
            return Negate(Product((Apply("sin", e.arg), da)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalState:
    """Values bound to the chart variables; xi families optional."""

    z: tuple
    zb: tuple
    xi: tuple | None = None
    xib: tuple | None = None


def _lookup(state, family: str, index: int) -> ParaComplex:
    seq = getattr(state, family, None)
    if seq is None:
        raise ExpressionError(f"state binds no {family!r} variables")
    if index > len(seq):
        raise ExpressionError(f"state binds only {len(seq)} {family!r} variables")
    return seq[index - 1]


# Evaluation runs on the idempotent legs and recombines to canonical
# coordinates once, at the root.  Recombining at every node would quantize
# a small leg at the ulp of a large one (legs of x^16 can differ by 1e14,
# at which point (a, b) storage keeps two digits of the small leg) and
# that loss was observable in finite-difference audits.


def _eval_pair(e: Expr, state):
    if isinstance(e, Constant):
        return e.value.u, e.value.v
    if isinstance(e, Var):
        w = _lookup(state, e.family, e.index)
        return w.u, w.v
    if isinstance(e, Sum):
        u = v = 0.0
        for c in e.children:
            cu, cv = _eval_pair(c, state)
            u += cu
            v += cv
        return u, v
    if isinstance(e, Product):
        u = v = 1.0
        for c in e.children:
            cu, cv = _eval_pair(c, state)
            u *= cu
            v *= cv
        return u, v
    if isinstance(e, Negate):
        u, v = _eval_pair(e.child, state)
        return -u, -v
    if isinstance(e, Power):
        u, v = _eval_pair(e.base, state)
        k = e.exponent
        if k < 0 and (abs(u) < INVERTIBILITY_FLOOR or abs(v) < INVERTIBILITY_FLOOR):
            raise ZeroDivisor(f"zero-divisor base in '{to_text(e)}'")
        return u**k, v**k
    if isinstance(e, Quotient):
        nu, nv = _eval_pair(e.num, state)
        du, dv = _eval_pair(e.den, state)
        if abs(du) < INVERTIBILITY_FLOOR or abs(dv) < INVERTIBILITY_FLOOR:
            raise ZeroDivisor(f"zero-divisor denominator in '{to_text(e)}'")
        return nu / du, nv / dv
    if isinstance(e, Apply):
        u, v = _eval_pair(e.arg, state)
        leg = FUNCTIONS[e.fn]
        try:
            return leg(u), leg(v)
        except DomainError:
            raise DomainError(f"domain failure in '{to_text(e)}'") from None
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, state) -> ParaComplex:
    """Evaluate at a state.  Zero-divisor and domain failures name the
    offending subexpression."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Var):
        return _lookup(state, e.family, e.index)
    return ParaComplex.from_idempotent(*_eval_pair(e, state))


def _compile_pair(e: Expr):
    """Closure returning the (u, v) legs at a state."""
    if isinstance(e, Constant):
        pair = (e.value.u, e.value.v)
        return lambda s: pair
    if isinstance(e, Var):
        family, idx = e.family, e.index - 1
        if family == "z":
            def _var_z(s):
                w = s.z[idx]
                return w.u, w.v
            return _var_z
        if family == "zb":
            def _var_zb(s):
                w = s.zb[idx]
                return w.u, w.v
            return _var_zb
        if family == "xi":
            def _var_xi(s):
                w = s.xi[idx]
                return w.u, w.v
            return _var_xi

        def _var_xib(s):
            w = s.xib[idx]
            return w.u, w.v
        return _var_xib
    if isinstance(e, Sum):
        fns = tuple(_compile_pair(c) for c in e.children)

        def _sum(s, fns=fns):
            u = v = 0.0
            for f in fns:
                cu, cv = f(s)
                u += cu
                v += cv
            return u, v

        return _sum
    if isinstance(e, Product):
        fns = tuple(_compile_pair(c) for c in e.children)

        def _prod(s, fns=fns):
            u = v = 1.0
            for f in fns:
                cu, cv = f(s)
                u *= cu
                v *= cv
            return u, v

        return _prod
    if isinstance(e, Negate):
        f = _compile_pair(e.child)

        def _neg(s, f=f):
            u, v = f(s)
            return -u, -v

        return _neg
    if isinstance(e, Power):
        f = _compile_pair(e.base)
        k = e.exponent

        def _pow(s, f=f, k=k):
            u, v = f(s)
            if k < 0 and (abs(u) < INVERTIBILITY_FLOOR or abs(v) < INVERTIBILITY_FLOOR):
                raise ZeroDivisor(
                    f"negative power of zero divisor {ParaComplex.from_idempotent(u, v)}"
                )
            return u**k, v**k

        return _pow
    if isinstance(e, Quotient):
        fn, fd = _compile_pair(e.num), _compile_pair(e.den)

        def _quot(s, fn=fn, fd=fd):
            nu, nv = fn(s)
            du, dv = fd(s)
            if abs(du) < INVERTIBILITY_FLOOR or abs(dv) < INVERTIBILITY_FLOOR:
                raise ZeroDivisor(
                    f"division by zero divisor {ParaComplex.from_idempotent(du, dv)}"
                )
            return nu / du, nv / dv

        return _quot
    if isinstance(e, Apply):
        f = _compile_pair(e.arg)
        leg = FUNCTIONS[e.fn]

        def _apply(s, f=f, leg=leg):
            u, v = f(s)
            return leg(u), leg(v)

        return _apply
    raise TypeError(f"not an expression node: {e!r}")


def compile_expr(e: Expr) -> Callable[..., ParaComplex]:
    """Build a closure with evaluate()'s semantics for hot loops.

    Error messages from the closure do not name subexpressions; use
    evaluate() where that matters.
    """
    if isinstance(e, Constant):
        v = e.value
        return lambda s: v
    if isinstance(e, Var):
        family, idx = e.family, e.index - 1
        if family == "z":
            return lambda s: s.z[idx]
        if family == "zb":
            return lambda s: s.zb[idx]
        if family == "xi":
            return lambda s: s.xi[idx]
        return lambda s: s.xib[idx]
    pair = _compile_pair(e)
    return lambda s: ParaComplex.from_idempotent(*pair(s))


# ---------------------------------------------------------------------------
# Simplification: an expanded, canonically ordered normal form
# ---------------------------------------------------------------------------

def sort_key(e: Expr):
    """Total structural order used to canonicalize factor and term order."""
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
    exactly disappear.
    """
    return _normalize(e)


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


def _normalize(e: Expr) -> Expr:
    if isinstance(e, (Constant, Var)):
        return e
    if isinstance(e, Negate):
        return _negate_normalized(_normalize(e.child))
    if isinstance(e, Sum):
        terms: list[tuple[ParaComplex, tuple]] = []
        for c in e.children:
            _gather_terms(_normalize(c), terms)
        return _rebuild_terms(_collect(terms))
    if isinstance(e, Product):
        return _normalize_product([_normalize(c) for c in e.children])
    if isinstance(e, Power):
        return _normalize_power(_normalize(e.base), e.exponent)
    if isinstance(e, Quotient):
        return _normalize_quotient(_normalize(e.num), _normalize(e.den))
    if isinstance(e, Apply):
        arg = _normalize(e.arg)
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
    coeff, factors = _as_term(e)
    if any(isinstance(base, Quotient) for base, _ in factors) and (
        coeff.a != 1.0 or coeff.b != 0.0 or len(factors) != 1 or factors[0][1] != 1
    ):
        # canonicalize before collection so the term key sees the folded
        # quotient, keeping term order stable across repeated passes
        coeff, factors = _as_term(_rebuild_term(coeff, factors))
    out.append((coeff, factors))


def _collect(terms: list[tuple[ParaComplex, tuple]]) -> list[tuple[ParaComplex, tuple]]:
    acc: dict[tuple, ParaComplex] = {}
    for coeff, factors in terms:
        acc[factors] = acc.get(factors, ZERO) + coeff
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
            coeff = f.value if coeff is None else coeff * f.value
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
            return Constant(base.value**k)
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
