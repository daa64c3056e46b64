"""Split-complex scalars and the frame actions of the structure operators.

A split-complex (para-complex) number is ``a + b*j`` with ``j*j = +1``.
The idempotents ``e+ = (1+j)/2`` and ``e- = (1-j)/2`` satisfy
``e+*e+ = e+``, ``e-*e- = e-``, ``e+*e- = 0``, ``e+ + e- = 1`` and
``e+ - e- = j``, so every value factors through the pair
``(u, v) = (a+b, a-b)``.  Multiplication, division, powers and the
transcendental functions all act componentwise on ``(u, v)``, which is
where this module computes them.  A ``ParaComplex`` holds both pairs, so
a leg it computed is never rounded back through ``(a, b)``: ``e+ * x`` is
exact on the legs even when a leg is subnormal.  A value with ``u = 0`` or
``v = 0`` is a zero divisor and has no inverse; the lines ``a = b`` and
``a = -b`` make up the zero-divisor locus.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter


class ZeroDivisor(ArithmeticError):
    """Division (or negative power) of a value with a vanishing idempotent component."""


class DomainError(ArithmeticError):
    """Componentwise function applied outside its real domain (e.g. ln of a non-positive component)."""


class KindMismatch(ValueError):
    """Structure operator applied to a frame symbol outside its domain."""


# Components below this magnitude are treated as true zeros.  This is an
# underflow guard, not an epsilon: nearly-null values are meaningful dynamics
# and must stay invertible.
INVERTIBILITY_FLOOR = 1e-300


class ValueType:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields`` and writes an ``__init__``
    that stores each one in ``self.__dict__``.  Instances compare equal
    only to instances of the same class whose field tuples are equal, hash
    as that tuple and print as ``Name(field=value, ...)``, which is what a
    frozen dataclass gives; assigning or deleting an attribute raises
    ``AttributeError``.  A subclass may set its own ``__match_args__``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls._fields)
        if cls._fields:
            # a one-field getter returns the bare value, not a 1-tuple
            cls._get = attrgetter(*cls._fields)

    def _values(self) -> tuple:
        v = self._get(self)
        return v if len(self._fields) > 1 else (v,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # wrapped, so a one-field value compares as a 1-tuple, identity first
        get = self._get
        return (get(self),) == (get(other),)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        inner = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ParaComplex:
    """A split-complex number a + b*j, held in both coordinate pairs.

    A value built from ``(a, b)`` keeps them exactly and takes
    ``u = a+b``, ``v = a-b``; one built from legs (``from_idempotent``)
    keeps the legs exactly and takes ``a = (u+v)/2``, ``b = (u-v)/2``.
    Products, quotients, powers and functions run on the legs; sums,
    differences, negation and conjugation are linear and compute both
    pairs directly.  Equality, hashing and ``repr`` use ``(a, b)``.
    """

    __slots__ = ("a", "b", "u", "v")

    def __init__(self, a: float, b: float) -> None:
        a = float(a)
        b = float(b)
        _set_a(self, a)
        _set_b(self, b)
        _set_u(self, a + b)
        _set_v(self, a - b)

    def __setattr__(self, name, value):
        raise AttributeError(f"ParaComplex is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ParaComplex is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ParaComplex:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"ParaComplex(a={self.a!r}, b={self.b!r})"

    # -- idempotent representation -------------------------------------

    @classmethod
    def from_idempotent(cls, u: float, v: float) -> "ParaComplex":
        return _from_legs(float(u), float(v))

    @property
    def invertible(self) -> bool:
        # the interpreter's test, so a nan leg is no zero divisor
        return not (abs(self.u) < INVERTIBILITY_FLOOR or abs(self.v) < INVERTIBILITY_FLOOR)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = other if other.__class__ is ParaComplex else _coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.a + o.a, self.b + o.b, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is ParaComplex else _coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.a - o.a, self.b - o.b, self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _make(o.a - self.a, o.b - self.b, o.u - self.u, o.v - self.v)

    def __mul__(self, other):
        o = other if other.__class__ is ParaComplex else _coerce(other)
        if o is None:
            return NotImplemented
        return _from_legs(self.u * o.u, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o.invertible:
            raise ZeroDivisor(f"division by zero divisor {o}")
        return _from_legs(self.u / o.u, self.v / o.v)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self) -> "ParaComplex":
        return _make(-self.a, -self.b, -self.u, -self.v)

    def __pow__(self, k: int) -> "ParaComplex":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and not self.invertible:
            raise ZeroDivisor(f"negative power of zero divisor {self}")
        return _from_legs(_pow_leg(self.u, k), _pow_leg(self.v, k))

    def conj(self) -> "ParaComplex":
        """Para-conjugation a + b*j -> a - b*j (swaps the idempotent components)."""
        return _make(self.a, -self.b, self.v, self.u)

    def __abs__(self) -> float:
        """Sup norm in the idempotent basis, max(|u|, |v|)."""
        return max(abs(self.u), abs(self.v))

    def is_finite(self) -> bool:
        return math.isfinite(self.a) and math.isfinite(self.b)

    def __str__(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}j"


_set_a, _set_b, _set_u, _set_v = (ParaComplex.__dict__[k].__set__ for k in ParaComplex.__slots__)
_new = object.__new__


def _make(a: float, b: float, u: float, v: float) -> ParaComplex:
    """A value with both coordinate pairs given; the ring ops pass floats,
    so __init__'s conversions are skipped."""
    w = _new(ParaComplex)
    _set_a(w, a)
    _set_b(w, b)
    _set_u(w, u)
    _set_v(w, v)
    return w


def _from_legs(u: float, v: float) -> ParaComplex:
    return _make((u + v) / 2.0, (u - v) / 2.0, u, v)


def _coerce(x) -> ParaComplex | None:
    if isinstance(x, ParaComplex):
        return x
    if isinstance(x, (int, float)):
        return ParaComplex(float(x), 0.0)
    return None


# The named functions on one real leg.  Every evaluator applies these to
# both legs, so a value, a folded constant and a compiled closure agree:
# exp and powers overflow to inf, and sin/cos of a non-finite leg give nan.


def _pow_leg(x: float, k: int) -> float:
    try:
        return x**k
    except OverflowError:
        return -math.inf if x < 0.0 and k % 2 else math.inf


def _exp_leg(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ln_leg(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"ln of non-positive leg {x!r}")
    return math.log(x)


def _sin_leg(x: float) -> float:
    return math.sin(x) if math.isfinite(x) else math.nan


def _cos_leg(x: float) -> float:
    return math.cos(x) if math.isfinite(x) else math.nan


ZERO = ParaComplex(0.0, 0.0)
ONE = ParaComplex(1.0, 0.0)
J = ParaComplex(0.0, 1.0)
E_PLUS = ParaComplex(0.5, 0.5)
E_MINUS = ParaComplex(0.5, -0.5)

FUNCTIONS = {"exp": _exp_leg, "ln": _ln_leg, "sin": _sin_leg, "cos": _cos_leg}


def apply_function(tag: str, x: ParaComplex) -> ParaComplex:
    """Apply one of the named componentwise functions."""
    leg = FUNCTIONS.get(tag)
    if leg is None:
        raise ValueError(f"unknown function {tag!r}")
    return _from_legs(leg(x.u), leg(x.v))


# ---------------------------------------------------------------------------
# Structure operators on coordinate frames
# ---------------------------------------------------------------------------


class Basis(Enum):
    """Frame symbols: real and para-complex vectors, para-complex covectors."""

    D_X = "d/dx"
    D_Y = "d/dy"
    D_Z = "d/dz"
    D_ZB = "d/dzb"
    DZ = "dz"
    DZB = "dzb"


class StructureKind(Enum):
    J = "J"
    P_PLUS = "P+"
    P_MINUS = "P-"
    W_PLUS = "W+"
    W_MINUS = "W-"
    F = "F"
    P_REAL = "P"
    J_STAR = "J*"
    P_STAR_PLUS = "P*+"
    P_STAR_MINUS = "P*-"
    W_STAR_PLUS = "W*+"
    W_STAR_MINUS = "W*-"


class FrameVector(ValueType):
    """A coefficient times one frame symbol with a coordinate index (1-based)."""

    _fields = ("kind", "index", "coefficient")

    def __init__(self, kind: Basis, index: int, coefficient: ParaComplex = ONE) -> None:
        if index < 1:
            raise ValueError("frame index is 1-based")
        d = self.__dict__
        d["kind"] = kind
        d["index"] = index
        d["coefficient"] = coefficient


# (kind, frame symbol) -> (image symbol, factor, sign of lambda).  The image
# coefficient is conj(c) * factor * exp(sign*lambda); a factor of 1 or -1 is
# applied as conj(c) or -conj(c), so a never rounds through the legs.
_ACTIONS = {
    (StructureKind.J, Basis.D_X): (Basis.D_Y, 1, 0),
    (StructureKind.J, Basis.D_Y): (Basis.D_X, 1, 0),
    (StructureKind.F, Basis.D_X): (Basis.D_Y, 1, 0),
    (StructureKind.F, Basis.D_Y): (Basis.D_X, 1, 0),
    (StructureKind.P_REAL, Basis.D_X): (Basis.D_X, 1, 0),
    (StructureKind.P_REAL, Basis.D_Y): (Basis.D_Y, -1, 0),
}
for _kind, _z, _zb, _factor, _sign in (
    (StructureKind.J, Basis.D_Z, Basis.D_ZB, J, 0),
    (StructureKind.P_PLUS, Basis.D_Z, Basis.D_ZB, E_PLUS, 0),
    (StructureKind.P_MINUS, Basis.D_Z, Basis.D_ZB, E_MINUS, 0),
    (StructureKind.W_PLUS, Basis.D_Z, Basis.D_ZB, E_PLUS, 1),
    (StructureKind.W_MINUS, Basis.D_Z, Basis.D_ZB, E_MINUS, 1),
    (StructureKind.J_STAR, Basis.DZ, Basis.DZB, J, 0),
    (StructureKind.P_STAR_PLUS, Basis.DZ, Basis.DZB, E_PLUS, 0),
    (StructureKind.P_STAR_MINUS, Basis.DZ, Basis.DZB, E_MINUS, 0),
    (StructureKind.W_STAR_PLUS, Basis.DZ, Basis.DZB, E_PLUS, 1),
    (StructureKind.W_STAR_MINUS, Basis.DZ, Basis.DZB, E_MINUS, 1),
):
    _ACTIONS[_kind, _z] = (_zb, -_factor, _sign)
    _ACTIONS[_kind, _zb] = (_z, _factor, -_sign)
del _kind, _z, _zb, _factor, _sign


def structure_apply(
    kind: StructureKind,
    vec: FrameVector,
    lambda_value: ParaComplex = ZERO,
) -> FrameVector:
    """Apply a structure operator to one frame term; the image is one term.

    Incoming coefficients pass through para-conjugated: the operators swap
    the z and zb frames the way conjugation does, and only the anti-linear
    extension makes the swap tables square to the identity.  ``lambda_value``
    is consumed by the W kinds only.
    """
    action = _ACTIONS.get((kind, vec.kind))
    if action is None:
        # the starred duals act on covectors, the others on vectors
        covector = vec.kind in (Basis.DZ, Basis.DZB)
        if ("*" in kind.value) != covector:
            side = "vectors" if covector else "covectors"
            raise KindMismatch(f"{kind.value} acts on {side}, got {vec.kind.value}")
        frame = "para-complex" if vec.kind in (Basis.D_X, Basis.D_Y) else "real"
        raise KindMismatch(f"{kind.value} acts on the {frame} frame only")
    image, factor, sign = action
    c = vec.coefficient.conj()
    if isinstance(factor, ParaComplex):
        c = c * factor
    elif factor < 0:
        c = -c
    if sign:
        c = c * apply_function("exp", lambda_value if sign > 0 else -lambda_value)
    return FrameVector(image, vec.index, c)
