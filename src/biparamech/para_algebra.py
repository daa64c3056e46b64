"""Split-complex scalars and the frame actions of the structure operators.

A split-complex (para-complex) number is ``a + b*j`` with ``j*j = +1``.
The idempotents ``e+ = (1+j)/2`` and ``e- = (1-j)/2`` satisfy
``e+*e+ = e+``, ``e-*e- = e-``, ``e+*e- = 0``, ``e+ + e- = 1`` and
``e+ - e- = j``, so every value factors through the pair
``(u, v) = (a+b, a-b)``.  Multiplication, division, powers and the
transcendental functions all act componentwise on ``(u, v)``, which is
where this module computes them.  A value with ``u = 0`` or ``v = 0`` is a
zero divisor and has no inverse; the lines ``a = b`` and ``a = -b`` make up
the zero-divisor locus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


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


@dataclass(frozen=True)
class IdempotentPair:
    """Coordinates (u, v) of a value in the basis (e+, e-)."""

    u: float
    v: float

    def to_para(self) -> "ParaComplex":
        return ParaComplex((self.u + self.v) / 2.0, (self.u - self.v) / 2.0)


@dataclass(frozen=True)
class ParaComplex:
    """A split-complex number a + b*j in canonical coordinates."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    # -- idempotent representation -------------------------------------

    @property
    def u(self) -> float:
        return self.a + self.b

    @property
    def v(self) -> float:
        return self.a - self.b

    def components(self) -> IdempotentPair:
        return IdempotentPair(self.u, self.v)

    @classmethod
    def from_idempotent(cls, u: float, v: float) -> "ParaComplex":
        return cls((u + v) / 2.0, (u - v) / 2.0)

    @property
    def invertible(self) -> bool:
        return abs(self.u) >= INVERTIBILITY_FLOOR and abs(self.v) >= INVERTIBILITY_FLOOR

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return ParaComplex(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return ParaComplex(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return ParaComplex(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return ParaComplex.from_idempotent(self.u * o.u, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o.invertible:
            raise ZeroDivisor(f"division by zero divisor {o}")
        return ParaComplex.from_idempotent(self.u / o.u, self.v / o.v)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self) -> "ParaComplex":
        return ParaComplex(-self.a, -self.b)

    def __pow__(self, k: int) -> "ParaComplex":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and not self.invertible:
            raise ZeroDivisor(f"negative power of zero divisor {self}")
        return ParaComplex.from_idempotent(self.u**k, self.v**k)

    def conj(self) -> "ParaComplex":
        """Para-conjugation a + b*j -> a - b*j (swaps the idempotent components)."""
        return ParaComplex(self.a, -self.b)

    def __abs__(self) -> float:
        """Sup norm in the idempotent basis, max(|u|, |v|)."""
        return max(abs(self.u), abs(self.v))

    def is_finite(self) -> bool:
        return math.isfinite(self.a) and math.isfinite(self.b)

    # -- componentwise transcendental functions ---------------------------

    def exp(self) -> "ParaComplex":
        return apply_function("exp", self)

    def ln(self) -> "ParaComplex":
        return apply_function("ln", self)

    def sin(self) -> "ParaComplex":
        return apply_function("sin", self)

    def cos(self) -> "ParaComplex":
        return apply_function("cos", self)

    def __str__(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}j"


def _coerce(x) -> ParaComplex | None:
    if isinstance(x, ParaComplex):
        return x
    if isinstance(x, (int, float)):
        return ParaComplex(float(x), 0.0)
    return None


# The named functions on one real leg.  Every evaluator applies these to
# both legs, so a value, a folded constant and a compiled closure agree:
# exp overflows to inf, and sin/cos of a non-finite leg give nan.


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
    return ParaComplex.from_idempotent(leg(x.u), leg(x.v))


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

    @property
    def is_vector(self) -> bool:
        return self in (Basis.D_X, Basis.D_Y, Basis.D_Z, Basis.D_ZB)


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


_STARRED = {
    StructureKind.J_STAR,
    StructureKind.P_STAR_PLUS,
    StructureKind.P_STAR_MINUS,
    StructureKind.W_STAR_PLUS,
    StructureKind.W_STAR_MINUS,
}


@dataclass(frozen=True)
class FrameVector:
    """A coefficient times one frame symbol with a coordinate index (1-based)."""

    kind: Basis
    index: int
    coefficient: ParaComplex = ONE

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("frame index is 1-based")


def structure_apply(
    kind: StructureKind,
    vec: FrameVector,
    lambda_value: ParaComplex = ZERO,
) -> list[FrameVector]:
    """Apply a structure operator to one frame term.

    Incoming coefficients pass through para-conjugated: the operators swap
    the z and zb frames the way conjugation does, and only the anti-linear
    extension makes the swap tables square to the identity.  ``lambda_value``
    is consumed by the W kinds only.
    """
    if kind in _STARRED:
        if vec.kind.is_vector:
            raise KindMismatch(f"{kind.value} acts on covectors, got {vec.kind.value}")
    else:
        if not vec.kind.is_vector:
            raise KindMismatch(f"{kind.value} acts on vectors, got {vec.kind.value}")

    cin = vec.coefficient.conj()
    k = vec.kind

    if kind in (StructureKind.J, StructureKind.F):
        if k is Basis.D_X:
            return [FrameVector(Basis.D_Y, vec.index, cin)]
        if k is Basis.D_Y:
            return [FrameVector(Basis.D_X, vec.index, cin)]
        if kind is StructureKind.F:
            raise KindMismatch("F acts on the real frame only")
        if k is Basis.D_Z:
            return [FrameVector(Basis.D_ZB, vec.index, cin * -J)]
        return [FrameVector(Basis.D_Z, vec.index, cin * J)]

    if kind is StructureKind.P_REAL:
        if k is Basis.D_X:
            return [FrameVector(Basis.D_X, vec.index, cin)]
        if k is Basis.D_Y:
            return [FrameVector(Basis.D_Y, vec.index, -cin)]
        raise KindMismatch("P acts on the real frame only")

    if kind in (StructureKind.P_PLUS, StructureKind.P_MINUS):
        e = E_PLUS if kind is StructureKind.P_PLUS else E_MINUS
        if k is Basis.D_Z:
            return [FrameVector(Basis.D_ZB, vec.index, cin * -e)]
        if k is Basis.D_ZB:
            return [FrameVector(Basis.D_Z, vec.index, cin * e)]
        raise KindMismatch(f"{kind.value} acts on the para-complex frame only")

    if kind in (StructureKind.W_PLUS, StructureKind.W_MINUS):
        e = E_PLUS if kind is StructureKind.W_PLUS else E_MINUS
        if k is Basis.D_Z:
            return [FrameVector(Basis.D_ZB, vec.index, cin * -e * lambda_value.exp())]
        if k is Basis.D_ZB:
            return [FrameVector(Basis.D_Z, vec.index, cin * e * (-lambda_value).exp())]
        raise KindMismatch(f"{kind.value} acts on the para-complex frame only")

    if kind is StructureKind.J_STAR:
        if k is Basis.DZ:
            return [FrameVector(Basis.DZB, vec.index, cin * -J)]
        return [FrameVector(Basis.DZ, vec.index, cin * J)]

    if kind in (StructureKind.P_STAR_PLUS, StructureKind.P_STAR_MINUS):
        e = E_PLUS if kind is StructureKind.P_STAR_PLUS else E_MINUS
        if k is Basis.DZ:
            return [FrameVector(Basis.DZB, vec.index, cin * -e)]
        return [FrameVector(Basis.DZ, vec.index, cin * e)]

    if kind in (StructureKind.W_STAR_PLUS, StructureKind.W_STAR_MINUS):
        e = E_PLUS if kind is StructureKind.W_STAR_PLUS else E_MINUS
        if k is Basis.DZ:
            return [FrameVector(Basis.DZB, vec.index, cin * -e * lambda_value.exp())]
        return [FrameVector(Basis.DZ, vec.index, cin * e * (-lambda_value).exp())]

    raise KindMismatch(f"unhandled structure kind {kind!r}")
