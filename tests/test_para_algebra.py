import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biparamech.para_algebra import (
    E_MINUS,
    E_PLUS,
    J,
    ONE,
    ZERO,
    Basis,
    DomainError,
    FrameVector,
    KindMismatch,
    ParaComplex,
    StructureKind,
    ZeroDivisor,
    _ACTIONS,
    apply_function,
    structure_apply,
)


def pc(a, b):
    return ParaComplex(a, b)


# Oracle: multiply through the idempotent pair by hand.
def idem_mul(x: ParaComplex, y: ParaComplex) -> ParaComplex:
    return ParaComplex.from_idempotent(x.u * y.u, x.v * y.v)


class TestArithmetic:
    def test_mul_oracle(self):
        # (1+2j)(3+4j): u = 3*7 = 21, v = (-1)*(-1) = 1, back to 11+10j
        got = pc(1, 2) * pc(3, 4)
        assert got == pc(11, 10)
        assert got == idem_mul(pc(1, 2), pc(3, 4))

    def test_mul_matches_canonical_formula(self):
        x, y = pc(0.7, -1.3), pc(2.25, 0.5)
        got = x * y
        assert got.a == pytest.approx(x.a * y.a + x.b * y.b, rel=1e-15)
        assert got.b == pytest.approx(x.a * y.b + x.b * y.a, rel=1e-15)

    def test_j_squares_to_one(self):
        assert J * J == ONE

    def test_div_oracle(self):
        assert pc(11, 10) / pc(3, 4) == pc(1, 2)

    def test_div_by_one(self):
        assert pc(5, -2) / ONE == pc(5, -2)

    def test_div_by_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            pc(1, 0) / pc(1, 1)
        with pytest.raises(ZeroDivisor):
            pc(1, 0) / pc(2, -2)

    def test_negative_power_of_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            pc(1, 1) ** -1

    def test_a_nan_leg_is_no_zero_divisor(self):
        # the interpreter's test: a leg is a zero divisor when abs(leg) is
        # under the floor, which a nan leg is not
        from biparamech.symbolic import CoordinateChart, EvalState, evaluate, parse

        w = ParaComplex.from_idempotent(math.nan, 1.0)
        chart = CoordinateChart(1)
        want = evaluate(parse("1/z1", chart), EvalState(z=(w,), zb=(ONE,)))
        assert repr((want.u, want.v)) == "(nan, 1.0)"
        for got in (pc(1, 0) / w, w**-1):
            assert repr((got.u, got.v)) == repr((want.u, want.v))

    def test_power(self):
        x = pc(1.5, 0.25)
        assert x**3 == x * x * x
        assert abs(x**-2 - ONE / (x * x)) < 1e-15

    def test_scalar_coercion(self):
        assert 2 * pc(1, 1) == pc(2, 2)
        assert pc(1, 1) + 1 == pc(2, 1)
        assert 1 - pc(0, 1) == pc(1, -1)
        assert pc(4, 0) / 2 == pc(2, 0)
        assert 1 / pc(1, 2) == ONE / pc(1, 2)


class TestIdempotentBasis:
    def test_fixed_images(self):
        assert (E_PLUS.u, E_PLUS.v) == (1.0, 0.0)
        assert (E_MINUS.u, E_MINUS.v) == (0.0, 1.0)
        assert (J.u, J.v) == (1.0, -1.0)
        assert (ONE.u, ONE.v) == (1.0, 1.0)
        assert (pc(11, 10).u, pc(11, 10).v) == (21.0, 1.0)

    def test_idempotent_identities_exact(self):
        assert E_PLUS * E_PLUS == E_PLUS
        assert E_MINUS * E_MINUS == E_MINUS
        assert E_PLUS * E_MINUS == ZERO
        assert E_PLUS + E_MINUS == ONE
        assert E_PLUS - E_MINUS == J

    def test_round_trip(self):
        x = pc(0.3, -1.7)
        back = ParaComplex.from_idempotent(x.u, x.v)
        assert abs(back - x) <= 1e-15

    def test_conj_swaps_components(self):
        x = pc(2.0, 0.5)
        assert x.conj().u == x.v
        assert x.conj().v == x.u

    def test_abs_is_idempotent_sup(self):
        assert abs(pc(1, 2)) == 3.0  # components (3, -1)
        assert abs(ZERO) == 0.0


class TestFunctions:
    def test_exp_of_j(self):
        got = apply_function("exp", J)
        assert got.a == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert got.b == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_exp_zero(self):
        assert apply_function("exp", ZERO) == ONE

    def test_ln_inverts_exp(self):
        x = pc(0.4, -0.2)
        assert abs(apply_function("ln", apply_function("exp", x)) - x) < 1e-14

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            apply_function("ln", pc(0, 0))
        with pytest.raises(DomainError):
            apply_function("ln", pc(1, 2))  # v = -1

    def test_trig_componentwise(self):
        x = pc(0.7, 0.1)
        s = apply_function("sin", x)
        assert s.u == pytest.approx(math.sin(x.u), rel=1e-15)
        assert s.v == pytest.approx(math.sin(x.v), rel=1e-15)

    def test_trig_of_non_finite_leg_is_nan(self):
        # the same leg functions serve ParaComplex and the evaluators
        s = apply_function("sin", pc(math.inf, 0))
        assert math.isnan(s.u) and math.isnan(s.v)

    def test_apply_function_dispatch(self):
        x = pc(0.5, 0.25)
        assert apply_function("cos", x) == ParaComplex.from_idempotent(math.cos(x.u), math.cos(x.v))
        with pytest.raises(ValueError):
            apply_function("tan", x)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


class TestRingProperties:
    @given(finite, finite, finite, finite)
    @settings(max_examples=80, deadline=None)
    def test_mul_commutes(self, a1, b1, a2, b2):
        x, y = pc(a1, b1), pc(a2, b2)
        assert x * y == y * x

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=80, deadline=None)
    def test_mul_associates(self, a1, b1, a2, b2, a3, b3):
        x, y, z = pc(a1, b1), pc(a2, b2), pc(a3, b3)
        left = (x * y) * z
        right = x * (y * z)
        assert abs(left - right) <= 1e-9 * max(1.0, abs(left))

    @given(finite, finite)
    @settings(max_examples=80, deadline=None)
    def test_convert_round_trip(self, a, b):
        x = pc(a, b)
        back = ParaComplex.from_idempotent(x.u, x.v)
        assert abs(back - x) <= 1e-15 * max(1.0, abs(x))

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    # exp(5j) keeps its e- leg e^-5 exactly; from (cosh 5, sinh 5) it would
    # lose about two digits to cancellation
    @example(a1=0.0, b1=5.0, a2=0.0, b2=-5.0)
    def test_exp_addition_law(self, a1, b1, a2, b2):
        x, y = pc(a1, b1), pc(a2, b2)
        lhs = apply_function("exp", x + y)
        rhs = apply_function("exp", x) * apply_function("exp", y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(finite, finite)
    @settings(max_examples=80, deadline=None)
    # a subnormal leg: halving it into (a, b) would lose its last bit
    @example(a=0.0, b=5e-324)
    def test_idempotent_projections_recombine(self, a, b):
        # Exact on the (u, v) pairs, which products keep; the sums recombine
        # through (a, b), hence the scaled 1e-15 bound.
        x = pc(a, b)
        plus, minus = E_PLUS * x, E_MINUS * x
        assert (plus.u, plus.v) == (x.u, 0.0)
        assert (minus.u, minus.v) == (0.0, x.v)
        tol = 1e-15 * max(1.0, abs(x))
        assert abs(E_PLUS * x + E_MINUS * x - x) <= tol
        assert abs(J * (J * x) - x) <= tol


class TestValueType:
    def test_fields_cannot_be_assigned(self):
        x = pc(1.0, 2.0)
        for name in ("a", "b", "u", "v"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0.0)
        with pytest.raises(AttributeError):
            x.w = 0.0
        with pytest.raises(AttributeError):
            del x.a
        assert (x.a, x.b, x.u, x.v) == (1.0, 2.0, 3.0, -1.0)

    def test_equal_values_hash_equal(self):
        x = pc(0.1, 0.2) * pc(0.3, 0.7)  # built from legs
        y = pc(x.a, x.b)  # the same (a, b), legs a+b and a-b
        assert x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
        assert pc(1, 2) == pc(1.0, 2.0) and hash(pc(1, 2)) == hash(pc(1.0, 2.0))

    def test_not_equal_to_other_types(self):
        assert pc(1.0, 0.0) != 1.0
        assert pc(1.0, 0.0) != (1.0, 0.0)

    def test_repr(self):
        assert repr(pc(1, -2.5)) == "ParaComplex(a=1.0, b=-2.5)"
        assert repr(ParaComplex.from_idempotent(3.0, -1.0)) == "ParaComplex(a=1.0, b=2.0)"

    def test_from_idempotent_keeps_subnormal_legs(self):
        x = ParaComplex.from_idempotent(5e-324, -5e-324)
        assert (x.u, x.v) == (5e-324, -5e-324)
        assert ParaComplex.from_idempotent(1e308, 5e-324).v == 5e-324

    def test_negation_keeps_negative_zero_in_both_pairs(self):
        x = -pc(0.0, 0.0)
        assert all(math.copysign(1.0, f) == -1.0 for f in (x.a, x.b, x.u, x.v))
        y = -ParaComplex.from_idempotent(0.0, 0.0)
        assert all(math.copysign(1.0, f) == -1.0 for f in (y.a, y.b, y.u, y.v))

    def test_linear_ops_compute_both_pairs(self):
        # from (a, b) = (0.5, 0.5) the e- legs below would come out 0.0
        x = ParaComplex.from_idempotent(1.0, 1e-17)
        y = pc(0.0, 2e-17)
        assert ((x + y).u, (x + y).v) == (x.u + y.u, x.v + y.v)
        assert ((x + y).a, (x + y).b) == (x.a + y.a, x.b + y.b)
        assert ((x - y).u, (x - y).v) == (x.u - y.u, x.v - y.v)
        assert (x.conj().u, x.conj().v) == (x.v, x.u)


class TestStructureTables:
    def test_real_frame(self):
        v = structure_apply(StructureKind.J, FrameVector(Basis.D_X, 1))
        assert (v.kind, v.index, v.coefficient) == (Basis.D_Y, 1, ONE)
        v = structure_apply(StructureKind.F, FrameVector(Basis.D_Y, 2))
        assert (v.kind, v.coefficient) == (Basis.D_X, ONE)
        v = structure_apply(StructureKind.P_REAL, FrameVector(Basis.D_Y, 1))
        assert (v.kind, v.coefficient) == (Basis.D_Y, -ONE)
        v = structure_apply(StructureKind.P_REAL, FrameVector(Basis.D_X, 1))
        assert (v.kind, v.coefficient) == (Basis.D_X, ONE)

    def test_j_on_para_frame(self):
        v = structure_apply(StructureKind.J, FrameVector(Basis.D_Z, 1))
        assert (v.kind, v.coefficient) == (Basis.D_ZB, -J)
        v = structure_apply(StructureKind.J, FrameVector(Basis.D_ZB, 1))
        assert (v.kind, v.coefficient) == (Basis.D_Z, J)

    def test_j_star_on_coframe(self):
        v = structure_apply(StructureKind.J_STAR, FrameVector(Basis.DZ, 1))
        assert (v.kind, v.coefficient) == (Basis.DZB, -J)
        v = structure_apply(StructureKind.J_STAR, FrameVector(Basis.DZB, 1))
        assert (v.kind, v.coefficient) == (Basis.DZ, J)

    def test_projector_tables(self):
        v = structure_apply(StructureKind.P_PLUS, FrameVector(Basis.D_Z, 1))
        assert (v.kind, v.coefficient) == (Basis.D_ZB, -E_PLUS)
        v = structure_apply(StructureKind.P_MINUS, FrameVector(Basis.D_ZB, 1))
        assert (v.kind, v.coefficient) == (Basis.D_Z, E_MINUS)
        v = structure_apply(StructureKind.P_STAR_MINUS, FrameVector(Basis.DZ, 1))
        assert (v.kind, v.coefficient) == (Basis.DZB, -E_MINUS)

    def test_conformal_tables_carry_exponentials(self):
        lam = ParaComplex(0.7, 0.0)
        v = structure_apply(StructureKind.W_MINUS, FrameVector(Basis.D_Z, 1), lam)
        assert v.kind is Basis.D_ZB
        assert abs(v.coefficient - (-E_MINUS * apply_function("exp", lam))) < 1e-15
        v = structure_apply(StructureKind.W_STAR_PLUS, FrameVector(Basis.DZB, 2), lam)
        assert v.kind is Basis.DZ
        assert abs(v.coefficient - E_PLUS * apply_function("exp", -lam)) < 1e-15

    def test_w_at_zero_matches_p(self):
        pairs = [
            (StructureKind.W_PLUS, StructureKind.P_PLUS, Basis.D_Z),
            (StructureKind.W_PLUS, StructureKind.P_PLUS, Basis.D_ZB),
            (StructureKind.W_MINUS, StructureKind.P_MINUS, Basis.D_Z),
            (StructureKind.W_MINUS, StructureKind.P_MINUS, Basis.D_ZB),
            (StructureKind.W_STAR_PLUS, StructureKind.P_STAR_PLUS, Basis.DZ),
            (StructureKind.W_STAR_MINUS, StructureKind.P_STAR_MINUS, Basis.DZB),
        ]
        for w, p, basis in pairs:
            got = structure_apply(w, FrameVector(basis, 1), ZERO)
            want = structure_apply(p, FrameVector(basis, 1))
            assert got == want

    def test_j_twice_is_identity(self):
        for basis in (Basis.D_X, Basis.D_Y, Basis.D_Z, Basis.D_ZB):
            start = FrameVector(basis, 1)
            once = structure_apply(StructureKind.J, start)
            assert structure_apply(StructureKind.J, once) == start

    def test_projector_difference_squares_to_identity(self):
        def p_diff(term):
            plus = structure_apply(StructureKind.P_PLUS, term)
            minus = structure_apply(StructureKind.P_MINUS, term)
            assert (plus.kind, plus.index) == (minus.kind, minus.index)
            return FrameVector(plus.kind, plus.index, plus.coefficient - minus.coefficient)

        for basis in (Basis.D_Z, Basis.D_ZB):
            start = FrameVector(basis, 1)
            assert p_diff(p_diff(start)) == start

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            structure_apply(StructureKind.J, FrameVector(Basis.DZ, 1))
        with pytest.raises(KindMismatch):
            structure_apply(StructureKind.J_STAR, FrameVector(Basis.D_Z, 1))
        with pytest.raises(KindMismatch):
            structure_apply(StructureKind.P_PLUS, FrameVector(Basis.D_X, 1))
        with pytest.raises(KindMismatch):
            structure_apply(StructureKind.F, FrameVector(Basis.D_Z, 1))


# Reference: structure_apply written out as one branch per kind, returning
# its one term in a list.  The table must agree with it bit for bit, and
# raise the same KindMismatch messages.
_STARRED = {
    StructureKind.J_STAR,
    StructureKind.P_STAR_PLUS,
    StructureKind.P_STAR_MINUS,
    StructureKind.W_STAR_PLUS,
    StructureKind.W_STAR_MINUS,
}
_VECTORS = (Basis.D_X, Basis.D_Y, Basis.D_Z, Basis.D_ZB)


def ladder_apply(kind, vec, lambda_value=ZERO):
    if kind in _STARRED:
        if vec.kind in _VECTORS:
            raise KindMismatch(f"{kind.value} acts on covectors, got {vec.kind.value}")
    else:
        if vec.kind not in _VECTORS:
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
            return [FrameVector(Basis.D_ZB, vec.index, cin * -e * apply_function("exp", lambda_value))]
        if k is Basis.D_ZB:
            return [FrameVector(Basis.D_Z, vec.index, cin * e * apply_function("exp", -lambda_value))]
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
            return [FrameVector(Basis.DZB, vec.index, cin * -e * apply_function("exp", lambda_value))]
        return [FrameVector(Basis.DZ, vec.index, cin * e * apply_function("exp", -lambda_value))]

    raise KindMismatch(f"unhandled structure kind {kind!r}")


def _ladder_term(kind, vec, lam):
    (term,) = ladder_apply(kind, vec, lam)
    return term


def _random_value(rng):
    """A value from (a, b) or from its legs, across magnitudes: subnormal
    and overflowing legs, signed zeros, and exp arguments past 709."""
    scale = rng.choice([1.0, 1e-310, 1e300, 800.0, 0.0])
    x, y = rng.uniform(-3.0, 3.0) * scale, rng.uniform(-3.0, 3.0) * rng.choice([1.0, -0.0, 1e-310])
    return ParaComplex(x, y) if rng.random() < 0.5 else ParaComplex.from_idempotent(x, y)


def _bits(w):
    return tuple(struct.pack("<d", x) for x in (w.a, w.b, w.u, w.v))


def _outcome(apply, kind, vec, lam):
    try:
        got = apply(kind, vec, lam)
    except KindMismatch as exc:
        return type(exc), str(exc)
    return got.kind, got.index, _bits(got.coefficient)


class TestStructureTableAgainstLadder:
    def test_table_covers_every_kind(self):
        assert {kind for kind, _ in _ACTIONS} == set(StructureKind)
        # each kind acts on exactly two or four frame symbols of one side
        for kind in StructureKind:
            domain = {basis for k, basis in _ACTIONS if k is kind}
            assert len(domain) in (2, 4)
            assert all((b in _VECTORS) == (kind not in _STARRED) for b in domain)

    def test_bit_for_bit_on_every_kind_and_symbol(self):
        rng = random.Random(31)
        for _ in range(300):
            c, lam = _random_value(rng), _random_value(rng)
            index = rng.randrange(1, 4)
            for kind in StructureKind:
                for basis in Basis:
                    vec = FrameVector(basis, index, c)
                    want = _outcome(_ladder_term, kind, vec, lam)
                    assert _outcome(structure_apply, kind, vec, lam) == want, (kind, basis, c, lam)
