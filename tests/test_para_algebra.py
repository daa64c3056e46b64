import math

import pytest
from hypothesis import given, settings
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
    IdempotentPair,
    KindMismatch,
    ParaComplex,
    StructureKind,
    ZeroDivisor,
    apply_function,
    structure_apply,
)


def pc(a, b):
    return ParaComplex(a, b)


# Oracle: multiply through the idempotent pair by hand.
def idem_mul(x: ParaComplex, y: ParaComplex) -> ParaComplex:
    return IdempotentPair(x.u * y.u, x.v * y.v).to_para()


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
        assert E_PLUS.components() == IdempotentPair(1.0, 0.0)
        assert E_MINUS.components() == IdempotentPair(0.0, 1.0)
        assert J.components() == IdempotentPair(1.0, -1.0)
        assert ONE.components() == IdempotentPair(1.0, 1.0)
        assert pc(11, 10).components() == IdempotentPair(21.0, 1.0)

    def test_idempotent_identities_exact(self):
        assert E_PLUS * E_PLUS == E_PLUS
        assert E_MINUS * E_MINUS == E_MINUS
        assert E_PLUS * E_MINUS == ZERO
        assert E_PLUS + E_MINUS == ONE
        assert E_PLUS - E_MINUS == J

    def test_round_trip(self):
        x = pc(0.3, -1.7)
        back = x.components().to_para()
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
        got = J.exp()
        assert got.a == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert got.b == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_exp_zero(self):
        assert ZERO.exp() == ONE

    def test_ln_inverts_exp(self):
        x = pc(0.4, -0.2)
        assert abs(x.exp().ln() - x) < 1e-14

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            pc(0, 0).ln()
        with pytest.raises(DomainError):
            pc(1, 2).ln()  # v = -1

    def test_trig_componentwise(self):
        x = pc(0.7, 0.1)
        s = x.sin()
        assert s.u == pytest.approx(math.sin(x.u), rel=1e-15)
        assert s.v == pytest.approx(math.sin(x.v), rel=1e-15)

    def test_trig_of_non_finite_leg_is_nan(self):
        # the same leg functions serve ParaComplex and the evaluators
        s = pc(math.inf, 0).sin()
        assert math.isnan(s.u) and math.isnan(s.v)

    def test_apply_function_dispatch(self):
        x = pc(0.5, 0.25)
        assert apply_function("cos", x) == x.cos()
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
        back = x.components().to_para()
        assert abs(back - x) <= 1e-15 * max(1.0, abs(x))

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_exp_addition_law(self, a1, b1, a2, b2):
        x, y = pc(a1, b1), pc(a2, b2)
        lhs = (x + y).exp()
        rhs = x.exp() * y.exp()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(finite, finite)
    @settings(max_examples=80, deadline=None)
    def test_idempotent_projections_recombine(self, a, b):
        # Exact on the (u, v) pairs; the canonical round-trip may round in
        # the last bit, hence the scaled 1e-15 bound on the stored values.
        x = pc(a, b)
        assert (E_PLUS * x).components() == IdempotentPair(x.u, 0.0)
        assert (E_MINUS * x).components() == IdempotentPair(0.0, x.v)
        tol = 1e-15 * max(1.0, abs(x))
        assert abs(E_PLUS * x + E_MINUS * x - x) <= tol
        assert abs(J * (J * x) - x) <= tol


def one_term(terms):
    assert len(terms) == 1
    return terms[0]


class TestStructureTables:
    def test_real_frame(self):
        v = one_term(structure_apply(StructureKind.J, FrameVector(Basis.D_X, 1)))
        assert (v.kind, v.index, v.coefficient) == (Basis.D_Y, 1, ONE)
        v = one_term(structure_apply(StructureKind.F, FrameVector(Basis.D_Y, 2)))
        assert (v.kind, v.coefficient) == (Basis.D_X, ONE)
        v = one_term(structure_apply(StructureKind.P_REAL, FrameVector(Basis.D_Y, 1)))
        assert (v.kind, v.coefficient) == (Basis.D_Y, -ONE)
        v = one_term(structure_apply(StructureKind.P_REAL, FrameVector(Basis.D_X, 1)))
        assert (v.kind, v.coefficient) == (Basis.D_X, ONE)

    def test_j_on_para_frame(self):
        v = one_term(structure_apply(StructureKind.J, FrameVector(Basis.D_Z, 1)))
        assert (v.kind, v.coefficient) == (Basis.D_ZB, -J)
        v = one_term(structure_apply(StructureKind.J, FrameVector(Basis.D_ZB, 1)))
        assert (v.kind, v.coefficient) == (Basis.D_Z, J)

    def test_j_star_on_coframe(self):
        v = one_term(structure_apply(StructureKind.J_STAR, FrameVector(Basis.DZ, 1)))
        assert (v.kind, v.coefficient) == (Basis.DZB, -J)
        v = one_term(structure_apply(StructureKind.J_STAR, FrameVector(Basis.DZB, 1)))
        assert (v.kind, v.coefficient) == (Basis.DZ, J)

    def test_projector_tables(self):
        v = one_term(structure_apply(StructureKind.P_PLUS, FrameVector(Basis.D_Z, 1)))
        assert (v.kind, v.coefficient) == (Basis.D_ZB, -E_PLUS)
        v = one_term(structure_apply(StructureKind.P_MINUS, FrameVector(Basis.D_ZB, 1)))
        assert (v.kind, v.coefficient) == (Basis.D_Z, E_MINUS)
        v = one_term(structure_apply(StructureKind.P_STAR_MINUS, FrameVector(Basis.DZ, 1)))
        assert (v.kind, v.coefficient) == (Basis.DZB, -E_MINUS)

    def test_conformal_tables_carry_exponentials(self):
        lam = ParaComplex(0.7, 0.0)
        v = one_term(structure_apply(StructureKind.W_MINUS, FrameVector(Basis.D_Z, 1), lam))
        assert v.kind is Basis.D_ZB
        assert abs(v.coefficient - (-E_MINUS * lam.exp())) < 1e-15
        v = one_term(structure_apply(StructureKind.W_STAR_PLUS, FrameVector(Basis.DZB, 2), lam))
        assert v.kind is Basis.DZ
        assert abs(v.coefficient - E_PLUS * (-lam).exp()) < 1e-15

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
            once = one_term(structure_apply(StructureKind.J, start))
            assert one_term(structure_apply(StructureKind.J, once)) == start

    def test_projector_difference_squares_to_identity(self):
        def p_diff(term):
            plus = one_term(structure_apply(StructureKind.P_PLUS, term))
            minus = one_term(structure_apply(StructureKind.P_MINUS, term))
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
