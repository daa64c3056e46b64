import math
import random

import pytest

from biparamech.para_algebra import ParaComplex
from biparamech.eom import (
    DegenerateLagrangian,
    ExplicitODE,
    HamiltonianProblem,
    ImplicitODE,
    LagrangianProblem,
    OneForm,
    Semispray,
    SingularDenominator,
    TwoForm,
    audit_hamilton,
    audit_lagrange,
    el_equation_texts,
    energy,
    exterior_derivative,
    ham_equation_texts,
    lagrangian_two_form,
    synthesize_el,
    synthesize_ham,
    vertical_differential,
)
from biparamech.symbolic import (
    Constant,
    CoordinateChart,
    EvalState,
    ExpressionError,
    Var,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
    xi_var,
    z_var,
    zb_var,
)

C1 = CoordinateChart(1)
C2 = CoordinateChart(2)
J = ParaComplex(0.0, 1.0)


def c(a, b=0.0):
    return Constant(ParaComplex(a, b))


def pc(a, b=0.0):
    return ParaComplex(a, b)


def close(x: ParaComplex, y: ParaComplex, tol=1e-12):
    scale = max(1.0, abs(x), abs(y))
    d = x - y
    return abs(d.a) <= tol * scale and abs(d.b) <= tol * scale


def rand_state(rng, n=1):
    def val():
        while True:
            v = ParaComplex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(v.u), abs(v.v)) > 1e-3:
                return v

    return EvalState(z=tuple(val() for _ in range(n)), zb=tuple(val() for _ in range(n)))


def lagrangian(text, lam="0", chart=C1):
    return LagrangianProblem(chart, parse(text, chart), parse(lam, chart))


def hamiltonian(text, lam="0", chart=C1):
    return HamiltonianProblem(chart, parse(text, chart), parse(lam, chart))


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


class TestProblems:
    def test_rejects_out_of_chart_variables(self):
        with pytest.raises(ExpressionError):
            LagrangianProblem(C1, parse("z1*zb1", C2) * Var("z", 2), parse("0", C1))

    def test_rejects_velocity_symbols_in_function(self):
        with pytest.raises(ExpressionError):
            HamiltonianProblem(C1, xi_var(1), parse("0", C1))

    def test_semispray_coerces_and_checks_lengths(self):
        s = Semispray((1, 2), (ParaComplex(0.0, 1.0), 0))
        assert s.xi[0] == c(1.0)
        assert s.xib[0] == c(0.0, 1.0)
        with pytest.raises(ValueError):
            Semispray((1,), (1, 2))


# ---------------------------------------------------------------------------
# vertical differential
# ---------------------------------------------------------------------------


class TestVerticalDifferential:
    def test_bilinear_flat(self):
        w = vertical_differential(lagrangian("z1*zb1"))
        assert w.coeff_dz == (simplify(parse("-j*z1", C1)),)
        assert w.coeff_dzb == (simplify(parse("j*zb1", C1)),)

    def test_constant_lagrangian_gives_zero_form(self):
        w = vertical_differential(lagrangian("3"))
        assert w.coeff_dz == (c(0.0),)
        assert w.coeff_dzb == (c(0.0),)

    def test_constant_conformal_factor_scales(self):
        lamval = 0.7
        w = vertical_differential(lagrangian("z1*zb1", lam="0.7"))
        s = rand_state(random.Random(3))
        want_dz = -J * pc(math.exp(lamval)) * s.z[0]
        want_dzb = J * pc(math.exp(-lamval)) * s.zb[0]
        assert close(evaluate(w.coeff_dz[0], s), want_dz)
        assert close(evaluate(w.coeff_dzb[0], s), want_dzb)


# ---------------------------------------------------------------------------
# exterior derivative and two-forms
# ---------------------------------------------------------------------------


def fd_partial(e, s, family, index, h=1e-6):
    """Independent central-difference partial for the oracle below."""

    def shift(delta):
        z = list(s.z)
        zb = list(s.zb)
        tgt = z if family == "z" else zb
        tgt[index - 1] = tgt[index - 1] + delta
        return EvalState(z=tuple(z), zb=tuple(zb))

    return (evaluate(e, shift(pc(h))) - evaluate(e, shift(pc(-h)))) * pc(1.0 / (2 * h))


def fd_two_form_coeff(one_form_terms, chart, key, s):
    """FD exterior-derivative oracle: coefficient of the wedge pair `key`.

    d(f dt)[u^v] = du(f_of_v-covector) ... computed directly from the
    antisymmetrized partials of the one-form coefficients.
    """
    (fu, iu), (fv, iv) = key
    acc = pc(0.0)
    for tok, coeff in one_form_terms.items():
        (tf, ti) = tok[0]
        if (tf, ti) == (fv, iv):
            acc = acc + fd_partial(coeff, s, fu, iu)
        if (tf, ti) == (fu, iu):
            acc = acc - fd_partial(coeff, s, fv, iv)
    return acc


class TestLagrangianTwoForm:
    def test_bilinear_flat_is_zero(self):
        phi = lagrangian_two_form(lagrangian("z1*zb1"))
        assert phi.coeff == {}
        assert phi.is_zero()

    def test_constant_lagrangian_is_zero(self):
        assert lagrangian_two_form(lagrangian("2")).coeff == {}

    def test_quadratic_case_structure(self):
        phi = lagrangian_two_form(lagrangian("z1^2*zb1"))
        key = (("z", 1), ("zb", 1))
        assert set(phi.coeff) == {key}
        assert phi.coeff[key] == simplify(parse("-2*j*zb1", C1))

    @pytest.mark.parametrize(
        "ltext,lam",
        [
            ("z1^2*zb1 + 0.3*zb1^2", "0"),
            ("exp(z1)*zb1 + z1*zb1", "0.2*z1"),
            ("z1*zb1 + 0.1*z1^2*zb1^2", "0.1*z1*zb1"),
        ],
    )
    def test_against_fd_exterior_derivative_oracle(self, ltext, lam):
        p = lagrangian(ltext, lam=lam)
        w = vertical_differential(p)
        terms = {}
        for i in C1.indices():
            terms[(("z", i),)] = w.coeff_dz[i - 1]
            terms[(("zb", i),)] = w.coeff_dzb[i - 1]
        phi = lagrangian_two_form(p)
        rng = random.Random(11)
        for _ in range(4):
            s = rand_state(rng)
            for key in [(("z", 1), ("zb", 1))]:
                want = -fd_two_form_coeff(terms, C1, key, s)
                got = evaluate(phi.coeff[key], s) if key in phi.coeff else pc(0.0)
                assert close(got, want, 1e-6)


class TestExteriorDerivativeMachinery:
    def test_d_squared_is_zero_on_random_one_forms(self):
        rng = random.Random(5)
        for _ in range(10):
            terms = {}
            for fam in ("z", "zb"):
                for i in (1, 2):
                    coeff = simplify(
                        parse(
                            f"{round(rng.uniform(-2, 2), 3)}*z{i}^2*zb{3 - i}"
                            f" + {round(rng.uniform(-2, 2), 3)}*z{3 - i}*zb{i}",
                            C2,
                        )
                    )
                    terms[((fam, i),)] = coeff
            once = exterior_derivative(terms, C2)
            twice = exterior_derivative(once, C2)
            assert twice == {}

    def test_wedge_antisymmetry_canonicalization(self):
        # dzb1-then-dz1 ordering must flip sign into the canonical slot
        terms = {(("zb", 1),): parse("z1*zb1", C1)}
        d = exterior_derivative(terms, C1)
        key = (("z", 1), ("zb", 1))
        assert set(d) == {key}
        assert d[key] == simplify(parse("zb1", C1))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


class TestEnergy:
    def test_bilinear_flat(self):
        e = energy(lagrangian("z1*zb1"))
        rng = random.Random(9)
        for _ in range(5):
            s = rand_state(rng)
            xi, xib = pc(rng.uniform(-1, 1), rng.uniform(-1, 1)), pc(
                rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            full = EvalState(z=s.z, zb=s.zb, xi=(xi,), xib=(xib,))
            want = -J * xi * s.z[0] + J * xib * s.zb[0] - s.z[0] * s.zb[0]
            assert close(evaluate(e, full), want)

    def test_constant_lagrangian(self):
        assert energy(lagrangian("4")) == c(-4.0)

    def test_quadratic_with_constant_factor(self):
        e = energy(lagrangian("0.5*zb1^2", lam="0.3"))
        rng = random.Random(13)
        s = rand_state(rng)
        xi = pc(0.7, -0.2)
        full = EvalState(z=s.z, zb=s.zb, xi=(xi,), xib=(pc(1.0),))
        want = -J * xi * pc(math.exp(0.3)) * s.zb[0] - pc(0.5) * s.zb[0] ** 2
        assert close(evaluate(e, full), want)


# ---------------------------------------------------------------------------
# Euler-Lagrange synthesis
# ---------------------------------------------------------------------------


class TestSynthesizeEL:
    def test_bilinear_flat_system(self):
        ode = synthesize_el(lagrangian("z1*zb1"))
        assert ode.M == ((c(0.0, 1.0), c(0.0)), (c(0.0), c(0.0, 1.0)))
        assert ode.b == (simplify(parse("-zb1", C1)), simplify(parse("z1", C1)))

    def test_constant_factor_scales_rows(self):
        ode = synthesize_el(lagrangian("z1*zb1", lam="0.5"))
        s = EvalState(z=(pc(1.0),), zb=(pc(1.0),))
        assert close(evaluate(ode.M[0][0], s), J * pc(math.exp(0.5)))
        assert close(evaluate(ode.M[1][1], s), J * pc(math.exp(-0.5)))

    def test_degenerate_linear_lagrangian(self):
        ode = synthesize_el(lagrangian("z1"))
        assert ode.M == ((c(0.0), c(0.0)), (c(0.0), c(0.0)))
        assert ode.b == (c(-1.0), c(0.0))

    def test_system_contains_no_velocity_symbols(self):
        from biparamech.symbolic import vars_of

        ode = synthesize_el(lagrangian("exp(z1)*zb1 + z1*zb1", lam="0.2*z1"))
        for row in ode.M:
            for entry in row:
                assert all(f in ("z", "zb") for f, _ in vars_of(entry))
        for entry in ode.b:
            assert all(f in ("z", "zb") for f, _ in vars_of(entry))

    def test_two_coordinate_coupling(self):
        ode = synthesize_el(
            LagrangianProblem(C2, parse("z1*zb1 + z2*zb2 + 0.1*z1*zb2", C2), parse("0", C2))
        )
        # row A_1 couples xi1 only through d2L/dzb1 dz_k
        assert evaluate(ode.M[0][0], rand_state(random.Random(1), 2)) == J
        # row A_2 picks up the 0.1 cross term
        s = rand_state(random.Random(2), 2)
        assert close(evaluate(ode.M[1][0], s), J * pc(0.1))

    def test_results_are_cached(self):
        p = lagrangian("z1*zb1")
        assert synthesize_el(p) is synthesize_el(p)


class TestSynthesizeHam:
    def test_bilinear_flat(self):
        ode = synthesize_ham(hamiltonian("z1*zb1"))
        assert ode.rhs_z == (simplify(parse("-j*z1", C1)),)
        assert ode.rhs_zb == (simplify(parse("j*zb1", C1)),)
        assert ode.denom_plus == c(1.0)
        assert ode.denom_minus == c(1.0)

    def test_constant_factor_identical_to_flat(self):
        flat = synthesize_ham(hamiltonian("z1*zb1 + 0.1*z1^2"))
        conf = synthesize_ham(hamiltonian("z1*zb1 + 0.1*z1^2", lam="0.7"))
        assert flat.rhs_z == conf.rhs_z
        assert flat.rhs_zb == conf.rhs_zb

    def test_singular_denominator_fixture(self):
        p = hamiltonian("z1*zb1", lam="2*z1 - 2")
        ode = synthesize_ham(p)
        s = EvalState(z=(pc(1.0),), zb=(pc(0.5),))
        d_minus = evaluate(ode.denom_minus, s)
        assert abs(d_minus) <= 1e-15

    def test_denominators_enter_reciprocally(self):
        p = hamiltonian("z1*zb1", lam="0.1*z1*zb1")
        ode = synthesize_ham(p)
        rng = random.Random(31)
        for _ in range(5):
            s = rand_state(rng)
            dp = evaluate(ode.denom_plus, s)
            dm = evaluate(ode.denom_minus, s)
            if not (dp.invertible and dm.invertible):
                continue
            got_z = evaluate(ode.rhs_z[0], s)
            got_zb = evaluate(ode.rhs_zb[0], s)
            hz = evaluate(differentiate(p.H, z_var(1)), s)
            hzb = evaluate(differentiate(p.H, zb_var(1)), s)
            assert close(got_z, -J * hzb / dp)
            assert close(got_zb, J * hz / dm)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


class TestAuditLagrange:
    def test_exact_solution_plugs_back(self):
        p = lagrangian("z1*zb1")
        s = EvalState(z=(pc(1.0),), zb=(pc(2.0),))
        xi = Semispray((ParaComplex(0.0, -2.0),), (ParaComplex(0.0, 1.0),))
        assert audit_lagrange(p, s, xi) <= 1e-12

    def test_zero_velocity_residual_value(self):
        p = lagrangian("z1*zb1")
        s = EvalState(z=(pc(1.0),), zb=(pc(2.0),))
        xi = Semispray((0,), (0,))
        assert audit_lagrange(p, s, xi) == pytest.approx(2.0, abs=1e-15)

    def test_constant_lagrangian_always_zero(self):
        p = lagrangian("5")
        rng = random.Random(17)
        for _ in range(5):
            s = rand_state(rng)
            xi = Semispray((pc(rng.uniform(-3, 3)),), (pc(rng.uniform(-3, 3)),))
            assert audit_lagrange(p, s, xi) == 0.0

    def test_conformal_flow_passes_and_perturbed_flow_fails(self):
        from biparamech.dynamics import el_rhs

        p = lagrangian("z1*zb1 + 0.3*zb1^2", lam="0.2*z1*zb1")
        ode = synthesize_el(p)
        rng = random.Random(29)
        for _ in range(20):
            s = rand_state(rng)
            try:
                dz, dzb = el_rhs(ode, s)
            except DegenerateLagrangian:
                continue
            assert audit_lagrange(p, s, Semispray(dz, dzb)) <= 1e-10
        # a flow with dz off by 0.1% must be flagged at the fixture starts
        for z, zb in (((1.0, 0.2), (0.5, -0.1)), ((1.2, 0.1), (0.1, -0.1))):
            s = EvalState(z=(pc(*z),), zb=(pc(*zb),))
            dz, dzb = el_rhs(ode, s)
            assert audit_lagrange(p, s, Semispray(dz, dzb)) <= 1e-10
            scaled = tuple(w * pc(1.001) for w in dz)
            assert audit_lagrange(p, s, Semispray(scaled, dzb)) > 1e-3


class TestAuditHamilton:
    def test_bilinear_identity(self):
        p = hamiltonian("z1*zb1")
        s = EvalState(z=(pc(1.0),), zb=(pc(1.0),))
        assert audit_hamilton(p, s) <= 1e-12

    def test_constant_hamiltonian(self):
        p = hamiltonian("3")
        s = EvalState(z=(pc(1.0),), zb=(pc(1.0),))
        assert audit_hamilton(p, s) == 0.0

    def test_singular_state_raises_naming_d_minus(self):
        p = hamiltonian("z1*zb1", lam="2*z1 - 2")
        s = EvalState(z=(pc(1.0),), zb=(pc(0.5),))
        with pytest.raises(SingularDenominator) as exc:
            audit_hamilton(p, s, t=0.25)
        assert exc.value.which == "D-"
        assert "D-" in str(exc.value)
        assert exc.value.t == 0.25

    def test_singular_d_plus_state(self):
        p = hamiltonian("z1*zb1", lam="-2*z1 + 2")
        s = EvalState(z=(pc(1.0),), zb=(pc(0.5),))
        with pytest.raises(SingularDenominator) as exc:
            audit_hamilton(p, s)
        assert exc.value.which == "D+"

    def test_nontrivial_conformal_audit_passes(self):
        p = hamiltonian("z1*zb1 + 0.1*z1^2", lam="0.1*z1*zb1")
        rng = random.Random(23)
        checked = 0
        for _ in range(20):
            s = rand_state(rng)
            try:
                r = audit_hamilton(p, s)
            except SingularDenominator:
                continue
            assert r <= 1e-10
            checked += 1
        assert checked >= 10


# ---------------------------------------------------------------------------
# equation rendering
# ---------------------------------------------------------------------------


class TestEquationTexts:
    def test_el_bilinear(self):
        ode = synthesize_el(lagrangian("z1*zb1"))
        assert el_equation_texts(ode) == ["j*xi1 = -zb1", "j*xib1 = z1"]

    def test_ham_bilinear(self):
        ode = synthesize_ham(hamiltonian("z1*zb1"))
        assert ham_equation_texts(ode) == ["dz1/dt = -j*z1", "dzb1/dt = j*zb1"]
