import glob
import json
import math
import os
import random

import pytest

from biparamech import eom, symbolic
from biparamech.cli import load_problem
from biparamech.para_algebra import ParaComplex
from biparamech.eom import (
    DegenerateLagrangian,
    ExplicitODE,
    HamiltonianProblem,
    ImplicitODE,
    LagrangianProblem,
    SingularDenominator,
    audit_hamilton,
    audit_lagrange,
    el_equation_texts,
    energy,
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
    Product,
    Sum,
    Var,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
    walk,
    xi_var,
    xib_var,
    z_var,
    zb_var,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
            LagrangianProblem(C1, Product((parse("z1*zb1", C2), Var("z", 2))), parse("0", C1))

    def test_rejects_velocity_symbols_in_function(self):
        with pytest.raises(ExpressionError):
            HamiltonianProblem(C1, xi_var(1), parse("0", C1))


# ---------------------------------------------------------------------------
# vertical differential
# ---------------------------------------------------------------------------


def theta_of(p):
    """vertical_differential's 2n coefficients split into the dz and dzb ones."""
    theta = vertical_differential(p)
    n = p.chart.n
    assert len(theta) == 2 * n
    return theta[:n], theta[n:]


class TestVerticalDifferential:
    def test_bilinear_flat(self):
        coeff_dz, coeff_dzb = theta_of(lagrangian("z1*zb1"))
        assert coeff_dz == (simplify(parse("-j*z1", C1)),)
        assert coeff_dzb == (simplify(parse("j*zb1", C1)),)

    def test_constant_lagrangian_gives_zero_form(self):
        coeff_dz, coeff_dzb = theta_of(lagrangian("3"))
        assert coeff_dz == (c(0.0),)
        assert coeff_dzb == (c(0.0),)

    def test_constant_conformal_factor_scales(self):
        lamval = 0.7
        coeff_dz, coeff_dzb = theta_of(lagrangian("z1*zb1", lam="0.7"))
        s = rand_state(random.Random(3))
        want_dz = -J * pc(math.exp(lamval)) * s.z[0]
        want_dzb = J * pc(math.exp(-lamval)) * s.zb[0]
        assert close(evaluate(coeff_dz[0], s), want_dz)
        assert close(evaluate(coeff_dzb[0], s), want_dzb)


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


def two_form_coeff(p):
    """lagrangian_two_form's (a, b, w) entries as {(slot a, slot b): w}."""
    slots = p.chart.slots()
    return {(slots[a], slots[b]): w for a, b, w in lagrangian_two_form(p)}


class TestLagrangianTwoForm:
    def test_bilinear_flat_is_zero(self):
        assert two_form_coeff(lagrangian("z1*zb1")) == {}

    def test_constant_lagrangian_is_zero(self):
        assert two_form_coeff(lagrangian("2")) == {}

    def test_quadratic_case_structure(self):
        coeff = two_form_coeff(lagrangian("z1^2*zb1"))
        key = (("z", 1), ("zb", 1))
        assert set(coeff) == {key}
        assert coeff[key] == simplify(parse("-2*j*zb1", C1))

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
        coeff_dz, coeff_dzb = theta_of(p)
        terms = {}
        for i in C1.indices():
            terms[(("z", i),)] = coeff_dz[i - 1]
            terms[(("zb", i),)] = coeff_dzb[i - 1]
        coeff = two_form_coeff(p)
        rng = random.Random(11)
        for _ in range(4):
            s = rand_state(rng)
            for key in [(("z", 1), ("zb", 1))]:
                want = -fd_two_form_coeff(terms, C1, key, s)
                got = evaluate(coeff[key], s) if key in coeff else pc(0.0)
                assert close(got, want, 1e-6)

    def test_two_coordinates_all_pairs_in_slot_order(self):
        p = lagrangian(
            "z1^2*zb2 + z2^2*zb1 + 0.3*z1*z2*zb1*zb2 + 0.2*zb1^2*zb2", lam="0.1*z1*zb2", chart=C2
        )
        terms = {(slot,): coeff for slot, coeff in zip(C2.slots(), vertical_differential(p))}
        coeff = two_form_coeff(p)
        slots = C2.slots()
        for a, b in coeff:
            assert slots.index(a) < slots.index(b)
        pairs = [(a, b) for k, a in enumerate(slots) for b in slots[k + 1:]]
        assert set(coeff) == set(pairs)
        # the entries come in slot order: by a, then by b
        assert [(a, b) for a, b, _ in lagrangian_two_form(p)] == [
            (a, b) for a in range(4) for b in range(a + 1, 4)
        ]
        rng = random.Random(12)
        for _ in range(4):
            s = rand_state(rng, n=2)
            for key in pairs:
                want = -fd_two_form_coeff(terms, C2, key, s)
                assert close(evaluate(coeff[key], s), want, 1e-6)


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


def simplified(ode):
    """M and b with each entry simplified: synthesize_el returns the chain
    rule's trees, and only their normal form has a fixed shape."""
    return (tuple(tuple(simplify(e) for e in row) for row in ode.M),
            tuple(simplify(e) for e in ode.b))


class TestSynthesizeEL:
    def test_bilinear_flat_system(self):
        M, b = simplified(synthesize_el(lagrangian("z1*zb1")))
        assert M == ((c(0.0, 1.0), c(0.0)), (c(0.0), c(0.0, 1.0)))
        assert b == (simplify(parse("-zb1", C1)), simplify(parse("z1", C1)))

    def test_constant_factor_scales_rows(self):
        ode = synthesize_el(lagrangian("z1*zb1", lam="0.5"))
        s = EvalState(z=(pc(1.0),), zb=(pc(1.0),))
        assert close(evaluate(ode.M[0][0], s), J * pc(math.exp(0.5)))
        assert close(evaluate(ode.M[1][1], s), J * pc(math.exp(-0.5)))

    def test_degenerate_linear_lagrangian(self):
        M, b = simplified(synthesize_el(lagrangian("z1")))
        assert M == ((c(0.0), c(0.0)), (c(0.0), c(0.0)))
        assert b == (c(-1.0), c(0.0))

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
        xi = (ParaComplex(0.0, -2.0), ParaComplex(0.0, 1.0))
        assert audit_lagrange(p, s, xi) <= 1e-12

    def test_zero_velocity_residual_value(self):
        p = lagrangian("z1*zb1")
        s = EvalState(z=(pc(1.0),), zb=(pc(2.0),))
        xi = (pc(0.0), pc(0.0))
        assert audit_lagrange(p, s, xi) == pytest.approx(2.0, abs=1e-15)

    def test_constant_lagrangian_always_zero(self):
        p = lagrangian("5")
        rng = random.Random(17)
        for _ in range(5):
            s = rand_state(rng)
            xi = (pc(rng.uniform(-3, 3)), pc(rng.uniform(-3, 3)))
            assert audit_lagrange(p, s, xi) == 0.0

    def test_conformal_flow_passes_and_perturbed_flow_fails(self):
        from biparamech.dynamics import at_state, make_el_rhs

        p = lagrangian("z1*zb1 + 0.3*zb1^2", lam="0.2*z1*zb1")
        rhs = make_el_rhs(synthesize_el(p))
        rng = random.Random(29)
        for _ in range(20):
            s = rand_state(rng)
            try:
                dz, dzb = at_state(rhs, s)
            except DegenerateLagrangian:
                continue
            assert audit_lagrange(p, s, dz + dzb) <= 1e-10
        # a flow with dz off by 0.1% must be flagged at the fixture starts
        for z, zb in (((1.0, 0.2), (0.5, -0.1)), ((1.2, 0.1), (0.1, -0.1))):
            s = EvalState(z=(pc(*z),), zb=(pc(*zb),))
            dz, dzb = at_state(rhs, s)
            assert audit_lagrange(p, s, dz + dzb) <= 1e-10
            scaled = tuple(w * pc(1.001) for w in dz)
            assert audit_lagrange(p, s, scaled + dzb) > 1e-3


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
            audit_hamilton(p, s)
        assert exc.value.which == "D-"
        assert "D-" in str(exc.value)

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


def per_column_el_equation_texts(ode):
    """The reference rendering: row r as simplify(sum_k M_rk*xi_k), one
    product per column, whatever synthesize_el recorded."""
    unknowns = [xi_var(i) for i in ode.chart.indices()] + [xib_var(i) for i in ode.chart.indices()]
    lines = []
    for row, rhs in zip(ode.M, ode.b):
        lhs = simplify(Sum(tuple(Product((m, x)) for m, x in zip(row, unknowns))))
        lines.append(f"{to_text(lhs)} = {to_text(simplify(rhs))}")
    return lines


def shipped_lagrangians():
    out = []
    for pattern in ("*.json", os.path.join("failing", "*.json")):
        for path in sorted(glob.glob(os.path.join(REPO, "problems", pattern))):
            p = load_problem(path).problem
            if isinstance(p, LagrangianProblem):
                out.append(pytest.param(p, id=os.path.relpath(path, REPO)))
    return out


def family_lagrangian(n, seed=1):
    """The seeded coupled conformal Lagrangian at n = 1..4: sum z_i*zb_i +
    c1*zb_i^2 + c2*z_i*zb_{i+1} under lam = sum c3*z_i*zb_i, with c1, c2,
    c3 and the starts drawn in the order the conformal-family benchmark
    draws them, so n = 3 is tests/data/conformal_family_L3.json."""
    rng = random.Random(seed)
    for k in range(1, n + 1):
        c1, c2, c3 = (round(rng.uniform(lo, hi), 3) for lo, hi in ((0.2, 0.4), (0.05, 0.15), (0.1, 0.3)))
        for _ in range(4 * k):  # the start's z and zb, two draws each
            rng.random()
    terms = [f"z{i}*zb{i}" for i in range(1, n + 1)] + [f"{c1!r}*zb{i}^2" for i in range(1, n + 1)]
    terms += [f"{c2!r}*z{i}*zb{i + 1}" for i in range(1, n)]
    lam = " + ".join(f"{c3!r}*z{i}*zb{i}" for i in range(1, n + 1))
    return " + ".join(terms), lam


def _quotient_rows(ode):
    memo = {}
    return [any(eom._holds_quotient(m, memo) for m in row) for row in ode.M]


class TestConformalRowRendering:
    """el_equation_texts expands a conformal row as one product; its text is
    the per-column expansion's, byte for byte."""

    @pytest.mark.parametrize("p", shipped_lagrangians())
    def test_every_shipped_lagrangian(self, p):
        ode = synthesize_el(p)
        assert el_equation_texts(ode) == per_column_el_equation_texts(ode)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_conformal_family(self, n):
        function, lam = family_lagrangian(n)
        chart = CoordinateChart(n)
        ode = synthesize_el(LagrangianProblem(chart, parse(function, chart), parse(lam, chart)))
        assert ode.conformal is not None and not any(_quotient_rows(ode))
        assert el_equation_texts(ode) == per_column_el_equation_texts(ode)

    def test_the_family_doc_at_n3_is_the_checked_in_one(self):
        with open(os.path.join(REPO, "tests", "data", "conformal_family_L3.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert (doc["function"], doc["lambda"]) == family_lagrangian(3)

    @pytest.mark.parametrize("function, lam, rows", [
        # only dL/dz1 holds the quotient, which lacks every other
        # variable: row B_1 column by column, the rest as one product each
        ("z1*zb1 + z2*zb2 + 0.3*zb1^2 + 0.1*z1*zb2 + 0.2*z1^2/(2.5 + z1^2)",
         "0.2*z1*zb1 + 0.1*z2*zb2", [False, False, True, False]),
        # only dL/dzb1 holds one: row A_1 column by column, the rest as one
        # product each
        ("z1*zb1 + z2*zb2 + 0.1*z1*zb2 + zb1*zb1/2.5", "0.2*z1*zb1 + 0.1*z2", [True, False, False, False]),
        # dL/dzb1 and dL/dz2 hold it: rows A_1 and B_2 column by column
        ("z1*zb1 + z2*zb2 + zb1*zb1/(2.5 + z2^2)", "sin(0.1*z2)", [True, False, False, True]),
    ])
    def test_a_row_with_a_quotient(self, function, lam, rows):
        ode = synthesize_el(LagrangianProblem(C2, parse(function, C2), parse(lam, C2)))
        assert ode.conformal is not None and _quotient_rows(ode) == rows
        assert el_equation_texts(ode) == per_column_el_equation_texts(ode)

    @pytest.mark.parametrize("chart, function, lam", [
        # g_1 = 0.1 + 0.2*z1 + 0.30000000000000004*z1^2 against c_1 = 1 +
        # z1 + z1^2: z1^2*xi1 gathers three g*c terms, whose sum is
        # 0.6000000000000001 in g's order and 0.6 in c's
        (C1, "zb1 + z1*zb1 + z1^2*zb1 + 0.3*zb1^2", "0.1*z1 + 0.1*z1^2 + 0.1*z1^3"),
        (C2, "(0.7+0.1*j)*zb1^2 + (0.3-0.3*j)*z2*zb2 + (0.7+0.3*j)*z2*zb1 + (0.1-0.2*j)*zb1"
             " + (1.1-0.1*j)*z1*zb1^2 + z1*zb1 + z2*zb2",
         "(0.1+0.6*j)*z1^2 + (1.1-0.2*j)*z1 + (1.1-0.2*j)*z1*zb1 + (1.1+0.6*j)*z1*z2"),
    ])
    def test_a_rate_of_lam_with_many_terms(self, chart, function, lam):
        ode = synthesize_el(LagrangianProblem(chart, parse(function, chart), parse(lam, chart)))
        assert ode.conformal is not None and not any(_quotient_rows(ode))
        assert el_equation_texts(ode) == per_column_el_equation_texts(ode)

    def test_seeded_lagrangians_with_mixed_coefficients(self):
        # several terms in each partial of lam and of L, with a+b*j
        # coefficients, so g*c products meet on one monomial
        rng = random.Random(1)

        def coeff():
            return f"({rng.choice([0.1, 0.2, 0.3, 0.7, 1.1])}{rng.choice('+-')}{rng.choice([0.1, 0.2, 0.3, 0.6])}*j)"

        monomials = ["z1*zb1", "z1^2*zb1", "zb1", "z1*zb1^2", "zb1^2", "z2*zb1", "z1*z2*zb1", "z2*zb2", "zb2^2*z1"]
        lam_monomials = ["z1", "z1^2", "z1^3", "z1*zb1", "z2", "z2^2", "z1*z2"]
        for _ in range(40):
            function = " + ".join(f"{coeff()}*{m}" for m in rng.sample(monomials, 5)) + " + z1*zb1 + z2*zb2"
            lam = " + ".join(f"{coeff()}*{m}" for m in rng.sample(lam_monomials, 4))
            ode = synthesize_el(LagrangianProblem(C2, parse(function, C2), parse(lam, C2)))
            assert el_equation_texts(ode) == per_column_el_equation_texts(ode), (function, lam)

    def test_the_checked_in_quotient_lagrangian(self):
        p = load_problem(os.path.join(REPO, "tests", "data", "conformal_quotient_lagrangian.json")).problem
        ode = synthesize_el(p)
        # its quotient lacks every variable but z1: only row B_1 holds it
        assert ode.conformal is not None and _quotient_rows(ode) == [False, False, True, False]
        assert el_equation_texts(ode) == per_column_el_equation_texts(ode)

    def test_the_quotient_scan_visits_each_node_object_once(self, monkeypatch):
        # M's entries share their exp(+-lam), lam's partials and L's partials
        function, lam = family_lagrangian(4)
        chart = CoordinateChart(4)
        ode = synthesize_el(LagrangianProblem(chart, parse(function, chart), parse(lam, chart)))
        visited = []

        def children_of(e):
            visited.append(id(e))
            return symbolic.children_of(e)

        monkeypatch.setattr(eom, "children_of", children_of)
        el_equation_texts(ode)
        nodes = [x for row in ode.M for m in row for x in walk(m)]
        distinct = {id(x) for x in nodes}
        assert sorted(visited) == sorted(distinct)
        assert len(nodes) > 4 * len(distinct)
