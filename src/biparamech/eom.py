"""Synthesis of conformal bi-para mechanics.

Given a scalar function over para-complex coordinates and a conformal
factor, this module produces the equations of motion in two shapes: an
implicit linear system for the Lagrangian side and explicit right-hand
sides for the Hamiltonian side.  It also builds the Lagrangian geometry
(the vertical differential theta, the two-form omega_L = -d(theta) and
the energy E_L) that the Lagrangian audit checks a flow against.

The audit functions re-evaluate the governing equations without going
through the matrix assembly, so that errors in the synthesis path cannot
hide: audit_lagrange checks the two-form identity i_X omega_L = dE_L, and
audit_hamilton checks the Hamilton pairing with its denominators
recomputed from lam.
"""

from __future__ import annotations

from functools import lru_cache

from .para_algebra import INVERTIBILITY_FLOOR, ParaComplex, ValueType, _exp_leg
from .symbolic import (
    Apply,
    Constant,
    CoordinateChart,
    EvalState,
    Expr,
    ExpressionError,
    J_EXPR,
    Negate,
    ONE_EXPR,
    Product,
    Quotient,
    Sum,
    Var,
    ZERO_EXPR,
    _eval_pair,
    differentiate,
    evaluate,  # not called here; benchmark/layers.py wraps eom.evaluate
    is_zero,
    simplify,
    to_text,
    vars_of,
    xi_var,
    xib_var,
    z_var,
    zb_var,
)


class _AtTime(RuntimeError):
    """A failure whose message is detail put into the class's form, followed
    by " at t=..." when it happened at a time t."""

    form = "{}"

    def __init__(self, detail: str, t: float | None = None):
        self.detail, self.t = detail, t
        message = self.form.format(detail)
        super().__init__(message if t is None else f"{message} at t={t!r}")


class DegenerateLagrangian(_AtTime):
    """The implicit Euler-Lagrange system has a singular coefficient matrix."""


class SingularDenominator(_AtTime):
    """A conformal denominator, which is D+ or D-, hit the zero-divisor cone."""

    form = "singular denominator {}"
    which = property(lambda self: self.detail)


def _check_chart_vars(e: Expr, chart: CoordinateChart, what: str) -> None:
    for family, index in vars_of(e):
        if family not in ("z", "zb"):
            raise ExpressionError(f"{what} may not contain {family}{index}")
        if index > chart.n:
            raise ExpressionError(
                f"{what} uses {family}{index} but the chart has n={chart.n}"
            )


class LagrangianProblem(ValueType):
    _fields = ("chart", "L", "lam")

    def __init__(self, chart: CoordinateChart, L: Expr, lam: Expr = ZERO_EXPR) -> None:
        _check_chart_vars(L, chart, "the Lagrangian")
        _check_chart_vars(lam, chart, "the conformal factor")
        d = self.__dict__
        d["chart"] = chart
        d["L"] = L
        d["lam"] = lam


class HamiltonianProblem(ValueType):
    _fields = ("chart", "H", "lam")

    def __init__(self, chart: CoordinateChart, H: Expr, lam: Expr = ZERO_EXPR) -> None:
        _check_chart_vars(H, chart, "the Hamiltonian")
        _check_chart_vars(lam, chart, "the conformal factor")
        d = self.__dict__
        d["chart"] = chart
        d["H"] = H
        d["lam"] = lam


def _exp_of(lam: Expr) -> Expr:
    return simplify(Apply("exp", lam))


def vertical_differential(p: LagrangianProblem) -> tuple:
    """theta, the one-form whose time derivative drives the Euler-Lagrange
    rows, as its 2n coefficients in slot order.

    Coefficient of dz_i is -j*exp(lam)*dL/dzb_i; of dzb_i it is
    +j*exp(-lam)*dL/dz_i.
    """
    ep, em = _exp_of(p.lam), _exp_of(Negate(p.lam))
    coeff_dz = []
    coeff_dzb = []
    for i in p.chart.indices():
        coeff_dz.append(simplify(Negate(Product((J_EXPR, ep, differentiate(p.L, zb_var(i)))))))
        coeff_dzb.append(simplify(Product((J_EXPR, em, differentiate(p.L, z_var(i))))))
    return tuple(coeff_dz + coeff_dzb)


def lagrangian_two_form(p: LagrangianProblem) -> tuple:
    """omega_L = -d(theta) as (a, b, w) for w*dq_a^dq_b, with slot indices
    a < b in slot order: w is -(d_a theta_b - d_b theta_a); zero
    coefficients are left out."""
    theta = vertical_differential(p)
    slots = p.chart.slots()
    omega = []
    for ia, a in enumerate(slots):
        for ib in range(ia + 1, len(slots)):
            b = slots[ib]
            plus = simplify(differentiate(theta[ib], Var(*a)))
            minus = simplify(differentiate(theta[ia], Var(*b)))
            pieces = [] if is_zero(plus) else [plus]
            if not is_zero(minus):
                pieces.append(Negate(minus))
            if pieces:
                d = simplify(pieces[0] if len(pieces) == 1 else Sum(tuple(pieces)))
                neg = simplify(Negate(d))
                if not is_zero(neg):
                    omega.append((ia, ib, neg))
    return tuple(omega)


def energy(p: LagrangianProblem) -> Expr:
    """Energy on the velocity phase: formal xi/xib variables stand for the
    velocities, so the result has 4n variables."""
    ep, em = _exp_of(p.lam), _exp_of(Negate(p.lam))
    terms = []
    for i in p.chart.indices():
        terms.append(
            Negate(Product((J_EXPR, xi_var(i), ep, differentiate(p.L, zb_var(i)))))
        )
        terms.append(Product((J_EXPR, xib_var(i), em, differentiate(p.L, z_var(i)))))
    terms.append(Negate(p.L))
    return simplify(Sum(tuple(terms)))


_HALF = Constant(ParaComplex(0.5, 0.0))


class ImplicitODE(ValueType):
    """M*(xi1..xin, xib1..xibn) = b with coefficient entries free of xi.

    conformal is synthesize_el's record (H, grad(lam), exp(lam), exp(-lam))
    of M = j*diag(exp(lam) I_n, exp(-lam) I_n)*(H + c*grad(lam)^T), with
    c = (b[n:], b[:n]), for a lam that is not constant; None otherwise."""

    _fields = ("chart", "M", "b", "conformal")

    def __init__(self, chart: CoordinateChart, M: tuple, b: tuple, conformal: tuple | None = None) -> None:
        d = self.__dict__
        d["chart"] = chart
        d["M"] = M
        d["b"] = b
        d["conformal"] = conformal


class ExplicitODE(ValueType):
    _fields = ("chart", "rhs_z", "rhs_zb", "denom_plus", "denom_minus")

    def __init__(
        self,
        chart: CoordinateChart,
        rhs_z: tuple,
        rhs_zb: tuple,
        # denominators kept separately so integrators can name the singular one
        denom_plus: Expr,
        denom_minus: Expr,
    ) -> None:
        d = self.__dict__
        d["chart"] = chart
        d["rhs_z"] = rhs_z
        d["rhs_zb"] = rhs_zb
        d["denom_plus"] = denom_plus
        d["denom_minus"] = denom_minus


def _lam_rate_terms(lam: Expr, chart: CoordinateChart) -> tuple:
    """Partials of lam in unknown order (z1..zn, zb1..zbn)."""
    return tuple(simplify(differentiate(lam, Var(*slot))) for slot in chart.slots())


@lru_cache(maxsize=128)
def synthesize_el(p: LagrangianProblem) -> ImplicitODE:
    """Expand the Euler-Lagrange rows by the chain rule into M*(xi,xib)=b.

    Row A_i carries j*exp(lam) against the dzb_i-partials of L, row B_i
    carries j*exp(-lam) against the dz_i-partials; the conformal factor
    contributes rate-of-lam terms, and the xi-free partial of L moves to
    the right-hand side.  The entries are the chain rule's trees, which
    el_equation_texts expands and lower() folds; each first partial of L
    is one object in its row's 2n entries and in b, and an entry whose
    rate of lam is ZERO_EXPR is j*exp(+-lam)*H_ik alone.  For a lam that is
    not constant, the system records its conformal split (ImplicitODE).
    """
    ep, em = _exp_of(p.lam), _exp_of(Negate(p.lam))
    lam_cols = _lam_rate_terms(p.lam, p.chart)
    wrt = [Var(*slot) for slot in p.chart.slots()]
    lzb = [differentiate(p.L, zb_var(i)) for i in p.chart.indices()]
    lz = [differentiate(p.L, z_var(i)) for i in p.chart.indices()]
    H = tuple(tuple(differentiate(d, v) for v in wrt) for d in lzb + lz)
    M = [
        tuple(Product((J_EXPR, ep, h if lam_c is ZERO_EXPR else Sum((h, Product((lam_c, d))))))
              for h, lam_c in zip(row, lam_cols))
        for row, d in zip(H, lzb)
    ] + [
        tuple(Product((J_EXPR, em, h if lam_c is ZERO_EXPR else Sum((h, Negate(Product((lam_c, d)))))))
              for h, lam_c in zip(row, lam_cols))
        for row, d in zip(H[len(lzb):], lz)
    ]
    b = [Negate(d) for d in lz] + lzb
    # an overflowing constant in L is an input error even where every term
    # that holds it differentiates to zero
    simplify(p.L)
    conformal = (H, lam_cols, ep, em) if isinstance(ep, Apply) else None
    return ImplicitODE(p.chart, tuple(M), tuple(b), conformal)


@lru_cache(maxsize=128)
def synthesize_ham(p: HamiltonianProblem) -> ExplicitODE:
    """Explicit Hamilton right-hand sides with conformal denominators.

    S sums z_i*dlam/dz_i + zb_i*dlam/dzb_i over the chart; the
    denominators are D(+,-) = 1 +/- (1/2)*exp(lam)*S.
    """
    s_terms = []
    for i in p.chart.indices():
        s_terms.append(Product((z_var(i), differentiate(p.lam, z_var(i)))))
        s_terms.append(Product((zb_var(i), differentiate(p.lam, zb_var(i)))))
    S = simplify(Sum(tuple(s_terms)))
    half_scaled = Product((_HALF, _exp_of(p.lam), S))
    d_plus = simplify(Sum((ONE_EXPR, half_scaled)))
    d_minus = simplify(Sum((ONE_EXPR, Negate(half_scaled))))
    rhs_z = []
    rhs_zb = []
    for i in p.chart.indices():
        rhs_z.append(
            simplify(Quotient(Negate(Product((J_EXPR, differentiate(p.H, zb_var(i))))), d_plus))
        )
        rhs_zb.append(
            simplify(Quotient(Product((J_EXPR, differentiate(p.H, z_var(i)))), d_minus))
        )
    simplify(p.H)  # as in synthesize_el
    return ExplicitODE(p.chart, tuple(rhs_z), tuple(rhs_zb), d_plus, d_minus)


@lru_cache(maxsize=128)
def _identity_terms(p: LagrangianProblem) -> tuple[tuple, tuple]:
    """The pieces of i_X omega_L = dE_L that do not depend on the state.

    Returns omega_L as lagrangian_two_form gives it, and the 2n partials of
    E_L in slot order.  Built once per problem, like synthesize_el.
    """
    omega = lagrangian_two_form(p)
    e = energy(p)
    dE = tuple(simplify(differentiate(e, Var(*slot))) for slot in p.chart.slots())
    return omega, dE


def audit_lagrange(p: LagrangianProblem, s: EvalState, X: tuple) -> float:
    """Worst coefficient of i_X omega_L - dE_L, with E_L's velocities set to X.

    X holds the 2n velocities dz_i/dt, then dzb_i/dt, as ParaComplex values:
    dz + dzb as at_state returns them.  The identity is the paper's form of
    the Euler-Lagrange law, and it is evaluated from the two-form and the
    energy alone, on the legs the interpreter _eval_pair gives: neither
    synthesize_el's M and b nor the lowered code of symbolic.lower enter,
    so this audit and the right-hand side make_el_rhs builds can disagree
    when either is wrong.  The algebra is componentwise on the legs, so
    the residual is the one ParaComplex arithmetic gives, bit for bit.
    """
    n = p.chart.n
    omega, dE = _identity_terms(p)
    xu = [x.u for x in X]
    xv = [x.v for x in X]
    # i_X (w dq_a^dq_b) = w*X_a dq_b - w*X_b dq_a
    cu = [0.0] * (2 * n)
    cv = [0.0] * (2 * n)
    for a, b, w in omega:
        wu, wv = _eval_pair(w, s)
        cu[b] += wu * xu[a]
        cv[b] += wv * xv[a]
        cu[a] -= wu * xu[b]
        cv[a] -= wv * xv[b]
    full = EvalState(z=s.z, zb=s.zb, xi=X[:n], xib=X[n:])
    return max(
        max(abs(u - du), abs(v - dv))
        for u, v, (du, dv) in zip(cu, cv, (_eval_pair(d, full) for d in dE))
    )


@lru_cache(maxsize=128)
def _hamilton_terms(p: HamiltonianProblem) -> tuple:
    """The pieces of audit_hamilton that do not depend on the state.

    One tuple per index i = 1..n: dlam/dz_i, dlam/dzb_i, dH/dz_i, dH/dzb_i
    as differentiate returns them, and the synthesized dz_i/dt, dzb_i/dt.
    Built once per problem, like _identity_terms.
    """
    ode = synthesize_ham(p)
    return tuple(
        (
            differentiate(p.lam, z_var(i)),
            differentiate(p.lam, zb_var(i)),
            differentiate(p.H, z_var(i)),
            differentiate(p.H, zb_var(i)),
            ode.rhs_z[i - 1],
            ode.rhs_zb[i - 1],
        )
        for i in p.chart.indices()
    )


def _denominator_values(
    p: HamiltonianProblem, terms: tuple, s: EvalState
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The legs (u, v) of D+ and of D- at s, from lam and its partials."""
    acc_u = acc_v = 0.0
    for i, (lam_z, lam_zb, *_) in zip(p.chart.indices(), terms):
        for var, lam_var in ((z_var(i), lam_z), (zb_var(i), lam_zb)):
            wu, wv = _eval_pair(var, s)
            lu, lv = _eval_pair(lam_var, s)
            acc_u += wu * lu
            acc_v += wv * lv
    lu, lv = _eval_pair(p.lam, s)
    half_u = 0.5 * _exp_leg(lu) * acc_u
    half_v = 0.5 * _exp_leg(lv) * acc_v
    return (1.0 + half_u, 1.0 + half_v), (1.0 - half_u, 1.0 - half_v)


def audit_hamilton(p: HamiltonianProblem, s: EvalState) -> float:
    """Check the synthesized flow against the pairing it must satisfy.

    The dz_i bracket must reproduce dH/dz_i and the dzb_i bracket dH/dzb_i;
    the denominators are recomputed here from lam's partials rather than
    taken from the ExplicitODE.
    """
    terms = _hamilton_terms(p)
    d_plus, d_minus = _denominator_values(p, terms, s)
    for name, (u, v) in (("D+", d_plus), ("D-", d_minus)):
        if not (abs(u) >= INVERTIBILITY_FLOOR and abs(v) >= INVERTIBILITY_FLOOR):
            raise SingularDenominator(name)
    (pu, pv), (mu, mv) = d_plus, d_minus
    worst = 0.0
    for *_, h_z, h_zb, rhs_z, rhs_zb in terms:
        zu, zv = _eval_pair(rhs_z, s)
        zbu, zbv = _eval_pair(rhs_zb, s)
        hzu, hzv = _eval_pair(h_z, s)
        hzbu, hzbv = _eval_pair(h_zb, s)
        # j has legs (1, -1): j*D-*Zb_i - dH/dz_i and -j*D+*Z_i - dH/dzb_i,
        # each measured as max(|u|, |v|)
        r_dz = max(abs(mu * zbu - hzu), abs(-mv * zbv - hzv))
        r_dzb = max(abs(-pu * zu - hzbu), abs(pv * zv - hzbv))
        worst = max(worst, r_dz, r_dzb)
    return worst


def el_equation_texts(ode: ImplicitODE) -> list[str]:
    """Render each implicit row as '<lhs> = <rhs>' with xi/xib unknowns."""
    unknowns = [xi_var(i) for i in ode.chart.indices()] + [
        xib_var(i) for i in ode.chart.indices()
    ]
    lines = []
    for row, rhs in zip(ode.M, ode.b):
        lhs = simplify(Sum(tuple(Product((m, x)) for m, x in zip(row, unknowns))))
        lines.append(f"{to_text(lhs)} = {to_text(simplify(rhs))}")
    return lines


def ham_equation_texts(ode: ExplicitODE) -> list[str]:
    lines = []
    for i in ode.chart.indices():
        lines.append(f"dz{i}/dt = {to_text(ode.rhs_z[i - 1])}")
    for i in ode.chart.indices():
        lines.append(f"dzb{i}/dt = {to_text(ode.rhs_zb[i - 1])}")
    return lines
