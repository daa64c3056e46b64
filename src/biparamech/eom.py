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

from dataclasses import dataclass, field
from functools import lru_cache

from .para_algebra import ONE, ZERO, ParaComplex
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
    as_expr,
    differentiate,
    evaluate,
    is_zero,
    simplify,
    to_text,
    vars_of,
    xi_var,
    xib_var,
    z_var,
    zb_var,
)


class DegenerateLagrangian(RuntimeError):
    """The implicit Euler-Lagrange system has a singular coefficient matrix."""

    def __init__(self, message: str = "degenerate Lagrangian", t: float | None = None):
        self.t = t
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)


class SingularDenominator(RuntimeError):
    """A conformal denominator (D+ or D-) hit the zero-divisor cone."""

    def __init__(self, which: str, t: float | None = None):
        self.which = which
        self.t = t
        message = f"singular denominator {which}"
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)


def _check_chart_vars(e: Expr, chart: CoordinateChart, what: str) -> None:
    for family, index in vars_of(e):
        if family not in ("z", "zb"):
            raise ExpressionError(f"{what} may not contain {family}{index}")
        if index > chart.n:
            raise ExpressionError(
                f"{what} uses {family}{index} but the chart has n={chart.n}"
            )


@dataclass(frozen=True)
class LagrangianProblem:
    chart: CoordinateChart
    L: Expr
    lam: Expr = ZERO_EXPR

    def __post_init__(self) -> None:
        _check_chart_vars(self.L, self.chart, "the Lagrangian")
        _check_chart_vars(self.lam, self.chart, "the conformal factor")


@dataclass(frozen=True)
class HamiltonianProblem:
    chart: CoordinateChart
    H: Expr
    lam: Expr = ZERO_EXPR

    def __post_init__(self) -> None:
        _check_chart_vars(self.H, self.chart, "the Hamiltonian")
        _check_chart_vars(self.lam, self.chart, "the conformal factor")


@dataclass(frozen=True)
class Semispray:
    """Velocity data: the i-th entries stand for dz_i/dt and dzb_i/dt."""

    xi: tuple
    xib: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", tuple(as_expr(x) for x in self.xi))
        object.__setattr__(self, "xib", tuple(as_expr(x) for x in self.xib))
        if len(self.xi) != len(self.xib):
            raise ValueError("xi and xib must have equal length")


@dataclass(frozen=True)
class OneForm:
    chart: CoordinateChart
    coeff_dz: tuple
    coeff_dzb: tuple

    def __post_init__(self) -> None:
        if len(self.coeff_dz) != self.chart.n or len(self.coeff_dzb) != self.chart.n:
            raise ValueError("coefficient arrays must have length n")


# Basis covectors are named by (family, index) tokens; a wedge monomial is a
# tuple of tokens in canonical order (all dz before dzb, indices ascending).
Token = tuple[str, int]


def _token_rank(tok: Token) -> tuple[int, int]:
    family, index = tok
    return (0 if family == "z" else 1, index)


def _canonical_wedge(tokens: tuple) -> tuple[int, tuple]:
    """Sort a wedge monomial, tracking the permutation sign.

    Returns (0, ()) when a covector repeats (the monomial vanishes).
    """
    toks = list(tokens)
    sign = 1
    for i in range(1, len(toks)):
        k = i
        while k > 0 and _token_rank(toks[k - 1]) > _token_rank(toks[k]):
            toks[k - 1], toks[k] = toks[k], toks[k - 1]
            sign = -sign
            k -= 1
    for i in range(1, len(toks)):
        if toks[i] == toks[i - 1]:
            return 0, ()
    return sign, tuple(toks)


@dataclass
class TwoForm:
    chart: CoordinateChart
    coeff: dict = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.coeff


def _all_tokens(chart: CoordinateChart) -> list[Token]:
    return [("z", i) for i in chart.indices()] + [("zb", i) for i in chart.indices()]


def exterior_derivative(terms: dict, chart: CoordinateChart) -> dict:
    """Formal d on a k-form given as {wedge-monomial tuple: Expr}."""
    out: dict = {}
    for key, coeff in terms.items():
        for tok in _all_tokens(chart):
            partial = simplify(differentiate(coeff, Var(tok[0], tok[1])))
            if is_zero(partial):
                continue
            sign, canon = _canonical_wedge((tok,) + tuple(key))
            if sign == 0:
                continue
            piece = partial if sign > 0 else Negate(partial)
            out[canon] = piece if canon not in out else Sum((out[canon], piece))
    cleaned = {}
    for key in sorted(out, key=lambda k: tuple(_token_rank(t) for t in k)):
        c = simplify(out[key])
        if not is_zero(c):
            cleaned[key] = c
    return cleaned


def _one_form_terms(w: OneForm) -> dict:
    terms: dict = {}
    for i in w.chart.indices():
        for family, coeff in (("z", w.coeff_dz[i - 1]), ("zb", w.coeff_dzb[i - 1])):
            if not is_zero(coeff):
                terms[((family, i),)] = coeff
    return terms


def _neg_d_of_one_form(w: OneForm) -> TwoForm:
    d = exterior_derivative(_one_form_terms(w), w.chart)
    coeff = {}
    for key, c in d.items():
        neg = simplify(Negate(c))
        if not is_zero(neg):
            coeff[key] = neg
    return TwoForm(w.chart, coeff)


def _exp_of(lam: Expr) -> Expr:
    return simplify(Apply("exp", lam))


def _exp_neg(lam: Expr) -> Expr:
    return simplify(Apply("exp", Negate(lam)))


def vertical_differential(p: LagrangianProblem) -> OneForm:
    """One-form whose time derivative drives the Euler-Lagrange rows.

    Coefficient of dz_i is -j*exp(lam)*dL/dzb_i; of dzb_i it is
    +j*exp(-lam)*dL/dz_i.
    """
    ep, em = _exp_of(p.lam), _exp_neg(p.lam)
    coeff_dz = []
    coeff_dzb = []
    for i in p.chart.indices():
        coeff_dz.append(simplify(Negate(Product((J_EXPR, ep, differentiate(p.L, zb_var(i)))))))
        coeff_dzb.append(simplify(Product((J_EXPR, em, differentiate(p.L, z_var(i))))))
    return OneForm(p.chart, tuple(coeff_dz), tuple(coeff_dzb))


def lagrangian_two_form(p: LagrangianProblem) -> TwoForm:
    """Negated exterior derivative of the vertical differential."""
    return _neg_d_of_one_form(vertical_differential(p))


def energy(p: LagrangianProblem) -> Expr:
    """Energy on the velocity phase: formal xi/xib variables stand for the
    velocities, so the result has 4n variables."""
    ep, em = _exp_of(p.lam), _exp_neg(p.lam)
    terms = []
    for i in p.chart.indices():
        terms.append(
            Negate(Product((J_EXPR, xi_var(i), ep, differentiate(p.L, zb_var(i)))))
        )
        terms.append(Product((J_EXPR, xib_var(i), em, differentiate(p.L, z_var(i)))))
    terms.append(Negate(p.L))
    return simplify(Sum(tuple(terms)))


_HALF = Constant(ParaComplex(0.5, 0.0))


@dataclass(frozen=True)
class ImplicitODE:
    """M*(xi1..xin, xib1..xibn) = b with coefficient entries free of xi."""

    chart: CoordinateChart
    M: tuple
    b: tuple


@dataclass(frozen=True)
class ExplicitODE:
    chart: CoordinateChart
    rhs_z: tuple
    rhs_zb: tuple
    # denominators kept separately so integrators can name the singular one
    denom_plus: Expr
    denom_minus: Expr


def _lam_rate_terms(lam: Expr, chart: CoordinateChart) -> tuple:
    """Partials of lam in unknown order (z1..zn, zb1..zbn)."""
    cols = []
    for k in chart.indices():
        cols.append(simplify(differentiate(lam, z_var(k))))
    for k in chart.indices():
        cols.append(simplify(differentiate(lam, zb_var(k))))
    return tuple(cols)


@lru_cache(maxsize=128)
def synthesize_el(p: LagrangianProblem) -> ImplicitODE:
    """Expand the Euler-Lagrange rows by the chain rule into M*(xi,xib)=b.

    Row A_i carries j*exp(lam) against the dzb_i-partials of L, row B_i
    carries j*exp(-lam) against the dz_i-partials; the conformal factor
    contributes rate-of-lam terms, and the xi-free partial of L moves to
    the right-hand side.
    """
    n = p.chart.n
    ep, em = _exp_of(p.lam), _exp_neg(p.lam)
    lam_cols = _lam_rate_terms(p.lam, p.chart)

    def columns(of: Expr) -> list:
        cols = []
        for k in p.chart.indices():
            cols.append(differentiate(of, z_var(k)))
        for k in p.chart.indices():
            cols.append(differentiate(of, zb_var(k)))
        return cols

    M: list = []
    b: list = []
    for i in p.chart.indices():
        Lzb = differentiate(p.L, zb_var(i))
        row = []
        for c, lam_c in zip(columns(Lzb), lam_cols):
            entry = Product((J_EXPR, ep, Sum((c, Product((lam_c, Lzb))))))
            row.append(simplify(entry))
        M.append(tuple(row))
        b.append(simplify(Negate(differentiate(p.L, z_var(i)))))
    for i in p.chart.indices():
        Lz = differentiate(p.L, z_var(i))
        row = []
        for c, lam_c in zip(columns(Lz), lam_cols):
            entry = Product((J_EXPR, em, Sum((c, Negate(Product((lam_c, Lz)))))))
            row.append(simplify(entry))
        M.append(tuple(row))
        b.append(simplify(differentiate(p.L, zb_var(i))))
    return ImplicitODE(p.chart, tuple(M), tuple(b))


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
    return ExplicitODE(p.chart, tuple(rhs_z), tuple(rhs_zb), d_plus, d_minus)


@lru_cache(maxsize=128)
def _identity_terms(p: LagrangianProblem) -> tuple[tuple, tuple]:
    """The pieces of i_X omega_L = dE_L that do not depend on the state.

    Returns omega_L's coefficients as (a, b, w) for w*dq_a^dq_b, and the
    2n partials of E_L, both indexed in the order z1..zn, zb1..zbn.
    Built once per problem, like synthesize_el, and kept in tuples because
    the TwoForm that lagrangian_two_form returns is mutable.
    """
    tokens = _all_tokens(p.chart)
    omega = tuple(
        (tokens.index(a), tokens.index(b), w)
        for (a, b), w in lagrangian_two_form(p).coeff.items()
    )
    e = energy(p)
    dE = tuple(simplify(differentiate(e, Var(f, i))) for f, i in tokens)
    return omega, dE


def audit_lagrange(p: LagrangianProblem, s: EvalState, xi: Semispray) -> float:
    """Worst coefficient of i_X omega_L - dE_L, with E_L's velocities set to X.

    X is the velocity data (dz_i/dt, dzb_i/dt).  The identity is the paper's
    form of the Euler-Lagrange law, and it is evaluated from the two-form and
    the energy alone: neither synthesize_el's M and b nor the compiled
    closures enter, so this audit and el_rhs can disagree when either is
    wrong.
    """
    n = p.chart.n
    omega, dE = _identity_terms(p)
    X = tuple(evaluate(x, s) for x in xi.xi + xi.xib)
    # i_X (w dq_a^dq_b) = w*X_a dq_b - w*X_b dq_a
    contraction = [ZERO] * (2 * n)
    for a, b, w in omega:
        w_val = evaluate(w, s)
        contraction[b] = contraction[b] + w_val * X[a]
        contraction[a] = contraction[a] - w_val * X[b]
    full = EvalState(z=s.z, zb=s.zb, xi=X[:n], xib=X[n:])
    return max(abs(c - evaluate(d, full)) for c, d in zip(contraction, dE))


def _denominator_values(p: HamiltonianProblem, s: EvalState) -> tuple[ParaComplex, ParaComplex]:
    acc = ZERO
    for i in p.chart.indices():
        acc = acc + evaluate(Var("z", i), s) * evaluate(differentiate(p.lam, z_var(i)), s)
        acc = acc + evaluate(Var("zb", i), s) * evaluate(differentiate(p.lam, zb_var(i)), s)
    half = ParaComplex(0.5, 0.0) * evaluate(p.lam, s).exp() * acc
    one = ONE
    return one + half, one - half


def audit_hamilton(p: HamiltonianProblem, s: EvalState, t: float | None = None) -> float:
    """Check the synthesized flow against the pairing it must satisfy.

    The dz_i bracket must reproduce dH/dz_i and the dzb_i bracket dH/dzb_i;
    the denominators are recomputed here from lam's partials rather than
    taken from the ExplicitODE.
    """
    d_plus, d_minus = _denominator_values(p, s)
    if not d_plus.invertible:
        raise SingularDenominator("D+", t)
    if not d_minus.invertible:
        raise SingularDenominator("D-", t)
    ode = synthesize_ham(p)
    j = ParaComplex(0.0, 1.0)
    worst = 0.0
    for i in p.chart.indices():
        Z_i = evaluate(ode.rhs_z[i - 1], s)
        Zb_i = evaluate(ode.rhs_zb[i - 1], s)
        Hz = evaluate(differentiate(p.H, z_var(i)), s)
        Hzb = evaluate(differentiate(p.H, zb_var(i)), s)
        r_dz = j * d_minus * Zb_i - Hz
        r_dzb = -j * d_plus * Z_i - Hzb
        worst = max(worst, abs(r_dz), abs(r_dzb))
    return worst


def el_equation_texts(ode: ImplicitODE) -> list[str]:
    """Render each implicit row as '<lhs> = <rhs>' with xi/xib unknowns."""
    n = ode.chart.n
    unknowns = [xi_var(i) for i in ode.chart.indices()] + [
        xib_var(i) for i in ode.chart.indices()
    ]
    lines = []
    for r in range(2 * n):
        lhs = simplify(Sum(tuple(Product((ode.M[r][c], unknowns[c])) for c in range(2 * n))))
        lines.append(f"{to_text(lhs)} = {to_text(ode.b[r])}")
    return lines


def ham_equation_texts(ode: ExplicitODE) -> list[str]:
    lines = []
    for i in ode.chart.indices():
        lines.append(f"dz{i}/dt = {to_text(ode.rhs_z[i - 1])}")
    for i in ode.chart.indices():
        lines.append(f"dzb{i}/dt = {to_text(ode.rhs_zb[i - 1])}")
    return lines
