"""Synthesis output is unchanged by its shortcuts.

differentiate() leaves out terms whose derivative is the literal zero, and
synthesize_el() simplifies each first partial once for its whole row.  Both
are meant to save work only: these tests keep test-local copies of the
differentiate() and synthesize_el() row build they replaced and compare
synthesize_el, synthesize_ham and _identity_terms with them by repr, so a
-0.0 where 0.0 was, or a reordered term, fails.
"""

import glob
import os
import random

import pytest

from biparamech import eom
from biparamech.cli import load_problem
from biparamech.eom import HamiltonianProblem, LagrangianProblem
from biparamech.para_algebra import ParaComplex
from biparamech.symbolic import (
    Apply,
    Constant,
    CoordinateChart,
    J_EXPR,
    Negate,
    ONE_EXPR,
    Power,
    Product,
    Quotient,
    Sum,
    Var,
    ZERO_EXPR,
    parse,
    simplify,
    z_var,
    zb_var,
)
from biparamech.verify import random_expression

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "problems")


def reference_differentiate(e, var):
    """differentiate() as it was before it left out literal-zero terms."""
    if isinstance(e, Constant):
        return ZERO_EXPR
    if isinstance(e, Var):
        return ONE_EXPR if (e.family, e.index) == (var.family, var.index) else ZERO_EXPR
    if isinstance(e, Sum):
        return Sum(tuple(reference_differentiate(c, var) for c in e.children))
    if isinstance(e, Negate):
        return Negate(reference_differentiate(e.child, var))
    if isinstance(e, Product):
        terms = []
        for i in range(len(e.children)):
            factors = list(e.children)
            factors[i] = reference_differentiate(factors[i], var)
            terms.append(Product(tuple(factors)))
        return Sum(tuple(terms))
    if isinstance(e, Power):
        db = reference_differentiate(e.base, var)
        k = Constant(ParaComplex(float(e.exponent), 0.0))
        if e.exponent == 1:
            return db
        if e.exponent - 1 == 1:
            return Product((k, e.base, db))
        return Product((k, Power(e.base, e.exponent - 1), db))
    if isinstance(e, Quotient):
        dn = reference_differentiate(e.num, var)
        dd = reference_differentiate(e.den, var)
        num = Sum((Product((dn, e.den)), Negate(Product((e.num, dd)))))
        return Quotient(num, Power(e.den, 2))
    if isinstance(e, Apply):
        da = reference_differentiate(e.arg, var)
        if e.fn == "exp":
            return Product((e, da))
        if e.fn == "ln":
            return Quotient(da, e.arg)
        if e.fn == "sin":
            return Product((Apply("cos", e.arg), da))
        if e.fn == "cos":
            return Negate(Product((Apply("sin", e.arg), da)))
    raise TypeError(f"not an expression node: {e!r}")


def reference_synthesize_el(p):
    """synthesize_el's row build as it was: every entry simplifies the raw
    first partial again.  The caller patches eom.differentiate, which
    _lam_rate_terms uses, to the reference one."""
    ep, em = eom._exp_of(p.lam), eom._exp_neg(p.lam)
    lam_cols = eom._lam_rate_terms(p.lam, p.chart)
    d = reference_differentiate

    def columns(of):
        return [d(of, z_var(k)) for k in p.chart.indices()] + [
            d(of, zb_var(k)) for k in p.chart.indices()
        ]

    M, b = [], []
    for i in p.chart.indices():
        Lzb = d(p.L, zb_var(i))
        row = []
        for c, lam_c in zip(columns(Lzb), lam_cols):
            row.append(simplify(Product((J_EXPR, ep, Sum((c, Product((lam_c, Lzb))))))))
        M.append(tuple(row))
        b.append(simplify(Negate(d(p.L, z_var(i)))))
    for i in p.chart.indices():
        Lz = d(p.L, z_var(i))
        row = []
        for c, lam_c in zip(columns(Lz), lam_cols):
            row.append(simplify(Product((J_EXPR, em, Sum((c, Negate(Product((lam_c, Lz)))))))))
        M.append(tuple(row))
        b.append(simplify(d(p.L, zb_var(i))))
    return eom.ImplicitODE(p.chart, tuple(M), tuple(b))


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the same error, by class and message, is the same outcome
        return f"{type(exc).__name__}: {exc}"


def _reference_outcomes(monkeypatch, L, lam, chart):
    lp, hp = LagrangianProblem(chart, L, lam), HamiltonianProblem(chart, L, lam)
    with monkeypatch.context() as m:
        m.setattr(eom, "differentiate", reference_differentiate)
        return (
            _outcome(reference_synthesize_el, lp),
            _outcome(eom.synthesize_ham.__wrapped__, hp),
            _outcome(eom._identity_terms.__wrapped__, lp),
        )


def _outcomes(L, lam, chart):
    lp, hp = LagrangianProblem(chart, L, lam), HamiltonianProblem(chart, L, lam)
    return (
        _outcome(eom.synthesize_el.__wrapped__, lp),
        _outcome(eom.synthesize_ham.__wrapped__, hp),
        _outcome(eom._identity_terms.__wrapped__, lp),
    )


def _assert_same(monkeypatch, L, lam, chart):
    got = _outcomes(L, lam, chart)
    want = _reference_outcomes(monkeypatch, L, lam, chart)
    for what, g, w in zip(("synthesize_el", "synthesize_ham", "_identity_terms"), got, want):
        assert g == w, f"{what} differs for L = {L!r}, lam = {lam!r}"


SHIPPED = sorted(glob.glob(os.path.join(PROBLEMS, "*.json"))) + sorted(
    glob.glob(os.path.join(PROBLEMS, "failing", "*.json"))
)


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_problems(monkeypatch, path):
    p = load_problem(path).problem
    f = p.L if isinstance(p, LagrangianProblem) else p.H
    _assert_same(monkeypatch, f, p.lam, p.chart)


def _family(n, c1=0.31, c2=0.097, c3=0.213):
    """sum z_i*zb_i + c1*zb_i^2 + c2*z_i*zb_{i+1}, lam = c3*sum z_i*zb_i."""
    chart = CoordinateChart(n)
    terms = [f"z{i}*zb{i}" for i in range(1, n + 1)]
    terms += [f"{c1!r}*zb{i}^2" for i in range(1, n + 1)]
    terms += [f"{c2!r}*z{i}*zb{i + 1}" for i in range(1, n)]
    lam = " + ".join(f"{c3!r}*z{i}*zb{i}" for i in range(1, n + 1))
    return parse(" + ".join(terms), chart), parse(lam, chart), chart


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conformal_family(monkeypatch, n):
    _assert_same(monkeypatch, *_family(n))


@pytest.mark.parametrize("block", range(4))
def test_random_problems(monkeypatch, block):
    # 4 blocks x 40 seeds x (no lam, a random lam) = 320 problems; depth 2,
    # since at depth 3 nested quotients make some synthesis run for minutes
    chart = CoordinateChart(2)
    for seed in range(block * 40, (block + 1) * 40):
        rng = random.Random(seed)
        L = random_expression(rng, depth=2)
        lam = random_expression(rng, depth=2)
        _assert_same(monkeypatch, L, ZERO_EXPR, chart)
        _assert_same(monkeypatch, L, lam, chart)
