"""Invariant suites and line-oriented reports.

Every identity the algebra relies on has a check here, and the two equation
synthesizers are cross-examined against deliberately duplicated classical
baselines.  All randomness flows from one integer seed so a report renders
bit-identically across runs.
"""

from __future__ import annotations

import math
import random

from .dynamics import (_TIMED_ERRORS, IntegratorConfig, PhaseState, StepFailure, at_state, energy_along,
                       integrate, make_el_rhs, make_ham_rhs)
from .eom import (
    DegenerateLagrangian,
    HamiltonianProblem,
    LagrangianProblem,
    _sup,
    audit_hamilton,
    audit_lagrange,
    synthesize_el,
    synthesize_ham,
)
from .para_algebra import (
    E_MINUS,
    E_PLUS,
    J,
    ONE,
    ZERO,
    Basis,
    DomainError,
    FrameVector,
    ParaComplex,
    StructureKind,
    ValueType,
    ZeroDivisor,
    _from_legs,
    _make,
    structure_apply,
)
from .symbolic import (
    Apply,
    Constant,
    CoordinateChart,
    EvalState,
    Negate,
    Power,
    Product,
    Quotient,
    Sum,
    _eval_pair,
    differentiate,
    evaluate,
    is_zero,
    parse,
    simplify,
    to_text,
    vars_of,
    z_var,
    zb_var,
)

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class CheckResult(ValueType):
    _fields = ("name", "passed", "measured", "threshold")

    def __init__(self, name: str, passed: bool, measured: float, threshold: float) -> None:
        d = self.__dict__
        d["name"] = name
        d["passed"] = passed
        d["measured"] = measured
        d["threshold"] = threshold

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"CHECK {self.name} {status} "
            f"measured={self.measured!r} threshold={self.threshold!r}"
        )


class Report(ValueType):
    """The checks of a verification run; unlike the other value types it is
    mutable, and so unhashable."""

    _fields = ("checks",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, checks: list) -> None:
        self.checks = checks

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)


def _check(name: str, measured: float, threshold: float) -> CheckResult:
    return CheckResult(name, measured <= threshold, measured, threshold)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

# components uniform in [-2, 2]; anything within 1e-3 of the zero-divisor
# cone is redrawn so oracles stay in the well-conditioned regime
STATE_MARGIN = 1e-3


def _draw(rng: random.Random, count: int) -> list:
    """count values drawn one after another, each redrawn until it clears
    the margin."""
    unit = rng.random
    values = []
    while len(values) < count:
        # bit for bit what rng.uniform(-2.0, 2.0) returns
        a = -2.0 + 4.0 * unit()
        b = -2.0 + 4.0 * unit()
        u, v = a + b, a - b
        if abs(u) > STATE_MARGIN and abs(v) > STATE_MARGIN:
            values.append(_make(a, b, u, v))
    return values


def random_state(rng: random.Random, n: int) -> EvalState:
    """z1..zn, then zb1..zbn, drawn in that order."""
    values = _draw(rng, 2 * n)
    return EvalState(z=tuple(values[:n]), zb=tuple(values[n:]))


def _worst_over(rng: random.Random, n: int, samples: int, measure, starved) -> float:
    """The worst measure(s) over `samples` counted states s drawn by
    random_state.  A draw counts when measure(s) returns a number that is
    not nan; one where it returns None or nan, or raises a runtime
    singularity (dynamics._TIMED_ERRORS, the errors the CLI exits 3 on),
    is redrawn.  An inf counts.  After samples*200 draws it raises
    starved(done, last): done the states counted, last the last
    singularity a draw raised, or None."""
    worst = 0.0
    done = 0
    draws = 0
    last = None
    while done < samples:
        if draws == samples * 200:
            raise starved(done, last)
        draws += 1
        s = random_state(rng, n)
        try:
            m = measure(s)
        except _TIMED_ERRORS as exc:
            last = exc
            continue
        if m is not None and not math.isnan(m):
            worst = max(worst, m)
            done += 1
    return worst


def _small_argument(rng: random.Random):
    # bounded Apply argument: a power of a variable inside sin/cos/exp can
    # put thousands of radians across an FD stencil, so only atoms and one
    # combining operation are allowed here, all scaled by 0.3
    def atom():
        k = rng.randrange(3)
        if k == 0:
            return Constant(ParaComplex(round(rng.uniform(-1.5, 1.5), 3), 0.0))
        family = z_var if k == 1 else zb_var
        return family(rng.randrange(1, 3))

    k = rng.randrange(3)
    if k == 0:
        inner = atom()
    elif k == 1:
        inner = Sum((atom(), atom()))
    else:
        inner = Product((atom(), atom()))
    return Product((Constant(ParaComplex(0.3, 0.0)), inner))


def random_expression(rng: random.Random, depth: int = 3):
    """Random expression over a two-coordinate chart, biased toward values
    that stay finite and away from zero divisors."""
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return Constant(ParaComplex(round(rng.uniform(-3, 3), 3), 0.0))
        if k == 1:
            return Constant(J)
        family = z_var if k == 2 else zb_var
        return family(rng.randrange(1, 3))
    k = rng.randrange(6)
    if k == 0:
        return Sum(
            tuple(random_expression(rng, depth - 1) for _ in range(rng.randrange(2, 4)))
        )
    if k == 1:
        return Product(
            tuple(random_expression(rng, depth - 1) for _ in range(rng.randrange(2, 4)))
        )
    if k == 2:
        base = random_expression(rng, depth - 1)
        if isinstance(base, Power):
            base = base.base  # no stacked powers; x^16 legs span 14 decades
        return Power(base, rng.choice([2, 3, 4]))
    if k == 3:
        return Negate(random_expression(rng, depth - 1))
    if k == 4:
        return Apply(rng.choice(["exp", "sin", "cos"]), _small_argument(rng))
    # 2.5 + x^2 has u,v >= 2.5, so the quotient never hits the cone
    den = Sum(
        (
            Constant(ParaComplex(2.5, 0.0)),
            Power(random_expression(rng, depth - 1), 2),
        )
    )
    return Quotient(random_expression(rng, depth - 1), den)


def _try_eval(e, s):
    try:
        v = evaluate(e, s)
    except (ZeroDivisor, DomainError):
        return None
    return v if v.is_finite() else None


# ---------------------------------------------------------------------------
# algebra selftest
# ---------------------------------------------------------------------------

# expected single-term actions with unit coefficient, kept as data so the
# code path under test is compared against a transcribed table rather than
# against itself
_EXPECTED_ACTIONS = {
    (StructureKind.J, Basis.D_X): (Basis.D_Y, ONE),
    (StructureKind.J, Basis.D_Y): (Basis.D_X, ONE),
    (StructureKind.J, Basis.D_Z): (Basis.D_ZB, -J),
    (StructureKind.J, Basis.D_ZB): (Basis.D_Z, J),
    (StructureKind.F, Basis.D_X): (Basis.D_Y, ONE),
    (StructureKind.F, Basis.D_Y): (Basis.D_X, ONE),
    (StructureKind.P_REAL, Basis.D_X): (Basis.D_X, ONE),
    (StructureKind.P_REAL, Basis.D_Y): (Basis.D_Y, -ONE),
    (StructureKind.P_PLUS, Basis.D_Z): (Basis.D_ZB, -E_PLUS),
    (StructureKind.P_PLUS, Basis.D_ZB): (Basis.D_Z, E_PLUS),
    (StructureKind.P_MINUS, Basis.D_Z): (Basis.D_ZB, -E_MINUS),
    (StructureKind.P_MINUS, Basis.D_ZB): (Basis.D_Z, E_MINUS),
    (StructureKind.J_STAR, Basis.DZ): (Basis.DZB, -J),
    (StructureKind.J_STAR, Basis.DZB): (Basis.DZ, J),
    (StructureKind.P_STAR_PLUS, Basis.DZ): (Basis.DZB, -E_PLUS),
    (StructureKind.P_STAR_PLUS, Basis.DZB): (Basis.DZ, E_PLUS),
    (StructureKind.P_STAR_MINUS, Basis.DZ): (Basis.DZB, -E_MINUS),
    (StructureKind.P_STAR_MINUS, Basis.DZB): (Basis.DZ, E_MINUS),
}

_W_TO_P = {
    StructureKind.W_PLUS: StructureKind.P_PLUS,
    StructureKind.W_MINUS: StructureKind.P_MINUS,
    StructureKind.W_STAR_PLUS: StructureKind.P_STAR_PLUS,
    StructureKind.W_STAR_MINUS: StructureKind.P_STAR_MINUS,
}

_PARA_VECTORS = (Basis.D_Z, Basis.D_ZB)
_PARA_COVECTORS = (Basis.DZ, Basis.DZB)


def _pair_dev(x: ParaComplex, y: ParaComplex) -> float:
    return max(abs(x.u - y.u), abs(x.v - y.v))


def _canon_dev(x: ParaComplex, y: ParaComplex) -> float:
    # max(1.0, abs(x), abs(y)) without the two calls
    scale = max(1.0, max(abs(x.u), abs(x.v)), max(abs(y.u), abs(y.v)))
    return max(abs(x.a - y.a), abs(x.b - y.b)) / scale


def selftest_algebra(seed: int) -> Report:
    rng = random.Random(seed)
    checks = []

    # the five basis identities hold bit-exactly even in canonical form
    const_dev = max(
        _pair_dev(E_PLUS * E_PLUS, E_PLUS),
        _pair_dev(E_MINUS * E_MINUS, E_MINUS),
        _pair_dev(E_PLUS * E_MINUS, ZERO),
        _pair_dev(E_PLUS + E_MINUS, ONE),
        _pair_dev(E_PLUS - E_MINUS, J),
        _pair_dev(J * J, ONE),
    )
    checks.append(_check("algebra-basis-constants", const_dev, 0.0))

    exact_dev = 0.0
    round_dev = 0.0
    pu, pv = E_PLUS.u, E_PLUS.v
    mu, mv = E_MINUS.u, E_MINUS.v
    ju, jv = J.u, J.v
    p_minus_m = E_PLUS - E_MINUS
    for _ in range(1000):
        x = ParaComplex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        xu, xv = x.u, x.v
        # identities computed purely on the idempotent components, where the
        # algebra is componentwise and nothing ever rounds back through (a, b)
        exact_dev = max(
            exact_dev,
            # (e+ + e-)*x = x
            abs((pu * xu + mu * xu) - xu),
            abs((pv * xv + mv * xv) - xv),
            # (e+*x)*(e-*x) = 0
            abs((pu * xu) * (mu * xu)),
            abs((pv * xv) * (mv * xv)),
            # (e+ - e-)*x = j*x
            abs((pu - mu) * xu - ju * xu),
            abs((pv - mv) * xv - jv * xv),
            # j*(j*x) = x
            abs(ju * (ju * xu) - xu),
            abs(jv * (jv * xv) - xv),
            # (e+*x)^2 = e+*(x*x), same for e-
            abs((pu * xu) * (pu * xu) - pu * (xu * xu)),
            abs((pv * xv) * (pv * xv) - pv * (xv * xv)),
            abs((mu * xu) * (mu * xu) - mu * (xu * xu)),
            abs((mv * xv) * (mv * xv) - mv * (xv * xv)),
        )
        # the same identities through ParaComplex's ring ops, compared on
        # (a, b): a product keeps its legs exactly and halves them into
        # (a, b) once, so this measures 0.0 in practice; the bound is 1e-15
        # relative
        px, mx, jx, xx = E_PLUS * x, E_MINUS * x, J * x, x * x
        round_dev = max(
            round_dev,
            _canon_dev(px + mx, x),
            _canon_dev(px * mx, ZERO),
            _canon_dev(p_minus_m * x, jx),
            _canon_dev(J * jx, x),
            _canon_dev(px * px, E_PLUS * xx),
            _canon_dev(mx * mx, E_MINUS * xx),
            _canon_dev(ParaComplex.from_idempotent(xu, xv), x),
        )
    checks.append(_check("algebra-idempotent-exact", exact_dev, 0.0))
    checks.append(_check("algebra-idempotent-roundtrip", round_dev, 1e-15))

    table_misses = 0
    for (kind, basis), (out_basis, coeff) in _EXPECTED_ACTIONS.items():
        got = structure_apply(kind, FrameVector(basis, 1))
        if got != FrameVector(out_basis, 1, coeff):
            table_misses += 1
    checks.append(_check("algebra-structure-tables", float(table_misses), 0.0))

    # J (and J*) applied twice is the identity on every basis vector
    invol_misses = 0
    for basis in (Basis.D_X, Basis.D_Y, Basis.D_Z, Basis.D_ZB):
        term = FrameVector(basis, 1)
        once = structure_apply(StructureKind.J, term)
        twice = structure_apply(StructureKind.J, once)
        if twice != term:
            invol_misses += 1
    for basis in _PARA_COVECTORS:
        term = FrameVector(basis, 1)
        once = structure_apply(StructureKind.J_STAR, term)
        twice = structure_apply(StructureKind.J_STAR, once)
        if twice != term:
            invol_misses += 1
    checks.append(_check("algebra-j-involution", float(invol_misses), 0.0))

    # (P+ - P-) applied twice is the identity
    pdiff_misses = 0
    for basis in _PARA_VECTORS:
        term = FrameVector(basis, 1)

        def pdiff(t):
            plus = structure_apply(StructureKind.P_PLUS, t)
            minus = structure_apply(StructureKind.P_MINUS, t)
            assert plus.kind is minus.kind and plus.index == minus.index
            return FrameVector(plus.kind, plus.index, plus.coefficient - minus.coefficient)

        if pdiff(pdiff(term)) != term:
            pdiff_misses += 1
    checks.append(_check("algebra-pdiff-involution", float(pdiff_misses), 0.0))

    # W at lambda = 0 degenerates to P, table for table
    w_misses = 0
    for w_kind, p_kind in _W_TO_P.items():
        bases = _PARA_COVECTORS if w_kind in (
            StructureKind.W_STAR_PLUS,
            StructureKind.W_STAR_MINUS,
        ) else _PARA_VECTORS
        for basis in bases:
            term = FrameVector(basis, 1)
            if structure_apply(w_kind, term, ZERO) != structure_apply(p_kind, term):
                w_misses += 1
    checks.append(_check("algebra-w-at-zero-matches-p", float(w_misses), 0.0))

    return Report(checks=checks)


# ---------------------------------------------------------------------------
# finite-difference derivative check
# ---------------------------------------------------------------------------

FD_STEP = 1e-5
FD_THRESHOLD = 1e-6


def _chart_of(e) -> CoordinateChart:
    n = 1
    for family, index in vars_of(e):
        if family in ("z", "zb"):
            n = max(n, index)
    return CoordinateChart(n)


def _finite_legs(u: float, v: float) -> bool:
    """Whether from_idempotent(u, v).is_finite(): its a and b are halves
    of u + v and u - v."""
    return math.isfinite(u + v) and math.isfinite(u - v)


def _fd_partial(expr, s: EvalState, family: str, index: int, h: float):
    """The legs of the central difference of expr in family[index] at s,
    with step h: the legs that (f(w + h) - f(w - h)) * (0.5/h) has."""
    def legs_at(delta):
        z, zb = list(s.z), list(s.zb)
        tgt = z if family == "z" else zb
        w = tgt[index - 1]
        # w + ParaComplex(delta, 0.0), whose legs are both delta
        tgt[index - 1] = _make(w.a + delta, w.b + 0.0, w.u + delta, w.v + delta)
        return _eval_pair(expr, EvalState(z=tuple(z), zb=tuple(zb)))

    hu, hv = legs_at(h)
    lu, lv = legs_at(-h)
    c = 0.5 / h
    return (hu - lu) * c, (hv - lv) * c


def check_fd(expr, samples: int, seed: int) -> Report:
    """Symbolic partials against central differences, h = 1e-5.

    Every value is a pair of legs from the interpreter, _eval_pair, at too
    few states to repay lowering.  Each leg and norm, max(|u|, |v|), is
    ParaComplex's, so the measure is the same float.  A variable expr lacks
    gets no stencil: expr at w +- h is then the finite expr at w bit for
    bit, so its difference quotients are exactly 0.0.  Its partial is still
    evaluated, since one that is nan or raises redraws the state."""
    chart = _chart_of(expr)
    holds = vars_of(expr)
    partials = [
        (family, i, differentiate(expr, var(i)), (family, i) in holds)
        for family, var in (("z", z_var), ("zb", zb_var))
        for i in chart.indices()
    ]

    def measure(s):
        u0, v0 = _eval_pair(expr, s)
        if not _finite_legs(u0, v0):
            return None
        # cancellation floor of the difference quotient: subtracting two
        # values of size |f| leaves roundoff ~ |f|*eps/h in the quotient
        noise_floor = max(abs(u0), abs(v0)) * 2.3e-16 / FD_STEP
        worst = 0.0
        for family, i, partial, held in partials:
            su, sv = _eval_pair(partial, s)
            fu, fv = _fd_partial(expr, s, family, i, FD_STEP) if held else (0.0, 0.0)
            gu, gv = _fd_partial(expr, s, family, i, FD_STEP / 2) if held else (0.0, 0.0)
            if not (_finite_legs(su, sv) and _finite_legs(fu, fv) and _finite_legs(gu, gv)):
                return None
            # oracle validity, judged without looking at sym so a wrong
            # partial cannot be hidden: the h and h/2 stencils must agree,
            # and cancellation noise must sit well under the threshold
            fd_norm = max(abs(fu), abs(fv))
            if max(abs(fu - gu), abs(fv - gv)) / max(1.0, fd_norm, max(abs(gu), abs(gv))) > 1e-8:
                return None
            if noise_floor > 1e-8 * max(1.0, fd_norm):
                return None
            scale = max(1.0, max(abs(su), abs(sv)), fd_norm)
            worst = max(worst, max(abs(su - fu), abs(sv - fv)) / scale)
        return worst

    worst = _worst_over(random.Random(seed), chart.n, samples, measure,
                        lambda done, last: RuntimeError("could not sample enough well-conditioned states"))
    return Report(checks=[_check("fd-derivative", worst, FD_THRESHOLD)])


# ---------------------------------------------------------------------------
# classical reduction check
# ---------------------------------------------------------------------------

REDUCTION_THRESHOLD = 1e-12


# both oracle legs are solved only where the infinity-norm condition number
# stays below this, far from the roundoff regime of either solve route
ORACLE_COND_LIMIT = 1e2


def _factor(a):
    """Gauss-Jordan elimination with complete pivoting on [A | I].

    Returns (steps, slot, inverse), or None when A is exactly singular:
    step k = (pr, piv, updates) swapped rows k and pr, divided row k by piv
    and took f times it from each row r of its (r, f) updates; slot[j] is
    the row that ends up holding unknown j.  Deliberately a different
    algorithm from dynamics._eliminate's emitted solve (scaled partial
    pivoting, back substitution): reduction checks must cross two
    independent pipelines.
    """
    n = len(a)
    rows = [list(a[i]) + [float(i == j) for j in range(n)] for i in range(n)]
    unknown = list(range(n))  # unknown[k]: the unknown column k now holds
    steps = []
    for k in range(n):
        best, pr, pc = 0.0, k, k
        for r in range(k, n):
            for c in range(k, n):
                mag = abs(rows[r][c])
                if mag > best:
                    best, pr, pc = mag, r, c
        if best == 0.0:
            return None
        rows[k], rows[pr] = rows[pr], rows[k]
        if pc != k:
            for row in rows:
                row[k], row[pc] = row[pc], row[k]
            unknown[k], unknown[pc] = unknown[pc], unknown[k]
        pivot_row = rows[k]
        piv = pivot_row[k]
        tail = [w / piv for w in pivot_row[k:]]
        pivot_row[k:] = tail
        updates = []
        for r, row in enumerate(rows):
            f = row[k]
            if r != k and f != 0.0:
                row[k:] = [w - f * p for w, p in zip(row[k:], tail)]
                updates.append((r, f))
        steps.append((pr, piv, updates))
    # the row operations E and column permutation P give E*A*P = I, so
    # A^-1 = P*E: row k of E is row unknown[k] of the inverse
    slot = sorted(range(n), key=unknown.__getitem__)
    return steps, slot, [rows[k][n:] for k in slot]


def _solve(factored, b):
    """x with A*x = b, for A factored by _factor.  Pivoting never read b, so
    replaying the steps on b makes the divisions and updates that b's column
    of [A | I | b] gets in one elimination, in order: x is bit for bit that
    elimination's."""
    steps, slot, _ = factored
    b = list(b)
    for k, (pr, piv, updates) in enumerate(steps):
        b[k], b[pr] = b[pr], b[k]
        p = b[k] = b[k] / piv
        for r, f in updates:
            b[r] = b[r] - f * p
    return [b[k] for k in slot]


def _norm_inf(a) -> float:
    return max(sum(map(abs, row)) for row in a)


def _conditioned(a):
    """A factored by _factor, or None when A is exactly singular or its
    infinity-norm condition number exceeds ORACLE_COND_LIMIT."""
    factored = _factor(a)
    if factored is not None and _norm_inf(a) * _norm_inf(factored[2]) <= ORACLE_COND_LIMIT:
        return factored
    return None  # exactly singular, or a cond above the limit or nan


def _classical_el_oracle(L, chart):
    """Baseline flat-case synthesizer: the chain-rule system from raw
    second partials, each idempotent leg factored by _conditioned.

    The 2n first and 4n^2 second partials are taken once here; the
    returned rhs(s) -> (dz, dzb) only evaluates them, and returns None at
    a state where either leg is rejected.  When no second partial holds a
    variable, every state gives them the values they have here, so they are
    evaluated and both legs factored once, and each draw only solves: x is
    bit for bit the per-draw elimination's (_solve).  If they raise here
    they are evaluated at each draw, and raise there.  Deliberately does
    not share code with synthesize_el; reduction checks must cross two
    independent pipelines.
    """
    n = chart.n
    wrt = [z_var(k) for k in chart.indices()] + [zb_var(k) for k in chart.indices()]
    lzb = [differentiate(L, zb_var(i)) for i in chart.indices()]
    lz = [differentiate(L, z_var(i)) for i in chart.indices()]
    second = [[differentiate(first, x) for x in wrt] for first in lzb + lz]

    def legs(s):
        # legs straight from the interpreter: j*w has legs (u, -v)
        rows = [[_eval_pair(e, s) for e in row] for row in second]
        return (_conditioned([[u for u, _ in row] for row in rows]),
                _conditioned([[-v for _, v in row] for row in rows]))

    def solved(s, fu, fv):
        b = [(-u, -v) for u, v in (_eval_pair(e, s) for e in lz)]  # -w has legs (-u, -v)
        b += [_eval_pair(e, s) for e in lzb]
        if fu is None or fv is None:
            return None
        xu = _solve(fu, [u for u, _ in b])
        xv = _solve(fv, [v for _, v in b])
        vals = tuple(ParaComplex.from_idempotent(u, v) for u, v in zip(xu, xv))
        return vals[:n], vals[n:]

    if not any(vars_of(e) for row in second for e in row):
        try:
            fixed = legs(EvalState(z=(), zb=()))
            return lambda s: solved(s, *fixed)
        except ArithmeticError:  # ZeroDivisor or DomainError, raised at every draw
            pass
    return lambda s: solved(s, *legs(s))


def _classical_ham_oracle(H, chart):
    """Baseline flat Hamilton evaluator, straight off the raw partials,
    which are taken once here; the returned rhs(s) -> (dz, dzb) only
    evaluates them."""
    hzb = [differentiate(H, zb_var(i)) for i in chart.indices()]
    hz = [differentiate(H, z_var(i)) for i in chart.indices()]

    def rhs(s):
        # -j*w has legs (-u, v), j*w has legs (u, -v)
        dz = tuple(_from_legs(-u, v) for u, v in (_eval_pair(e, s) for e in hzb))
        dzb = tuple(_from_legs(u, -v) for u, v in (_eval_pair(e, s) for e in hz))
        return dz, dzb

    return rhs


def check_reduction(p, samples: int, seed: int, name: str = "reduction") -> Report:
    """Conformal synthesis vs the classical baseline at random states.

    Requires lambda to be the zero expression; the conformal forms must
    collapse onto the flat equations exactly there.
    """
    if not is_zero(simplify(p.lam)):
        raise ValueError("check_reduction requires the zero conformal factor")
    if isinstance(p, LagrangianProblem):
        rhs = make_el_rhs(synthesize_el(p))
        oracle = _classical_el_oracle(p.L, p.chart)
    else:
        rhs = make_ham_rhs(synthesize_ham(p))
        oracle = _classical_ham_oracle(p.H, p.chart)

    def measure(s):
        base = oracle(s)
        if base is None:
            return None
        got = at_state(rhs, s)
        return _sup(list(map(_canon_dev, got[0] + got[1], base[0] + base[1])))

    worst = _worst_over(random.Random(seed), p.chart.n, samples, measure,
                        lambda done, last: RuntimeError("could not sample enough well-posed states"))
    return Report(checks=[_check(name, worst, REDUCTION_THRESHOLD)])


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

CONSERVATION_THRESHOLD = 1e-8


def conservation_report(p, tr) -> Report:
    """Energy drift along a trajectory.

    Hamiltonian energy is asserted conserved (1e-8) only when the conformal
    factor simplifies to a constant; the Lagrangian energy drift is
    reported without any assertion because the flow does not preserve it
    in general.
    """
    vals = energy_along(p, tr)
    drift = _sup([abs(d) for v in vals for d in (v.a - vals[0].a, v.b - vals[0].b)])
    if isinstance(p, HamiltonianProblem):
        lam_constant = not vars_of(simplify(p.lam))
        threshold = CONSERVATION_THRESHOLD if lam_constant else float("inf")
        name = "conservation-hamiltonian"
    else:
        threshold = float("inf")
        name = "energy-drift-lagrangian"
    return Report(checks=[_check(name, drift, threshold)])


# ---------------------------------------------------------------------------
# fixture battery
# ---------------------------------------------------------------------------

FIXTURE_LAGRANGIANS = (
    ("L1", 1, "z1*zb1"),
    ("L2", 1, "z1*zb1 + 0.3*zb1^2"),
    ("L3", 1, "z1^2*zb1 + 0.3*zb1^2"),
    ("L4", 1, "exp(z1)*zb1 + z1*zb1"),
    ("L5", 2, "z1*zb1 + z2*zb2 + 0.1*z1*zb2"),
)

FIXTURE_HAMILTONIANS = (
    ("H1", 1, "z1*zb1"),
    ("H2", 1, "z1*zb1 + 0.1*z1^2"),
    ("H3", 1, "0.5*z1^2 + 0.5*zb1^2"),
    ("H4", 1, "exp(0.1*z1)*zb1"),
    ("H5", 2, "z1*zb2 + z2*zb1"),
)


def fixture_problem(kind: str, name: str):
    table = FIXTURE_LAGRANGIANS if kind == "lagrangian" else FIXTURE_HAMILTONIANS
    for key, n, text in table:
        if key == name:
            chart = CoordinateChart(n)
            zero = parse("0", chart)
            if kind == "lagrangian":
                return LagrangianProblem(chart, parse(text, chart), zero)
            return HamiltonianProblem(chart, parse(text, chart), zero)
    raise KeyError(name)


def audit_battery(p, samples: int, seed: int) -> Report:
    """Plug-back audits at random nonsingular states, threshold 1e-10.

    A state where the right-hand side or the audit raises a runtime
    singularity, or the audit measures nan, is redrawn (_worst_over).
    Draws at most samples*200 states.  When too few of them are well posed
    the problem itself is singular, so the battery raises
    DegenerateLagrangian, or the last error a Hamiltonian draw raised, as
    the integrator would: StepFailure when none raised.  A Lagrangian whose
    right-hand side the build proved degenerate (make_el_rhs) raises at
    every draw, so its battery draws nothing and raises what the
    samples*200 draws would end in: 0 of samples states well posed.
    """
    if samples < 1:
        raise ValueError("audit_battery needs samples >= 1")
    if isinstance(p, LagrangianProblem):
        rhs = make_el_rhs(synthesize_el(p))

        def measure(s):
            dz, dzb = at_state(rhs, s)
            if max(abs(w) for w in dz + dzb) > 1e3:
                return None  # nearly degenerate; keep the oracle well conditioned
            return audit_lagrange(p, s, dz + dzb)

        def starved(done, last):
            return DegenerateLagrangian(
                f"degenerate Lagrangian: {done} of {samples} states well posed"
                f" in {samples * 200} draws"
            )
        if getattr(rhs, "degenerate", False):  # a wrapped rhs carries no verdict
            raise starved(0, None)
    else:
        def measure(s):
            return audit_hamilton(p, s)

        def starved(done, last):
            return last or StepFailure("state left the finite domain")
    worst = _worst_over(random.Random(seed), p.chart.n, samples, measure, starved)
    return Report(checks=[_check("audit", worst, 1e-10)])


# ---------------------------------------------------------------------------
# everything at once
# ---------------------------------------------------------------------------


def run_all(seed: int) -> Report:
    report = selftest_algebra(seed)
    rng = random.Random(seed + 1)

    # parser round-trip: print, reparse, compare numerically at 10 states
    worst_rt = 0.0
    done = 0
    while done < 100:
        e = random_expression(rng)
        text = to_text(e)
        back = parse(text, CoordinateChart(2))
        states = [random_state(rng, 2) for _ in range(10)]
        used = False
        for s in states:
            v1 = _try_eval(e, s)
            if v1 is None:
                continue
            worst_rt = max(worst_rt, _canon_dev(v1, evaluate(back, s)))
            used = True
        if used:
            done += 1
    report.checks.append(_check("roundtrip-text", worst_rt, 1e-12))

    # FD derivative sweep over random expressions; an expression whose
    # values sit far above the h=1e-5 cancellation floor everywhere cannot
    # be FD-audited and is replaced by a fresh draw
    worst_fd = 0.0
    done = attempts = 0
    while done < 100 and attempts < 400:
        e = random_expression(rng)
        attempts += 1
        try:
            sub = check_fd(e, samples=3, seed=seed + 100 + attempts)
        except RuntimeError:
            continue
        worst_fd = max(worst_fd, sub.checks[0].measured)
        done += 1
    if done < 100:
        worst_fd = math.inf  # the generator should never starve the audit
    report.checks.append(_check("fd-derivative-suite", worst_fd, FD_THRESHOLD))

    # classical reduction across the whole fixture battery
    for key, _, _ in FIXTURE_LAGRANGIANS:
        p = fixture_problem("lagrangian", key)
        report.extend(check_reduction(p, 100, seed + 2, name=f"reduction-{key}"))
    for key, _, _ in FIXTURE_HAMILTONIANS:
        p = fixture_problem("hamiltonian", key)
        report.extend(check_reduction(p, 100, seed + 3, name=f"reduction-{key}"))

    # constant-lambda Hamilton conservation on a hyperbolic flow
    chart = CoordinateChart(1)
    hp = HamiltonianProblem(
        chart, parse("z1*zb1 + 0.1*z1^2", chart), parse("0.7", chart)
    )
    rhs = make_ham_rhs(synthesize_ham(hp))
    s0 = PhaseState(
        t=0.0,
        z=(ParaComplex(0.55, 0.45),),
        zb=(ParaComplex(0.15, 0.05),),
    )
    tr = integrate(
        rhs, s0, IntegratorConfig(method="rkf45", t0=0.0, t1=10.0, tol=1e-10)
    )
    report.extend(conservation_report(hp, tr))

    return report
