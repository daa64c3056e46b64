"""Invariant suites and line-oriented reports.

Every identity the algebra relies on has a check here, and the two equation
synthesizers are cross-examined against deliberately duplicated classical
baselines.  All randomness flows from one integer seed so a report renders
bit-identically across runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dynamics import el_rhs, ham_rhs, energy_along
from .eom import (
    DegenerateLagrangian,
    HamiltonianProblem,
    LagrangianProblem,
    Semispray,
    SingularDenominator,
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
    ZeroDivisor,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"CHECK {self.name} {status} "
            f"measured={self.measured!r} threshold={self.threshold!r}"
        )


@dataclass
class Report:
    checks: list
    seed: int

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


def random_value(rng: random.Random) -> ParaComplex:
    while True:
        w = ParaComplex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if min(abs(w.u), abs(w.v)) > STATE_MARGIN:
            return w


def random_state(rng: random.Random, n: int) -> EvalState:
    return EvalState(
        z=tuple(random_value(rng) for _ in range(n)),
        zb=tuple(random_value(rng) for _ in range(n)),
    )


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
    except (ZeroDivisor, DomainError, OverflowError):
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
    scale = max(1.0, abs(x), abs(y))
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
        # the same identities through canonical arithmetic, which rounds on
        # every recombination: within 1e-15 relative
        round_dev = max(round_dev, _canon_dev(E_PLUS * x + E_MINUS * x, x))
        round_dev = max(round_dev, _canon_dev((E_PLUS * x) * (E_MINUS * x), ZERO))
        round_dev = max(round_dev, _canon_dev((E_PLUS - E_MINUS) * x, J * x))
        round_dev = max(round_dev, _canon_dev(J * (J * x), x))
        round_dev = max(
            round_dev, _canon_dev((E_PLUS * x) * (E_PLUS * x), E_PLUS * (x * x))
        )
        round_dev = max(
            round_dev, _canon_dev((E_MINUS * x) * (E_MINUS * x), E_MINUS * (x * x))
        )
        back = ParaComplex.from_idempotent(x.u, x.v)
        round_dev = max(round_dev, _canon_dev(back, x))
    checks.append(_check("algebra-idempotent-exact", exact_dev, 0.0))
    checks.append(_check("algebra-idempotent-roundtrip", round_dev, 1e-15))

    table_misses = 0
    for (kind, basis), (out_basis, coeff) in _EXPECTED_ACTIONS.items():
        got = structure_apply(kind, FrameVector(basis, 1))
        if got != [FrameVector(out_basis, 1, coeff)]:
            table_misses += 1
    checks.append(_check("algebra-structure-tables", float(table_misses), 0.0))

    # J (and J*) applied twice is the identity on every basis vector
    invol_misses = 0
    for basis in (Basis.D_X, Basis.D_Y, Basis.D_Z, Basis.D_ZB):
        term = FrameVector(basis, 1)
        once = structure_apply(StructureKind.J, term)
        twice = structure_apply(StructureKind.J, once[0])
        if twice != [term]:
            invol_misses += 1
    for basis in _PARA_COVECTORS:
        term = FrameVector(basis, 1)
        once = structure_apply(StructureKind.J_STAR, term)
        twice = structure_apply(StructureKind.J_STAR, once[0])
        if twice != [term]:
            invol_misses += 1
    checks.append(_check("algebra-j-involution", float(invol_misses), 0.0))

    # (P+ - P-) applied twice is the identity
    pdiff_misses = 0
    for basis in _PARA_VECTORS:
        term = FrameVector(basis, 1)

        def pdiff(t):
            plus = structure_apply(StructureKind.P_PLUS, t)[0]
            minus = structure_apply(StructureKind.P_MINUS, t)[0]
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

    return Report(checks=checks, seed=seed)


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


def _fd_partial(expr, s: EvalState, family: str, index: int, h: float):
    def shifted(delta):
        z, zb = list(s.z), list(s.zb)
        tgt = z if family == "z" else zb
        tgt[index - 1] = tgt[index - 1] + ParaComplex(delta, 0.0)
        return EvalState(z=tuple(z), zb=tuple(zb))

    hi = evaluate(expr, shifted(h))
    lo = evaluate(expr, shifted(-h))
    return (hi - lo) * ParaComplex(0.5 / h, 0.0)


def check_fd(expr, samples: int, seed: int) -> Report:
    """Symbolic partials against central differences, h = 1e-5.

    Every value comes from evaluate(): each expression is evaluated a few
    dozen times at most, too few to repay lowering it."""
    rng = random.Random(seed)
    chart = _chart_of(expr)
    partials = [
        (family, i, differentiate(expr, var(i)))
        for family, var in (("z", z_var), ("zb", zb_var))
        for i in chart.indices()
    ]
    worst = 0.0
    done = 0
    guard = 0
    while done < samples:
        guard += 1
        if guard > samples * 200:
            raise RuntimeError("could not sample enough well-conditioned states")
        s = random_state(rng, chart.n)
        v0 = _try_eval(expr, s)
        if v0 is None:
            continue
        # cancellation floor of the difference quotient: subtracting two
        # values of size |f| leaves roundoff ~ |f|*eps/h in the quotient
        noise_floor = abs(v0) * 2.3e-16 / FD_STEP
        ok = True
        for family, i, partial in partials:
            try:
                sym = evaluate(partial, s)
                fd = _fd_partial(expr, s, family, i, FD_STEP)
                fd2 = _fd_partial(expr, s, family, i, FD_STEP / 2)
            except (ZeroDivisor, DomainError, OverflowError):
                ok = False
                break
            if not (sym.is_finite() and fd.is_finite() and fd2.is_finite()):
                ok = False
                break
            # oracle validity, judged without looking at sym so a wrong
            # partial cannot be hidden: the h and h/2 stencils must agree,
            # and cancellation noise must sit well under the threshold
            if abs(fd - fd2) / max(1.0, abs(fd), abs(fd2)) > 1e-8:
                ok = False
                break
            if noise_floor > 1e-8 * max(1.0, abs(fd)):
                ok = False
                break
            scale = max(1.0, abs(sym), abs(fd))
            worst = max(worst, abs(sym - fd) / scale)
        if ok:
            done += 1
    return Report(
        checks=[_check("fd-derivative", worst, FD_THRESHOLD)], seed=seed
    )


# ---------------------------------------------------------------------------
# classical reduction check
# ---------------------------------------------------------------------------

REDUCTION_THRESHOLD = 1e-12


# both oracle legs are solved only where the infinity-norm condition number
# stays below this, far from the roundoff regime of either solve route
ORACLE_COND_LIMIT = 1e2


def _gauss_jordan(a, b):
    """Gauss-Jordan elimination with complete pivoting on [A | I | b].

    Returns (x, inverse) with A*x = b, or None when A is exactly singular.
    Deliberately a different algorithm from dynamics._solve_real (scaled
    partial pivoting, back substitution): reduction checks must cross two
    independent pipelines.
    """
    n = len(b)
    width = 2 * n + 1
    rows = [
        list(a[i]) + [float(i == j) for j in range(n)] + [b[i]] for i in range(n)
    ]
    unknown = list(range(n))  # unknown[k]: the unknown column k now holds
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
        for c in range(k, width):
            pivot_row[c] /= piv
        for r, row in enumerate(rows):
            f = row[k]
            if r != k and f != 0.0:
                for c in range(k, width):
                    row[c] -= f * pivot_row[c]
    # the row operations E and column permutation P give E*A*P = I, so
    # A^-1 = P*E: row k of E is row unknown[k] of the inverse
    x = [0.0] * n
    inverse = [None] * n
    for k, j in enumerate(unknown):
        x[j] = rows[k][-1]
        inverse[j] = rows[k][n:-1]
    return x, inverse


def _norm_inf(a) -> float:
    return max(sum(abs(w) for w in row) for row in a)


def _oracle_solve(a, b):
    """x with A*x = b, or None when A is exactly singular or its
    infinity-norm condition number exceeds ORACLE_COND_LIMIT."""
    solved = _gauss_jordan(a, b)
    if solved is None:
        return None
    x, inverse = solved
    cond = _norm_inf(a) * _norm_inf(inverse)
    return x if cond <= ORACLE_COND_LIMIT else None  # a nan cond is rejected


def _classical_el_oracle(L, chart):
    """Baseline flat-case synthesizer: the chain-rule system from raw
    second partials, each idempotent leg solved by _oracle_solve.

    The 2n first and 4n^2 second partials are taken once here; the
    returned rhs(s) -> (dz, dzb) only evaluates them, and returns None at
    a state where either leg is rejected.  Deliberately does not share
    code with synthesize_el; reduction checks must cross two independent
    pipelines.
    """
    n = chart.n
    wrt = [z_var(k) for k in chart.indices()] + [zb_var(k) for k in chart.indices()]
    lzb = [differentiate(L, zb_var(i)) for i in chart.indices()]
    lz = [differentiate(L, z_var(i)) for i in chart.indices()]
    second = [[differentiate(first, x) for x in wrt] for first in lzb + lz]

    def rhs(s):
        rows = [[J * evaluate(e, s) for e in row] for row in second]
        b = [-evaluate(e, s) for e in lz] + [evaluate(e, s) for e in lzb]
        xu = _oracle_solve([[w.u for w in row] for row in rows], [w.u for w in b])
        if xu is None:
            return None
        xv = _oracle_solve([[w.v for w in row] for row in rows], [w.v for w in b])
        if xv is None:
            return None
        vals = tuple(ParaComplex.from_idempotent(u, v) for u, v in zip(xu, xv))
        return vals[:n], vals[n:]

    return rhs


def _classical_ham_oracle(H, chart):
    """Baseline flat Hamilton evaluator, straight off the raw partials,
    which are taken once here; the returned rhs(s) -> (dz, dzb) only
    evaluates them."""
    hzb = [differentiate(H, zb_var(i)) for i in chart.indices()]
    hz = [differentiate(H, z_var(i)) for i in chart.indices()]

    def rhs(s):
        dz = tuple(-J * evaluate(e, s) for e in hzb)
        dzb = tuple(J * evaluate(e, s) for e in hz)
        return dz, dzb

    return rhs


def _value_dev(a, b) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        scale = max(1.0, abs(x), abs(y))
        worst = max(worst, max(abs(x.a - y.a), abs(x.b - y.b)) / scale)
    return worst


def check_reduction(p, samples: int, seed: int, name: str = "reduction") -> Report:
    """Conformal synthesis vs the classical baseline at random states.

    Requires lambda to be the zero expression; the conformal forms must
    collapse onto the flat equations exactly there.
    """
    if not is_zero(simplify(p.lam)):
        raise ValueError("check_reduction requires the zero conformal factor")
    rng = random.Random(seed)
    chart = p.chart
    worst = 0.0
    done = 0
    guard = 0
    if isinstance(p, LagrangianProblem):
        ode = synthesize_el(p)
        oracle = _classical_el_oracle(p.L, chart)
        while done < samples:
            guard += 1
            if guard > samples * 200:
                raise RuntimeError("could not sample enough well-posed states")
            s = random_state(rng, chart.n)
            base = oracle(s)
            if base is None:
                continue
            try:
                got = el_rhs(ode, s)
            except DegenerateLagrangian:
                continue
            worst = max(
                worst,
                _value_dev(got[0] + got[1], base[0] + base[1]),
            )
            done += 1
    else:
        ode = synthesize_ham(p)
        oracle = _classical_ham_oracle(p.H, chart)
        while done < samples:
            s = random_state(rng, chart.n)
            base = oracle(s)
            got = ham_rhs(ode, s)
            worst = max(
                worst,
                _value_dev(got[0] + got[1], base[0] + base[1]),
            )
            done += 1
    return Report(
        checks=[_check(name, worst, REDUCTION_THRESHOLD)], seed=seed
    )


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

CONSERVATION_THRESHOLD = 1e-8


def conservation_report(p, tr) -> Report:
    """Energy drift along a trajectory.

    Hamiltonian energy is asserted conserved (1e-8) only when the conformal
    factor is constant; the Lagrangian energy drift is reported without any
    assertion because the flow does not preserve it in general.
    """
    vals = energy_along(p, tr)
    drift = max(
        max(abs(v.a - vals[0].a), abs(v.b - vals[0].b)) for v in vals
    )
    if isinstance(p, HamiltonianProblem):
        lam_constant = not vars_of(p.lam)
        threshold = CONSERVATION_THRESHOLD if lam_constant else float("inf")
        name = "conservation-hamiltonian"
    else:
        threshold = float("inf")
        name = "energy-drift-lagrangian"
    return Report(checks=[_check(name, drift, threshold)], seed=0)


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

# start states and horizons for the fixture EL trajectories; chosen away
# from zero divisors, with spans over which every system stays well posed
EL_TRAJECTORIES = {
    "L1": (((1.0, 0.2),), ((0.5, -0.1),), 1.0, 1e-3),
    "L2": (((1.0, 0.2),), ((0.5, -0.1),), 1.0, 1e-3),
    # L3 start keeps both legs of 1.2*zb - 4*z^2 above 4 in magnitude for
    # the whole span; starts nearer that surface make the velocity spike
    "L3": (((1.2, 0.1),), ((0.1, -0.1),), 0.5, 1e-3),
    "L4": (((0.3, 0.1),), ((0.5, -0.2),), 1.0, 1e-3),
    "L5": (((1.0, 0.1), (0.5, -0.2)), ((0.3, 0.0), (0.2, 0.4)), 1.0, 1e-3),
}


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


def audit_battery(p, samples: int, seed: int, name: str = "audit") -> Report:
    """Plug-back audits at random nonsingular states, threshold 1e-10.

    Draws at most samples*200 states.  When too few of them are well posed
    the problem itself is singular, so the battery raises the runtime
    error (DegenerateLagrangian or SingularDenominator) the integrator
    would raise on it.
    """
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    guard = 0
    if isinstance(p, LagrangianProblem):
        ode = synthesize_el(p)
        while done < samples:
            guard += 1
            if guard > samples * 200:
                raise DegenerateLagrangian(
                    f"degenerate Lagrangian: {done} of {samples} states well posed"
                    f" in {samples * 200} draws"
                )
            s = random_state(rng, p.chart.n)
            try:
                dz, dzb = el_rhs(ode, s)
            except DegenerateLagrangian:
                continue
            if max(abs(w) for w in dz + dzb) > 1e3:
                continue  # nearly degenerate; keep the oracle well conditioned
            worst = max(worst, audit_lagrange(p, s, Semispray(dz, dzb)))
            done += 1
    else:
        singular = None
        while done < samples:
            guard += 1
            if guard > samples * 200:
                raise singular
            s = random_state(rng, p.chart.n)
            try:
                worst = max(worst, audit_hamilton(p, s))
            except SingularDenominator as exc:
                singular = exc
                continue
            done += 1
    return Report(checks=[_check(name, worst, 1e-10)], seed=seed)


# ---------------------------------------------------------------------------
# everything at once
# ---------------------------------------------------------------------------


def run_all(seed: int) -> Report:
    from .dynamics import IntegratorConfig, PhaseState, integrate, make_ham_rhs

    report = selftest_algebra(seed)
    report.seed = seed
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
            v2 = evaluate(back, s)
            scale = max(1.0, abs(v1), abs(v2))
            worst_rt = max(worst_rt, max(abs(v1.a - v2.a), abs(v1.b - v2.b)) / scale)
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
