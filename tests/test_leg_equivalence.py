"""The verification layer computes on float legs, bit for bit.

The audits, the classical oracles and the finite-difference check read the
interpreter's legs and never build a ParaComplex per operation.  Since the
algebra is componentwise on the legs (u, v), every leg they compute is the
one the ParaComplex ring ops compute.  These tests keep test-local copies
of the code as it read when every value was a ParaComplex (evaluate() for
every value, ring ops on objects, loops in the Gauss-Jordan solve) and
require each result to be repr-equal, or to raise the same exception type
with the same message.
"""

import glob
import os
import random

import pytest

from biparamech import verify
from biparamech.cli import ProblemFileError, load_problem
from biparamech.eom import (
    HamiltonianProblem,
    LagrangianProblem,
    SingularDenominator,
    _hamilton_terms,
    _identity_terms,
    audit_hamilton,
    audit_lagrange,
)
from biparamech.para_algebra import J, ONE, ZERO, DomainError, ParaComplex, ZeroDivisor, apply_function
from biparamech.symbolic import (CoordinateChart, EvalState, Var, _eval_pair, differentiate, evaluate, is_zero, parse, simplify,
                                 vars_of, z_var, zb_var)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files():
    """Every problem under problems/, and every file in tests/data that
    loads with a conformal factor that is not zero."""
    paths = sorted(glob.glob(os.path.join(REPO, "problems", "*.json")))
    paths += sorted(glob.glob(os.path.join(REPO, "problems", "failing", "*.json")))
    for path in sorted(glob.glob(os.path.join(REPO, "tests", "data", "*.json"))):
        try:
            lam = load_problem(path).problem.lam
        except ProblemFileError:
            continue
        if not is_zero(simplify(lam)):
            paths.append(path)
    return paths


FILES = _files()


def _id(path):
    return os.path.relpath(path, REPO)


# ---------------------------------------------------------------------------
# the ParaComplex formulation
# ---------------------------------------------------------------------------


def ref_sup(values):
    """The largest abs() of the values, or nan when a leg of one is nan."""
    if any(w.u != w.u or w.v != w.v for w in values):
        return float("nan")
    return max(abs(w) for w in values)


def ref_audit_lagrange(p, s, X):
    n = p.chart.n
    omega, dE = _identity_terms(p)
    contraction = [ZERO] * (2 * n)
    for a, b, w in omega:
        w_val = evaluate(w, s)
        contraction[b] = contraction[b] + w_val * X[a]
        contraction[a] = contraction[a] - w_val * X[b]
    full = EvalState(z=s.z, zb=s.zb, xi=X[:n], xib=X[n:])
    return ref_sup([c - evaluate(d, full) for c, d in zip(contraction, dE)])


def ref_audit_hamilton(p, s):
    terms = _hamilton_terms(p)
    acc = ZERO
    for i, (lam_z, lam_zb, *_) in zip(p.chart.indices(), terms):
        acc = acc + evaluate(Var("z", i), s) * evaluate(lam_z, s)
        acc = acc + evaluate(Var("zb", i), s) * evaluate(lam_zb, s)
    half = ParaComplex(0.5, 0.0) * apply_function("exp", evaluate(p.lam, s)) * acc
    d_plus, d_minus = ONE + half, ONE - half
    if not d_plus.invertible:
        raise SingularDenominator("D+")
    if not d_minus.invertible:
        raise SingularDenominator("D-")
    residuals = []
    for *_, h_z, h_zb, rhs_z, rhs_zb in terms:
        Z_i = evaluate(rhs_z, s)
        Zb_i = evaluate(rhs_zb, s)
        Hz = evaluate(h_z, s)
        Hzb = evaluate(h_zb, s)
        residuals.append(J * d_minus * Zb_i - Hz)
        residuals.append(-J * d_plus * Z_i - Hzb)
    return ref_sup(residuals)


def ref_gauss_jordan(a, b, swaps=None):
    """One Gauss-Jordan elimination on [A | I | b] with its row updates as
    loops, which verify._factor and verify._solve split in two; swaps, when
    given, collects (k, pc) for each column swap."""
    n = len(b)
    width = 2 * n + 1
    rows = [list(a[i]) + [float(i == j) for j in range(n)] + [b[i]] for i in range(n)]
    unknown = list(range(n))
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
            if swaps is not None:
                swaps.append((k, pc))
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
    x = [0.0] * n
    inverse = [None] * n
    for k, j in enumerate(unknown):
        x[j] = rows[k][-1]
        inverse[j] = rows[k][n:-1]
    return x, inverse


def ref_norm_inf(a):
    return max(sum(abs(w) for w in row) for row in a)


def ref_oracle_solve(a, b):
    solved = ref_gauss_jordan(a, b)
    if solved is None:
        return None
    x, inverse = solved
    cond = ref_norm_inf(a) * ref_norm_inf(inverse)
    return x if cond <= verify.ORACLE_COND_LIMIT else None


def ref_el_oracle(L, chart):
    n = chart.n
    wrt = [z_var(k) for k in chart.indices()] + [zb_var(k) for k in chart.indices()]
    lzb = [differentiate(L, zb_var(i)) for i in chart.indices()]
    lz = [differentiate(L, z_var(i)) for i in chart.indices()]
    second = [[differentiate(first, x) for x in wrt] for first in lzb + lz]

    def rhs(s):
        rows = [[_eval_pair(e, s) for e in row] for row in second]
        b = [(-u, -v) for u, v in (_eval_pair(e, s) for e in lz)]
        b += [_eval_pair(e, s) for e in lzb]
        xu = ref_oracle_solve([[u for u, _ in row] for row in rows], [u for u, _ in b])
        if xu is None:
            return None
        xv = ref_oracle_solve([[-v for _, v in row] for row in rows], [v for _, v in b])
        if xv is None:
            return None
        vals = tuple(ParaComplex.from_idempotent(u, v) for u, v in zip(xu, xv))
        return vals[:n], vals[n:]

    return rhs


def ref_ham_oracle(H, chart):
    hzb = [differentiate(H, zb_var(i)) for i in chart.indices()]
    hz = [differentiate(H, z_var(i)) for i in chart.indices()]

    def rhs(s):
        dz = tuple(-J * evaluate(e, s) for e in hzb)
        dzb = tuple(J * evaluate(e, s) for e in hz)
        return dz, dzb

    return rhs


def ref_fd_partial(expr, s, family, index, h):
    def shifted(delta):
        z, zb = list(s.z), list(s.zb)
        tgt = z if family == "z" else zb
        tgt[index - 1] = tgt[index - 1] + ParaComplex(delta, 0.0)
        return EvalState(z=tuple(z), zb=tuple(zb))

    hi = evaluate(expr, shifted(h))
    lo = evaluate(expr, shifted(-h))
    return (hi - lo) * ParaComplex(0.5 / h, 0.0)


def ref_try_eval(e, s):
    try:
        v = evaluate(e, s)
    except (ZeroDivisor, DomainError):
        return None
    return v if v.is_finite() else None


def ref_check_fd_worst(expr, samples, seed):
    chart = verify._chart_of(expr)
    holds = vars_of(expr)
    partials = [
        (family, i, differentiate(expr, var(i)))
        for family, var in (("z", z_var), ("zb", zb_var))
        for i in chart.indices()
    ]

    def measure(s):
        v0 = ref_try_eval(expr, s)
        if v0 is None:
            return None
        noise_floor = abs(v0) * 2.3e-16 / verify.FD_STEP
        worst = 0.0
        for family, i, partial in partials:
            try:
                sym = evaluate(partial, s)
                fd = ref_fd_partial(expr, s, family, i, verify.FD_STEP)
                fd2 = ref_fd_partial(expr, s, family, i, verify.FD_STEP / 2)
            except (ZeroDivisor, DomainError):
                return None
            if not (sym.is_finite() and fd.is_finite() and fd2.is_finite()):
                return None
            if abs(fd - fd2) / max(1.0, abs(fd), abs(fd2)) > 1e-8:
                return None
            # the difference quotients in a variable expr lacks are exactly
            # 0.0 and carry no cancellation noise
            if (family, i) in holds and noise_floor > 1e-8 * max(1.0, abs(fd)):
                return None
            scale = max(1.0, abs(sym), abs(fd))
            worst = max(worst, abs(sym - fd) / scale)
        return worst

    return verify._worst_over(random.Random(seed), chart.n, samples, measure,
                              lambda done, last: RuntimeError("could not sample enough well-conditioned states"))


def ref_canon_dev(x, y):
    scale = max(1.0, abs(x), abs(y))
    return max(abs(x.a - y.a), abs(x.b - y.b)) / scale


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def outcome(f, *args):
    """repr of f(*args), or the class and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # compared, never swallowed: both sides must raise alike
        return f"raised {type(exc).__qualname__}: {exc}"


def _scaled(w, k):
    return ParaComplex.from_idempotent(w.u * k, w.v * k)


def _states(loaded, seed, count=12):
    """Seeded draws, the file's start, and draws scaled up until the legs
    overflow, so inf and nan reach every formula."""
    n = loaded.n
    rng = random.Random(seed)
    states = [verify.random_state(rng, n) for _ in range(count)]
    states.append(EvalState(z=loaded.z0, zb=loaded.zb0))
    for k in (1e3, 1e80, 1e160):
        s = verify.random_state(rng, n)
        states.append(EvalState(z=tuple(_scaled(w, k) for w in s.z), zb=tuple(_scaled(w, k) for w in s.zb)))
    return states


@pytest.mark.parametrize("path", FILES, ids=_id)
def test_the_audits_match_the_paracomplex_formulation(path):
    loaded = load_problem(path)
    p = loaded.problem
    rng = random.Random(5)
    raised = 0
    for s in _states(loaded, 17):
        if isinstance(p, HamiltonianProblem):
            want = outcome(ref_audit_hamilton, p, s)
            assert outcome(audit_hamilton, p, s) == want
        else:
            drawn = verify.random_state(rng, p.chart.n)
            X = drawn.z + drawn.zb
            for vel in (X, tuple(_scaled(w, 1e200) for w in X)):
                want = outcome(ref_audit_lagrange, p, s, vel)
                assert outcome(audit_lagrange, p, s, vel) == want
        raised += want.startswith("raised")
    if path.endswith("singular_lambda.json"):
        assert raised  # the start state is singular: D- is exercised


@pytest.mark.parametrize("path", FILES, ids=_id)
def test_the_classical_oracles_match_the_paracomplex_formulation(path):
    loaded = load_problem(path)
    p = loaded.problem
    if isinstance(p, HamiltonianProblem):
        got, want = verify._classical_ham_oracle(p.H, p.chart), ref_ham_oracle(p.H, p.chart)
    else:
        got, want = verify._classical_el_oracle(p.L, p.chart), ref_el_oracle(p.L, p.chart)
    for s in _states(loaded, 23):
        assert outcome(got, s) == outcome(want, s)


@pytest.mark.parametrize("path", FILES, ids=_id)
def test_check_fd_matches_the_paracomplex_formulation(path):
    p = load_problem(path).problem
    f = p.L if hasattr(p, "L") else p.H
    for expr in (f, p.lam):
        for seed in (1, 2):
            want = outcome(ref_check_fd_worst, expr, 5, seed)
            got = outcome(lambda: verify.check_fd(expr, 5, seed).checks[0].measured)
            assert got == want


def test_check_fd_matches_on_random_expressions():
    rng = random.Random(8)
    for k in range(40):
        expr = verify.random_expression(rng)
        want = outcome(ref_check_fd_worst, expr, 3, k)
        assert outcome(lambda: verify.check_fd(expr, 3, k).checks[0].measured) == want


# Each lacks a chart variable, whose partial is ZERO_EXPR: check_fd gives it
# no stencil and the reference stencils it, so its difference quotients are
# exactly 0.0 and it never redraws a state.  The partials in the variables
# held do: the quotient rule's den^2 falls under INVERTIBILITY_FLOOR where
# |den| < 1e-150, and exp(400*z1) overflows to inf where a leg of z1 passes
# 1.77 (1/inf is 0, and inf*0 in a partial is nan).  With no variable held
# (the last two) no partial fails, and each state whose value is finite
# counts.  The reference applies no cancellation floor to a variable the
# expression lacks.  The last field: whether every seed starves into the
# RuntimeError, rather than none.
_LACKING = (
    ("z2 + zb1/(1e-150*z1)", 2, True),
    ("z2 + (1e-150*zb1)/(1e-150*z1)", 2, False),
    ("z2*zb2 + 1/(1e-151*z1*z1)", 2, True),
    ("z2 + 1/exp(400*z1)", 2, False),
    ("2/exp(400*z1)", 1, False),
    ("100*z1 + z2", 2, False),
    ("exp(4*z1)", 1, False),
    ("1e-160/(1e-160*(1 + 1))", 1, False),
    ("1/exp(1000)", 1, False),
)


@pytest.mark.parametrize("text,n,starved", _LACKING)
def test_check_fd_matches_where_a_lacked_variable_redraws(text, n, starved):
    chart = CoordinateChart(n)
    expr = parse(text, chart)
    assert len(vars_of(expr)) < 2 * n
    for seed in range(12):
        want = outcome(ref_check_fd_worst, expr, 3, seed)
        assert outcome(lambda: verify.check_fd(expr, 3, seed).checks[0].measured) == want
        assert want.startswith("raised RuntimeError") == starved


@pytest.mark.parametrize("key", ["L1", "L2", "L5", "oscillator.json", "el_coupled.json"])
def test_the_state_free_oracle_factors_once_and_matches_per_draw(key, monkeypatch):
    if key.endswith(".json"):
        p = load_problem(os.path.join(REPO, "problems", key)).problem
    else:
        p = verify.fixture_problem("lagrangian", key)
    factored = []
    real = verify._factor
    monkeypatch.setattr(verify, "_factor", lambda a: factored.append(a) or real(a))
    got, want = verify._classical_el_oracle(p.L, p.chart), ref_el_oracle(p.L, p.chart)
    assert len(factored) == 2  # one per leg, when the oracle is built
    rng = random.Random(31)
    for _ in range(60):
        s = verify.random_state(rng, p.chart.n)
        assert outcome(got, s) == outcome(want, s)
    assert len(factored) == 2


def test_a_state_dependent_oracle_factors_at_every_draw(monkeypatch):
    p = verify.fixture_problem("lagrangian", "L3")
    calls = []
    real = verify._factor
    monkeypatch.setattr(verify, "_factor", lambda a: calls.append(a) or real(a))
    got, want = verify._classical_el_oracle(p.L, p.chart), ref_el_oracle(p.L, p.chart)
    rng = random.Random(32)
    for _ in range(20):
        s = verify.random_state(rng, 1)
        assert outcome(got, s) == outcome(want, s)
    assert len(calls) == 40


def _rejected_problems():
    chart = CoordinateChart(1)
    zero = parse("0", chart)
    return {
        # L = z1: a zero Hessian
        "degenerate_L": load_problem(os.path.join(REPO, "problems", "failing", "degenerate_L.json")).problem,
        # rows [[2, 2], [2, 2]]: singular, though not zero
        "rank_one": LagrangianProblem(chart, parse("(z1 + zb1)^2", chart), zero),
        # rows [[1, 60], [0, 1]]: a condition number of 61^2 on both legs
        "ill_conditioned": LagrangianProblem(chart, parse("z1*zb1 + 30*zb1^2", chart), zero),
    }


@pytest.mark.parametrize("key", ["degenerate_L", "rank_one", "ill_conditioned"])
def test_a_rejected_constant_hessian_is_rejected_at_every_draw(key):
    p = _rejected_problems()[key]
    got, want = verify._classical_el_oracle(p.L, p.chart), ref_el_oracle(p.L, p.chart)
    rng = random.Random(33)
    for _ in range(20):
        s = verify.random_state(rng, 1)
        assert got(s) is None and want(s) is None
    with pytest.raises(RuntimeError, match="^could not sample enough well-posed states$"):
        verify.check_reduction(p, 5, 1)


def test_a_state_free_hessian_that_raises_at_build_raises_at_every_draw():
    # every second partial of z1*zb1/0 is free of variables, and 1/0 raises
    chart = CoordinateChart(1)
    L = parse("z1*zb1 + z1*zb1/0", chart)
    got, want = verify._classical_el_oracle(L, chart), ref_el_oracle(L, chart)
    rng = random.Random(35)
    for _ in range(5):
        s = verify.random_state(rng, 1)
        assert outcome(got, s) == outcome(want, s)
        assert outcome(got, s).startswith("raised ZeroDivisor")


def test_canon_dev_matches_the_paracomplex_formulation():
    rng = random.Random(4)
    specials = [0.0, -0.0, 1e308, -1e308, float("inf"), float("-inf"), float("nan")]
    values = [ParaComplex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(20)]
    values += [ParaComplex(a, b) for a in specials for b in specials]
    values += [ParaComplex.from_idempotent(u, v) for u in specials for v in specials]
    for x in values:
        for y in values[::3]:
            assert repr(verify._canon_dev(x, y)) == repr(ref_canon_dev(x, y))


# ---------------------------------------------------------------------------
# the Gauss-Jordan solve
# ---------------------------------------------------------------------------


def _systems():
    """Seeded n x n systems, n = 1..4: uniform entries, small integers
    (rank-deficient ones among them are exactly singular), sparse ones, and
    ones with inf and nan."""
    rng = random.Random(11)
    systems = []
    for n in range(1, 5):
        for _ in range(40):
            systems.append(([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)],
                            [rng.uniform(-2, 2) for _ in range(n)]))
            systems.append(([[float(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
                            [float(rng.randint(-2, 2)) for _ in range(n)]))
            systems.append(([[rng.choice([0.0, 0.0, rng.uniform(-9, 9)]) for _ in range(n)] for _ in range(n)],
                            [rng.uniform(-1, 1) for _ in range(n)]))
        row = [rng.uniform(-2, 2) for _ in range(n)]
        systems.append(([list(row) for _ in range(n)], [1.0] * n))  # equal rows
        systems.append(([[0.0] * n for _ in range(n)], [1.0] * n))
        for special in (float("inf"), float("nan"), 1e300):
            a = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            a[rng.randrange(n)][rng.randrange(n)] = special
            systems.append((a, [rng.uniform(-2, 2) for _ in range(n)]))
    systems.append(([[1.0, 5.0], [2.0, 1.0]], [1.0, 2.0]))  # largest entry off the diagonal
    systems.append(([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0]))  # eliminates to an exact zero pivot
    return systems


def _slot_after(n, swaps):
    """The row holding each unknown once the column swaps are made."""
    unknown = list(range(n))
    for k, pc in swaps:
        unknown[k], unknown[pc] = unknown[pc], unknown[k]
    return [unknown.index(j) for j in range(n)]


def test_factor_solve_and_norm_inf_match_the_loops():
    swapped = singular = 0
    for a, b in _systems():
        swaps = []
        want = ref_gauss_jordan(a, b, swaps)
        got = verify._factor(a)
        assert repr(verify._norm_inf(a)) == repr(ref_norm_inf(a))
        if want is None:
            assert got is None
            singular += 1
        else:
            steps, slot, inverse = got
            assert repr((verify._solve(got, b), inverse)) == repr(want)
            assert slot == _slot_after(len(b), swaps)
            assert repr(verify._norm_inf(inverse)) == repr(ref_norm_inf(want[1]))
            # one factorization serves every right-hand side
            for k in range(len(b)):
                unit = [float(i == k) for i in range(len(b))]
                assert repr(verify._solve(got, unit)) == repr(ref_gauss_jordan(a, unit)[0])
        swapped += bool(swaps)
    # both kinds of system ran: column swaps and exactly singular matrices
    assert swapped > 50 and singular > 10
