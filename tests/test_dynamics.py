import ast
import glob
import math
import os
import random
import re
from array import array

import numpy as np
import pytest

from biparamech import dynamics
from biparamech.cli import ProblemFileError, load_problem
from biparamech.dynamics import (
    _TIMED_ERRORS,
    PIVOT_TOL,
    _folded_el_rhs,
    _NonFinite,
    _run_rk4,
    _run_rkf45,
    IntegratorConfig,
    PhaseState,
    StepFailure,
    Trajectory,
    at_state,
    energy_along,
    energy_columns,
    integrate,
    make_el_rhs,
    make_ham_rhs,
    residual_series,
)
from biparamech.eom import (
    DegenerateLagrangian,
    HamiltonianProblem,
    ImplicitODE,
    LagrangianProblem,
    SingularDenominator,
    synthesize_el,
    synthesize_ham,
)
from biparamech.para_algebra import INVERTIBILITY_FLOOR, ONE, ZERO, DomainError, ParaComplex, ZeroDivisor
from biparamech.symbolic import (
    Apply,
    Constant,
    CoordinateChart,
    EvalState,
    Lowering,
    Negate,
    Product,
    Var,
    differentiate,
    lower,
    parse,
    simplify,
    vars_of,
    z_var,
    zb_var,
)
from test_cli import textbook_run_rk4, textbook_run_rkf45

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "problems")

C1 = CoordinateChart(1)
J = ParaComplex(0.0, 1.0)


def pc(a, b=0.0):
    return ParaComplex(a, b)


def close(x, y, tol=1e-12):
    d = x - y
    scale = max(1.0, abs(x), abs(y))
    return abs(d.a) <= tol * scale and abs(d.b) <= tol * scale


def lagrangian(text, lam="0"):
    return LagrangianProblem(C1, parse(text, C1), parse(lam, C1))


def hamiltonian(text, lam="0"):
    return HamiltonianProblem(C1, parse(text, C1), parse(lam, C1))


OSC = lagrangian("z1*zb1")


def trajectory(samples):
    """A Trajectory holding these PhaseState values as its rows."""
    rows = [[x for w in s.z + s.zb for x in (w.a, w.b)] for s in samples]
    return Trajectory([s.t for s in samples], rows)


def el_rhs(ode, s):
    return at_state(make_el_rhs(ode), s)


def ham_rhs(ode, s):
    return at_state(make_ham_rhs(ode), s)


def osc_exact(t):
    # closed form for the EL flow of z1*zb1 from (z1, zb1) = (1, 0)
    return pc(math.cos(t)), pc(0.0, math.sin(t))


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


def solve_legs(mu, bu, mv, bv):
    """The elimination emitted on named entries, as make_el_rhs emits it for
    an M that is not literal: (mu, bu) are the e+ legs of M and b, (mv, bv)
    the e- legs, read from y as the legs of one slot per entry, M's row by
    row and then b's; the legs (xu, xv) of x come back."""
    m = len(bu)
    low = Lowering(tuple(("z", i) for i in range(1, m * m + m + 1)))
    names = [low.legs(z_var(i)) for i in range(1, m * m + m + 1)]
    d = tuple([[leg[side] for leg in names[r : r + m]] for r in range(0, m * m, m)] for side in (0, 1))
    b = tuple([leg[side] for leg in names[m * m :]] for side in (0, 1))
    zero = ([0.0] * m,) * 2
    u = [x for row in mu for x in row] + list(bu)
    v = [x for row in mv for x in row] + list(bv)
    dy = _folded_el_rhs(low, d, b, zero, zero)([leg for pair in zip(u, v) for leg in pair])
    return dy[0::2], dy[1::2]


def solve(M, b):
    """solve_legs on ParaComplex M and b, recombined."""
    xu, xv = solve_legs(
        [[w.u for w in row] for row in M], [w.u for w in b],
        [[w.v for w in row] for row in M], [w.v for w in b],
    )
    return tuple(ParaComplex.from_idempotent(u, v) for u, v in zip(xu, xv))


class TestSolveParaLinear:
    def test_identity(self):
        M = ((ONE, ZERO), (ZERO, ONE))
        b = (pc(2.0, 1.0), pc(-0.5, 3.0))
        assert solve(M, b) == b

    def test_antidiagonal_j(self):
        M = ((ZERO, J), (J, ZERO))
        x = solve(M, (ONE, J))
        assert close(x[0], ONE)
        assert close(x[1], J)

    def test_zero_matrix_degenerate(self):
        M = ((ZERO, ZERO), (ZERO, ZERO))
        with pytest.raises(DegenerateLagrangian):
            solve(M, (ONE, ONE))

    def test_one_component_singular(self):
        # e- component of e+ basis element is zero: matrix diag(e+) is
        # invertible on the plus leg only
        eplus = pc(0.5, 0.5)
        with pytest.raises(DegenerateLagrangian):
            solve(((eplus,),), (ONE,))

    def test_plug_back_random_well_conditioned(self):
        rng = random.Random(101)
        done = 0
        while done < 100:
            m = rng.choice([2, 2, 4])
            raw = [
                [pc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)]
                for _ in range(m)
            ]
            mu = np.array([[w.u for w in row] for row in raw])
            mv = np.array([[w.v for w in row] for row in raw])
            if np.linalg.cond(mu) >= 1e6 or np.linalg.cond(mv) >= 1e6:
                continue
            b = [pc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)]
            x = solve(raw, b)
            scale = max(1.0, max(abs(w) for w in b))
            for i in range(m):
                acc = ZERO
                for k in range(m):
                    acc = acc + raw[i][k] * x[k]
                r = acc - b[i]
                assert max(abs(r.a), abs(r.b)) <= 1e-10 * scale
            done += 1


def textbook_solve(mat, rhs, which, pivots=None):
    """Looped Gaussian elimination with scaled partial pivoting: the
    reference the emitted elimination must match bit for bit.  The pivot
    row chosen at each step is appended to pivots, if given."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    scale = [max(abs(x) for x in row[:n]) for row in a]
    if 0.0 in scale:
        raise DegenerateLagrangian(f"zero row in {which} component system")
    for k in range(n):
        pivot_row = k
        best = abs(a[k][k]) / scale[k]
        for r in range(k + 1, n):
            mag = abs(a[r][k]) / scale[r]
            if mag > best:
                best, pivot_row = mag, r
        if pivots is not None:
            pivots.append((k, pivot_row))
        if abs(a[pivot_row][k]) <= PIVOT_TOL * scale[pivot_row]:
            raise DegenerateLagrangian(f"singular {which} component system")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            scale[k], scale[pivot_row] = scale[pivot_row], scale[k]
        piv = a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / piv
            if f != 0.0:
                arow, krow = a[r], a[k]
                for c in range(k, n + 1):
                    arow[c] -= f * krow[c]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n]
        xrow = a[k]
        for c in range(k + 1, n):
            s -= xrow[c] * x[c]
        x[k] = s / xrow[k]
    return x


def outcome(fn, *args):
    """What a solve does, comparable bit for bit: repr tells -0.0 from 0.0
    and makes nan equal to nan; an exception counts by class and message."""
    try:
        return [[repr(x) for x in leg] for leg in fn(*args)]
    except Exception as exc:
        return type(exc), str(exc)


def textbook_para(mu, bu, mv, bv, pivots=None):
    return textbook_solve(mu, bu, "e+", pivots), textbook_solve(mv, bv, "e-")


def last_row_pivots(m, rng):
    """A leg whose largest scaled entry in column k sits in the last row at
    every step k: a dominant entry per row, rows ordered so that each
    swap brings the next one up from the bottom."""
    order = list(range(m))
    for k in range(m - 2, -1, -1):  # undo the swaps (k, m-1), last first
        order[k], order[m - 1] = order[m - 1], order[k]
    return [[(100.0 if c == order[i] else rng.uniform(-1, 1)) for c in range(m)] for i in range(m)]


class TestEmittedSolveMatchesTextbook:
    """The elimination emitted on named entries against the looped
    reference, m = 1..8."""

    def cases(self, m, rng):
        def leg():
            return [[rng.uniform(-2, 2) for _ in range(m)] for _ in range(m)]

        def vec():
            return [rng.uniform(-2, 2) for _ in range(m)]

        for _ in range(40):  # random, well conditioned
            mu, mv = leg(), leg()
            for i in range(m):
                mu[i][i] += 4.0 * rng.choice((-1, 1))
                mv[i][i] += 4.0 * rng.choice((-1, 1))
            yield mu, vec(), mv, vec()
        for _ in range(40):  # random, pivots land anywhere
            yield leg(), vec(), leg(), vec()
        for _ in range(5):
            yield last_row_pivots(m, rng), vec(), last_row_pivots(m, rng), vec()
        for _ in range(10):  # exact zeros, so multipliers of 0.0 and +-0.0 updates
            mu, mv = leg(), leg()
            for row in mu + mv:
                for c in range(m):
                    if rng.random() < 0.4:
                        row[c] = rng.choice((0.0, -0.0))
            for i in range(m):
                mu[i][i] = mv[i][i] = 3.0
            bu, bv = vec(), vec()
            bu[rng.randrange(m)] = rng.choice((math.inf, -math.inf))
            yield mu, bu, mv, bv

    @pytest.mark.parametrize("m", range(1, 9))
    def test_bit_for_bit(self, m):
        rng = random.Random(800 + m)
        seen = set()
        for mu, bu, mv, bv in self.cases(m, rng):
            pivots = []
            want = outcome(textbook_para, mu, bu, mv, bv, pivots)
            assert outcome(solve_legs, mu, bu, mv, bv) == want
            seen.update(pivots)
        # every unrolled swap branch ran: each candidate row was a pivot
        assert seen >= {(k, r) for k in range(m) for r in range(k + 1, m)}

    @pytest.mark.parametrize("m", range(1, 9))
    def test_last_row_is_the_pivot_at_every_step(self, m):
        rng = random.Random(900 + m)
        mu, mv = last_row_pivots(m, rng), last_row_pivots(m, rng)
        b = [rng.uniform(-2, 2) for _ in range(m)]
        pivots = []
        want = outcome(textbook_para, mu, b, mv, b, pivots)
        assert pivots == [(k, m - 1) for k in range(m)]
        assert outcome(solve_legs, mu, b, mv, b) == want

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_nan_entry(self, m):
        rng = random.Random(m)
        for where in range(m * m + m):
            mu = [[rng.uniform(-2, 2) + 4.0 * (i == c) for c in range(m)] for i in range(m)]
            bu = [rng.uniform(-2, 2) for _ in range(m)]
            if where < m * m:
                mu[where // m][where % m] = math.nan
            else:
                bu[where - m * m] = math.nan
            mv = [row[::-1] for row in mu]
            want = outcome(textbook_para, mu, bu, mv, bu)
            assert outcome(solve_legs, mu, bu, mv, bu) == want

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("leg", ["e+", "e-"])
    @pytest.mark.parametrize("kind", ["zero row in", "singular"])
    def test_singular_leg(self, m, leg, kind):
        rng = random.Random(m)
        good = [[rng.uniform(-1, 1) + 4.0 * (i == c) for c in range(m)] for i in range(m)]
        bad = [list(row) for row in good]
        if kind == "zero row in":
            bad[-1] = [0.0] * m
        else:  # the others' sum, off by far less than PIVOT_TOL of the row scale
            bad[-1] = [sum(row[c] for row in good[:-1]) for c in range(m)]
            bad[-1][-1] += 1e-15
        mu, mv = (bad, good) if leg == "e+" else (good, bad)
        b = [1.0] * m
        got = outcome(solve_legs, mu, b, mv, b)
        assert got == outcome(textbook_para, mu, b, mv, b)
        assert got == (DegenerateLagrangian, f"{kind} {leg} component system")


def folded_legs(mu, bu, mv, bv):
    """The folded solve on literal leg matrices (mu, mv) and b's legs (bu,
    bv), which the function reads from y as the legs of z1..zm; g is zero,
    so c is never read."""
    m = len(bu)
    low = Lowering(tuple(("z", i) for i in range(1, m + 1)))
    b = [low.legs(z_var(i)) for i in range(1, m + 1)]
    b = ([u for u, _ in b], [v for _, v in b])
    dy = _folded_el_rhs(low, (mu, mv), b, b, ([0.0] * m, [0.0] * m))(
        [leg for pair in zip(bu, bv) for leg in pair])
    return dy[0::2], dy[1::2]


class TestFoldedSolveMatchesTextbook:
    """The elimination folded at build time for a literal M, with b read
    from y, against the looped reference, m = 1..4."""

    EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan)

    def cases(self, m, rng):
        def leg():
            return [[rng.uniform(-2, 2) for _ in range(m)] for _ in range(m)]

        def vec():
            return [rng.uniform(-2, 2) for _ in range(m)]

        for _ in range(20):  # random, pivots land anywhere
            yield leg(), vec(), leg(), vec()
        for _ in range(5):  # a build-time row swap at every step
            yield last_row_pivots(m, rng), vec(), last_row_pivots(m, rng), vec()
        for _ in range(20):  # exact zeros: multipliers of +-0.0, updates by +-0.0
            mu, mv = leg(), leg()
            for row in mu + mv:
                for c in range(m):
                    if rng.random() < 0.4:
                        row[c] = rng.choice((0.0, -0.0))
            for i in range(m):
                mu[i][i] = rng.choice((1.0, -1.0, 3.0))
                mv[i][i] = rng.choice((1.0, -1.0, 3.0))
            yield mu, vec(), mv, vec()

    @pytest.mark.parametrize("m", range(1, 5))
    def test_bit_for_bit(self, m):
        rng = random.Random(700 + m)
        seen = set()
        for mu, bu, mv, bv in self.cases(m, rng):
            for trial in range(4):
                if trial:  # b holding +-0.0, +-inf and nan
                    bu, bv = list(bu), list(bv)
                    bu[rng.randrange(m)] = rng.choice(self.EDGES)
                    bv[rng.randrange(m)] = rng.choice(self.EDGES)
                pivots = []
                want = outcome(textbook_para, mu, bu, mv, bv, pivots)
                assert outcome(folded_legs, mu, bu, mv, bv) == want
                seen.update(pivots)
        assert seen >= {(k, r) for k in range(m) for r in range(k + 1, m)}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("leg", ["e+", "e-"])
    @pytest.mark.parametrize("kind", ["zero row in", "singular"])
    def test_singular_leg_raises_at_every_call(self, m, leg, kind):
        good = [[float(i == c) for c in range(m)] for i in range(m)]
        bad = [list(row) for row in good]
        bad[-1] = [0.0] * m if kind == "zero row in" else list(bad[0])
        mu, mv = (bad, good) if leg == "e+" else (good, bad)
        for b in ([1.0] * m, [-0.0] * m, [0.5, -2.0, 7.0][:m]):
            got = outcome(folded_legs, mu, b, mv, b)
            assert got == outcome(textbook_para, mu, b, mv, b)
            assert got == (DegenerateLagrangian, f"{kind} {leg} component system")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_singular_constant_m_with_a_non_finite_b_is_a_non_finite_step(self, bad):
        # a hand-built M is not in synthesize_el's form, but its legs are
        # literals, so its elimination is folded too; its singular pivot
        # becomes _NonFinite when an entry of b is not finite; the legs of M
        # are e+ [[1, 2], [1, 3]] and e- [[1, 2], [2, 4]]
        legs = (((1.0, 1.0), (2.0, 2.0)), ((1.0, 2.0), (3.0, 4.0)))
        m = tuple(tuple(Constant(ParaComplex.from_idempotent(u, v)) for u, v in row) for row in legs)
        rhs = make_el_rhs(ImplicitODE(C1, m, (z_var(1), zb_var(1))))
        with pytest.raises(DegenerateLagrangian, match="^singular e- component system$"):
            rhs([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(_NonFinite):
            rhs([1.0, 2.0, bad, 4.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_singular_m_that_is_not_literal_fails_by_the_same_rule(self, bad):
        # a hand-built M with Var entries is eliminated on its lowered legs
        # at every call; its e+ block [[u(z1), u(zb1)], [u(zb1), u(z1)]] is
        # singular where u(z1) = u(zb1), and a non-finite e- leg of b alone
        # makes that pivot a non-finite step
        z1, zb1, z2, zb2 = z_var(1), zb_var(1), z_var(2), zb_var(2)
        zero, one = Constant(ZERO), Constant(ONE)
        m = ((z1, zb1, zero, zero), (zb1, z1, zero, zero), (zero, zero, one, zero), (zero, zero, zero, one))
        rhs = make_el_rhs(ImplicitODE(CoordinateChart(2), m, (z2, zb2, one, one)))
        assert rhs.__name__ == "lowered"
        for u in (2.0, -0.5, 0.0625):  # y holds the legs of z1, z2, zb1 and zb2
            with pytest.raises(DegenerateLagrangian, match="^singular e\\+ component system$"):
                rhs([u, 1.0, 0.5, 0.25, u, 3.0, 0.5, 0.25])
        with pytest.raises(_NonFinite):
            rhs([2.0, 1.0, 0.5, bad, 2.0, 3.0, 0.5, 0.25])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_synthesized_singular_m_stays_folded_and_raises_at_every_call(self, bad):
        # L = z1^2 with lam = 0: dL/dzb1 = 0, so M's e+ rows are zero; the
        # pivot check fails at build time, and still becomes _NonFinite when
        # an entry of b = (-2*z1, 0) is not finite
        rhs = make_el_rhs(synthesize_el(lagrangian("z1^2")))
        assert rhs.__name__ == "lowered"  # folded
        for y in ([1.0, 2.0, 3.0, 4.0], [0.0, -0.0, 0.5, 0.5]):
            with pytest.raises(DegenerateLagrangian, match="^zero row in e\\+ component system$"):
                rhs(y)
        with pytest.raises(_NonFinite):
            rhs([bad, 2.0, 3.0, 4.0])


def textbook_rank_one(d, b, c, g, which):
    """Looped Sherman-Morrison on one leg: x in (D + c*g^T)*x = b from
    textbook_solve's D^-1 b and D^-1 c, where an entry of g that is None
    is a literal zero whose terms are left out.  The reference the folded
    rank-one solve must match bit for bit."""
    yb = textbook_solve(d, b, which)
    terms = [i for i, gi in enumerate(g) if gi is not None]
    if not terms:
        return yb
    yc = textbook_solve(d, c, which)
    q = [g[i] * yc[i] for i in terms]
    dot = q[0]
    for x in q[1:]:
        dot += x
    den = 1.0 + dot
    scale = 1.0
    for x in q:
        scale += abs(x)
    if abs(den) <= PIVOT_TOL * scale:
        if math.isfinite(den):
            raise DegenerateLagrangian(f"singular {which} component system")
        raise _NonFinite
    num = g[terms[0]] * yb[terms[0]]
    for i in terms[1:]:
        num += g[i] * yb[i]
    k = num / den
    return [yb[i] - yc[i] * k for i in range(len(yb))]


def textbook_rank_one_para(d, b, c, g):
    return tuple(textbook_rank_one(d[side], b[side], c[side], g[side], which)
                 for side, which in ((0, "e+"), (1, "e-")))


def rank_one_legs(d, b, c, g):
    """The folded rank-one solve on literal leg matrices d = (du, dv), with
    the legs of b, c and g read from y as the legs of z1..z3m; an entry of
    g that is None is a literal zero."""
    m = len(b[0])
    low = Lowering(tuple(("z", i) for i in range(1, 3 * m + 1)))
    legs = [low.legs(z_var(i)) for i in range(1, 3 * m + 1)]
    names = tuple([leg[side] for leg in legs] for side in (0, 1))
    gl = tuple([0.0 if gi is None else name for gi, name in zip(g[side], names[side][2 * m :])] for side in (0, 1))
    fn = _folded_el_rhs(low, d, tuple(n[:m] for n in names), tuple(n[m : 2 * m] for n in names), gl)
    dy = fn([0.0 if x is None else x for vec in (b, c, g) for pair in zip(*vec) for x in pair])
    return dy[0::2], dy[1::2]


class TestRankOneSolveMatchesTextbook:
    """The folded elimination on a literal D with the Sherman-Morrison update
    for (D + c*g^T)*x = b, with b, c and g read from y, against the looped
    reference, m = 2..8."""

    EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan)

    def cases(self, m, rng):
        def mat():
            a = [[rng.uniform(-2, 2) for _ in range(m)] for _ in range(m)]
            for i in range(m):
                a[i][i] += 4.0 * rng.choice((-1, 1))
            return a

        def vec():
            return [rng.uniform(-2, 2) for _ in range(m)]

        for trial in range(30):
            d, b, c, g = (mat(), mat()), (vec(), vec()), (vec(), vec()), (vec(), vec())
            if trial % 3 == 1:  # exact zeros in D, b, c and g, and literal zeros in g
                for a in d:
                    for i in range(m):
                        for k in range(m):
                            if i != k and rng.random() < 0.3:
                                a[i][k] = rng.choice((0.0, -0.0))
                for vs in b + c + g:
                    for i in range(m):
                        if rng.random() < 0.3:
                            vs[i] = rng.choice((0.0, -0.0))
                for vs in g:
                    for i in range(m):
                        if rng.random() < 0.3:
                            vs[i] = None
            if trial % 3 == 2:  # a non-finite leg of b or c
                vs = rng.choice(b + c)
                vs[rng.randrange(m)] = rng.choice(self.EDGES)
            if trial % 5 == 4:  # b = +-0, as at an equilibrium
                b = tuple([rng.choice((0.0, -0.0)) for _ in range(m)] for _ in "uv")
            if trial == 3:  # a g that is a literal zero on the e- leg
                g = (g[0], [None] * m)
            yield d, b, c, g

    @pytest.mark.parametrize("m", range(2, 9))
    def test_bit_for_bit(self, m):
        rng = random.Random(600 + m)
        outcomes = set()
        for d, b, c, g in self.cases(m, rng):
            want = outcome(textbook_rank_one_para, d, b, c, g)
            assert outcome(rank_one_legs, d, b, c, g) == want
            outcomes.add(type(want))
        assert list in outcomes

    @pytest.mark.parametrize("m", range(2, 9))
    def test_the_update_solves_the_assembled_system(self, m):
        # the reference itself: D + c*g^T solved by elimination agrees
        rng = random.Random(500 + m)
        for d, b, c, g in self.cases(m, rng):
            if not all(math.isfinite(x) for vs in b + c for x in vs):
                continue
            for side in (0, 1):
                gs = [0.0 if x is None else x for x in g[side]]
                full = [[d[side][i][k] + c[side][i] * gs[k] for k in range(m)] for i in range(m)]
                if np.linalg.cond(np.array(full)) > 1e6:
                    continue
                got = textbook_rank_one(d[side], b[side], c[side], g[side], "e+")
                want = textbook_solve(full, b[side], "e+")
                assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9 * max(1.0, *map(abs, want))

    @pytest.mark.parametrize("m", [2, 5, 8])
    @pytest.mark.parametrize("leg", ["e+", "e-"])
    def test_a_singular_scalar_names_its_leg(self, m, leg):
        # g = -yc/|yc|^2 puts 1 + g.yc within rounding of zero; a g off by
        # a millionth leaves a scalar far above PIVOT_TOL
        rng = random.Random(m)
        d = tuple([[rng.uniform(-1, 1) + 4.0 * (i == k) for k in range(m)] for i in range(m)] for _ in "uv")
        b = tuple([rng.uniform(-2, 2) for _ in range(m)] for _ in "uv")
        c = tuple([rng.uniform(-2, 2) for _ in range(m)] for _ in "uv")
        side = 0 if leg == "e+" else 1
        yc = textbook_solve(d[side], c[side], leg)
        norm = sum(x * x for x in yc)
        for shift, singular in ((1.0, True), (1.0 - 1e-6, False)):
            g = [[rng.uniform(-2, 2) for _ in range(m)] for _ in "uv"]
            g[side] = [-shift * x / norm for x in yc]
            got = outcome(rank_one_legs, d, b, c, tuple(g))
            assert got == outcome(textbook_rank_one_para, d, b, c, tuple(g))
            assert (got == (DegenerateLagrangian, f"singular {leg} component system")) == singular

    def test_a_non_finite_scalar_is_a_non_finite_step(self):
        d = ([[1.0, 0.0], [0.0, 1.0]],) * 2
        b, g = ([1.0, 1.0],) * 2, ([1.0, 1.0],) * 2
        with pytest.raises(_NonFinite):
            rank_one_legs(d, b, ([math.inf, 1.0], [1.0, 1.0]), g)

    def test_a_singular_d_is_left_to_the_general_solver(self):
        low = Lowering((("z", 1),))
        u, v = low.legs(z_var(1))
        d = ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert _folded_el_rhs(low, d, ([u, v], [u, v]), ([u, v], [u, v]), ([u, v], [u, v])) is None


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


class TestElRhs:
    def test_bilinear_at_unit_state(self):
        ode = synthesize_el(OSC)
        dz, dzb = el_rhs(ode, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)))
        assert close(dz[0], pc(0.0))
        assert close(dzb[0], J)

    def test_equilibrium(self):
        ode = synthesize_el(OSC)
        dz, dzb = el_rhs(ode, PhaseState(t=0.0, z=(pc(0.0),), zb=(pc(0.0),)))
        assert dz[0] == ZERO and dzb[0] == ZERO

    def test_degenerate_linear_lagrangian(self):
        ode = synthesize_el(lagrangian("z1"))
        with pytest.raises(DegenerateLagrangian) as exc:
            el_rhs(ode, PhaseState(t=1.5, z=(pc(1.0),), zb=(pc(1.0),)))
        assert exc.value.t == 1.5

    def test_linear_lagrangian_raises_at_every_call_with_its_time(self):
        # M = 0 is known when the right-hand side is built, and the zero row
        # is still reported at each call, with that call's time
        ode = synthesize_el(lagrangian("z1"))
        for t, z in ((0.0, pc(0.5, 0.1)), (2.25, pc(-3.0, 1.0)), (7.0, pc(0.0))):
            with pytest.raises(DegenerateLagrangian) as exc:
                el_rhs(ode, PhaseState(t=t, z=(z,), zb=(pc(0.2),)))
            assert str(exc.value) == f"zero row in e+ component system at t={t!r}"
            assert exc.value.t == t

    def test_overflowed_entry_is_a_step_failure(self):
        # 1560*zb1^38 is inf in M at zb1 = 1e10, so every pivot fails its
        # row scale; the state is finite and the system is not degenerate
        p = lagrangian("z1*zb1 + zb1^40")
        s = PhaseState(t=0.5, z=(pc(1.0),), zb=(pc(1e10),))
        with pytest.raises(StepFailure, match=r"^state left the finite domain at t=0\.5$"):
            el_rhs(synthesize_el(p), s)
        with pytest.raises(StepFailure, match=r"^state left the finite domain at t=0\.5$"):
            energy_along(p, trajectory([s]))

    def test_conformal_factor_scales_velocity(self):
        ode = synthesize_el(lagrangian("z1*zb1", lam="0.5"))
        s = PhaseState(t=0.0, z=(pc(0.0),), zb=(pc(1.0),))
        dz, _ = el_rhs(ode, s)
        assert close(dz[0], -J * pc(math.exp(-0.5)))


class TestAtState:
    @pytest.mark.parametrize(
        "error",
        [DegenerateLagrangian("singular e+ component system"), SingularDenominator("D-"),
         ZeroDivisor("zero-divisor denominator in '1/z1'"), DomainError("domain failure in 'ln(z1)'")],
        ids=["degenerate", "singular", "zero-divisor", "domain"],
    )
    def test_a_state_without_time_re_raises_the_very_error(self, error):
        def rhs(y):
            raise error

        s = EvalState(z=(pc(1.0),), zb=(pc(0.5),))
        with pytest.raises(type(error)) as exc:
            at_state(rhs, s)
        assert exc.value is error
        assert str(exc.value) == str(error)

    @pytest.mark.parametrize(
        "error",
        [ZeroDivisor("zero-divisor denominator in '1/z1'"), DomainError("domain failure in 'ln(z1)'")],
        ids=["zero-divisor", "domain"],
    )
    def test_a_state_with_time_names_it(self, error):
        def rhs(y):
            raise error

        s = PhaseState(t=0.25, z=(pc(1.0),), zb=(pc(0.5),))
        with pytest.raises(type(error)) as exc:
            at_state(rhs, s)
        assert str(exc.value) == f"{error} at t=0.25"


class TestHamRhs:
    def test_bilinear(self):
        ode = synthesize_ham(hamiltonian("z1*zb1"))
        s = PhaseState(t=0.0, z=(pc(2.0, 1.0),), zb=(pc(0.5),))
        dz, dzb = ham_rhs(ode, s)
        assert close(dz[0], -J * s.z[0])
        assert close(dzb[0], J * s.zb[0])

    def test_singular_state_raises_with_time(self):
        ode = synthesize_ham(hamiltonian("z1*zb1", lam="2*z1 - 2"))
        s = PhaseState(t=0.75, z=(pc(1.0),), zb=(pc(0.5),))
        with pytest.raises(SingularDenominator) as exc:
            ham_rhs(ode, s)
        assert exc.value.which == "D-"
        assert exc.value.t == 0.75

    def test_a_nan_denominator_leg_is_no_singular_denominator(self):
        # the zero-divisor test is Lowering.zero_test's: a nan leg of D+ or
        # D- passes it, and the flow comes back non-finite for the stepper
        rhs = make_ham_rhs(synthesize_ham(hamiltonian("z1*zb1", lam="0.2*z1*zb1")))
        dy = rhs([math.nan, 0.5, 0.3, 0.2])
        assert not all(map(math.isfinite, dy))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


class TestIntegratorConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler", t0=0.0, t1=1.0, dt=0.1)

    def test_rk4_needs_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", t0=0.0, t1=1.0)

    def test_rkf45_needs_tol(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rkf45", t0=0.0, t1=1.0)

    def test_time_order(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4", t0=1.0, t1=1.0, dt=0.1)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_rejects_an_infinite_dt(self, method):
        # RK4's first step would start at t_a = 0*inf = nan
        with pytest.raises(ValueError, match="^dt must be finite$"):
            IntegratorConfig(method, 0.0, 1.0, dt=math.inf, tol=1e-9)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_rejects_an_infinite_tol(self, method):
        # RKF45 would accept every trial step, with its error control off
        with pytest.raises(ValueError, match="^tol must be finite$"):
            IntegratorConfig(method, 0.0, 1.0, dt=0.1, tol=math.inf)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 2.0, "3"])
    def test_max_steps_must_be_an_integer(self, budget):
        # a nan budget fails every comparison, so no stepper would stop on it
        with pytest.raises(ValueError, match="^max_steps must be an integer$"):
            IntegratorConfig("rk4", 0.0, 1.0, dt=1e-320, max_steps=budget)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_infinite_span(self, method):
        # finite ends whose difference overflows
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(method=method, t0=-1e308, t1=1e308, dt=0.1, tol=1e-9)


class TestIntegrate:
    def test_zero_rhs_constant_trajectory(self):
        rhs = lambda y: [0.0] * 4
        s0 = PhaseState(t=0.0, z=(pc(1.25, -0.5),), zb=(pc(2.0),))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=0.125)
        tr = integrate(rhs, s0, cfg)
        assert len(tr.samples) == 9
        for s in tr.samples:
            assert s.z[0] == s0.z[0]
            assert s.zb[0] == s0.zb[0]
        assert tr.samples[0].t == 0.0
        assert tr.samples[-1].t == 1.0

    def test_times_strictly_increasing(self):
        rhs = make_el_rhs(synthesize_el(OSC))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=0.05, dt=1e-3)
        tr = integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        ts = tr.times
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_oscillator_rk4_half_period(self):
        rhs = make_el_rhs(synthesize_el(OSC))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=math.pi, dt=1e-3)
        tr = integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        end = tr.samples[-1]
        assert end.t == math.pi
        assert abs(end.z[0].a - (-1.0)) <= 1e-8
        assert abs(end.z[0].b) <= 1e-8
        assert abs(end.zb[0].a) <= 1e-8
        assert abs(end.zb[0].b) <= 1e-8

    def test_linear_decay_closed_form(self):
        # dz1/dt = -j*z1 from 1: z1(t) = cosh(t) - j*sinh(t); on the legs
        # -j maps (u, v) to (-u, v)
        rhs = lambda y: [-y[0], y[1], 0.0, 0.0]
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=1e-3)
        tr = integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        end = tr.samples[-1].z[0]
        assert abs(end.a - math.cosh(1.0)) <= 1e-8
        assert abs(end.b - (-math.sinh(1.0))) <= 1e-8

    def test_rkf45_oscillator(self):
        rhs = make_el_rhs(synthesize_el(OSC))
        cfg = IntegratorConfig(method="rkf45", t0=0.0, t1=math.pi, tol=1e-10)
        tr = integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        end = tr.samples[-1]
        assert end.t == math.pi
        assert abs(end.z[0].a - (-1.0)) <= 1e-7
        assert abs(end.zb[0].b) <= 1e-7

    def test_rkf45_matches_rk4_endpoint(self):
        ode = synthesize_ham(hamiltonian("z1*zb1 + 0.1*z1^2", lam="0.7"))
        rhs = make_ham_rhs(ode)
        s0 = PhaseState(t=0.0, z=(pc(0.55, 0.45),), zb=(pc(0.15, 0.05),))
        fine = integrate(
            rhs, s0, IntegratorConfig(method="rk4", t0=0.0, t1=2.0, dt=1e-4)
        )
        adaptive = integrate(
            rhs, s0, IntegratorConfig(method="rkf45", t0=0.0, t1=2.0, tol=1e-10)
        )
        a, b = fine.samples[-1], adaptive.samples[-1]
        assert abs(a.z[0].a - b.z[0].a) <= 1e-7
        assert abs(a.z[0].b - b.z[0].b) <= 1e-7
        assert abs(a.zb[0].a - b.zb[0].a) <= 1e-7
        assert abs(a.zb[0].b - b.zb[0].b) <= 1e-7

    def test_rk4_order_ratio(self):
        rhs = make_el_rhs(synthesize_el(OSC))
        s0 = PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),))

        def endpoint_error(dt):
            cfg = IntegratorConfig(method="rk4", t0=0.0, t1=math.pi, dt=dt)
            end = integrate(rhs, s0, cfg).samples[-1]
            ez, ezb = osc_exact(end.t)
            return max(
                abs(end.z[0].a - ez.a),
                abs(end.z[0].b - ez.b),
                abs(end.zb[0].a - ezb.a),
                abs(end.zb[0].b - ezb.b),
            )

        errs = [endpoint_error(dt) for dt in (2e-2, 1e-2, 5e-3)]
        for big, small in zip(errs, errs[1:]):
            assert 12.0 <= big / small <= 20.0

    def test_stepfailure_on_blowup(self):
        rhs = lambda y: [math.inf, math.inf, 0.0, 0.0]
        cfg = IntegratorConfig(method="rkf45", t0=0.0, t1=1.0, tol=1e-8)
        with pytest.raises(StepFailure):
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)

    def test_rk4_nonfinite_state_fails_with_time(self):
        rhs = lambda y: [math.inf, math.inf, 0.0, 0.0]
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=0.25)
        with pytest.raises(StepFailure) as exc:
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        assert exc.value.t is not None

    def test_max_steps_guard(self):
        rhs = lambda y: [0.0] * 4
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=1e-3, max_steps=10)
        with pytest.raises(StepFailure):
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)

    def test_infinite_step_count_hits_max_steps(self):
        rhs = lambda y: [0.0] * 4
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1e300, dt=1e-300)
        with pytest.raises(StepFailure, match="exceed max_steps") as exc:
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        assert exc.value.t == 0.0

    @pytest.mark.parametrize("cfg, h", [
        # at t = 1e15 floats are 0.125 apart: t + 0.01 is t
        (IntegratorConfig("rk4", 1e15, 1e15 + 1.0, dt=0.01), 0.0),
        # the end slack 1e-15*max(1, |t1|) holds the whole span
        (IntegratorConfig("rkf45", 1e15, 1e15 + 1.0, tol=1e-9), 1.0),
        (IntegratorConfig("rkf45", 0.0, 1e-16, tol=1e-9), 1e-16),
    ], ids=["rk4", "rkf45_span", "rkf45_small_span"])
    def test_a_step_that_cannot_move_t_fails_at_its_start(self, cfg, h):
        rhs = lambda y: [0.0] * 4
        with pytest.raises(StepFailure) as exc:
            integrate(rhs, PhaseState(t=cfg.t0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        assert str(exc.value) == f"step size underflow (h={h!r}) at t={cfg.t0!r}"

    def test_an_rkf45_step_below_the_spacing_of_t_fails(self):
        # a fast rotation needs steps far below 0.125, the spacing of floats
        # at t = 1e15: the step that would leave t where it is fails there
        # instead of being taken
        rhs = lambda y: [-1e4 * y[1], 1e4 * y[0], 0.0, 0.0]
        cfg = IntegratorConfig("rkf45", 1e15, 1e15 + 100.0, tol=1e-9, max_steps=1000)
        with pytest.raises(StepFailure, match="^step size underflow") as exc:
            integrate(rhs, PhaseState(t=cfg.t0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        assert exc.value.t == 1e15

    def test_degenerate_rhs_error_carries_time(self):
        ode = synthesize_el(lagrangian("z1"))
        rhs = make_el_rhs(ode)
        cfg = IntegratorConfig(method="rk4", t0=2.0, t1=3.0, dt=0.5)
        with pytest.raises(DegenerateLagrangian) as exc:
            integrate(rhs, PhaseState(t=2.0, z=(pc(1.0),), zb=(pc(1.0),)), cfg)
        assert exc.value.t == 2.0


class TestTrajectory:
    def test_samples_are_a_read_only_view_built_once(self):
        tr = Trajectory(times=[0.0, 1.0], rows=[[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.25, -0.25]])
        first = tr.samples
        assert tr.samples is first
        assert first[1] == PhaseState(t=1.0, z=(pc(0.5, 0.5),), zb=(pc(0.25, -0.25),))
        with pytest.raises(AttributeError):
            tr.samples = []
        with pytest.raises(AttributeError):
            first.append(first[0])

    def test_integrate_rows_are_a_b_of_the_step_legs(self):
        # dz1/dt = z1 on the legs: each step scales both legs alike
        rhs = lambda y: [y[0], y[1], 0.0, 0.0]
        s0 = PhaseState(t=0.0, z=(pc(0.4, 0.1),), zb=(pc(0.3, -0.1),))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=0.3, dt=0.1)
        tr = integrate(rhs, s0, cfg)
        assert tr.rows[0] == [0.4, 0.1, 0.3, -0.1]
        assert len(tr.times) == len(tr.rows) == 4
        for t, row, s in zip(tr.times, tr.rows, tr.samples):
            assert s.t == t
            assert [s.z[0].a, s.z[0].b, s.zb[0].a, s.zb[0].b] == row
        # zb1 stands still, and each later row is rebuilt from its legs
        u, v = s0.zb[0].u, s0.zb[0].v
        assert tr.rows[-1][2:] == [(u + v) / 2.0, (u - v) / 2.0]

    @pytest.mark.parametrize("name", ["el_coupled.json", "ham_curved.json"])
    def test_rows_view_reads_as_the_lists_it_holds(self, name):
        # integrate keeps the rows in one flat array (RK4 on n = 2, RKF45 on
        # n = 1); a trajectory built from the same rows as lists reads alike
        lp = load_problem(os.path.join(PROBLEMS, name))
        tr = integrate(lp.rhs(), lp.start(), lp.config())
        cells, w = list(tr.rows.flat), 4 * lp.n
        lists = [cells[k:k + w] for k in range(0, len(cells), w)]
        built = Trajectory(list(tr.times), lists)
        n = len(lists)
        assert n == len(tr.times) > 10
        for view in (tr.rows, built.rows):
            assert len(view) == n
            assert view[0] == lists[0] and view[-1] == lists[-1] and view[-n] == lists[0]
            assert view[3:9] == lists[3:9] and view[-4:] == lists[-4:] and view[::5] == lists[::5]
            assert view[9:3] == [] and view[n:] == []
            assert list(view) == lists
            assert all(type(row) is list for row in view)
            for k in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[k]
            with pytest.raises(TypeError):
                view[0] = lists[0]
        assert built.samples == tr.samples
        assert [s.t for s in tr.samples] == list(tr.times)

    def test_rows_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory([0.0, 1.0], [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# residual audit
# ---------------------------------------------------------------------------


def _osc_trajectory(dt=1e-3, t1=math.pi):
    rhs = make_el_rhs(synthesize_el(OSC))
    cfg = IntegratorConfig(method="rk4", t0=0.0, t1=t1, dt=dt)
    return integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)


def whole_list_residual_series(p, tr):
    """The reference for residual_series' three-row window: the roots of
    every row evaluated first and held in one list."""
    times = tr.times
    out = [math.nan] * len(times)
    if len(times) < 3:
        return out
    n = p.chart.n
    fn = lower(dynamics._series_roots(p), p.chart.slots())
    # the legs (a+b, a-b) of each row, as ParaComplex(a, b) computes them
    vals = [fn([x for a, b in zip(row[::2], row[1::2]) for x in (a + b, a - b)]) for row in tr.rows]
    for k in range(1, len(times) - 1):
        h1 = times[k] - times[k - 1]
        h2 = times[k + 1] - times[k]
        denom = h1 * h2 * (h1 + h2)
        wm = -h2 * h2 / denom
        w0 = (h2 * h2 - h1 * h1) / denom
        wp = h1 * h1 / denom
        here = vals[k]
        rate = [wm * a + w0 * b + wp * c for a, b, c in zip(vals[k - 1], here, vals[k + 1])]
        worst = 0.0
        for i in range(n):
            a, b, lz, lzb = 2 * i, 2 * (n + i), 2 * (2 * n + i), 2 * (3 * n + i)
            worst = max(
                worst,
                abs(rate[a] + here[lz]),
                abs(here[lz + 1] - rate[a + 1]),
                abs(rate[b] - here[lzb]),
                abs(rate[b + 1] + here[lzb + 1]),
            )
        out[k] = worst
    return out


class TestResidualSeries:
    def test_oscillator_passes(self):
        tr = _osc_trajectory()
        res = residual_series(OSC, tr)
        assert math.isnan(res[0]) and math.isnan(res[-1])
        interior = res[1:-1]
        assert interior
        assert max(interior) <= 1e-5

    def test_equilibrium_constant_trajectory(self):
        # L with a genuine stationary point at z1 = zb1 = 1
        p = lagrangian("z1*zb1 - z1 - zb1")
        rhs = lambda y: [0.0] * 4
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=0.01)
        tr = integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(1.0),)), cfg)
        res = residual_series(p, tr)
        assert max(res[1:-1]) <= 1e-12

    def test_mismatched_lagrangian_is_loud(self):
        tr = _osc_trajectory(dt=5e-3)
        res = residual_series(lagrangian("z1^2*zb1 + 0.3*zb1^2"), tr)
        assert max(res[1:-1]) > 1e-2

    @pytest.mark.parametrize("case", ["el_quadratic.json", "el_coupled.json", "shortened"])
    def test_three_row_window_matches_the_whole_list(self, case):
        # the roots of three rows at a time give the residuals of every row's
        # roots held at once, bit for bit; the RK4 run with dt = 0.007 on
        # [0, 1] shortens its last step to land on t1
        if case == "shortened":
            p, tr = OSC, _osc_trajectory(dt=0.007, t1=1.0)
            assert tr.times[-1] == 1.0 and tr.times[-1] - tr.times[-2] < 0.0065
        else:
            lp = load_problem(os.path.join(PROBLEMS, case))
            p, tr = lp.problem, integrate(lp.rhs(), lp.start(), lp.config())
        got = residual_series(p, tr)
        assert [x.hex() for x in got] == [x.hex() for x in whole_list_residual_series(p, tr)]
        assert len(got) == len(tr.times) > 100 and all(math.isfinite(x) for x in got[1:-1])

    @pytest.mark.parametrize("cone", [0, 1, 3])
    def test_a_failing_root_names_its_sample_time(self, cone):
        # (z1 - 1)/(z1 - 1) is lam's quotient, and exp(lam) is a root; at
        # z1 = 1.5 + 0.5j, z1 - 1 has the legs (1, 0), a zero divisor.  The
        # window reads the first two rows, then one row per step
        p = lagrangian("z1*zb1", "(z1 - 1)/(z1 - 1)")
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = [[0.5, 0.1, 0.2, 0.0] for _ in times]
        rows[cone] = [1.5, 0.5, 0.2, 0.0]
        with pytest.raises(ZeroDivisor) as failed:
            residual_series(p, Trajectory(times, rows))
        assert str(failed.value) == f"zero-divisor denominator in '(-1 + z1)/(-1 + z1)' at t={times[cone]!r}"

    def test_short_trajectory_all_nan(self):
        tr = trajectory(
            [
                PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(1.0),)),
                PhaseState(t=1.0, z=(pc(1.0),), zb=(pc(1.0),)),
            ]
        )
        res = residual_series(OSC, tr)
        assert all(math.isnan(r) for r in res)


# ---------------------------------------------------------------------------
# energy sampling
# ---------------------------------------------------------------------------


class TestEnergyAlong:
    def test_hamiltonian_directly_evaluated(self):
        p = hamiltonian("z1*zb1")
        tr = trajectory(
            [PhaseState(t=0.0, z=(pc(2.0),), zb=(pc(3.0),))]
        )
        vals = energy_along(p, tr)
        assert close(vals[0], pc(6.0))

    def test_hamiltonian_conserved_on_flow(self):
        p = hamiltonian("z1*zb1 + 0.1*z1^2", lam="0.7")
        rhs = make_ham_rhs(synthesize_ham(p))
        s0 = PhaseState(t=0.0, z=(pc(0.55, 0.45),), zb=(pc(0.15, 0.05),))
        tr = integrate(
            rhs, s0, IntegratorConfig(method="rkf45", t0=0.0, t1=2.0, tol=1e-10)
        )
        vals = energy_along(p, tr)
        drift = max(
            max(abs(v.a - vals[0].a), abs(v.b - vals[0].b)) for v in vals
        )
        assert drift <= 1e-8

    @pytest.mark.parametrize("problem", [hamiltonian, lagrangian], ids=["hamiltonian", "lagrangian"])
    def test_a_domain_failure_names_the_sample_time(self, problem):
        # ln(z1) at z1 = -1 is only in the energy, not in the right-hand side
        p = problem("z1*zb1 + ln(z1)")
        tr = trajectory([PhaseState(t=0.0, z=(pc(2.0),), zb=(pc(0.5),)),
                         PhaseState(t=0.5, z=(pc(-1.0),), zb=(pc(0.5),))])
        with pytest.raises(DomainError, match=r"^domain failure in 'ln\(z1\)' at t=0\.5$"):
            energy_along(p, tr)

    @pytest.mark.parametrize("name", ["ham_curved.json", "el_conformal.json"])
    def test_float_columns_are_energy_along_bit_for_bit(self, name):
        # the CLI's energy columns, with no ParaComplex per sample: a conformal
        # Hamiltonian, and a conformal Lagrangian through its EL solve
        lp = load_problem(os.path.join(PROBLEMS, name))
        tr = integrate(lp.rhs(), lp.start(), lp.config())
        col_a, col_b = energy_columns(lp.problem, tr)
        values = energy_along(lp.problem, tr)
        assert len(col_a) == len(col_b) == len(values) == len(tr.times)
        assert [x.hex() for x in col_a] == [e.a.hex() for e in values]
        assert [x.hex() for x in col_b] == [e.b.hex() for e in values]

    def test_float_columns_name_the_failing_sample_time(self):
        p = hamiltonian("z1*zb1 + ln(z1)")
        tr = trajectory([PhaseState(t=0.0, z=(pc(2.0),), zb=(pc(0.5),)),
                         PhaseState(t=0.5, z=(pc(-1.0),), zb=(pc(0.5),))])
        with pytest.raises(DomainError, match=r"^domain failure in 'ln\(z1\)' at t=0\.5$"):
            energy_columns(p, tr)

    def test_lagrangian_uses_solved_velocities(self):
        # E_L for L = z1*zb1 along its own flow: with xi1 = -j*zb1 and
        # xib1 = j*z1, each velocity term contributes +z1*zb1 (j^2 = +1),
        # so E_L = 2*z1*zb1 - L = z1*zb1
        p = OSC
        tr = _osc_trajectory(dt=1e-2, t1=0.1)
        vals = energy_along(p, tr)
        for s, v in zip(tr.samples, vals):
            want = s.z[0] * s.zb[0]
            assert close(v, want, 1e-10)


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        IntegratorConfig(method="rk4", t0=0.0, t1=0.01, dt=0.005),
        IntegratorConfig(method="rkf45", t0=0.0, t1=0.01, tol=1e-9),
    ],
    ids=["rk4", "rkf45"],
)
def test_first_sample_is_the_start_state(cfg):
    # el_conformal.json's start; (0.4, 0.1) does not survive a round trip
    # through the legs, so the first sample must not be rebuilt from them
    z0 = pc(0.4, 0.1)
    assert ParaComplex.from_idempotent(z0.u, z0.v) != z0
    rhs = make_el_rhs(synthesize_el(lagrangian("z1*zb1", lam="0.1*z1")))
    tr = integrate(rhs, PhaseState(t=0.0, z=(z0,), zb=(pc(0.3, -0.1),)), cfg)
    first = tr.samples[0]
    assert (first.z[0].a, first.z[0].b) == (0.4, 0.1)
    assert (first.zb[0].a, first.zb[0].b) == (0.3, -0.1)
    assert len(tr.samples) > 1


def textbook_el_rhs(ode):
    """make_el_rhs rebuilt on the looped reference solve: M and b from
    lower(), split into their e+ and e- legs."""
    m = 2 * ode.chart.n
    values = lower(tuple(e for row in ode.M for e in row) + ode.b, ode.chart.slots())

    def rhs(y):
        out = values(y)
        us, vs = out[0::2], out[1::2]
        xu, xv = textbook_para(
            [us[r : r + m] for r in range(0, m * m, m)], us[m * m :],
            [vs[r : r + m] for r in range(0, m * m, m)], vs[m * m :],
        )
        return [leg for pair in zip(xu, xv) for leg in pair]

    return rhs


def textbook_conformal_el_rhs(p):
    """make_el_rhs for a conformal Lagrangian with a constant Hessian H,
    rebuilt on textbook_rank_one from L's and lam's own partials: on each
    leg, (j*H + c*(j*g)^T)*x = (exp(-lam)*b[:n], exp(lam)*b[n:]) with
    b = (-dL/dz, dL/dzb), c = (b[n:], b[:n]) and g = grad(lam); a leg of g
    that lowers to a literal zero is left out."""
    chart = p.chart
    n, slots = chart.n, chart.slots()
    lz = [differentiate(p.L, z_var(i)) for i in chart.indices()]
    lzb = [differentiate(p.L, zb_var(i)) for i in chart.indices()]
    low = Lowering(slots)
    h = [[low.legs(differentiate(f, Var(*s))) for s in slots] for f in lzb + lz]
    d = ([[u for u, _ in row] for row in h], [[-v for _, v in row] for row in h])
    grad = [simplify(differentiate(p.lam, Var(*s))) for s in slots]
    zero = [[isinstance(leg, float) and leg == 0.0 for leg in low.legs(e)] for e in grad]
    exps = (simplify(Apply("exp", p.lam)), simplify(Apply("exp", Negate(p.lam))))
    values = lower(exps + tuple(grad) + tuple(Negate(e) for e in lz) + tuple(lzb), slots)

    def rhs(y):
        out = values(y)
        legs = [out[k : k + 2] for k in range(0, len(out), 2)]
        grow, shrink, g, b = legs[0], legs[1], legs[2 : 2 + 2 * n], legs[2 + 2 * n :]
        x = []
        for side, sign, which in ((0, 1.0, "e+"), (1, -1.0, "e-")):
            r = [shrink[side] * v[side] for v in b[:n]] + [grow[side] * v[side] for v in b[n:]]
            c = [v[side] for v in b[n:] + b[:n]]
            jg = [None if z[side] else sign * v[side] for z, v in zip(zero, g)]
            x.append(textbook_rank_one(d[side], r, c, jg, which))
        return [leg for pair in zip(*x) for leg in pair]

    return rhs


def conformal_l(n, extra=""):
    """A coupled conformal Lagrangian in n <= 4 coordinates, so its legs are
    2n x 2n, plus the terms in extra."""
    chart = CoordinateChart(n)
    function = " + ".join(
        [f"z{i}*zb{i} + 0.3*zb{i}^2" for i in range(1, n + 1)] + [f"0.1*z{i}*zb{i + 1}" for i in range(1, n)]
    ) + extra
    lam = " + ".join(f"0.2*z{i}*zb{i}" for i in range(1, n + 1))
    p = LagrangianProblem(chart, parse(function, chart), parse(lam, chart))
    s0 = PhaseState(
        t=0.0,
        z=(pc(0.5, 0.1), pc(0.6, -0.1), pc(0.4, 0.05), pc(0.7, 0.0))[:n],
        zb=(pc(0.2, 0.1), pc(0.3, -0.05), pc(0.1, 0.0), pc(0.25, 0.1))[:n],
    )
    return p, s0, IntegratorConfig(method="rk4", t0=0.0, t1=0.05, dt=0.001)


def conformal_l4():
    return conformal_l(4)


CONSTANT_LAMBDA = os.path.join("..", "tests", "data", "constant_lambda_lagrangian.json")
CONFORMAL_SINGULAR = os.path.join("..", "tests", "data", "conformal_singular_lagrangian.json")


def shipped(name):
    lp = load_problem(os.path.join(PROBLEMS, name))
    return lp.problem, lp.start(), lp.config()


def general_textbook(p):
    return textbook_el_rhs(synthesize_el(p))


@pytest.mark.parametrize(
    "case, textbook",
    [
        pytest.param(lambda: shipped("oscillator.json"), general_textbook, id="oscillator"),
        pytest.param(lambda: shipped("el_coupled.json"), general_textbook, id="el_coupled"),
        pytest.param(conformal_l4, textbook_conformal_el_rhs, id="conformal_n4"),
        pytest.param(lambda: shipped("el_quadratic.json"), general_textbook, id="el_quadratic"),
        pytest.param(lambda: shipped("el_exp.json"), general_textbook, id="el_exp"),
        pytest.param(lambda: shipped("el_conformal.json"), textbook_conformal_el_rhs, id="el_conformal"),
        # a constant lam = 0.5: exp(+-lam) fold into M's entries as they lower
        pytest.param(lambda: shipped(CONSTANT_LAMBDA), general_textbook, id="constant_lambda"),
        # a Hessian that is not constant is eliminated on M's 6 x 6 and 8 x 8
        # legs at every call
        pytest.param(lambda: conformal_l(3, " + 0.01*z1^3"), general_textbook, id="conformal_cubic_n3"),
        pytest.param(lambda: conformal_l(4, " + 0.01*z1^3"), general_textbook, id="conformal_cubic_n4"),
    ],
)
def test_integration_matches_textbook_solve_sample_for_sample(case, textbook):
    p, s0, cfg = case()
    ode = synthesize_el(p)
    want = integrate(textbook(p), s0, cfg).samples
    got = integrate(make_el_rhs(ode), s0, cfg).samples
    assert len(got) == len(want) > 1
    for a, b in zip(got, want):
        assert a.t == b.t
        assert [(repr(w.u), repr(w.v)) for w in a.z + a.zb] == [(repr(w.u), repr(w.v)) for w in b.z + b.zb]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_conformal_reference_agrees_with_elimination_on_m(n):
    # the rank-one reference solves the same system as elimination on the
    # assembled M, to rounding
    p, s0, _ = conformal_l(n)
    rng = random.Random(n)
    fast, full = textbook_conformal_el_rhs(p), textbook_el_rhs(synthesize_el(p))
    for _ in range(50):
        y = [rng.uniform(-1, 1) for _ in range(4 * n)]
        want = full(y)
        assert max(abs(a - b) for a, b in zip(fast(y), want)) <= 1e-12 * max(1.0, *map(abs, want))


def test_integrate_samples_carry_the_legs_of_their_csv_row():
    # a sample is built from the (a, b) its CSV row prints, so its legs are
    # the ones a reader of the CSV rebuilds, and the energy column agrees
    # with them; the stepping itself runs on the flat leg list
    p, s0, cfg = shipped("ham_conserve.json")
    samples = integrate(make_ham_rhs(synthesize_ham(p)), s0, cfg).samples
    assert len(samples) > 200
    for s in samples:
        for w in s.z + s.zb:
            assert w.u == w.a + w.b and w.v == w.a - w.b


@pytest.mark.parametrize(
    "name",
    ["oscillator.json", "el_quadratic.json", "el_coupled.json", "el_exp.json", "el_conformal.json",
     "el_cubic.json", os.path.join("failing", "degenerate_L.json"), CONSTANT_LAMBDA],
)
def test_every_euler_lagrange_rhs_is_one_lowered_function(name):
    # the solve is emitted into the lowered function itself: folded for a
    # constant Hessian under any lam, constant or not, and a singular one,
    # and run on M's lowered legs for any other M (el_exp, el_cubic)
    p, _, _ = shipped(name)
    rhs = make_el_rhs(synthesize_el(p))
    assert rhs.__name__ == "lowered"


def unread_locals(source):
    """The locals the source binds and never reads."""
    names = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)]
    bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
    return bound - {n.id for n in names if isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize(
    "case",
    [*(pytest.param(lambda name=name: shipped(name)[0], id=os.path.basename(name))
       for name in ("oscillator.json", "el_quadratic.json", "el_coupled.json", "el_exp.json", "el_conformal.json",
                    "el_cubic.json", os.path.join("failing", "degenerate_L.json"), CONSTANT_LAMBDA,
                    CONFORMAL_SINGULAR)),
     # j*H is singular on a leg with a rank-one update, so M is eliminated
     # instead, with none of the rank-one builder's lines
     pytest.param(lambda: lagrangian("z1^2 + zb1", "0.1*z1"), id="singular_jh")],
)
def test_no_euler_lagrange_function_binds_a_local_it_never_reads(case, monkeypatch):
    sources = []
    real = Lowering.source

    def capture(self, out):
        sources.append(real(self, out))
        return sources[-1]

    monkeypatch.setattr(Lowering, "source", capture)
    make_el_rhs.__wrapped__(synthesize_el(case()))
    (source,) = sources
    assert unread_locals(source) == set()


def emitted_el_source(ode, monkeypatch):
    """The one lowered function's source that make_el_rhs builds for ode."""
    sources = []
    real = Lowering.source

    def capture(self, out):
        sources.append(real(self, out))
        return sources[-1]

    monkeypatch.setattr(Lowering, "source", capture)
    make_el_rhs.__wrapped__(ode)
    (source,) = sources
    return source


def routed_lagrangians():
    """Every Lagrangian under problems/, problems/failing/ and tests/data/
    that loads and synthesizes, with the conformal family at n = 1..4 and
    two that add a cubic term to L."""
    out = []
    root = os.path.dirname(PROBLEMS)
    for pattern in ("problems/*.json", "problems/failing/*.json", "tests/data/*.json"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                p = load_problem(path).problem
                if isinstance(p, LagrangianProblem):
                    synthesize_el(p)
                    out.append((os.path.basename(path), p))
            except (ProblemFileError, RecursionError):  # input errors: no system
                pass
    out += [(f"conformal_n{n}", conformal_l(n)[0]) for n in (1, 2, 3, 4)]
    out += [(f"conformal_cubic_n{n}", conformal_l(n, " + 0.01*z1^3")[0]) for n in (1, 3)]
    return out


def test_the_rank_one_builder_follows_what_synthesize_el_records(monkeypatch):
    # synthesize_el records the conformal split exactly for a lam that is
    # not constant, and the rank-one update (its den lines) is emitted
    # exactly where that lam sits over a Hessian free of the state
    cases = routed_lagrangians()
    assert {"el_conformal.json", "conformal_singular_lagrangian.json", "constant_lambda_lagrangian.json"} <= {
        name for name, _ in cases
    }
    dens = set()
    for name, p in cases:
        ode = synthesize_el(p)
        lam_varies = bool(vars_of(simplify(p.lam)))
        assert (ode.conformal is not None) == lam_varies, name
        slots = [Var(*s) for s in p.chart.slots()]
        h_constant = not any(vars_of(simplify(differentiate(differentiate(p.L, a), b))) for a in slots for b in slots)
        source = emitted_el_source(ode, monkeypatch)
        monkeypatch.undo()
        has_den = re.search(r"^\s*den[uv] = ", source, re.M) is not None
        assert has_den == (lam_varies and h_constant), name
        dens.add(has_den)
    assert dens == {True, False}


def test_a_hand_built_conformal_system_takes_ms_own_lowering(monkeypatch):
    # the same M and b without synthesize_el's record: M is lowered and
    # eliminated on its legs, with no rank-one line, sample for sample as
    # the looped solve on the lowered M
    p, s0, cfg = shipped("el_conformal.json")
    ode = synthesize_el(p)
    bare = ImplicitODE(ode.chart, ode.M, ode.b)
    assert bare.conformal is None and bare != ode
    assert "den" not in emitted_el_source(bare, monkeypatch)
    want = integrate(textbook_el_rhs(bare), s0, cfg).samples
    got = integrate(make_el_rhs(bare), s0, cfg).samples
    assert len(got) == len(want) > 1
    for a, b in zip(got, want):
        assert a.t == b.t
        assert [(repr(w.u), repr(w.v)) for w in a.z + a.zb] == [(repr(w.u), repr(w.v)) for w in b.z + b.zb]


def test_the_split_is_no_constructor_argument():
    # a record handed in with another M would be solved in its place: that
    # M, el_conformal's with its rows reversed, is a system of its own, and
    # its right-hand side is the looped solve of that M, bit for bit
    p, _, _ = shipped("el_conformal.json")
    ode = synthesize_el(p)
    flipped = tuple(reversed(ode.M))
    with pytest.raises(TypeError):
        ImplicitODE(ode.chart, flipped, ode.b, ode.conformal)
    bare = ImplicitODE(ode.chart, flipped, ode.b)
    rhs, want = make_el_rhs(bare), textbook_el_rhs(bare)
    start = [1.2, 0.8, 0.4, 0.6]
    rng = random.Random(29)
    for y in [start] + [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(200)]:
        assert outcome(lambda y: [rhs(y)], y) == outcome(lambda y: [want(y)], y)
    assert rhs(start) != make_el_rhs(ode)(start)


@pytest.mark.parametrize(
    "case",
    [pytest.param(lambda: shipped("el_conformal.json")[0], id="el_conformal"),
     *(pytest.param(lambda n=n: conformal_l(n)[0], id=f"conformal_n{n}") for n in (1, 2, 3, 4))],
)
def test_the_rank_one_solve_negates_no_pivot(case, monkeypatch):
    # D is H itself on both legs, not j*H: no e- pivot is -1.0, so no
    # back-substitution emits x = -(...)
    source = emitted_el_source(synthesize_el(case()), monkeypatch)
    assert re.search(r"^\s*den[uv] = ", source, re.M)
    assert "-(" not in source


def test_a_hessian_with_the_state_in_it_is_lowered_once(monkeypatch):
    # under a lam that is not constant, an H that is not constant is turned
    # away before the rank-one builder lowers anything: M's lowering is the
    # only one
    built = []

    class Counted(Lowering):
        def __init__(self, slots):
            built.append(self)
            super().__init__(slots)

    monkeypatch.setattr(dynamics, "Lowering", Counted)
    make_el_rhs.__wrapped__(synthesize_el(lagrangian("z1*zb1 + 0.3*z1^3", "0.2*z1*zb1")))
    assert len(built) == 1


def test_literal_factors_fold_with_no_relation_assumed_between_them():
    # synthesize_el's M for lam = 0 with its factors exp(+-lam) swapped for
    # two unrelated para-complex literals, whose legs differ: the folded
    # solve matches the looped one on the lowered M, bit for bit
    p, _, _ = shipped("el_coupled.json")
    ode = synthesize_el(p)
    n = ode.chart.n
    factors = (Constant(ParaComplex(2.0, 0.5)), Constant(ParaComplex(0.3, -0.1)))
    m = tuple(tuple(Product((j, factors[r >= n], rest)) for j, _, rest in (e.children for e in row))
              for r, row in enumerate(ode.M))
    ode = ImplicitODE(ode.chart, m, ode.b)
    rhs = make_el_rhs(ode)
    assert rhs.__name__ == "lowered"
    want = textbook_el_rhs(ode)
    rng = random.Random(11)
    for _ in range(50):
        y = [rng.uniform(-2, 2) for _ in range(4 * n)]
        assert list(map(repr, rhs(y))) == list(map(repr, want(y)))


def test_oscillator_rhs_calls_are_four_per_rk4_step():
    p, s0, cfg = shipped("oscillator.json")
    rhs = make_el_rhs(synthesize_el(p))
    calls = 0

    def counted(y):
        nonlocal calls
        calls += 1
        return rhs(y)

    tr = integrate(counted, s0, cfg)
    assert len(tr.times) - 1 == 6284
    assert calls == 25_136


def textbook_at_time(exc, t):
    """exc, which a right-hand side raised without a time, at time t."""
    if isinstance(exc, DegenerateLagrangian):
        return DegenerateLagrangian(str(exc), t=t)
    if isinstance(exc, SingularDenominator):
        return SingularDenominator(exc.which, t=t)
    return type(exc)(f"{exc} at t={t!r}")


def textbook_timed(rhs, y, t):
    """rhs(y), with a singular state or a failing subexpression re-raised at
    time t; with no time, the error rhs raised propagates as it is."""
    if t is None:
        return rhs(y)
    try:
        return rhs(y)
    except _TIMED_ERRORS as exc:
        raise textbook_at_time(exc, t) from None


def textbook_trajectory(rhs, y, cfg, stage_times=None):
    """times and rows as integrate made them with the textbook RK4 or RKF45
    loop: a finite test and textbook_timed around each rhs call, a row per
    step.  stage_times, when given, collects the time of every call."""
    times, rows = [cfg.t0], []

    def deriv(t, y):
        for v in y:
            if not math.isfinite(v):
                raise _NonFinite
        if stage_times is not None:
            stage_times.append(t)
        return textbook_timed(rhs, y, t)

    def record(t, y):
        times.append(t)
        legs = iter(y)
        rows.append([x for u, v in zip(legs, legs) for x in ((u + v) / 2.0, (u - v) / 2.0)])

    run = textbook_run_rk4 if cfg.method == "rk4" else textbook_run_rkf45
    run(deriv, y, cfg, record)
    return times, rows


def stepper_trajectory(run, rhs, y, cfg):
    """times and one row per step from a stepper, which appends each step's
    row to one flat array('d'): the buffer regrouped into rows of len(y)."""
    times, flat, m = [cfg.t0], array("d"), len(y)
    run(rhs, y, cfg, times, flat)
    return times, [flat[k:k + m].tolist() for k in range(0, len(flat), m)]


def emitted_trajectory(rhs, y, cfg):
    return stepper_trajectory(_run_rk4, rhs, y, cfg)


def rkf45_trajectory(rhs, y, cfg):
    return stepper_trajectory(_run_rkf45, rhs, y, cfg)


def rk4_outcome(run, rhs, y, cfg):
    """What a run does, comparable bit for bit (see outcome)."""
    try:
        times, rows = run(rhs, list(y), cfg)
    except Exception as exc:
        return type(exc), str(exc)
    return [repr(t) for t in times], [[repr(x) for x in row] for row in rows]


def coupled_rhs(m, fail_at=None, failure=None):
    """A nonlinear rhs on m legs that, on its call number fail_at, raises
    failure() or, when failure is a float, returns it in every leg."""
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            if isinstance(failure, float):
                return [failure] * m
            raise failure()
        return [-y[(i + 1) % m] + 0.25 * y[i] * y[(i + 2) % m] - 0.1 * y[i] ** 3 for i in range(m)]

    return rhs


class TestEmittedRk4MatchesTextbook:
    """integrate's RK4 driver, emitted per leg count, against the loop over
    lists that it replaced."""

    CFG = IntegratorConfig(method="rk4", t0=0.5, t1=1.5, dt=0.25)
    # the third step runs from t_a = 1.0 with h = 0.25
    STAGE_TIMES = (1.0, 1.125, 1.125, 1.25)

    def both(self, m, y, cfg, **failure):
        want = rk4_outcome(textbook_trajectory, coupled_rhs(m, **failure), y, cfg)
        assert rk4_outcome(emitted_trajectory, coupled_rhs(m, **failure), y, cfg) == want
        return want

    @pytest.mark.parametrize("m", [2, 4, 8, 12, 16])
    def test_bit_for_bit(self, m):
        rng = random.Random(m)
        y = [rng.uniform(-1, 1) for _ in range(m)]
        for t0, t1, dt in ((0.0, 1.0, 0.01), (0.25, 1.3, 0.1)):
            times, rows = self.both(m, y, IntegratorConfig(method="rk4", t0=t0, t1=t1, dt=dt))
            assert len(rows) == len(times) - 1 >= 10
        # 1.05 / 0.1 is 10.5 steps: the last one is shortened to land on t1
        assert float(times[-1]) == 1.3 and float(times[-1]) - float(times[-2]) < 0.06

    @pytest.mark.parametrize("stage", range(4))
    @pytest.mark.parametrize("failure", [
        lambda: DegenerateLagrangian("singular e+ component system"),
        lambda: SingularDenominator("D-"),
        lambda: ZeroDivisor("zero-divisor denominator in '1/(z1 - 1)'"),
        lambda: DomainError("domain failure in 'ln(z1)'"),
    ], ids=["degenerate", "singular", "zero-divisor", "domain"])
    def test_a_failing_stage_reports_its_time(self, stage, failure):
        error, message = self.both(4, [0.5, -0.25, 0.75, 0.125], self.CFG, fail_at=9 + stage,
                                   failure=failure)
        t = self.STAGE_TIMES[stage]
        assert error is type(failure())
        assert message.endswith(f" at t={t!r}")

    @pytest.mark.parametrize("stage", range(4))
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_stage_input_fails_the_step(self, stage, value):
        # the call before stage k's returns value, so stage k's input is not
        # finite: stage 1's input is the second step's end
        got = self.both(4, [0.5, -0.25, 0.75, 0.125], self.CFG, fail_at=8 + stage, failure=value)
        assert got == (StepFailure, "state left the finite domain at t=1.0")

    @pytest.mark.parametrize("stage", range(4))
    def test_an_rhs_raising_non_finite_fails_the_step(self, stage):
        got = self.both(4, [0.5, -0.25, 0.75, 0.125], self.CFG, fail_at=9 + stage, failure=_NonFinite)
        assert got == (StepFailure, "state left the finite domain at t=1.0")


class TestRkf45MatchesTextbook:
    """integrate's RKF45 stepper, which tests each stage input and times a
    failure itself, against the textbook loop that took deriv(t, y) and
    record(t, y)."""

    CFG = IntegratorConfig(method="rkf45", t0=0.5, t1=1.5, tol=1e-9)
    Y = (0.5, -0.25, 0.75, 0.125)
    FAILURES = (
        (lambda: DegenerateLagrangian("singular e+ component system"), "singular e+ component system"),
        (lambda: SingularDenominator("D-"), "singular denominator D-"),
        (lambda: ZeroDivisor("zero-divisor denominator in '1/(z1 - 1)'"),
         "zero-divisor denominator in '1/(z1 - 1)'"),
        (lambda: DomainError("domain failure in 'ln(z1)'"), "domain failure in 'ln(z1)'"),
    )

    def both(self, m, y, cfg, **failure):
        want = rk4_outcome(textbook_trajectory, coupled_rhs(m, **failure), y, cfg)
        assert rk4_outcome(rkf45_trajectory, coupled_rhs(m, **failure), y, cfg) == want
        return want

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_bit_for_bit(self, m):
        rng = random.Random(m)
        y = [rng.uniform(-1, 1) for _ in range(m)]
        for cfg in (self.CFG, IntegratorConfig(method="rkf45", t0=0.0, t1=3.0, tol=1e-7)):
            times, rows = self.both(m, y, cfg)
            assert len(rows) == len(times) - 1 >= 10
            assert float(times[-1]) == cfg.t1

    @pytest.mark.parametrize("stage", range(6))
    @pytest.mark.parametrize("failure", range(4), ids=["degenerate", "singular", "zero-divisor", "domain"])
    def test_a_failing_stage_reports_its_time(self, stage, failure):
        # the third attempt's stage: its time is t + c*h, which the textbook
        # passed to deriv on that call
        stage_times = []
        textbook_trajectory(coupled_rhs(4), list(self.Y), self.CFG, stage_times)
        t = stage_times[12 + stage]
        assert stage == 0 or t > stage_times[12]
        make, message = self.FAILURES[failure]
        got = self.both(4, self.Y, self.CFG, fail_at=13 + stage, failure=make)
        assert got == (type(make()), f"{message} at t={t!r}")

    @pytest.mark.parametrize("stage", range(6))
    @pytest.mark.parametrize("failure", [math.inf, _NonFinite], ids=["inf", "non-finite"])
    def test_a_non_finite_stage_is_rejected(self, stage, failure):
        clean = self.both(4, self.Y, self.CFG)
        got = self.both(4, self.Y, self.CFG, fail_at=13 + stage, failure=failure)
        # the attempt is rejected, h shrinks fivefold and the run goes on to t1
        assert got != clean
        assert float(got[0][-1]) == self.CFG.t1
        # and rhs never sees the non-finite stage input that follows
        rhs, inputs = coupled_rhs(4, fail_at=13 + stage, failure=failure), []

        def watched(y):
            inputs.append(all(map(math.isfinite, y)))
            return rhs(y)

        rkf45_trajectory(watched, list(self.Y), self.CFG)
        assert all(inputs)


def separately_lowered_ham_rhs(ode):
    """make_ham_rhs as two lowered functions: D+ and D- checked, then the
    flow."""
    slots = ode.chart.slots()
    denominators = lower((ode.denom_plus, ode.denom_minus), slots)
    flow = lower(ode.rhs_z + ode.rhs_zb, slots)

    def rhs(y):
        pu, pv, mu, mv = denominators(y)
        if not (abs(pu) >= INVERTIBILITY_FLOOR and abs(pv) >= INVERTIBILITY_FLOOR):
            raise SingularDenominator("D+")
        if not (abs(mu) >= INVERTIBILITY_FLOOR and abs(mv) >= INVERTIBILITY_FLOOR):
            raise SingularDenominator("D-")
        return flow(y)

    return rhs


@pytest.mark.parametrize("name", ["ham_curved.json", "failing/singular_lambda.json"])
def test_one_hamiltonian_lowering_matches_separate_ones(name):
    p, s0, cfg = shipped(name)
    ode = synthesize_ham(p)

    def run(rhs):
        try:
            tr = integrate(rhs, s0, cfg)
        except SingularDenominator as exc:
            return str(exc), exc.which, exc.t
        return tr.times, [[repr(x) for x in row] for row in tr.rows]

    got = run(make_ham_rhs(ode))
    assert got == run(separately_lowered_ham_rhs(ode))
    if name.startswith("failing/"):
        assert got == ("singular denominator D- at t=0.0", "D-", 0.0)
    else:
        assert len(got[0]) > 10
