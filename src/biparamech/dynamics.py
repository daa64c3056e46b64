"""Numerical side: the para-linear solve, right-hand sides and Runge-Kutta
time stepping, all on the idempotent legs (u, v) = (a+b, a-b).

A state is one flat leg list y = [u(z1), v(z1), ..., u(zbn), v(zbn)] in
the order of CoordinateChart.slots(), and a right-hand side is rhs(y) -> dy
in the same layout, built by lowering a synthesized system into one
straight-line function (symbolic.lower).  A Trajectory keeps its times in
one array('d') and its rows [a(z1), b(z1), ..., a(zbn), b(zbn)], in the
same order, back to back in another, row-major with width 4n; tr.rows is
a read-only view that gives each row as a list, and the readers take the
legs a+b, a-b straight from the rows.  ParaComplex values appear only at
the edges: integrate's start state, Trajectory.samples, the values
energy_along returns, and at_state.  A right-hand side raises
DegenerateLagrangian, SingularDenominator, ZeroDivisor or DomainError
without a time; integrate, energy_along, energy_columns and at_state (at
a state with a time) re-raise them with one.  An entry of M or b that
overflowed makes a step non-finite: integrate aborts or rejects it, and
at_state, energy_along and energy_columns raise StepFailure.

The implicit Euler-Lagrange system M*xdot = b is solved at every
evaluation instead of symbolically inverting M, which blows up for n > 1
and hides degeneracy behind huge expressions.  On the legs it is two
independent real systems of size m = 2n, solved by elimination emitted
as straight-line code with no loops (_eliminate) into the system's one
lowered function (_folded_el_rhs).  An M whose legs all lower to
literals, as a constant lam's do wherever the Hessian H's do, is
eliminated at build time.  For a lam that is not constant, synthesize_el
records the system (H + c*grad(lam)^T)*x = b'' that M*x = b is, with the
Hessian H as D (ImplicitODE.conformal), so when every leg of H lowers to
a literal, each leg is left with the arithmetic of b'' and one rank-one
update.  Any other M, a hand-built one too, is eliminated on its lowered
legs at every call.

Both steppers take (rhs, y, cfg, times, flat) and append each accepted
step's time to times and its row's 4n values to the array('d') flat, in
one call per step.  RK4 runs in a loop emitted once per leg count
(_rk4_driver) that calls rhs four times per step, with the stage
arithmetic on locals; RKF45 keeps its generic loop over lists.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from struct import Struct

from .eom import (
    DegenerateLagrangian,
    ExplicitODE,
    HamiltonianProblem,
    ImplicitODE,
    LagrangianProblem,
    SingularDenominator,
    _AtTime,
    energy,
    synthesize_el,
)
from .para_algebra import DomainError, ParaComplex, ValueType, ZeroDivisor
from .symbolic import (
    ZERO_EXPR,
    Apply,
    Lowering,
    Negate,
    Product,
    differentiate,
    leg_text,
    lower,
    vars_of,
    z_var,
    zb_var,
)

# pivot below this fraction of its row scale counts as structurally singular
PIVOT_TOL = 1e-12


class StepFailure(_AtTime):
    """Adaptive step-size underflow or a non-finite state."""


class _NonFinite(Exception):
    # internal: lets the adaptive loop reject a blown-up trial step
    pass


class PhaseState(ValueType):
    """A point on an integral curve: time plus both coordinate families."""

    _fields = ("t", "z", "zb")

    def __init__(self, t: float, z, zb) -> None:
        z = tuple(z)
        zb = tuple(zb)
        if len(z) != len(zb):
            raise ValueError("z and zb must have equal length")
        d = self.__dict__
        d["t"] = t
        d["z"] = z
        d["zb"] = zb


class IntegratorConfig(ValueType):
    _fields = ("method", "t0", "t1", "dt", "tol", "max_steps")

    def __init__(
        self,
        method: str,
        t0: float,
        t1: float,
        dt: float | None = None,
        tol: float | None = None,
        max_steps: int = 10_000_000,
    ) -> None:
        if method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {method!r}")
        if not t1 > t0:
            raise ValueError("t1 must exceed t0")
        if not math.isfinite(t1 - t0):
            raise ValueError("t1 - t0 must be finite")
        if not isinstance(max_steps, int):  # a nan budget fails every comparison
            raise ValueError("max_steps must be an integer")
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        if method == "rk4":
            if dt is None or not dt > 0:
                raise ValueError("rk4 requires dt > 0")
        else:
            if tol is None or not tol > 0:
                raise ValueError("rkf45 requires tol > 0")
        if dt is not None and not math.isfinite(dt):
            raise ValueError("dt must be finite")
        if tol is not None and not math.isfinite(tol):  # an infinite tol accepts every step
            raise ValueError("tol must be finite")
        d = self.__dict__
        d["method"] = method
        d["t0"] = t0
        d["t1"] = t1
        d["dt"] = dt
        d["tol"] = tol
        d["max_steps"] = max_steps


class Rows:
    """A read-only view of a trajectory's rows over one flat row-major
    array('d') of the given width: len, indexing (negative indices too),
    slicing and iteration give each row as a new list of floats."""

    __slots__ = ("flat", "width")

    def __init__(self, flat, width: int) -> None:
        self.flat = flat
        self.width = width

    def __len__(self) -> int:
        return len(self.flat) // self.width

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        i = k + len(self) if k < 0 else k
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        w = self.width
        return self.flat[i * w:(i + 1) * w].tolist()

    def __iter__(self):
        return map(list, zip(*[iter(self.flat)] * self.width))

    def column(self, k: int, lo: int, hi: int):
        """Entry k of rows lo to hi - 1, as a strided slice of the buffer."""
        w = self.width
        return self.flat[lo * w + k:hi * w:w]


class Trajectory:
    """Sample times plus one row per sample, [a(z1), b(z1), ..., a(zbn),
    b(zbn)] in the order of CoordinateChart.slots().

    integrate stores the rows back to back in one array('d'), and rows is
    a Rows view over it; rows given as a sequence of lists are copied into
    such a buffer.  samples is a read-only view of the rows as PhaseState
    values, built on first access."""

    def __init__(self, times, rows):
        if not isinstance(rows, Rows):
            rows = list(rows)
            flat = array("d")
            for row in rows:
                flat.extend(row)
            width = len(rows[0]) if rows else 1
            if len(flat) != len(rows) * width:
                raise ValueError("rows must have equal length")
            rows = Rows(flat, width)
        self.times = times
        self.rows = rows
        self._samples = None

    @property
    def samples(self) -> tuple:
        if self._samples is None:
            self._samples = tuple(map(_phase_state, self.times, self.rows))
        return self._samples


def _phase_state(t, row):
    cells = iter(row)
    w = [ParaComplex(a, b) for a, b in zip(cells, cells)]
    n = len(w) // 2
    return PhaseState(t=t, z=tuple(w[:n]), zb=tuple(w[n:]))


def _leg_rows(rows: Rows):
    """The legs (a+b, a-b) of each row, as ParaComplex(a, b) computes them,
    one list per row taken straight from the flat buffer."""
    cells = iter(rows.flat)
    pairs = zip(cells, cells)
    for row in zip(*[pairs] * (rows.width // 2)):
        yield [x for a, b in row for x in (a + b, a - b)]


# ---------------------------------------------------------------------------
# para-complex linear algebra
# ---------------------------------------------------------------------------


def _eliminate(a, which: str, tag: str):
    """Emit Gaussian elimination with scaled partial pivoting for one leg's
    m x m system, on the augmented rows a (columns m and on hold the
    right-hand sides), with the looped algorithm's float operations in
    their order, for each right-hand side as if it were solved alone.

    An entry is a float literal or the name of a local that the emitted
    code may rebind.  A step whose operands are all literals runs here and
    only its outcome is kept: a row scale, a pivot choice and its row swap,
    a multiplier and its f != 0.0 skip, an update, a division, a test that
    passes.  A test that always fails ends the lines with its raise, and
    the solutions come back as None.  Any other step is emitted as code
    that swaps and updates rows in place, so M's entries must be all
    literals or all names.  which names the leg in the raise, and tag goes
    into every local the lines bind, so that the two legs' lines do not
    collide; x / 1.0 is x and x / -1.0 is -x, exactly.  Returns the lines
    and one solution per right-hand side, as a list of its entries.
    """
    m, width = len(a), len(a[0])
    lines: list[str] = []

    def literal(*xs) -> bool:
        return all(isinstance(x, float) for x in xs)

    def raises(operands, decide, code: str, what: str) -> bool:
        message = f'DegenerateLagrangian("{what} {which} component system")'
        if not literal(*operands):
            lines.append(f"if {code}: raise {message}")
        elif decide():
            lines.append(f"raise {message}")
            return True
        return False

    def bound(stem: str, code: str, suffix: str = "") -> str:
        name = f"{stem}{tag}{suffix}"
        lines.append(f"{name} = {code}")
        return name

    s = []
    for i, row in enumerate(a):
        if literal(*row[:m]):
            s.append(max(abs(x) for x in row[:m]))
        else:
            mags = ", ".join(f"abs({leg_text(x)})" for x in row[:m])
            s.append(bound(f"s{i}", f"max({mags})" if m > 1 else mags))
    if raises(s, lambda: 0.0 in s, f"0.0 in ({''.join(f'{leg_text(x)}, ' for x in s)})", "zero row in"):
        return lines, None
    for k in range(m):
        if literal(*(row[k] for row in a[k:]), *s[k:]):
            piv, best = k, abs(a[k][k]) / s[k]
            for r in range(k + 1, m):
                mag = abs(a[r][k]) / s[r]
                if mag > best:
                    best, piv = mag, r
            a[k][k:], a[piv][k:], s[k], s[piv] = a[piv][k:], a[k][k:], s[piv], s[k]
        else:
            if k < m - 1:
                lines.append(f"piv = {k}; best = abs({a[k][k]}) / {s[k]}")
            for r in range(k + 1, m):
                lines.append(f"mag = abs({a[r][k]}) / {s[r]}")
                lines.append(f"if mag > best: best, piv = mag, {r}")
            for r in range(k + 1, m):
                mine, theirs = ", ".join(a[k][k:] + [s[k]]), ", ".join(a[r][k:] + [s[r]])
                lines.append(f"if piv == {r}: {mine}, {theirs} = {theirs}, {mine}")
        pivot = a[k][k]
        if raises((pivot, s[k]), lambda: abs(pivot) <= PIVOT_TOL * s[k],
                  f"abs({leg_text(pivot)}) <= {PIVOT_TOL!r} * {leg_text(s[k])}", "singular"):
            return lines, None
        for r in range(k + 1, m):
            # column k is never read again, so its update is left out
            if not literal(a[r][k], pivot):
                lines.append(f"f = {a[r][k]} / {pivot}")
                lines.append("if f != 0.0:")
                lines += [f"    {a[r][c]} -= f * {a[k][c]}" for c in range(k + 1, width)]
                continue
            f = a[r][k] / pivot
            if f != 0.0:
                for c in range(k + 1, width):
                    if literal(a[r][c], a[k][c]):
                        a[r][c] -= f * a[k][c]
                    else:
                        code = f"{leg_text(a[r][c])} - {leg_text(f)} * {leg_text(a[k][c])}"
                        a[r][c] = bound(f"r{len(lines)}", code)
    xs = []
    for j in range(m, width):
        suffix = f"_{j - m}" if j > m else ""
        x = [0.0] * m
        for k in range(m - 1, -1, -1):
            total, terms = a[k][j], ""
            for c in range(k + 1, m):
                if not terms and literal(total, a[k][c], x[c]):
                    total -= a[k][c] * x[c]
                else:
                    terms += f" - {leg_text(a[k][c])} * {leg_text(x[c])}"
            pivot, code = a[k][k], f"{leg_text(total)}{terms}"
            if not terms and literal(total, pivot):
                x[k] = total / pivot
            elif literal(pivot) and pivot == 1.0:  # x / 1.0 is x, exactly
                x[k] = bound(f"x{k}", code, suffix) if terms else total
            elif literal(pivot) and pivot == -1.0:  # and x / -1.0 is -x
                x[k] = bound(f"x{k}", f"-({code})", suffix)
            else:
                x[k] = bound(f"x{k}", f"({code}) / {leg_text(pivot)}", suffix)
        xs.append(x)
    return lines, xs


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def _legs(values) -> list:
    return [leg for w in values for leg in (w.u, w.v)]


def _values(y) -> tuple:
    return tuple(ParaComplex.from_idempotent(y[k], y[k + 1]) for k in range(0, len(y), 2))


# the runtime singularities: the steppers and _sampled re-raise them with a
# time, cli.main exits 3 on them, and verify._worst_over redraws on them
_TIMED_ERRORS = (DegenerateLagrangian, SingularDenominator, StepFailure, ZeroDivisor, DomainError)


def _at_time(exc, t):
    """exc, which a right-hand side raised without a time, as a new exception
    at time t, so that an rhs may raise one stored instance again."""
    if isinstance(exc, _AtTime):
        return type(exc)(exc.detail, t=t)
    return type(exc)(f"{exc} at t={t!r}")


def _sampled(rhs, y, t):
    """rhs(y) outside integrate, where nothing rejects a step: a non-finite
    entry of M or b is a StepFailure, and a singular state or a failing
    subexpression is re-raised at time t, or propagates as it is when t is
    None."""
    try:
        return rhs(y)
    except _NonFinite:
        raise StepFailure("state left the finite domain", t=t) from None
    except _TIMED_ERRORS as exc:
        if t is None:
            raise
        raise _at_time(exc, t) from None


def at_state(rhs, s):
    """(dz, dzb) from rhs at a ParaComplex state s.  A state with a time t
    (a PhaseState) re-raises a failure with t; one without (an EvalState)
    lets the error rhs raised propagate."""
    n = len(s.z)
    dy = _sampled(rhs, _legs(s.z + s.zb), getattr(s, "t", None))
    return _values(dy[: 2 * n]), _values(dy[2 * n :])


def _rank_one(lines: list, yb: list, yc: list, g: list, terms: list, tag: str, which: str) -> list:
    """Emit x = yb - yc*(g.yb)/(1 + g.yc) for one leg (Sherman-Morrison),
    with the dot products over terms, and return x's legs.  A scalar
    1 + g.yc at most PIVOT_TOL times 1 + sum |g_i*yc_i| raises
    DegenerateLagrangian naming the leg, or _NonFinite when it is not
    finite."""
    q = [f"q{i}{tag}" for i in terms]
    lines += [f"{name} = {leg_text(g[i])} * {leg_text(yc[i])}" for name, i in zip(q, terms)]
    den, k = f"den{tag}", f"k{tag}"
    lines.append(f"{den} = 1.0 + ({' + '.join(q)})")
    scale = " + ".join(["1.0"] + [f"abs({name})" for name in q])
    lines.append(f"if abs({den}) <= {PIVOT_TOL!r} * ({scale}): raise DegenerateLagrangian("
                 f'"singular {which} component system") if isfinite({den}) else _NonFinite')
    lines.append(f"{k} = ({' + '.join(f'{leg_text(g[i])} * {leg_text(yb[i])}' for i in terms)}) / {den}")
    x = [f"dx{i}{tag}" for i in range(len(yb))]
    lines += [f"{name} = {leg_text(b)} - {leg_text(c)} * {k}" for name, b, c in zip(x, yb, yc)]
    return x


def _folded_el_rhs(low: Lowering, a, b, c, g):
    """One lowered function that returns the legs of x in (D + c*g^T)*x = b,
    with the elimination on D emitted into it; low holds the lines that
    compute D, b, c and g.

    a holds D's rows on the e+ and on the e- leg, and b, c and g hold those
    vectors' legs in the same way, each a local of low or a literal.  Each
    leg leaves out every term of a g_i that is a literal zero.  A D of
    finite literals is eliminated at build time.  A leg with no terms is
    D*x = b, and only b's arithmetic is left; a D that is always singular
    there raises at every call.  On a leg with terms, one elimination gives
    D^-1 b and D^-1 c, and _rank_one corrects them; a D that is always
    singular there returns None.  Any other D returns None on a leg with
    terms; with g = 0, a leg whose D has a row of literal zeros raises at
    every call, and each other leg copies its entries and b's into locals
    of its own, which the elimination rebinds in place: low's names are
    shared.  A pivot that fails while an entry of D or b is not finite
    raises _NonFinite.

    The function's degenerate attribute is True when a leg with no terms
    raises at every call (a literal D singular there, or a row of literal
    zeros), and then every call raises a runtime singularity
    (_TIMED_ERRORS) or _NonFinite.  The lines before that leg's raise are
    low's, which raise only ZeroDivisor or DomainError (a float +, -, *
    never raises, a quotient or a negative power has a checked local or a
    nonzero literal below it, and leg_pow and leg_exp saturate at inf),
    and the other leg's, whose elimination and rank-one scalar raise only
    DegenerateLagrangian or _NonFinite: each divisor is tested first, and
    one whose scale is nan is nan itself."""
    literal = all(isinstance(v, float) and math.isfinite(v) for rows in a for row in rows for v in row)
    lines, x = [], []
    start = None if literal else 0  # lines[start:] hold every raise of _eliminate
    for side, tag, which in ((0, "u", "e+"), (1, "v", "e-")):
        terms = [i for i, gi in enumerate(g[side]) if not (isinstance(gi, float) and gi == 0.0)]
        if terms and not literal:
            return None
        if not literal and any(all(isinstance(v, float) and v == 0.0 for v in row) for row in a[side]):
            lines.append(f'raise DegenerateLagrangian("zero row in {which} component system")')
            break  # start is 0, so the raise is inside the try region
        columns = [b[side], c[side]] if terms else [b[side]]
        rows = [row + [col[i] for col in columns] for i, row in enumerate(a[side])]
        if not literal:
            names = [[f"a{i}_{k}{tag}" for k in range(len(row))] for i, row in enumerate(rows)]
            lines += [f"{name} = {leg_text(v)}" for row, copy in zip(rows, names) for v, name in zip(row, copy)]
            rows = names
        elimination, legs = _eliminate(rows, which, tag)
        if legs is None:  # only the raise: the lines before it raise nothing
            if terms:
                return None
            start = len(lines)
            lines.append(elimination[-1])
            break
        lines += elimination
        x.append(_rank_one(lines, *legs, g[side], terms, tag, which) if terms else legs[0])
    entries = [v for vs in (*a[0], *a[1], *b) for v in vs]
    checked = dict.fromkeys(leg_text(v) for v in entries if not (isinstance(v, float) and math.isfinite(v)))
    if start is not None and checked:
        lines[start:] = ["try:", *(f"    {line}" for line in lines[start:]), "except DegenerateLagrangian:",
                         f"    if all(map(isfinite, ({', '.join(checked)}, ))): raise",
                         "    raise _NonFinite from None"]
    low.lines += lines
    dy = [leg for pair in zip(*x) for leg in pair]
    rhs = low.function(dy, DegenerateLagrangian=DegenerateLagrangian, _NonFinite=_NonFinite,
                       isfinite=math.isfinite)
    rhs.degenerate = len(x) < 2  # a leg broke off at its raise
    return rhs


def _el_rhs(chart, d, g, c, b):
    """_folded_el_rhs for (D + c*g^T)*x = b on a Lowering of its own, which
    lowers D's entries first, then g's (lam's partials before L's, as in
    M), b's and c's."""
    low = Lowering(chart.slots())
    legs = [[low.legs(e) for e in row] for row in d]
    a = tuple([[leg[side] for leg in row] for row in legs] for side in (0, 1))
    g, b, c = ([low.legs(e) for e in v] for v in (g, b, c))
    return _folded_el_rhs(low, a, tuple(zip(*b)), tuple(zip(*c)), tuple(zip(*g)))


@lru_cache(maxsize=64)
def make_el_rhs(ode: ImplicitODE):
    """rhs(y) -> dy for an implicit EL system, as one lowered function that
    computes b's legs and solves M*x = b on each leg (_folded_el_rhs).

    Where synthesize_el recorded (H + c*grad(lam)^T)*x = b'' for a lam that
    is not constant (ImplicitODE.conformal) and H is free of the state,
    D = H: the elimination on H's finite literal legs is folded at build
    time, and each leg adds one rank-one update (Sherman-Morrison) whose
    scalar 1 + g.y_c is the leg's pivot.  Any other system, or an H that is
    not literal or is singular on a leg with an update, is lowered with
    D = M and c = g = 0 and eliminated on M's legs, at build time where
    they are literals.  A pivot or a scalar that fails because an entry of M or b
    is not finite is a non-finite step, not a degenerate system.  The
    function's degenerate attribute says whether the build proved that it
    raises at every call (_folded_el_rhs)."""
    split = ode.conformal  # (H, grad(lam), c, b'', f), lowered as (D, g, c, b)
    # a Hessian with the state in it is turned away unlowered
    if split is not None and not any(vars_of(e) for row in split[0] for e in row):
        folded = _el_rhs(ode.chart, *split[:4])
        if folded is not None:
            return folded
    zero = (ZERO_EXPR,) * len(ode.b)  # no rank-one update, so c is never read
    return _el_rhs(ode.chart, ode.M, zero, zero, ode.b)


@lru_cache(maxsize=64)
def make_ham_rhs(ode: ExplicitODE):
    """rhs(y) -> dy for an explicit Hamilton system, from one lowering of
    D+, D- and the flow.  The denominators are checked after their own
    lines and before the flow's, so a singular state raises
    SingularDenominator naming D+ or D- instead of a bare zero-divisor
    error; a literal leg that passes is not checked, and the flow's
    quotients by D+ and D- do not test them again.  A nan leg passes
    Lowering.zero_test, and makes the flow and the step non-finite."""
    low = Lowering(ode.chart.slots())
    denominators = [("D+", low.legs(ode.denom_plus)), ("D-", low.legs(ode.denom_minus))]
    for which, legs in denominators:
        tests = low.zero_test(legs)
        if tests:
            low.lines.append(f"if {tests}: raise SingularDenominator({which!r})")
        low.assume_nonzero(legs)
    flow = [leg for e in ode.rhs_z + ode.rhs_zb for leg in low.legs(e)]
    return low.function(flow, SingularDenominator=SingularDenominator)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


_RKF_C = (0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_ERR = (1.0 / 360.0, 0.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0)


@lru_cache(maxsize=None)
def _rk4_driver(m: int):
    """Emit rk4(rhs, y, t0, dt, t1, total, times, flat): total classical RK4
    steps from t0 on a state of m legs, appending each step's end time to
    times and its (a, b) row to the array('d') flat, packed into one bytes
    object (one frombytes measures faster than an extend by a tuple, which
    grows the array one value at a time).  The legs, stage inputs and rates
    are locals, with the float operations of the stage loop over lists in
    their order.  An h = t_b - t_a that is not positive, a stage input that is not
    finite, or an rhs that raises _NonFinite fails the step at its start
    t_a; an error of _TIMED_ERRORS is re-raised at its stage's time t_a,
    t_a + 0.5*h or t_a + h."""
    def legs(stem: str) -> str:
        return ", ".join(f"{stem}{i}" for i in range(m))

    def finite(stem: str) -> str:
        return f"if not ({' and '.join(f'isfinite({stem}{i})' for i in range(m))}): raise _NonFinite"

    def inputs(step: str, rate: str) -> str:  # one line, one statement per leg
        return "; ".join(f"s{i} = y{i} + {step} * {rate}{i}" for i in range(m))

    row = ", ".join(f"(y{i} + y{i + 1}) / 2.0, (y{i} - y{i + 1}) / 2.0" for i in range(0, m, 2))
    source = f"""def rk4(rhs, y, t0, dt, t1, total, times, flat):
    {legs("y")} = y
    append, extend = times.append, flat.frombytes
    for k in range(total):
        t_a = t0 + k * dt
        t_b = t1 if k == total - 1 else t0 + (k + 1) * dt
        h = t_b - t_a
        if not h > 0.0: raise StepFailure(f"step size underflow (h={{h!r}})", t=t_a)
        half = 0.5 * h  # yi + 0.5 * h * ki multiplies (0.5 * h) by ki
        t = t_a
        try:
            {finite("y")}
            {legs("a")} = rhs([{legs("y")}])
            t = t_a + half
            {inputs("half", "a")}
            {finite("s")}
            {legs("b")} = rhs([{legs("s")}])
            {inputs("half", "b")}
            {finite("s")}
            {legs("c")} = rhs([{legs("s")}])
            t = t_a + h
            {inputs("h", "c")}
            {finite("s")}
            {legs("d")} = rhs([{legs("s")}])
        except _NonFinite:
            raise StepFailure("state left the finite domain", t=t_a) from None
        except _TIMED_ERRORS as exc:
            raise _at_time(exc, t) from None
        w = h / 6.0
        {"; ".join(f"y{i} = y{i} + w * (a{i} + 2.0 * (b{i} + c{i}) + d{i})" for i in range(m))}
        append(t_b)
        extend(pack({row}))
"""
    namespace = {"isfinite": math.isfinite, "_NonFinite": _NonFinite, "StepFailure": StepFailure,
                 "_TIMED_ERRORS": _TIMED_ERRORS, "_at_time": _at_time, "pack": Struct(f"{m}d").pack}
    exec(compile(source, f"<rk4 driver {m}>", "exec"), namespace)
    return namespace["rk4"]


def _run_rk4(rhs, y, cfg, times, flat):
    span = cfg.t1 - cfg.t0
    quotient = span / cfg.dt + 1e-9
    # compared before int(), which cannot take an infinite quotient
    if quotient > cfg.max_steps + 1:
        raise StepFailure(f"{quotient:.3g} steps exceed max_steps={cfg.max_steps}", t=cfg.t0)
    nfull = int(math.floor(quotient))
    remainder = span - nfull * cfg.dt
    if remainder <= cfg.dt * 1e-9:
        remainder = 0.0
    total = nfull + (1 if remainder else 0)
    if total > cfg.max_steps:
        raise StepFailure(f"{total} steps exceed max_steps={cfg.max_steps}", t=cfg.t0)
    _rk4_driver(len(y))(rhs, y, cfg.t0, cfg.dt, cfg.t1, total, times, flat)


def _run_rkf45(rhs, y, cfg, times, flat):
    span = cfg.t1 - cfg.t0
    tol = cfg.tol
    h_min = 1e-12 * span
    t = cfg.t0
    h = span / 100.0
    attempts = 0
    end = cfg.t1 - 1e-15 * max(1.0, abs(cfg.t1))
    if not t < end:  # the whole span lies in the end slack
        raise StepFailure(f"step size underflow (h={span!r})", t=t)
    while t < end:
        h = min(h, cfg.t1 - t)
        if h < h_min or t + h == t:  # a step that cannot move t is not tried
            raise StepFailure(f"step size underflow (h={h!r})", t=t)
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepFailure(f"no convergence within max_steps={cfg.max_steps}", t=t)
        try:
            ks = []
            m = len(y)
            for c, coeffs in zip(_RKF_C, _RKF_A):
                yi = list(y)
                for q, aq in enumerate(coeffs):
                    if aq != 0.0:
                        kq = ks[q]
                        for idx in range(m):
                            yi[idx] += h * aq * kq[idx]
                if not all(map(math.isfinite, yi)):
                    raise _NonFinite
                ks.append(rhs(yi))
            # the error is measured leg by leg, the sup norm abs() uses
            err_norm = 0.0
            y5 = list(y)
            for idx in range(m):
                acc5 = 0.0
                acce = 0.0
                for q in range(6):
                    kqi = ks[q][idx]
                    acc5 += _RKF_B5[q] * kqi
                    acce += _RKF_ERR[q] * kqi
                y5[idx] += h * acc5
                denom = tol * (1.0 + max(abs(y[idx]), abs(y5[idx])))
                err_i = abs(h * acce) / denom
                # NaN fails every comparison, so test finiteness explicitly
                if not (math.isfinite(err_i) and math.isfinite(y5[idx])):
                    err_norm = math.inf
                    break
                err_norm = max(err_norm, err_i)
        except _NonFinite:
            err_norm = math.inf
            y5 = None
        except _TIMED_ERRORS as exc:
            raise _at_time(exc, t + c * h) from None
        if err_norm <= 1.0:
            t = cfg.t1 if cfg.t1 - (t + h) < h_min else t + h
            y = y5
            times.append(t)
            legs = iter(y)
            flat.fromlist([x for u, v in zip(legs, legs) for x in ((u + v) / 2.0, (u - v) / 2.0)])
        h *= 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))


def integrate(rhs, s0: PhaseState, cfg: IntegratorConfig) -> Trajectory:
    """Drive a right-hand side rhs(y) -> dy from t0 to t1.

    y is the state's flat leg list (see the module docstring).  Classical
    fixed-step RK4, or RKF45 with mixed absolute/relative error control on
    each leg.  One row per accepted step, holding (a, b) = ((u+v)/2, (u-v)/2)
    of the step's legs; the first row holds s0's own (a, b), not a round
    trip through the legs.  A singular right-hand side re-raises with the
    time of the failing stage, and so does a zero divisor or a domain
    failure, which names its subexpression.  A step that cannot advance t,
    or an RKF45 span within its end slack, is a StepFailure at its t.
    """
    times = array("d", (cfg.t0,))
    flat = array("d", [x for w in s0.z + s0.zb for x in (w.a, w.b)])
    rows = Rows(flat, len(flat))
    run = _run_rk4 if cfg.method == "rk4" else _run_rkf45
    run(rhs, _legs(s0.z + s0.zb), cfg, times, flat)
    return Trajectory(times, rows)


# ---------------------------------------------------------------------------
# trajectory audits
# ---------------------------------------------------------------------------


def _series_roots(p: LagrangianProblem) -> tuple:
    """exp(lam)*dL/dzb_i, exp(-lam)*dL/dz_i, dL/dz_i and dL/dzb_i, each for
    i = 1..n in that order."""
    grow = Apply("exp", p.lam)
    shrink = Apply("exp", Negate(p.lam))
    lz = [differentiate(p.L, z_var(i)) for i in p.chart.indices()]
    lzb = [differentiate(p.L, zb_var(i)) for i in p.chart.indices()]
    roots = [Product((grow, d)) for d in lzb] + [Product((shrink, d)) for d in lz]
    return tuple(roots + lz + lzb)


def residual_series(p: LagrangianProblem, tr: Trajectory):
    """Independent audit of an EL trajectory.

    Replaces d/dt in the equations of motion with a central finite
    difference of exp(lam)*dL/dzb_i (and exp(-lam)*dL/dz_i) along the
    samples.  Returns one max-abs residual per sample; the two boundary
    samples have no centered neighbor and come back as nan.  A zero divisor
    or a domain failure raises with the failing sample's time.
    """
    times = tr.times
    out = [math.nan] * len(times)
    if len(times) < 3:
        return out
    n = p.chart.n
    fn = lower(_series_roots(p), p.chart.slots())
    # a window of three rows' roots: before, here and after sample k
    rows = _leg_rows(tr.rows)
    before, here = _sampled(fn, next(rows), times[0]), _sampled(fn, next(rows), times[1])
    for k, y in enumerate(rows, 1):
        after = _sampled(fn, y, times[k + 1])
        # three-point first derivative, exact to second order even when the
        # last step was shortened to land on t1
        h1 = times[k] - times[k - 1]
        h2 = times[k + 1] - times[k]
        denom = h1 * h2 * (h1 + h2)
        wm = -h2 * h2 / denom
        w0 = (h2 * h2 - h1 * h1) / denom
        wp = h1 * h1 / denom
        rate = [wm * a + w0 * b + wp * c for a, b, c in zip(before, here, after)]
        worst = 0.0
        for i in range(n):
            # legs of root r sit at 2r and 2r+1, and j maps (u, v) to (u, -v):
            # j*d/dt(exp(lam)*dL/dzb_i) + dL/dz_i and
            # j*d/dt(exp(-lam)*dL/dz_i) - dL/dzb_i
            a, b, lz, lzb = 2 * i, 2 * (n + i), 2 * (2 * n + i), 2 * (3 * n + i)
            worst = max(
                worst,
                abs(rate[a] + here[lz]),
                abs(here[lz + 1] - rate[a + 1]),
                abs(rate[b] - here[lzb]),
                abs(rate[b + 1] + here[lzb + 1]),
            )
        out[k] = worst
        before, here = here, after
    return out


def _energy_legs(p, tr: Trajectory):
    """The legs [u, v] of the energy at every sample, one list per sample,
    yielded in order.

    Hamiltonian problems evaluate the lowered H directly.  Lagrangian
    problems evaluate the lowered energy function with the velocities
    obtained from the EL solve at each sample.  A degenerate system, a zero
    divisor or a domain failure raises with the failing sample's time.
    """
    if isinstance(p, HamiltonianProblem):
        h = lower((p.H,), p.chart.slots())
        for t, y in zip(tr.times, _leg_rows(tr.rows)):
            yield _sampled(h, y, t)
        return
    velocities = tuple((f, i) for f in ("xi", "xib") for i in p.chart.indices())
    e_fn = lower((energy(p),), p.chart.slots() + velocities)
    rhs = make_el_rhs(synthesize_el(p))
    for t, y in zip(tr.times, _leg_rows(tr.rows)):
        yield _sampled(e_fn, y + _sampled(rhs, y, t), t)


def energy_columns(p, tr: Trajectory) -> tuple:
    """The energy's (a, b) at every sample as two array('d') columns, the
    .a and .b of energy_along's values bit for bit, with no ParaComplex
    built."""
    col_a, col_b = array("d"), array("d")
    add_a, add_b = col_a.append, col_b.append
    for u, v in _energy_legs(p, tr):
        add_a((u + v) / 2.0)
        add_b((u - v) / 2.0)
    return col_a, col_b


def energy_along(p, tr: Trajectory):
    """Energy value at every sample, as a ParaComplex that keeps the
    energy's legs exactly (see _energy_legs for how they are computed and
    how a failing sample is reported)."""
    return [ParaComplex.from_idempotent(u, v) for u, v in _energy_legs(p, tr)]
