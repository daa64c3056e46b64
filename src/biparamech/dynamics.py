"""Numerical side: para-complex linear solves, right-hand sides, and
Runge-Kutta time stepping.

The implicit Euler-Lagrange system is resolved to explicit form at every
evaluation (solve M*xdot = b per step) instead of symbolically inverting M;
symbolic inversion blows up for n > 1 and hides degeneracy behind huge
expressions.  Because para-complex multiplication acts componentwise on the
idempotent components, one para-complex linear system splits exactly into two
independent real systems, which is how solve_para_linear works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .eom import (
    DegenerateLagrangian,
    ExplicitODE,
    HamiltonianProblem,
    ImplicitODE,
    LagrangianProblem,
    SingularDenominator,
    energy,
    synthesize_el,
)
from .para_algebra import ParaComplex
from .symbolic import (
    Apply,
    EvalState,
    Negate,
    Product,
    compile_expr,
    differentiate,
    simplify,
    z_var,
    zb_var,
)

# pivot below this fraction of its row scale counts as structurally singular
PIVOT_TOL = 1e-12

_J = ParaComplex(0.0, 1.0)


class StepFailure(RuntimeError):
    """Adaptive step-size underflow or a non-finite state."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)


class _NonFinite(Exception):
    # internal: lets the adaptive loop reject a blown-up trial step
    pass


@dataclass(frozen=True)
class PhaseState:
    """A point on an integral curve: time plus both coordinate families."""

    t: float
    z: tuple
    zb: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "zb", tuple(self.zb))
        if len(self.z) != len(self.zb):
            raise ValueError("z and zb must have equal length")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str
    t0: float
    t1: float
    dt: float | None = None
    tol: float | None = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.method == "rk4":
            if self.dt is None or not self.dt > 0:
                raise ValueError("rk4 requires dt > 0")
        else:
            if self.tol is None or not self.tol > 0:
                raise ValueError("rkf45 requires tol > 0")


@dataclass
class Trajectory:
    samples: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def times(self):
        return [s.t for s in self.samples]


# ---------------------------------------------------------------------------
# para-complex linear algebra
# ---------------------------------------------------------------------------


def _solve_real(mat, rhs, which: str):
    """Gaussian elimination with scaled partial pivoting on one real system."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    scale = []
    for row in a:
        s = max(abs(x) for x in row[:n])
        if s == 0.0:
            raise DegenerateLagrangian(f"zero row in {which} component system")
        scale.append(s)
    for k in range(n):
        pivot_row = k
        best = abs(a[k][k]) / scale[k]
        for r in range(k + 1, n):
            mag = abs(a[r][k]) / scale[r]
            if mag > best:
                best, pivot_row = mag, r
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


def solve_para_linear(M, b):
    """Solve M*x = b over para-complex values.

    Splits into the two idempotent-component real systems, eliminates each
    with partial pivoting, and recombines.  A pivot below PIVOT_TOL relative
    to its row scale raises DegenerateLagrangian.
    """
    m = len(b)
    mu = [[M[r][c].u for c in range(m)] for r in range(m)]
    mv = [[M[r][c].v for c in range(m)] for r in range(m)]
    xu = _solve_real(mu, [w.u for w in b], "e+")
    xv = _solve_real(mv, [w.v for w in b], "e-")
    return tuple(
        ParaComplex(0.5 * (u + v), 0.5 * (u - v)) for u, v in zip(xu, xv)
    )


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _compiled_el(ode: ImplicitODE):
    n = ode.chart.n
    m_fns = tuple(tuple(compile_expr(e) for e in row) for row in ode.M)
    b_fns = tuple(compile_expr(e) for e in ode.b)

    def rhs(s):
        mvals = [[f(s) for f in row] for row in m_fns]
        bvals = [f(s) for f in b_fns]
        try:
            x = solve_para_linear(mvals, bvals)
        except DegenerateLagrangian as exc:
            raise DegenerateLagrangian(
                str(exc), t=getattr(s, "t", None)
            ) from None
        return x[:n], x[n:]

    return rhs


def make_el_rhs(ode: ImplicitODE):
    """Compiled state-derivative closure for an implicit EL system."""
    return _compiled_el(ode)


def el_rhs(ode: ImplicitODE, s):
    """One-shot evaluation: M(s) and b(s), then the para-linear solve."""
    return _compiled_el(ode)(s)


@lru_cache(maxsize=64)
def _compiled_ham(ode: ExplicitODE):
    fz = tuple(compile_expr(e) for e in ode.rhs_z)
    fzb = tuple(compile_expr(e) for e in ode.rhs_zb)
    dplus = compile_expr(ode.denom_plus)
    dminus = compile_expr(ode.denom_minus)

    def rhs(s):
        t = getattr(s, "t", None)
        if not dplus(s).invertible:
            raise SingularDenominator("D+", t=t)
        if not dminus(s).invertible:
            raise SingularDenominator("D-", t=t)
        return tuple(f(s) for f in fz), tuple(f(s) for f in fzb)

    return rhs


def make_ham_rhs(ode: ExplicitODE):
    """Compiled closure for an explicit Hamilton system.  Denominators are
    re-checked for invertibility at every call so singular states abort with
    the offending time instead of a bare zero-divisor error."""
    return _compiled_ham(ode)


def ham_rhs(ode: ExplicitODE, s):
    return _compiled_ham(ode)(s)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _flatten(z, zb):
    out = []
    for w in z:
        out.append(w.a)
        out.append(w.b)
    for w in zb:
        out.append(w.a)
        out.append(w.b)
    return out


def _unflatten(vals, n):
    z = tuple(ParaComplex(vals[2 * i], vals[2 * i + 1]) for i in range(n))
    zb = tuple(
        ParaComplex(vals[2 * (n + i)], vals[2 * (n + i) + 1]) for i in range(n)
    )
    return z, zb


def _deriv_factory(rhs, n):
    def deriv(t, y):
        for v in y:
            if not math.isfinite(v):
                raise _NonFinite
        z, zb = _unflatten(y, n)
        dz, dzb = rhs(PhaseState(t=t, z=z, zb=zb))
        return _flatten(dz, dzb)

    return deriv


def _rk4_step(deriv, t, y, h):
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * h, [yi + 0.5 * h * ki for yi, ki in zip(y, k1)])
    k3 = deriv(t + 0.5 * h, [yi + 0.5 * h * ki for yi, ki in zip(y, k2)])
    k4 = deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    w = h / 6.0
    return [
        yi + w * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


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


def _run_rk4(deriv, y, cfg, samples, n):
    span = cfg.t1 - cfg.t0
    nfull = int(math.floor(span / cfg.dt + 1e-9))
    remainder = span - nfull * cfg.dt
    if remainder <= cfg.dt * 1e-9:
        remainder = 0.0
    total = nfull + (1 if remainder else 0)
    if total > cfg.max_steps:
        raise StepFailure(
            f"{total} steps exceed max_steps={cfg.max_steps}", t=cfg.t0
        )
    for k in range(total):
        t_a = cfg.t0 + k * cfg.dt
        t_b = cfg.t1 if k == total - 1 else cfg.t0 + (k + 1) * cfg.dt
        try:
            y = _rk4_step(deriv, t_a, y, t_b - t_a)
        except _NonFinite:
            raise StepFailure("state left the finite domain", t=t_a) from None
        z, zb = _unflatten(y, n)
        samples.append(PhaseState(t=t_b, z=z, zb=zb))
    return y


def _run_rkf45(deriv, y, cfg, samples, n):
    span = cfg.t1 - cfg.t0
    tol = cfg.tol
    h_min = 1e-12 * span
    t = cfg.t0
    h = span / 100.0
    attempts = 0
    while t < cfg.t1 - 1e-15 * max(1.0, abs(cfg.t1)):
        h = min(h, cfg.t1 - t)
        if h < h_min:
            raise StepFailure(f"step size underflow (h={h!r})", t=t)
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepFailure(
                f"no convergence within max_steps={cfg.max_steps}", t=t
            )
        try:
            ks = []
            m = len(y)
            for stage in range(6):
                if stage == 0:
                    yi = y
                else:
                    coeffs = _RKF_A[stage]
                    yi = list(y)
                    for q, aq in enumerate(coeffs):
                        if aq != 0.0:
                            kq = ks[q]
                            for idx in range(m):
                                yi[idx] += h * aq * kq[idx]
                ks.append(deriv(t + _RKF_C[stage] * h, yi))
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
        if err_norm <= 1.0:
            t_next = cfg.t1 if cfg.t1 - (t + h) < h_min else t + h
            y = y5
            z, zb = _unflatten(y, n)
            samples.append(PhaseState(t=t_next, z=z, zb=zb))
            t = t_next
        if err_norm == 0.0:
            factor = 5.0
        else:
            factor = 0.9 * err_norm ** -0.2
            factor = min(5.0, max(0.2, factor))
        h = h * factor
    return y


def integrate(rhs, s0: PhaseState, cfg: IntegratorConfig) -> Trajectory:
    """Drive a state-derivative function from t0 to t1.

    rhs maps a PhaseState to (dz, dzb) tuples.  Classical fixed-step RK4 or
    RKF45 with mixed absolute/relative error control; each para-complex
    component is integrated as its two real parts.
    """
    n = len(s0.z)
    deriv = _deriv_factory(rhs, n)
    y = _flatten(s0.z, s0.zb)
    start = PhaseState(t=cfg.t0, z=s0.z, zb=s0.zb)
    samples = [start]
    if cfg.method == "rk4":
        _run_rk4(deriv, y, cfg, samples, n)
    else:
        _run_rkf45(deriv, y, cfg, samples, n)
    return Trajectory(samples=samples)


# ---------------------------------------------------------------------------
# trajectory audits
# ---------------------------------------------------------------------------


def _series_closures(p: LagrangianProblem):
    a_fns, b_fns, lz_fns, lzb_fns = [], [], [], []
    grow = Apply("exp", p.lam)
    shrink = Apply("exp", Negate(p.lam))
    for i in p.chart.indices():
        lz = differentiate(p.L, z_var(i))
        lzb = differentiate(p.L, zb_var(i))
        a_fns.append(compile_expr(simplify(Product((grow, lzb)))))
        b_fns.append(compile_expr(simplify(Product((shrink, lz)))))
        lz_fns.append(compile_expr(simplify(lz)))
        lzb_fns.append(compile_expr(simplify(lzb)))
    return a_fns, b_fns, lz_fns, lzb_fns


def residual_series(p: LagrangianProblem, tr: Trajectory):
    """Independent audit of an EL trajectory.

    Replaces d/dt in the equations of motion with a central finite
    difference of exp(lam)*dL/dzb_i (and exp(-lam)*dL/dz_i) along the
    samples.  Returns one max-abs residual per sample; the two boundary
    samples have no centered neighbor and come back as nan.
    """
    samples = tr.samples
    out = [math.nan] * len(samples)
    if len(samples) < 3:
        return out
    a_fns, b_fns, lz_fns, lzb_fns = _series_closures(p)
    a_vals = [[f(s) for f in a_fns] for s in samples]
    b_vals = [[f(s) for f in b_fns] for s in samples]

    def ddt(vals, k, i, wm, w0, wp):
        prev, here, nxt = vals[k - 1][i], vals[k][i], vals[k + 1][i]
        return ParaComplex(
            wm * prev.a + w0 * here.a + wp * nxt.a,
            wm * prev.b + w0 * here.b + wp * nxt.b,
        )

    for k in range(1, len(samples) - 1):
        # three-point first derivative, exact to second order even when the
        # last step was shortened to land on t1
        h1 = samples[k].t - samples[k - 1].t
        h2 = samples[k + 1].t - samples[k].t
        denom = h1 * h2 * (h1 + h2)
        wm = -h2 * h2 / denom
        w0 = (h2 * h2 - h1 * h1) / denom
        wp = h1 * h1 / denom
        s = samples[k]
        worst = 0.0
        for i in range(len(a_fns)):
            r1 = _J * ddt(a_vals, k, i, wm, w0, wp) + lz_fns[i](s)
            r2 = _J * ddt(b_vals, k, i, wm, w0, wp) - lzb_fns[i](s)
            worst = max(worst, abs(r1), abs(r2))
        out[k] = worst
    return out


def energy_along(p, tr: Trajectory):
    """Energy value at every sample.

    Hamiltonian problems evaluate H directly.  Lagrangian problems evaluate
    the energy function with the velocities obtained from the EL solve at
    each sample, so a degenerate system raises with the failing time.
    """
    if isinstance(p, HamiltonianProblem):
        f = compile_expr(p.H)
        return [f(s) for s in tr.samples]
    e_fn = compile_expr(energy(p))
    rhs = _compiled_el(synthesize_el(p))
    out = []
    for s in tr.samples:
        dz, dzb = rhs(s)
        out.append(e_fn(EvalState(z=s.z, zb=s.zb, xi=dz, xib=dzb)))
    return out
