import math
import random

import numpy as np
import pytest

from biparamech.dynamics import (
    IntegratorConfig,
    PhaseState,
    StepFailure,
    Trajectory,
    el_rhs,
    energy_along,
    ham_rhs,
    integrate,
    make_el_rhs,
    make_ham_rhs,
    residual_series,
    solve_para_linear,
)
from biparamech.eom import (
    DegenerateLagrangian,
    HamiltonianProblem,
    LagrangianProblem,
    SingularDenominator,
    synthesize_el,
    synthesize_ham,
)
from biparamech.para_algebra import ONE, ZERO, ParaComplex
from biparamech.symbolic import CoordinateChart, parse

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


def osc_exact(t):
    # closed form for the EL flow of z1*zb1 from (z1, zb1) = (1, 0)
    return pc(math.cos(t)), pc(0.0, math.sin(t))


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


class TestSolveParaLinear:
    def test_identity(self):
        M = ((ONE, ZERO), (ZERO, ONE))
        b = (pc(2.0, 1.0), pc(-0.5, 3.0))
        assert solve_para_linear(M, b) == b

    def test_antidiagonal_j(self):
        M = ((ZERO, J), (J, ZERO))
        x = solve_para_linear(M, (ONE, J))
        assert close(x[0], ONE)
        assert close(x[1], J)

    def test_zero_matrix_degenerate(self):
        M = ((ZERO, ZERO), (ZERO, ZERO))
        with pytest.raises(DegenerateLagrangian):
            solve_para_linear(M, (ONE, ONE))

    def test_one_component_singular(self):
        # e- component of e+ basis element is zero: matrix diag(e+) is
        # invertible on the plus leg only
        eplus = pc(0.5, 0.5)
        with pytest.raises(DegenerateLagrangian):
            solve_para_linear(((eplus,),), (ONE,))

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
            x = solve_para_linear(raw, b)
            scale = max(1.0, max(abs(w) for w in b))
            for i in range(m):
                acc = ZERO
                for k in range(m):
                    acc = acc + raw[i][k] * x[k]
                r = acc - b[i]
                assert max(abs(r.a), abs(r.b)) <= 1e-10 * scale
            done += 1


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

    def test_conformal_factor_scales_velocity(self):
        ode = synthesize_el(lagrangian("z1*zb1", lam="0.5"))
        s = PhaseState(t=0.0, z=(pc(0.0),), zb=(pc(1.0),))
        dz, _ = el_rhs(ode, s)
        assert close(dz[0], -J * pc(math.exp(-0.5)))


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


class TestIntegrate:
    def test_zero_rhs_constant_trajectory(self):
        rhs = lambda s: ((ZERO,), (ZERO,))
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
        # dz1/dt = -j*z1 from 1: z1(t) = cosh(t) - j*sinh(t)
        rhs = lambda s: ((-J * s.z[0],), (ZERO,))
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
        rhs = lambda s: ((pc(math.inf),), (ZERO,))
        cfg = IntegratorConfig(method="rkf45", t0=0.0, t1=1.0, tol=1e-8)
        with pytest.raises(StepFailure):
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)

    def test_rk4_nonfinite_state_fails_with_time(self):
        rhs = lambda s: ((pc(math.inf),), (ZERO,))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=0.25)
        with pytest.raises(StepFailure) as exc:
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)
        assert exc.value.t is not None

    def test_max_steps_guard(self):
        rhs = lambda s: ((ZERO,), (ZERO,))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=1e-3, max_steps=10)
        with pytest.raises(StepFailure):
            integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)

    def test_degenerate_rhs_error_carries_time(self):
        ode = synthesize_el(lagrangian("z1"))
        rhs = make_el_rhs(ode)
        cfg = IntegratorConfig(method="rk4", t0=2.0, t1=3.0, dt=0.5)
        with pytest.raises(DegenerateLagrangian) as exc:
            integrate(rhs, PhaseState(t=2.0, z=(pc(1.0),), zb=(pc(1.0),)), cfg)
        assert exc.value.t == 2.0


# ---------------------------------------------------------------------------
# residual audit
# ---------------------------------------------------------------------------


def _osc_trajectory(dt=1e-3, t1=math.pi):
    rhs = make_el_rhs(synthesize_el(OSC))
    cfg = IntegratorConfig(method="rk4", t0=0.0, t1=t1, dt=dt)
    return integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(0.0),)), cfg)


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
        rhs = lambda s: ((ZERO,), (ZERO,))
        cfg = IntegratorConfig(method="rk4", t0=0.0, t1=1.0, dt=0.01)
        tr = integrate(rhs, PhaseState(t=0.0, z=(pc(1.0),), zb=(pc(1.0),)), cfg)
        res = residual_series(p, tr)
        assert max(res[1:-1]) <= 1e-12

    def test_mismatched_lagrangian_is_loud(self):
        tr = _osc_trajectory(dt=5e-3)
        res = residual_series(lagrangian("z1^2*zb1 + 0.3*zb1^2"), tr)
        assert max(res[1:-1]) > 1e-2

    def test_short_trajectory_all_nan(self):
        tr = Trajectory(
            samples=[
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
        tr = Trajectory(
            samples=[PhaseState(t=0.0, z=(pc(2.0),), zb=(pc(3.0),))]
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
