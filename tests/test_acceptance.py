"""End-to-end acceptance battery.

Each test pins one user-visible guarantee at its published tolerance and
wall-clock budget, all on fixed seeds.  The closing test bounds the whole
battery's runtime.  Nothing here may loosen a tolerance: if a guarantee
slips, the right fix is in the library, not in this file.
"""

import math
import time

import pytest

from biparamech import (
    CoordinateChart,
    DegenerateLagrangian,
    E_MINUS,
    E_PLUS,
    HamiltonianProblem,
    IntegratorConfig,
    J,
    LagrangianProblem,
    ONE,
    ParaComplex,
    PhaseState,
    SingularDenominator,
    audit_battery,
    check_reduction,
    energy_along,
    fixture_problem,
    integrate,
    make_el_rhs,
    make_ham_rhs,
    parse,
    residual_series,
    run_all,
    selftest_algebra,
    synthesize_el,
    synthesize_ham,
)
from biparamech.verify import EL_TRAJECTORIES, FIXTURE_LAGRANGIANS

SEED = 42

# wall-clock spent per test, summed by the closing budget test
_ELAPSED: dict[str, float] = {}


class _budget:
    """Time a block, record it, and fail if it overruns its cap."""

    def __init__(self, name: str, cap: float):
        self.name = name
        self.cap = cap

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.perf_counter() - self.t0
        _ELAPSED[self.name] = took
        if exc_type is None:
            assert took < self.cap, f"{self.name}: {took:.3f}s exceeds {self.cap}s budget"
        return False


def _named(report):
    return {c.name: c for c in report.checks}


def _oscillator_rhs():
    chart = CoordinateChart(1)
    p = LagrangianProblem(chart, parse("z1*zb1", chart), parse("0", chart))
    return make_el_rhs(synthesize_el(p))


def _closed_form_deviation(sample):
    # reference orbit: z1(t) = cos t, zb1(t) = j*sin t
    want_z = ParaComplex(math.cos(sample.t), 0.0)
    want_zb = ParaComplex(0.0, math.sin(sample.t))
    return max(abs(sample.z[0] - want_z), abs(sample.zb[0] - want_zb))


def test_basis_identities_hold_exactly_and_survive_roundtrip():
    with _budget("algebra-identities", 1.0):
        # the five defining relations, exact in canonical arithmetic
        assert E_PLUS * E_PLUS == E_PLUS
        assert E_MINUS * E_MINUS == E_MINUS
        assert E_PLUS * E_MINUS == ParaComplex(0.0, 0.0)
        assert E_PLUS + E_MINUS == ONE
        assert E_PLUS - E_MINUS == J
        assert J * J == ONE
        report = selftest_algebra(SEED)
    by = _named(report)
    assert by["algebra-basis-constants"].passed
    assert by["algebra-basis-constants"].measured == 0.0
    # 1000 seeded operands, identities exact on the idempotent legs
    assert by["algebra-idempotent-exact"].passed
    assert by["algebra-idempotent-exact"].measured == 0.0
    # and within 1e-15 after recombining to canonical coordinates
    assert by["algebra-idempotent-roundtrip"].passed
    assert by["algebra-idempotent-roundtrip"].measured <= 1e-15


def test_operator_action_tables_match_symbolically():
    with _budget("structure-tables", 1.0):
        report = selftest_algebra(SEED)
    by = _named(report)
    for name in (
        "algebra-structure-tables",
        "algebra-j-involution",
        "algebra-pdiff-involution",
        "algebra-w-at-zero-matches-p",
    ):
        check = by[name]
        assert check.passed, f"{name}: measured={check.measured!r}"


def test_oscillator_tracks_closed_form_orbit():
    rhs = _oscillator_rhs()
    start = PhaseState(0.0, (ParaComplex(1.0, 0.0),), (ParaComplex(0.0, 0.0),))
    with _budget("oscillator-closed-form", 1.0):
        tr = integrate(rhs, start, IntegratorConfig("rk4", 0.0, 2.0 * math.pi, dt=1e-3))
        worst = max(_closed_form_deviation(s) for s in tr.samples)
    assert worst <= 1e-8, f"max deviation {worst!r}"


def test_flat_synthesis_matches_classical_oracle():
    with _budget("flat-reduction", 5.0):
        for kind, prefix in (("lagrangian", "L"), ("hamiltonian", "H")):
            for i in range(1, 6):
                name = f"{prefix}{i}"
                p = fixture_problem(kind, name)
                check = check_reduction(p, 100, SEED).checks[0]
                assert check.passed, f"{name}: measured={check.measured!r}"
                assert check.measured <= 1e-12


def test_constant_conformal_factor_conserves_energy():
    chart = CoordinateChart(1)
    p = HamiltonianProblem(
        chart, parse("z1*zb1 + 0.1*z1^2", chart), parse("0.7", chart)
    )
    rhs = make_ham_rhs(synthesize_ham(p))
    start = PhaseState(0.0, (ParaComplex(0.55, 0.45),), (ParaComplex(0.15, 0.05),))
    with _budget("energy-conservation", 2.0):
        tr = integrate(rhs, start, IntegratorConfig("rkf45", 0.0, 10.0, tol=1e-10))
        energies = energy_along(p, tr)
    h0 = energies[0]
    drift = max(max(abs(h.a - h0.a), abs(h.b - h0.b)) for h in energies)
    assert drift <= 1e-8, f"componentwise drift {drift!r}"


def test_fixture_trajectories_and_state_audits_stay_clean():
    with _budget("residual-audits", 10.0):
        # finite-difference residual along each shipped Lagrangian trajectory
        for name, _, _ in FIXTURE_LAGRANGIANS:
            p = fixture_problem("lagrangian", name)
            zs, zbs, t1, dt = EL_TRAJECTORIES[name]
            start = PhaseState(
                0.0,
                tuple(ParaComplex(*w) for w in zs),
                tuple(ParaComplex(*w) for w in zbs),
            )
            tr = integrate(
                make_el_rhs(synthesize_el(p)), start, IntegratorConfig("rk4", 0.0, t1, dt=dt)
            )
            interior = [r for r in residual_series(p, tr) if not math.isnan(r)]
            assert interior, name
            assert max(interior) <= 1e-5, f"{name}: residual {max(interior)!r}"
        # plug-back and dual-route audits at random nonsingular states
        for kind, prefix in (("lagrangian", "L"), ("hamiltonian", "H")):
            for i in range(1, 6):
                name = f"{prefix}{i}"
                p = fixture_problem(kind, name)
                check = audit_battery(p, 100, SEED).checks[0]
                assert check.passed, f"{name}: measured={check.measured!r}"
                assert check.measured <= 1e-10


def test_singular_and_degenerate_problems_abort():
    with _budget("singularity-detection", 1.0):
        chart = CoordinateChart(1)
        singular = HamiltonianProblem(
            chart, parse("z1*zb1", chart), parse("2*z1 - 2", chart)
        )
        rhs = make_ham_rhs(synthesize_ham(singular))
        start = PhaseState(0.0, (ParaComplex(1.0, 0.0),), (ParaComplex(0.3, 0.1),))
        with pytest.raises(SingularDenominator) as caught:
            integrate(rhs, start, IntegratorConfig("rkf45", 0.0, 1.0, tol=1e-8))
        assert caught.value.which == "D-"

        degenerate = LagrangianProblem(chart, parse("z1", chart), parse("0", chart))
        deg_rhs = make_el_rhs(synthesize_el(degenerate))
        deg_start = PhaseState(0.0, (ParaComplex(0.5, 0.1),), (ParaComplex(0.2, 0.0),))
        with pytest.raises(DegenerateLagrangian):
            integrate(deg_rhs, deg_start, IntegratorConfig("rk4", 0.0, 1.0, dt=0.01))


def test_rk4_endpoint_error_scales_at_fourth_order():
    rhs = _oscillator_rhs()
    start = PhaseState(0.0, (ParaComplex(1.0, 0.0),), (ParaComplex(0.0, 0.0),))

    def endpoint_error(dt):
        tr = integrate(rhs, start, IntegratorConfig("rk4", 0.0, 2.0 * math.pi, dt=dt))
        return _closed_form_deviation(tr.samples[-1])

    with _budget("rk4-order", 2.0):
        coarse = endpoint_error(2e-3)
        fine = endpoint_error(1e-3)
    ratio = coarse / fine
    assert 12.0 <= ratio <= 20.0, f"error ratio {ratio!r}"


def test_parser_roundtrip_and_derivative_oracles_pass():
    with _budget("symbolic-suites", 5.0):
        report = run_all(SEED)
    by = _named(report)
    roundtrip = by["roundtrip-text"]
    assert roundtrip.passed, f"measured={roundtrip.measured!r}"
    derivative = by["fd-derivative-suite"]
    assert derivative.passed, f"measured={derivative.measured!r}"
    assert derivative.measured <= 1e-6


def test_whole_battery_fits_the_time_budget():
    # runs last in file order; earlier tests deposit their wall time here
    total = sum(_ELAPSED.values())
    assert total < 30.0, f"battery took {total:.2f}s"
