import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biparamech.verify
from biparamech.cli import load_problem
from biparamech.dynamics import (
    _TIMED_ERRORS,
    _NonFinite,
    IntegratorConfig,
    PhaseState,
    StepFailure,
    at_state,
    integrate,
    make_el_rhs,
    make_ham_rhs,
)
from biparamech.eom import (
    DegenerateLagrangian,
    HamiltonianProblem,
    LagrangianProblem,
    SingularDenominator,
    synthesize_el,
    synthesize_ham,
)
from biparamech.para_algebra import DomainError, ParaComplex, ZeroDivisor
from biparamech.symbolic import CoordinateChart, EvalState, evaluate, parse
from biparamech.verify import (
    CheckResult,
    FIXTURE_HAMILTONIANS,
    FIXTURE_LAGRANGIANS,
    Report,
    _conditioned,
    _factor,
    _solve,
    _worst_over,
    audit_battery,
    check_fd,
    check_reduction,
    conservation_report,
    fixture_problem,
    random_expression,
    random_state,
    run_all,
    selftest_algebra,
)
from test_dynamics import conformal_l

C1 = CoordinateChart(1)
DATA = Path(__file__).parent / "data"

LINE = re.compile(
    r"^CHECK [a-z0-9-]+ (PASS|FAIL) measured=\S+ threshold=\S+$"
)


class TestReportShape:
    def test_render_format(self):
        r = selftest_algebra(3)
        for line in r.render().splitlines():
            assert LINE.match(line), line

    def test_fail_renders_fail(self):
        c = CheckResult("probe", False, 1.0, 0.5)
        assert c.render() == "CHECK probe FAIL measured=1.0 threshold=0.5"

    def test_bit_identical_given_seed(self):
        assert run_all(11).render() == run_all(11).render()

    def test_all_pass_property(self):
        good = Report(checks=[CheckResult("a", True, 0.0, 1.0)])
        bad = Report(
            checks=[CheckResult("a", True, 0.0, 1.0), CheckResult("b", False, 2.0, 1.0)],
        )
        assert good.all_pass and not bad.all_pass


class TestSelftestAlgebra:
    @pytest.mark.parametrize("seed", [0, 1, 42, 999])
    def test_passes_for_every_seed(self, seed):
        r = selftest_algebra(seed)
        assert r.all_pass

    def test_exact_checks_measure_zero(self):
        r = selftest_algebra(42)
        by_name = {c.name: c for c in r.checks}
        assert by_name["algebra-idempotent-exact"].measured == 0.0
        assert by_name["algebra-structure-tables"].measured == 0.0
        assert by_name["algebra-w-at-zero-matches-p"].measured == 0.0

    def test_roundtrip_check_has_loose_threshold(self):
        r = selftest_algebra(42)
        by_name = {c.name: c for c in r.checks}
        assert by_name["algebra-idempotent-roundtrip"].threshold == 1e-15


class TestCheckFd:
    def test_exp_product(self):
        r = check_fd(parse("exp(z1)*zb1", C1), samples=20, seed=5)
        assert r.all_pass

    def test_cubic_polynomial(self):
        r = check_fd(parse("z1^3 + 2*z1^2*zb1 - zb1^3", C1), samples=20, seed=6)
        assert r.all_pass

    def test_constant_measures_exactly_zero(self):
        r = check_fd(parse("7", C1), samples=5, seed=7)
        assert r.all_pass
        assert r.checks[0].measured == 0.0

    def test_a_rejected_state_adds_nothing_to_worst(self, monkeypatch):
        # z1's stencil is off by 0.5 where zb1's fails, at states with
        # a(z1) > 0: those are redrawn, so only exact partials are measured.
        # The stencil returns legs; ParaComplex(0.5, 0.0) adds 0.5 to each
        real = biparamech.verify._fd_partial

        def stencil(expr, s, family, i, h):
            if s.z[0].a > 0:
                if family == "zb":
                    raise biparamech.verify.ZeroDivisor("redrawn")
                u, v = real(expr, s, family, i, h)
                return u + 0.5, v + 0.5
            return real(expr, s, family, i, h)

        monkeypatch.setattr(biparamech.verify, "_fd_partial", stencil)
        r = check_fd(parse("z1 + 2*zb1", C1), samples=20, seed=7)
        assert r.checks[0].measured < 1e-9

    def test_stencils_run_only_for_variables_the_expression_holds(self, monkeypatch):
        # over z1..zb2 the expression lacks z1 and zb2: their difference
        # quotients are exactly 0.0, and only z2 and zb1 are stenciled
        real = biparamech.verify._fd_partial
        calls = []

        def stencil(expr, s, family, i, h):
            calls.append((family, i, h))
            return real(expr, s, family, i, h)

        monkeypatch.setattr(biparamech.verify, "_fd_partial", stencil)
        r = check_fd(parse("exp(0.3*z2)*zb1 + z2^2", CoordinateChart(2)), samples=10, seed=3)
        assert r.all_pass
        assert {(family, i) for family, i, _ in calls} == {("z", 2), ("zb", 1)}
        # h and h/2 for each held variable at each state measured
        assert len(calls) >= 4 * 10 and len(calls) % 4 == 0

    def test_a_lacked_variable_redraws_no_state_above_the_noise_floor(self, monkeypatch):
        # over z1..zb2 the expression lacks zb1 and zb2; their difference
        # quotients are exactly 0.0, so the cancellation floor, which a
        # value above 1e-8*h/2.3e-16 (about 435) fails, is not applied to
        # them, and every state drawn is measured
        real = biparamech.verify.random_state
        expr = parse("1000*z1 + 1000*z2", CoordinateChart(2))
        values = []

        def drawn(rng, n):
            s = real(rng, n)
            values.append(evaluate(expr, s))
            return s

        monkeypatch.setattr(biparamech.verify, "random_state", drawn)
        r = check_fd(expr, samples=20, seed=3)
        assert r.all_pass
        assert len(values) == 20
        # most of these states sit above the floor that redrew them before
        floor = 1e-8 * biparamech.verify.FD_STEP / 2.3e-16
        assert sum(max(abs(v.u), abs(v.v)) > floor for v in values) > 10


class TestCheckReduction:
    def test_rejects_nonzero_lambda(self):
        p = LagrangianProblem(C1, parse("z1*zb1", C1), parse("0.5", C1))
        with pytest.raises(ValueError):
            check_reduction(p, 10, 1)

    def test_accepts_symbolically_zero_lambda(self):
        p = LagrangianProblem(C1, parse("z1 - z1", C1), parse("0", C1))
        # lam given as literal zero; also try a lambda that simplifies to zero
        q = LagrangianProblem(C1, parse("z1*zb1", C1), parse("z1 - z1", C1))
        assert check_reduction(q, 5, 1).all_pass

    def test_bilinear_lagrangian(self):
        r = check_reduction(fixture_problem("lagrangian", "L1"), 50, 3)
        assert r.all_pass

    def test_bilinear_hamiltonian(self):
        r = check_reduction(fixture_problem("hamiltonian", "H1"), 50, 3)
        assert r.all_pass

    def test_full_battery(self):
        for key, _, _ in FIXTURE_LAGRANGIANS:
            assert check_reduction(
                fixture_problem("lagrangian", key), 100, 17
            ).all_pass, key
        for key, _, _ in FIXTURE_HAMILTONIANS:
            assert check_reduction(
                fixture_problem("hamiltonian", key), 100, 17
            ).all_pass, key

    def test_perturbed_velocity_fails(self, monkeypatch):
        # the oracle still feeds the comparison: a 1e-9 relative error in
        # one synthesized velocity is caught
        exact = biparamech.verify.make_el_rhs

        def perturbed(ode):
            rhs = exact(ode)

            def wrong(y):  # dz1 * (1 + 1e-9) scales both of its legs
                dy = rhs(y)
                return [dy[0] * (1.0 + 1e-9), dy[1] * (1.0 + 1e-9)] + dy[2:]

            return wrong

        monkeypatch.setattr(biparamech.verify, "make_el_rhs", perturbed)
        r = check_reduction(fixture_problem("lagrangian", "L5"), 20, 42)
        assert not r.all_pass


class TestOracleSolve:
    # largest entry 9 sits in row 1, column 2, so the first complete pivot
    # swaps both a row and a column
    A = [
        [2.0, 1.0, 0.0, 1.0],
        [1.0, 3.0, 9.0, 0.0],
        [0.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0, 4.0],
    ]
    X = [1.0, -2.0, 3.0, -1.0]
    B = [-1.0, 22.0, 3.0, 0.0]  # A*X

    def test_complete_pivot_moves_row_and_column(self):
        factored = _factor(self.A)
        x, inverse = _solve(factored, self.B), factored[2]
        assert x == pytest.approx(self.X, abs=1e-14)
        for i in range(4):
            for j in range(4):
                entry = sum(self.A[i][k] * inverse[k][j] for k in range(4))
                assert entry == pytest.approx(float(i == j), abs=1e-14)

    def test_condition_boundary(self):
        accepted = _solve(_conditioned([[1.0, 0.0], [0.0, 1 / 99.5]]), [1.0, 1.0])
        assert accepted == pytest.approx([1.0, 99.5], rel=1e-15)
        assert _conditioned([[1.0, 0.0], [0.0, 1 / 100.5]]) is None

    @pytest.mark.parametrize(
        "a", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]]
    )
    def test_exactly_singular_is_rejected(self, a):
        assert _factor(a) is None
        assert _conditioned(a) is None


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import biparamech
import biparamech.cli
import biparamech.verify as verify
for kind, key in (("lagrangian", "L5"), ("hamiltonian", "H5")):
    report = verify.check_reduction(verify.fixture_problem(kind, key), 50, 42)
    assert report.all_pass, report.render()
print("ok")
"""


def test_runs_without_numpy():
    src = Path(biparamech.verify.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


class TestConservation:
    def _ham_trajectory(self, htext, lam, t1=10.0):
        chart = CoordinateChart(1)
        p = HamiltonianProblem(chart, parse(htext, chart), parse(lam, chart))
        rhs = make_ham_rhs(synthesize_ham(p))
        s0 = PhaseState(
            t=0.0, z=(ParaComplex(0.55, 0.45),), zb=(ParaComplex(0.15, 0.05),)
        )
        cfg = IntegratorConfig(method="rkf45", t0=0.0, t1=t1, tol=1e-10)
        return p, integrate(rhs, s0, cfg)

    def test_constant_lambda_asserted(self):
        p, tr = self._ham_trajectory("z1*zb1", "0.7")
        r = conservation_report(p, tr)
        assert r.all_pass
        assert r.checks[0].threshold == 1e-8

    def test_flat_lambda_asserted(self):
        p, tr = self._ham_trajectory("z1*zb1 + 0.1*z1^2", "0")
        r = conservation_report(p, tr)
        assert r.all_pass

    def test_lambda_that_simplifies_to_a_constant_asserted(self):
        # z1 - z1 simplifies to 0, where synthesis gives D+ = D- = 1 and
        # records no conformal split: the energy is asserted conserved
        p, tr = self._ham_trajectory("z1*zb1 + 0.1*z1^2", "z1 - z1")
        r = conservation_report(p, tr)
        assert r.checks[0].threshold == 1e-8
        assert r.all_pass

    def test_varying_lambda_informational(self):
        p, tr = self._ham_trajectory("z1*zb1", "0.1*z1*zb1", t1=1.0)
        r = conservation_report(p, tr)
        assert r.checks[0].threshold == math.inf
        assert r.all_pass

    def test_lagrangian_energy_never_asserted(self):
        p = LagrangianProblem(C1, parse("z1*zb1", C1), parse("0", C1))
        rhs = make_el_rhs(synthesize_el(p))
        s0 = PhaseState(t=0.0, z=(ParaComplex(1.0, 0.0),), zb=(ParaComplex(0.0, 0.0),))
        tr = integrate(rhs, s0, IntegratorConfig(method="rk4", t0=0.0, t1=2.0, dt=1e-3))
        r = conservation_report(p, tr)
        assert r.checks[0].name == "energy-drift-lagrangian"
        assert r.checks[0].threshold == math.inf
        assert r.all_pass
        # the drift is real: E_L is not an invariant of this flow
        assert r.checks[0].measured > 1e-4


class TestAuditBattery:
    def test_lagrangian_fixture(self):
        r = audit_battery(fixture_problem("lagrangian", "L3"), 50, 9)
        assert r.all_pass

    def test_hamiltonian_fixture(self):
        r = audit_battery(fixture_problem("hamiltonian", "H4"), 50, 9)
        assert r.all_pass

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param(LagrangianProblem(C1, parse("z1*zb1 + 0.3*zb1^2", C1), parse("0.2*z1*zb1", C1)),
                         id="quadratic"),
            pytest.param(LagrangianProblem(C1, parse("z1*zb1", C1), parse("0.5*z1", C1)), id="linear_lam"),
            pytest.param(conformal_l(2)[0], id="conformal_n2"),
        ],
    )
    def test_the_rank_one_solve_passes_the_two_form_audit(self, p):
        # a constant Hessian under a lam that is not constant takes the
        # rank-one builder; the audit checks its velocities against
        # i_X omega_L = dE_L, which never sees M
        assert synthesize_el(p).conformal is not None
        r = audit_battery(p, 100, 42)
        assert r.checks[0].measured <= 1e-10

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_is_an_error(self, samples):
        with pytest.raises(ValueError):
            audit_battery(fixture_problem("lagrangian", "L3"), samples, 9)

    def test_singular_draws_exhaust_the_budget(self, monkeypatch):
        def singular(p, s, t=None):
            raise SingularDenominator("D+")

        monkeypatch.setattr(biparamech.verify, "audit_hamilton", singular)
        with pytest.raises(SingularDenominator):
            audit_battery(fixture_problem("hamiltonian", "H1"), 2, 9)


class TestABuildProvedDegenerateIsNotDrawn:
    # each literal D is singular on a leg with no rank-one term: e+ for
    # L = z1 (M = 0), e- after the e+ lines for the others.  Before the
    # raise, ln(z1) fails at about three draws in four, and the conformal
    # system's e+ leg has its rank-one scalar.  exp(z1)'s M is names of the
    # state beside a row of literal zeros on each leg
    CASES = {
        "linear": ("z1", "0"),
        "one_leg": ("(1+j)*z1*zb1", "0"),
        "ln_before_the_raise": ("(1+j)*z1*zb1 + 0*z1*ln(z1)", "0"),
        "conformal": ("(1+j)*z1*zb1 + 0.1*(1+j)*z1^2", "0.3*(1+j)*z1^2"),
        "zero_row": ("exp(z1)", "0"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_the_verdict_is_what_the_draws_end_in(self, case, monkeypatch):
        L, lam = self.CASES[case]
        p = LagrangianProblem(C1, parse(L, C1), parse(lam, C1))
        rhs = make_el_rhs(synthesize_el(p))
        assert rhs.degenerate
        with pytest.raises(DegenerateLagrangian) as decided:
            audit_battery(p, 10, 9)
        raised = []

        def undecided(ode):  # the same function, which carries no verdict
            def call(y):
                try:
                    return rhs(y)
                except Exception as exc:
                    raised.append(type(exc))
                    raise

            return call

        monkeypatch.setattr(biparamech.verify, "make_el_rhs", undecided)
        with pytest.raises(DegenerateLagrangian) as drawn:
            audit_battery(p, 10, 9)
        assert str(decided.value) == str(drawn.value) == (
            "degenerate Lagrangian: 0 of 10 states well posed in 2000 draws"
        )
        assert len(raised) == 2000
        assert set(raised) <= {*_TIMED_ERRORS, _NonFinite}
        assert (DomainError in raised) == (case == "ln_before_the_raise")

    @pytest.mark.parametrize("L", ["z1*zb1", "exp(z1 + zb1)", "z1^2*zb1"])
    def test_no_other_system_carries_the_verdict(self, L):
        # exp(z1 + zb1)'s M is rank one at every state, with no literal
        # zero row: singular everywhere, but not decided by the build
        assert not make_el_rhs(synthesize_el(LagrangianProblem(C1, parse(L, C1), parse("0", C1)))).degenerate


class TestWorstOver:
    def test_stops_at_samples_accepted_states(self):
        seen = []

        def every_other(s):
            seen.append(s)
            return None if len(seen) % 2 else float(len(seen))

        assert _worst_over(random.Random(4), 2, 5, every_other, None) == 10.0
        assert len(seen) == 10
        # the states are random_state's stream from the given generator
        rng = random.Random(4)
        assert seen == [random_state(rng, 2) for _ in range(10)]

    def test_draws_at_most_samples_times_200(self):
        seen = []

        def reject(s):
            seen.append(s)
            return None

        with pytest.raises(RuntimeError):
            _worst_over(random.Random(4), 1, 3, reject, lambda done, last: RuntimeError(done))
        assert len(seen) == 600

    def test_starved_gets_the_accepted_count(self):
        seen = []
        counts = []

        def first_three(s):
            seen.append(s)
            return 1.0 if len(seen) <= 3 else None

        def starved(done, last):
            counts.append(done)
            return LookupError(f"{done} accepted")

        with pytest.raises(LookupError, match="^3 accepted$"):
            _worst_over(random.Random(4), 1, 4, first_three, starved)
        assert counts == [3]
        assert len(seen) == 800

    def test_enough_states_in_the_last_draw_is_no_starvation(self):
        seen = []

        def last_only(s):
            seen.append(s)
            return 2.0 if len(seen) == 200 else None

        assert _worst_over(random.Random(4), 1, 1, last_only, None) == 2.0
        assert len(seen) == 200

    # one of each runtime singularity, the errors the CLI exits 3 on
    SINGULARITIES = (
        DegenerateLagrangian("singular e+ component system"),
        SingularDenominator("D-"),
        StepFailure("state left the finite domain"),
        ZeroDivisor("zero-divisor denominator in '1/z1'"),
        DomainError("ln of non-positive leg -1.0"),
    )

    def test_the_singularities_are_the_timed_errors(self):
        assert tuple(map(type, self.SINGULARITIES)) == _TIMED_ERRORS

    @pytest.mark.parametrize("error", SINGULARITIES, ids=lambda e: type(e).__name__)
    def test_a_singularity_is_redrawn(self, error):
        seen = []

        def every_other(s):
            seen.append(s)
            if len(seen) % 2:
                raise error
            return float(len(seen))

        assert _worst_over(random.Random(4), 1, 3, every_other, None) == 6.0
        assert len(seen) == 6

    def test_the_last_singularity_reaches_starved(self):
        seen = []
        got = []

        def raising(s):
            seen.append(s)
            raise self.SINGULARITIES[len(seen) % 5]

        def starved(done, last):
            got.append((done, last))
            return LookupError("starved")

        with pytest.raises(LookupError):
            _worst_over(random.Random(4), 1, 2, raising, starved)
        assert len(seen) == 400
        assert len(got) == 1 and got[0][0] == 0 and got[0][1] is self.SINGULARITIES[0]

    def test_an_error_that_is_no_singularity_propagates(self):
        def broken(s):
            raise KeyError("not a singularity")

        with pytest.raises(KeyError):
            _worst_over(random.Random(4), 1, 2, broken, None)

    def test_a_nan_is_redrawn(self):
        seen = []

        def every_other(s):
            seen.append(s)
            return math.nan if len(seen) % 2 else 1.0

        assert _worst_over(random.Random(4), 1, 3, every_other, None) == 1.0
        assert len(seen) == 6

    def test_an_all_nan_check_starves(self):
        def starved(done, last):
            return LookupError(f"{done} counted, last {last}")

        with pytest.raises(LookupError, match="^0 counted, last None$"):
            _worst_over(random.Random(4), 1, 2, lambda s: math.nan, starved)

    def test_an_inf_counts(self):
        seen = []

        def overflowing(s):
            seen.append(s)
            return math.inf

        assert _worst_over(random.Random(4), 1, 3, overflowing, None) == math.inf
        assert len(seen) == 3


class TestRedrawnStates:
    # ln(z1) fails unless both legs of z1 are positive, at about three
    # draws in four
    P = LagrangianProblem(C1, parse("z1*zb1 + zb1*ln(z1)", C1), parse("0", C1))

    def test_audit_battery_redraws_a_domain_failure(self, monkeypatch):
        draws = []
        real = biparamech.verify.random_state

        def counted(rng, n):
            draws.append(n)
            return real(rng, n)

        monkeypatch.setattr(biparamech.verify, "random_state", counted)
        r = audit_battery(self.P, 20, 9)
        assert len(draws) > 40
        # |dE_L| reaches 1e6 near the cone, where roundoff is about 1e-10
        assert r.checks[0].measured < 1e-8

    def test_check_reduction_redraws_a_domain_failure(self):
        assert check_reduction(self.P, 20, 9).all_pass

    def test_hamiltonian_audit_redraws_a_zero_divisor(self, monkeypatch):
        p = HamiltonianProblem(C1, parse("z1*zb1", C1), parse("0", C1))
        exact = biparamech.verify.audit_hamilton
        calls = []

        def flaky(p, s):
            calls.append(s)
            if len(calls) % 3 == 0:
                raise biparamech.verify.ZeroDivisor("zero-divisor denominator in '1/z1'")
            return exact(p, s)

        monkeypatch.setattr(biparamech.verify, "audit_hamilton", flaky)
        assert audit_battery(p, 10, 9).all_pass
        assert len(calls) == 14

    def test_hamiltonian_starvation_raises_the_last_error(self, monkeypatch):
        errors = []

        def failing(p, s):
            errors.append(biparamech.verify.DomainError(f"domain failure {len(errors)}"))
            raise errors[-1]

        monkeypatch.setattr(biparamech.verify, "audit_hamilton", failing)
        with pytest.raises(biparamech.verify.DomainError) as exc:
            audit_battery(fixture_problem("hamiltonian", "H1"), 2, 9)
        assert exc.value is errors[-1]
        assert len(errors) == 400

    def test_hamiltonian_starvation_without_an_error_is_a_step_failure(self, monkeypatch):
        monkeypatch.setattr(biparamech.verify, "audit_hamilton", lambda p, s: math.nan)
        with pytest.raises(StepFailure, match="^state left the finite domain$"):
            audit_battery(fixture_problem("hamiltonian", "H1"), 2, 9)

    def test_lagrangian_audit_redraws_a_step_failure(self):
        # 1e-305*zb1^1000 overflows M once a drawn leg of zb1 passes 2, and
        # at_state raises StepFailure there
        p = load_problem(str(DATA / "overflowing_draws_lagrangian.json")).problem
        rhs = make_el_rhs(synthesize_el(p))
        s = EvalState(z=(ParaComplex(0.5, 0.1),), zb=(ParaComplex(1.5, 1.0),))
        with pytest.raises(StepFailure, match="^state left the finite domain$"):
            at_state(rhs, s)
        for seed in (1, 3, 7, 42):
            assert audit_battery(p, 100, seed).all_pass


# L's velocities are nan once a drawn leg of z1 passes about 3.3, where
# z1^600 - z1^600 is inf - inf; H's raw partials are nan there too
NAN_PROBLEMS = (
    load_problem(str(DATA / "nan_velocity_lagrangian.json")).problem,
    HamiltonianProblem(C1, parse("z1*zb1 + zb1*(z1^600 - z1^600)", C1), parse("0", C1)),
)


@pytest.mark.parametrize("p", NAN_PROBLEMS, ids=("lagrangian", "hamiltonian"))
@pytest.mark.parametrize("seed", (3, 42))
def test_the_audit_counts_no_nan(p, seed, monkeypatch):
    name = "audit_lagrange" if isinstance(p, LagrangianProblem) else "audit_hamilton"
    real = getattr(biparamech.verify, name)
    measured = []

    def recorded(*args):
        measured.append(real(*args))
        return measured[-1]

    monkeypatch.setattr(biparamech.verify, name, recorded)
    report = audit_battery(p, 300, seed)
    # the draws stop at the 300th finite measure, so no nan was counted
    assert sum(map(math.isfinite, measured)) == 300
    assert any(map(math.isnan, measured))
    assert report.checks[0].measured == max(m for m in measured if math.isfinite(m))


class TestRightHandSidesBuiltOnce:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        for name in ("make_el_rhs", "make_ham_rhs"):
            def counted(ode, _real=getattr(biparamech.verify, name), _name=name):
                calls.append(_name)
                return _real(ode)

            monkeypatch.setattr(biparamech.verify, name, counted)
        return calls

    @pytest.mark.parametrize("samples", [1, 7, 40])
    def test_audit_battery(self, built, samples):
        audit_battery(fixture_problem("lagrangian", "L5"), samples, 9)
        assert built == ["make_el_rhs"]
        built.clear()
        # the Hamiltonian audit evaluates its own terms, no right-hand side
        audit_battery(fixture_problem("hamiltonian", "H5"), samples, 9)
        assert built == []

    @pytest.mark.parametrize("samples", [1, 7, 40])
    def test_check_reduction(self, built, samples):
        check_reduction(fixture_problem("lagrangian", "L5"), samples, 9)
        assert built == ["make_el_rhs"]
        built.clear()
        check_reduction(fixture_problem("hamiltonian", "H5"), samples, 9)
        assert built == ["make_ham_rhs"]


def _uniform_value(rng, redrawn):
    """One value of random_state as drawn through rng.uniform, the
    reference stream."""
    while True:
        w = ParaComplex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if min(abs(w.u), abs(w.v)) > 1e-3:
            return w
        redrawn.append(w)


class TestRandomDraws:
    def test_random_state_is_the_uniform_stream(self):
        redrawn = []
        for seed in (0, 1, 7, 42, 12345):
            rng, ref = random.Random(seed), random.Random(seed)
            for n in (1, 2, 3, 1000):
                s = random_state(rng, n)
                want = [_uniform_value(ref, redrawn) for _ in range(2 * n)]
                assert [repr((w.a, w.b, w.u, w.v)) for w in s.z + s.zb] == [
                    repr((w.a, w.b, w.u, w.v)) for w in want
                ]
                assert rng.random() == ref.random()
        assert redrawn  # the stream ran through draws near the cone

    def test_random_state_avoids_cone(self):
        s = random_state(random.Random(1), 100)
        for w in s.z + s.zb:
            assert min(abs(w.u), abs(w.v)) > 1e-3
            assert abs(w.a) <= 2.0 and abs(w.b) <= 2.0

    def test_random_state_shape(self):
        s = random_state(random.Random(2), 3)
        assert len(s.z) == 3 and len(s.zb) == 3

    def test_random_expression_evaluable_often(self):
        rng = random.Random(3)
        ok = 0
        for _ in range(50):
            e = random_expression(rng)
            s = random_state(rng, 2)
            try:
                v = evaluate(e, s)
                if v.is_finite():
                    ok += 1
            except ArithmeticError:
                pass
        assert ok > 30


class TestRunAll:
    def test_green_build_passes(self):
        r = run_all(42)
        assert r.all_pass

    def test_contains_all_suites(self):
        names = {c.name for c in run_all(5).checks}
        assert "algebra-idempotent-exact" in names
        assert "roundtrip-text" in names
        assert "fd-derivative-suite" in names
        assert "reduction-L5" in names
        assert "reduction-H5" in names
        assert "conservation-hamiltonian" in names
