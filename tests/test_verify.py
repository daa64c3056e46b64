import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biparamech.verify
from biparamech.dynamics import IntegratorConfig, PhaseState, integrate, make_el_rhs, make_ham_rhs
from biparamech.eom import (
    HamiltonianProblem,
    LagrangianProblem,
    SingularDenominator,
    synthesize_el,
    synthesize_ham,
)
from biparamech.para_algebra import ParaComplex
from biparamech.symbolic import CoordinateChart, evaluate, parse
from biparamech.verify import (
    CheckResult,
    FIXTURE_HAMILTONIANS,
    FIXTURE_LAGRANGIANS,
    Report,
    _gauss_jordan,
    _oracle_solve,
    audit_battery,
    check_fd,
    check_reduction,
    conservation_report,
    fixture_problem,
    random_expression,
    random_state,
    random_value,
    run_all,
    selftest_algebra,
)

C1 = CoordinateChart(1)

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
        good = Report(checks=[CheckResult("a", True, 0.0, 1.0)], seed=0)
        bad = Report(
            checks=[CheckResult("a", True, 0.0, 1.0), CheckResult("b", False, 2.0, 1.0)],
            seed=0,
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
        exact = biparamech.verify.el_rhs

        def perturbed(ode, s):
            dz, dzb = exact(ode, s)
            return (dz[0] * ParaComplex(1.0 + 1e-9, 0.0),) + dz[1:], dzb

        monkeypatch.setattr(biparamech.verify, "el_rhs", perturbed)
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
        x, inverse = _gauss_jordan(self.A, self.B)
        assert x == pytest.approx(self.X, abs=1e-14)
        for i in range(4):
            for j in range(4):
                entry = sum(self.A[i][k] * inverse[k][j] for k in range(4))
                assert entry == pytest.approx(float(i == j), abs=1e-14)

    def test_condition_boundary(self):
        accepted = _oracle_solve([[1.0, 0.0], [0.0, 1 / 99.5]], [1.0, 1.0])
        assert accepted == pytest.approx([1.0, 99.5], rel=1e-15)
        assert _oracle_solve([[1.0, 0.0], [0.0, 1 / 100.5]], [1.0, 1.0]) is None

    @pytest.mark.parametrize(
        "a", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]]
    )
    def test_exactly_singular_is_rejected(self, a):
        assert _gauss_jordan(a, [1.0, 2.0]) is None
        assert _oracle_solve(a, [1.0, 2.0]) is None


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

    def test_singular_draws_exhaust_the_budget(self, monkeypatch):
        def singular(p, s, t=None):
            raise SingularDenominator("D+")

        monkeypatch.setattr(biparamech.verify, "audit_hamilton", singular)
        with pytest.raises(SingularDenominator):
            audit_battery(fixture_problem("hamiltonian", "H1"), 2, 9)


class TestRandomDraws:
    def test_random_value_avoids_cone(self):
        rng = random.Random(1)
        for _ in range(200):
            w = random_value(rng)
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
