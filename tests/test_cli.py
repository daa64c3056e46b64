"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes and
output can be asserted without subprocess overhead.
"""

import argparse
import glob
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import biparamech.cli
import biparamech.dynamics
import biparamech.verify
from biparamech.cli import (
    LoadedProblem,
    _csv_text,
    _parse,
    cmd_audit,
    cmd_derive,
    cmd_integrate,
    cmd_plot,
    cmd_selftest,
    main,
)
from biparamech.dynamics import (
    PhaseState,
    StepFailure,
    Trajectory,
    _RKF_A,
    _RKF_B5,
    _RKF_C,
    _RKF_ERR,
    _NonFinite,
    integrate,
    make_el_rhs,
    residual_series,
)
from biparamech.eom import HamiltonianProblem, energy, synthesize_el
from biparamech.para_algebra import ParaComplex
from biparamech.symbolic import lower

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(REPO, "problems")
DATA = pathlib.Path(REPO) / "tests" / "data"


def oscillator_doc():
    return {
        "n": 1,
        "kind": "lagrangian",
        "function": "z1*zb1",
        "lambda": "0",
        "initial": {"z": [[1.0, 0.0]], "zb": [[0.0, 0.0]]},
        "t0": 0.0,
        "t1": math.pi,
        "integrator": "rk4",
        "dt": 0.001,
    }


def write_doc(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rows_of(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def test_derive_oscillator_lines(capsys):
    assert main(["derive", os.path.join(PROBLEMS, "oscillator.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "EL(3.13) row A_1: j*xi1 = -zb1",
        "EL(3.13) row B_1: j*xib1 = z1",
    ]


def test_derive_hamiltonian_lines(capsys):
    assert main(["derive", os.path.join(PROBLEMS, "ham_conserve.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("HAM(4.12) z_1: dz1/dt = ")
    assert out[1].startswith("HAM(4.12) zb_1: dzb1/dt = ")
    assert len(out) == 2


def test_derive_two_charts(tmp_path, capsys):
    doc = oscillator_doc()
    doc["n"] = 2
    doc["function"] = "z1*zb1 + z2*zb2"
    doc["initial"] = {"z": [[1.0, 0.0], [0.5, 0.0]], "zb": [[0.0, 0.0], [0.1, 0.0]]}
    assert main(["derive", write_doc(tmp_path, doc)]) == 0
    out = capsys.readouterr().out.splitlines()
    heads = [ln.split(":")[0] for ln in out]
    assert heads == [
        "EL(3.13) row A_1",
        "EL(3.13) row A_2",
        "EL(3.13) row B_1",
        "EL(3.13) row B_2",
    ]


@pytest.mark.parametrize(
    "function,code",
    [
        ("z1*zb1 + exp(1000)*zb1^2", 0),
        ("z1*zb1 + sin(exp(1000))*zb1^2", 0),
        ("1e999*z1*zb1", 2),
        ("1e300*1e300*z1*zb1", 2),
        ("z1*zb1 + exp(700)*exp(700)*zb1^2", 2),
        ("z1*zb1 + (1e200)^2*zb1^2", 2),
        ("z1*zb1 + 2^2000*zb1^2", 2),
        ("z1*zb1 + 1e308*zb1^2 + 1e308*zb1^2", 2),
        # every term holding the overflow differentiates to zero
        ("z1*zb1 + 0*(1e300*1e300)", 2),
        ("1e308 + 1e308 + z1*zb1", 2),
        # only the second partial, 2*1e308, overflows
        ("z1*zb1 + 1e308*zb1^2", 2),
    ],
)
def test_derive_with_overflowing_constants(tmp_path, capsys, function, code):
    doc = oscillator_doc()
    doc["function"] = function
    assert main(["derive", write_doc(tmp_path, doc)]) == code
    if code == 2:
        assert "overflows" in capsys.readouterr().err
        # integrate, which does not expand, folds the same constants
        assert main(["integrate", write_doc(tmp_path, doc), "-o", str(tmp_path / "x.csv")]) == 2


def test_derive_hamiltonian_with_overflow_in_a_zero_term(tmp_path, capsys):
    doc = oscillator_doc()
    doc["kind"] = "hamiltonian"
    doc["function"] = "z1*zb1 + 0*(1e300*1e300)"
    assert main(["derive", write_doc(tmp_path, doc)]) == 2
    assert "overflows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# problem-file validation, all exit 2
# ---------------------------------------------------------------------------


def _expect_2(tmp_path, capsys, doc):
    rc = main(["derive", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    return err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["settings"] = {}
    err = _expect_2(tmp_path, capsys, doc)
    assert "settings" in err


def test_missing_key_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    del doc["lambda"]
    err = _expect_2(tmp_path, capsys, doc)
    assert "lambda" in err


def test_dt_and_tol_together_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["tol"] = 1e-8
    _expect_2(tmp_path, capsys, doc)


def test_neither_dt_nor_tol_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    del doc["dt"]
    _expect_2(tmp_path, capsys, doc)


def test_rk4_with_tol_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    del doc["dt"]
    doc["tol"] = 1e-8
    _expect_2(tmp_path, capsys, doc)


def test_rkf45_with_dt_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["integrator"] = "rkf45"
    _expect_2(tmp_path, capsys, doc)


def test_parse_error_reports_position(tmp_path, capsys):
    doc = oscillator_doc()
    doc["function"] = "z1*+"
    err = _expect_2(tmp_path, capsys, doc)
    assert "column 4" in err


def test_out_of_chart_variable_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["function"] = "z1*zb2"
    _expect_2(tmp_path, capsys, doc)


def test_bad_kind_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["kind"] = "routhian"
    _expect_2(tmp_path, capsys, doc)


@pytest.mark.parametrize("n", [0, -1, 1.5, True, "1"])
def test_bad_n_rejected(tmp_path, capsys, n):
    doc = oscillator_doc()
    doc["n"] = n
    _expect_2(tmp_path, capsys, doc)


def test_wrong_initial_length_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["initial"]["z"] = [[1.0, 0.0], [0.5, 0.0]]
    _expect_2(tmp_path, capsys, doc)


def test_initial_triple_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["initial"]["zb"] = [[0.0, 0.0, 0.0]]
    _expect_2(tmp_path, capsys, doc)


def test_initial_extra_key_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["initial"]["xi"] = [[0.0, 0.0]]
    _expect_2(tmp_path, capsys, doc)


def test_nonfinite_initial_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc).replace("[1.0, 0.0]", "[Infinity, 0.0]"))
    assert main(["derive", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_t1_not_after_t0_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["t1"] = 0.0
    _expect_2(tmp_path, capsys, doc)


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_infinite_span_rejected(tmp_path, capsys, method):
    # both ends are finite, but t1 - t0 overflows to inf
    doc = dict(oscillator_doc(), t0=-1e308, t1=1e308)
    _expect_2(tmp_path, capsys, doc if method == "rk4" else _rkf45(doc))


def test_infinite_span_file_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["integrate", str(DATA / "infinite_span.json"), "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: 't1' - 't0' must be finite"]
    assert not out.exists()


def test_negative_dt_rejected(tmp_path, capsys):
    doc = oscillator_doc()
    doc["dt"] = -0.001
    _expect_2(tmp_path, capsys, doc)


def test_emit_energy_must_be_bool(tmp_path, capsys):
    doc = oscillator_doc()
    doc["emit_energy"] = "yes"
    _expect_2(tmp_path, capsys, doc)


def test_missing_file_exit_2(capsys):
    assert main(["derive", "/no/such/file.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["derive", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_object_json_exit_2(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    assert main(["derive", str(path)]) == 2


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_oscillator_half_period(tmp_path, capsys):
    prob = write_doc(tmp_path, oscillator_doc())
    out = tmp_path / "osc.csv"
    assert main(["integrate", prob, "-o", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["t", "z1_a", "z1_b", "zb1_a", "zb1_b"]
    last = [float(c) for c in rows[-1]]
    assert last[0] == math.pi  # exact landing on t1
    assert abs(last[1] - math.cos(math.pi)) < 1e-8
    assert abs(last[2]) < 1e-8
    # zb1 = j*sin t, so the b component carries the sine
    assert abs(last[3]) < 1e-8
    assert abs(last[4] - math.sin(math.pi)) < 1e-8


def test_integrate_csv_is_byte_identical(tmp_path, capsys):
    prob = write_doc(tmp_path, oscillator_doc())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["integrate", prob, "-o", str(a)]) == 0
    assert main(["integrate", prob, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_integrate_energy_and_residual_columns(tmp_path, capsys):
    out = tmp_path / "quad.csv"
    assert main(["integrate", os.path.join(PROBLEMS, "el_quadratic.json"), "-o", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["t", "z1_a", "z1_b", "zb1_a", "zb1_b", "H_a", "H_b", "residual"]
    assert rows[0][-1] == "nan" and rows[-1][-1] == "nan"
    interior = [abs(float(r[-1])) for r in rows[1:-1]]
    assert max(interior) < 1e-5


def test_integrate_hamiltonian_energy_columns(tmp_path, capsys):
    out = tmp_path / "cons.csv"
    assert main(["integrate", os.path.join(PROBLEMS, "ham_conserve.json"), "-o", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["t", "z1_a", "z1_b", "zb1_a", "zb1_b", "H_a", "H_b"]
    h0a, h0b = float(rows[0][5]), float(rows[0][6])
    drift = max(
        max(abs(float(r[5]) - h0a), abs(float(r[6]) - h0b)) for r in rows
    )
    assert drift <= 1e-8


def test_integrate_two_chart_header(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    assert main(["integrate", os.path.join(PROBLEMS, "el_coupled.json"), "-o", str(out)]) == 0
    header, _ = rows_of(out)
    assert header == [
        "t",
        "z1_a", "z1_b", "zb1_a", "zb1_b",
        "z2_a", "z2_b", "zb2_a", "zb2_b",
    ]


def test_integrate_singular_denominator_exit_3(tmp_path, capsys):
    prob = os.path.join(PROBLEMS, "failing", "singular_lambda.json")
    assert main(["integrate", prob, "-o", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "D-" in err
    assert "t=0.0" in err


def test_integrate_degenerate_lagrangian_exit_3(tmp_path, capsys):
    prob = os.path.join(PROBLEMS, "failing", "degenerate_L.json")
    assert main(["integrate", prob, "-o", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "t=0.0" in err
    assert not (tmp_path / "x.csv").exists()  # nothing is opened before integrating


def test_overflowing_step_count_exit_3(tmp_path, capsys):
    # span/dt is inf: the step budget refuses it before int() sees it
    out = tmp_path / "x.csv"
    assert main(["integrate", str(DATA / "step_count_overflow.json"), "-o", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "exceed max_steps" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("name", ["el_quadratic.json", "ham_soft.json"])
def test_integrate_builds_no_phase_state(tmp_path, capsys, monkeypatch, name):
    # the only shipped files with emit_energy: the CSV, energy and residual
    # columns are all read from the trajectory's rows
    def refuse(*args, **kwargs):
        raise AssertionError("integrate built a PhaseState")

    monkeypatch.setattr(biparamech.dynamics, "PhaseState", refuse)
    out = tmp_path / "x.csv"
    assert main(["integrate", os.path.join(PROBLEMS, name), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 1000


def test_constant_denominator_derives_and_integrates(tmp_path, capsys):
    # d(num/c) = dn/c: the quotient rule's c^2 = 1e400 would overflow
    doc = oscillator_doc()
    doc["function"] = "z1*zb1 + zb1/1e200"
    prob = write_doc(tmp_path, doc)
    assert main(["derive", prob]) == 0
    assert main(["integrate", prob, "-o", str(tmp_path / "x.csv")]) == 0


def _rkf45(doc):
    doc = dict(doc, integrator="rkf45", tol=1e-8)
    del doc["dt"]
    return doc


def test_overflowing_power_leaves_the_finite_domain(tmp_path, capsys):
    # 40*z1*zb1^39 overflows to inf in b at the start, so the first stage's
    # derivative is infinite: RK4 aborts, RKF45 rejects every trial step
    doc = json.loads((DATA / "power_overflow.json").read_text())
    assert main(["integrate", write_doc(tmp_path, doc), "-o", str(tmp_path / "x.csv")]) == 3
    assert "state left the finite domain at t=0.0" in capsys.readouterr().err
    assert main(["integrate", write_doc(tmp_path, _rkf45(doc)), "-o", str(tmp_path / "x.csv")]) == 3
    assert "step size underflow" in capsys.readouterr().err


def test_constant_m_with_an_overflowing_b_leaves_the_finite_domain(tmp_path, capsys):
    # el_quadratic's M is constant, so its solve is folded; b overflows at
    # this start, and the step aborts as non-finite, not as singular
    doc = json.loads(pathlib.Path(PROBLEMS, "el_quadratic.json").read_text())
    doc["initial"] = {"z": [[1.7e308, 0.0]], "zb": [[1.7e308, 0.0]]}
    assert main(["integrate", write_doc(tmp_path, doc), "-o", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == "error: state left the finite domain at t=0.0\n"


def test_degenerate_lagrangian_aborts_at_the_start(tmp_path, capsys):
    path = os.path.join(PROBLEMS, "failing", "degenerate_L.json")
    assert main(["integrate", path, "-o", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == "error: zero row in e+ component system at t=0.0\n"


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_power_overflow_in_m_leaves_the_finite_domain(tmp_path, capsys, method):
    # 1560*zb1^38 overflows to inf in M, whose scaled pivot then fails: the
    # state is finite and the system is not degenerate, so this is a step
    # that left the finite domain, not a singular system
    doc = json.loads((DATA / "overflowed_entry.json").read_text())
    doc = doc if method == "rk4" else _rkf45(doc)
    assert main(["integrate", write_doc(tmp_path, doc), "-o", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    if method == "rk4":
        assert "state left the finite domain at t=0.0" in err
    else:
        assert "step size underflow" in err and err.rstrip().endswith("at t=0.0")
    assert "singular" not in err
    assert main(["audit", str(DATA / "overflowed_entry.json")]) == 0


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
@pytest.mark.parametrize(
    "name,error",
    [
        ("zero_divisor_lagrangian.json", "zero-divisor denominator in '((("),
        ("zero_divisor_hamiltonian.json", "zero-divisor denominator in '-j/(1 - 2*z1 + z1^2)'"),
        ("ln_velocity.json", "domain failure in 'ln(z1)'"),
        ("ln_energy.json", "domain failure in 'ln(z1)'"),
    ],
)
def test_failing_subexpression_exits_3_with_its_time(tmp_path, capsys, method, name, error):
    # z1 = 1 zeroes z1 - 1; ln(z1) needs both legs of z1 positive, and the
    # start z1 = -1 has neither: ln_velocity meets ln in the right-hand side,
    # ln_energy only in the energy column
    doc = json.loads((DATA / name).read_text())
    doc = doc if method == "rk4" else _rkf45(doc)
    out = tmp_path / "x.csv"
    assert main(["integrate", write_doc(tmp_path, doc), "-o", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {error}")
    assert err[0].endswith("' at t=0.0")
    assert not out.exists()


def test_a_zero_divisor_inside_a_step_names_its_stage_time(tmp_path, capsys):
    # dz1/dt = -j, so z1's e+ leg a + b falls from 1.3125 at rate 1; the
    # third step's second stage, at t = 0.25 + 0.0625, is the first state
    # where it is 1 and z1 - 1 is a zero divisor
    out = tmp_path / "x.csv"
    assert main(["integrate", str(DATA / "midstep_zero_divisor.json"), "-o", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: zero-divisor denominator in '-j/(1 - 2*z1 + z1^2)' at t=0.3125"]
    assert not out.exists()


def test_audit_redraws_where_ln_fails(capsys):
    # ln(z1) fails at about three draws in four; the audit draws again there
    # instead of raising.  The identity's terms reach 1e6 at some draws, so
    # the absolute 1e-10 threshold decides between exit 0 and 4
    assert main(["audit", str(DATA / "ln_velocity.json")]) in (0, 4)
    out = capsys.readouterr().out.splitlines()
    assert re.match(r"^CHECK audit (PASS|FAIL) measured=", out[0])
    assert main(["audit", str(DATA / "ln_energy.json")]) == 0


def test_long_sum_derives_and_integrates(tmp_path, capsys):
    # a 1,500-term chain parses to one flat Sum, so nothing recurses 1,500 deep
    doc = oscillator_doc()
    doc["function"] = " + ".join(f"{k}*z1*zb1" for k in range(1, 1501))
    doc["t1"] = 0.1
    prob = write_doc(tmp_path, doc)
    assert main(["derive", prob]) == 0
    assert main(["integrate", prob, "-o", str(tmp_path / "x.csv")]) == 0


def test_nested_quotient_integrates(tmp_path, capsys):
    # expanding the quotient rule's nested squares once made this take a
    # minute and then overflow the compiler's recursion; the chain rule's
    # trees stay small
    from biparamech.cli import load_problem
    from biparamech.eom import synthesize_el
    from biparamech.symbolic import walk

    path = str(DATA / "nested_quotient.json")
    ode = synthesize_el(load_problem(path).problem)
    roots = [e for row in ode.M for e in row] + list(ode.b)
    assert sum(1 for root in roots for _ in walk(root)) < 20_000  # 10,138
    assert main(["integrate", path, "-o", str(tmp_path / "x.csv")]) == 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_passes_on_oscillator(tmp_path, capsys):
    prob = write_doc(tmp_path, oscillator_doc())
    assert main(["audit", prob, "--samples", "50", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "CHECK audit PASS" in out
    assert "max residual = " in out


def test_audit_breach_exits_4(tmp_path, capsys, monkeypatch):
    # the audit builds its right-hand side once; corrupt the one it builds
    real = biparamech.verify.make_el_rhs

    def corrupted(ode):
        rhs = real(ode)
        n = ode.chart.n

        def wrong(y):  # dz negated: -w has legs (-u, -v)
            dy = rhs(y)
            return [-d for d in dy[: 2 * n]] + dy[2 * n :]

        return wrong

    monkeypatch.setattr(biparamech.verify, "make_el_rhs", corrupted)
    prob = write_doc(tmp_path, oscillator_doc())
    assert main(["audit", prob, "--samples", "10", "--seed", "3"]) == 4
    assert "CHECK audit FAIL" in capsys.readouterr().out


def test_audit_degenerate_lagrangian_exit_3(capsys):
    prob = os.path.join(PROBLEMS, "failing", "degenerate_L.json")
    assert main(["audit", prob, "--samples", "10"]) == 3
    assert re.search(r"^error: .*degenerate", capsys.readouterr().err, re.M)


def test_audit_degenerate_lagrangian_default_samples(capsys):
    # every one of the 100 * 200 draws is tried before the audit gives up
    prob = os.path.join(PROBLEMS, "failing", "degenerate_L.json")
    assert main(["audit", prob]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: degenerate Lagrangian: 0 of 100 states well posed in 20000 draws"
    )


@pytest.mark.parametrize("count", ["0", "-5"])
def test_audit_rejects_nonpositive_samples(capsys, count):
    # no state checked is no evidence: a bad flag, not a PASS
    prob = os.path.join(PROBLEMS, "failing", "degenerate_L.json")
    assert main(["audit", prob, "--samples", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --samples must be at least 1"]


def test_audit_seed_determinism(tmp_path, capsys):
    prob = write_doc(tmp_path, oscillator_doc())
    main(["audit", prob, "--samples", "20", "--seed", "11"])
    first = capsys.readouterr().out
    main(["audit", prob, "--samples", "20", "--seed", "11"])
    assert capsys.readouterr().out == first


def test_bpc_seed_env_matches_flag(tmp_path, capsys, monkeypatch):
    prob = write_doc(tmp_path, oscillator_doc())
    monkeypatch.setenv("BPC_SEED", "5")
    main(["audit", prob, "--samples", "20"])
    via_env = capsys.readouterr().out
    monkeypatch.delenv("BPC_SEED")
    main(["audit", prob, "--samples", "20", "--seed", "5"])
    assert capsys.readouterr().out == via_env


def test_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    prob = write_doc(tmp_path, oscillator_doc())
    monkeypatch.setenv("BPC_SEED", "5")
    main(["audit", prob, "--samples", "20", "--seed", "9"])
    with_flag = capsys.readouterr().out
    monkeypatch.delenv("BPC_SEED")
    main(["audit", prob, "--samples", "20", "--seed", "9"])
    assert capsys.readouterr().out == with_flag


def test_bad_bpc_seed_exit_2(tmp_path, capsys, monkeypatch):
    prob = write_doc(tmp_path, oscillator_doc())
    monkeypatch.setenv("BPC_SEED", "many")
    assert main(["audit", prob, "--samples", "5"]) == 2


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert "CHECK algebra-idempotent-exact PASS" in out
    assert " FAIL " not in out


def test_selftest_failure_exits_1(capsys, monkeypatch):
    import biparamech.cli
    from biparamech.verify import CheckResult, Report

    broken = Report(
        checks=[CheckResult(name="stub", passed=False, measured=1.0, threshold=0.0)],
    )
    monkeypatch.setattr(biparamech.cli, "run_all", lambda seed: broken)
    assert main(["selftest"]) == 1
    assert "CHECK stub FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


@pytest.fixture()
def osc_csv(tmp_path):
    doc = oscillator_doc()
    doc["dt"] = 0.01
    prob = write_doc(tmp_path, doc)
    out = tmp_path / "osc.csv"
    assert main(["integrate", prob, "-o", str(out)]) == 0
    return out


def test_plot_single_column(tmp_path, osc_csv, capsys):
    svg = tmp_path / "osc.svg"
    assert main(["plot", str(osc_csv), "-o", str(svg), "--cols", "z1_a"]) == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    polylines = re.findall(r"<polyline[^>]*points=\"([^\"]*)\"", text)
    assert len(polylines) == 1
    _, rows = rows_of(osc_csv)
    assert len(polylines[0].split()) == len(rows)


def test_plot_defaults_to_all_columns(tmp_path, osc_csv):
    svg = tmp_path / "all.svg"
    assert main(["plot", str(osc_csv), "-o", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 4


def test_plot_skips_nan_cells(tmp_path, capsys):
    out = tmp_path / "quad.csv"
    assert main(["integrate", os.path.join(PROBLEMS, "el_quadratic.json"), "-o", str(out)]) == 0
    svg = tmp_path / "res.svg"
    assert main(["plot", str(out), "-o", str(svg), "--cols", "residual"]) == 0
    pts = re.findall(r"points=\"([^\"]*)\"", svg.read_text())[0]
    _, rows = rows_of(out)
    assert len(pts.split()) == len(rows) - 2  # nan boundary samples dropped


def test_plot_custom_size(tmp_path, osc_csv):
    svg = tmp_path / "sized.svg"
    assert main([
        "plot", str(osc_csv), "-o", str(svg),
        "--cols", "z1_a", "--width", "800", "--height", "300",
    ]) == 0
    assert 'width="800" height="300"' in svg.read_text()


def test_plot_unknown_column_exit_2(tmp_path, osc_csv, capsys):
    assert main(["plot", str(osc_csv), "-o", str(tmp_path / "x.svg"), "--cols", "q9"]) == 2
    assert "q9" in capsys.readouterr().err


def test_plot_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,z1_a\n0.0,1.0\n0.1\n")
    assert main(["plot", str(bad), "-o", str(tmp_path / "x.svg"), "--cols", "z1_a"]) == 2


def test_plot_rejects_t_as_series(tmp_path, osc_csv):
    assert main(["plot", str(osc_csv), "-o", str(tmp_path / "x.svg"), "--cols", "t"]) == 2


@pytest.mark.parametrize("size", [
    ["--width", "0"],
    ["--height", "0"],
    ["--width", "-50", "--height", "3"],
    ["--width=640", "--height=-1"],
])
def test_plot_rejects_nonpositive_size(tmp_path, osc_csv, capsys, size):
    # a degenerate SVG (width="-50") is not a chart
    svg = tmp_path / "x.svg"
    capsys.readouterr()
    assert main(["plot", str(osc_csv), "-o", str(svg)] + size) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --width and --height must be positive"]
    assert not svg.exists()


def test_plot_smallest_size(tmp_path, osc_csv):
    svg = tmp_path / "tiny.svg"
    assert main(["plot", str(osc_csv), "-o", str(svg), "--width", "1", "--height", "1"]) == 0
    assert 'width="1" height="1"' in svg.read_text()


def test_plot_csv_without_series_exit_2(tmp_path, capsys):
    # a lone t column left nothing to draw and used to crash in min()
    only_t = tmp_path / "t.csv"
    only_t.write_text("t\n0.0\n1.0\n")
    assert main(["plot", str(only_t), "-o", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err == f"error: {only_t} does not look like a trajectory CSV\n"


@pytest.mark.parametrize("target", ["missing-parent", "directory"])
@pytest.mark.parametrize("command", ["integrate", "plot"])
def test_unwritable_output_exit_2(tmp_path, osc_csv, capsys, command, target):
    doc = oscillator_doc()
    doc["dt"] = 0.01
    source = write_doc(tmp_path, doc) if command == "integrate" else str(osc_csv)
    out = tmp_path / "no" / "such" / "x.out" if target == "missing-parent" else tmp_path
    capsys.readouterr()
    assert main([command, source, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def _textbook_build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command table replaced, verbatim."""
    top = argparse.ArgumentParser(
        prog="biparamech",
        description="Synthesize and integrate conformal bi-para mechanical systems.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print the synthesized equations")
    p.add_argument("file")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("integrate", help="integrate and write a trajectory CSV")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("audit", help="plug-back audit at random states")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("selftest", help="run every verification suite")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("plot", help="render trajectory columns to SVG")
    p.add_argument("csv")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cols", default=None)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=400)
    p.set_defaults(func=cmd_plot)

    return top


VALID_ARGV = [
    # README
    "derive problems/oscillator.json",
    "integrate problems/oscillator.json -o orbit.csv",
    "audit problems/oscillator.json --samples 100 --seed 7",
    "selftest --seed 7",
    "plot orbit.csv -o orbit.svg --cols z1_a,zb1_b",
    # CI
    "integrate tests/data/nested_quotient.json -o /tmp/nq.csv",
    "audit problems/el_coupled.json --seed 3",
    "plot /tmp/o.csv -o /tmp/p.svg --width 0",
    # the benchmark workloads
    "derive inputs/family_L3.json",
    "integrate inputs/failing-degenerate_L.json -o failing-degenerate_L.csv",
    "selftest --seed 654321",
    "audit inputs/el_cubic.json --seed 12345 --samples 300",
    "audit inputs/failing-degenerate_L.json --seed 999999",
    # tests
    "audit prob.json --samples 0",
    "audit prob.json --samples -5",
    "plot osc.csv -o sized.svg --cols z1_a --width 800 --height 300",
    # spellings
    "integrate problems/oscillator.json --output=orbit.csv",
    "integrate problems/oscillator.json --output orbit.csv",
    "integrate problems/oscillator.json -o=orbit.csv",
    "integrate -o orbit.csv problems/oscillator.json",
    "audit --seed 3 --samples 7 problems/oscillator.json",
    "audit problems/oscillator.json --seed -5",
    "audit problems/oscillator.json --seed=-5 --samples=+12",
    "audit problems/oscillator.json --seed 1 --seed 2",
    "plot --width 10 o.csv --height 20 -o p.svg --cols=",
    "derive name=with=equals.json",
    "derive ''",
    # defaults
    "audit problems/oscillator.json",
    "selftest",
    "plot orbit.csv -o orbit.svg",
]


@pytest.mark.parametrize("line", VALID_ARGV)
def test_command_table_matches_textbook_parser(line):
    argv = shlex.split(line)
    ref = _textbook_build_parser().parse_args(argv)
    new = _parse(argv)
    assert getattr(biparamech.cli, f"cmd_{new.command}") is ref.func
    assert vars(new) == {k: v for k, v in vars(ref).items() if k != "func"}


USAGE_ERRORS = [
    (["integrate", "problems/oscillator.json"], "required: --output"),
    ([], "no command given"),
    (["simulate", "problems/oscillator.json"], "invalid choice: 'simulate'"),
    (["audit", "problems/oscillator.json", "--samples", "x"], "--samples: invalid value: 'x'"),
    (["audit", "problems/oscillator.json", "--seed", "1.5"], "--seed: invalid value: '1.5'"),
    (["plot", "o.csv", "-o", "p.svg", "--width", "wide"], "--width: invalid value: 'wide'"),
    (["derive"], "required: file"),
    (["plot", "-o", "p.svg"], "required: csv"),
    (["derive", "a.json", "b.json"], "unrecognized arguments: b.json"),
    (["selftest", "problems/oscillator.json"], "unrecognized arguments: problems/oscillator.json"),
    (["selftest", "--seed"], "--seed: expected one argument"),
    (["derive", "problems/oscillator.json", "--seed", "3"], "unrecognized arguments: --seed"),
    (["--seed", "3", "selftest"], "invalid choice: '--seed'"),
]
# argparse took these as --samples and --output; abbreviations are dropped
ABBREVIATED = [
    (["audit", "problems/oscillator.json", "--samp", "5"], "unrecognized arguments: --samp"),
    (["integrate", "problems/oscillator.json", "--out", "x.csv"], "unrecognized arguments: --out"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS + ABBREVIATED)
def test_usage_error_exit_2(capsys, argv, message):
    # a usage error is an input error: main returns 2 and raises nothing
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: biparamech ")
    assert lines[-1].startswith("error: ") and lines[-1].endswith(message)
    assert all(line.startswith("       biparamech ") for line in lines[1:-1])


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_textbook_parser_rejects_the_same(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        _textbook_build_parser().parse_args(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["integrate", "--help"], ["plot", "-h"]])
def test_help_exit_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: biparamech ")
    for command in ("derive", "integrate", "audit", "selftest", "plot"):
        assert f"biparamech {command} " in captured.out


def test_handler_is_looked_up_at_call_time(tmp_path, monkeypatch):
    # a wrapper installed on the module after import is the one that runs
    seen = []
    monkeypatch.setattr(biparamech.cli, "cmd_derive", lambda args: seen.append(args.file) or 7)
    assert main(["derive", "x.json"]) == 7
    assert seen == ["x.json"]


def test_cli_imports_no_argparse():
    # argparse's first use (gettext, locale, a HelpFormatter per argument)
    # cost about 6 ms of every command
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(REPO, 'src')!r})\n"
        "import biparamech.cli\n"
        "assert biparamech.cli.main(['derive', 'problems/oscillator.json']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], cwd=REPO, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# shipped examples
# ---------------------------------------------------------------------------


def test_every_shipped_example_round_trips(tmp_path, capsys):
    files = sorted(glob.glob(os.path.join(PROBLEMS, "*.json")))
    assert len(files) >= 10
    for path in files:
        name = os.path.basename(path)
        csv = tmp_path / (name + ".csv")
        assert main(["derive", path]) == 0, name
        assert main(["integrate", path, "-o", str(csv)]) == 0, name
        assert main(["audit", path, "--samples", "60", "--seed", "42"]) == 0, name
    capsys.readouterr()


def test_failing_fixtures_are_segregated():
    for path in glob.glob(os.path.join(PROBLEMS, "failing", "*.json")):
        assert os.path.dirname(path).endswith("failing")


# ---------------------------------------------------------------------------
# the CSV writer against the PhaseState-based one it replaced
# ---------------------------------------------------------------------------


def _legs(s):
    return [leg for w in s.z + s.zb for leg in (w.u, w.v)]


def _textbook_rk4_step(deriv, t, y, h):
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * h, [yi + 0.5 * h * ki for yi, ki in zip(y, k1)])
    k3 = deriv(t + 0.5 * h, [yi + 0.5 * h * ki for yi, ki in zip(y, k2)])
    k4 = deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    w = h / 6.0
    return [
        yi + w * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


def textbook_run_rk4(deriv, y, cfg, record):
    """The classical RK4 loop, stage by stage over lists, that integrate's
    emitted driver must match bit for bit."""
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
    for k in range(total):
        t_a = cfg.t0 + k * cfg.dt
        t_b = cfg.t1 if k == total - 1 else cfg.t0 + (k + 1) * cfg.dt
        try:
            y = _textbook_rk4_step(deriv, t_a, y, t_b - t_a)
        except _NonFinite:
            raise StepFailure("state left the finite domain", t=t_a) from None
        record(t_b, y)


def textbook_run_rkf45(deriv, y, cfg, record):
    """The RKF45 loop as it was before its stepper appended to times and
    rows itself: deriv(t, y) tests y and times a failure, and record(t, y)
    takes each accepted step."""
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
                ks.append(deriv(t + c * h, yi))
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
        if err_norm <= 1.0:
            t_next = cfg.t1 if cfg.t1 - (t + h) < h_min else t + h
            y = y5
            record(t_next, y)
            t = t_next
        h *= 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))


def _phase_state_samples(lp):
    """integrate's samples as its record built them: one PhaseState of
    ParaComplex((u+v)/2, (u-v)/2) per accepted step after the start."""
    n, s0, cfg, rhs = lp.n, lp.start(), lp.config(), lp.rhs()
    samples = [PhaseState(t=cfg.t0, z=s0.z, zb=s0.zb)]

    def record(t, y):
        w = [ParaComplex((y[k] + y[k + 1]) / 2.0, (y[k] - y[k + 1]) / 2.0)
             for k in range(0, 4 * n, 2)]
        samples.append(PhaseState(t=t, z=tuple(w[:n]), zb=tuple(w[n:])))

    run = textbook_run_rk4 if cfg.method == "rk4" else textbook_run_rkf45
    run(lambda t, y: rhs(y), _legs(s0), cfg, record)
    return samples


def _phase_state_energies(p, samples):
    """energy_along read off each sample's own legs."""
    if isinstance(p, HamiltonianProblem):
        h = lower((p.H,), p.chart.slots())
        return [ParaComplex.from_idempotent(*h(_legs(s))) for s in samples]
    velocities = tuple((f, i) for f in ("xi", "xib") for i in p.chart.indices())
    e_fn = lower((energy(p),), p.chart.slots() + velocities)
    rhs = make_el_rhs(synthesize_el(p))
    return [ParaComplex.from_idempotent(*e_fn(_legs(s) + rhs(_legs(s)))) for s in samples]


def _phase_state_csv(lp, samples):
    n = lp.n
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"z{i}_a", f"z{i}_b", f"zb{i}_a", f"zb{i}_b"]
    energies = residuals = None
    if lp.emit_energy:
        header += ["H_a", "H_b"]
        energies = _phase_state_energies(lp.problem, samples)
        if lp.kind == "lagrangian":
            header += ["residual"]
            rows = [[x for w in s.z + s.zb for x in (w.a, w.b)] for s in samples]
            residuals = residual_series(lp.problem, Trajectory([s.t for s in samples], rows))
    lines = [",".join(header)]
    for k, s in enumerate(samples):
        row = [repr(s.t)]
        for i in range(n):
            row += [repr(s.z[i].a), repr(s.z[i].b), repr(s.zb[i].a), repr(s.zb[i].b)]
        if energies is not None:
            row += [repr(energies[k].a), repr(energies[k].b)]
        if residuals is not None:
            row.append(repr(residuals[k]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _conformal_n3():
    # the benchmark's coupled conformal family at n = 3, with energy columns
    terms = [f"z{i}*zb{i} + 0.3*zb{i}^2" for i in (1, 2, 3)] + ["0.1*z1*zb2", "0.1*z2*zb3"]
    return {
        "n": 3,
        "kind": "lagrangian",
        "function": " + ".join(terms),
        "lambda": "0.2*z1*zb1 + 0.2*z2*zb2 + 0.2*z3*zb3",
        "initial": {"z": [[0.5, 0.1], [0.6, -0.1], [0.4, 0.05]],
                    "zb": [[0.2, 0.1], [0.3, -0.05], [0.25, 0.0]]},
        "t0": 0.0,
        "t1": 0.05,
        "integrator": "rk4",
        "dt": 0.001,
        "emit_energy": True,
    }


def _shipped_docs():
    out = []
    for path in sorted(glob.glob(os.path.join(PROBLEMS, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            out.append(pytest.param(json.load(fh), id=os.path.basename(path)))
    return out + [pytest.param(_conformal_n3(), id="conformal_n3")]


@pytest.mark.parametrize("doc", _shipped_docs())
def test_csv_text_matches_phase_state_writer(doc):
    lp = LoadedProblem(doc)
    got = _csv_text(lp, integrate(lp.rhs(), lp.start(), lp.config()))
    want = _phase_state_csv(lp, _phase_state_samples(lp))
    # the first differing line, so a failure does not diff whole files
    pairs = zip(got.splitlines(), want.splitlines())
    assert next(((k, g, w) for k, (g, w) in enumerate(pairs) if g != w), None) is None
    assert len(got) == len(want)
    assert got == want
