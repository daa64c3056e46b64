"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes and
output can be asserted without subprocess overhead.
"""

import glob
import json
import math
import os
import re

import pytest

import biparamech.verify
from biparamech.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(REPO, "problems")


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
    ],
)
def test_derive_with_overflowing_constants(tmp_path, capsys, function, code):
    doc = oscillator_doc()
    doc["function"] = function
    assert main(["derive", write_doc(tmp_path, doc)]) == code
    if code == 2:
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
    import biparamech.dynamics

    real = biparamech.dynamics.el_rhs

    def corrupted(ode, s):
        dz, dzb = real(ode, s)
        return tuple(-w for w in dz), dzb

    monkeypatch.setattr(biparamech.verify, "el_rhs", corrupted)
    prob = write_doc(tmp_path, oscillator_doc())
    assert main(["audit", prob, "--samples", "10", "--seed", "3"]) == 4
    assert "CHECK audit FAIL" in capsys.readouterr().out


def test_audit_degenerate_lagrangian_exit_3(capsys):
    prob = os.path.join(PROBLEMS, "failing", "degenerate_L.json")
    assert main(["audit", prob, "--samples", "10"]) == 3
    assert re.search(r"^error: .*degenerate", capsys.readouterr().err, re.M)


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
        seed=0,
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
