"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest -q benchmark/test_oracle.py

The genuine outputs come from running the `biparamech` CLI out of this
checkout's src/ on the shipped problems.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import oracle
import run as bench_run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "biparamech", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _problem(name):
    with open(os.path.join(ROOT, "problems", name), encoding="utf-8") as fh:
        return oracle.Problem(json.load(fh))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """CSV and derive text from the real program for a few shipped files."""
    d = tmp_path_factory.mktemp("cli")
    out = {}
    for stem in ("oscillator", "el_quadratic", "el_conformal", "ham_conserve", "ham_curved"):
        path = os.path.join(ROOT, "problems", stem + ".json")
        proc = _cli(["integrate", path, "-o", str(d / (stem + ".csv"))], d)
        assert proc.returncode == 0, proc.stderr
        out[stem + ".csv"] = (d / (stem + ".csv")).read_text()
        proc = _cli(["derive", path], d)
        assert proc.returncode == 0, proc.stderr
        out[stem + ".derive"] = proc.stdout
    proc = _cli(["selftest", "--seed", "3"], d)
    out["selftest"] = (proc.stdout, proc.returncode)
    proc = _cli(["audit", os.path.join(ROOT, "problems", "el_cubic.json"), "--seed", "3"], d)
    out["audit"] = (proc.stdout, proc.returncode)
    return out


def _set_cell(text, row, col, fn):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- trajectories -------------------------------------------------------------


@pytest.mark.parametrize("stem", ["oscillator", "el_quadratic", "el_conformal", "ham_conserve", "ham_curved"])
def test_genuine_trajectories_pass(outputs, stem):
    assert oracle.check_trajectory(_problem(stem + ".json"), outputs[stem + ".csv"]) == []


@pytest.mark.parametrize("stem", ["oscillator", "el_quadratic", "el_conformal", "ham_conserve", "ham_curved"])
@pytest.mark.parametrize("row,col,delta", [(2, 1, 1e-7), (10, 2, 1e-7), (-1, 4, 1e-6)])
def test_perturbed_state_is_rejected(outputs, stem, row, col, delta):
    bad = _set_cell(outputs[stem + ".csv"], row, col, lambda x: x + delta)
    assert oracle.check_trajectory(_problem(stem + ".json"), bad)


@pytest.mark.parametrize("stem", ["oscillator", "ham_curved"])
def test_wrong_start_dropped_row_and_swapped_rows_are_rejected(outputs, stem):
    p = _problem(stem + ".json")
    text = outputs[stem + ".csv"]
    assert oracle.check_trajectory(p, _set_cell(text, 1, 1, lambda x: x + 0.5))
    lines = text.splitlines()
    assert oracle.check_trajectory(p, "\n".join(lines[:-1]) + "\n")
    lines[3], lines[4] = lines[4], lines[3]
    assert oracle.check_trajectory(p, "\n".join(lines) + "\n")


def _csv_from_law(p, rhs_for_leg, ts):
    """A trajectory CSV integrated by the oracle's RK4 under a given law."""
    n = p.n
    legs = [(a + b, a - b) for a, b in p.initial]
    ys = [[c[0] for c in legs], [c[1] for c in legs]]
    lines = [",".join(oracle.expected_header(p))]
    for k, t in enumerate(ts):
        if k:
            h = t - ts[k - 1]
            ys = [oracle.rk4_legs(rhs_for_leg(leg), y, h, 8) for leg, y in zip(oracle.LEGS, ys)]
        pairs = [((u + v) / 2.0, (u - v) / 2.0) for u, v in zip(*ys)] if k else p.initial
        row = [repr(t)]
        for i in range(n):
            row += [repr(pairs[i][0]), repr(pairs[i][1]), repr(pairs[n + i][0]), repr(pairs[n + i][1])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_flat_law_on_a_conformal_lagrangian_is_rejected():
    """el_conformal integrated as if lambda were 0 must fail the EL law."""
    p = _problem("el_conformal.json")
    flat = oracle.Problem(dict(p.doc, **{"lambda": "0"}))
    ts = [p.t0 + k * p.dt for k in range(round((p.t1 - p.t0) / p.dt))] + [p.t1]
    text = _csv_from_law(p, flat.rhs, ts)
    assert oracle.check_trajectory(flat, text) == []
    assert oracle.check_trajectory(p, text)


def test_unit_denominators_on_a_curved_hamiltonian_are_rejected():
    """ham_curved integrated with D+ = D- = 1 must fail the Hamilton law."""
    p = _problem("ham_curved.json")
    flat = oracle.Problem(dict(p.doc, **{"lambda": "0"}))
    ts = [k * 0.05 for k in range(20)] + [1.0]
    text = _csv_from_law(p, flat.rhs, ts)
    assert oracle.check_trajectory(flat, text) == []
    assert oracle.check_trajectory(p, text)


def test_energy_and_residual_columns_are_checked(outputs):
    p = _problem("el_quadratic.json")
    text = outputs["el_quadratic.csv"]
    hcol = 1 + 4 * p.n
    assert oracle.check_trajectory(p, _set_cell(text, 200, hcol, lambda x: x + 1e-6))
    assert oracle.check_trajectory(p, _set_cell(text, 200, hcol + 2, lambda x: x * 2 + 1e-8))
    assert oracle.check_trajectory(p, _set_cell(text, 1, hcol + 2, lambda x: 0.0))


def test_hamiltonian_drift_with_constant_lambda_is_rejected(outputs, monkeypatch):
    """With every per-row check loosened, a slow drift off the energy level
    of ham_conserve is still caught by the conservation check."""
    p = _problem("ham_conserve.json")
    monkeypatch.setattr(oracle, "RKF45_STEP_FACTOR", 1e12)
    monkeypatch.setattr(oracle, "ENERGY_TOL", 1e12)
    text = outputs["ham_conserve.csv"]
    assert oracle.check_trajectory(p, text) == []
    nrows = len(text.splitlines()) - 1
    for k in range(1, nrows):
        text = _set_cell(text, k + 1, 1, lambda x, k=k: x + 1e-9 * k)
    fails = oracle.check_trajectory(p, text)
    assert any("drifts" in f for f in fails)


def test_closed_form_oscillator(outputs):
    text = outputs["oscillator.csv"]
    assert oracle.check_closed_form_oscillator(text) == []
    assert oracle.check_closed_form_oscillator(_set_cell(text, 3000, 4, lambda x: x + 1e-7))


# -- derive, selftest, audit, failures ----------------------------------------


@pytest.mark.parametrize("stem", ["el_quadratic", "el_conformal", "ham_curved", "ham_conserve"])
def test_derive_text(outputs, stem):
    p = _problem(stem + ".json")
    text = outputs[stem + ".derive"]
    assert oracle.check_derive(p, text, 1) == []
    assert oracle.check_derive(p, "\n".join(text.splitlines()[:-1]), 1)
    first, _, rest = text.partition("\n")
    assert oracle.check_derive(p, first.replace("j*", "0.5*j*", 1) + "\n" + rest, 1)
    assert oracle.check_derive(p, first.replace(" = ", " = 0.001 + ", 1) + "\n" + rest, 1)


def test_selftest_report(outputs):
    stdout, code = outputs["selftest"]
    assert oracle.check_selftest(stdout, code) == []
    assert oracle.check_selftest(stdout, 1)
    assert oracle.check_selftest(stdout.replace("PASS", "FAIL", 1), code)
    dropped = "\n".join(ln for ln in stdout.splitlines() if "reduction-H3" not in ln)
    assert oracle.check_selftest(dropped, code)


def test_audit_report(outputs):
    stdout, code = outputs["audit"]
    assert oracle.check_audit(stdout, code) == []
    assert oracle.check_audit(stdout, 4)
    worse = re.sub(r"measured=\S+", "measured=1e-09", stdout)
    worse = re.sub(r"max residual = \S+", "max residual = 1e-09", worse)
    assert oracle.check_audit(worse, code)


def test_singular_integrate_outcomes():
    p = _problem("failing/degenerate_L.json")
    good = "error: zero row in e+ component system at t=0.0\n"
    assert oracle.check_singular_integrate(p, 3, good) == []
    assert oracle.check_singular_integrate(p, 1, good)
    assert oracle.check_singular_integrate(p, 3, "error: zero row in e+ component system\n")
    assert oracle.check_singular_integrate(p, 3, good.replace("t=0.0", "t=0.5"))
    assert oracle.check_singular_integrate(_problem("oscillator.json"), 3, good)


def test_degenerate_audit_outcomes():
    fault = "Traceback ...\nRuntimeError: could not sample enough well-posed states\n"
    assert oracle.degenerate_audit_outcome(1, fault) == "fault"
    assert oracle.degenerate_audit_outcome(3, "error: degenerate Lagrangian at t=0.0\n") == "ok"
    assert oracle.degenerate_audit_outcome(0, "") == "wrong"
    assert oracle.degenerate_audit_outcome(3, "error: singular denominator D+\n") == "wrong"


def test_round_fingerprint_sees_one_changed_byte(tmp_path):
    w = workloads.Workload("t", commands=[workloads.Command(["integrate", "x"], "integrate", csv="a.csv")])
    rec = {"commands": [{"code": 0}]}
    for name, body in (("cmd0.out", "wrote 2 samples\n"), ("cmd0.err", ""), ("a.csv", "t\n0.0\n")):
        (tmp_path / name).write_text(body)
    first = bench_run._fingerprint(w, str(tmp_path), rec)
    (tmp_path / "a.csv").write_text("t\n0.1\n")
    assert bench_run._fingerprint(w, str(tmp_path), rec) != first
