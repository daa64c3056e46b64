"""The benchmark's workloads: inputs made from a seed, and one round of
`biparamech` commands over them.

A round is the fixed list of CLI commands a workload runs; each command is
paired with the independent check (see oracle.py) its output must pass.
Inputs are written once per run into `inputs/`, and every round runs the
same commands on them from its own directory, so outputs can be compared
byte for byte across rounds.
"""

from __future__ import annotations

import glob
import json
import os
import random
from dataclasses import dataclass, field


@dataclass
class Command:
    argv: list
    check: str  # derive | integrate | singular | audit | degenerate-audit | selftest
    problem: str | None = None  # input file name under inputs/
    csv: str | None = None  # CSV an integrate command writes
    closed_form: bool = False  # the oscillator, with z1 = cos t, zb1 = j*sin t


@dataclass
class Workload:
    name: str
    inputs: dict = field(default_factory=dict)  # file name -> JSON text
    commands: list = field(default_factory=list)

    def files(self):
        """Input files a round loads during set-up, as round-relative paths."""
        return [_input(name) for name in sorted(self.inputs)]


WORKLOADS = ("shipped-problems", "conformal-family", "audit-selftest")


def _input(name):
    return f"../inputs/{name}"


def _shipped(root):
    """(input name, JSON text) for problems/*.json and problems/failing/*.json."""
    out = []
    for path in sorted(glob.glob(os.path.join(root, "problems", "*.json"))):
        out.append((os.path.basename(path), path))
    for path in sorted(glob.glob(os.path.join(root, "problems", "failing", "*.json"))):
        out.append(("failing-" + os.path.basename(path), path))
    if len(out) != 12:
        raise FileNotFoundError(f"expected 10 + 2 shipped problems under {root}/problems")
    result = []
    for name, path in out:
        with open(path, encoding="utf-8") as fh:
            result.append((name, fh.read()))
    return result


def shipped_problems(seed, root):
    """derive and integrate on the ten shipped problems, integrate on the
    two failing ones; the seed only shuffles the command order."""
    w = Workload("shipped-problems")
    for name, text in _shipped(root):
        w.inputs[name] = text
        stem = name[:-5]
        if name.startswith("failing-"):
            w.commands.append(Command(
                ["integrate", _input(name), "-o", stem + ".csv"], "singular", name))
            continue
        w.commands.append(Command(["derive", _input(name)], "derive", name))
        w.commands.append(Command(
            ["integrate", _input(name), "-o", stem + ".csv"], "integrate", name,
            csv=stem + ".csv", closed_form=(name == "oscillator.json")))
    random.Random(seed).shuffle(w.commands)
    return w


FAMILY_NS = (1, 2, 3, 4)
FAMILY_T1 = 0.1
FAMILY_DT = 0.001


def family_function(n, c1, c2):
    """sum z_i*zb_i + c1*zb_i^2 + c2*z_i*zb_{i+1} (no wrap-around term)."""
    terms = [f"z{i}*zb{i}" for i in range(1, n + 1)]
    terms += [f"{c1!r}*zb{i}^2" for i in range(1, n + 1)]
    terms += [f"{c2!r}*z{i}*zb{i + 1}" for i in range(1, n)]
    return " + ".join(terms)


def family_lambda(n, c3):
    return " + ".join(f"{c3!r}*z{i}*zb{i}" for i in range(1, n + 1))


def family_doc(kind, n, c1, c2, c3, z0, zb0, t1=FAMILY_T1, dt=FAMILY_DT):
    return {
        "n": n,
        "kind": kind,
        "function": family_function(n, c1, c2),
        "lambda": family_lambda(n, c3),
        "initial": {"z": z0, "zb": zb0},
        "t0": 0.0,
        "t1": t1,
        "integrator": "rk4",
        "dt": dt,
        "emit_energy": True,
    }


def conformal_family(seed, root):
    """Coupled conformal Lagrangians and their Hamiltonian counterparts for
    n = 1..4 with seeded coefficients and starts; derive and a short
    integrate of each."""
    rng = random.Random(seed)
    w = Workload("conformal-family")
    for n in FAMILY_NS:
        c1 = round(rng.uniform(0.2, 0.4), 3)
        c2 = round(rng.uniform(0.05, 0.15), 3)
        c3 = round(rng.uniform(0.1, 0.3), 3)
        z0 = [[round(rng.uniform(0.3, 0.8), 3), round(rng.uniform(-0.2, 0.2), 3)] for _ in range(n)]
        zb0 = [[round(rng.uniform(0.1, 0.5), 3), round(rng.uniform(-0.15, 0.15), 3)] for _ in range(n)]
        for kind, tag in (("lagrangian", "L"), ("hamiltonian", "H")):
            name = f"family_{tag}{n}.json"
            w.inputs[name] = json.dumps(family_doc(kind, n, c1, c2, c3, z0, zb0), indent=1)
            stem = name[:-5]
            w.commands.append(Command(["derive", _input(name)], "derive", name))
            w.commands.append(Command(
                ["integrate", _input(name), "-o", stem + ".csv"], "integrate", name,
                csv=stem + ".csv"))
    return w


# run_all's work varies with its seed (the random expressions differ: objects
# created per call have a coefficient of variation of 8% over seeds, with
# rare seeds 35% above the median), so a round runs six to average that out;
# audits take more samples than the CLI's default 100 so that seed-independent
# work keeps a good share of the round
SELFTESTS_PER_ROUND = 6
AUDIT_SAMPLES = 300


def audit_selftest(seed, root):
    """selftest on seeds drawn from the workload seed, audit on every
    shipped problem, and audit on problems/failing/degenerate_L.json."""
    rng = random.Random(seed)
    w = Workload("audit-selftest")
    for _ in range(SELFTESTS_PER_ROUND):
        w.commands.append(Command(["selftest", "--seed", str(rng.randrange(1, 10**6))], "selftest"))
    for name, text in _shipped(root):
        if name.startswith("failing-") and name != "failing-degenerate_L.json":
            continue
        w.inputs[name] = text
        argv = ["audit", _input(name), "--seed", str(rng.randrange(1, 10**6))]
        check = "degenerate-audit" if name.startswith("failing-") else "audit"
        if check == "audit":
            argv += ["--samples", str(AUDIT_SAMPLES)]
        w.commands.append(Command(argv, check, name))
    return w


_BUILDERS = {
    "shipped-problems": shipped_problems,
    "conformal-family": conformal_family,
    "audit-selftest": audit_selftest,
}


def build(name, seed, root):
    return _BUILDERS[name](seed, root)
