"""biparamech benchmark, one workload per call.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/ and problems/).
It writes the workload's inputs under benchmark/out/, runs whole rounds of
the workload's CLI commands until S seconds have passed, checks every
output of the first round with oracle.py and every later round against the
first byte for byte, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, run_s,
peak_rss_mb); with --trace 1, rounds alternate between traced and untraced
and the metrics are the per-layer ones plus trace.overhead_s and
trace.missing_spans (functions the tracer did not find, named on stderr).  Times are
rescaled by the reference probe (see probe.py).  Exits 2 without a result
when the checkout or the workload name is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

ROUND_PY = os.path.join(HERE, "round.py")
OUT = os.path.join(HERE, "out")
# set-up-only interpreters started after each round, so a run has enough
# set-up samples for a median
SETUPS_PER_ROUND = 1
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _spawn(spec: dict, path: str) -> dict:
    """Run one round (or a set-up-only interpreter) and return its record,
    with its set-up time next to a bare interpreter's start-up time."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    reference = probe.spawn_probe()
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", ROUND_PY, path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the round's forked commands too
        proc.communicate()
        raise BenchError(f"round timed out after {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"round exited {proc.returncode}: {err.strip()[-800:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup"] = (rec["t_setup"] - t_spawn, reference)
    return rec


def _digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _last_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def _fingerprint(w, rdir, rec):
    """What must repeat exactly from round to round, per command.  For
    stderr that is its last line: traced rounds add their own frames to a
    traceback."""
    out = []
    for i, (cmd, res) in enumerate(zip(w.commands, rec["commands"])):
        out.append((
            res["code"],
            _digest(os.path.join(rdir, f"cmd{i}.out")),
            _last_line(_read(os.path.join(rdir, f"cmd{i}.err"))),
            _digest(os.path.join(rdir, cmd.csv)) if cmd.csv else None,
        ))
    return out


def check_round(w, rdir, rec, seed):
    """Every output of one round against the independent checks.

    Returns (failures, failed): failures make the run incorrect; failed
    counts commands that hit the known `audit` fault on a degenerate
    Lagrangian (uncaught RuntimeError, exit 1), which is reported apart.
    """
    fails, failed = [], 0
    problems = {}
    for name, text in w.inputs.items():
        problems[name] = oracle.Problem(json.loads(text))
    for i, (cmd, res) in enumerate(zip(w.commands, rec["commands"])):
        code = res["code"]
        stdout = _read(os.path.join(rdir, f"cmd{i}.out"))
        stderr = _read(os.path.join(rdir, f"cmd{i}.err"))
        p = problems.get(cmd.problem)
        label = " ".join(cmd.argv)
        found = []
        if cmd.check == "derive":
            found = [f"exit {code}"] if code != 0 else oracle.check_derive(p, stdout, seed)
        elif cmd.check == "integrate":
            csv_path = os.path.join(rdir, cmd.csv)
            if code != 0 or not os.path.exists(csv_path):
                found = [f"exit {code}: {_last_line(stderr)}"]
            else:
                text = _read(csv_path)
                found = oracle.check_trajectory(p, text)
                if cmd.closed_form:
                    found += oracle.check_closed_form_oscillator(text)
        elif cmd.check == "singular":
            found = oracle.check_singular_integrate(p, code, stderr)
        elif cmd.check == "audit":
            found = oracle.check_audit(stdout, code)
        elif cmd.check == "degenerate-audit":
            outcome = oracle.degenerate_audit_outcome(code, stderr)
            if outcome == "fault":
                failed += 1
            elif outcome == "wrong":
                found = [f"exit {code}: {_last_line(stderr)}"]
        elif cmd.check == "selftest":
            found = oracle.check_selftest(stdout, code)
        fails += [f"{label}: {f}" for f in found]
    return fails, failed


def _probe(res):
    return probe.during(*res["probes"], res["ticks"])


def _factor(res):
    return probe.REFERENCE_S / _probe(res)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _run_s(rounds):
    """Sum over the round's commands of each command's rescaled time."""
    per_cmd = zip(*[r["commands"] for r in rounds])
    return sum(probe.rescale([(c["s"], _probe(c)) for c in cmds]) for cmds in per_cmd)


def end_to_end(rounds, setups):
    return {
        "setup_s": probe.rescale(setups, probe.SPAWN_REFERENCE_S),
        "run_s": _run_s(rounds),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024.0 for r in rounds),
    }


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.load_problem.s": "s",
    "cli.integrate.self_s": "s",
    "cli.csv_bytes": "bytes",
    "symbolic.parse.s": "s",
    "symbolic.differentiate.calls": "count",
    "symbolic.differentiate.s": "s",
    "symbolic.simplify.calls": "count",
    "symbolic.simplify.s": "s",
    "symbolic.compile_expr.calls": "count",
    "symbolic.compile_expr.s": "s",
    "symbolic.evaluate.calls": "count",
    "symbolic.evaluate.s": "s",
    "eom.synthesize.calls": "count",
    "eom.synthesize.self_s": "s",
    "eom.nodes": "count",
    "eom.distinct_nodes": "count",
    "eom.audit.calls": "count",
    "eom.audit.s": "s",
    "dynamics.steps": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.step_us": "us",
    "dynamics.rhs.calls": "count",
    "dynamics.rhs.us_per_call": "us",
    "dynamics.solve.calls": "count",
    "dynamics.solve.s": "s",
    "dynamics.rkf45.accept_ratio": "ratio",
    "dynamics.energy_along.s": "s",
    "dynamics.residual_series.s": "s",
    "para_algebra.created": "count",
    "verify.run_all.s": "s",
    "verify.check_fd.s": "s",
    "verify.check_reduction.s": "s",
    "verify.audit_battery.s": "s",
    "verify.states_used_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(rec, csv_bytes):
    """Per-layer figures of one traced round; times rescaled per command."""
    spans, counts = {}, {}

    def add(snap, factor):
        for name, (calls, total, self_s) in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * factor
            acc[2] += self_s * factor
        for name, k in snap["counts"].items():
            counts[name] = counts.get(name, 0) + k

    setup_factor = probe.REFERENCE_S / rec["probe"]
    setup_spans = rec["setup_layers"]["spans"]
    add(rec["setup_layers"], setup_factor)
    for res in rec["commands"]:
        add(res["layers"], _factor(res))

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {
        "cli.import_s": rec["import_s"] * setup_factor,
        "cli.load_problem.s": setup_spans.get("cli.load_problem", [0, 0.0])[1] * setup_factor,
        "cli.integrate.self_s": self_s("cli.integrate"),
        "cli.csv_bytes": csv_bytes,
        "symbolic.parse.s": total("symbolic.parse"),
        "eom.synthesize.calls": calls("eom.synthesize"),
        "eom.synthesize.self_s": self_s("eom.synthesize"),
        "eom.nodes": counts.get("eom.nodes", 0),
        "eom.distinct_nodes": counts.get("eom.distinct_nodes", 0),
        "eom.audit.calls": calls("eom.audit"),
        "eom.audit.s": total("eom.audit"),
        "dynamics.steps": counts.get("dynamics.steps", 0),
        "dynamics.integrate.self_s": self_s("dynamics.integrate"),
        "dynamics.step_us": _ratio(self_s("dynamics.integrate"), counts.get("dynamics.steps", 0), 1e6),
        "dynamics.rhs.calls": calls("dynamics.rhs"),
        "dynamics.rhs.us_per_call": _ratio(total("dynamics.rhs"), calls("dynamics.rhs"), 1e6),
        "dynamics.solve.calls": calls("dynamics.solve"),
        "dynamics.solve.s": total("dynamics.solve"),
        "dynamics.rkf45.accept_ratio": _ratio(
            counts.get("rkf45.accepted", 0), counts.get("rkf45.attempts", 0)),
        "dynamics.energy_along.s": total("dynamics.energy_along"),
        "dynamics.residual_series.s": total("dynamics.residual_series"),
        "para_algebra.created": counts.get("para_algebra.created", 0),
        "verify.run_all.s": total("verify.run_all"),
        "verify.check_fd.s": total("verify.check_fd"),
        "verify.check_reduction.s": total("verify.check_reduction"),
        "verify.audit_battery.s": total("verify.audit_battery"),
        "verify.states_used_ratio": _ratio(
            counts.get("audit.states_used", 0), counts.get("audit.states_drawn", 0)),
    }
    for layer in ("differentiate", "simplify", "compile_expr", "evaluate"):
        m[f"symbolic.{layer}.calls"] = calls(f"symbolic.{layer}")
        m[f"symbolic.{layer}.s"] = total(f"symbolic.{layer}")
    return m


def per_layer(rounds, csv_bytes):
    traced = [layer_metrics(r, csv_bytes) for r in rounds if r["traced"]]
    out = {name: _median([m[name] for m in traced]) for name in traced[0]}
    out["trace.overhead_s"] = (
        _run_s([r for r in rounds if r["traced"]]) - _run_s([r for r in rounds if not r["traced"]])
    )
    # functions layers.py could not find: their metrics read 0 for that
    # reason alone
    missing = sorted({name for r in rounds if r["traced"] for name in r["missing"]})
    for name in missing:
        print(f"trace: no {name} to wrap; its metrics read 0", file=sys.stderr)
    out["trace.missing_spans"] = len(missing)
    return out


def run(workload, seed, seconds, trace):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "biparamech", "cli.py")):
        raise BenchError(f"no biparamech sources under {src}; run from a checkout's root")
    w = workloads.build(workload, seed, root)
    run_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "inputs"))
    for name, text in w.inputs.items():
        with open(os.path.join(run_dir, "inputs", name), "w", encoding="utf-8") as fh:
            fh.write(text)
    commands = [
        {"argv": c.argv, "stdout": f"cmd{i}.out", "stderr": f"cmd{i}.err"}
        for i, c in enumerate(w.commands)
    ]
    spec_path = os.path.join(run_dir, "round.json")
    os.makedirs(os.path.join(run_dir, "setup"))
    setup_spec = {
        "src": src, "cwd": os.path.join(run_dir, "setup"), "files": w.files(),
        "trace": False, "commands": [],
    }

    rounds, setups, fails = [], [], []
    first_dir = first_print = None
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = bool(trace) and k % 2 == 0
        rdir = os.path.join(run_dir, f"r{k}")
        os.makedirs(rdir)
        rec = _spawn(
            {"src": src, "cwd": rdir, "files": w.files(), "trace": traced, "commands": commands},
            spec_path,
        )
        rec["traced"] = traced
        rounds.append(rec)
        if not trace:
            setups.append(rec["setup"])
            for _ in range(SETUPS_PER_ROUND):
                setups.append(_spawn(setup_spec, spec_path)["setup"])
        fingerprint = _fingerprint(w, rdir, rec)
        if first_dir is None:
            first_dir, first_print = rdir, fingerprint
        else:
            for cmd, a, b in zip(w.commands, first_print, fingerprint):
                if a != b:
                    fails.append(f"round {k} differs from round 0 on {' '.join(cmd.argv)}")
            shutil.rmtree(rdir)
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            break

    found, failed_per_round = check_round(w, first_dir, rounds[0], seed)
    fails += found
    csv_bytes = sum(
        os.path.getsize(os.path.join(first_dir, c.csv))
        for c in w.commands
        if c.csv and os.path.exists(os.path.join(first_dir, c.csv))
    )
    if trace:
        values = per_layer(rounds, csv_bytes)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(rounds, setups)
        units = END_TO_END_UNITS
    for f in fails:
        print(f"FAIL {f}", file=sys.stderr)
    if not fails:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, value in values.items():
        print(f"{workload} {name} = {value!r} {units[name]}")
    return {
        "correct": not fails,
        "attempted": len(rounds) * len(w.commands),
        "failed": len(rounds) * failed_per_round,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, FileNotFoundError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
