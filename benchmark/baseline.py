"""Reference figures for the synthesis and integration layers, in one process.

    python3 benchmark/baseline.py

Run from the root of a checkout.  Prints a Markdown table: RHS time per
call and expression-node counts of the coupled conformal family
sum z_i*zb_i + 0.3*zb_i^2 + 0.1*z_i*zb_{i+1} with lambda = 0.2*sum z_i*zb_i
for n = 1..4, `synthesize_el` with its memo bypassed, the oscillator orbit
(problems/oscillator.json) and `run_all(42)`.  Times are wall seconds as
measured, next to the reference probe's reading (see probe.py), so figures
taken in a slow phase of the host can be recognised.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import probe  # noqa: E402
import workloads  # noqa: E402
from biparamech import cli, dynamics, eom, symbolic, verify  # noqa: E402
from biparamech.para_algebra import ParaComplex  # noqa: E402


def _timed(fn, repeat):
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def _nodes(ode):
    roots = [e for row in ode.M for e in row] + list(ode.b)
    return sum(1 for r in roots for _ in symbolic.walk(r))


def family_rows():
    synth = getattr(eom.synthesize_el, "__wrapped__", eom.synthesize_el)
    rows = []
    for n in workloads.FAMILY_NS:
        chart = symbolic.CoordinateChart(n)
        p = eom.LagrangianProblem(
            chart,
            symbolic.parse(workloads.family_function(n, 0.3, 0.1), chart),
            symbolic.parse(workloads.family_lambda(n, 0.2), chart),
        )
        synth_s = _timed(lambda: synth(p), 3)
        ode = synth(p)
        rhs = dynamics.make_el_rhs(ode)
        s = dynamics.PhaseState(
            0.0,
            tuple(ParaComplex(0.5, 0.1) for _ in range(n)),
            tuple(ParaComplex(0.3, -0.05) for _ in range(n)),
        )
        calls = 200
        rhs_s = _timed(lambda: [rhs(s) for _ in range(calls)], 3)
        rows.append((n, rhs_s / calls * 1e6, _nodes(ode), synth_s * 1e3))
    return rows


def oscillator_row():
    lp = cli.load_problem(os.path.join("problems", "oscillator.json"))
    inner = lp.rhs()
    calls = [0]

    def rhs(s):
        calls[0] += 1
        return inner(s)

    t0 = time.perf_counter()
    tr = dynamics.integrate(rhs, lp.start(), lp.config())
    return time.perf_counter() - t0, len(tr.samples) - 1, calls[0]


def main():
    p_before = statistics.median(probe.probe() for _ in range(20))
    fam = family_rows()
    osc_s, steps, rhs_calls = oscillator_row()
    t0 = time.perf_counter()
    report = verify.run_all(42)
    run_all_s = time.perf_counter() - t0
    p_after = statistics.median(probe.probe() for _ in range(20))
    print("| measurement | value |")
    print("|---|---|")
    print(
        f"| oscillator RK4, 2*pi at dt=1e-3 ({steps} steps, {rhs_calls} RHS calls) "
        f"| {osc_s:.3f} s, {osc_s / rhs_calls * 1e6:.1f} us per RHS call |"
    )
    print("| RHS per call, n = 1 / 2 / 3 / 4 | "
          + " / ".join(f"{r[1]:.0f}" for r in fam) + " us |")
    print("| expression nodes in M and b, n = 1 / 2 / 3 / 4 | "
          + " / ".join(str(r[2]) for r in fam) + " |")
    print("| `synthesize_el` without memo, n = 1 / 2 / 3 / 4 | "
          + " / ".join(f"{r[3]:.1f}" for r in fam) + " ms |")
    print(f"| `run_all(42)` ({'all pass' if report.all_pass else 'FAILS'}) | {run_all_s:.3f} s |")
    print(
        f"| reference probe before / after (reference {probe.REFERENCE_S * 1e3:.2f} ms) "
        f"| {p_before * 1e3:.2f} / {p_after * 1e3:.2f} ms |"
    )


if __name__ == "__main__":
    main()
