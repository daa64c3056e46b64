"""Command-line front end.

Exit codes are total: 0 ok, 1 selftest failure, 2 input error, 3 runtime
singularity (dynamics._TIMED_ERRORS: singular systems, step failures, zero
divisors and domain failures, with the failing time printed), 4 audit failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

from .dynamics import (
    _TIMED_ERRORS,
    IntegratorConfig,
    PhaseState,
    energy_along,  # unused here; the benchmark's tracer wraps cli.energy_along
    energy_columns,
    integrate,
    make_el_rhs,
    make_ham_rhs,
    residual_series,
)
from .eom import (
    HamiltonianProblem,
    LagrangianProblem,
    el_equation_texts,
    ham_equation_texts,
    synthesize_el,
    synthesize_ham,
)
from .para_algebra import ParaComplex
from .symbolic import CoordinateChart, ExpressionError, parse
from .verify import audit_battery, run_all

DEFAULT_SEED = 42

# step budgets are a CLI policy, not a problem-file field
RK4_MAX_STEPS = 20_000_000
RKF45_MAX_STEPS = 1_000_000


class ProblemFileError(ValueError):
    pass


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = {
    "n", "kind", "function", "lambda", "initial", "t0", "t1", "integrator",
}
_OPTIONAL_KEYS = {"dt", "tol", "emit_energy"}


def _real(doc, key):
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ProblemFileError(f"{key!r} must be a real number")
    v = float(v)
    if not math.isfinite(v):
        raise ProblemFileError(f"{key!r} must be finite")
    return v


def _pairs(raw, n, label):
    if not isinstance(raw, list) or len(raw) != n:
        raise ProblemFileError(f"initial.{label} must be a list of {n} [a, b] pairs")
    out = []
    for pair in raw:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            raise ProblemFileError(f"initial.{label} entries must be [a, b] pairs")
        a, b = float(pair[0]), float(pair[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ProblemFileError(f"initial.{label} entries must be finite")
        out.append(ParaComplex(a, b))
    return tuple(out)


class LoadedProblem:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ProblemFileError("problem file must hold a JSON object")
        keys = set(doc)
        unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
        if unknown:
            raise ProblemFileError(f"unknown keys: {', '.join(sorted(unknown))}")
        missing = _REQUIRED_KEYS - keys
        if missing:
            raise ProblemFileError(f"missing keys: {', '.join(sorted(missing))}")

        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ProblemFileError("'n' must be a positive integer")
        self.n = n
        self.chart = CoordinateChart(n)

        kind = doc["kind"]
        if kind not in ("lagrangian", "hamiltonian"):
            raise ProblemFileError("'kind' must be 'lagrangian' or 'hamiltonian'")
        self.kind = kind

        for key in ("function", "lambda"):
            if not isinstance(doc[key], str):
                raise ProblemFileError(f"{key!r} must be an expression string")
        try:
            fn = parse(doc["function"], self.chart)
            lam = parse(doc["lambda"], self.chart)
            if kind == "lagrangian":
                self.problem = LagrangianProblem(self.chart, fn, lam)
            else:
                self.problem = HamiltonianProblem(self.chart, fn, lam)
        except ExpressionError as exc:
            raise ProblemFileError(str(exc)) from None

        initial = doc["initial"]
        if not isinstance(initial, dict) or set(initial) != {"z", "zb"}:
            raise ProblemFileError("'initial' must hold exactly the keys 'z' and 'zb'")
        self.z0 = _pairs(initial["z"], n, "z")
        self.zb0 = _pairs(initial["zb"], n, "zb")

        self.t0 = _real(doc, "t0")
        self.t1 = _real(doc, "t1")
        if not self.t1 > self.t0:
            raise ProblemFileError("'t1' must exceed 't0'")
        if not math.isfinite(self.t1 - self.t0):
            raise ProblemFileError("'t1' - 't0' must be finite")

        integrator = doc["integrator"]
        if integrator not in ("rk4", "rkf45"):
            raise ProblemFileError("'integrator' must be 'rk4' or 'rkf45'")
        self.integrator = integrator

        has_dt, has_tol = "dt" in doc, "tol" in doc
        if has_dt == has_tol:
            raise ProblemFileError("give exactly one of 'dt' or 'tol'")
        if integrator == "rk4":
            if not has_dt:
                raise ProblemFileError("'rk4' requires 'dt'")
            self.dt, self.tol = _real(doc, "dt"), None
            if not self.dt > 0:
                raise ProblemFileError("'dt' must be positive")
        else:
            if not has_tol:
                raise ProblemFileError("'rkf45' requires 'tol'")
            self.dt, self.tol = None, _real(doc, "tol")
            if not self.tol > 0:
                raise ProblemFileError("'tol' must be positive")

        emit = doc.get("emit_energy", False)
        if not isinstance(emit, bool):
            raise ProblemFileError("'emit_energy' must be a boolean")
        self.emit_energy = emit

    def config(self) -> IntegratorConfig:
        max_steps = RK4_MAX_STEPS if self.integrator == "rk4" else RKF45_MAX_STEPS
        return IntegratorConfig(
            method=self.integrator,
            t0=self.t0,
            t1=self.t1,
            dt=self.dt,
            tol=self.tol,
            max_steps=max_steps,
        )

    def start(self) -> PhaseState:
        return PhaseState(t=self.t0, z=self.z0, zb=self.zb0)

    def rhs(self):
        if self.kind == "lagrangian":
            return make_el_rhs(synthesize_el(self.problem))
        return make_ham_rhs(synthesize_ham(self.problem))


def load_problem(path: str) -> LoadedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from None
    return LoadedProblem(doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BPC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ProblemFileError(f"BPC_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def cmd_derive(args) -> int:
    lp = load_problem(args.file)
    n = lp.n
    if lp.kind == "lagrangian":
        ode = synthesize_el(lp.problem)
        texts = el_equation_texts(ode)
        headers = [f"EL(3.13) row A_{i}" for i in range(1, n + 1)]
        headers += [f"EL(3.13) row B_{i}" for i in range(1, n + 1)]
    else:
        ode = synthesize_ham(lp.problem)
        texts = ham_equation_texts(ode)
        headers = [f"HAM(4.12) z_{i}" for i in range(1, n + 1)]
        headers += [f"HAM(4.12) zb_{i}" for i in range(1, n + 1)]
    for header, text in zip(headers, texts):
        print(f"{header}: {text}")
    return 0


# rows formatted per write: the whole text at once would hold a copy of the
# file in memory, and one write per row costs measurably more time
CSV_BLOCK_ROWS = 256


def _csv_columns(lp: LoadedProblem, tr) -> tuple:
    """The CSV's header, and the columns it adds to the trajectory's: the
    energy's (a, b) and, for a Lagrangian, the residual, when emit_energy
    is set.  A column that fails raises here, before any file is opened."""
    header = ["t"]
    for i in range(1, lp.n + 1):
        header += [f"z{i}_a", f"z{i}_b", f"zb{i}_a", f"zb{i}_b"]
    extra = []
    if lp.emit_energy:
        header += ["H_a", "H_b"]
        extra += energy_columns(lp.problem, tr)
        if lp.kind == "lagrangian":
            header.append("residual")
            extra.append(residual_series(lp.problem, tr))
    return header, extra


def _csv_blocks(n: int, tr, header, extra):
    """The CSV's text in pieces: the header line, then the rows
    CSV_BLOCK_ROWS at a time, each float written with repr."""
    yield ",".join(header) + "\n"
    # a row holds z1..zn before zb1..zbn; the CSV pairs z_i with zb_i
    order = [k for i in range(n) for k in (2 * i, 2 * i + 1, 2 * (n + i), 2 * (n + i) + 1)]
    times, rows = tr.times, tr.rows
    for lo in range(0, len(times), CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, len(times))
        columns = [times[lo:hi], *(rows.column(k, lo, hi) for k in order), *(c[lo:hi] for c in extra)]
        lines = [",".join(map(repr, row)) for row in zip(*columns)]
        lines.append("")  # the block's last row ends in a newline too
        yield "\n".join(lines)


def _write(path: str, pieces) -> None:
    """Write an output file from its text's pieces; a path that cannot be
    written is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ProblemFileError(f"cannot write {path}: {exc}") from None


def cmd_integrate(args) -> int:
    lp = load_problem(args.file)
    tr = integrate(lp.rhs(), lp.start(), lp.config())
    header, extra = _csv_columns(lp, tr)  # every column exists before -o is opened
    _write(args.output, _csv_blocks(lp.n, tr, header, extra))
    print(f"wrote {len(tr.times)} samples to {args.output}")
    return 0


def cmd_audit(args) -> int:
    if args.samples < 1:
        raise ProblemFileError("--samples must be at least 1")
    lp = load_problem(args.file)
    report = audit_battery(lp.problem, args.samples, _seed_from(args))
    print(report.render())
    worst = max(c.measured for c in report.checks)
    print(f"max residual = {worst!r}")
    return 0 if report.all_pass else 4


def cmd_selftest(args) -> int:
    report = run_all(_seed_from(args))
    print(report.render())
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _read_csv(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise ProblemFileError(f"{path} is empty")
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2 or len(set(header)) != len(header):
        raise ProblemFileError(f"{path} does not look like a trajectory CSV")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ProblemFileError(f"{path}: ragged row {ln!r}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ProblemFileError(f"{path}: non-numeric cell in {ln!r}") from None
    if not rows:
        raise ProblemFileError(f"{path} has no data rows")
    return header, rows


def _quarter_axis(values) -> tuple:
    """The padded (lo, hi) of a chart axis, in quarters of the data's units.

    Finite samples can span more than the float range, as 1e308 and -1e308
    do; in quarters the padded span stays finite.  Dividing by a power of
    two is exact for normal floats, so every ratio on the axis rounds as it
    would in the data's units.
    """
    lo, hi = min(values) / 4.0, max(values) / 4.0
    pad = (hi - lo) * 0.05 or 0.25  # a flat axis: 1 in the data's units
    return lo - pad, hi + pad


def _label(quarters: float) -> str:
    # a padded bound past the float range prints as the largest float
    return f"{max(-sys.float_info.max, min(quarters * 4.0, sys.float_info.max)):.6g}"


def _svg_chart(header, rows, cols, width, height) -> str:
    series = []
    for name in cols:
        idx = header.index(name)
        pts = [(r[0], r[idx]) for r in rows if math.isfinite(r[0]) and math.isfinite(r[idx])]
        if not pts:
            raise ProblemFileError(f"column {name!r} has no finite samples")
        series.append((name, pts))
    x_lo, x_hi = _quarter_axis([x for _, pts in series for x, _ in pts])
    y_lo, y_hi = _quarter_axis([y for _, pts in series for _, y in pts])

    def px(x):
        return (x / 4.0 - x_lo) / (x_hi - x_lo) * width

    def py(y):
        return height - (y / 4.0 - y_lo) / (y_hi - y_lo) * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if x_lo < 0.0 < x_hi:
        x0 = px(0.0)
        parts.append(
            f'<line x1="{x0:.2f}" y1="0" x2="{x0:.2f}" y2="{height}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    if y_lo < 0.0 < y_hi:
        y0 = py(0.0)
        parts.append(
            f'<line x1="0" y1="{y0:.2f}" x2="{width}" y2="{y0:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    for k, (name, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"><title>{name}</title></polyline>'
        )
    parts.append(
        f'<text x="4" y="12" font-size="11" fill="#333333">'
        f"y: [{_label(y_lo)}, {_label(y_hi)}]  t: [{_label(x_lo)}, {_label(x_hi)}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    if args.width < 1 or args.height < 1:
        raise ProblemFileError("--width and --height must be positive")
    header, rows = _read_csv(args.csv)
    if args.cols:
        cols = [c.strip() for c in args.cols.split(",") if c.strip()]
        if not cols:
            raise ProblemFileError("--cols named no columns")
        for c in cols:
            if c not in header or c == "t":
                raise ProblemFileError(f"unknown column {c!r}")
    else:
        cols = [c for c in header if c != "t"]
    _write(args.output, [_svg_chart(header, rows, cols, args.width, args.height)])
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# each command's arguments: a positional (a bare name) or an option (--name;
# -o is --output) -> (type, default), where a default of ... makes it required
_COMMANDS = {
    "derive": {"file": (str, ...)},
    "integrate": {"file": (str, ...), "--output": (str, ...)},
    "audit": {"file": (str, ...), "--samples": (int, 100), "--seed": (int, None)},
    "selftest": {"--seed": (int, None)},
    "plot": {"csv": (str, ...), "--output": (str, ...), "--cols": (str, None),
             "--width": (int, 640), "--height": (int, 400)},
}


def _usage(error=None):
    """Print one usage line per command: on stdout for help, or on stderr
    before `error`, which comes back as a ProblemFileError to raise."""
    lines = []
    for command, spec in _COMMANDS.items():
        words = [key if key[0] != "-" else f"{key} {key[2:].upper()}" for key in spec]
        words = [w if default is ... else f"[{w}]" for w, (_, default) in zip(words, spec.values())]
        lines.append(" ".join(["biparamech", command] + words))
    print("usage: " + "\n       ".join(lines), file=sys.stdout if error is None else sys.stderr)
    return None if error is None else ProblemFileError(error)


def _parse(argv):
    """The attributes argv's `cmd_*` handler reads, and `command`; None after help."""
    if "-h" in argv or "--help" in argv:
        return _usage()
    if not argv or argv[0] not in _COMMANDS:
        raise _usage(f"invalid choice: {argv[0]!r}" if argv else "no command given")
    spec = _COMMANDS[argv[0]]
    values = {key.lstrip("-"): default for key, (_, default) in spec.items()}
    positional = next((key for key in spec if key[0] != "-"), None)
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        flag = "--output" if flag == "-o" else flag
        if flag[:2] == "--" and flag in spec:
            value = value if eq else next(words, None)
            if value is None:
                raise _usage(f"argument {flag}: expected one argument")
            try:
                values[flag[2:]] = spec[flag][0](value)
            except ValueError:
                raise _usage(f"argument {flag}: invalid value: {value!r}") from None
        elif word.startswith("-") or values.get(positional) is not ...:
            raise _usage(f"unrecognized arguments: {word}")
        else:
            values[positional] = word
    missing = [key for key in spec if values[key.lstrip("-")] is ...]
    if missing:
        raise _usage(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        # looked up at call time, so a wrapped cmd_* is the one that runs
        return 0 if args is None else globals()[f"cmd_{args.command}"](args)
    except (ProblemFileError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _TIMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:  # in the parser, or later: a memo's key hashes the whole tree
        print("error: expression nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
