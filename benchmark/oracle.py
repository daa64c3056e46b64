"""Output checks computed apart from biparamech.

Nothing here imports the package under test.  A problem file is re-read
with this module's own parser, differentiated with its own rules and
evaluated on the idempotent legs: a para-complex value a + b*j is worked on
as the real pair (u, v) = (a + b, a - b), where every operation acts on each
leg alone and j is the pair (1, -1), i.e. multiplying by j flips the sign of
the v leg.  Each leg of a problem is then an ordinary real ODE, which these
checks integrate, solve and compare against the program's output.

Every check function returns a list of human-readable failures; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re

LEGS = (1.0, -1.0)  # the value of j on the u leg and on the v leg

# ---------------------------------------------------------------------------
# expressions: parse, differentiate, generate leg code
# ---------------------------------------------------------------------------
#
# Nodes are tuples: ("c", x) real constant, ("j",), ("v", family, index),
# ("+", a, b), ("-", a, b), ("*", a, b), ("/", a, b), ("neg", a),
# ("^", a, k) with integer k, ("f", name, a).

ZERO = ("c", 0.0)
ONE = ("c", 1.0)
FUNCTIONS = ("exp", "ln", "sin", "cos")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()]))"
)
_VAR = re.compile(r"^(z|zb|xi|xib)([1-9][0-9]*)$")


class OracleError(ValueError):
    pass


class Singular(ArithmeticError):
    """A leg system or denominator has no well-defined solution."""


def parse(text: str):
    """Parse the problem-file expression grammar (also used by `derive`)."""
    toks = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise OracleError(f"cannot tokenize {text[pos:pos + 20]!r}")
        kind = m.lastgroup
        toks.append((kind, m.group(kind)))
        pos = m.end()
    toks.append(("eof", ""))
    i = 0

    def peek():
        return toks[i]

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def accept(*ops):
        if toks[i][0] == "op" and toks[i][1] in ops:
            return take()[1]
        return None

    def expect(op):
        if accept(op) is None:
            raise OracleError(f"expected {op!r} in {text!r}")

    def expr():
        acc = term()
        while (op := accept("+", "-")) is not None:
            acc = (op, acc, term())
        return acc

    def term():
        acc = factor()
        while (op := accept("*", "/")) is not None:
            acc = (op, acc, factor())
        return acc

    def factor():
        if accept("-"):
            return ("neg", factor())
        base = primary()
        if accept("^"):
            sign = -1 if accept("-") else 1
            kind, val = take()
            if kind != "num" or not val.isdigit():
                raise OracleError(f"bad exponent in {text!r}")
            return ("^", base, sign * int(val))
        return base

    def primary():
        kind, val = take()
        if kind == "num":
            return ("c", float(val))
        if kind == "ident":
            if val == "j":
                return ("j",)
            if val in FUNCTIONS:
                expect("(")
                arg = expr()
                expect(")")
                return ("f", val, arg)
            m = _VAR.match(val)
            if m is None:
                raise OracleError(f"unknown name {val!r}")
            return ("v", m.group(1), int(m.group(2)))
        if kind == "op" and val == "(":
            inner = expr()
            expect(")")
            return inner
        raise OracleError(f"unexpected {val!r} in {text!r}")

    tree = expr()
    if peek()[0] != "eof":
        raise OracleError(f"trailing input in {text!r}")
    return tree


def add(a, b):
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    if a[0] == "c" and b[0] == "c":
        return ("c", a[1] + b[1])
    return ("+", a, b)


def sub(a, b):
    if b == ZERO:
        return a
    if a == ZERO:
        return neg(b)
    return ("-", a, b)


def mul(a, b):
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    if b == ONE:
        return a
    if a[0] == "c" and b[0] == "c":
        return ("c", a[1] * b[1])
    return ("*", a, b)


def div(a, b):
    if a == ZERO:
        return ZERO
    if b == ONE:
        return a
    return ("/", a, b)


def neg(a):
    if a[0] == "c":
        return ("c", -a[1])
    if a[0] == "neg":
        return a[1]
    return ("neg", a)


def power(a, k):
    return a if k == 1 else ("^", a, k)


def fn(name, a):
    return ("f", name, a)


def d(e, var):
    """Partial derivative of e by the variable node var."""
    op = e[0]
    if op in ("c", "j"):
        return ZERO
    if op == "v":
        return ONE if e == var else ZERO
    if op == "+":
        return add(d(e[1], var), d(e[2], var))
    if op == "-":
        return sub(d(e[1], var), d(e[2], var))
    if op == "*":
        return add(mul(d(e[1], var), e[2]), mul(e[1], d(e[2], var)))
    if op == "/":
        num = sub(mul(d(e[1], var), e[2]), mul(e[1], d(e[2], var)))
        return div(num, power(e[2], 2))
    if op == "neg":
        return neg(d(e[1], var))
    if op == "^":
        k = e[2]
        return mul(mul(("c", float(k)), power(e[1], k - 1) if k != 1 else ONE), d(e[1], var))
    name, arg = e[1], e[2]
    da = d(arg, var)
    if da == ZERO:
        return ZERO
    if name == "exp":
        return mul(e, da)
    if name == "ln":
        return div(da, arg)
    if name == "sin":
        return mul(fn("cos", arg), da)
    return neg(mul(fn("sin", arg), da))


def variables(e, out=None):
    out = set() if out is None else out
    if e[0] == "v":
        out.add((e[1], e[2]))
    elif e[0] in ("+", "-", "*", "/"):
        variables(e[1], out)
        variables(e[2], out)
    elif e[0] in ("neg", "^"):
        variables(e[1], out)
    elif e[0] == "f":
        variables(e[2], out)
    return out


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ln(x):
    if x <= 0.0:
        raise Singular("ln of a non-positive leg")
    return math.log(x)


_NAMESPACE = {"_exp": _exp, "_ln": _ln, "_sin": math.sin, "_cos": math.cos}


def _chain(e, ops):
    """Flatten a left-associated chain of binary ops into (op, node) pairs,
    so long sums do not nest parentheses past the compiler's limit."""
    out = []
    while e[0] in ops:
        out.append((e[0], e[2]))
        e = e[1]
    out.append((None, e))
    out.reverse()
    return out


def leg_code(e, leg: float, n: int) -> str:
    """Python source for one leg of e; q holds (z1..zn, zb1..zbn) legs and
    p the velocity legs (xi1..xin, xib1..xibn)."""
    op = e[0]
    if op == "c":
        return f"({e[1]!r})"
    if op == "j":
        return f"({leg!r})"
    if op == "v":
        family, index = e[1], e[2]
        if index > n:
            raise OracleError(f"{family}{index} is outside n={n}")
        slot = index - 1 + (n if family in ("zb", "xib") else 0)
        return f"{'q' if family in ('z', 'zb') else 'p'}[{slot}]"
    if op in ("+", "-"):
        parts = _chain(e, ("+", "-"))
    elif op in ("*", "/"):
        parts = _chain(e, ("*", "/"))
    else:
        parts = None
    if parts is not None:
        text = "".join(
            (f" {o} " if o else "") + leg_code(x, leg, n) for o, x in parts
        )
        return f"({text})"
    if op == "neg":
        return f"(-{leg_code(e[1], leg, n)})"
    if op == "^":
        return f"({leg_code(e[1], leg, n)}**{e[2]})"
    return f"_{e[1]}({leg_code(e[2], leg, n)})"


def compile_legs(exprs, n: int, leg: float, args: str = "q"):
    """One Python function per leg returning the values of all exprs."""
    body = ", ".join(leg_code(e, leg, n) for e in exprs)
    src = f"def f({args}):\n    return [{body}]\n"
    scope = dict(_NAMESPACE)
    exec(compile(src, "<oracle>", "exec"), scope)
    return scope["f"]


# ---------------------------------------------------------------------------
# problems as pairs of real ODEs
# ---------------------------------------------------------------------------


def solve(mat, rhs):
    """Gaussian elimination with partial pivoting on one real system."""
    m = len(rhs)
    a = [list(row) + [rhs[r]] for r, row in enumerate(mat)]
    for k in range(m):
        piv = max(range(k, m), key=lambda r: abs(a[r][k]))
        scale = max(abs(x) for x in a[piv][:m])
        if scale == 0.0 or abs(a[piv][k]) <= 1e-12 * scale:
            raise Singular("singular leg system")
        a[k], a[piv] = a[piv], a[k]
        for r in range(k + 1, m):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, m + 1):
                    a[r][c] -= f * a[k][c]
    x = [0.0] * m
    for k in range(m - 1, -1, -1):
        s = a[k][m] - sum(a[k][c] * x[c] for c in range(k + 1, m))
        x[k] = s / a[k][k]
    return x


def _pairs_to_legs(pairs):
    return [(a + b, a - b) for a, b in pairs]


class Problem:
    """A problem file read independently of the program."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.n = n = doc["n"]
        self.kind = doc["kind"]
        self.f = parse(doc["function"])
        self.lam = parse(doc["lambda"])
        self.t0, self.t1 = float(doc["t0"]), float(doc["t1"])
        self.method = doc["integrator"]
        self.dt = doc.get("dt")
        self.tol = doc.get("tol")
        self.emit_energy = bool(doc.get("emit_energy", False))
        self.initial = [tuple(map(float, p)) for p in doc["initial"]["z"]] + [
            tuple(map(float, p)) for p in doc["initial"]["zb"]
        ]
        self.z = [("v", "z", i) for i in range(1, n + 1)]
        self.zb = [("v", "zb", i) for i in range(1, n + 1)]
        self.q = self.z + self.zb
        self.lam_constant = not variables(self.lam)
        self._rhs = {}
        self._energy = {}
        self._parts = None

    # -- per-leg right-hand sides ----------------------------------------

    def lagrange_parts(self):
        """(Lz, Lzb, F, G, grads) with F_i = e^lam*dL/dzb_i,
        G_i = e^-lam*dL/dz_i and grads their partials, row by row."""
        if self._parts is None:
            ep, em = fn("exp", self.lam), fn("exp", neg(self.lam))
            lz = [d(self.f, v) for v in self.z]
            lzb = [d(self.f, v) for v in self.zb]
            F = [mul(ep, x) for x in lzb]
            G = [mul(em, x) for x in lz]
            grads = [d(row, v) for row in F + G for v in self.q]
            self._parts = (lz, lzb, F, G, grads)
        return self._parts

    def rhs(self, leg: float):
        """Velocity legs q -> dq/dt on one leg, memoized per leg."""
        if leg in self._rhs:
            return self._rhs[leg]
        n, m = self.n, 2 * self.n
        if self.kind == "lagrangian":
            lz, lzb, _, _, grads = self.lagrange_parts()
            # j*grad(F_i).qdot = -Lz_i and j*grad(G_i).qdot = Lzb_i; on a leg
            # j is the sign `leg`, so the right-hand sides pick it up
            parts = compile_legs(grads + lz + lzb, n, leg)

            def f(q):
                vals = parts(q)
                mat = [vals[r * m:(r + 1) * m] for r in range(m)]
                tail = vals[m * m:]
                b = [-leg * x for x in tail[:n]] + [leg * x for x in tail[n:]]
                return solve(mat, b)
        else:
            s_terms = ZERO
            for v in self.q:
                s_terms = add(s_terms, mul(v, d(self.lam, v)))
            half = mul(("c", 0.5), mul(fn("exp", self.lam), s_terms))
            hz = [d(self.f, v) for v in self.z]
            hzb = [d(self.f, v) for v in self.zb]
            parts = compile_legs([half] + hz + hzb, n, leg)

            def f(q):
                vals = parts(q)
                dplus, dminus = 1.0 + vals[0], 1.0 - vals[0]
                if abs(dplus) < 1e-300 or abs(dminus) < 1e-300:
                    raise Singular("zero denominator leg")
                hz_v, hzb_v = vals[1:1 + n], vals[1 + n:]
                return [-leg * x / dplus for x in hzb_v] + [leg * x / dminus for x in hz_v]

        self._rhs[leg] = f
        return f

    def energy(self, leg: float):
        """Leg function (q, qdot) -> energy, as the CLI's H columns define it."""
        if leg in self._energy:
            return self._energy[leg]
        n = self.n
        if self.kind == "hamiltonian":
            h = compile_legs([self.f], n, leg)
            f = lambda q, qd: h(q)[0]  # noqa: E731
        else:
            lz, lzb, F, G, _ = self.lagrange_parts()
            vals = compile_legs(F + G + [self.f], n, leg)

            def f(q, qd):
                v = vals(q)
                e = -v[-1]
                for i in range(n):
                    e += -leg * qd[i] * v[i] + leg * qd[n + i] * v[n + i]
                return e
        self._energy[leg] = f
        return f


def rk4_legs(f, y, h, substeps):
    """Classical RK4 over h in equal substeps on one leg."""
    w = h / substeps
    for _ in range(substeps):
        k1 = f(y)
        k2 = f([a + 0.5 * w * b for a, b in zip(y, k1)])
        k3 = f([a + 0.5 * w * b for a, b in zip(y, k2)])
        k4 = f([a + w * b for a, b in zip(y, k3)])
        y = [a + w / 6.0 * (p + 2.0 * (r + s) + t) for a, p, r, s, t in zip(y, k1, k2, k3, k4)]
    return y


# ---------------------------------------------------------------------------
# trajectory CSVs
# ---------------------------------------------------------------------------

# substeps of the re-integration never exceed this length
REINTEGRATE_H = 5e-4
# relative one-step mismatch tolerated for fixed-step RK4 files; RK4's own
# local error at dt <= 1e-3 stays below 1e-15 on every benchmarked problem
RK4_STEP_TOL = 1e-12
# RKF45 keeps each step's error estimate below tol*(1 + |y|); the accepted
# fifth-order solution is better still, so 10*tol leaves room only for that
RKF45_STEP_FACTOR = 10.0
ENERGY_TOL = 1e-10
CONSERVATION_TOL = 1e-8
RESIDUAL_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8


def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise OracleError("empty CSV")
    header = rows[0]
    body = [[float(c) for c in r] for r in rows[1:] if r]
    return header, body


def expected_header(p: Problem):
    cols = ["t"]
    for i in range(1, p.n + 1):
        cols += [f"z{i}_a", f"z{i}_b", f"zb{i}_a", f"zb{i}_b"]
    if p.emit_energy:
        cols += ["H_a", "H_b"]
        if p.kind == "lagrangian":
            cols.append("residual")
    return cols


def _row_pairs(row, n):
    """Canonical (a, b) pairs in the order z1..zn, zb1..zbn."""
    z = [(row[1 + 4 * i], row[2 + 4 * i]) for i in range(n)]
    zb = [(row[3 + 4 * i], row[4 + 4 * i]) for i in range(n)]
    return z + zb


def _rel(x, y):
    return abs(x - y) / (1.0 + abs(y))


def check_trajectory(p: Problem, text: str) -> list[str]:
    """A trajectory CSV against the problem's conformal equations of motion.

    Every step is re-integrated leg by leg from the CSV's own start of step
    with this module's RK4 and compared with the CSV's end of step; the
    first row must be the file's initial state, so together the rows are
    pinned to the true flow.  Energy columns are recomputed at every row.
    """
    fails = []
    try:
        header, rows = read_csv(text)
    except (OracleError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    if header != expected_header(p):
        return [f"header {header} != {expected_header(p)}"]
    n = p.n
    width = len(header)
    if len(rows) < 2 or any(len(r) != width for r in rows):
        return ["too few or ragged rows"]
    if rows[0][0] != p.t0 or _row_pairs(rows[0], n) != p.initial:
        fails.append("first row is not the initial state")
    ts = [r[0] for r in rows]
    if ts[-1] != p.t1:
        fails.append(f"last t {ts[-1]!r} != t1 {p.t1!r}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        fails.append("t is not increasing")
    if p.method == "rk4":
        steps = len(rows) - 1
        expected = math.ceil((p.t1 - p.t0) / p.dt - 1e-9)
        if steps != expected:
            fails.append(f"{steps} RK4 steps, expected {expected}")
        for k, t in enumerate(ts[:-1]):
            if abs(t - (p.t0 + k * p.dt)) > 1e-9 * max(1.0, abs(t)):
                fails.append(f"row {k} at t={t!r} is off the dt grid")
                break
        tol = RK4_STEP_TOL
    else:
        tol = RKF45_STEP_FACTOR * p.tol
    if fails:
        return fails

    legs = [[_pairs_to_legs(_row_pairs(r, n))] for r in rows]
    worst = 0.0
    for li, leg in enumerate(LEGS):
        f = p.rhs(leg)
        ys = [[c[li] for c in row[0]] for row in legs]
        for k in range(len(rows) - 1):
            h = ts[k + 1] - ts[k]
            sub = max(2, math.ceil(h / REINTEGRATE_H))
            try:
                y = rk4_legs(f, ys[k], h, sub)
            except (Singular, ZeroDivisionError, OverflowError) as exc:
                return [f"leg {li} step {k}: oracle cannot continue ({exc})"]
            err = max(_rel(a, b) for a, b in zip(y, ys[k + 1]))
            worst = max(worst, err)
            if not err <= tol:
                fails.append(
                    f"leg {'uv'[li]} step {k} (t={ts[k]!r}) mismatch {err:.3e} > {tol:.1e}"
                )
                break
    if fails or not p.emit_energy:
        return fails
    return _check_energy_columns(p, rows, legs, ts)


def _check_energy_columns(p, rows, legs, ts):
    fails = []
    n = p.n
    hcol = 1 + 4 * n
    energies = []
    for k, row in enumerate(rows):
        pair = []
        for li, leg in enumerate(LEGS):
            q = [c[li] for c in legs[k][0]]
            qd = p.rhs(leg)(q) if p.kind == "lagrangian" else None
            pair.append(p.energy(leg)(q, qd))
        energies.append(pair)
        u, v = row[hcol] + row[hcol + 1], row[hcol] - row[hcol + 1]
        if _rel(u, pair[0]) > ENERGY_TOL or _rel(v, pair[1]) > ENERGY_TOL:
            fails.append(f"row {k}: H column {row[hcol]!r},{row[hcol + 1]!r} != oracle")
            break
    if p.kind == "hamiltonian" and p.lam_constant:
        drift = max(
            max(abs(e[0] - energies[0][0]), abs(e[1] - energies[0][1])) for e in energies
        )
        if drift > CONSERVATION_TOL:
            fails.append(f"H drifts by {drift:.3e} with constant lambda")
    if p.kind == "lagrangian":
        fails += _check_residual_column(p, rows, legs, ts)
    return fails


def _check_residual_column(p, rows, legs, ts):
    """The CLI's residual column is the three-point finite-difference
    residual of j*d/dt(e^lam*dL/dzb_i) = -dL/dz_i and
    j*d/dt(e^-lam*dL/dz_i) = dL/dzb_i; recompute it on the legs."""
    n = p.n
    lz, lzb, F, G, _ = p.lagrange_parts()
    col = 1 + 4 * n + 2
    fns = [compile_legs(F + G + lz + lzb, n, leg) for leg in LEGS]
    vals = [[fns[li]([c[li] for c in legs[k][0]]) for li in range(2)] for k in range(len(rows))]
    if not (math.isnan(rows[0][col]) and math.isnan(rows[-1][col])):
        return ["residual column is not nan at the boundary rows"]
    for k in range(1, len(rows) - 1):
        h1, h2 = ts[k] - ts[k - 1], ts[k + 1] - ts[k]
        den = h1 * h2 * (h1 + h2)
        wm, w0, wp = -h2 * h2 / den, (h2 * h2 - h1 * h1) / den, h1 * h1 / den
        worst = 0.0
        for li, leg in enumerate(LEGS):
            a, b, c = vals[k - 1][li], vals[k][li], vals[k + 1][li]
            for i in range(n):
                dA = wm * a[i] + w0 * b[i] + wp * c[i]
                dB = wm * a[n + i] + w0 * b[n + i] + wp * c[n + i]
                worst = max(worst, abs(leg * dA + b[2 * n + i]), abs(leg * dB - b[3 * n + i]))
        if abs(rows[k][col] - worst) > RESIDUAL_TOL:
            return [f"row {k}: residual {rows[k][col]!r} != oracle {worst!r}"]
    return []


def check_closed_form_oscillator(text: str) -> list[str]:
    """z1 = cos t and zb1 = j*sin t for L = z1*zb1 from z1 = 1, zb1 = 0."""
    try:
        header, rows = read_csv(text)
    except (OracleError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    if header[:5] != ["t", "z1_a", "z1_b", "zb1_a", "zb1_b"]:
        return ["not an n=1 trajectory"]
    worst = 0.0
    for t, za, zbb, zba, zbbb in (r[:5] for r in rows):
        worst = max(worst, abs(za - math.cos(t)), abs(zbb), abs(zba), abs(zbbb - math.sin(t)))
    if not worst <= CLOSED_FORM_TOL:
        return [f"oscillator leaves its closed form by {worst:.3e}"]
    return []


# ---------------------------------------------------------------------------
# derive, audit, selftest and failure outputs
# ---------------------------------------------------------------------------

DERIVE_TOL = 1e-9
DERIVE_STATES = 3


def _random_legs(rng, n):
    return [(rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)) for _ in range(2 * n)]


def check_derive(p: Problem, stdout: str, seed: int) -> list[str]:
    """Printed equations against the conformal law at seeded states.

    Lagrangian rows must read j*grad(e^lam*Lzb_i).xi = -Lz_i (row A_i) and
    j*grad(e^-lam*Lz_i).xi = Lzb_i (row B_i), coefficient by coefficient.
    Hamiltonian lines must give dz_i/dt = -j*Hzb_i/D+ and
    dzb_i/dt = j*Hz_i/D-.
    """
    n = p.n
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 2 * n:
        return [f"{len(lines)} derive lines, expected {2 * n}"]
    rng = random.Random(seed)
    if p.kind == "lagrangian":
        heads = [f"EL(3.13) row A_{i}" for i in range(1, n + 1)]
        heads += [f"EL(3.13) row B_{i}" for i in range(1, n + 1)]
    else:
        heads = [f"HAM(4.12) z_{i}: dz{i}/dt" for i in range(1, n + 1)]
        heads += [f"HAM(4.12) zb_{i}: dzb{i}/dt" for i in range(1, n + 1)]
    eqs = []
    for head, line in zip(heads, lines):
        if p.kind == "lagrangian":
            if not line.startswith(head + ": "):
                return [f"line {line[:40]!r} does not start with {head!r}"]
            lhs, sep, rhs = line[len(head) + 2:].partition(" = ")
        else:
            lhs, sep, rhs = line.partition(" = ")
            if lhs != head:
                return [f"line {line[:40]!r} does not start with {head!r}"]
            lhs = None
        if not sep:
            return [f"no ' = ' in {line[:40]!r}"]
        try:
            eqs.append((parse(lhs) if lhs else None, parse(rhs)))
        except OracleError as exc:
            return [f"unparseable derive line: {exc}"]
    m = 2 * n
    zero_p = [0.0] * m
    units = [[1.0 if c == k else 0.0 for c in range(m)] for k in range(m)]
    states = [_random_legs(rng, n) for _ in range(DERIVE_STATES)]
    for li, leg in enumerate(LEGS):
        rhs_f = compile_legs([e[1] for e in eqs], n, leg, "q, p")
        if p.kind == "lagrangian":
            lz, lzb, _, _, grads = p.lagrange_parts()
            truth_f = compile_legs(grads + lz + lzb, n, leg)
            lhs_f = compile_legs([e[0] for e in eqs], n, leg, "q, p")
        for q_legs in states:
            q = [c[li] for c in q_legs]
            got_rhs = rhs_f(q, zero_p)
            if p.kind == "hamiltonian":
                try:
                    want = p.rhs(leg)(q)
                except Singular:
                    continue
                for r in range(m):
                    if _rel(got_rhs[r], want[r]) > DERIVE_TOL:
                        return [f"{heads[r]}: right-hand side differs from the law"]
                continue
            truth = truth_f(q)
            base = lhs_f(q, zero_p)
            for r in range(m):
                want_rhs = -truth[m * m + r] if r < n else truth[m * m + r]
                if _rel(got_rhs[r], want_rhs) > DERIVE_TOL or abs(base[r]) > DERIVE_TOL:
                    return [f"{heads[r]}: right-hand side differs from the law"]
            for k in range(m):
                col = lhs_f(q, units[k])
                for r in range(m):
                    if _rel(col[r] - base[r], leg * truth[r * m + k]) > DERIVE_TOL:
                        return [f"{heads[r]}: coefficient of unknown {k + 1} differs"]
    return []


_CHECK_LINE = re.compile(
    r"^CHECK (\S+) (PASS|FAIL) measured=(\S+) threshold=(\S+)$"
)

# every check `selftest` is documented to run; more may be added, none lost
SELFTEST_CHECKS = (
    "algebra-basis-constants",
    "algebra-idempotent-exact",
    "algebra-idempotent-roundtrip",
    "algebra-structure-tables",
    "algebra-j-involution",
    "algebra-pdiff-involution",
    "algebra-w-at-zero-matches-p",
    "roundtrip-text",
    "fd-derivative-suite",
    *(f"reduction-L{i}" for i in range(1, 6)),
    *(f"reduction-H{i}" for i in range(1, 6)),
    "conservation-hamiltonian",
)


def _check_lines(stdout: str):
    found = {}
    for ln in stdout.splitlines():
        m = _CHECK_LINE.match(ln)
        if m:
            found[m.group(1)] = (m.group(2), float(m.group(3)), float(m.group(4)))
    return found


def check_selftest(stdout: str, code: int) -> list[str]:
    found = _check_lines(stdout)
    fails = [f"selftest check {c} not reported" for c in SELFTEST_CHECKS if c not in found]
    for name, (status, measured, threshold) in found.items():
        if status != "PASS" or not measured <= threshold:
            fails.append(f"selftest check {name} {status} measured={measured!r}")
    if code != 0:
        fails.append(f"selftest exit {code}")
    return fails


AUDIT_THRESHOLD = 1e-10


def check_audit(stdout: str, code: int) -> list[str]:
    found = _check_lines(stdout)
    m = re.search(r"^max residual = (\S+)$", stdout, re.M)
    if code != 0 or "audit" not in found or m is None:
        return [f"audit exit {code} without a passing report"]
    status, measured, _ = found["audit"]
    worst = float(m.group(1))
    if status != "PASS" or not worst <= AUDIT_THRESHOLD or measured != worst:
        return [f"audit residual {worst!r} above {AUDIT_THRESHOLD}"]
    return []


_AT_T = re.compile(r"^error: .* at t=(\S+)$", re.M)


def failure_time(stderr: str):
    """The t an `error: ... at t=<t>` line names, or None."""
    m = _AT_T.search(stderr)
    return float(m.group(1)) if m else None


def singular_at_start(p: Problem) -> bool:
    """Whether the oracle finds the problem ill-posed at its initial state."""
    q_legs = _pairs_to_legs(p.initial)
    for li, leg in enumerate(LEGS):
        q = [c[li] for c in q_legs]
        try:
            p.rhs(leg)(q)
        except (Singular, ZeroDivisionError):
            return True
    return False


def check_singular_integrate(p: Problem, code: int, stderr: str) -> list[str]:
    """A problem that is singular at its start must exit 3 naming t = t0."""
    if not singular_at_start(p):
        return ["oracle finds the start state well posed"]
    t = failure_time(stderr)
    if code != 3 or t is None:
        return [f"exit {code}, expected 3 with the failing t"]
    if t != p.t0:
        return [f"failing t={t!r}, the oracle finds the singularity at t0={p.t0!r}"]
    return []


def degenerate_audit_outcome(code: int, stderr: str) -> str:
    """'ok' for the documented outcome (exit 3 naming the degenerate
    Lagrangian), 'fault' for the known uncaught RuntimeError, else 'wrong'."""
    if code == 3 and re.search(r"^error: .*degenerate", stderr, re.M | re.I):
        return "ok"
    if code == 1 and "RuntimeError: could not sample enough well-posed states" in stderr:
        return "fault"
    return "wrong"
