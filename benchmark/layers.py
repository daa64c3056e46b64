"""Per-layer spans recorded from outside the program.

`install()` replaces public functions of biparamech's modules, at the names
their calling modules look them up by (for example `cli.integrate`, or
`eom.differentiate` rather than `symbolic.differentiate`, whose own
recursion stays untimed), with wrappers that count calls and time them.
A span's self time is its duration minus the time of the spans it
encloses.  Nothing under src/ is edited.  A name a later version no longer
has is skipped and listed in `Tracer.missing`, so a metric that reads 0
because its function moved is not taken for one that fell to 0.

Only traced rounds install these wrappers; end-to-end figures come from
rounds without them.
"""

from __future__ import annotations

import functools
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # per open span: time covered by its child spans
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.odes = {}  # id -> synthesized system, for node counts
        self.in_audit_battery = False
        self.rhs_calls_in_integrate = 0
        self.missing = []  # "module.name" of every function install() did not find

    def reset(self):
        # cleared in place: the installed wrappers hold these containers
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.odes.clear()
        self.in_audit_battery = False
        self.rhs_calls_in_integrate = 0

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, after=None):
        """fn timed as span `name`; after(result, args) runs untimed."""
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if after is not None:
                after(result, args)
            return result

        return spanned

    def snapshot(self):
        """Totals since the last reset, with node counts of every system
        synthesized (counted here, outside every span)."""
        from biparamech.symbolic import walk

        counts = dict(self.counts)
        nodes = distinct = 0
        for ode in self.odes.values():
            roots = _ode_roots(ode)
            seen = set()
            for root in roots:
                for node in walk(root):
                    nodes += 1
                    seen.add(node)
            distinct += len(seen)
        counts["eom.nodes"] = nodes
        counts["eom.distinct_nodes"] = distinct
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": counts}


def _ode_roots(ode):
    if hasattr(ode, "M"):
        return [e for row in ode.M for e in row] + list(ode.b)
    return list(ode.rhs_z) + list(ode.rhs_zb) + [ode.denom_plus, ode.denom_minus]


def install(tracer: Tracer):
    """Wrap biparamech's layer entry points; return the tracer."""
    from biparamech import cli, dynamics, eom, para_algebra, verify

    t = tracer

    def _patch(module, attr, make):
        fn = getattr(module, attr, None)
        if fn is None:
            t.missing.append(f"{module.__name__}.{attr}")
        else:
            setattr(module, attr, make(fn))

    def span(name, after=None):
        return lambda fn: t.wrap(name, fn, after)

    for mod in (cli, verify):
        _patch(mod, "parse", span("symbolic.parse"))
    _patch(cli, "load_problem", span("cli.load_problem"))
    for mod in (eom, dynamics, verify):
        _patch(mod, "differentiate", span("symbolic.differentiate"))
        _patch(mod, "simplify", span("symbolic.simplify"))
    for mod in (dynamics, verify):
        _patch(mod, "compile_expr", span("symbolic.compile_expr"))
    for mod in (eom, verify):
        _patch(mod, "evaluate", span("symbolic.evaluate"))

    def keep_ode(ode, args):
        t.odes[id(ode)] = ode

    for mod in (cli, dynamics, verify, eom):
        _patch(mod, "synthesize_el", span("eom.synthesize", keep_ode))
    for mod in (cli, verify, eom):
        _patch(mod, "synthesize_ham", span("eom.synthesize", keep_ode))
    for attr in ("audit_lagrange", "audit_hamilton"):
        _patch(verify, attr, span("eom.audit"))

    def traced_rhs(make):
        def maker(*args, **kwargs):
            rhs = t.wrap("dynamics.rhs", make(*args, **kwargs))

            def counted(s):
                t.rhs_calls_in_integrate += 1
                return rhs(s)

            return counted

        return maker

    for mod in (cli, dynamics):
        _patch(mod, "make_el_rhs", traced_rhs)
        _patch(mod, "make_ham_rhs", traced_rhs)

    def traced_integrate(fn):
        inner = t.wrap("dynamics.integrate", fn)

        def integrate(rhs, s0, cfg):
            before = t.rhs_calls_in_integrate
            tr = inner(rhs, s0, cfg)
            steps = len(tr.samples) - 1
            t.count("dynamics.steps", steps)
            if cfg.method == "rkf45":
                # every attempted RKF45 step evaluates the right-hand side
                # six times, accepted or not
                t.count("rkf45.accepted", steps)
                t.count("rkf45.attempts", (t.rhs_calls_in_integrate - before) / 6.0)
            return tr

        return integrate

    for mod in (cli, dynamics):
        _patch(mod, "integrate", traced_integrate)
    _patch(dynamics, "solve_para_linear", span("dynamics.solve"))
    for mod in (cli, verify):
        _patch(mod, "energy_along", span("dynamics.energy_along"))
    _patch(cli, "residual_series", span("dynamics.residual_series"))
    _patch(cli, "cmd_integrate", span("cli.integrate"))
    _patch(cli, "run_all", span("verify.run_all"))
    _patch(verify, "check_fd", span("verify.check_fd"))
    _patch(verify, "check_reduction", span("verify.check_reduction"))

    def traced_battery(fn):
        inner = t.wrap("verify.audit_battery", fn)

        def audit_battery(p, samples, *args, **kwargs):
            t.in_audit_battery = True
            try:
                report = inner(p, samples, *args, **kwargs)
            finally:
                t.in_audit_battery = False
            t.count("audit.states_used", samples)
            return report

        return audit_battery

    _patch(cli, "audit_battery", traced_battery)

    def counted_states(fn):
        def random_state(*args, **kwargs):
            if t.in_audit_battery:
                t.count("audit.states_drawn")
            return fn(*args, **kwargs)

        return random_state

    _patch(verify, "random_state", counted_states)

    def counted_init(init):
        counts = t.counts

        def __init__(self, *args, **kwargs):
            counts["para_algebra.created"] = counts.get("para_algebra.created", 0) + 1
            init(self, *args, **kwargs)

        return __init__

    cls = getattr(para_algebra, "ParaComplex", None)
    if cls is None:
        t.missing.append("biparamech.para_algebra.ParaComplex")
    else:
        _patch(cls, "__init__", counted_init)
    return t
