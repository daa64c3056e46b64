"""The hand-written value types behave as the frozen dataclasses they replace.

The textbook is a verbatim copy of each former dataclass, kept here, but
for ImplicitODE's conformal, a field its constructor no longer takes.  For
seeded and edge instances built both ways, repr and hash must be equal, ==
and != must agree, assignment and deletion must fail, keyword construction
and defaults must match and each validation error must carry the same
message.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import pytest

from biparamech import dynamics, eom, para_algebra, symbolic, verify
from biparamech.eom import _check_chart_vars
from biparamech.para_algebra import ONE, Basis, ParaComplex
from biparamech.symbolic import _FAMILIES, ZERO_EXPR

# ---------------------------------------------------------------------------
# the former dataclasses, verbatim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameVector:
    """A coefficient times one frame symbol with a coordinate index (1-based)."""

    kind: Basis
    index: int
    coefficient: ParaComplex = ONE

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("frame index is 1-based")


@dataclass(frozen=True)
class CoordinateChart:
    """n para-complex coordinates z1..zn with formal partners zb1..zbn."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("chart needs a positive integer coordinate count")


class Expr:
    """Base node."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    value: ParaComplex


@dataclass(frozen=True)
class Var(Expr):
    family: str
    index: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown variable family {self.family!r}")
        if self.index < 1:
            raise ValueError("variable index is 1-based")


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple


@dataclass(frozen=True)
class Product(Expr):
    children: tuple


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Quotient(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Apply(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Negate(Expr):
    child: Expr


@dataclass(frozen=True)
class EvalState:
    """Values bound to the chart variables; xi families optional."""

    z: tuple
    zb: tuple
    xi: tuple | None = None
    xib: tuple | None = None


@dataclass(frozen=True)
class LagrangianProblem:
    chart: CoordinateChart
    L: Expr
    lam: Expr = ZERO_EXPR

    def __post_init__(self) -> None:
        _check_chart_vars(self.L, self.chart, "the Lagrangian")
        _check_chart_vars(self.lam, self.chart, "the conformal factor")


@dataclass(frozen=True)
class HamiltonianProblem:
    chart: CoordinateChart
    H: Expr
    lam: Expr = ZERO_EXPR

    def __post_init__(self) -> None:
        _check_chart_vars(self.H, self.chart, "the Hamiltonian")
        _check_chart_vars(self.lam, self.chart, "the conformal factor")


@dataclass(frozen=True)
class ImplicitODE:
    """M*(xi1..xin, xib1..xibn) = b with coefficient entries free of xi."""

    chart: CoordinateChart
    M: tuple
    b: tuple
    # only synthesize_el records a split: a field, but no constructor argument
    conformal: tuple | None = field(default=None, init=False)


@dataclass(frozen=True)
class ExplicitODE:
    chart: CoordinateChart
    rhs_z: tuple
    rhs_zb: tuple
    # denominators kept separately so integrators can name the singular one
    denom_plus: Expr
    denom_minus: Expr


@dataclass(frozen=True)
class PhaseState:
    """A point on an integral curve: time plus both coordinate families."""

    t: float
    z: tuple
    zb: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "zb", tuple(self.zb))
        if len(self.z) != len(self.zb):
            raise ValueError("z and zb must have equal length")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str
    t0: float
    t1: float
    dt: float | None = None
    tol: float | None = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if not math.isfinite(self.t1 - self.t0):
            raise ValueError("t1 - t0 must be finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.method == "rk4":
            if self.dt is None or not self.dt > 0:
                raise ValueError("rk4 requires dt > 0")
        else:
            if self.tol is None or not self.tol > 0:
                raise ValueError("rkf45 requires tol > 0")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float


@dataclass
class Report:
    checks: list

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)


OLD = {c.__name__: c for c in (
    FrameVector, CoordinateChart, Constant, Var, Sum, Product, Power, Quotient, Apply,
    Negate, EvalState, LagrangianProblem, HamiltonianProblem, ImplicitODE, ExplicitODE,
    PhaseState, IntegratorConfig, CheckResult, Report,
)}
NEW = {name: getattr(module, name) for module, names in (
    (para_algebra, ("FrameVector",)),
    (symbolic, ("CoordinateChart", "Constant", "Var", "Sum", "Product", "Power", "Quotient",
                "Apply", "Negate", "EvalState")),
    (eom, ("LagrangianProblem", "HamiltonianProblem", "ImplicitODE", "ExplicitODE")),
    (dynamics, ("PhaseState", "IntegratorConfig")),
    (verify, ("CheckResult", "Report")),
) for name in names}
FROZEN = sorted(set(OLD) - {"Report"})


def test_the_two_sets_name_the_same_nineteen_types():
    assert sorted(OLD) == sorted(NEW)
    assert len(NEW) == 19


# ---------------------------------------------------------------------------
# seeded twins: the same draws build one instance of each kind
# ---------------------------------------------------------------------------

NAN = ParaComplex(math.nan, 0.0)
# another NaN object: ParaComplex compares its legs as a tuple, identity first
OTHER_NAN = ParaComplex(float("nan"), 0.0)
_VALUES = (
    ParaComplex(0.0, 0.0), ParaComplex(-0.0, 0.0), ParaComplex(1.5, -2.0), NAN,
    ParaComplex(math.inf, 1.0),
)


def random_expr(ns, rng, depth=3):
    """A random tree of ns's node classes; equal seeds give twin trees."""
    kind = rng.randrange(8 if depth > 0 else 2)
    if kind == 0:
        return ns["Constant"](rng.choice(_VALUES))
    if kind == 1:
        return ns["Var"](rng.choice(_FAMILIES), rng.randint(1, 3))
    if kind in (2, 3):
        node = ns["Sum"] if kind == 2 else ns["Product"]
        return node(tuple(random_expr(ns, rng, depth - 1) for _ in range(rng.randint(0, 3))))
    if kind == 4:
        return ns["Power"](random_expr(ns, rng, depth - 1), rng.randint(-2, 3))
    if kind == 5:
        return ns["Quotient"](random_expr(ns, rng, depth - 1), random_expr(ns, rng, depth - 1))
    if kind == 6:
        fn = rng.choice(("exp", "ln", "sin", "cos"))
        return ns["Apply"](fn, random_expr(ns, rng, depth - 1))
    return ns["Negate"](random_expr(ns, rng, depth - 1))


# shared field values for the containers: their own behaviour is under test
_CHART = symbolic.CoordinateChart(2)
_L = symbolic.parse("z1*zb1 + z2^2", _CHART)
_LAM = symbolic.parse("z1 - zb2", _CHART)


def random_instances(ns, rng):
    """One instance of every kind of value, drawn from rng."""
    pick = rng.choice
    z = tuple(pick(_VALUES) for _ in range(rng.randint(1, 2)))
    out = [random_expr(ns, rng) for _ in range(4)]
    out += [
        ns["FrameVector"](pick(list(Basis)), rng.randint(1, 3), pick(_VALUES)),
        ns["FrameVector"](pick(list(Basis)), rng.randint(1, 3)),
        ns["CoordinateChart"](rng.randint(1, 3)),
        ns["EvalState"](z, z[::-1], *[pick((None, z)) for _ in range(rng.randint(0, 2))]),
        ns["LagrangianProblem"](_CHART, pick((_L, _LAM)), *pick(((), (_LAM,)))),
        ns["HamiltonianProblem"](_CHART, pick((_L, _LAM)), *pick(((), (_L,)))),
        ns["ImplicitODE"](_CHART, ((pick((_L, _LAM)),),), (pick((_L, _LAM)),)),
        ns["ExplicitODE"](_CHART, (_L,), (pick((_L, _LAM)),), pick((_L, _LAM)), _LAM),
        ns["PhaseState"](pick((0.0, -1.5, math.nan)), list(z), z),
        ns["IntegratorConfig"]("rk4", 0.0, pick((1.0, 2.0)), dt=pick((0.1, 0.01))),
        ns["IntegratorConfig"]("rkf45", -1.0, 1.0, tol=1e-9, max_steps=rng.randint(1, 9)),
        ns["CheckResult"](
            pick(("fd", "reduction")), pick((True, False)), pick((0.0, math.nan)), 1e-8
        ),
        ns["Report"]([ns["CheckResult"]("c", True, 0.0, 1.0)] * rng.randint(0, 2)),
    ]
    return out


def twins(seeds=range(12)):
    old, new = [], []
    for seed in seeds:
        old += random_instances(OLD, random.Random(seed))
        new += random_instances(NEW, random.Random(seed))
    return old, new


def edge_twins():
    """Pairs the random draws may miss: one NaN value shared and unshared,
    equal fields under different classes, empty children."""
    pairs = []
    for ns in (OLD, NEW):
        c = ns["Constant"](NAN)
        v = ns["Var"]("z", 1)
        pairs.append([
            c, ns["Constant"](NAN), ns["Constant"](OTHER_NAN),
            ns["Sum"]((c, v)), ns["Product"]((c, v)), ns["Sum"](()), ns["Product"](()),
            ns["Negate"](c), ns["Apply"]("exp", c), ns["Power"](v, 1), ns["Power"](v, True),
            ns["Quotient"](v, v), ns["Quotient"](c, c),
            ns["EvalState"]((), ()), ns["EvalState"](z=(), zb=(), xi=None, xib=()),
            ns["PhaseState"](0.0, (), ()), ns["PhaseState"](0.0, [], []),
        ])
    return pairs


def test_repr_is_the_dataclass_repr():
    old, new = twins()
    for o, n in zip(old, new):
        assert repr(n) == repr(o)
    for o, n in zip(*edge_twins()):
        assert repr(n) == repr(o)


def test_hash_is_the_dataclass_hash():
    old, new = twins()
    for o, n in zip(old, new):
        if type(o).__name__ == "Report":
            continue
        assert hash(n) == hash(o), repr(o)
    for o, n in zip(*edge_twins()):
        assert hash(n) == hash(o), repr(o)


def test_report_is_unhashable():
    for ns in (OLD, NEW):
        with pytest.raises(TypeError):
            hash(ns["Report"]([]))


@pytest.mark.parametrize("source", ["seeded", "edge"])
def test_equality_agrees_both_ways(source):
    if source == "seeded":
        # two draws from equal seeds: equal but distinct instances
        old, new = twins(list(range(8)) * 2)
    else:
        old, new = edge_twins()
    for oa, na in zip(old, new):
        for ob, nb in zip(old, new):
            assert (na == nb) == (oa == ob), (oa, ob)
            assert (na != nb) == (oa != ob), (oa, ob)
        # against values of other types
        assert (na == 1) is (oa == 1) is False
        assert (na != None) is (oa != None) is True  # noqa: E711
    assert sum(o == p for o in old for p in old) > len(old)


def test_nan_constant_equals_itself_and_sum_is_not_product():
    for ns in (OLD, NEW):
        c = ns["Constant"](NAN)
        assert c == c and not c != c
        assert ns["Constant"](NAN) == ns["Constant"](NAN)
        assert ns["Constant"](OTHER_NAN) != ns["Constant"](NAN)
        assert ns["Sum"]((c,)) != ns["Product"]((c,))
        assert not ns["Sum"]((c,)) == ns["Product"]((c,))
        assert {ns["Sum"]((c,)), ns["Product"]((c,)), ns["Sum"]((c,))} == {
            ns["Sum"]((c,)), ns["Product"]((c,))
        }


@pytest.mark.parametrize("name", FROZEN)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    instances = [x for x in twins()[1] + edge_twins()[1] if type(x).__name__ == name]
    assert instances
    for x in instances:
        for field in type(x).__match_args__:
            with pytest.raises(AttributeError):
                setattr(x, field, 0)
            with pytest.raises(AttributeError):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.other = 0


def test_match_args_name_the_fields_in_order():
    for name, cls in NEW.items():
        assert cls.__match_args__ == OLD[name].__match_args__, name


def test_report_stays_mutable_and_extends():
    for ns in (OLD, NEW):
        a = ns["Report"]([ns["CheckResult"]("a", True, 0.0, 1.0)])
        b = ns["Report"]([ns["CheckResult"]("b", False, 2.0, 1.0)])
        a.extend(b)
        assert [c.name for c in a.checks] == ["a", "b"]
        assert a != b and a == ns["Report"](list(a.checks))
        a.checks = []
        assert a == ns["Report"](checks=[])
    r = NEW["Report"]([])
    r.extend(verify.Report([verify.CheckResult("x", True, 0.0, 0.0)]))
    assert r.all_pass and r.render() == "CHECK x PASS measured=0.0 threshold=0.0"


def test_phase_state_turns_lists_into_tuples():
    for ns in (OLD, NEW):
        s = ns["PhaseState"](t=0.5, z=[ONE], zb=iter([ONE]))
        assert s.z == (ONE,) and type(s.z) is tuple
        assert s.zb == (ONE,) and type(s.zb) is tuple


KEYWORD_CASES = [
    ("FrameVector", (), {"kind": Basis.D_Z, "index": 2}),
    ("FrameVector", (Basis.DZB,), {"index": 1, "coefficient": ParaComplex(2.0, 1.0)}),
    ("CoordinateChart", (), {"n": 3}),
    ("Var", (), {"family": "xib", "index": 4}),
    ("Power", (), {"base": ZERO_EXPR, "exponent": 2}),
    ("Apply", (), {"fn": "sin", "arg": ZERO_EXPR}),
    ("EvalState", ((ONE,),), {"zb": (ONE,)}),
    ("EvalState", (), {"z": (), "zb": (), "xib": ()}),
    ("LagrangianProblem", (), {"chart": _CHART, "L": _L}),
    ("HamiltonianProblem", (_CHART,), {"H": _L, "lam": _LAM}),
    ("ImplicitODE", (), {"chart": _CHART, "M": (), "b": ()}),
    ("ExplicitODE", (_CHART, (), ()), {"denom_minus": _L, "denom_plus": _LAM}),
    ("PhaseState", (), {"t": 1.0, "z": [], "zb": ()}),
    ("IntegratorConfig", (), {"method": "rk4", "t0": 0.0, "t1": 1.0, "dt": 0.5}),
    ("IntegratorConfig", ("rkf45", 0.0, 1.0), {"tol": 1e-6, "max_steps": 7}),
    ("CheckResult", ("fd",), {"threshold": 1.0, "measured": 0.5, "passed": True}),
    ("Report", (), {"checks": []}),
]


@pytest.mark.parametrize("name,args,kwargs", KEYWORD_CASES)
def test_keyword_construction_and_defaults(name, args, kwargs):
    assert repr(NEW[name](*args, **kwargs)) == repr(OLD[name](*args, **kwargs))


@pytest.mark.parametrize("name,args,kwargs", [
    ("FrameVector", (Basis.D_Z,), {}),
    ("FrameVector", (Basis.D_Z, 1), {"coeff": ONE}),
    ("Var", ("z", 1, 2), {}),
    ("EvalState", ((),), {}),
    ("IntegratorConfig", ("rk4", 0.0), {"t1": 1.0, "step": 0.1}),
    ("CheckResult", ("fd", True, 0.0), {}),
    ("ImplicitODE", (_CHART, (), (), None), {}),
    ("ImplicitODE", (_CHART, (), ()), {"conformal": None}),
])
def test_bad_calls_raise_type_error_in_both(name, args, kwargs):
    with pytest.raises(TypeError) as old:
        OLD[name](*args, **kwargs)
    with pytest.raises(TypeError) as new:
        NEW[name](*args, **kwargs)
    assert str(new.value) == str(old.value)


_X1 = symbolic.xi_var(1)
_Z3 = symbolic.z_var(3)

INVALID_CASES = [
    ("FrameVector", (Basis.D_X, 0)),
    ("FrameVector", (Basis.DZ, -3, ONE)),
    ("CoordinateChart", (0,)),
    ("CoordinateChart", (1.0,)),
    ("CoordinateChart", ("2",)),
    ("Var", ("w", 1)),
    ("Var", ("z", 0)),
    ("Var", ("w", 0)),
    ("LagrangianProblem", (_CHART, _X1)),
    ("LagrangianProblem", (_CHART, _Z3)),
    ("LagrangianProblem", (_CHART, _L, _X1)),
    ("LagrangianProblem", (_CHART, _Z3, _X1)),
    ("HamiltonianProblem", (_CHART, _Z3)),
    ("HamiltonianProblem", (_CHART, _L, _Z3)),
    ("PhaseState", (0.0, (ONE,), ())),
    ("PhaseState", (0.0, [], [ONE, ONE])),
    ("IntegratorConfig", ("euler", 0.0, 1.0)),
    ("IntegratorConfig", ("rk4", 1.0, 1.0, 0.1)),
    ("IntegratorConfig", ("rk4", 0.0, math.nan, 0.1)),
    ("IntegratorConfig", ("rk4", -1e308, 1e308, 0.1)),
    ("IntegratorConfig", ("rk4", 0.0, 1.0, 0.1, None, 0)),
    ("IntegratorConfig", ("rk4", 0.0, 1.0)),
    ("IntegratorConfig", ("rk4", 0.0, 1.0, -0.1)),
    ("IntegratorConfig", ("rk4", 0.0, 1.0, math.nan)),
    ("IntegratorConfig", ("rkf45", 0.0, 1.0, 0.1)),
    ("IntegratorConfig", ("rkf45", 0.0, 1.0, None, 0.0)),
    ("IntegratorConfig", ("euler", 1.0, 0.0, None, None, 0)),
]


@pytest.mark.parametrize("name,args", INVALID_CASES)
def test_validation_errors_carry_the_same_message(name, args):
    with pytest.raises(ValueError) as old:
        OLD[name](*args)
    with pytest.raises(ValueError) as new:
        NEW[name](*args)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)
