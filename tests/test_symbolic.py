import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biparamech import symbolic
from biparamech.para_algebra import (
    FUNCTIONS,
    INVERTIBILITY_FLOOR,
    ONE,
    ZERO,
    DomainError,
    ParaComplex,
    ZeroDivisor,
    _pow_leg,
    apply_function,
)
from biparamech.symbolic import (
    _eval_pair,
    Apply,
    Constant,
    CoordinateChart,
    EvalState,
    ExpressionError,
    ExprSyntaxError,
    IndexOutOfRange,
    Negate,
    ONE_EXPR,
    Power,
    Product,
    Quotient,
    Sum,
    UnknownVariable,
    Var,
    ZERO_EXPR,
    differentiate,
    evaluate,
    lower,
    parse,
    simplify,
    sort_key,
    to_text,
    vars_of,
    walk,
    xi_var,
    z_var,
    zb_var,
)

C1 = CoordinateChart(1)
C2 = CoordinateChart(2)


def c(a, b=0.0):
    return Constant(ParaComplex(a, b))


def _zero_object_misses(e, chart, path=()):
    """The variable paths, (v,) or (v, w), of each first partial of e and
    of each second partial through a first partial that is not ZERO_EXPR,
    that break differentiate's invariant: the partial is the ZERO_EXPR
    object exactly when what it differentiates lacks the variable, and
    holds no ZERO_EXPR node otherwise."""
    misses = []
    held = vars_of(e)
    for slot in chart.slots():
        d = differentiate(e, Var(*slot))
        if slot not in held:
            ok = d is ZERO_EXPR
        else:
            ok = not any(n is ZERO_EXPR for n in walk(d))
            if not path:
                misses += _zero_object_misses(d, chart, (slot,))
        if not ok:
            misses.append(path + (slot,))
    return misses


def compile_expr(e):
    """evaluate() through lower()'s code, as the removed
    symbolic.compile_expr did: the state's legs in, one value out."""
    slots = tuple(sorted(vars_of(e)))
    fn = lower((e,), slots)

    def compiled(s):
        ws = [getattr(s, family)[index - 1] for family, index in slots]
        return ParaComplex.from_idempotent(*fn([leg for w in ws for leg in (w.u, w.v)]))

    return compiled


def close(x: ParaComplex, y: ParaComplex, tol=1e-12):
    scale = max(1.0, abs(x), abs(y))
    return abs((x - y).a) <= tol * scale and abs((x - y).b) <= tol * scale


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class TestParse:
    def test_potential_structure(self):
        e = parse("0.5*zb1^2 - 9.8*z1", C1)
        expected = Sum(
            (
                Product((c(0.5), Power(zb_var(1), 2))),
                Negate(Product((c(9.8), z_var(1)))),
            )
        )
        assert e == expected

    def test_bilinear_structure(self):
        assert parse("z1*zb1", C1) == Product((z_var(1), zb_var(1)))

    def test_j_literal(self):
        assert parse("j", C1) == c(0.0, 1.0)

    def test_function_call(self):
        assert parse("exp(z1)", C1) == Apply("exp", z_var(1))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-z1^2", C1) == Negate(Power(z_var(1), 2))

    def test_negative_exponent(self):
        assert parse("z1^-2", C1) == Power(z_var(1), -2)

    def test_division_left_associative(self):
        e = parse("z1/z2/zb1", C2)
        assert e == Quotient(Quotient(z_var(1), z_var(2)), zb_var(1))

    def test_subtraction_left_associative(self):
        # one flat chain, evaluated left to right
        e = parse("1 - 2 - 3", C1)
        assert e == Sum((c(1.0), Negate(c(2.0)), Negate(c(3.0))))

    def test_parentheses(self):
        e = parse("(z1 + zb1)*j", C1)
        assert e == Product((Sum((z_var(1), zb_var(1))), c(0.0, 1.0)))

    def test_whitespace_insensitive(self):
        assert parse(" z1\t*  zb1 ", C1) == parse("z1*zb1", C1)

    def test_scientific_notation(self):
        e = parse("1.5e-3*z1", C1)
        assert e == Product((c(1.5e-3), z_var(1)))

    @pytest.mark.parametrize(
        "text",
        ["z1 +", "(z1", "z1)", "z1^0", "z1^z1", "z1^1.5", "*z1", "exp z1", "exp()", ""],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ExprSyntaxError):
            parse(text, C1)

    @pytest.mark.parametrize("text", ["q1", "zc1", "foo(z1)", "xi1", "xib1", "zb"])
    def test_unknown_variables(self, text):
        with pytest.raises(UnknownVariable):
            parse(text, C1)

    @pytest.mark.parametrize("text", ["z2", "zb3", "z0"])
    def test_index_out_of_range(self, text):
        with pytest.raises(IndexOutOfRange):
            parse(text, C1)

    def test_error_reports_column(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("z1 + $", C1)
        assert exc.value.pos == 5

    def test_errors_are_value_errors(self):
        for bad in ("z1 +", "q1", "z2"):
            with pytest.raises(ValueError):
                parse(bad, C1)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


class TestToText:
    def test_potential_round_trip_text(self):
        text = "0.5*zb1^2 - 9.8*z1"
        assert to_text(parse(text, C1)) == text

    def test_bilinear(self):
        assert to_text(parse("z1*zb1", C1)) == "z1*zb1"

    @pytest.mark.parametrize(
        "value,expected",
        [
            (ParaComplex(2.0, 0.0), "2"),
            (ParaComplex(2.5, 0.0), "2.5"),
            (ParaComplex(-1.0, 0.0), "-1"),
            (ParaComplex(0.0, 1.0), "j"),
            (ParaComplex(0.0, -1.0), "-j"),
            (ParaComplex(0.0, 2.0), "2*j"),
            (ParaComplex(1.0, 2.0), "(1+2*j)"),
            (ParaComplex(1.0, -1.0), "(1-j)"),
        ],
    )
    def test_constant_formats(self, value, expected):
        assert to_text(Constant(value)) == expected

    def test_quotient_needs_parens_on_compound_denominator(self):
        e = parse("z1/(2*zb1)", C1)
        assert to_text(e) == "z1/(2*zb1)"

    def test_power_of_sum_parenthesized(self):
        e = Power(Sum((z_var(1), zb_var(1))), 2)
        assert to_text(e) == "(z1 + zb1)^2"

    def test_sign_extraction_in_sums(self):
        e = simplify(parse("z1 - 2*zb1", C1))
        assert to_text(e) == "z1 - 2*zb1"

    def test_j_coefficient_sign_extraction(self):
        e = simplify(parse("z1 - j*zb1", C1))
        assert to_text(e) == "z1 - j*zb1"

    @pytest.mark.parametrize(
        "text",
        [
            "z1*zb1",
            "0.5*zb1^2 - 9.8*z1",
            "exp(0.3*z1)*zb1",
            "z1^2*zb1 + 0.3*zb1^2",
            "sin(z1) + cos(zb1)",
            "zb1/(2 + z1^2)",
            "(z1 + zb1)^3 - j*z1",
            "1/z1^2",
            "-z1 - -zb1",
            "ln(2 + z1^2)",
        ],
    )
    def test_round_trip_structural(self, text):
        e = parse(text, C1)
        assert simplify(parse(to_text(e), C1)) == simplify(e)

    def test_a_shared_subtree_renders_as_an_unshared_copy(self):
        # one object under a sum, a product, a power, a quotient's
        # denominator, a call and a negation: each use is parenthesized for
        # its own place, and a negative-leading product keeps its sign peel
        s = parse("-2*z1 + 0.5*zb1*z2", C2)
        e = parse("exp(0.1*z1*zb1 + z2)", C2)
        m = parse("-3*z1*zb2", C2)
        tree = Sum((s, Product((s, e, zb_var(1))), Power(s, 2), Quotient(e, s), Apply("sin", s),
                    Negate(s), m, Product((m, s)), Power(e, 3), Negate(Product((e, m)))))
        copy = _unshared(tree)
        assert copy == tree
        assert len({id(x) for x in walk(copy)}) > len({id(x) for x in walk(tree)})
        assert to_text(tree) == to_text(copy)

    def test_a_conformal_row_renders_as_an_unshared_copy(self):
        # el_equation_texts' product leaves one exp(lam) object in each term
        chart = CoordinateChart(3)
        lam = parse("0.105*z1*zb1 + 0.105*z2*zb2 + 0.105*z3*zb3", chart)
        row = simplify(Product((c(0.0, 1.0), Apply("exp", lam), parse("0.38*zb1^2*z2 + z1*zb3 - j*z3^2", chart),
                                Sum((xi_var(1), xi_var(2), Negate(xi_var(3)))))))
        assert to_text(row) == to_text(_unshared(row))


def _unshared(e):
    """A structurally equal copy of e in which no two nodes are one object."""
    if isinstance(e, Constant):
        return Constant(e.value)
    if isinstance(e, Var):
        return Var(e.family, e.index)
    if isinstance(e, (Sum, Product)):
        return type(e)(tuple(_unshared(x) for x in e.children))
    if isinstance(e, Power):
        return Power(_unshared(e.base), e.exponent)
    if isinstance(e, Quotient):
        return Quotient(_unshared(e.num), _unshared(e.den))
    if isinstance(e, Apply):
        return Apply(e.fn, _unshared(e.arg))
    return Negate(_unshared(e.child))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


class TestDifferentiate:
    def test_bilinear_partials(self):
        e = parse("z1*zb1", C1)
        assert simplify(differentiate(e, z_var(1))) == zb_var(1)
        assert simplify(differentiate(e, zb_var(1))) == z_var(1)

    def test_families_are_independent(self):
        assert simplify(differentiate(zb_var(1), z_var(1))) == c(0.0)
        assert simplify(differentiate(z_var(1), z_var(2))) == c(0.0)
        assert simplify(differentiate(xi_var(1), z_var(1))) == c(0.0)

    def test_power_rule(self):
        e = simplify(differentiate(parse("z1^3", C1), z_var(1)))
        assert e == Product((c(3.0), Power(z_var(1), 2)))

    def test_chain_rule_exp(self):
        e = simplify(differentiate(parse("exp(2*z1)", C1), z_var(1)))
        assert e == Product((c(2.0), Apply("exp", Product((c(2.0), z_var(1))))))

    def test_ln(self):
        e = simplify(differentiate(parse("ln(z1)", C1), z_var(1)))
        assert e == Quotient(c(1.0), z_var(1))

    def test_sin_cos(self):
        assert simplify(differentiate(parse("sin(z1)", C1), z_var(1))) == Apply(
            "cos", z_var(1)
        )
        d_cos = simplify(differentiate(parse("cos(z1)", C1), z_var(1)))
        assert d_cos == Product((c(-1.0), Apply("sin", z_var(1))))

    def test_quotient_rule_pointwise(self):
        e = parse("z1/zb1", C1)
        de = differentiate(e, zb_var(1))
        s = EvalState(z=(ParaComplex(1.5, 0.5),), zb=(ParaComplex(2.0, 1.0),))
        zb = s.zb[0]
        expected = -s.z[0] / (zb * zb)
        assert close(evaluate(de, s), expected)

    def test_var_free_subtree_is_the_zero_object(self):
        for text in ("2*3 + 4*(5 + 6)", "z2*zb2 + 3*zb1", "j*(zb1 + z2)*zb2 + 7"):
            assert differentiate(parse(text, C2), z_var(1)) is ZERO_EXPR

    def test_a_partial_is_the_zero_object_exactly_where_its_variable_is_lacking(self):
        from biparamech.verify import random_expression

        rng = random.Random(38)
        cases = [(k, random_expression(rng, 4), C2) for k in range(3000)]
        root = Path(__file__).parent.parent
        for path in sorted([*root.glob("problems/**/*.json"), *root.glob("tests/data/*.json")]):
            doc = json.loads(path.read_text())
            chart = CoordinateChart(doc["n"])
            for key in ("function", "lambda"):
                try:
                    cases.append((f"{path.name} {key}", parse(doc[key], chart), chart))
                except ExprSyntaxError:  # exponent_overflow.json's exponent is rejected
                    assert path.name == "exponent_overflow.json"
        assert len(cases) > 3060
        misses = [(case, m) for case, e, chart in cases for m in _zero_object_misses(e, chart)]
        assert not misses, (len(misses), misses[:3])

    def test_zero_product_rule_terms_are_left_out(self):
        e = Product((c(3.0), z_var(1), zb_var(1)))
        assert differentiate(e, z_var(1)) == Sum((Product((c(3.0), ONE_EXPR, zb_var(1))),))

    def test_negated_zero_is_the_zero_object(self):
        # not Negate(ZERO_EXPR), which simplify() would make the constant -0.0
        d = differentiate(Negate(zb_var(1)), z_var(1))
        assert d is ZERO_EXPR
        assert repr(simplify(d)) == repr(c(0.0))

    def test_mixed_partials_commute_pointwise(self):
        rng = random.Random(7)
        exprs = [
            parse("z1^2*zb1 + exp(0.3*z1)*zb1", C1),
            parse("sin(z1*zb1) + zb1^3", C1),
            parse("zb1/(2 + z1^2)", C1),
        ]
        for e in exprs:
            d_zzb = differentiate(differentiate(e, z_var(1)), zb_var(1))
            d_zbz = differentiate(differentiate(e, zb_var(1)), z_var(1))
            for _ in range(10):
                s = EvalState(
                    z=(ParaComplex(rng.uniform(-1, 1), rng.uniform(-1, 1)),),
                    zb=(ParaComplex(rng.uniform(-1, 1), rng.uniform(-1, 1)),),
                )
                assert close(evaluate(d_zzb, s), evaluate(d_zbz, s))


# finite differences: perturbing the a-part of a bound value measures the
# formal derivative; perturbing the b-part measures j times it
FD_FIXTURES = [
    "z1*zb1",
    "0.5*zb1^2 - 9.8*z1",
    "exp(0.3*z1)*zb1",
    "z1^2*zb1 + 0.3*zb1^2",
    "sin(z1) + cos(zb1)",
    "zb1/(2 + z1^2)",
    "ln(2 + z1^2) + j*zb1",
]


class TestDerivativeAgainstFiniteDifferences:
    @pytest.mark.parametrize("text", FD_FIXTURES)
    def test_real_and_j_direction(self, text):
        e = parse(text, C1)
        rng = random.Random(hash(text) & 0xFFFF)
        h = 1e-5
        for _ in range(5):
            z = ParaComplex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            zb = ParaComplex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            s = EvalState(z=(z,), zb=(zb,))
            for var, bound in ((z_var(1), z), (zb_var(1), zb)):
                d = evaluate(differentiate(e, var), s)

                def at(val):
                    if var.family == "z":
                        return EvalState(z=(val,), zb=(zb,))
                    return EvalState(z=(z,), zb=(val,))

                fd_a = (
                    evaluate(e, at(ParaComplex(bound.a + h, bound.b)))
                    - evaluate(e, at(ParaComplex(bound.a - h, bound.b)))
                ) * (1.0 / (2 * h))
                fd_b = (
                    evaluate(e, at(ParaComplex(bound.a, bound.b + h)))
                    - evaluate(e, at(ParaComplex(bound.a, bound.b - h)))
                ) * (1.0 / (2 * h))
                assert close(fd_a, d, 1e-6)
                assert close(fd_b, ParaComplex(0.0, 1.0) * d, 1e-6)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_bilinear_value(self):
        s = EvalState(z=(ParaComplex(1.0, 1.0),), zb=(ParaComplex(2.0, 0.0),))
        got = evaluate(parse("z1*zb1", C1), s)
        assert got == ParaComplex(2.0, 2.0)

    def test_potential_value(self):
        s = EvalState(z=(ParaComplex(1.0, 0.0),), zb=(ParaComplex(2.0, 0.0),))
        got = evaluate(parse("0.5*zb1^2 - 9.8*z1", C1), s)
        assert close(got, ParaComplex(0.5 * 4 - 9.8, 0.0))

    def test_exp_of_j(self):
        got = evaluate(parse("exp(j)", C1), EvalState(z=(), zb=()))
        assert close(got, ParaComplex(math.cosh(1.0), math.sinh(1.0)), 1e-15)

    @pytest.mark.parametrize(
        "run", [evaluate, lambda e, s: compile_expr(e)(s)], ids=["evaluate", "compile_expr"]
    )
    def test_zero_divisor_names_innermost_subexpression(self, run):
        # z1 = e-plus scaled: u = 2, v = 0, so 1/z1 is the failing node
        s = EvalState(z=(ParaComplex(1.0, 1.0),), zb=(ParaComplex(1.0, 0.0),))
        with pytest.raises(ZeroDivisor) as exc:
            run(parse("zb1*(1/z1)", C1), s)
        assert "'1/z1'" in str(exc.value)
        assert "zb1" not in str(exc.value)

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("(z1 - z1 + zb1)/(z1 + z1)", "zero-divisor denominator in 'zb1/(2*z1)'"),
            ("(z1 + z1)^-2", "zero-divisor base in '(2*z1)^-2'"),
            # simplify fails on the overflowing numerator, which lowering
            # rejects first: the interpreter names the node as it is
            ("(1e308 + 1e308)/z1", "zero-divisor denominator in '(1e+308 + 1e+308)/z1'"),
        ],
    )
    def test_zero_divisor_names_its_operands_simplified(self, text, shown):
        s = EvalState(z=(ParaComplex(1.0, 1.0),), zb=(ParaComplex(1.0, 0.0),))
        runs = [evaluate] + [lambda e, s: compile_expr(e)(s)] * ("1e308" not in text)
        for run in runs:
            with pytest.raises(ZeroDivisor) as exc:
                run(parse(text, C1), s)
            assert str(exc.value) == shown

    @pytest.mark.parametrize(
        "run", [evaluate, lambda e, s: compile_expr(e)(s)], ids=["evaluate", "compile_expr"]
    )
    def test_domain_error_names_subexpression(self, run):
        s = EvalState(z=(ParaComplex(-1.0, 0.0),), zb=(ParaComplex(1.0, 0.0),))
        with pytest.raises(DomainError) as exc:
            run(parse("ln(z1)", C1), s)
        assert "'ln(z1)'" in str(exc.value)

    def test_negative_power_of_zero_divisor(self):
        s = EvalState(z=(ParaComplex(1.0, 1.0),), zb=(ParaComplex(1.0, 0.0),))
        with pytest.raises(ZeroDivisor):
            evaluate(parse("z1^-1", C1), s)

    def test_unbound_velocity_family(self):
        s = EvalState(z=(ParaComplex(1.0, 0.0),), zb=(ParaComplex(1.0, 0.0),))
        with pytest.raises(ExpressionError):
            evaluate(xi_var(1), s)

    def test_velocity_family_binds(self):
        s = EvalState(
            z=(ParaComplex(1.0, 0.0),),
            zb=(ParaComplex(1.0, 0.0),),
            xi=(ParaComplex(3.0, 1.0),),
            xib=(ParaComplex(0.0, 0.0),),
        )
        assert evaluate(xi_var(1), s) == ParaComplex(3.0, 1.0)


# ---------------------------------------------------------------------------
# compiled closures
# ---------------------------------------------------------------------------


def _random_state(rng):
    def val():
        return ParaComplex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))

    return EvalState(z=(val(), val()), zb=(val(), val()))


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return Constant(ParaComplex(round(rng.uniform(-3, 3), 3), 0.0))
        if k == 1:
            return Constant(ParaComplex(0.0, 1.0))
        family = z_var if k == 2 else zb_var
        return family(rng.randrange(1, 3))
    k = rng.randrange(6)
    if k == 0:
        return Sum(tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4))))
    if k == 1:
        return Product(
            tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4)))
        )
    if k == 2:
        return Power(_random_expr(rng, depth - 1), rng.choice([2, 3, 4]))
    if k == 3:
        return Negate(_random_expr(rng, depth - 1))
    if k == 4:
        # keep function arguments small so exp stays finite
        inner = Product((Constant(ParaComplex(0.3, 0.0)), _random_expr(rng, depth - 1)))
        return Apply(rng.choice(["exp", "sin", "cos"]), inner)
    # denominator bounded away from the zero-divisor cone
    den = Sum(
        (
            Constant(ParaComplex(2.5, 0.0)),
            Power(_random_expr(rng, depth - 1), 2),
        )
    )
    return Quotient(_random_expr(rng, depth - 1), den)


def _try_eval(e, s):
    try:
        v = evaluate(e, s)
    except (ZeroDivisor, DomainError, OverflowError):
        return None
    if not v.is_finite():
        return None
    return v


class TestCompile:
    def test_matches_evaluate_on_random_battery(self):
        rng = random.Random(2026)
        checked = 0
        for _ in range(120):
            e = _random_expr(rng, 3)
            f = compile_expr(e)
            for _ in range(3):
                s = _random_state(rng)
                want = _try_eval(e, s)
                if want is None:
                    continue
                assert close(f(s), want, 1e-15)
                checked += 1
        assert checked > 100

    def test_compiled_velocity_lookup(self):
        s = EvalState(
            z=(ParaComplex(1.0, 0.0),),
            zb=(ParaComplex(2.0, 0.0),),
            xi=(ParaComplex(0.5, 0.5),),
            xib=(ParaComplex(0.25, 0.0),),
        )
        e = Sum((xi_var(1), Var("xib", 1)))
        assert compile_expr(e)(s) == ParaComplex(0.75, 0.5)


# legs at the edges of the float range: subnormal, near overflow, and just
# above the invertibility floor, next to ordinary ones
_EDGE_LEGS = (5e-324, -2.5e-310, 1e300, -1.7e308, 1.5 * INVERTIBILITY_FLOOR, 0.7, -1.3)
_SLOTS2 = (("z", 1), ("z", 2), ("zb", 1), ("zb", 2))


def _outcome(f):
    try:
        return f()
    except (ZeroDivisor, DomainError, OverflowError) as exc:
        return type(exc)


def _legs_agree(got, want):
    for x, y in zip(got, want):
        if math.isnan(x) and math.isnan(y):
            continue
        if x != y and abs(x - y) > 1e-15 * max(1.0, abs(x), abs(y)):
            return False
    return True


class TestLowerAtEdgeStates:
    def test_lowered_legs_match_the_interpreter(self):
        from biparamech.verify import random_expression

        rng = random.Random(4242)
        for _ in range(60):
            e = random_expression(rng)
            # exercise the zero-divisor and domain checks as well
            for tree in (e, Quotient(e, z_var(1)), Power(e, -2), Apply("ln", e)):
                fn = lower((tree,), _SLOTS2)
                for _ in range(3):
                    y = [rng.choice(_EDGE_LEGS) for _ in range(8)]
                    s = EvalState(
                        z=(ParaComplex.from_idempotent(*y[0:2]), ParaComplex.from_idempotent(*y[2:4])),
                        zb=(ParaComplex.from_idempotent(*y[4:6]), ParaComplex.from_idempotent(*y[6:8])),
                    )
                    legs = [leg for w in s.z + s.zb for leg in (w.u, w.v)]
                    got = _outcome(lambda: fn(legs))
                    want = _outcome(lambda: list(_eval_pair(tree, s)))
                    if isinstance(want, type):
                        assert got is want, to_text(tree)
                    else:
                        assert isinstance(got, list), (to_text(tree), got)
                        assert _legs_agree(got, want), to_text(tree)


def _same_leg(got, want) -> bool:
    """repr-equal, except where lower() folds a term simplify() drops and
    the interpreter computes it: a literal zero term of a sum, or a product
    with a literal zero factor.  Then a zero may differ in sign, and 0*inf
    is nan in the interpreter only (see the test after the next)."""
    return repr(got) == repr(want) or got == want == 0.0 or math.isnan(want)


def _edge_state(rng, n):
    legs = [ParaComplex.from_idempotent(rng.choice(_EDGE_LEGS), rng.choice(_EDGE_LEGS))
            for _ in range(2 * n)]
    return EvalState(z=tuple(legs[:n]), zb=tuple(legs[n:]))


# signed zeros, subnormals and infinities, next to ordinary legs
_SIGNED_LEGS = (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, 0.7, -1.3)


def _ham_roots(H, lam):
    """D+, D- and the flow of a Hamiltonian in one coordinate."""
    from biparamech.eom import HamiltonianProblem, synthesize_ham

    ode = synthesize_ham(HamiltonianProblem(C1, parse(H, C1), parse(lam, C1)))
    return (ode.denom_plus, ode.denom_minus, *ode.rhs_z, *ode.rhs_zb)


def _el_split(L, lam):
    """The conformal split (H, grad(lam), c, b'', f) of a Lagrangian in one
    coordinate."""
    from biparamech.eom import LagrangianProblem, synthesize_el

    return synthesize_el(LagrangianProblem(C1, parse(L, C1), parse(lam, C1))).conformal


class TestLowerFolds:
    def test_unsimplified_el_legs_match_the_interpreter(self):
        # synthesize_el's trees hold literal zeros and ones, which the
        # folds take out
        from biparamech.eom import LagrangianProblem, synthesize_el
        from biparamech.verify import random_expression

        rng = random.Random(7)
        exact = 0
        for k in range(60):
            lam = ZERO_EXPR if k % 2 else random_expression(rng, depth=2)
            p = LagrangianProblem(C2, random_expression(rng, depth=2), lam)
            ode = synthesize_el(p)
            roots = tuple(e for row in ode.M for e in row) + ode.b
            fn = lower(roots, C2.slots())
            for _ in range(3):
                s = _edge_state(rng, 2)
                got = _outcome(lambda: fn([leg for w in s.z + s.zb for leg in (w.u, w.v)]))
                want = [_outcome(lambda: _eval_pair(r, s)) for r in roots]
                if any(isinstance(w, type) for w in want):
                    assert got is next(w for w in want if isinstance(w, type))
                    continue
                want = [leg for pair in want for leg in pair]
                assert all(map(_same_leg, got, want)), (to_text(p.L), got, want)
                exact += sum(x != 0.0 and math.isfinite(x) and x == y for x, y in zip(got, want))
        assert exact > 400  # 472 nonzero finite legs compare bit for bit

    def test_a_literal_zero_product_absorbs_a_non_finite_factor(self):
        # 0*exp(1000) is dropped as simplify() drops it, where the
        # interpreter computes 0*inf = nan
        big = Apply("exp", zb_var(1))
        s = EvalState(z=(ParaComplex(0.5, 0.25),), zb=(ParaComplex(1000.0, 0.0),))
        y = [0.75, 0.25, 1000.0, 1000.0]
        for tree, want in ((Product((ZERO_EXPR, big)), [0.0, 0.0]),
                           (Sum((z_var(1), Product((big, ZERO_EXPR)))), [0.75, 0.25])):
            assert all(math.isnan(leg) for leg in _eval_pair(tree, s))
            assert lower((tree,), (("z", 1), ("zb", 1)))(y) == want

    @pytest.mark.parametrize("tree", [
        Product((z_var(1), ONE_EXPR)),
        Product((ONE_EXPR, z_var(1), ONE_EXPR)),
        Sum((z_var(1), Negate(ZERO_EXPR))),
        Sum((z_var(1), ZERO_EXPR)),
        Sum((z_var(1), Product((c(0.0), z_var(1))))),
        Sum((Sum((z_var(1),)),)),
        Product((z_var(1),)),
    ], ids=to_text)
    def test_exact_folds_and_aliases_emit_no_line(self, tree):
        fn = lower((tree,), (("z", 1), ("zb", 1)))
        # only z1's two legs are bound to locals
        assert fn.__code__.co_varnames == ("y", "t0", "t1")
        assert fn([0.5, -2.0, 3.0, 4.0]) == [0.5, -2.0]

    @pytest.mark.parametrize("roots", [
        # a product after its negative twin, and j's e- leg -1.0
        pytest.param(lambda: (Product((c(0.2), z_var(1), zb_var(1))), Product((c(-0.2), z_var(1), zb_var(1))),
                              Product((c(0.0, 1.0), z_var(1)))), id="twin-products"),
        # (-c)*(-x), and j times -x
        pytest.param(lambda: (Negate(zb_var(1)), Product((c(-1.5), z_var(1), Negate(zb_var(1)))),
                              Product((c(0.0, 1.0), z_var(1), Negate(zb_var(1))))), id="negated-factor"),
        # ham_curved's D+ and D-, twins that differ in sign, and its flow
        pytest.param(lambda: _ham_roots("z1*zb1", "0.2*z1*zb1"), id="ham_curved"),
        # el_conformal: b'', whose e- leg is (-1.0)*exp(-lam)*(-dL/dz1), and
        # dL/dz1 is a sum of one term
        pytest.param(lambda: _el_split("z1*zb1", "0.1*z1")[3], id="el_conformal-b"),
    ])
    def test_sign_flips_are_the_interpreters_bit_for_bit(self, roots):
        # every leg is emitted as written, so each one is the interpreter's
        # to the bit, signed zeros and infinities included
        roots = roots()
        fn = lower(roots, (("z", 1), ("zb", 1)))
        for y in itertools.product(_SIGNED_LEGS, repeat=4):
            s = EvalState(z=(ParaComplex.from_idempotent(*y[:2]),), zb=(ParaComplex.from_idempotent(*y[2:]),))
            got = _outcome(lambda: fn(list(y)))
            want = [_outcome(lambda: _eval_pair(r, s)) for r in roots]
            if any(isinstance(w, type) for w in want):
                assert got is next(w for w in want if isinstance(w, type)), y
                continue
            want = [leg for pair in want for leg in pair]
            assert len(got) == len(want), y
            assert all(a.hex() == b.hex() for a, b in zip(got, want)), y

    def test_literal_subtrees_fold_and_passing_checks_go(self):
        tree = Quotient(Product((z_var(1), Apply("exp", c(0.5)))), Sum((c(2.0), c(0.5))))
        fn = lower((tree,), (("z", 1),))
        # z1's legs, then the product's and the quotient's
        assert fn.__code__.co_varnames == ("y", "t0", "t1", "t2", "t3", "t4", "t5")
        assert "_zero_divisor" not in fn.__code__.co_names
        assert fn([1.0, -1.0]) == list(_eval_pair(tree, EvalState(z=(ParaComplex(0.0, 1.0),), zb=())))

    def test_a_failing_literal_check_stays(self):
        fn = lower((Quotient(z_var(1), Product((c(2.0), c(0.0)))),), (("z", 1),))
        with pytest.raises(ZeroDivisor, match="zero-divisor denominator"):
            fn([1.0, 1.0])


def _ring_fold(e, s) -> ParaComplex:
    """e evaluated with ParaComplex's own ring ops, node by node."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Var):
        return getattr(s, e.family)[e.index - 1]
    if isinstance(e, Sum):
        acc = ZERO
        for child in e.children:
            acc = acc + _ring_fold(child, s)
        return acc
    if isinstance(e, Product):
        acc = ONE
        for child in e.children:
            acc = acc * _ring_fold(child, s)
        return acc
    if isinstance(e, Negate):
        return -_ring_fold(e.child, s)
    if isinstance(e, Power):
        return _ring_fold(e.base, s) ** e.exponent
    if isinstance(e, Quotient):
        return _ring_fold(e.num, s) / _ring_fold(e.den, s)
    return apply_function(e.fn, _ring_fold(e.arg, s))


class TestRingOpEvaluation:
    def test_ring_ops_give_the_interpreters_legs_exactly(self):
        # ParaComplex keeps the legs its products, quotients, powers and
        # functions compute, so folding a tree with them is the leg
        # interpreter, bit for bit
        from biparamech.verify import random_expression, random_state

        rng = random.Random(1209)
        for _ in range(400):
            e = random_expression(rng)
            s = random_state(rng, 2)
            got = _outcome(lambda: _ring_fold(e, s))
            want = _outcome(lambda: _eval_pair(e, s))
            if isinstance(want, type):
                assert got is want, to_text(e)
            else:
                assert repr((got.u, got.v)) == repr(want), to_text(e)


def _chain_eval_pair(e, state):
    """The interpreter as an isinstance chain, the reference that the
    type-dispatched _eval_pair must match bit for bit."""
    if isinstance(e, Constant):
        return e.value.u, e.value.v
    if isinstance(e, Var):
        w = symbolic._lookup(state, e.family, e.index)
        return w.u, w.v
    if isinstance(e, Sum):
        u = v = 0.0
        for c in e.children:
            cu, cv = _chain_eval_pair(c, state)
            u += cu
            v += cv
        return u, v
    if isinstance(e, Product):
        u = v = 1.0
        for c in e.children:
            cu, cv = _chain_eval_pair(c, state)
            u *= cu
            v *= cv
        return u, v
    if isinstance(e, Negate):
        u, v = _chain_eval_pair(e.child, state)
        return -u, -v
    if isinstance(e, Power):
        u, v = _chain_eval_pair(e.base, state)
        k = e.exponent
        if k < 0 and (abs(u) < INVERTIBILITY_FLOOR or abs(v) < INVERTIBILITY_FLOOR):
            symbolic._zero_divisor(e)
        return _pow_leg(u, k), _pow_leg(v, k)
    if isinstance(e, Quotient):
        nu, nv = _chain_eval_pair(e.num, state)
        du, dv = _chain_eval_pair(e.den, state)
        if abs(du) < INVERTIBILITY_FLOOR or abs(dv) < INVERTIBILITY_FLOOR:
            symbolic._zero_divisor(e)
        return nu / du, nv / dv
    if isinstance(e, Apply):
        u, v = _chain_eval_pair(e.arg, state)
        leg = FUNCTIONS[e.fn]
        try:
            return leg(u), leg(v)
        except DomainError:
            symbolic._domain_failure(e)
    raise TypeError(f"not an expression node: {e!r}")


def _pair_outcome(evaluator, e, s):
    """repr of both legs, or the exception's type and message."""
    try:
        return repr(evaluator(e, s))
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestTableDispatch:
    def _assert_same(self, e, s):
        want = _pair_outcome(_chain_eval_pair, e, s)
        assert _pair_outcome(_eval_pair, e, s) == want, to_text(e)
        return want

    def test_random_trees_match_the_isinstance_chain(self):
        from biparamech.verify import random_expression, random_state

        rng = random.Random(1414)
        failures = set()
        for _ in range(320):
            e = random_expression(rng)
            # also through the zero-divisor and domain checks
            for tree in (e, Quotient(e, z_var(1)), Power(e, -2), Apply("ln", e)):
                for s in (random_state(rng, 2), _edge_state(rng, 2)):
                    got = self._assert_same(tree, s)
                    if isinstance(got, tuple):
                        failures.add(got[0])
        assert failures == {ZeroDivisor, DomainError}

    def test_el_oracle_partials_match_the_isinstance_chain(self):
        # the first and second partials _classical_el_oracle evaluates
        from biparamech.verify import FIXTURE_LAGRANGIANS, fixture_problem, random_state

        rng = random.Random(77)
        for key, _, _ in FIXTURE_LAGRANGIANS:
            p = fixture_problem("lagrangian", key)
            slots = [Var(*slot) for slot in p.chart.slots()]
            firsts = [differentiate(p.L, x) for x in slots]
            partials = firsts + [differentiate(f, x) for f in firsts for x in slots]
            for _ in range(20):
                s = random_state(rng, p.chart.n)
                for e in partials:
                    assert isinstance(self._assert_same(e, s), str)

    def test_unbound_variables_raise_the_same_error(self):
        s = EvalState(z=(ParaComplex(1.0, 0.0),), zb=(ParaComplex(2.0, 0.0),))
        for e in (xi_var(1), z_var(2), Sum((z_var(1), zb_var(3)))):
            assert self._assert_same(e, s)[0] is ExpressionError
        assert self._assert_same(xi_var(1), object())[0] is ExpressionError

    @pytest.mark.parametrize("e", [
        1.5,
        "z1",
        Sum((z_var(1), 2.0)),
        Product((None,)),
        Negate(3),
        Power("z1", 2),
        Quotient(z_var(1), 1.0),
        Apply("exp", [z_var(1)]),
    ], ids=repr)
    def test_a_non_node_is_a_type_error(self, e):
        s = EvalState(z=(ParaComplex(1.0, 0.0),), zb=(ParaComplex(2.0, 0.0),))
        assert self._assert_same(e, s)[0] is TypeError


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


class TestSimplify:
    def test_collects_like_terms(self):
        assert simplify(parse("z1 + z1", C1)) == Product((c(2.0), z_var(1)))

    def test_drops_zero_terms(self):
        assert simplify(parse("0*z1 + zb1", C1)) == zb_var(1)

    def test_folds_function_constants(self):
        assert simplify(parse("exp(0)*z1", C1)) == z_var(1)

    def test_exact_cancellation(self):
        assert simplify(parse("z1*zb1 - z1*zb1", C1)) == c(0.0)

    def test_square_of_sum_expands(self):
        got = simplify(parse("(z1 + zb1)^2", C1))
        expected = Sum(
            (
                Product((c(2.0), z_var(1), zb_var(1))),
                Power(z_var(1), 2),
                Power(zb_var(1), 2),
            )
        )
        assert got == expected

    def test_product_order_is_canonical(self):
        assert simplify(parse("zb1*z1", C1)) == simplify(parse("z1*zb1", C1))

    def test_repeated_factors_merge(self):
        assert simplify(parse("z1*z1", C1)) == Power(z_var(1), 2)

    def test_negation_folds_into_coefficient(self):
        assert simplify(parse("-(2*z1)", C1)) == Product((c(-2.0), z_var(1)))

    def test_quotient_pull_up(self):
        got = simplify(parse("(z1/zb1)*z1", C1))
        assert got == Quotient(Power(z_var(1), 2), zb_var(1))

    def test_constant_denominator_becomes_coefficient(self):
        assert simplify(parse("z1/2", C1)) == Product((c(0.5), z_var(1)))

    def test_idempotent_on_battery(self):
        rng = random.Random(99)
        for _ in range(60):
            e = simplify(_random_expr(rng, 3))
            assert simplify(e) == e

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_preserves_evaluation(self, seed):
        rng = random.Random(seed)
        e = _random_expr(rng, 3)
        se = simplify(e)
        for _ in range(3):
            s = _random_state(rng)
            want = _try_eval(e, s)
            got = _try_eval(se, s)
            if want is None or got is None:
                continue
            assert close(got, want, 1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_preserves_values(self, seed):
        # reparsing the printed text may refold float coefficients in a
        # different association order, so the contract is numerical
        rng = random.Random(seed)
        e = _random_expr(rng, 3)
        back = parse(to_text(e), CoordinateChart(2))
        for _ in range(10):
            s = _random_state(rng)
            want = _try_eval(e, s)
            got = _try_eval(back, s)
            if want is None or got is None:
                continue
            assert close(got, want, 1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_structural_on_simplified(self, seed):
        rng = random.Random(seed)
        e = simplify(_random_expr(rng, 3))
        assert parse(to_text(e), CoordinateChart(2)) == e or simplify(
            parse(to_text(e), CoordinateChart(2))
        ) == e

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_terms_hold_quotients_only_alone(self, seed):
        # a simplified term holds a quotient only as itself, with
        # coefficient 1: no Product child and no Power base is a Quotient,
        # even when the input puts quotients in every such position
        from biparamech.verify import random_expression

        rng = random.Random(seed)

        def quotient():
            return Quotient(random_expression(rng, 2), random_expression(rng, 2))

        e = random_expression(rng)
        inputs = [
            e,
            differentiate(e, z_var(1)),
            differentiate(e, zb_var(2)),
            quotient(),
            Product((quotient(), quotient(), random_expression(rng, 1))),
            Product((c(2.5, -0.5), quotient())),
            Power(quotient(), -rng.randrange(1, 4)),
            Power(quotient(), rng.randrange(2, 4)),
            Negate(quotient()),
            Sum((quotient(), Product((c(-3.0), quotient())), random_expression(rng, 2))),
        ]
        for x in inputs:
            for node in symbolic.walk(simplify(x)):
                if isinstance(node, Product):
                    assert not any(isinstance(f, Quotient) for f in node.children), to_text(x)
                elif isinstance(node, Power):
                    assert not isinstance(node.base, Quotient), to_text(x)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _recursive_sort_key(e):
    if isinstance(e, Constant):
        return (0, (e.value.a, e.value.b))
    if isinstance(e, Var):
        return (1, ({"z": 0, "zb": 1, "xi": 2, "xib": 3}[e.family], e.index))
    if isinstance(e, Apply):
        return (2, (e.fn, _recursive_sort_key(e.arg)))
    if isinstance(e, Power):
        return (3, (_recursive_sort_key(e.base), e.exponent))
    if isinstance(e, Quotient):
        return (4, (_recursive_sort_key(e.num), _recursive_sort_key(e.den)))
    if isinstance(e, Sum):
        return (5, tuple(_recursive_sort_key(c) for c in e.children))
    if isinstance(e, Product):
        return (6, tuple(_recursive_sort_key(c) for c in e.children))
    return (7, (_recursive_sort_key(e.child),))


class TestHelpers:
    def test_cached_sort_key_matches_recursive_key(self):
        rng = random.Random(11)
        for _ in range(200):
            e = _random_expr(rng, 4)
            nodes = list(walk(e))
            rng.shuffle(nodes)  # parents cached before and after their children
            for node in nodes + list(walk(simplify(e))):
                assert sort_key(node) == _recursive_sort_key(node)
                assert sort_key(node) is sort_key(node)

    def test_vars_of(self):
        e = parse("z1*zb2 + exp(z2)", C2)
        assert vars_of(e) == frozenset({("z", 1), ("zb", 2), ("z", 2)})
