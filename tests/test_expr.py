"""Expression kernel: constructors, calculus, parse/render, evaluation."""

import gc
import math
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv.errors import (
    ParseError,
    SingularEvaluation,
    UnboundSymbol,
    UnknownIdentifier,
    UnsupportedOperation,
)
from lieinv.jet import JetSpace

from helpers import eval_numeric

SP = JetSpace(("x", "y"), "u", params=("h",))
X = ex.Sym(SP.base("x"))
Y = ex.Sym(SP.base("y"))
U = ex.Sym(SP.jet())
UX = ex.Sym(SP.jet("x"))


def s(name):
    return ex.Sym(SP.resolve(name))


class TestCanonicalization:
    def test_add_collects_terms(self):
        e = ex.add(X, X, ex.mul(ex.Const(2), X))
        assert e == ex.mul(ex.Const(4), X)

    def test_add_cancels_to_zero(self):
        assert ex.add(X, ex.mul(ex.Const(-1), X)) == ex.ZERO

    def test_mul_collects_powers(self):
        assert ex.mul(X, X) == ex.pow_(X, 2)
        assert ex.mul(X, ex.pow_(X, -1)) == ex.ONE

    def test_mul_zero_annihilates(self):
        assert ex.mul(ex.ZERO, X, Y) == ex.ZERO

    def test_pow_folds_constants(self):
        assert ex.pow_(ex.Const(2), 3) == ex.Const(8)
        assert ex.pow_(ex.Const(Fraction(1, 4)), Fraction(-1)) == ex.Const(4)

    def test_nested_pow(self):
        assert ex.pow_(ex.pow_(X, 2), 3) == ex.pow_(X, 6)

    def test_commutativity_is_canonical(self):
        assert ex.add(X, Y) == ex.add(Y, X)
        assert ex.mul(X, Y) == ex.mul(Y, X)

    def test_pythagorean_merge(self):
        e = ex.add(ex.pow_(ex.func("sin", X), 2), ex.pow_(ex.func("cos", X), 2))
        assert e == ex.ONE

    def test_pythagorean_merge_with_common_factor(self):
        f = ex.mul(ex.Const(3), Y)
        e = ex.add(ex.mul(f, ex.pow_(ex.func("sin", X), 2)),
                   ex.mul(f, ex.pow_(ex.func("cos", X), 2)))
        assert e == f

    def test_tan_rewrites_to_sin_cos(self):
        e = ex.func("tan", X)
        assert e == ex.mul(ex.func("sin", X), ex.pow_(ex.func("cos", X), -1))

    def test_trig_parity(self):
        mx = ex.mul(ex.Const(-1), X)
        assert ex.func("cos", mx) == ex.func("cos", X)
        assert ex.func("sin", mx) == ex.mul(ex.Const(-1), ex.func("sin", X))

    def test_exp_merge(self):
        e = ex.mul(ex.func("exp", U), ex.func("exp", U))
        assert e == ex.pow_(ex.func("exp", U), 2)

    def test_special_values(self):
        assert ex.func("exp", ex.ZERO) == ex.ONE
        assert ex.func("log", ex.ONE) == ex.ZERO
        assert ex.func("sin", ex.ZERO) == ex.ZERO
        assert ex.func("cos", ex.ZERO) == ex.ONE


def _fraction_const(v):
    """A Const whose value is kept as a Fraction, as built before ints."""
    c = ex.Const(0)
    c.value = Fraction(v)
    return c


class TestExactNormalization:
    def test_integral_const_is_int(self):
        two = ex.Const(Fraction(6, 3)).value
        assert two == 2 and type(two) is int
        assert type(ex.Const(Fraction(1, 2)).value) is Fraction

    def test_negative_power_of_const_stays_exact(self):
        half = ex.pow_(ex.Const(2), -1)
        assert half == ex.Const(Fraction(1, 2))
        assert type(half.value) is Fraction
        e = ex.mul(ex.Const(2), ex.pow_(ex.Const(3), -2))
        assert e == ex.Const(Fraction(2, 9))
        assert type(e.value) is Fraction

    def test_integral_exponent_is_int(self):
        e = ex.pow_(X, Fraction(4, 2))
        assert e.exp == 2 and type(e.exp) is int
        assert type(ex.pow_(X, Fraction(1, 2)).exp) is Fraction

    def test_keys_and_render_match_fraction_built(self):
        pairs = [
            (ex.Const(3), _fraction_const(3)),
            (ex.Const(-5), _fraction_const(-5)),
            (ex.pow_(X, 2), ex.Pow(X, Fraction(2))),
            (ex.pow_(Y, -3), ex.Pow(Y, Fraction(-3))),
            (ex.mul(ex.Const(3), X), ex.Mul((_fraction_const(3), X))),
            (ex.mul(ex.Const(-2), ex.pow_(X, -1)),
             ex.Mul((_fraction_const(-2), ex.Pow(X, Fraction(-1))))),
        ]
        for new, old in pairs:
            assert new.sort_key() == old.sort_key()
            assert hash(new) == hash(old) and new == old
            assert ex.render(new) == ex.render(old)
            assert ex._codegen(new, False) == ex._codegen(old, False)
            assert ex._codegen(new, True) == ex._codegen(old, True)


class TestDiff:
    def test_polynomial(self):
        e = ex.add(ex.pow_(X, 3), ex.mul(ex.Const(2), X))
        d = ex.diff(e, SP.base("x"))
        assert d == ex.add(ex.mul(ex.Const(3), ex.pow_(X, 2)), ex.Const(2))

    def test_product_rule(self):
        e = ex.mul(X, ex.func("sin", X))
        d = ex.diff(e, SP.base("x"))
        want = ex.add(ex.func("sin", X), ex.mul(X, ex.func("cos", X)))
        assert d == want

    def test_chain_rule_exp(self):
        e = ex.func("exp", ex.pow_(X, 2))
        d = ex.diff(e, SP.base("x"))
        assert d == ex.mul(ex.Const(2), X, e)

    def test_log(self):
        d = ex.diff(ex.func("log", X), SP.base("x"))
        assert d == ex.pow_(X, -1)

    def test_other_symbol_is_zero(self):
        assert ex.diff(ex.pow_(X, 5), SP.base("y")) == ex.ZERO

    def test_applied_head_raises(self):
        e = ex.applied("b", [UX])
        with pytest.raises(UnsupportedOperation):
            ex.diff(e, SP.jet("x"))


class TestSubstituteExpand:
    def test_simultaneous(self):
        e = ex.add(X, Y)
        out = ex.substitute(e, {SP.base("x"): Y, SP.base("y"): X})
        assert out == e

    def test_substitute_inside_func(self):
        e = ex.func("sin", X)
        out = ex.substitute(e, {SP.base("x"): ex.mul(ex.Const(2), Y)})
        assert out == ex.func("sin", ex.mul(ex.Const(2), Y))

    def test_expand_square(self):
        e = ex.expand(ex.pow_(ex.add(X, Y), 2))
        want = ex.add(ex.pow_(X, 2), ex.mul(ex.Const(2), X, Y), ex.pow_(Y, 2))
        assert e == want

    def test_expand_distributes(self):
        e = ex.expand(ex.mul(X, ex.add(Y, ex.ONE)))
        assert e == ex.add(ex.mul(X, Y), X)

    def test_substitute_heads(self):
        t = ex.add(ex.applied("b", [UX]), U)
        out = ex.substitute_heads(t, {"b": lambda a: ex.pow_(a, 2)})
        assert out == ex.add(ex.pow_(UX, 2), U)

    def test_substitute_heads_passes_the_slot_arguments(self):
        # the slot's own argument nodes reach the callable, not rebuilt ones
        arg = ex.mul(X, ex.func("sin", UX))
        rest = ex.mul(ex.pow_(ex.add(X, Y), 2), ex.func("exp", U))
        t = ex.add(ex.mul(ex.applied("a1", [arg]), UX), rest)
        (slot,) = ex.applications(t)
        got = []
        out = ex.substitute_heads(t, {"a1": lambda a: got.append(a) or Y})
        assert len(got) == 1 and got[0] is slot.args[0]
        assert out == ex.add(ex.mul(Y, UX), rest)

    def test_applied_heads(self):
        t = ex.add(ex.applied("b", [UX]), ex.applied("a1", [U]))
        assert {a.head for a in ex.applications(t)} == {"b", "a1"}

    @staticmethod
    def _repeated(y):
        """(x+y)^2*sin((x+y)^2) + (x+y)^2: x + y and its square occur 3 times."""
        s = ex.pow_(ex.add(X, y), 2)
        return ex.add(ex.mul(s, ex.func("sin", s)), s)

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        fn = getattr(ex, name)

        def counting(*args):
            calls.append(args)
            return fn(*args)
        monkeypatch.setattr(ex, name, counting)
        return calls

    def test_expand_distributes_a_repeated_subtree_once(self, monkeypatch):
        e = self._repeated(Y)
        calls = self._count(monkeypatch, "_distribute")
        out = ex.expand(e)
        # one for the square, two for the product: (x+y)^2 is expanded once
        assert len(calls) == 3
        monkeypatch.undo()
        sq = ex.add(ex.pow_(X, 2), ex.mul(ex.Const(2), X, Y), ex.pow_(Y, 2))
        assert out == ex.add(*[ex.mul(t, ex.func("sin", sq))
                               for t in sq.terms], sq)

    def test_substitute_rebuilds_a_repeated_subtree_once(self, monkeypatch):
        e = self._repeated(Y)
        calls = self._count(monkeypatch, "add")
        out = ex.substitute(e, {SP.base("y"): U})
        # x + u once, then the whole sum
        assert len(calls) == 2
        monkeypatch.undo()
        assert out == self._repeated(U)


class TestNumeric:
    def test_eval_basic(self):
        e = ex.add(ex.mul(ex.Const(2), X), ex.pow_(Y, 2))
        assert ex.compile_numeric(e)({"x": 3.0, "y": 4.0}) == pytest.approx(22.0)

    def test_eval_transcendental(self):
        e = ex.mul(ex.func("exp", X), ex.func("cos", Y))
        got = ex.compile_numeric(e)({"x": 0.5, "y": 0.25})
        assert got == pytest.approx(math.exp(0.5) * math.cos(0.25))

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            eval_numeric(ex.add(X, Y), {"x": 1.0})

    def test_singular_division(self):
        with pytest.raises(SingularEvaluation):
            ex.compile_numeric(ex.pow_(X, -1))({"x": 0.0})

    def test_log_of_negative(self):
        with pytest.raises(SingularEvaluation):
            ex.compile_numeric(ex.func("log", X))({"x": -1.0})

    def test_evaluators_kept_per_node(self):
        e = ex.add(ex.mul(ex.Const(-2), X), Y)
        value = ex.compile_numeric(e)
        magnitude = ex.compile_numeric(e, magnitude=True)
        assert ex.compile_numeric(e) is value
        assert ex.compile_numeric(e, magnitude=True) is magnitude
        assert value is not magnitude
        assert value({"x": 1.0, "y": 1.0}) == -1.0
        assert magnitude({"x": 1.0, "y": 1.0}) == 3.0
        # an equal but distinct node compiles its own evaluator
        assert ex.compile_numeric(ex.add(Y, ex.mul(ex.Const(-2), X))) \
            is not value

    def test_equal_nodes_share_one_code_object(self):
        # the source is compiled once; each node still gets its own function
        ex._code.cache_clear()
        a = ex.add(ex.mul(ex.Const(-7), X), Y)
        b = ex.add(Y, ex.mul(ex.Const(-7), X))
        assert a == b and a is not b
        fa, fb = ex.compile_numeric(a), ex.compile_numeric(b)
        assert ex._code.cache_info().misses == 1
        assert fa is not fb and fa.__code__ is fb.__code__
        assert a._fns[0] is fa and b._fns[0] is fb
        assert fa({"x": 1.0, "y": 1.0}) == fb({"x": 1.0, "y": 1.0}) == -6.0

    def test_code_memo_keeps_no_source(self):
        # the memo is keyed by the source's digest: the key it stores drops
        # its text once compiled, and an equal source finds the same code
        ex._code.cache_clear()
        first = ex._Source("def f():\n return 1.0\n")
        code = ex._code(first)
        assert first.text is None
        again = ex._Source("def f():\n return 1.0\n")
        assert ex._code(again) is code
        assert again.text is not None
        assert ex._code(ex._Source("def f():\n return 2.0\n")) is not code
        assert ex._code.cache_info().misses == 2

    def test_negative_power_underflow_is_singular(self):
        # 1e-10 ** 40 underflows to 0.0; the point must be redrawn, not crash
        with pytest.raises(SingularEvaluation):
            ex.compile_numeric(ex.pow_(X, -40))({"x": 1e-10})

    @pytest.mark.parametrize("text, x", [
        ("x^40", 1e10), ("x^(-40)", 1e10), ("x^(3/2)", 1e300),
    ])
    def test_power_overflow_is_singular(self, text, x):
        # float ** raises OverflowError here; the point must be redrawn
        with pytest.raises(SingularEvaluation):
            ex.compile_numeric(SP.parse(text))({"x": x})

    def test_walks_leave_no_reference_cycles(self):
        # the walkers must free their memos when they return, and a dropped
        # node's evaluator must go with it, not at the next cyclic garbage
        # collection
        e = SP.parse("sin(x*y)^2/(x + exp(u_x)) + cos(x*y)")
        gc.collect()
        gc.disable()
        try:
            ex.diff(e, SP.base("x"))
            ex._codegen(e, False)
            ex.simplify_basic(e)
            ex.expand(e)
            ex.denominator_symbols(e)
            ex.applications(e)
            ex.compile_numeric(ex.add(e, X))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deeply_nested_tree_evaluates(self):
        # sin(x + 2*sin(x + 2*...)) 120 levels deep, built by the constructors
        e, val, mag = X, 0.3, 0.3
        for _ in range(120):
            e = ex.func("sin", ex.add(X, ex.mul(ex.Const(2), e)))
            val = math.sin(0.3 + 2 * val)
            mag = abs(math.sin(0.3 + 2 * mag))
        assert ex.compile_numeric(e)({"x": 0.3}) == val
        assert ex.compile_numeric(e, magnitude=True)({"x": 0.3}) == mag

    def test_repeated_subtree_emitted_once(self):
        t = ex.add(X, ex.mul(ex.Const(-3), Y))
        e = ex.add(ex.mul(ex.func("sin", t), ex.pow_(t, 2)),
                   ex.mul(ex.Const(Fraction(1, 3)), ex.func("exp", t)),
                   ex.pow_(ex.func("cos", t), -1))
        x, y = 0.7, -0.2
        tv = x + (-3) * y
        want = 1.0 / math.cos(tv) + (1 / 3) * math.exp(tv) + tv ** 2 * math.sin(tv)
        tm = abs(x) + 3 * abs(y)
        want_mag = (1.0 / abs(math.cos(tm)) + (1 / 3) * math.exp(tm)
                    + tm ** 2 * abs(math.sin(tm)))
        assert ex.compile_numeric(e)({"x": x, "y": y}) == want
        assert ex.compile_numeric(e, magnitude=True)({"x": x, "y": y}) \
            == want_mag
        src = ex._codegen(e, False)
        assert src.count("(-3)*") == 1 and src.count("a['x']") == 1

    def test_long_sum_and_product_compile(self):
        # 3,000 operands would nest past the compiler's recursion limit in
        # one +/* line; the chunked join keeps the left-to-right order
        n, pt = 3000, {"x": 0.3}
        terms = [ex.func("sin", ex.mul(ex.Const(k), X)) for k in range(1, n + 1)]
        e = ex.add(*terms)
        assert isinstance(e, ex.Add) and len(e.terms) == n
        want = 0.0
        for t in e.terms:
            want += ex.compile_numeric(t)(pt)
        # the reverse sweep sums x's adjoint over the terms last to first
        dwant = 0.0
        for t in reversed(e.terms):
            dwant += ex.compile_numeric(ex.diff(t, SP.base("x")))(pt)
        wrt, grad = ex.compile_gradient(e)
        assert wrt == (SP.base("x"),)
        assert ex.compile_numeric(e)(pt) == want
        assert grad(pt) == [want, dwant]
        p = ex.mul(*[ex.func("cos", ex.mul(ex.Const(Fraction(1, k)), X))
                     for k in range(1, n + 1)])
        assert isinstance(p, ex.Mul) and len(p.factors) == n
        pwant = 1.0
        for f in p.factors:
            pwant *= ex.compile_numeric(f)(pt)
        assert ex.compile_numeric(p)(pt) == pwant

    def test_short_join_is_one_line(self):
        e = ex.add(*[ex.func("sin", ex.mul(ex.Const(k), X))
                     for k in range(1, ex.JOIN_LIMIT + 1)])
        assert len(e.terms) == ex.JOIN_LIMIT
        assert "  p" not in ex._codegen(e, False, (SP.base("x"),))
        longer = ex.add(e, Y)
        assert "  p" in ex._codegen(longer, False)


class TestParseRender:
    CASES = [
        "u_x",
        "u_xx + u_x^2",
        "exp(2*u)*u_xx",
        "u_xy/cos(x) - u_y*sin(x)",
        "1/2*u_x + 3/4",
        "-u_x",
        "(u_x + u_y)^2",
        "b(u_x, u_y) + u_xx",
        "h*u_x",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        e = SP.parse(text)
        assert SP.parse(ex.render(e)) == e

    def test_parse_jet_names(self):
        assert SP.parse("u_xy") == ex.Sym(SP.jet("x", "y"))
        assert SP.parse("u_yx") == ex.Sym(SP.jet("x", "y"))

    def test_parse_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            SP.parse("u_x + zz")
        assert err.value.offset == 6

    def test_parse_division_by_zero(self):
        for text in ("x^(1/0)", "u_x/(x - x)", "0^(-2)*x"):
            with pytest.raises(ParseError):
                SP.parse(text)

    def test_parse_nesting_bound(self):
        depth = ex.MAX_NESTING - 1
        assert SP.parse("(" * depth + "x" + ")" * depth) == SP.parse("x")
        with pytest.raises(ParseError):
            SP.parse("(" * 3000 + "x" + ")" * 3000)

    def test_parse_exponent_bound(self):
        assert SP.parse(f"x^{ex.MAX_EXPONENT}") == \
            ex.pow_(SP.parse("x"), ex.MAX_EXPONENT)
        for text in (f"x^{ex.MAX_EXPONENT + 1}", "x^(10^50)",
                     "((2^1000)^1000)^1000"):
            with pytest.raises(ParseError):
                SP.parse(text)

    def test_parse_trailing_garbage(self):
        with pytest.raises(ParseError):
            SP.parse("u_x )")

    def test_parse_empty(self):
        with pytest.raises(ParseError):
            SP.parse("")

    def test_flat_sum_canonicalized_once(self, monkeypatch):
        # the terms are collected first, so one long sum costs one add
        calls = []
        add = ex.add

        def counted(*args):
            calls.append(len(args))
            return add(*args)

        monkeypatch.setattr(ex, "add", counted)
        counts = []
        for n in (200, 400):
            calls.clear()
            e = SP.parse("u_xx + " + " + ".join(f"sin({k}*x)"
                                                for k in range(1, n)))
            assert len(e.terms) == n
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    def test_operand_order_does_not_change_the_form(self):
        # one add/mul over all operands: no partial sum or product is
        # canonicalized on its own, so no merge depends on where it happens
        sums = ["sin(x)^2 + cos(x)^2 + sin(x)^2",
                "sin(x)^2 + sin(x)^2 + cos(x)^2"]
        assert SP.parse(sums[0]) == SP.parse(sums[1])
        products = ["(x*y)^(1/2)*(x*y)^(1/2)/(x*y)^(1/2)",
                    "(x*y)^(1/2)/(x*y)^(1/2)*(x*y)^(1/2)"]
        assert SP.parse(products[0]) == SP.parse(products[1]) == \
            SP.parse("(x*y)^(1/2)")

    def test_unary_minus(self):
        assert SP.parse("-u_x") == ex.mul(ex.Const(-1), UX)

    def test_division_chain(self):
        e = SP.parse("u_x/cos(y)^2")
        assert e == ex.mul(UX, ex.pow_(ex.func("cos", Y), -2))

    def test_rational_exponent(self):
        e = SP.parse("u_x^(-2)")
        assert e == ex.pow_(UX, -2)

    def test_tan_parses(self):
        e = SP.parse("tan(y)")
        assert e == ex.mul(ex.func("sin", Y), ex.pow_(ex.func("cos", Y), -1))
