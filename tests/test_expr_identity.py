"""Node identity in the expression kernel.

The sum and product constructors collect like terms and like bases under
the nodes themselves, whose hashes are cached.  These tests hold the trees
they build against reference constructors that collect under sort keys
(tests/helpers.py), on criterion 9's random expressions, the lifted
covariant forms of the benchmark's covariant round trip, Pythagorean and
rational-coefficient sums and the products below.  add and mul give one
tree for every order of their operands: a sum whose Pythagorean pairs
overlap, and seeded products whose power bases fold into bases collected
already.  The sparse-polynomial expansion and the one-fold lift are held
against the pairwise expansion and the lift built on it (reference_expand,
reference_lift) on the same corpora, on products where mul and add do more
than add exponents, and on seeded random products of those.  The compiled
gradient, which shares adjoints and takes a requested set of symbols, is
held against the reference reverse sweep (reference_adjoints) on the
lifted forms and the kernel benchmark's corpus, and the evaluators whose
constants and symbol names are parameters against the source with inline
literals (reference_codegen), on the same corpus, with one code object per
expression shape.  They also pin what makes identity cheap: every
constructor returns the one live node of its value, which is its own
equality and hash, from a table that keeps no node alive; nodes carry no
instance dict, a jet space hands out one symbol object per jet variable,
and only a node's caches can be set.
"""

import copy
import gc
import itertools
import pickle
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lieinv import covariant as cov
from lieinv import expr as ex
from lieinv import invariants, liealg
from lieinv import numeric as nm
from lieinv.errors import SingularEvaluation, UnsupportedOperation
from lieinv.jet import JetSpace

from helpers import (reference_adjoints, reference_codegen, reference_expand,
                     reference_lift, structure, use_reference_constructors)
from test_acceptance import _random_expr

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
import kernel_bench  # noqa: E402
import workloads  # noqa: E402

CFG = nm.SamplerConfig()
RANDOM_DRAWS = 300
GRADIENT_POINTS = 20
# an adjoint that only copies another one, or the root's 1.0
COPY_ADJOINT = re.compile(r"^ *d\d+=(d\d+|1\.0)$", re.M)
PYTHAGOREAN_AND_RATIONAL = [
    "(1/2)*sin(x)^2*u_x + (1/2)*cos(x)^2*u_x",
    "sin(x)^2 + cos(x)^2",
    "3*sin(x + y)^2*u + 3*cos(x + y)^2*u + 1/3",
    "sin(x)^2 + sin(x)^2 + cos(x)^2",
    "sin(x)^3 + sin(x)*cos(x)^2",
    "(2/3)*u_x*sin(u)^4 + (2/3)*u_x*cos(u)^2*sin(u)^2",
    "cos(x)^4 + 2*sin(x)^2*cos(x)^2 + sin(x)^4",
    "-sin(-x)^2*u - cos(-x)^2*u + u",
    "x/2 + x/3 - 5*x/6 + (1/4)*u_xy - u_xy/4",
    "(x + 1/2)^2*(x + 1/2)^(-1/2)*(x + 1/2)^(1/2)",
    "exp(u)*exp(u)*exp(-u)/7 - (1/7)*exp(u)",
    "(3/5)*u_x^(1/2)*u_x^(1/2) + (2/5)*u_x - u_x",
    "x^(2/3)*x^(1/3)*(1/x) + 2^(1/2)*2^(1/2)",
    "(u_x + u_y)*(u_x - u_y)/(u_x^2 - u_y^2)",
    "sin(x)^2*cos(x)^2 + cos(x)^4 + sin(x)^4",
]
# products where mul or add does more than add exponents: a shared
# constant, product or power base, a bare sum, a power base whose exponents
# sum to an integer, partial sums that cancel, and Pythagorean pairs that
# merge partway through a product
FOLD_CASES = [
    "(x + y)^(1/2)*(x + y)^(1/2)*u_x",
    "((x + y)^(1/2) + 1)*((x + y)^(1/2) - 1)*u_x",
    "((x + y)^(1/2) + sin(x))^4",
    "2^(1/2)*2^(1/2)*(u_x + 1)^2",
    "(2^(1/2) + u_x)^3*(2^(1/2) - 1)",
    "(x*y)^(1/2)*(x*y)^(1/2)*(x + 1)",
    "((x*y)^(1/2) + 1)^3*(x + 1)",
    "(x + 1)^5*(x + 1)^(-1)*(u + 1)",
    "((x + 1)^5 + u)*((x + 1)^(-1) + u)",
    "((x^2)^(1/2) + x)*(x*(x^2)^(1/2) + 1)*(u + 2)",
    "(1/2 + (x + y)^(1/2)/2)*(2 + (x + y)^(1/2))*(2 + 2*(x + y)^(1/2))",
    "((2*(x + y)^(1/2) + x)*(x + y)^(1/2)"
    " - ((x + y)^(1/2) + x)*(x + y)^(1/2))*(u + 1)",
    "((x + y)*(x - y) - x^2 + y^2)*(u + 1)",
    "(x + 1)*(x - 1)*(u + 1) - (x^2 - 1)*(u + 1)",
    "(sin(x) + cos(x))^2*(u + 1)",
    "(sin(x)*u + cos(x))*(sin(x)*u - cos(x))*(sin(x) + 1)",
    "(1/8)*x^3*sin(y)^3*(cos(x)^2 + 2*cos(x)^4)"
    "*(cos(x)^4 + sin(x)^4 + (1/2)*sin(x)^2)",
    "x*(x^2)^(1/2)*(x^2)^(1/2)*u",
]
PRODUCT_ATOMS = ["x", "u", "u_x", "(x + y)^(1/2)", "2^(1/2)", "(x*y)^(1/2)",
                 "(x + 1)^5", "(x + 1)^(-1)", "(x^2)^(1/2)", "sin(x)",
                 "cos(x)", "sin(x)^2", "cos(x)^2"]
RANDOM_PRODUCTS = 3000
# factors of the products whose operand order must not matter
ORDER_ATOMS = ["sin(x)", "cos(x)", "u", "x", "(x^2)^(1/2)", "sin(x + y)",
               "cos(x + y)"]


def _same(ref, new):
    assert [structure(e) for e in new] == [structure(e) for e in ref]
    assert [e.sort_key() for e in new] == [e.sort_key() for e in ref]
    assert [ex.render(e) for e in new] == [ex.render(e) for e in ref]


def _random_corpus():
    """Criterion 9's draws: pairs of random expressions, their sum, product
    and u_x-derivative; a draw that raises contributes its error type."""
    space = JetSpace(("x", "y"), "u")
    rng = random.Random(CFG.seed)
    sym = space.jet("x")
    out, errors = [], []
    for _ in range(RANDOM_DRAWS):
        try:
            a = _random_expr(rng, space)
            b = _random_expr(rng, space)
            s = ex.add(a, b)
            p = ex.mul(a, b)
            out += [a, b, s, p, ex.diff(p, sym), ex.add(s, ex.mul(-1, b))]
        except ZeroDivisionError as exc:
            errors.append(type(exc))
    return out, errors


def _lifted_forms():
    """The lifted covariant form of every equation of the benchmark's
    covariant round trip (seed 61)."""
    pdes = workloads.make_covariant_roundtrip(61)["pdes"]
    return [cov.to_covariant(cov.parse_pde(text), CFG).lhs for text in pdes]


def _rebuilt(e):
    """e rebuilt term by term from its leaves, every sum and product from
    its operands in reverse order."""
    def visit(x, kids):
        return ex._construct(x, kids[::-1])

    return ex._fold(e, visit, ex._leaf)


def _parsed(texts=PYTHAGOREAN_AND_RATIONAL):
    space = JetSpace(("x", "y"), "u")
    return [space.parse(text) for text in texts]


def _random_products():
    """Seeded products of 2 or 3 factors over PRODUCT_ATOMS: each factor a
    sum of one or two terms c*a or c*a*b, raised to 1, 2, 1/2 or -1."""
    atoms = _parsed(PRODUCT_ATOMS)
    rng = random.Random(RANDOM_PRODUCTS)
    out = []
    for _ in range(RANDOM_PRODUCTS):
        factors = []
        for _ in range(rng.randint(2, 3)):
            f = ex.add(*[ex.mul(rng.choice((1, -1, 2, Fraction(1, 2))),
                                *rng.sample(atoms, rng.randint(1, 2)))
                         for _ in range(rng.randint(1, 2))])
            factors.append(ex.pow_(f, rng.choice((1, 1, 2, Fraction(1, 2),
                                                  -1))))
        out.append(ex.mul(*factors))
    return out


def _lifts(seed):
    """covariant.lift and reference_lift of every equation of the
    benchmark's covariant round trip."""
    new, ref = [], []
    for text in workloads.make_covariant_roundtrip(seed)["pdes"]:
        pde = cov.parse_pde(text)
        wspace = cov.wspace_for(pde.space)
        new.append(cov.lift(pde, wspace))
        ref.append(reference_lift(pde, wspace))
    return ref, new


class TestReferenceCanonicalForms:
    def test_random_expressions(self, monkeypatch):
        with monkeypatch.context() as m:
            use_reference_constructors(m)
            ref, ref_errors = _random_corpus()
        new, new_errors = _random_corpus()
        assert len(new) > 1000
        assert new_errors == ref_errors
        _same(ref, new)

    def test_lifted_covariant_forms(self, monkeypatch):
        new = _lifted_forms()
        assert len(new) == 70
        with monkeypatch.context() as m:
            use_reference_constructors(m)
            ref = _lifted_forms()
            ref_rebuilt = [_rebuilt(e) for e in new]
        _same(ref, new)
        _same(ref_rebuilt, [_rebuilt(e) for e in new])
        _same(new, ref_rebuilt)

    def test_pythagorean_and_rational_sums(self, monkeypatch):
        with monkeypatch.context() as m:
            use_reference_constructors(m)
            ref = _parsed()
        new = _parsed()
        _same(ref, new)
        assert ex.render(new[0]) == "(1/2)*u_x"
        assert new[1] == ex.ONE

    def test_fold_cases(self, monkeypatch):
        with monkeypatch.context() as m:
            use_reference_constructors(m)
            ref = _parsed(FOLD_CASES)
        new = _parsed(FOLD_CASES)
        _same(ref, new)
        assert ex.render(new[-1]) == "u*x^3"


class TestReferenceExpansion:
    @pytest.mark.parametrize("seed", [61, 97])
    def test_lifted_forms(self, seed):
        ref, new = _lifts(seed)
        assert len(new) == 70
        _same(ref, new)

    def test_random_expressions(self):
        exprs, _ = _random_corpus()
        _same([reference_expand(e) for e in exprs],
              [ex.expand(e) for e in exprs])

    @pytest.mark.parametrize("texts", [PYTHAGOREAN_AND_RATIONAL, FOLD_CASES],
                             ids=["pythagorean-rational", "fold-cases"])
    def test_listed_expressions(self, texts):
        exprs = _parsed(texts)
        _same([reference_expand(e) for e in exprs],
              [ex.expand(e) for e in exprs])

    def test_fold_cases_expand(self):
        # the listed cases do what mul and add do: a bare sum is
        # distributed, a sum raised to 1 inside a product is not, a power
        # of 2 folds into the coefficient, and a power base raised to 1
        # merges with its own base, with any coefficient
        got = dict(zip(FOLD_CASES, map(ex.render, map(ex.expand,
                                                      _parsed(FOLD_CASES)))))
        assert got[FOLD_CASES[0]] == "x*u_x + y*u_x"
        assert got[FOLD_CASES[1]] == "-u_x + u_x*(x + y)"
        assert got[FOLD_CASES[3]] == "2 + 2*u_x^2 + 4*u_x"
        assert "u*x^3" in got[FOLD_CASES[9]] and "2*x^3" in got[FOLD_CASES[9]]
        assert got[FOLD_CASES[11]] == "x + y + x*u + y*u"
        assert got[FOLD_CASES[12]] == got[FOLD_CASES[13]] == "0"
        assert got[FOLD_CASES[14]] == "1 + u + 2*u*cos(x)*sin(x)" \
                                      " + 2*cos(x)*sin(x)"
        assert got[FOLD_CASES[-1]] == "u*x^3"

    def test_random_products(self):
        exprs = _random_products()
        _same([reference_expand(e) for e in exprs],
              [ex.expand(e) for e in exprs])

    def test_oracle_residuals(self, monkeypatch):
        # every residual the oracle expands in one derive_sweep round
        # (seed 61) gets the pairwise expansion's tree, so the same verdict
        seen = []
        expand = ex.expand

        def recording(e, *args, **kwargs):
            seen.append(e)
            return expand(e, *args, **kwargs)
        monkeypatch.setattr(ex, "expand", recording)
        out = workloads.run_derive_sweep(workloads.make_derive_sweep(61))
        monkeypatch.undo()
        assert (out["attempted"], out["failed"]) == (960, 0)
        assert len(seen) == 459
        _same([reference_expand(e) for e in seen],
              [ex.expand(e) for e in seen])


def _order_products():
    """Seeded lists of 2 to 5 factors over ORDER_ATOMS, each raised to 1, 2
    or 1/2."""
    atoms = _parsed(ORDER_ATOMS)
    rng = random.Random(RANDOM_PRODUCTS)
    return [[ex.pow_(rng.choice(atoms), rng.choice((1, 2, Fraction(1, 2))))
             for _ in range(rng.randint(2, 5))]
            for _ in range(RANDOM_PRODUCTS)]


class TestOperandOrder:
    """add and mul build one tree whatever the order of their operands."""

    def test_pythagorean_sum(self):
        terms = _parsed(["sin(x)^2*cos(x)^2", "cos(x)^4", "sin(x)^4"])
        got = {structure(ex.add(*p)) for p in itertools.permutations(terms)}
        assert len(got) == 1
        assert ex.add(*terms) == _parsed(["cos(x)^2 + sin(x)^4"])[0]

    def test_products(self):
        for factors in _order_products():
            product = ex.mul(*factors)
            want = structure(product)
            for p in itertools.permutations(factors):
                assert structure(ex.mul(*p)) == want, factors
            # collecting a collected product again changes nothing
            assert structure(ex.mul(2, product)) == \
                structure(ex.mul(2, *factors)), factors


def _gradient_corpus():
    """The lifted forms at seeds 61 and 97 and the kernel benchmark's
    corpus, structurally distinct expressions with free symbols only."""
    exprs = _lifts(61)[1] + _lifts(97)[1] + kernel_bench.corpus()
    return [e for e in dict.fromkeys(exprs) if e.free_symbols()]


def _points(e, rng):
    """GRADIENT_POINTS draws of e's symbols, each 0.5 <= |v| <= 1.5."""
    names = sorted({s.name for s in e.free_symbols()})
    return [{n: rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for n in names}
            for _ in range(GRADIENT_POINTS)]


def _values(g, pt):
    try:
        return g(pt)
    except SingularEvaluation:
        return None


class TestRequestedGradient:
    """The gradient along all or some symbols, against the reference sweep."""

    def test_slots_match_the_reference_sweep(self, monkeypatch):
        rng = random.Random(CFG.seed)
        exprs = _gradient_corpus()
        assert len(exprs) > 300
        regular = 0
        for e in exprs:
            wrt = ex.compile_gradient(e)[0]
            subset = tuple(rng.sample(wrt, rng.randint(1, len(wrt))))
            sources = [ex._codegen(e, wrt), ex._codegen(e, subset)]
            with monkeypatch.context() as m:
                m.setattr(ex, "_adjoints", reference_adjoints)
                reference = ex._compile(ex._codegen(e, wrt))
            assert not any(COPY_ADJOINT.search(src) for src, _ in sources)
            full, part = map(ex._compile, sources)
            slots = [0] + [wrt.index(s) + 1 for s in subset]
            for pt in _points(e, rng):
                want = _values(reference, pt)
                assert _values(full, pt) == want
                got = _values(part, pt)
                assert got == (None if want is None
                               else [want[j] for j in slots])
                regular += want is not None
        assert regular > GRADIENT_POINTS * len(exprs) // 2

    def test_a_covering_gradient_is_reused(self, monkeypatch):
        compiled = []
        compile_ = ex._compile

        def counted(src):
            compiled.append(src)
            return compile_(src)
        monkeypatch.setattr(ex, "_compile", counted)
        space = JetSpace(("x", "y"), "u")
        x, y, ux = space.base("x"), space.base("y"), space.jet("x")
        e = space.parse("sin(x*y) + u_x^2*y")
        full = ex.compile_gradient(e)
        assert full[0] == (ux, x, y) and len(compiled) == 1
        assert ex.compile_gradient(e, [ux]) is full
        assert ex.compile_gradient(e, [y, x, space.jet("y")]) is full
        assert len(compiled) == 1
        # the value built again is the same node, whose gradient serves it
        assert space.parse("y*u_x^2 + sin(y*x)") is e
        assert ex.compile_gradient(space.parse("y*u_x^2 + sin(x*y)")) is full
        assert len(compiled) == 1
        # a request the kept gradient does not cover compiles the union: on
        # the same shape in other names, a node with no gradient yet
        other = JetSpace(("s", "t"), "p")
        s, t, ps = other.base("s"), other.base("t"), other.jet("s")
        f = other.parse("sin(s*t) + p_s^2*t")
        assert ex.compile_gradient(f, [s])[0] == (s,)
        assert ex.compile_gradient(f, [ps])[0] == (ps, s)
        assert ex.compile_gradient(f, [s]) is ex.compile_gradient(f, [ps, s])
        assert len(compiled) == 3
        assert ex.compile_gradient(f)[0] == (ps, s, t)
        assert len(compiled) == 4
        pt = {"x": 0.3, "y": -0.7, "u_x": 1.1}
        assert f._fns[1][1]({"s": 0.3, "t": -0.7, "p_s": 1.1}) == full[1](pt)


def _bits(out):
    """A value or gradient as exact bits; None for a singular point."""
    if out is None:
        return None
    return [v.hex() for v in (out if isinstance(out, list) else [out])]


class TestShapeParameters:
    """Constants and symbol names are parameters of the generated source."""

    def test_evaluators_match_the_inline_literals(self):
        # the value and the gradient, against the source with every constant
        # and name inline (reference_codegen): the same bits, and a singular
        # point at the same points, among them a point at zero and one far
        # out, where denominators vanish and products overflow
        rng = random.Random(CFG.seed)
        exprs = _gradient_corpus()
        regular = singular = 0
        for e in exprs:
            wrt = ex.compile_gradient(e)[0]
            names = {s.name for s in e.free_symbols()}
            points = _points(e, rng) + [dict.fromkeys(names, v)
                                        for v in (0.0, -1e200)]
            for args in ((e,), (e, wrt)):
                hoisted = ex._compile(ex._codegen(*args))
                reference = ex._compile((reference_codegen(*args), ()))
                for pt in points:
                    want = _bits(_values(reference, pt))
                    assert _bits(_values(hoisted, pt)) == want, ex.render(e)
                    regular += want is not None
                    singular += want is None
        assert regular > GRADIENT_POINTS * len(exprs)
        assert singular > len(exprs)

    def test_one_code_object_per_shape(self):
        # g3_4's invariants at two values of h differ only in constants,
        # and two sums in separate jet spaces in constants and names
        a, b = [invariants.type2_pipeline(
            liealg.catalog_lookup("g3_4", {"h": h}), CFG).exprs()[-1]
            for h in (Fraction(1, 2), Fraction(-1, 3))]
        c = JetSpace(("x", "y"), "u").parse("exp(3*x)*u_x + (1/3)*y^2")
        d = JetSpace(("s", "t"), "p").parse("exp(5*s)*p_s + (2/7)*t^2")
        for pair in ((a, b), (c, d)):
            # the caches emptied, so the evaluators the pipeline compiled
            # are gone
            pair = [kernel_bench.fresh(e) for e in pair]
            assert pair[0] != pair[1]
            ex._code.cache_clear()
            values = [ex.compile_numeric(e) for e in pair]
            gradients = [ex.compile_gradient(e)[1] for e in pair]
            assert ex._code.cache_info().misses == 2
            for fns in (values, gradients):
                assert fns[0].__code__ is fns[1].__code__
                assert fns[0].__defaults__ != fns[1].__defaults__
            for e, g in zip(pair, gradients):
                reference = ex._compile((reference_codegen(
                    e, ex.compile_gradient(e)[0]), ()))
                for pt in _points(e, random.Random(CFG.seed)):
                    assert _bits(_values(g, pt)) == \
                        _bits(_values(reference, pt))


class TestNodeIdentity:
    SP = JetSpace(("x", "y"), "u", params=("h",))

    def test_no_instance_dict(self):
        x = ex.Sym(self.SP.base("x"))
        nodes = [ex.Const(2), x, ex.Pow(x, -1), ex.Func("sin", x),
                 ex.Applied("a1", (x,)), ex.Add((ex.ONE, x)),
                 ex.Mul((ex.Const(2), x))]
        assert {type(n) for n in nodes} == set(ex._OPERANDS)
        for obj in nodes + [self.SP.base("x"), self.SP.jet("x", "y")]:
            assert not hasattr(obj, "__dict__"), type(obj)

    def test_one_symbol_object_per_jet_variable(self):
        sp = self.SP
        assert sp.jet("x") is sp.jet("x")
        assert sp.jet("x", "y") is sp.jet("y", "x")
        assert sp.jet() is sp.resolve("u")
        assert sp.resolve("u_yx") is sp.jet("x", "y")
        assert sp.parse("u_xy") is sp.jet("x", "y")
        assert sp.jet_symbols() == [sp.jet(*s.index)
                                    for s in sp.jet_symbols()]
        with pytest.raises(KeyError):
            sp.jet("z")
        with pytest.raises(UnsupportedOperation):
            sp.jet("x", "x", "y")

    def test_equal_symbols_from_separate_spaces(self):
        a = JetSpace(("x", "y"), "u").jet("x", "y")
        b = JetSpace(("y", "x"), "u").jet("y", "x")
        assert a is b
        assert a == b and hash(a) == hash(b)
        assert ex.Sym(a) == ex.Sym(b) and hash(ex.Sym(a)) == hash(ex.Sym(b))
        assert ex.Symbol("x") == ex.Symbol("x", ex.BASE, None, ())
        assert ex.Symbol("x") != ex.Symbol("x", ex.PARAM)
        assert ex.Symbol("x") != "x"
        assert repr(a) == "Symbol('u_xy')"

    def test_symbol_is_immutable(self):
        s = self.SP.jet("x")
        with pytest.raises(AttributeError):
            s.name = "v_x"
        with pytest.raises(AttributeError):
            s.extra = 1
        with pytest.raises(AttributeError):
            del s.kind
        assert (s.name, s.kind, s.dep, s.index) == ("u_x", ex.JET, "u", ("x",))
        for twin in (copy.copy(s), copy.deepcopy(s),
                     pickle.loads(pickle.dumps(s))):
            assert twin == s and hash(twin) == hash(s)


class TestOneNodePerValue:
    """Every constructor returns the one live node of its value."""

    SP = JetSpace(("x", "y"), "u", params=("h",))

    def _nodes(self):
        x, y = self.SP.base("x"), self.SP.base("y")
        return [ex.Const(Fraction(1, 2)), x, ex.Pow(x, Fraction(1, 3)),
                ex.Func("sin", x), ex.Applied("a1", (x, y)),
                ex.Add((ex.ONE, x)), ex.Mul((ex.Const(2), x))]

    def test_equal_values_built_apart_are_one_object(self):
        x = self.SP.base("x")
        assert ex.Const(Fraction(6, 3)) is ex.Const(2)
        assert ex.Const(Fraction(2, 4)) is ex.Const(Fraction(1, 2))
        assert ex.Pow(x, Fraction(2)) is ex.pow_(x, 2)
        assert type(ex.Pow(x, Fraction(2)).exp) is int
        assert ex.Symbol("x") is ex.Symbol("x", ex.BASE, None, ()) is x
        assert ex.Symbol("x", ex.PARAM) is not x
        assert JetSpace(("y", "x"), "u").jet("y", "x") is self.SP.jet("x", "y")
        texts = ["sin(x*y)^2*u_x + exp(-u)/(1 + y^2) + b(u_x, x)",
                 "exp(-u)/(y^2 + 1) + b(u_x, x) + u_x*sin(y*x)^2"]
        a, b = [self.SP.parse(t) for t in texts]
        assert a is b
        for node in self._nodes():
            assert type(node)(*[getattr(node, f) for f in node.__slots__]) \
                is node
            for twin in (copy.copy(node), copy.deepcopy(node),
                         pickle.loads(pickle.dumps(node))):
                assert twin is node

    def test_equality_and_hash_are_the_objects_own(self):
        assert "__eq__" not in vars(ex.Expr)
        assert "__hash__" not in vars(ex.Expr)
        for cls in ex._OPERANDS:
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__
        assert "_hash" not in ex.Expr.__slots__

    def test_only_a_cache_can_be_set(self):
        caches = ("_key", "_free", "_fns")
        for node in self._nodes() + [self.SP.jet("x")]:
            for name in node.__slots__ + ("extra", "__dict__"):
                with pytest.raises(AttributeError):
                    setattr(node, name, None)
            for name in node.__slots__ + caches:
                with pytest.raises(AttributeError):
                    delattr(node, name)
            key = node.sort_key()
            # the guard lets a cache be emptied; a symbol keeps its key
            for name in caches[type(node) is ex.Symbol:]:
                setattr(node, name, None)
            assert node.sort_key() == key

    def test_the_table_keeps_no_node_alive(self):
        gc.collect()
        baseline = len(ex._NODES)
        e = self.SP.parse("sin(x*y*x)^7*u_xy + exp(u_x*y/3)*(x + 13/17)")
        ex.compile_gradient(e)
        assert len(ex._NODES) > baseline
        del e
        gc.collect()
        assert len(ex._NODES) == baseline

    def test_shared_trees_hash_and_build_in_linear_time(self):
        # e -> e*u_x + e*u_y makes 3 new nodes per level; a hash of nested
        # sort keys doubled its time per level
        ux, uy = self.SP.jet("x"), self.SP.jet("y")
        start = time.perf_counter()
        e = ex.add(ux, uy)
        for _ in range(24):
            e = ex.add(ex.mul(e, ux), ex.mul(e, uy))
            hash(e)
        assert time.perf_counter() - start < 0.1
        assert ex.degree(e, [ux, uy]) == 25

    def test_a_lift_holds_the_symbols_of_its_own_space(self):
        # the implicit derivatives are memoized per z-space value: a lift
        # on an equal z-space made later holds that space's own symbols
        first, second = [cov.parse_pde(f"coords: x, y; dep: u\nlhs: {lhs}")
                         for lhs in ("u_xx + u_yy", "u_xx*u_y + u_yy")]
        cov.lift(first, cov.wspace_for(first.space))
        wspace = cov.wspace_for(second.space)
        form = cov.lift(second, wspace)
        own = {s.name: s for s in wspace.jet_symbols()}
        jets = [s for s in form.free_symbols() if s.kind == ex.JET]
        assert len(jets) == 8
        assert all(s is own[s.name] for s in jets)


class TestKernelBenchPasses:
    def test_a_pass_starts_from_empty_caches(self):
        # kernel_bench.fresh empties every cache of a corpus expression in
        # place, a symbol's sort key excepted, as each timed pass needs
        e = JetSpace(("x", "y"), "u").parse(
            "exp(3*x)*u_x/(1 + y^2) + (1/3)*sin(u)^2*u_xy")
        ex.compile_gradient(e)
        ex.compile_numeric(e)
        ex.denominator_symbols(e)
        ex.simplify_basic(e)
        assert kernel_bench.fresh(e) is e
        nodes = []
        ex._fold(e, lambda x, kids: nodes.append(x), lambda x: None)
        assert len(nodes) > 10
        for x in nodes:
            assert x._fns is None and x._free is None
            assert (x._key is None) is (type(x) is not ex.Symbol)
