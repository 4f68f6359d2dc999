"""Node identity in the expression kernel.

The sum and product constructors collect like terms and like bases under
the nodes themselves, whose hashes are cached.  These tests hold the trees
they build against reference constructors that collect under sort keys
(tests/helpers.py), on criterion 9's random expressions, the lifted
covariant forms of the benchmark's covariant round trip and Pythagorean
and rational-coefficient sums.  They also pin what makes identity cheap:
symbols and nodes carry no instance dict, a jet space hands out one symbol
object per jet variable, and a symbol cannot be altered.
"""

import copy
import pickle
import random
import sys
from pathlib import Path

import pytest

from lieinv import covariant as cov
from lieinv import expr as ex
from lieinv import numeric as nm
from lieinv.errors import UnsupportedOperation
from lieinv.jet import JetSpace

from helpers import structure, use_reference_constructors
from test_acceptance import _random_expr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CFG = nm.SamplerConfig()
RANDOM_DRAWS = 300
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
]


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


def _parsed():
    space = JetSpace(("x", "y"), "u")
    return [space.parse(text) for text in PYTHAGOREAN_AND_RATIONAL]


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
        assert sp.parse("u_xy").symbol is sp.jet("x", "y")
        assert sp.jet_symbols() == [sp.jet(*s.index)
                                    for s in sp.jet_symbols()]
        with pytest.raises(KeyError):
            sp.jet("z")
        with pytest.raises(UnsupportedOperation):
            sp.jet("x", "x", "y")

    def test_equal_symbols_from_separate_spaces(self):
        a = JetSpace(("x", "y"), "u").jet("x", "y")
        b = JetSpace(("y", "x"), "u").jet("y", "x")
        assert a is not b
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
