"""Jet spaces, total derivatives, vector fields, frame jets, second prolongation."""

import random
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import invariants
from lieinv import jet
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.errors import OrderOverflow
from lieinv.jet import (
    JetSpace,
    VectorField,
    prolong2,
    total_derivative,
)
from helpers import fields, reference_prolongation
from test_acceptance import CFG as ACCEPTANCE_CFG
from test_acceptance import _admissible_draws

SP = JetSpace(("x", "y"), "u")
CFG = nm.SamplerConfig()


def p(text):
    return SP.parse(text)


class TestJetSpace:
    def test_jet_symbols_order(self):
        names = [s.name for s in SP.jet_symbols()]
        assert names == ["u", "u_x", "u_y", "u_xx", "u_xy", "u_yy"]

    def test_resolve_sorted_index(self):
        assert SP.resolve("u_yx") == SP.jet("x", "y")

    def test_resolve_base_and_dep(self):
        assert SP.resolve("x").kind == "base"
        assert SP.resolve("u").kind == "jet"

    def test_longest_prefix_coordinate_match(self):
        sp = JetSpace(("x", "x1"), "u")
        assert sp.resolve("u_x1") == sp.jet("x1")
        assert sp.resolve("u_xx1") == sp.jet("x", "x1")


class TestTotalDerivative:
    def test_lifts_jets(self):
        e = total_derivative(p("u"), "x", SP)
        assert e == p("u_x")

    def test_product(self):
        e = total_derivative(p("x*u"), "x", SP)
        assert e == p("u + x*u_x")

    def test_chain_through_first_order(self):
        e = total_derivative(p("sin(u_y)"), "x", SP)
        assert e == p("cos(u_y)*u_xy")

    def test_order_overflow(self):
        with pytest.raises(OrderOverflow):
            total_derivative(p("u_xx"), "x", SP)


class TestVectorField:
    def test_bracket_of_coordinate_fields_vanishes(self):
        fx = VectorField.from_dict(SP, {"x": "1"})
        fy = VectorField.from_dict(SP, {"y": "1"})
        b = fx.bracket(fy)
        assert all(comp == ex.ZERO for _, comp in b.components)

    def test_bracket_scaling_and_translation(self):
        # [d/dx, x d/dx] = d/dx
        fx = VectorField.from_dict(SP, {"x": "1"})
        sc = VectorField.from_dict(SP, {"x": "x"})
        b = fx.bracket(sc)
        assert dict(b.components)["x"] == ex.ONE

    def test_apply_is_derivation(self):
        f = VectorField.from_dict(SP, {"x": "y", "y": "-x"})
        a, b = p("x^2"), p("sin(y)")
        left = f.apply(ex.mul(a, b))
        right = ex.add(ex.mul(f.apply(a), b), ex.mul(a, f.apply(b)))
        assert nm.is_zero(ex.add(left, ex.mul(ex.Const(-1), right)), CFG)


def _reference_first(f):
    """Reference for frame_jets' first: X^a u_a, one frame at a time."""
    return f.frame_derivative(ex.Sym(f.space.jet()))


def _reference_second(fi, fj):
    """Reference for frame_jets' second: (1/2)(X_i X_j + X_j X_i) u, pair
    by pair."""
    u = ex.Sym(fi.space.jet())
    a = fi.frame_derivative(fj.frame_derivative(u))
    b = fj.frame_derivative(fi.frame_derivative(u))
    return ex.mul(ex.Const(Fraction(1, 2)), ex.add(a, b))


def _frame_cases():
    """Every catalog entry at its stock parameters, then criterion 6's draws."""
    rng = random.Random(ACCEPTANCE_CFG.seed)
    cases = [(name, {}) for name in liealg.CATALOG_NAMES]
    for name in liealg.CATALOG_NAMES:
        cases += [(name, p) for p in _admissible_draws(name, rng) if p]
    return cases


class TestFrameJets:
    @pytest.mark.parametrize("name, params", _frame_cases())
    def test_equal_to_the_reference(self, name, params):
        entry = liealg.catalog_lookup(name, params)
        xs = tuple(f"x{i}" for i in range(1, entry.dim + 1))
        names = [p for p, _ in entry.params]
        for zspace in (JetSpace(xs, "u", params=names), entry.split_space("w")):
            _, eta = fields(entry, zspace)
            first, second = jet.frame_jets(eta)
            n = len(eta)
            assert first == [_reference_first(f) for f in eta]
            assert list(second) == [(i, j) for i in range(n)
                                    for j in range(i, n)]
            assert list(second.values()) == [
                _reference_second(eta[i], eta[j]) for i, j in second]

    def test_each_total_derivative_taken_once(self, monkeypatch):
        # n frames: n^2 for the X_i u and n^2 for their D_c; the pairwise
        # reference takes n^2 + n(n + 1)/2 * 4n = 81 for n = 3
        _, eta = fields(liealg.catalog_lookup("g3_7", {}))
        calls = []
        original = jet.total_derivative

        def counting(e, coord, space):
            calls.append(coord)
            return original(e, coord, space)

        monkeypatch.setattr(jet, "total_derivative", counting)
        jet.frame_jets(eta)
        assert len(calls) == 18
        calls.clear()
        for i, f in enumerate(eta):
            _reference_first(f)
            for g in eta[i:]:
                _reference_second(f, g)
        assert len(calls) == 81


class TestProlongation:
    def test_translation_prolongs_trivially(self):
        f = VectorField.from_dict(SP, {"x": "1"})
        pf = prolong2(f, ex.ZERO)
        assert pf.apply(p("u_x")) == ex.ZERO
        assert pf.apply(p("u_xy")) == ex.ZERO
        assert pf.apply(p("x")) == ex.ONE

    def test_rotation_invariants(self):
        # x d/dy - y d/dx leaves x^2 + y^2 and the full gradient norm alone
        f = VectorField.from_dict(SP, {"x": "-y", "y": "x"})
        pf = prolong2(f, ex.ZERO)
        assert nm.is_zero(pf.apply(p("x^2 + y^2")), CFG)
        assert nm.is_zero(pf.apply(p("u_x^2 + u_y^2")), CFG)
        assert nm.is_zero(pf.apply(p("u_xx + u_yy")), CFG)

    def test_scaling_weights(self):
        # x d/dx acts on u_x with weight -1 and on u_xx with weight -2
        f = VectorField.from_dict(SP, {"x": "x"})
        pf = prolong2(f, ex.ZERO)
        assert pf.apply(p("u_x")) == p("-u_x")
        assert pf.apply(p("u_xx")) == p("-2*u_xx")

    def test_vertical_field(self):
        # theta = u: pr(u d/du) multiplies every jet by itself
        f = VectorField.from_dict(SP, {})
        pf = prolong2(f, p("u"))
        assert pf.apply(p("u_x")) == p("u_x")
        assert pf.apply(p("u_xy")) == p("u_xy")

    def test_invariant_of_galilean_boost(self):
        # theta = x for the zero point field: u -> u + eps x
        f = VectorField.from_dict(SP, {})
        pf = prolong2(f, p("x"))
        assert pf.apply(p("u_x")) == ex.ONE
        assert pf.apply(p("u_xx")) == ex.ZERO


    @pytest.mark.parametrize("name, params, pipeline", [
        ("g3_7", {}, "free"), ("g3_4", {"h": Fraction(1, 2)}, "transitive")])
    def test_equal_to_the_reference(self, monkeypatch, name, params,
                                    pipeline):
        # each D_a xi^b is taken once; the coefficients are the ones a
        # total_derivative call at every use gives, in the same order
        entry = liealg.catalog_lookup(name, params)
        names = [p for p, _ in entry.params]
        if pipeline == "free":
            xs = tuple(f"x{i}" for i in range(1, entry.dim + 1))
            zspace = JetSpace(xs, "u", params=names)
            space = JetSpace(xs + ("y1",), "u", params=names)
        else:
            zspace = entry.split_space("w")
            space = JetSpace(tuple(c for c in zspace.coords if c != entry.dep),
                             entry.dep, params=names)
        made = []
        original = invariants.prolong2

        def recording(field, theta):
            made.append((field, theta, original(field, theta)))
            return made[-1][2]

        monkeypatch.setattr(invariants, "prolong2", recording)
        jet._prolongation.cache_clear()
        invariants.realize(entry, zspace, space, CFG)
        assert len(made) == entry.dim
        for field, theta, pf in made:
            assert list(pf.coefficients.items()) == \
                reference_prolongation(field, theta)

    def test_each_total_derivative_of_xi_taken_once(self, monkeypatch):
        # n coordinates: n for D_a theta, n^2 for D_a xi^b and n(n + 1)/2
        # for D_b phi_a; the reference takes D_a xi^b again for each phi_ab
        f = VectorField.from_dict(JetSpace(("x", "y", "z"), "u"),
                                  {"x": "y", "y": "x*z", "z": "1"})
        calls = []
        original = jet.total_derivative

        def counting(e, coord, space):
            calls.append(coord)
            return original(e, coord, space)

        monkeypatch.setattr(jet, "total_derivative", counting)
        jet._prolongation.__wrapped__(f, ex.ZERO)
        assert len(calls) == 3 + 9 + 6
        calls.clear()
        reference_prolongation(f, ex.ZERO)
        assert len(calls) == 3 + 9 + 6 + 6 * 3


class TestProlongationMemo:
    def test_equal_spaces_are_equal_keys(self):
        a = JetSpace(["x", "y"], "u", params=["p", "q"])
        b = JetSpace(("x", "y"), "u", params=("q", "p"))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != JetSpace(("y", "x"), "u", params=["p", "q"])
        assert a != JetSpace(("x", "y"), "w", params=["p", "q"])
        assert a != JetSpace(("x", "y"), "u")
        # a field on either space is the same key
        assert VectorField.from_dict(a, {"x": "y"}) == \
            VectorField.from_dict(b, {"x": "y"})

    def test_equal_spaces_share_one_entry(self):
        jet._prolongation.cache_clear()
        spaces = [JetSpace(("x", "y"), "u"), JetSpace(("x", "y"), "u")]
        pfs = [prolong2(VectorField.from_dict(sp, {"x": "y", "y": "-x"}))
               for sp in spaces]
        info = jet._prolongation.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert pfs[0].coefficients == pfs[1].coefficients
        # each prolonged field lives on its caller's own space
        assert [pf.space for pf in pfs] == spaces
        assert pfs[1].space is spaces[1]

    def test_other_theta_is_another_entry(self):
        jet._prolongation.cache_clear()
        f = VectorField.from_dict(SP, {"x": "1"})
        prolong2(f)
        prolong2(f, p("u"))
        assert jet._prolongation.cache_info().misses == 2

    def test_mutating_a_prolongation_leaves_the_memo(self):
        jet._prolongation.cache_clear()
        f = VectorField.from_dict(SP, {"x": "x*y", "y": "u"})
        first = prolong2(f, p("x"))
        want = dict(first.coefficients)
        first.coefficients[SP.jet("x")] = ex.ONE
        first.coefficients.clear()
        again = prolong2(f, p("x"))
        assert jet._prolongation.cache_info().hits == 1
        assert again.coefficients == want
        assert again.coefficients is not first.coefficients
        # and the memo holds what the formula gives
        assert want == dict(jet._prolongation.__wrapped__(f, p("x")))
