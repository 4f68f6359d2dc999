"""Covariant form: implicit differentiation, homogeneity, round trips."""

import pytest

from lieinv import covariant as cov
from lieinv import expr as ex
from lieinv import numeric as nm
from lieinv.errors import NotRescaleInvariant, ParseError

CFG = nm.SamplerConfig()

# battery of split scalar PDEs used for the round-trip contract
PDE_BATTERY = [
    "coords: x, y; dep: u\nlhs: x*u_x + y*u_y + u",        # quasi-linear 1st order
    "coords: x, y; dep: u\nlhs: u_x*u_y + u",              # fully nonlinear 1st order
    "coords: x, y; dep: u\nlhs: u_x^2 + u_y^2 - 1",        # eikonal-type
    "coords: x; dep: u\nlhs: u_xx + u_x^2",
    "coords: x; dep: u\nlhs: u_xx + u_x^3",
    "coords: x, y; dep: u\nlhs: u_xx + u_yy",
    "coords: x, y; dep: u\nlhs: u_xx*u_yy - u_xy^2",       # Monge-Ampere
    "coords: x, y; dep: u\nlhs: u_xx + u*u_yy",
    "coords: x, y; dep: u\nlhs: u_xy + u_x*u_y",
    "coords: x, y, z; dep: u\nlhs: u_xx + u_yy + u_zz + u_x*u_y*u_z",
]


def parse(text):
    return cov.parse_pde(text)


class TestParse:
    def test_basic(self):
        pde = parse("coords: x, y; dep: u\nlhs: u_xx + u_yy")
        assert pde.space.coords == ("x", "y")
        assert pde.space.dep == "u"

    def test_params_field(self):
        pde = parse("coords: x; dep: u; params: k\nlhs: k*u_xx")
        assert "k" in pde.space.params

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse("coords: x, y\nlhs: u_xx")

    def test_comments_ignored(self):
        pde = parse("# heat\ncoords: x; dep: u\nlhs: u_xx")
        assert pde.lhs == pde.space.parse("u_xx")


class TestToCovariant:
    def test_first_order_quasilinear(self):
        # a^i u_i + b -> a^i w_i - b w_n (up to overall sign)
        pde = parse("coords: x, y; dep: u\nlhs: x*u_x + y*u_y + u")
        c = cov.to_covariant(pde, CFG)
        want = c.space.parse("x*w_x + y*w_y - u*w_u")
        assert nm.exprs_equal(c.lhs, want, CFG) or \
            nm.exprs_equal(c.lhs, ex.mul(ex.Const(-1), want), CFG)
        assert c.degree == 1

    def test_second_order_degree(self):
        pde = parse("coords: x; dep: u\nlhs: u_xx + u_x^2")
        c = cov.to_covariant(pde, CFG)
        assert c.degree == 3

    def test_quadratic_gradient(self):
        # g^{ab} u_a u_b + b -> g^{ab} w_a w_b + b w_n^2
        pde = parse("coords: x, y; dep: u\nlhs: u_x*u_y + u")
        c = cov.to_covariant(pde, CFG)
        want = c.space.parse("w_x*w_y + u*w_u^2")
        assert nm.exprs_equal(c.lhs, want, CFG)

    @pytest.mark.parametrize("text", PDE_BATTERY)
    def test_battery_rescale_invariant(self, text):
        pde = parse(text)
        c = cov.to_covariant(pde, CFG)  # raises if not homogeneous/invariant
        cov.rescale_invariance_check(c.lhs, c.space, CFG)

    @pytest.mark.parametrize("text", PDE_BATTERY)
    def test_battery_round_trip(self, text):
        pde = parse(text)
        c = cov.to_covariant(pde, CFG)
        back = cov.from_covariant(c, CFG)
        diff = ex.add(back.lhs, ex.mul(ex.Const(-1), pde.lhs))
        assert nm.is_zero(diff, CFG,
                          extra_denoms=ex.denominator_symbols(diff))


class TestCovariantPDE:
    """A covariant form checks its own contract when it is made."""

    Z = cov.wspace_for(cov.parse_pde("coords: x, y; dep: u\nlhs: u_x").space)

    def test_non_invariant_form_cannot_be_made(self):
        with pytest.raises(NotRescaleInvariant):
            cov.CovariantPDE(self.Z, self.Z.parse("w_xx*w_u"), "u", CFG)

    def test_degree_is_derived(self):
        lhs = self.Z.parse("2*w_x*w_y + 3*w_x*w_u + w_u^2")
        assert cov.CovariantPDE(self.Z, lhs, "u", CFG).degree == 2

    def test_round_trip_checks_once(self, monkeypatch):
        calls = {"homogeneity_degree": 0, "rescale_invariance_check": 0}
        for name in calls:
            fn = getattr(cov, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cov, name, counted)
        c = cov.to_covariant(parse("coords: x; dep: u\nlhs: u_xx + u_x^2"), CFG)
        cov.from_covariant(c, CFG)
        assert calls == {"homogeneity_degree": 1, "rescale_invariance_check": 1}


class TestRescaleOperators:
    def test_homogeneity_degree_monomial(self):
        z = cov.wspace_for(parse("coords: x; dep: u\nlhs: u_x").space)
        assert cov.homogeneity_degree(z.parse("w_x^2*w_u"), z, CFG) == 3

    def test_w11_not_invariant(self):
        z = cov.wspace_for(parse("coords: x; dep: u\nlhs: u_x").space)
        with pytest.raises(NotRescaleInvariant):
            cov.rescale_invariance_check(z.parse("w_xx"), z, CFG)

    def test_quadratic_form_back_conversion(self):
        # degree-2 form in first derivatives maps back to
        # g^{ab} u_a u_b - 2 g^{na} u_a + g^{nn}
        space = parse("coords: x, y; dep: u\nlhs: u_x").space
        z = cov.wspace_for(space)
        lhs = z.parse("2*w_x*w_y + 3*w_x*w_u + w_u^2")
        c = cov.CovariantPDE(z, lhs, "u", CFG)
        assert c.degree == 2
        back = cov.from_covariant(c, CFG)
        assert nm.exprs_equal(back.lhs,
                              back.space.parse("2*u_x*u_y - 3*u_x + 1"), CFG)

    def test_j_invariants_are_rescale_invariant_degree_zero(self):
        space = parse("coords: x, y; dep: u\nlhs: u_x").space
        z = cov.wspace_for(space)
        first, second = cov.J_invariants(z, "u")
        for e in list(first.values()) + list(second.values()):
            denoms = ex.denominator_symbols(e)
            # degree 0 under the Euler operator
            de = cov.euler_operator(e, z)
            assert nm.is_zero(de, CFG, extra_denoms=denoms)
            # annihilated by every rescale field R_j
            for rj in cov.rescale_fields(e, z):
                assert nm.is_zero(rj, CFG, extra_denoms=denoms)
