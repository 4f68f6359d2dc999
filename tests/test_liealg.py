"""Structure constants, Jacobi validation, catalog, invariant frame fields."""

import json
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.errors import CatalogError, JacobiViolation
from lieinv.jet import JetSpace, VectorField

CFG = nm.SamplerConfig()
F = Fraction

SO3_JSON = json.dumps({
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 2, "c": "-1"}]},
    ],
})


class TestLoadValidate:
    def test_load_so3(self):
        sc, params = liealg.load_algebra(SO3_JSON)
        assert sc.dim == 3
        assert params == {}
        assert sc.coeff(1, 2, 3) == 1
        assert sc.coeff(2, 1, 3) == -1  # antisymmetry

    def test_load_with_params(self):
        sc, params = liealg.load_algebra(json.dumps({
            "dim": 2,
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "c": "1/2"}]}],
            "params": {"h": "1/3"},
        }))
        assert sc.coeff(1, 2, 1) == F(1, 2)
        assert params == {"h": F(1, 3)}

    def test_abelian_is_valid(self):
        sc, _ = liealg.load_algebra(json.dumps({"dim": 3, "brackets": []}))
        assert sc.dim == 3

    def test_jacobi_violation_reports_quadruple(self):
        bad = json.dumps({
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "terms": [{"k": 2, "c": "1"}]},
                {"i": 1, "j": 3, "terms": [{"k": 3, "c": "1"}]},
                {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
            ],
        })
        with pytest.raises(JacobiViolation) as err:
            liealg.load_algebra(bad)
        assert err.value.quadruple == (1, 2, 3, 1)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            liealg.load_algebra(json.dumps({
                "dim": 2,
                "brackets": [{"i": 2, "j": 1, "terms": [{"k": 1, "c": "1"}]}],
            }))


class TestCatalog:
    def test_names_present(self):
        for name in ("g1", "2g1", "g2", "3g1", "g1+g2", "g3_1", "g3_2",
                     "g3_3", "g3_4", "g3_5", "g3_6", "g3_7"):
            assert name in liealg.CATALOG_NAMES

    def test_alias_so3(self):
        assert liealg.catalog_lookup("so3", {}).name == "g3_7"
        assert liealg.catalog_lookup("so(3)", {}).name == "g3_7"

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            liealg.catalog_lookup("g99", {})

    def test_g3_4_param_constraints(self):
        liealg.catalog_lookup("g3_4", {"h": F(1, 2)})
        liealg.catalog_lookup("g3_4", {"h": F(-1)})
        for bad in (F(0), F(1), F(2)):
            with pytest.raises(CatalogError):
                liealg.catalog_lookup("g3_4", {"h": bad})

    def test_g3_5_param_constraints(self):
        liealg.catalog_lookup("g3_5", {"p": F(0)})
        with pytest.raises(CatalogError):
            liealg.catalog_lookup("g3_5", {"p": F(-1)})

    def test_param_default(self):
        entry = liealg.catalog_lookup("g3_4", {})
        assert entry.param_map["h"] == F(1, 2)


class TestInvariantFields:
    @pytest.mark.parametrize("name", liealg.CATALOG_NAMES)
    def test_realization_gate(self, name):
        entry = liealg.catalog_lookup(name, {})
        xi, eta = entry.fields()
        rep = liealg.verify_realization(xi, eta, entry.sc, CFG,
                                        entry.param_map)
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("name,params", [
        ("g3_4", {"h": F(-1, 3)}),
        ("g3_4", {"h": F(2, 5)}),
        ("g3_5", {"p": F(3)}),
        ("g3_5", {"p": F(1, 4)}),
    ])
    def test_realization_gate_parametrized(self, name, params):
        entry = liealg.catalog_lookup(name, params)
        xi, eta = entry.fields()
        rep = liealg.verify_realization(xi, eta, entry.sc, CFG,
                                        entry.param_map)
        assert rep.passed, rep.failures()

    def test_fields_reduce_to_coordinate_frame_at_origin(self):
        entry = liealg.catalog_lookup("g3_7", {})
        space = entry.split_space()
        xi, eta = entry.fields(space)
        origin = {c: 0.0 for c in space.coords}
        for i, f in enumerate(xi):
            for j, c in enumerate(space.coords):
                val = ex.eval_numeric(f.component(c), origin)
                assert val == pytest.approx(1.0 if i == j else 0.0)

    def test_build_from_raw_constants(self):
        sc, _ = liealg.load_algebra(SO3_JSON)
        space = liealg.catalog_lookup("g3_7", {}).split_space()
        xi, eta = liealg.build_invariant_fields(sc, space)
        rep = liealg.verify_realization(xi, eta, sc, CFG, {})
        assert rep.passed, rep.failures()

    def test_broken_constants_fail_gate(self):
        # valid algebra, but frames deliberately mismatched: check the gate
        # actually detects wrong commutation relations
        entry = liealg.catalog_lookup("g2", {})
        other = liealg.catalog_lookup("2g1", {})
        xi, _ = entry.fields()
        _, eta = other.fields()
        rep = liealg.verify_realization(xi, eta, entry.sc, CFG, {})
        assert not rep.passed

    def test_non_finite_det_fails_gate(self):
        # the frames commute, but det = exp(710 + x + y) overflows to inf
        space = JetSpace(("x", "y"), "u")
        xi = [VectorField.from_dict(space, {"x": "exp(355+x)"}),
              VectorField.from_dict(space, {"y": "exp(355+y)"})]
        sc = liealg.StructureConstants.from_dict(2, {})
        rep = liealg.verify_realization(xi, xi, sc, CFG, {})
        assert all(ok for _, ok in rep.pairs)
        assert rep.det_nonzero is False
