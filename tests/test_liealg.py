"""Structure constants, Jacobi validation, catalog, invariant frame fields."""

import dataclasses
import json
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import liealg
from lieinv import numeric as nm
from lieinv import putzer
from lieinv.errors import CatalogError, JacobiViolation, VerificationFailed
from lieinv.invariants import realize
from lieinv.jet import JetSpace, VectorField

from helpers import count_gates, eval_numeric, fields

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
        xi, eta = fields(entry)
        liealg.verify_realization(xi, eta, entry.sc, CFG)

    @pytest.mark.parametrize("name,params", [
        ("g3_4", {"h": F(-1, 3)}),
        ("g3_4", {"h": F(2, 5)}),
        ("g3_5", {"p": F(3)}),
        ("g3_5", {"p": F(1, 4)}),
    ])
    def test_realization_gate_parametrized(self, name, params):
        entry = liealg.catalog_lookup(name, params)
        xi, eta = fields(entry)
        liealg.verify_realization(xi, eta, entry.sc, CFG)

    def test_fields_reduce_to_coordinate_frame_at_origin(self):
        entry = liealg.catalog_lookup("g3_7", {})
        space = entry.split_space()
        xi, eta = fields(entry, space)
        origin = {c: 0.0 for c in space.coords}
        for i, f in enumerate(xi):
            for j, c in enumerate(space.coords):
                val = eval_numeric(f.component(c), origin)
                assert val == pytest.approx(1.0 if i == j else 0.0)

    def test_build_from_raw_constants(self):
        sc, _ = liealg.load_algebra(SO3_JSON)
        space = liealg.catalog_lookup("g3_7", {}).split_space()
        xi, eta = liealg.build_invariant_fields(sc, space)
        liealg.verify_realization(xi, eta, sc, CFG)

    def test_broken_constants_fail_gate(self):
        # valid algebra, but frames deliberately mismatched: check the gate
        # actually detects wrong commutation relations
        entry = liealg.catalog_lookup("g2", {})
        other = liealg.catalog_lookup("2g1", {})
        xi, _ = fields(entry)
        _, eta = fields(other)
        with pytest.raises(VerificationFailed, match="realization gate"):
            liealg.verify_realization(xi, eta, entry.sc, CFG)

    def test_non_finite_det_fails_gate(self):
        # the frames commute, but det = exp(710 + x + y) overflows to inf
        space = JetSpace(("x", "y"), "u")
        xi = [VectorField.from_dict(space, {"x": "exp(355+x)"}),
              VectorField.from_dict(space, {"y": "exp(355+y)"})]
        sc = liealg.StructureConstants.from_dict(2, {})
        with pytest.raises(VerificationFailed) as exc:
            liealg.verify_realization(xi, xi, sc, CFG)
        # only the determinant fails: no bracket is listed
        assert str(exc.value).endswith("['det']")
        assert "[xi" not in str(exc.value) and "[eta" not in str(exc.value)

    def test_one_exponential_per_generator(self, monkeypatch):
        calls = []
        exp = putzer.exp_matrix_expr

        def counted(*args):
            calls.append(args)
            return exp(*args)

        monkeypatch.setattr(putzer, "exp_matrix_expr", counted)
        entry = liealg.catalog_lookup("g3_6", {})
        # the uncached builder: a memo hit would make no exponential at all
        liealg._gated_frames.__wrapped__(entry.sc, entry.split_space(), CFG)
        assert 0 < len(calls) <= 3

    @pytest.mark.parametrize("name,params", [
        (name, params) for name in liealg.CATALOG_NAMES
        for params in ([{"h": F(1, 2)}, {"h": F(-1)}, {"h": F(-1, 3)}]
                       if name == "g3_4" else
                       [{"p": F(0)}, {"p": F(1)}, {"p": F(5, 2)}, {"p": F(3)}]
                       if name == "g3_5" else [{}])
    ])
    def test_inverse_exponential_is_negated_coordinate(self, name, params):
        # exp(-z ad_k) by Putzer equals exp(z ad_k) at z -> -z, structurally
        entry = liealg.catalog_lookup(name, params)
        z = ex.Sym(entry.split_space().base(entry.split_coords[0]))
        for k in range(1, entry.dim + 1):
            ad = entry.sc.ad(k)
            flipped = [[ex.substitute(v, {z.symbol: ex.mul(ex.Const(-1), z)})
                        for v in row] for row in putzer.exp_matrix_expr(ad, z)]
            direct = putzer.exp_matrix_expr([[-v for v in row] for row in ad],
                                            z)
            assert flipped == direct, (name, params, k)


class TestFrameMemo:
    def test_equal_spaces_share_one_entry(self):
        liealg._gated_frames.cache_clear()
        entry = liealg.catalog_lookup("g3_4", {"h": F(-1, 3)})
        a, b = entry.split_space(), entry.split_space()
        assert a is not b
        first = liealg.build_invariant_fields(entry.sc, a)
        second = liealg.build_invariant_fields(entry.sc, b)
        info = liealg._gated_frames.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert second is first
        # the memo holds what the builder makes
        assert first == liealg._gated_frames.__wrapped__(entry.sc, b, CFG)

    def test_other_constants_are_another_entry(self):
        liealg._gated_frames.cache_clear()
        space = liealg.catalog_lookup("g3_5", {}).split_space()
        for p in (F(1), F(2), F(1)):
            entry = liealg.catalog_lookup("g3_5", {"p": p})
            liealg.build_invariant_fields(entry.sc, space)
        info = liealg._gated_frames.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_returned_frames_cannot_be_altered(self):
        liealg._gated_frames.cache_clear()
        entry = liealg.catalog_lookup("g2", {})
        xi, eta = fields(entry)
        want = [[comp for _, comp in f.components] for f in xi + eta]
        with pytest.raises(TypeError):
            xi[0] = eta[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            xi[0].components = ()
        xi2, eta2 = fields(entry)
        assert [[comp for _, comp in f.components] for f in xi2 + eta2] == want

    def test_frames_are_gated_once_where_they_are_made(self, monkeypatch):
        calls = count_gates(monkeypatch)
        entry = liealg.catalog_lookup("g3_6", {})
        first = liealg.build_invariant_fields(entry.sc, entry.split_space())
        assert len(calls) == 1
        assert calls[0][:3] == (*first, entry.sc)
        second = liealg.build_invariant_fields(entry.sc, entry.split_space())
        assert len(calls) == 1 and second is first

    def test_two_argument_call_after_realize_builds_nothing(self, monkeypatch):
        # the benchmark asks for the frames of a pipeline's z-space without a
        # configuration: the default one shares the pipeline's memo entry
        calls = count_gates(monkeypatch)
        entry = liealg.catalog_lookup("g3_1", {})
        zspace = entry.split_space("w")
        realize(entry, zspace, JetSpace(("x", "y"), "u"), nm.SamplerConfig())
        built = liealg._gated_frames.cache_info().misses
        assert (len(calls), built) == (1, 1)
        liealg.build_invariant_fields(entry.sc, zspace)
        assert len(calls) == 1
        assert liealg._gated_frames.cache_info().misses == built
