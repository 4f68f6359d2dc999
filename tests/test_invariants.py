"""Pipelines: invariant sets, templates, serialization, failure modes."""

import json
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.errors import ResidualDependence
from lieinv.invariants import (
    InvariantSet,
    eliminate_w,
    instantiate_template,
    realize_free,
    realize_transitive,
    type1_pipeline,
    type2_pipeline,
)

CFG = nm.SamplerConfig()
F = Fraction


class TestType2:
    def test_2g1(self):
        inv = type2_pipeline(liealg.catalog_lookup("2g1", {}), CFG)
        assert inv.verified
        got = inv.labelled()
        assert nm.equivalence_check(
            [got["v_1"], got["v_12"]],
            [inv.space.parse("u_x"), inv.space.parse("u_xx")], CFG)

    def test_g2(self):
        inv = type2_pipeline(liealg.catalog_lookup("g2", {}), CFG)
        sp = inv.space
        assert nm.equivalence_check(
            inv.exprs(),
            [sp.parse("exp(u)*u_x"), sp.parse("exp(2*u)*u_xx")], CFG)

    def test_invariant_count_3d(self):
        inv = type2_pipeline(liealg.catalog_lookup("3g1", {}), CFG)
        assert len(inv.invariants) == 5  # 2 first-order + 3 second-order

    def test_rejects_dim_1(self):
        with pytest.raises(ValueError):
            type2_pipeline(liealg.catalog_lookup("g1", {}), CFG)

    def test_template_structure(self):
        inv = type2_pipeline(liealg.catalog_lookup("g2", {}), CFG)
        t = inv.template
        assert t.heads == ("b",)
        assert ex.applied_heads(t.lhs) == {"b"}

    def test_template_instantiation_is_invariant(self):
        entry = liealg.catalog_lookup("g2", {})
        inv = type2_pipeline(entry, CFG)
        concrete = instantiate_template(
            inv.template, {"b": lambda a: ex.add(ex.pow_(a, 2), ex.ONE)})
        gens = realize_transitive(entry).generators
        denoms = ex.denominator_symbols(concrete)
        for g in gens:
            assert nm.is_zero(g.apply(concrete), CFG, extra_denoms=denoms)


class TestType1:
    def test_g1_m1_count(self):
        inv = type1_pipeline(liealg.catalog_lookup("g1", {}), 1, CFG)
        assert len(inv.invariants) == 3
        assert inv.verified

    def test_counts_match_orbit_codimension(self):
        # jet dimension minus orbit dimension, for n = 3, m in {1, 2}
        entry = liealg.catalog_lookup("3g1", {})
        assert len(type1_pipeline(entry, 1, CFG).invariants) == 10
        assert len(type1_pipeline(entry, 2, CFG).invariants) == 16

    def test_g2_contains_printed_mixed_invariant(self):
        inv = type1_pipeline(liealg.catalog_lookup("g2", {}), 1, CFG)
        sp = inv.space
        target = sp.parse("exp(x2)*(u_x1x2 + u_x1/2)")
        assert nm.equivalence_check(inv.exprs(),
                                    inv.exprs() + [target], CFG)

    def test_y_coordinates_are_invariants(self):
        inv = type1_pipeline(liealg.catalog_lookup("2g1", {}), 2, CFG)
        labels = list(inv.labelled())
        assert "y1" in labels


class TestSerialization:
    def test_json_schema(self):
        inv = type2_pipeline(liealg.catalog_lookup("g2", {}), CFG)
        payload = json.loads(inv.to_json())
        assert payload["pipeline"] == "II"
        assert payload["algebra"] == "g2"
        assert payload["verified"] is True
        assert all({"label", "expr"} <= set(row) for row in payload["invariants"])

    def test_json_pipeline_tag_free(self):
        inv = type1_pipeline(liealg.catalog_lookup("g1", {}), 1, CFG)
        assert json.loads(inv.to_json())["pipeline"] == "I"

    def test_json_deterministic(self):
        inv = type2_pipeline(liealg.catalog_lookup("g2", {}), CFG)
        assert inv.to_json() == inv.to_json()


class TestEliminateW:
    def test_raw_frame_derivative_triggers_residual_dependence(self):
        # w_(1) for an algebra whose first frame direction moves the
        # dependent coordinate: without the implicit-function substitution
        # it still contains w_n and must be rejected
        from lieinv.jet import JetSpace

        entry = liealg.catalog_lookup("g3_1", {})
        wspace = entry.split_space("w")
        indep = tuple(c for c in wspace.coords if c != entry.dep)
        split = JetSpace(indep, entry.dep, params=wspace.params)
        _, eta = entry.fields(wspace)
        raw = eta[0].frame_derivative(ex.Sym(wspace.jet()))
        with pytest.raises(ResidualDependence):
            eliminate_w(raw, wspace, split, entry.dep, CFG, {}, "w_(1)")


class TestGenerators:
    def test_free_realization_annihilates_pipeline_output(self):
        entry = liealg.catalog_lookup("g3_1", {})
        gens = realize_free(entry, 1).generators
        inv = type1_pipeline(entry, 1, CFG)
        for e in inv.exprs():
            denoms = ex.denominator_symbols(e)
            for g in gens:
                assert nm.is_zero(g.apply(e), CFG, extra_denoms=denoms)

    def test_transitive_generator_count(self):
        entry = liealg.catalog_lookup("g3_7", {})
        real = realize_transitive(entry)
        space, gens = real.space, real.generators
        assert len(gens) == 3
        assert space.coords == ("x", "y")
