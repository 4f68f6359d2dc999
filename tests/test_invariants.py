"""Pipelines: invariant sets, templates, serialization, failure modes."""

import json
from fractions import Fraction

import pytest

from lieinv import covariant
from lieinv import expr as ex
from lieinv import invariants
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.errors import ResidualDependence, VerificationFailed
from lieinv.invariants import (
    eliminate_w,
    instantiate_template,
    realize,
    type1_pipeline,
    type2_pipeline,
)
from lieinv.jet import JetSpace
from lieinv.verify import TABLE_ROWS, run_fixture_suite

from helpers import count_gates, fields

CFG = nm.SamplerConfig()
F = Fraction
TRANSITIVE_ROWS = [(name, params)
                   for table in ("2d-transitive", "3d-transitive")
                   for name, _, _, params in TABLE_ROWS[table]]


def _epod_substitutions(wspace, split, dep):
    """Inverse implicit-function relations: w-jets in terms of split jets.

    w_a = -u_a w_n and w_ab = -w_n u_ab - w_bn u_a - w_an u_b - u_a u_b w_nn;
    the residual jets {w_n, w_an, w_nn} are kept as symbols.  The reference
    for eliminate_w, which skips this lift: lift then section must give
    exactly the section.
    """
    wn = ex.Sym(wspace.jet(dep))
    wnn = ex.Sym(wspace.jet(dep, dep))
    subs = {wspace.base(dep): ex.Sym(split.jet())}
    indep = [c for c in wspace.coords if c != dep]
    for a in indep:
        subs[wspace.jet(a)] = ex.mul(ex.Const(-1), ex.Sym(split.jet(a)), wn)
    for i, a in enumerate(indep):
        for b in indep[i:]:
            ua, ub = ex.Sym(split.jet(a)), ex.Sym(split.jet(b))
            subs[wspace.jet(a, b)] = ex.add(
                ex.mul(ex.Const(-1), wn, ex.Sym(split.jet(a, b))),
                ex.mul(ex.Const(-1), ex.Sym(wspace.jet(dep, b)), ua),
                ex.mul(ex.Const(-1), ex.Sym(wspace.jet(dep, a)), ub),
                ex.mul(ex.Const(-1), ua, ub, wnn),
            )
    return subs


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
        assert {a.head for a in ex.applications(t.lhs)} == {"b"}

    def test_template_instantiation_is_invariant(self):
        entry = liealg.catalog_lookup("g2", {})
        inv = type2_pipeline(entry, CFG)
        concrete = instantiate_template(
            inv.template, {"b": lambda a: ex.add(ex.pow_(a, 2), ex.ONE)})
        gens = realize(entry, entry.split_space("w"), inv.space, CFG)[1]
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
    @pytest.mark.parametrize("name, params", TRANSITIVE_ROWS)
    def test_section_is_lift_then_section(self, name, params, monkeypatch):
        # on every transitive row, the section of the w-space invariant
        # renders exactly like the epod lift followed by the section
        pairs = []

        def recording(e, wspace, split, *args, **kwargs):
            got = eliminate_w(e, wspace, split, *args, **kwargs)
            lifted = ex.substitute(e, _epod_substitutions(wspace, split,
                                                          split.dep))
            want = ex.substitute(lifted,
                                 covariant.normalized_section(wspace, split))
            pairs.append((ex.render(got), ex.render(want)))
            return got

        monkeypatch.setattr(invariants, "eliminate_w", recording)
        inv = type2_pipeline(liealg.catalog_lookup(name, params), CFG)
        assert len(pairs) == len(inv.invariants)
        for got, want in pairs:
            assert got == want

    def test_degree_zero_but_not_rescale_invariant(self):
        split = JetSpace(("x",), "u")
        wspace = covariant.wspace_for(split)
        e = wspace.parse("w_xx/w_u")
        assert covariant.homogeneity_degree(e, wspace) == 0
        with pytest.raises(ResidualDependence, match="R_x"):
            eliminate_w(e, wspace, split, CFG)

    def test_raw_frame_derivative_triggers_residual_dependence(self):
        # w_(1) for an algebra whose first frame direction moves the
        # dependent coordinate has degree 1, so it depends on w_n

        entry = liealg.catalog_lookup("g3_1", {})
        wspace = entry.split_space("w")
        indep = tuple(c for c in wspace.coords if c != entry.dep)
        split = JetSpace(indep, entry.dep, params=wspace.params)
        _, eta = fields(entry, wspace)
        raw = eta[0].frame_derivative(ex.Sym(wspace.jet()))
        with pytest.raises(ResidualDependence):
            eliminate_w(raw, wspace, split, CFG, "w_(1)")


class TestGenerators:
    def test_free_realization_annihilates_pipeline_output(self):
        entry = liealg.catalog_lookup("g3_1", {})
        inv = type1_pipeline(entry, 1, CFG)
        gens = realize(entry, inv.space, inv.space, CFG)[1]
        for e in inv.exprs():
            denoms = ex.denominator_symbols(e)
            for g in gens:
                assert nm.is_zero(g.apply(e), CFG, extra_denoms=denoms)

    def test_transitive_generator_count(self):
        # the generators act on the split space, where u is the graph
        inv = type2_pipeline(liealg.catalog_lookup("g3_7", {}), CFG)
        assert len(inv.generators) == 3
        assert inv.space.coords == ("x", "y")
        assert all(g.space is inv.space for g in inv.generators)


class TestNoParameterSymbols:
    def test_generated_expressions_have_no_parameter(self):
        # catalog_lookup puts the parameter values into the structure
        # constants, so the pipelines' checks need no parameter map
        rows = [(name, pipeline, m, params)
                for table in TABLE_ROWS.values()
                for name, pipeline, m, params in table]
        assert len(rows) == 38
        for name, params in (("g3_4", {"h": F(-1, 3)}), ("g3_5", {"p": F(5, 2)})):
            rows += [(name, "free", 1, params), (name, "free", 2, params),
                     (name, "transitive", None, params)]
        for name, pipeline, m, params in rows:
            entry = liealg.catalog_lookup(name, params)
            inv = type1_pipeline(entry, m, CFG) if pipeline == "free" \
                else type2_pipeline(entry, CFG)
            exprs = inv.exprs() + [inv.template.lhs] + [
                c for g in inv.generators for c in g.coefficients.values()]
            kinds = {s.kind for e in exprs for s in e.free_symbols()}
            assert ex.PARAM not in kinds, (name, pipeline, m, params)


class TestRealizationMemo:
    def test_suite_gates_each_key_once(self, monkeypatch):
        # 2g1 and g2 at m = 1 and m = 2: the free rows of one algebra share
        # their frames on x1, x2
        calls = count_gates(monkeypatch)
        report = run_fixture_suite(["2d-free"], CFG)
        assert report.passed and len(report.rows) == 4
        assert len(calls) == 2

    def test_equal_spaces_share_one_gate(self, monkeypatch):
        calls = count_gates(monkeypatch)
        entry = liealg.catalog_lookup("g3_7", {})
        for _ in range(2):
            wspace = entry.split_space("w")
            realize(entry, wspace, JetSpace(("x", "y"), "u"), CFG)
        assert len(calls) == 1
        assert liealg._gated_frames.cache_info().hits == 1

    def test_other_cfg_gates_again(self, monkeypatch):
        calls = count_gates(monkeypatch)
        entry = liealg.catalog_lookup("g2", {})
        other = nm.SamplerConfig(seed=CFG.seed + 1)
        for cfg in (CFG, other, CFG, other):
            type1_pipeline(entry, 1, cfg)
        assert [c[3] for c in calls] == [CFG, other]

    def test_failing_gate_is_not_stored(self, monkeypatch):
        # g2's xi frames with the two swapped: [xi1, xi2] is then -xi2, not
        # xi1, so the gate fails exactly
        calls = count_gates(monkeypatch)
        gate = liealg.verify_realization

        def swapped(xi, eta, sc, cfg):
            return gate((xi[1], xi[0]), eta, sc, cfg)

        monkeypatch.setattr(liealg, "verify_realization", swapped)
        entry = liealg.catalog_lookup("g2", {})
        raised = []
        for _ in range(2):
            with pytest.raises(VerificationFailed,
                               match="realization gate") as err:
                type1_pipeline(entry, 1, CFG)
            raised.append(str(err.value))
        assert len(calls) == 2
        assert raised[0] == raised[1]
        assert liealg._gated_frames.cache_info().currsize == 0

    def test_generators_cannot_alter_the_memo(self):
        entry = liealg.catalog_lookup("g3_1", {})
        inv = type2_pipeline(entry, CFG)
        want = [dict(g.coefficients) for g in inv.generators]
        for g in inv.generators:
            g.coefficients.clear()
        eta, gens = realize(entry, entry.split_space("w"), inv.space, CFG)
        assert [g.coefficients for g in gens] == want
        assert isinstance(eta, tuple) and isinstance(gens, tuple)


class TestExactlyDecidedVerdicts:
    # g3_5 derivations that float rounding refused: each escalated residual
    # expands to 0.  The transitive family at p = 3 was "not annihilated",
    # at p = 10/3 a ResidualDependence; the free families at p = 7 were
    # "not annihilated", and the p = 13 frames failed the realization gate.
    @pytest.mark.parametrize("p, m", [
        (F(3), None), (F(10, 3), None), (F(7), 1), (F(7), 2), (F(13), 1)],
        ids=["transitive-p3", "transitive-p10_3", "free1-p7", "free2-p7",
             "gate-p13"])
    def test_g3_5_derives(self, p, m):
        entry = liealg.catalog_lookup("g3_5", {"p": p})
        if m is None:
            inv = type2_pipeline(entry, CFG)
        else:
            inv = type1_pipeline(entry, m, CFG)
        assert inv.verified
