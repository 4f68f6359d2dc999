"""Verification suite: fixture self-tests, reports, negative controls."""

import dataclasses
import functools
import json
import re
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import fixtures as fx
from lieinv import liealg
from lieinv import numeric as nm
from lieinv import invariants
from lieinv import verify
from lieinv.errors import VerificationFailed
from lieinv.invariants import (
    realize,
    type1_pipeline,
    type2_pipeline,
)
from lieinv.jet import ProlongedField
from lieinv.verify import (
    TABLE_ROWS,
    annihilation_check,
    run_fixture_suite,
    template_spot_check,
)

from helpers import (
    eval_numeric,
    fields,
    perturbed_variants,
    so3_split_space,
    so3_z_space,
)

CFG = nm.SamplerConfig()


def _transitive_generators(entry):
    fixture = fx.transitive_fixture(entry.name)
    return realize(entry, entry.split_space("w"), fixture.space(), CFG)[1]


class TestFixtureSelfTest:
    @pytest.mark.parametrize("name", fx.TRANSITIVE_NAMES)
    def test_transitive_fixtures_annihilated(self, name):
        entry = liealg.catalog_lookup(name, {})
        gens = _transitive_generators(entry)
        for label, e in fx.transitive_fixture(name).parsed():
            assert annihilation_check(gens, e, CFG, entry.param_map), label

    @pytest.mark.parametrize("name", fx.FREE_NAMES)
    def test_free_fixtures_annihilated(self, name):
        entry = liealg.catalog_lookup(name, {})
        fixture = fx.free_fixture(name, 1)
        gens = realize(entry, fixture.space(), fixture.space(), CFG)[1]
        for label, e in fixture.parsed():
            assert annihilation_check(gens, e, CFG, entry.param_map), label


class TestSharedPartials:
    @staticmethod
    def _g3_7_v13():
        entry = liealg.catalog_lookup("g3_7", {})
        gens = _transitive_generators(entry)
        assert len(gens) == 3
        e = dict(fx.transitive_fixture("g3_7").parsed())["v_13"]
        return entry, gens, e

    @staticmethod
    def _record(monkeypatch, gens):
        """Count diff calls; log (generator, current point) for every apply."""
        diffs, applied, points = [], [], []
        diff, gradient, apply = ex.diff, ex.compile_gradient, ProlongedField.apply

        def counting_diff(x, s):
            diffs.append(s)
            return diff(x, s)

        def recording_gradient(x, wrt=None):
            wrt, grad = gradient(x, wrt)

            def at(pt):
                points.append(pt)
                return grad(pt)
            return wrt, at

        def logging_apply(field, x):
            applied.append((gens.index(field), points[-1]))
            return apply(field, x)

        monkeypatch.setattr(ex, "diff", counting_diff)
        monkeypatch.setattr(ex, "compile_gradient", recording_gradient)
        monkeypatch.setattr(ProlongedField, "apply", logging_apply)
        return diffs, applied

    def test_accepting_check_builds_no_residual(self, monkeypatch):
        entry, gens, e = self._g3_7_v13()
        diffs, applied = self._record(monkeypatch, gens)
        assert annihilation_check(gens, e, CFG, entry.param_map)
        assert diffs == [] and applied == []

    def test_rejecting_check_applies_only_generators_over_tol(self, monkeypatch):
        entry, gens, e = self._g3_7_v13()
        variant = perturbed_variants(e, gens[0].space)[0]
        _, applied = self._record(monkeypatch, gens)
        assert not annihilation_check(gens, variant, CFG, entry.param_map)
        monkeypatch.undo()
        assert applied
        assert len({k for k, _ in applied}) == len(applied)  # built once each
        for k, pt in applied:
            # the float residual at that point, from the symbolic partials
            residual = sum(
                eval_numeric(c, pt) * eval_numeric(ex.diff(variant, s), pt)
                for s, c in gens[k].coefficients.items())
            assert abs(residual) > CFG.tol


class TestNegativeControls:
    @pytest.mark.parametrize("name", ["g2", "g3_1", "g3_7"])
    def test_perturbed_invariants_fail(self, name):
        entry = liealg.catalog_lookup(name, {})
        gens = _transitive_generators(entry)
        fixture = fx.transitive_fixture(name)
        space = fixture.space()
        # perturb the highest-order invariant (always multi-term or moved)
        label, e = fixture.parsed()[-1]
        variants = perturbed_variants(e, space)
        assert len(variants) == 3
        for variant in variants:
            assert not annihilation_check(gens, variant, CFG,
                                          entry.param_map), label

    def test_single_term_invariant_perturbation(self):
        entry = liealg.catalog_lookup("2g1", {})
        gens = _transitive_generators(entry)
        fixture = fx.transitive_fixture("2g1")
        _, e = fixture.parsed()[0]  # u_x, a single term
        for variant in perturbed_variants(e, fixture.space()):
            assert not annihilation_check(gens, variant, CFG)


ROWS = [(table,) + row for table, rows in TABLE_ROWS.items() for row in rows]
ROW_IDS = [f"{i}-{t}-{a}-{p}" + ("" if m is None else f"-m{m}")
           + "".join(f"-{k}={v}" for k, v in params.items())
           for i, (t, a, p, m, params) in enumerate(ROWS)]


@functools.lru_cache(maxsize=None)
def _derived(index):
    """(InvariantSet, fixture expressions with the row's values bound) of
    table row `index`."""
    _, algebra, pipeline, m, params = ROWS[index]
    entry = liealg.catalog_lookup(algebra, params)
    if pipeline == "free":
        inv = type1_pipeline(entry, m, CFG)
        fixture = fx.free_fixture(algebra, m)
    else:
        inv = type2_pipeline(entry, CFG)
        fixture = fx.transitive_fixture(algebra)
    return inv, [ex.bind(e, entry.param_map) for e in fixture.exprs()]


def _moved_coordinate(inv):
    """The first base coordinate that some generator moves."""
    space = inv.space
    for c in space.coords:
        if any(f.coefficients.get(space.base(c), ex.ZERO) != ex.ZERO
               for f in inv.generators):
            return ex.Sym(space.base(c))
    raise AssertionError("no generator moves a base coordinate")


class TestRowControls:
    """Mutants that are non-invariant by construction, on every table row."""

    @pytest.mark.parametrize("index", range(len(ROWS)), ids=ROW_IDS)
    def test_template_mutants_rejected(self, index):
        inv, _ = _derived(index)
        t = inv.template
        x = ex.Sym(t.space.base(t.space.coords[0]))
        slot = next(a for a in ex.applications(t.lhs) if a.head == t.heads[0])
        shift = ex.mul(ex.Const(Fraction(1, 10)), x)
        for extra in (shift, ex.mul(shift, slot)):
            mutant = dataclasses.replace(t, lhs=ex.add(t.lhs, extra))
            assert not template_spot_check(mutant, inv.generators, CFG), \
                ex.render(extra)

    @pytest.mark.parametrize("index", range(len(ROWS)), ids=ROW_IDS)
    def test_equivalence_mutants_rejected(self, index):
        inv, fixture = _derived(index)
        generated = inv.exprs()
        drop = index % len(generated)
        dropped = generated[:drop] + generated[drop + 1:]
        assert not nm.equivalence_check(dropped, fixture, CFG)
        grown = generated + [_moved_coordinate(inv)]
        assert not nm.equivalence_check(grown, fixture, CFG)

    @pytest.mark.parametrize("index", range(len(ROWS)), ids=ROW_IDS)
    def test_invariant_mutants_rejected(self, index):
        # I + x/10 and I*(1 + x/10) with x moved by some generator: X I = 0
        # and X x != 0 make both non-invariant
        inv, _ = _derived(index)
        shift = ex.mul(ex.Const(Fraction(1, 10)), _moved_coordinate(inv))
        for label, e in inv.invariants:
            for mutant in (ex.add(e, shift), ex.mul(e, ex.add(ex.ONE, shift))):
                assert not annihilation_check(inv.generators, mutant,
                                              CFG), (label, ex.render(mutant))


SMALL_ROWS = [i for i, row in enumerate(ROWS) if row[1] in ("g3_6", "g3_7")]


class TestRelativeAccept:
    """A point passes for (i, k) only where |r| <= tol*min(1, S), with S the
    sum of the magnitudes of the terms that sum to r: a residual is not
    accepted for being small, and a small invariant is not refused for it."""

    @pytest.mark.parametrize("k", [7, 8, 9, 12])
    def test_small_constant_shift_is_refused(self, k):
        # X = d/dx moves u_x + x/10^k by the constant 10^-k, below tol
        entry = liealg.catalog_lookup("2g1", {})
        gens = _transitive_generators(entry)
        e = fx.transitive_fixture("2g1").space().parse(f"u_x + x/10^{k}")
        assert not annihilation_check(gens, e, CFG)

    @pytest.mark.parametrize("index", SMALL_ROWS,
                             ids=[ROW_IDS[i] for i in SMALL_ROWS])
    def test_small_fixture_family_is_accepted(self, index):
        # exp and trig identities that do not expand to a constant: their
        # float residuals are rounding, which shrinks with the family
        inv, family = _derived(index)
        small = [ex.mul(ex.Const(Fraction(1, 10 ** 12)), e) for e in family]
        assert nm.first_non_annihilating(inv.generators, small, CFG) is None


class TestTemplateFastPath:
    @pytest.mark.parametrize("index", [
        ROWS.index(("2d-free", "g2", "free", 2, {})),
        ROWS.index(("3d-transitive", "g3_7", "transitive", None, {}))])
    def test_sound_template_compiles_once(self, monkeypatch, index):
        # one gradient for the lhs with its slots as leaves; the arguments'
        # and the coefficients' evaluators are the pipeline's own
        inv, _ = _derived(index)
        instantiated, with_wrt = [], []
        codegen = ex._codegen

        def counted(e, wrt=None):
            if wrt is not None:
                with_wrt.append(e)
            return codegen(e, wrt)

        monkeypatch.setattr(ex, "_codegen", counted)
        monkeypatch.setattr(invariants, "instantiate_template",
                            lambda *a: instantiated.append(a))
        t = inv.template
        assert template_spot_check(t, inv.generators, CFG)
        assert instantiated == []
        assert len(with_wrt) == 1
        assert {a.head for a in ex.applications(with_wrt[0])} == set()
        assert len(with_wrt[0].free_symbols() - t.lhs.free_symbols()) == \
            len(t.heads)

    def test_mutant_rejected_on_the_leaf_form(self, monkeypatch):
        inv, _ = _derived(
            ROWS.index(("3d-transitive", "g3_7", "transitive", None, {})))
        t = inv.template
        x = ex.Sym(t.space.base(t.space.coords[0]))
        slot = ex.applications(t.lhs)[0]
        mutant = dataclasses.replace(t, lhs=ex.add(
            t.lhs, ex.mul(ex.Const(Fraction(1, 10)), x, slot)))
        checked = []
        first_non_annihilating = nm.first_non_annihilating

        def recording_check(fields, exprs, *args):
            # the verdict on the first member, the leaf form
            found = first_non_annihilating(fields, exprs, *args)
            checked.append((exprs[0], found is None or found[0] != 0))
            return found

        monkeypatch.setattr(nm, "first_non_annihilating", recording_check)
        assert not template_spot_check(mutant, inv.generators, CFG)
        leaf_form, verdict = checked[0]
        assert ex.applications(leaf_form) == []
        assert len(leaf_form.free_symbols() - mutant.lhs.free_symbols()) == \
            len(t.heads)
        assert verdict is False

    def test_slot_of_a_moved_coordinate_rejected(self):
        # b(x) is not invariant through its argument alone: only the check
        # of the slot's arguments sees it
        inv, _ = _derived(
            ROWS.index(("3d-transitive", "g3_7", "transitive", None, {})))
        space = inv.space
        x = ex.Sym(space.base(space.coords[0]))
        t = verify.PDETemplate(space, ex.add(inv.exprs()[-1],
                                             ex.applied("b", [x])),
                               ("b",))
        assert not template_spot_check(t, inv.generators, CFG)

    def test_verified_arguments_not_checked_again(self, monkeypatch):
        # the row's own invariants passed the pipeline's annihilation check
        # under the same generators and configuration; any other argument
        # is still checked
        inv, _ = _derived(ROWS.index(("3d-free", "g3_7", "free", 2, {})))
        families = []
        first_non_annihilating = nm.first_non_annihilating

        def recording_check(fields, exprs, *args):
            families.append(len(exprs))
            return first_non_annihilating(fields, exprs, *args)

        monkeypatch.setattr(nm, "first_non_annihilating", recording_check)
        t = inv.template
        assert template_spot_check(t, inv.generators, CFG, inv.exprs())
        assert template_spot_check(t, inv.generators, CFG)
        assert families[0] == 1 and families[1] > 1
        x = ex.Sym(t.space.base(t.space.coords[0]))
        moved = verify.PDETemplate(t.space, ex.add(
            t.lhs, ex.applied("c", [*inv.exprs()[:2], x])), t.heads + ("c",))
        assert not template_spot_check(moved, inv.generators, CFG,
                                       inv.exprs())
        assert families[2] == 2

    def test_every_slot_argument_checked(self):
        # a moved coordinate in any argument position of b(...), past the
        # third included, makes the template unsound
        inv, _ = _derived(
            ROWS.index(("3d-free", "g3_7", "free", 2, {})))
        t = inv.template
        x = ex.Sym(t.space.base(t.space.coords[0]))
        b = next(a for a in ex.applications(t.lhs) if a.head == "b")
        assert len(b.args) > 3
        for p in range(len(b.args)):
            args = b.args[:p] + (x,) + b.args[p + 1:]
            lhs = ex.substitute_heads(t.lhs, {
                "b": lambda *_, _a=args: ex.applied("b", _a)})
            mutant = dataclasses.replace(t, lhs=lhs)
            assert not template_spot_check(mutant, inv.generators, CFG), p


class TestFamilyPass:
    def test_untouched_member_not_compiled(self, monkeypatch):
        # a member on whose symbols no generator has a term, such as y1, u
        # and u_y1 under the free generators, gets no compiled gradient
        inv, _ = _derived(ROWS.index(("2d-free", "g2", "free", 2, {})))

        def touched(e):
            return any(c != ex.ZERO and s in e.free_symbols()
                       for f in inv.generators
                       for s, c in f.coefficients.items())

        labelled = inv.labelled()
        assert not any(touched(labelled[k]) for k in ("y1", "u", "u_y1"))
        compiled = []
        gradient = ex.compile_gradient

        def counted(e, wrt=None):
            compiled.append(e)
            return gradient(e, wrt)

        monkeypatch.setattr(ex, "compile_gradient", counted)
        assert nm.first_non_annihilating(inv.generators, inv.exprs(),
                                         CFG) is None
        want = [e for e in inv.exprs() if touched(e)]
        assert 0 < len(want) <= len(inv.exprs()) - 3
        assert len(compiled) == len(want)
        assert all(a is b for a, b in zip(compiled, want))


class TestFamilyControls:
    """Negative controls of the one-pass family checks."""

    @pytest.mark.parametrize("index", [
        ROWS.index(("2d-free", "g2", "free", 2, {})),
        ROWS.index(("3d-transitive", "g3_7", "transitive", None, {}))])
    def test_last_member_not_invariant(self, index):
        inv, _ = _derived(index)
        family = list(inv.invariants)
        label, e = family[-1]
        family[-1] = (label, ex.add(e, ex.mul(ex.Const(Fraction(1, 10)),
                                               _moved_coordinate(inv))))
        found = nm.first_non_annihilating(inv.generators,
                                          [x for _, x in family], CFG)
        assert found is not None and found[0] == len(family) - 1
        with pytest.raises(VerificationFailed,
                           match=rf"invariant {re.escape(label)} is not "):
            invariants._verify_annihilation(inv.generators, family, CFG)

    @pytest.mark.parametrize("index", [
        ROWS.index(("2d-free", "g2", "free", 2, {})),
        ROWS.index(("3d-transitive", "g3_7", "transitive", None, {}))])
    def test_perturbed_middle_fixture_member(self, monkeypatch, index):
        table, algebra, pipeline, m, params = ROWS[index]
        exprs = fx.Fixture.exprs

        def perturbed(fixture):
            out = exprs(fixture)
            mid = len(out) // 2
            out[mid] = perturbed_variants(out[mid], fixture.space())[0]
            return out

        assert verify._run_row(table, algebra, pipeline, m, params,
                               CFG).checks["fixture_annihilated"]
        monkeypatch.setattr(fx.Fixture, "exprs", perturbed)
        row = verify._run_row(table, algebra, pipeline, m, params, CFG)
        assert row.error is None
        assert row.checks["fixture_annihilated"] is False

    @pytest.mark.parametrize("index", range(len(ROWS)), ids=ROW_IDS)
    def test_equivalence_member_replaced(self, index):
        # a moved coordinate is outside span(A): the union rank grows; a
        # duplicated member drops rank(B)
        inv, fixture = _derived(index)
        generated = inv.exprs()
        assert nm.equivalence_check(generated, fixture, CFG)
        j = index % len(fixture)
        outside = fixture[:j] + [_moved_coordinate(inv)] + fixture[j + 1:]
        assert not nm.equivalence_check(generated, outside, CFG)
        if len(fixture) > 1:
            k = (j + 1) % len(fixture)
            duplicated = fixture[:k] + [fixture[j]] + fixture[k + 1:]
            assert not nm.equivalence_check(generated, duplicated, CFG)

    @pytest.mark.parametrize("index", [
        ROWS.index(("1d", "g1", "free", 2, {})),
        ROWS.index(("2d-free", "g2", "free", 2, {})),
        ROWS.index(("3d-free", "g3_7", "free", 2, {}))])
    def test_union_rank_equals_the_stacked_elimination(self, monkeypatch,
                                                       index):
        inv, fixture = _derived(index)
        seen = []
        union_rank = nm._union_rank

        def recording(ja, jb, width):
            seen.append((ja, jb, union_rank(ja, jb, width)))
            return seen[-1][2]

        monkeypatch.setattr(nm, "_union_rank", recording)
        assert nm.equivalence_check(inv.exprs(), fixture, CFG)
        # g1's union spans its jet space at the first point, which ends
        # the pass; the others take every point
        assert len(seen) == (1 if inv.algebra == "g1" else CFG.points)
        for ja, jb, (ra, rab) in seen:
            assert ra == nm._row_echelon(ja)[0]
            assert rab == nm._row_echelon(ja + jb)[0]
            assert ra == rab


class TestReport:
    def test_2d_transitive_passes(self):
        report = run_fixture_suite(["2d-transitive"], CFG)
        assert report.passed
        assert len(report.rows) == 2

    def test_each_row_realized_once(self, monkeypatch):
        calls = []
        build = liealg.build_invariant_fields

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(liealg, "build_invariant_fields", counted)
        liealg._gated_frames.cache_clear()  # gates kept by earlier tests
        report = run_fixture_suite(["2d-transitive"], CFG)
        assert report.passed
        assert len(calls) == len(report.rows) == 2
        assert liealg._gated_frames.cache_info().misses == 2

    def test_json_deterministic_and_sorted(self):
        r1 = run_fixture_suite(["1d"], CFG)
        r2 = run_fixture_suite(["1d"], CFG)
        assert r1.to_json() == r2.to_json()
        payload = json.loads(r1.to_json())
        assert list(payload) == sorted(payload)

    def test_csv_has_row_per_case(self):
        report = run_fixture_suite(["2d-free"], CFG)
        lines = report.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(TABLE_ROWS["2d-free"])

    def test_text_marks_pass(self):
        report = run_fixture_suite(["2d-transitive"], CFG)
        text = report.to_text()
        assert "[PASS]" in text and "FAIL" not in text

    def test_unknown_table_rejected(self):
        with pytest.raises(KeyError):
            run_fixture_suite(["9d"], CFG)

    def test_param_override(self):
        report = run_fixture_suite(["3d-transitive"], CFG,
                                   {"g3_4": {"h": Fraction(1, 3)}})
        g34_rows = [r for r in report.rows if r.algebra == "g3_4"]
        assert len(g34_rows) == 1
        assert g34_rows[0].params == {"h": "1/3"}
        assert g34_rows[0].passed


class TestSO3WorkedExample:
    def test_printed_frames_match_construction(self):
        entry = liealg.catalog_lookup("so3", {})
        sp = so3_z_space()
        xi, eta = fields(entry, sp)
        for built, printed in zip(xi, fx.SO3_XI):
            for c, comp in built.components:
                assert ex.simplify_basic(comp) == \
                    ex.simplify_basic(sp.parse(printed[c])), (c, printed)
        for built, printed in zip(eta, fx.SO3_ETA):
            for c, comp in built.components:
                assert ex.simplify_basic(comp) == \
                    ex.simplify_basic(sp.parse(printed[c])), (c, printed)

    def test_recombination_identities(self):
        sp = so3_split_space()
        v = {k: sp.parse(s) for k, s in fx.SO3_V.items()}
        tv = {k: sp.parse(s) for k, s in fx.SO3_V_TILDE.items()}

        class Ctx:
            def resolve(self, name):
                if name in v:
                    return ex.Symbol(name, "base")
                raise KeyError(name)

        cfg = nm.SamplerConfig(tol=1e-9)
        for name, formula in fx.SO3_RECOMBINATION:
            f = ex.parse(formula, Ctx())
            combined = ex.substitute(
                f, {ex.Symbol(k, "base"): e for k, e in v.items()})
            d = ex.add(combined, ex.mul(ex.Const(-1), tv[name]))
            denoms = ex.denominator_symbols(d) | {
                s for s in d.free_symbols() if s.kind == "jet"}
            assert nm.is_zero(d, cfg, extra_denoms=denoms), name

    def test_raw_and_tilde_sets_equivalent(self):
        sp = so3_split_space()
        v2 = [sp.parse(fx.SO3_V[k]) for k in ("v_12", "v_13", "v_23")]
        tv2 = [sp.parse(fx.SO3_V_TILDE[k]) for k in ("tv_12", "tv_13", "tv_23")]
        first = [sp.parse(fx.SO3_V[k]) for k in ("v_1", "v_2")]
        assert nm.equivalence_check(first + v2, first + tv2, CFG)
