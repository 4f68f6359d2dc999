"""End-to-end acceptance criteria.

Each test covers one acceptance criterion and prints a single summary line
when it passes; tolerances are pinned (32 sample points, 1e-7 zero
tolerance, 1e-9 for the exact worked-example identities, 1e-5 relative for
finite-difference agreement).
"""

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import fixtures as fx
from lieinv import jet
from lieinv import liealg
from lieinv import numeric as nm
from lieinv import putzer
from lieinv.cli import main
from lieinv.covariant import (
    J_invariants,
    euler_operator,
    from_covariant,
    parse_pde,
    rescale_operators,
    to_covariant,
    wspace_for,
)
from lieinv.errors import (
    JacobiViolation,
    ResidualDependence,
    SingularEvaluation,
)
from lieinv.invariants import (
    eliminate_w,
    realize,
    type1_pipeline,
    type2_pipeline,
)
from lieinv.jet import JetSpace
from lieinv.verify import (
    annihilation_check,
    run_fixture_suite,
)
from helpers import eval_numeric, fields, perturbed_variants, so3_z_space
from test_covariant import PDE_BATTERY
from test_numeric import central_difference

CFG = nm.SamplerConfig(points=32, tol=1e-7)
# sha256 of the stdout of `reproduce all --seed 7 --format json`
REPRODUCE_ALL_SHA256 = (
    "c14faf124ecef36252a0d3a0881958d0efb8bcaa00902ab4f0368586b41495c6")
F = Fraction


def report(n, title):
    print(f"acceptance {n} ({title}): PASS")


def test_criterion_1_2d_transitive_reproduction():
    rep = run_fixture_suite(["2d-transitive"], CFG)
    assert rep.passed, rep.to_text()
    inv = type2_pipeline(liealg.catalog_lookup("2g1", {}), CFG)
    sp = inv.space
    assert nm.equivalence_check(inv.exprs(),
                                [sp.parse("u_x"), sp.parse("u_xx")], CFG)
    inv = type2_pipeline(liealg.catalog_lookup("g2", {}), CFG)
    sp = inv.space
    assert nm.equivalence_check(
        inv.exprs(), [sp.parse("exp(u)*u_x"), sp.parse("exp(2*u)*u_xx")], CFG)
    report(1, "2d transitive tables")


def test_criterion_2_3d_transitive_reproduction():
    rep = run_fixture_suite(["3d-transitive"], CFG)
    assert rep.passed, rep.to_text()
    assert len(rep.rows) == 12  # 9 algebras, g3_4 x3 params, g3_5 x2 params
    params = {(r.algebra, tuple(sorted(r.params.items()))) for r in rep.rows}
    assert ("g3_4", (("h", "1/2"),)) in params
    assert ("g3_4", (("h", "-1"),)) in params
    assert ("g3_4", (("h", "-1/3"),)) in params
    assert ("g3_5", (("p", "0"),)) in params
    assert ("g3_5", (("p", "1"),)) in params
    report(2, "3d transitive tables")


def test_criterion_3_type1_reproduction():
    rep = run_fixture_suite(["1d", "2d-free", "3d-free"], CFG)
    assert rep.passed, rep.to_text()
    assert {r.m for r in rep.rows} == {1, 2}
    # the two named printed entries are contained up to equivalence
    inv = type1_pipeline(liealg.catalog_lookup("g2", {}), 1, CFG)
    target = inv.space.parse("exp(x2)*(u_x1x2 + u_x1/2)")
    assert nm.equivalence_check(inv.exprs(), inv.exprs() + [target], CFG)
    inv7 = type1_pipeline(liealg.catalog_lookup("g3_7", {}), 1, CFG)
    fixture7 = fx.free_fixture("g3_7", 1).exprs()
    assert nm.equivalence_check(inv7.exprs(), fixture7, CFG)
    report(3, "type-I tables, m in {1, 2}")


def test_criterion_4_so3_worked_example():
    entry = liealg.catalog_lookup("so3", {})
    zsp = so3_z_space()
    xi, eta = fields(entry, zsp)
    for built, printed in zip(xi + eta, fx.SO3_XI + fx.SO3_ETA):
        for c, comp in built.components:
            assert ex.simplify_basic(comp) == \
                ex.simplify_basic(zsp.parse(printed[c]))
    # pipeline first-order invariants match {v_1, v_2}
    inv = type2_pipeline(entry, CFG)
    sp = inv.space
    got_first = [e for label, e in inv.invariants if label in ("v_1", "v_2")]
    want_first = [sp.parse(fx.SO3_V["v_1"]), sp.parse(fx.SO3_V["v_2"])]
    assert nm.equivalence_check(got_first, want_first, CFG)
    # recombination identities at 1e-9
    v = {k: sp.parse(s) for k, s in fx.SO3_V.items()}
    tv = {k: sp.parse(s) for k, s in fx.SO3_V_TILDE.items()}

    class Ctx:
        def resolve(self, name):
            if name in v:
                return ex.Symbol(name, "base")
            raise KeyError(name)

    tight = nm.SamplerConfig(tol=1e-9)
    for name, formula in fx.SO3_RECOMBINATION:
        combined = ex.substitute(
            ex.parse(formula, Ctx()),
            {ex.Symbol(k, "base"): e for k, e in v.items()})
        d = ex.add(combined, ex.mul(ex.Const(-1), tv[name]))
        denoms = ex.denominator_symbols(d) | {
            s for s in d.free_symbols() if s.kind == "jet"}
        assert nm.is_zero(d, tight, {}, extra_denoms=denoms), name
    report(4, "so(3) worked example")


def test_criterion_5_covariant_properties():
    assert len(PDE_BATTERY) == 10
    for text in PDE_BATTERY:
        pde = parse_pde(text)
        c = to_covariant(pde, CFG)  # checks homogeneity + rescale invariance
        back = from_covariant(c, CFG)
        diff = ex.add(back.lhs, ex.mul(ex.Const(-1), pde.lhs))
        assert nm.is_zero(diff, CFG, extra_denoms=ex.denominator_symbols(diff))
    z = wspace_for(parse_pde("coords: x, y; dep: u\nlhs: u_x").space)
    first, second = J_invariants(z, "u")
    for e in list(first.values()) + list(second.values()):
        denoms = ex.denominator_symbols(e)
        assert nm.is_zero(euler_operator(z).apply(e), CFG, extra_denoms=denoms)
        for rj in rescale_operators(z):
            assert nm.is_zero(rj.apply(e), CFG, extra_denoms=denoms)
    report(5, "covariant form battery of 10")


def _admissible_draws(name, rng, count=3):
    if name == "g3_4":
        draws = []
        while len(draws) < count:
            h = F(rng.randint(-12, 12), rng.randint(1, 12))
            if abs(h) <= 1 and h not in (0, 1):
                draws.append({"h": h})
        return draws
    if name == "g3_5":
        return [{"p": F(rng.randint(0, 12), rng.randint(1, 12))}
                for _ in range(count)]
    return [{}]


def test_criterion_6_realization_gate():
    rng = random.Random(CFG.seed)
    for name in liealg.CATALOG_NAMES:
        for params in _admissible_draws(name, rng):
            entry = liealg.catalog_lookup(name, params)
            xi, eta = fields(entry)
            # the gate raises VerificationFailed naming each failed relation
            liealg.verify_realization(xi, eta, entry.sc, CFG)
            # rebuild from raw structure constants, past the frame memo, and
            # re-run the same gate
            xi2, eta2 = liealg._gated_frames.__wrapped__(
                entry.sc, entry.split_space(), CFG)
            liealg.verify_realization(xi2, eta2, entry.sc, CFG)
    report(6, "realization gate, 32-point determinant")


def test_criterion_7_negative_controls():
    # 3 perturbed invariants per algebra fail annihilation
    for name in fx.TRANSITIVE_NAMES:
        entry = liealg.catalog_lookup(name, {})
        fixture = fx.transitive_fixture(name)
        gens = realize(entry, entry.split_space("w"), fixture.space(), CFG)[1]
        _, e = fixture.parsed()[-1]
        for variant in perturbed_variants(e, fixture.space()):
            assert not annihilation_check(gens, variant, CFG,
                                          entry.param_map), name
    # Jacobi-violating input is rejected
    with pytest.raises(JacobiViolation):
        liealg.load_algebra(json.dumps({
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "terms": [{"k": 2, "c": "1"}]},
                {"i": 1, "j": 3, "terms": [{"k": 3, "c": "1"}]},
                {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
            ],
        }))
    # raw frame derivative without the implicit-function substitution
    entry = liealg.catalog_lookup("g3_1", {})
    wspace = entry.split_space("w")
    indep = tuple(c for c in wspace.coords if c != entry.dep)
    split = JetSpace(indep, entry.dep, params=wspace.params)
    _, eta = fields(entry, wspace)
    raw = eta[0].frame_derivative(ex.Sym(wspace.jet()))
    with pytest.raises(ResidualDependence):
        eliminate_w(raw, wspace, split, CFG, {}, "w_(1)")
    report(7, "negative controls")


def test_criterion_8_determinism(capsys):
    assert main(["reproduce", "all", "--seed", "7", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["reproduce", "all", "--seed", "7", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["passed"] is True
    assert hashlib.sha256(first.encode()).hexdigest() == REPRODUCE_ALL_SHA256
    report(8, "byte-identical reproduce all --seed 7")


def test_report_bytes_do_not_depend_on_the_memos(capsys):
    # the code-object, Putzer and realization memos are pure: a run after
    # all are emptied prints the same bytes as the run before
    outs = []
    for _ in range(2):
        assert main(["reproduce", "all", "--seed", "7", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
        ex._code.cache_clear()
        putzer._exp_poly_matrix.cache_clear()
        liealg._gated_frames.cache_clear()
        jet._prolongation.cache_clear()
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[1].encode()).hexdigest() == REPRODUCE_ALL_SHA256


# ---------------------------------------------------------------------------
# criterion 9: generated expression properties


def _random_expr(rng, space, depth=3):
    syms = [ex.Sym(s) for s in space.jet_symbols()] + \
           [ex.Sym(space.base(c)) for c in space.coords]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return ex.Const(F(rng.randint(-4, 4), rng.randint(1, 4)))
        return rng.choice(syms)
    op = rng.choice(("add", "mul", "pow", "func"))
    if op == "add":
        return ex.add(_random_expr(rng, space, depth - 1),
                      _random_expr(rng, space, depth - 1))
    if op == "mul":
        return ex.mul(_random_expr(rng, space, depth - 1),
                      _random_expr(rng, space, depth - 1))
    if op == "pow":
        return ex.pow_(_random_expr(rng, space, depth - 1),
                       rng.choice((2, 3, -1)))
    return ex.func(rng.choice(("sin", "cos", "exp")),
                   _random_expr(rng, space, depth - 1))


@functools.lru_cache(maxsize=1)
def _kernel_property_cases():
    """Criterion 9's draws: 200 checked pairs, then 50 (e, d, point, fd, sv).

    d = de/du_x, fd its central difference at the point and sv its value
    there.
    """
    space = JetSpace(("x", "y"), "u")
    rng = random.Random(CFG.seed)
    sym = space.jet("x")
    small = nm.SamplerConfig(points=4)
    checked_pairs = 0
    while checked_pairs < 200:
        try:
            a = _random_expr(rng, space)
            b = _random_expr(rng, space)
            # linearity: d(a + b) = da + db  (exact, by construction)
            lhs = ex.diff(ex.add(a, b), sym)
            rhs = ex.add(ex.diff(a, sym), ex.diff(b, sym))
            denoms = ex.denominator_symbols(lhs) | ex.denominator_symbols(rhs)
            assert nm.is_zero(ex.add(lhs, ex.mul(ex.Const(-1), rhs)),
                              small, extra_denoms=denoms)
            # product rule
            lhs = ex.diff(ex.mul(a, b), sym)
            rhs = ex.add(ex.mul(ex.diff(a, sym), b),
                         ex.mul(a, ex.diff(b, sym)))
            denoms = ex.denominator_symbols(lhs) | ex.denominator_symbols(rhs)
            assert nm.is_zero(ex.add(lhs, ex.mul(ex.Const(-1), rhs)),
                              small, extra_denoms=denoms)
            # substitution consistency: replacing u_x by a fresh symbol and
            # back is the identity
            marker = ex.Sym(space.base("y"))
            swapped = ex.substitute(a, {sym: marker})
            assert sym not in swapped.free_symbols() or marker != swapped
        except (ZeroDivisionError, nm.Unsampleable):
            continue
        checked_pairs += 1
    cases = []
    while len(cases) < 50:
        try:
            e = _random_expr(rng, space)
            d = ex.diff(e, sym)
            pt = next(nm.sample_points(
                e.free_symbols() | d.free_symbols() | {sym},
                nm.SamplerConfig(seed=rng.randint(0, 10**6), points=1),
                ex.denominator_symbols(e) | ex.denominator_symbols(d), {}))
            fd = central_difference(e, pt, sym.name)
            sv = eval_numeric(d, pt)
        except (ZeroDivisionError, OverflowError, nm.Unsampleable,
                SingularEvaluation):
            continue
        if max(abs(fd), abs(sv)) > 1e6:  # ill-conditioned draw, redraw
            continue
        cases.append((e, d, pt, fd, sv))
    return tuple(cases)


def test_criterion_9_kernel_property_suite():
    # finite-difference agreement on 50 expressions
    for e, _, _, fd, sv in _kernel_property_cases():
        assert fd == pytest.approx(sv, rel=1e-5, abs=1e-5), ex.render(e)
    report(9, "kernel property suite, 200 pairs + 50 FD checks")


def test_compiled_gradient_on_the_criterion_9_expressions():
    # the gradient evaluator's value is compile_numeric's float, and every
    # partial is the symbolic derivative's value
    for e, _, pt, _, _ in _kernel_property_cases():
        wrt, grad = ex.compile_gradient(e)
        out = grad(pt)
        assert out[0] == ex.compile_numeric(e)(pt), ex.render(e)
        assert len(out) == 1 + len(wrt)
        for s, g in zip(wrt, out[1:]):
            want = eval_numeric(ex.diff(e, s), pt)
            assert g == pytest.approx(want, rel=1e-9), (ex.render(e), s.name)
