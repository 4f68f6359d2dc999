"""Helpers that only the tests use: point evaluation, numeric equality, a
catalog entry's frames, a count of realization gates, the so3 worked
example's jet spaces, the perturbed invariants of the negative controls
and a reference second prolongation."""

from fractions import Fraction
from typing import List, Mapping, Optional

from lieinv import expr as ex
from lieinv import jet
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.errors import SingularEvaluation, UnboundSymbol
from lieinv.fixtures import SO3_COORDS
from lieinv.jet import JetSpace, VectorField
from lieinv.liealg import AlgebraCatalogEntry, build_invariant_fields


def eval_numeric(e: ex.Expr, assignment: Mapping) -> float:
    """Deterministic IEEE-double evaluation of e at the given point.

    `assignment` maps Symbol (or symbol name) to a real number.  Raises
    UnboundSymbol / SingularEvaluation with the offending item.
    """
    values = {}
    for k, v in assignment.items():
        values[k.name if isinstance(k, ex.Symbol) else k] = float(v)
    missing = [s.name for s in e.free_symbols() if s.name not in values]
    if missing:
        raise UnboundSymbol(f"unbound symbols: {sorted(missing)}")
    try:
        return ex.compile_numeric(e)(values)
    except SingularEvaluation as exc:
        raise SingularEvaluation(
            f"{exc} while evaluating {ex.render(e)}") from None


def exprs_equal(a: ex.Expr, b: ex.Expr,
                cfg: nm.SamplerConfig = nm.SamplerConfig(),
                params: Optional[Mapping] = None) -> bool:
    """Numeric equality a == b via is_zero(a - b) with shared denominator info."""
    denoms = ex.denominator_symbols(a) | ex.denominator_symbols(b)
    return nm.is_zero(a - b, cfg, params, extra_denoms=denoms)


def fields(entry: AlgebraCatalogEntry, space: Optional[JetSpace] = None):
    """The gated frames (xi, eta) of a catalog entry, on its split space by
    default, under the default sampler configuration."""
    return build_invariant_fields(
        entry.sc, entry.split_space() if space is None else space)


def count_gates(monkeypatch) -> list:
    """Empty the gated-frame memo; from now on, the arguments of every run
    of the realization gate are appended to the returned list."""
    liealg._gated_frames.cache_clear()
    calls = []
    gate = liealg.verify_realization

    def counted(*args, **kwargs):
        calls.append(args)
        return gate(*args, **kwargs)

    monkeypatch.setattr(liealg, "verify_realization", counted)
    return calls


def so3_split_space() -> JetSpace:
    return JetSpace(("x", "y"), "u")


def so3_z_space() -> JetSpace:
    return JetSpace(SO3_COORDS, "w")


def perturbed_variants(e: ex.Expr, space: JetSpace, count: int = 3) -> List[ex.Expr]:
    """Mutations of an invariant that must fail annihilation.

    When the expression is a sum, one additive term's coefficient is bumped
    by ~10%, which breaks the cancellations the invariance relies on.  For a
    single-term invariant a uniform rescale is still invariant, so a small
    multiple of a base coordinate is added instead.
    """
    out = []
    coeffs = [Fraction(11, 10), Fraction(9, 10), Fraction(12, 10)]
    add_coeffs = [Fraction(1, 10), Fraction(1, 7), Fraction(1, 13)]
    terms = list(e.terms) if isinstance(e, ex.Add) else [e]
    coords = list(space.coords)
    for k in range(count):
        if len(terms) >= 2:
            idx = k % len(terms)
            bumped = [ex.mul(ex.Const(coeffs[k % len(coeffs)]), t)
                      if i == idx else t for i, t in enumerate(terms)]
            out.append(ex.add(*bumped))
        else:
            c = coords[k % len(coords)]
            out.append(ex.add(e, ex.mul(ex.Const(add_coeffs[k % len(add_coeffs)]),
                                        ex.Sym(space.base(c)))))
    return out


def reference_prolongation(field: VectorField, theta: ex.Expr) -> list:
    """The (symbol, coefficient) pairs of the second prolongation, built
    with a total_derivative call at every use of D_a xi^b."""
    space = field.space
    given = dict(field.components)
    xi = {c: given.get(c, ex.ZERO) for c in space.coords}
    coeffs = {space.jet(): theta}
    phi1 = {}
    for a in space.coords:
        terms = [jet.total_derivative(theta, a, space)]
        for b in space.coords:
            terms.append(ex.mul(ex.Const(-1), ex.Sym(space.jet(b)),
                                jet.total_derivative(xi[b], a, space)))
        phi1[a] = ex.add(*terms)
        coeffs[space.base(a)] = xi[a]
        coeffs[space.jet(a)] = phi1[a]
    for i, a in enumerate(space.coords):
        for b in space.coords[i:]:
            terms = [jet.total_derivative(phi1[a], b, space)]
            for c in space.coords:
                terms.append(ex.mul(ex.Const(-1), ex.Sym(space.jet(a, c)),
                                    jet.total_derivative(xi[c], b, space)))
            coeffs[space.jet(a, b)] = ex.add(*terms)
    return list(coeffs.items())
