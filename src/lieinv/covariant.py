"""Covariant form of scalar second-order PDEs.

A scalar PDE E(x, u, u_a, u_ab) = 0 is rewritten on the extended space
z = (x, u) with a new dependent scalar w(z) (the equation becomes the pair
E~(z, w_i, w_ij) = 0, w = 0) by the implicit-differentiation substitutions

  u_a  -> -w_a / w_n,
  u_ab -> -w_ab/w_n + w_na w_b/w_n^2 + w_nb w_a/w_n^2 - w_a w_b w_nn/w_n^3,

followed by clearing the power of w_n from the denominators.  The contract
of the covariant form is that E~ is homogeneous of some integer degree in
the w-derivatives and is annihilated by the rescaling fields
R_j = sum_i (1 + delta_ij) w_i d/dw_ij.  CovariantPDE checks both
numerically when it is made, so every covariant form passed its check
once; from_covariant then restores the split form on the normalized
section w_n = 1, w_a = -u_a, w_an = 0, w_nn = 0 (so w_ab = -u_ab).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import expr as ex
from . import numeric as nm
from .errors import (
    NotHomogeneous,
    NotRescaleInvariant,
    ParseError,
    SingularEvaluation,
)
from .jet import JetSpace

DEGREE_FIT_POINTS = 8


@dataclass(frozen=True)
class ScalarPDE:
    """A scalar PDE in split variables: lhs(x, u, u_a, u_ab) = 0."""

    space: JetSpace
    lhs: ex.Expr

    def __str__(self):
        return f"{ex.render(self.lhs)} = 0"


@dataclass(frozen=True)
class CovariantPDE:
    """The covariant pair E~(z, w_i, w_ij) = 0, w = 0, checked when made.

    dep_coord names the z-coordinate that was the dependent variable of the
    split form.  Construction fits degree, the homogeneity degree of lhs in
    the w-derivatives, and then checks that every R_j annihilates lhs, both
    with the oracle under cfg and params; it raises NotHomogeneous or
    NotRescaleInvariant otherwise.
    """

    space: JetSpace
    lhs: ex.Expr
    dep_coord: str
    cfg: InitVar[nm.SamplerConfig]
    params: InitVar[Optional[dict]] = None
    degree: int = field(init=False)

    def __post_init__(self, cfg, params):
        object.__setattr__(self, "degree", homogeneity_degree(
            self.lhs, self.space, cfg, params))
        rescale_invariance_check(self.lhs, self.space, cfg, params)

    def __str__(self):
        return f"{ex.render(self.lhs)} = 0,  {self.space.dep} = 0"


def parse_pde(text: str, params: Tuple[str, ...] = ()) -> ScalarPDE:
    """Parse the PDE file format: 'coords: x,y; dep: u' then 'lhs: <expr>'.

    Field separators are newlines and/or semicolons; an optional
    'params: a,b' field declares parameter names usable in the expression.
    """
    fields: Dict[str, str] = {}
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if not chunk or chunk.startswith("#"):
            continue
        if ":" not in chunk:
            raise ParseError(f"expected 'key: value', got {chunk!r}", 0)
        key, _, value = chunk.partition(":")
        fields[key.strip().lower()] = value.strip()
    for required in ("coords", "dep", "lhs"):
        if required not in fields:
            raise ParseError(f"missing PDE field {required!r}", 0)
    coords = tuple(c.strip() for c in fields["coords"].split(",") if c.strip())
    if not coords:
        raise ParseError("the PDE field 'coords' names no coordinate", 0)
    declared = tuple(p.strip() for p in fields.get("params", "").split(",")
                     if p.strip())
    space = JetSpace(coords, fields["dep"], params=tuple(params) + declared)
    return ScalarPDE(space, space.parse(fields["lhs"]))


def wspace_for(space: JetSpace, wname: str = "w") -> JetSpace:
    """z-space of a split PDE space: all coordinates plus the old dependent."""
    return JetSpace(space.coords + (space.dep,), wname, params=space.params)


def implicit_first(wspace: JetSpace, dep_coord: str) -> Dict[ex.Symbol, ex.Expr]:
    """Substitutions u_a -> -w_a / w_n for all independent a."""
    wn = ex.Sym(wspace.jet(dep_coord))
    out = {}
    for a in wspace.coords:
        if a == dep_coord:
            continue
        # the split dependent variable is named after the z-coordinate
        ua = ex.jet_symbol(dep_coord, (a,))
        out[ua] = ex.mul(ex.Const(-1), ex.Sym(wspace.jet(a)), ex.pow_(wn, -1))
    return out


def implicit_second(wspace: JetSpace, dep_coord: str) -> Dict[ex.Symbol, ex.Expr]:
    """Substitutions for u_ab by implicit differentiation of w = 0."""
    wn = ex.Sym(wspace.jet(dep_coord))
    out = {}
    indep = [c for c in wspace.coords if c != dep_coord]
    for i, a in enumerate(indep):
        for b in indep[i:]:
            wa = ex.Sym(wspace.jet(a))
            wb = ex.Sym(wspace.jet(b))
            wab = ex.Sym(wspace.jet(a, b))
            wna = ex.Sym(wspace.jet(dep_coord, a))
            wnb = ex.Sym(wspace.jet(dep_coord, b))
            wnn = ex.Sym(wspace.jet(dep_coord, dep_coord))
            val = ex.add(
                ex.mul(ex.Const(-1), wab, ex.pow_(wn, -1)),
                ex.mul(wna, wb, ex.pow_(wn, -2)),
                ex.mul(wnb, wa, ex.pow_(wn, -2)),
                ex.mul(ex.Const(-1), wa, wb, wnn, ex.pow_(wn, -3)),
            )
            out[ex.jet_symbol(dep_coord, (a, b))] = val
    return out


def _min_wn_exponent(e: ex.Expr, wn_sym: ex.Symbol) -> int:
    """Smallest exponent of w_n across the additive terms of an expanded expr."""
    terms = e.terms if isinstance(e, ex.Add) else (e,)
    lo = 0
    for t in terms:
        factors = t.factors if isinstance(t, ex.Mul) else (t,)
        exp = 0
        for f in factors:
            if isinstance(f, ex.Pow) and isinstance(f.base, ex.Sym) \
                    and f.base.symbol == wn_sym:
                exp += int(f.exp)
            elif isinstance(f, ex.Sym) and f.symbol == wn_sym:
                exp += 1
        lo = min(lo, exp)
    return lo


def to_covariant(pde: ScalarPDE, cfg: nm.SamplerConfig = nm.SamplerConfig(),
                 params: Optional[dict] = None) -> CovariantPDE:
    """Covariant form of a split scalar PDE, cleared of w_n denominators."""
    wspace = wspace_for(pde.space)
    dep = pde.space.dep
    subs = {}
    subs.update(implicit_first(wspace, dep))
    subs.update(implicit_second(wspace, dep))
    # the old dependent u becomes the base coordinate z^n = u
    subs[pde.space.jet()] = ex.Sym(wspace.base(dep))
    lifted = ex.substitute(pde.lhs, subs)
    expanded = ex.expand(lifted)
    wn_sym = wspace.jet(dep)
    kappa = -_min_wn_exponent(expanded, wn_sym)
    cleared = ex.expand(ex.mul(ex.pow_(ex.Sym(wn_sym), kappa), expanded))
    return CovariantPDE(wspace, cleared, dep, cfg, params)


def euler_operator(e: ex.Expr, wspace: JetSpace) -> ex.Expr:
    """D = sum_i w_i d/dw_i + sum_{i<=j} w_ij d/dw_ij applied to e."""
    parts = []
    for s in wspace.jet_symbols(2):
        if s.order == 0:
            continue
        parts.append(ex.mul(ex.Sym(s), ex.diff(e, s)))
    return ex.add(*parts)


def rescale_fields(e: ex.Expr, wspace: JetSpace) -> List[ex.Expr]:
    """R_j e for all j, with R_j = sum_i (1 + delta_ij) w_i d/dw_ij."""
    out = []
    coords = wspace.coords
    for j in coords:
        parts = []
        for i in coords:
            factor = 2 if i == j else 1
            parts.append(ex.mul(ex.Const(factor), ex.Sym(wspace.jet(i)),
                                ex.diff(e, wspace.jet(i, j))))
        out.append(ex.add(*parts))
    return out


def homogeneity_degree(e: ex.Expr, wspace: JetSpace,
                       cfg: nm.SamplerConfig = nm.SamplerConfig(),
                       params: Optional[dict] = None) -> int:
    """Degree k with D e = k e, fitted numerically and confirmed by is_zero.

    The ratio D e / e is fitted at DEGREE_FIT_POINTS regular points; a point
    where e vanishes is singular for the ratio and is redrawn.
    """
    de = euler_operator(e, wspace)
    fe = ex.compile_numeric(e)
    fde = ex.compile_numeric(de)
    fit = None

    def visit(pt):
        nonlocal fit
        denom = fe(pt)
        if abs(denom) < 1e-12:
            raise SingularEvaluation("the equation vanishes at this point")
        k = fde(pt) / denom
        if fit is None:
            fit = k
        elif abs(fit - k) > 1e-9 * max(1.0, abs(fit)):
            raise NotHomogeneous(
                f"inconsistent homogeneity ratios {fit} vs {k}")
        return None

    nm.at_regular_points(
        e.free_symbols() | de.free_symbols(),
        nm.SamplerConfig(seed=cfg.seed, points=DEGREE_FIT_POINTS),
        ex.denominator_symbols(e) | {s for s in e.free_symbols()
                                     if s.kind == ex.JET},
        params, visit)
    k = Fraction(fit).limit_denominator(1000)
    if k.denominator != 1:
        raise NotHomogeneous(f"non-integer homogeneity degree {k}")
    residual = ex.add(de, ex.mul(ex.Const(-k), e))
    if not nm.is_zero(residual, cfg, params,
                      extra_denoms=ex.denominator_symbols(e)):
        raise NotHomogeneous(f"D e != {k} e")
    return int(k)


def rescale_invariance_check(e: ex.Expr, wspace: JetSpace,
                             cfg: nm.SamplerConfig = nm.SamplerConfig(),
                             params: Optional[dict] = None) -> None:
    for j, re_ in zip(wspace.coords, rescale_fields(e, wspace)):
        if not nm.is_zero(re_, cfg, params,
                          extra_denoms=ex.denominator_symbols(e)):
            raise NotRescaleInvariant(f"R_{j} does not annihilate the equation")


def J_invariants(wspace: JetSpace, dep_coord: str
                 ) -> Tuple[Dict[str, ex.Expr], Dict[Tuple[str, str], ex.Expr]]:
    """Normalized rescale invariants J~_i = w_i/w_n, J~_ij = J_ij / w_n^3."""
    wn = ex.Sym(wspace.jet(dep_coord))
    first = {}
    second = {}
    coords = wspace.coords
    for i in coords:
        first[i] = ex.mul(ex.Sym(wspace.jet(i)), ex.pow_(wn, -1))
    for a, i in enumerate(coords):
        for j in coords[a + 1:]:
            wi, wj = ex.Sym(wspace.jet(i)), ex.Sym(wspace.jet(j))
            jij = ex.add(
                ex.mul(ex.pow_(wi, 2), ex.Sym(wspace.jet(j, j))),
                ex.mul(ex.pow_(wj, 2), ex.Sym(wspace.jet(i, i))),
                ex.mul(ex.Const(-2), wi, wj, ex.Sym(wspace.jet(i, j))),
            )
            second[(i, j)] = ex.mul(jij, ex.pow_(wn, -3))
    return first, second


def normalized_section(wspace: JetSpace, split: JetSpace
                       ) -> Dict[ex.Symbol, ex.Expr]:
    """The normalized section as a substitution from z-jets to split jets.

    With n = split.dep, the dependent coordinate among wspace.coords: on
    w = 0, w_n = 1, w_a = -u_a, w_an = 0, w_nn = 0, w_ab = -u_ab and z^n = u.
    """
    dep = split.dep
    subs: Dict[ex.Symbol, ex.Expr] = {
        wspace.jet(): ex.ZERO,
        wspace.jet(dep): ex.ONE,
        wspace.jet(dep, dep): ex.ZERO,
        wspace.base(dep): ex.Sym(split.jet()),
    }
    indep = split.coords
    for a in indep:
        subs[wspace.jet(a)] = ex.mul(ex.Const(-1), ex.Sym(split.jet(a)))
        subs[wspace.jet(dep, a)] = ex.ZERO
    for i, a in enumerate(indep):
        for b in indep[i:]:
            subs[wspace.jet(a, b)] = ex.mul(ex.Const(-1),
                                            ex.Sym(split.jet(a, b)))
    return subs


def from_covariant(cov: CovariantPDE, cfg: Optional[nm.SamplerConfig] = None,
                   params: Optional[dict] = None) -> ScalarPDE:
    """Split form of a covariant PDE: its lhs on the normalized section.

    cov passed the covariant-form contract when it was made, so nothing is
    checked here; cfg and params are accepted and unused.
    """
    wspace = cov.space
    indep = tuple(c for c in wspace.coords if c != cov.dep_coord)
    split = JetSpace(indep, cov.dep_coord, params=wspace.params)
    return ScalarPDE(split, ex.substitute(cov.lhs,
                                          normalized_section(wspace, split)))
