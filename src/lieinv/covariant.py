"""Covariant form of scalar second-order PDEs.

A scalar PDE E(x, u, u_a, u_ab) = 0 is rewritten on the extended space
z = (x, u) with a new dependent scalar w(z) (the equation becomes the pair
E~(z, w_i, w_ij) = 0, w = 0) by the implicit-differentiation substitutions

  u_a  -> -w_a / w_n,
  u_ab -> -w_ab/w_n + w_na w_b/w_n^2 + w_nb w_a/w_n^2 - w_a w_b w_nn/w_n^3,

expanded, with the power of w_n cleared from the denominators in the same
fold (lift: one expr.expand call; the substitutions of each z-space are
built once and kept in a bounded memo).  The contract of the covariant
form is that E~ is homogeneous of some integer degree k in the
w-derivatives, D E~ = k E~ for the Euler operator D, and is annihilated by
the rescaling fields R_j = sum_i (1 + delta_ij) w_i d/dw_ij.  D - k and
the R_j are first-order operators (euler_operator, rescale_operators).
CovariantPDE reads k from the tree of E~ when it is made (no point is
drawn), then checks the contract in one pass over D - k and every R_j
(one numeric.first_non_annihilating call) at every point.  The same pass
at k = 0 decides, for the transitive pipeline, that the rescale
invariants J~ taken on the frame derivatives are free of the residual
w-jets.  Every covariant form passed its check once; from_covariant then
restores the split form on the normalized section w_n = 1, w_a = -u_a,
w_an = 0, w_nn = 0 (so w_ab = -u_ab).  lift and section are these two
maps, unchecked.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import expr as ex
from . import numeric as nm
from .errors import NotHomogeneous, NotRescaleInvariant, ParseError
from .jet import FirstOrderOperator, JetSpace


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
    split form.  Construction reads degree, the homogeneity degree of lhs in
    the w-derivatives, from its tree, and then checks in one pass under cfg
    that D - degree and every R_j annihilate lhs (values bound: expr.bind);
    it raises NotHomogeneous or NotRescaleInvariant otherwise.
    """

    space: JetSpace
    lhs: ex.Expr
    dep_coord: str
    cfg: InitVar[nm.SamplerConfig]
    degree: int = field(init=False)

    def __post_init__(self, cfg):
        object.__setattr__(self, "degree",
                           homogeneity_degree(self.lhs, self.space))
        rescale_invariance_check(self.lhs, self.space, cfg,
                                 degree=self.degree)

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


def wspace_for(space: JetSpace) -> JetSpace:
    """z-space of a split PDE space: all coordinates plus the old dependent; dep w."""
    return JetSpace(space.coords + (space.dep,), "w", params=space.params)


def implicit_first(wspace: JetSpace, dep_coord: str) -> Dict[ex.Symbol, ex.Expr]:
    """Substitutions u_a -> -w_a / w_n for all independent a."""
    wn = wspace.jet(dep_coord)
    out = {}
    for a in wspace.coords:
        if a == dep_coord:
            continue
        # the split dependent variable is named after the z-coordinate
        ua = ex.jet_symbol(dep_coord, (a,))
        out[ua] = ex.mul(ex.Const(-1), wspace.jet(a), ex.pow_(wn, -1))
    return out


def implicit_second(wspace: JetSpace, dep_coord: str) -> Dict[ex.Symbol, ex.Expr]:
    """Substitutions for u_ab by implicit differentiation of w = 0."""
    wn, wnn = wspace.jet(dep_coord), wspace.jet(dep_coord, dep_coord)
    out = {}
    indep = [c for c in wspace.coords if c != dep_coord]
    for i, a in enumerate(indep):
        for b in indep[i:]:
            wa, wb = wspace.jet(a), wspace.jet(b)
            val = ex.add(
                ex.mul(ex.Const(-1), wspace.jet(a, b), ex.pow_(wn, -1)),
                ex.mul(wspace.jet(dep_coord, a), wb, ex.pow_(wn, -2)),
                ex.mul(wspace.jet(dep_coord, b), wa, ex.pow_(wn, -2)),
                ex.mul(ex.Const(-1), wa, wb, wnn, ex.pow_(wn, -3)),
            )
            out[ex.jet_symbol(dep_coord, (a, b))] = val
    return out


IMPLICIT_MEMO_SIZE = 16  # (z-space, dependent coordinate) pairs kept


@lru_cache(maxsize=IMPLICIT_MEMO_SIZE)
def _implicit(wspace: JetSpace, dep_coord: str) -> tuple:
    """The items of implicit_first and implicit_second, built once per pair:
    an equal z-space made later hands out the same symbol nodes."""
    return (*implicit_first(wspace, dep_coord).items(),
            *implicit_second(wspace, dep_coord).items())


def lift(pde: ScalarPDE, wspace: JetSpace) -> ex.Expr:
    """The lhs of pde on wspace (wspace_for), cleared of w_n; unchecked.

    One expand call substitutes the implicit derivatives at the leaves,
    expands, and multiplies every term by the least power of w_n that
    leaves none in a denominator.  The implicit derivatives of a z-space
    come from a bounded memo (_implicit, IMPLICIT_MEMO_SIZE z-spaces), as
    a tuple of items that lift copies into its own substitution.
    """
    dep = pde.space.dep
    subs = dict(_implicit(wspace, dep))
    # the old dependent u becomes the base coordinate z^n = u
    subs[pde.space.jet()] = wspace.base(dep)
    return ex.expand(pde.lhs, subs, clear=wspace.jet(dep))


def to_covariant(pde: ScalarPDE, cfg: nm.SamplerConfig = nm.SamplerConfig()
                 ) -> CovariantPDE:
    """Covariant form of a split scalar PDE, checked: CovariantPDE of lift."""
    wspace = wspace_for(pde.space)
    return CovariantPDE(wspace, lift(pde, wspace), pde.space.dep, cfg)


def euler_operator(wspace: JetSpace, k: int = 0) -> FirstOrderOperator:
    """D - k, with D = sum_i w_i d/dw_i + sum_{i<=j} w_ij d/dw_ij."""
    coeffs = {s: s for s in wspace.jet_symbols() if s.order >= 1}
    coeffs[None] = ex.Const(-k)
    return FirstOrderOperator(coeffs)


def rescale_operators(wspace: JetSpace) -> List[FirstOrderOperator]:
    """[R_j for j in wspace.coords], R_j = sum_i (1 + delta_ij) w_i d/dw_ij."""
    coords = wspace.coords
    return [FirstOrderOperator({
        wspace.jet(i, j): ex.mul(ex.Const(2 if i == j else 1), wspace.jet(i))
        for i in coords}) for j in coords]


def homogeneity_degree(e: ex.Expr, wspace: JetSpace) -> int:
    """Degree k with D e = k e: e's degree in the w-derivatives, read from
    its tree (expr.degree).  NotHomogeneous where e is identically zero or
    has no integer degree; rescale_invariance_check confirms D e = k e at
    every point."""
    if isinstance(e, ex.Const) and e.value == 0:
        raise NotHomogeneous("the equation vanishes identically")
    k = ex.degree(e, euler_operator(wspace).coefficients)
    if k is None:
        raise NotHomogeneous("no degree in the w-derivatives")
    if k.denominator != 1:
        raise NotHomogeneous(f"non-integer homogeneity degree {k}")
    return k


def rescale_invariance_check(e: ex.Expr, wspace: JetSpace,
                             cfg: nm.SamplerConfig = nm.SamplerConfig(), *,
                             degree: int) -> None:
    """The covariant-form contract: D - degree and every R_j annihilate e.

    One first_non_annihilating pass; the operator that fails at the
    earliest point raises NotHomogeneous (D) or NotRescaleInvariant (R_j).
    """
    ops = [euler_operator(wspace, degree)] + rescale_operators(wspace)
    found = nm.first_non_annihilating(ops, [e], cfg)
    if found is None:
        return
    _, k = found
    if k == 0:
        raise NotHomogeneous(
            f"D - {degree} does not annihilate the equation")
    raise NotRescaleInvariant(
        f"R_{wspace.coords[k - 1]} does not annihilate the equation")


def J_invariants(wspace: JetSpace, dep_coord: str
                 ) -> Tuple[Dict[str, ex.Expr], Dict[Tuple[str, str], ex.Expr]]:
    """Normalized rescale invariants J~_i = w_i/w_n, J~_ij = J_ij / w_n^3."""
    wn = wspace.jet(dep_coord)
    first = {}
    second = {}
    coords = wspace.coords
    for i in coords:
        first[i] = ex.mul(wspace.jet(i), ex.pow_(wn, -1))
    for a, i in enumerate(coords):
        for j in coords[a + 1:]:
            wi, wj = wspace.jet(i), wspace.jet(j)
            jij = ex.add(
                ex.mul(ex.pow_(wi, 2), wspace.jet(j, j)),
                ex.mul(ex.pow_(wj, 2), wspace.jet(i, i)),
                ex.mul(ex.Const(-2), wi, wj, wspace.jet(i, j)),
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
        wspace.base(dep): split.jet(),
    }
    indep = split.coords
    for a in indep:
        subs[wspace.jet(a)] = ex.mul(ex.Const(-1), split.jet(a))
        subs[wspace.jet(dep, a)] = ex.ZERO
    for i, a in enumerate(indep):
        for b in indep[i:]:
            subs[wspace.jet(a, b)] = ex.mul(ex.Const(-1), split.jet(a, b))
    return subs


def section(wspace: JetSpace, lhs: ex.Expr, dep_coord: str) -> ScalarPDE:
    """The split PDE of lhs on the normalized section of wspace; unchecked."""
    indep = tuple(c for c in wspace.coords if c != dep_coord)
    split = JetSpace(indep, dep_coord, params=wspace.params)
    return ScalarPDE(split, ex.substitute(lhs,
                                          normalized_section(wspace, split)))


def from_covariant(cov: CovariantPDE, cfg: Optional[nm.SamplerConfig] = None
                   ) -> ScalarPDE:
    """Split form of a covariant PDE, checked when made; cfg is unused."""
    return section(cov.space, cov.lhs, cov.dep_coord)
