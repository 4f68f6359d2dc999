"""Differential-invariant pipelines for free and simply transitive actions.

Free intransitive actions (pipeline "free"): the algebra acts on orbit
coordinates x^1..x^n; transversal coordinates y^1..y^{m-1} and the dependent
u are invariant.  A basis of second-order differential invariants is

    y^mu, u, u_{y^mu}, u_(i), u_{y^mu y^nu}, u_(ij), D_{y^mu} u_(i),

with u_(i) = eta_i^j u_j the right-invariant frame derivatives and u_(ij)
their symmetrizations.

Simply transitive actions (pipeline "transitive"): all n = dim coordinates
z = (x, u) are moved; the construction passes through the covariant scalar
w(z).  With w_(i) = eta_i(w) and w_(ij) the symmetrized second frame
derivatives, the combinations

    I_(i) = w_(i) / w_(d),
    I_(ij) = (w_(i)^2 w_(jj) - 2 w_(i) w_(j) w_(ij) + w_(j)^2 w_(ii)) / w_(d)^3

(d = frame index of the dependent coordinate) become, after substituting the
implicit-function relations for the w-derivatives, functions of the split
jet variables alone.  The residual w-jets {w_u, w_au, w_uu} must cancel;
this is verified numerically before they are normalized away
(ResidualDependence otherwise).

Invariant quasi-linear templates fix the first second-order slot to 1 and
fill the rest with opaque function heads a1, a2, ... , b applied to the
first-order invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import covariant
from . import expr as ex
from . import liealg
from . import numeric as nm
from .errors import ResidualDependence, VerificationFailed
from .jet import (
    JetSpace,
    ProlongedField,
    VectorField,
    frame_first,
    prolong2,
    symmetrized_frame_second,
    total_derivative,
)


@dataclass(frozen=True)
class PDETemplate:
    """An invariant quasi-linear equation with opaque coefficient slots."""

    space: JetSpace
    lhs: ex.Expr
    heads: tuple  # names of the arbitrary-function slots
    args: tuple   # labels of the invariants the slots depend on

    def __str__(self):
        return f"{ex.render(self.lhs)} = 0"


@dataclass(frozen=True)
class InvariantSet:
    """A labelled basis of differential invariants plus its template."""

    algebra: str
    params: tuple  # ((name, Fraction), ...)
    pipeline: str  # "free" | "transitive"
    space: JetSpace
    invariants: tuple  # ((label, Expr), ...)
    template: PDETemplate
    # always True: a pipeline raises rather than return an unchecked set
    verified: bool
    seed: int
    # prolonged generators of the realization; not part of the result
    generators: tuple = field(default=(), compare=False, repr=False)

    def exprs(self) -> List[ex.Expr]:
        return [e for _, e in self.invariants]

    def labelled(self) -> Dict[str, ex.Expr]:
        return dict(self.invariants)

    def to_json(self, pretty: bool = False) -> str:
        payload = {
            "algebra": self.algebra,
            "params": {k: str(v) for k, v in self.params},
            "pipeline": "I" if self.pipeline == "free" else "II",
            "coords": list(self.space.coords),
            "dep": self.space.dep,
            "invariants": [{"label": label, "expr": ex.render(e)}
                           for label, e in self.invariants],
            "template": ex.render(self.template.lhs),
            "verified": self.verified,
            "seed": self.seed,
        }
        if pretty:
            return json.dumps(payload, sort_keys=True, indent=2)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _verify_annihilation(fields: Sequence[ProlongedField],
                         invariants: Sequence[Tuple[str, ex.Expr]],
                         cfg: nm.SamplerConfig,
                         params: Optional[Mapping]) -> None:
    """Every invariant must be annihilated by every prolonged generator."""
    for label, inv in invariants:
        denoms = ex.denominator_symbols(inv)
        partials = {}
        for idx, pf in enumerate(fields, start=1):
            residual = pf.apply(inv, partials)
            if not nm.is_zero(residual, cfg, params, extra_denoms=denoms):
                raise VerificationFailed(
                    f"invariant {label} is not annihilated by generator X{idx}")


def _check_rank(invariants: Sequence[Tuple[str, ex.Expr]],
                space: JetSpace, orbit_dim: int,
                cfg: nm.SamplerConfig, params: Optional[Mapping]) -> None:
    exprs = [e for _, e in invariants]
    jet_dim = len(space.coords) + len(space.jet_symbols(2))
    expected = jet_dim - orbit_dim
    if len(exprs) != expected:
        raise VerificationFailed(
            f"expected {expected} invariants (jet dim {jet_dim} minus orbit "
            f"dim {orbit_dim}), produced {len(exprs)}")
    variables = [space.base(c) for c in space.coords] + \
                [s for s in space.jet_symbols(2)]
    rank = nm.functional_rank(exprs, cfg, params, variables=variables)
    if rank != expected:
        raise VerificationFailed(
            f"invariant family has rank {rank}, expected {expected}")


def _template(space: JetSpace, first: Sequence[Tuple[str, ex.Expr]],
              second: Sequence[Tuple[str, ex.Expr]]) -> PDETemplate:
    """Quasi-linear template: first second-order slot 1, the rest a_k(...), b(...)."""
    args = [e for _, e in first]
    arg_labels = tuple(label for label, _ in first)
    terms = [second[0][1]]
    heads = []
    for k, (_, e) in enumerate(second[1:], start=1):
        head = f"a{k}"
        heads.append(head)
        terms.append(ex.mul(ex.applied(head, args), e))
    heads.append("b")
    terms.append(ex.applied("b", args))
    return PDETemplate(space, ex.add(*terms), tuple(heads), arg_labels)


@dataclass(frozen=True)
class Realization:
    """An algebra realized once for one pipeline.

    space is the pipeline's jet space, eta the right-invariant frames the
    invariants are built from, generators the left-invariant fields
    prolonged to second order on space.
    """

    space: JetSpace
    eta: tuple
    generators: tuple


def _gated_fields(entry: liealg.AlgebraCatalogEntry, zspace: JetSpace,
                  cfg: nm.SamplerConfig):
    """The frames on zspace, once, after they pass the realization gate."""
    xi, eta = liealg.build_invariant_fields(entry.sc, zspace)
    report = liealg.verify_realization(xi, eta, entry.sc, cfg)
    if not report.passed:
        raise VerificationFailed(
            f"realization gate failed for {entry.name}: {report.failures()}")
    return xi, eta


def realize_free(entry: liealg.AlgebraCatalogEntry, m: int = 1,
                 cfg: nm.SamplerConfig = nm.SamplerConfig()) -> Realization:
    """Realization for a free action with m invariant variables.

    The frames live on the orbit coordinates x1..xn and are re-rooted on
    the full space x1..xn, y1..y{m-1} with zero components along y.
    """
    xs = tuple(f"x{i}" for i in range(1, entry.dim + 1))
    ys = tuple(f"y{mu}" for mu in range(1, m))
    params = [p for p, _ in entry.params]
    space = JetSpace(xs + ys, "u", params=params)
    xi, eta = _gated_fields(entry, JetSpace(xs, "u", params=params), cfg)
    eta = tuple(VectorField.from_dict(space, dict(f.components)) for f in eta)
    gens = tuple(prolong2(VectorField.from_dict(space, dict(f.components)))
                 for f in xi)
    return Realization(space, eta, gens)


def realize_transitive(entry: liealg.AlgebraCatalogEntry,
                       cfg: nm.SamplerConfig = nm.SamplerConfig()
                       ) -> Realization:
    """Realization for a simply transitive action.

    The frames live on the z-space with covariant scalar w; the generators
    act on the split space, where the dependent coordinate becomes the
    graph u of the dependent variable.  eta stays on the z-space.
    """
    wspace = entry.split_space("w")
    dep = entry.dep
    xi, eta = _gated_fields(entry, wspace, cfg)
    indep = tuple(c for c in wspace.coords if c != dep)
    split = JetSpace(indep, dep, params=wspace.params)
    graph = {wspace.base(dep): ex.Sym(split.jet())}
    gens = []
    for f in xi:
        comps = dict(f.components)
        theta = ex.substitute(comps.pop(dep), graph)
        comps = {c: ex.substitute(comp, graph) for c, comp in comps.items()}
        gens.append(prolong2(VectorField.from_dict(split, comps), theta))
    return Realization(split, tuple(eta), tuple(gens))


# ---------------------------------------------------------------------------
# Pipeline for free (intransitive) actions


def type1_pipeline(entry: liealg.AlgebraCatalogEntry, m: int = 1,
                   cfg: nm.SamplerConfig = nm.SamplerConfig()) -> InvariantSet:
    """Invariants and template for a free action with m invariant variables.

    The n = dim orbit coordinates are named x1..xn; the m - 1 transversal
    invariant coordinates are y1..y{m-1}; the dependent variable u is the
    m-th invariant coordinate.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = entry.dim
    real = realize_free(entry, m, cfg)
    space, eta_full = real.space, real.eta
    ys = space.coords[n:]
    params = entry.param_map

    first: List[Tuple[str, ex.Expr]] = []
    for mu in ys:
        first.append((f"u_{mu}", ex.Sym(space.jet(mu))))
    u_i = []
    for i, f in enumerate(eta_full, start=1):
        e = frame_first(f)
        u_i.append(e)
        first.append((f"u_({i})", e))

    second: List[Tuple[str, ex.Expr]] = []
    for a, mu in enumerate(ys):
        for nu in ys[a:]:
            second.append((f"u_{mu}{nu}", ex.Sym(space.jet(mu, nu))))
    for i in range(n):
        for j in range(i, n):
            second.append((f"u_({i + 1}{j + 1})",
                           symmetrized_frame_second(eta_full[i], eta_full[j])))
    for i, e in enumerate(u_i, start=1):
        for mu in ys:
            second.append((f"u_({i})_{mu}", total_derivative(e, mu, space)))

    invariants: List[Tuple[str, ex.Expr]] = []
    for mu in ys:
        invariants.append((mu, ex.Sym(space.base(mu))))
    invariants.append(("u", ex.Sym(space.jet())))
    invariants.extend(first)
    invariants.extend(second)

    _verify_annihilation(real.generators, invariants, cfg, params)
    _check_rank(invariants, space, n, cfg, params)

    template = _template(
        space,
        [("u", ex.Sym(space.jet()))] + first
        + [(mu, ex.Sym(space.base(mu))) for mu in ys],
        second,
    )
    return InvariantSet(entry.name, entry.params, "free", space,
                        tuple(invariants), template, True, cfg.seed,
                        real.generators)


# ---------------------------------------------------------------------------
# Pipeline for simply transitive actions


def _epod_substitutions(wspace: JetSpace, split: JetSpace,
                        dep: str) -> Dict[ex.Symbol, ex.Expr]:
    """Inverse implicit-function relations: w-jets in terms of split jets.

    w_a = -u_a w_n and w_ab = -w_n u_ab - w_bn u_a - w_an u_b - u_a u_b w_nn;
    the residual jets {w_n, w_an, w_nn} are kept as symbols to be eliminated.
    """
    wn = ex.Sym(wspace.jet(dep))
    wnn = ex.Sym(wspace.jet(dep, dep))
    subs: Dict[ex.Symbol, ex.Expr] = {}
    subs[wspace.base(dep)] = ex.Sym(split.jet())
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


def eliminate_w(e: ex.Expr, wspace: JetSpace, split: JetSpace, dep: str,
                cfg: nm.SamplerConfig = nm.SamplerConfig(),
                params: Optional[Mapping] = None,
                label: str = "") -> ex.Expr:
    """Remove the residual w-jets from an epod-substituted invariant.

    Verifies numerically that the expression is independent of each of
    {w_n, w_an, w_nn} (partial derivative is_zero), then puts it on the
    normalized section, where w_n -> 1, w_an -> 0, w_nn -> 0 are the only
    substitutions left to make.  Raises ResidualDependence otherwise.
    """
    residual_syms = [wspace.jet(dep)]
    residual_syms += [wspace.jet(dep, a) for a in wspace.coords if a != dep]
    residual_syms.append(wspace.jet(dep, dep))
    denoms = ex.denominator_symbols(e)
    for s in residual_syms:
        d = ex.diff(e, s)
        if d == ex.ZERO:
            continue
        if not nm.is_zero(d, cfg, params, extra_denoms=denoms):
            raise ResidualDependence(
                f"{label or ex.render(e)} still depends on {s.name}")
    return ex.substitute(e, covariant.normalized_section(wspace, split))


def type2_pipeline(entry: liealg.AlgebraCatalogEntry,
                   cfg: nm.SamplerConfig = nm.SamplerConfig()) -> InvariantSet:
    """Invariants and template for a simply transitive action (dim >= 2)."""
    n = entry.dim
    if n < 2:
        raise ValueError("simply transitive pipeline requires dim >= 2")
    real = realize_transitive(entry, cfg)
    split, eta = real.space, real.eta
    wspace = eta[0].space
    dep = entry.dep
    d = entry.dep_position()  # 1-based frame index of the dependent coordinate
    params = entry.param_map

    w1 = [frame_first(f) for f in eta]
    w2 = {}
    for i in range(n):
        for j in range(i, n):
            w2[(i + 1, j + 1)] = symmetrized_frame_second(eta[i], eta[j])

    wd = w1[d - 1]
    I_first: List[Tuple[str, ex.Expr]] = []
    for i in range(1, n + 1):
        if i == d:
            continue
        I_first.append((f"v_{i}", ex.mul(w1[i - 1], ex.pow_(wd, -1))))
    I_second: List[Tuple[str, ex.Expr]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            wi, wj = w1[i - 1], w1[j - 1]
            num = ex.add(
                ex.mul(ex.pow_(wi, 2), w2[(j, j)]),
                ex.mul(ex.pow_(wj, 2), w2[(i, i)]),
                ex.mul(ex.Const(-2), wi, wj, w2[(i, j)]),
            )
            I_second.append((f"v_{i}{j}", ex.mul(num, ex.pow_(wd, -3))))

    subs = _epod_substitutions(wspace, split, dep)

    invariants: List[Tuple[str, ex.Expr]] = []
    for label, e in I_first + I_second:
        lifted = ex.substitute(e, subs)
        invariants.append((label, eliminate_w(lifted, wspace, split, dep,
                                              cfg, params, label)))

    _verify_annihilation(real.generators, invariants, cfg, params)
    _check_rank(invariants, split, n, cfg, params)

    n_first = len(I_first)
    template = _template(split, invariants[:n_first], invariants[n_first:])
    return InvariantSet(entry.name, entry.params, "transitive", split,
                        tuple(invariants), template, True, cfg.seed,
                        real.generators)


def instantiate_template(template: PDETemplate,
                         bindings: Mapping[str, ex.Expr]) -> ex.Expr:
    """Substitute concrete choices for the arbitrary-function slots.

    bindings maps head name -> a callable on the slot arguments, or a
    constant expression.
    """
    heads = {}
    for name, value in bindings.items():
        if callable(value) and not isinstance(value, ex.Expr):
            heads[name] = value
        else:
            const = ex.as_expr(value)
            heads[name] = (lambda *args, _c=const: _c)
    return ex.substitute_heads(template.lhs, heads)
