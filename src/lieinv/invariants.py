"""Differential-invariant pipelines for free and simply transitive actions.

Both pipelines start from realize: the invariant frames, built in
second-kind coordinates and gated, and the generators prolonged on the
pipeline's jet space.  Each step is memoized by value in a bounded
lru_cache, so a run realizes each algebra once per key:

  * the gated frames, liealg.build_invariant_fields, keyed by (sc, zspace,
    cfg), at most liealg.FRAME_MEMO_SIZE entries.  Only a passing gate is
    stored: a failing one raises VerificationFailed again on every call;
  * the prolongation, jet.prolong2, keyed by (field, theta), at most
    jet.PROLONG_MEMO_SIZE entries.

Callers get tuples or fresh copies, never a memo's own mutable objects.

Free intransitive actions (pipeline "free"): the algebra acts on orbit
coordinates x^1..x^n; transversal coordinates y^1..y^{m-1} and the dependent
u are invariant.  A basis of second-order differential invariants is

    y^mu, u, u_{y^mu}, u_(i), u_{y^mu y^nu}, u_(ij), D_{y^mu} u_(i),

with u_(i) = eta_i^j u_j the right-invariant frame derivatives and u_(ij)
their symmetrizations, both read from the one table jet.frame_jets.

Simply transitive actions (pipeline "transitive"): all n = dim coordinates
z = (x, u) are moved; the construction passes through the covariant scalar
w(z).  The invariants are the rescale invariants J~ of covariant.J_invariants
taken on the frame derivatives: w_i -> w_(i) = eta_i(w) and w_ij -> w_(ij),
the symmetrized second frame derivatives, from the same jet.frame_jets.  These are functions of the split
jet variables alone on w = 0: they do not depend on the residual w-jets
{w_u, w_au, w_uu}, the coordinates along the gauge w -> phi*w.  That holds
exactly when they pass the covariant-form contract at degree 0, one pass
over D and every R_j (ResidualDependence otherwise), before each is put on
the normalized section w_u = 1, w_au = 0, w_uu = 0, w_a = -u_a,
w_ab = -u_ab.

Invariant quasi-linear templates fix the first second-order slot to 1 and
fill the rest with opaque function heads a1, a2, ... , b applied to the
first-order invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from . import covariant
from . import expr as ex
from . import liealg
from . import numeric as nm
from .errors import (
    NotHomogeneous,
    NotRescaleInvariant,
    ResidualDependence,
    VerificationFailed,
)
from .jet import (
    JetSpace,
    ProlongedField,
    VectorField,
    frame_jets,
    prolong2,
    total_derivative,
)


@dataclass(frozen=True)
class PDETemplate:
    """An invariant quasi-linear equation with opaque coefficient slots."""

    space: JetSpace
    lhs: ex.Expr
    heads: tuple  # names of the arbitrary-function slots

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
                         cfg: nm.SamplerConfig) -> None:
    """Every invariant must be annihilated by every prolonged generator.

    The invariants are checked as one family; the error names the first
    (invariant, generator) pair that fails.
    """
    found = nm.first_non_annihilating(fields, [e for _, e in invariants], cfg)
    if found is not None:
        i, k = found
        raise VerificationFailed(f"invariant {invariants[i][0]} is not "
                                 f"annihilated by generator X{k + 1}")


def _check_rank(invariants: Sequence[Tuple[str, ex.Expr]],
                space: JetSpace, orbit_dim: int, cfg: nm.SamplerConfig) -> None:
    exprs = [e for _, e in invariants]
    jet_dim = len(space.coords) + len(space.jet_symbols())
    expected = jet_dim - orbit_dim
    if len(exprs) != expected:
        raise VerificationFailed(
            f"expected {expected} invariants (jet dim {jet_dim} minus orbit "
            f"dim {orbit_dim}), produced {len(exprs)}")
    rank = nm.functional_rank(exprs, cfg)
    if rank != expected:
        raise VerificationFailed(
            f"invariant family has rank {rank}, expected {expected}")


def _template(space: JetSpace, first: Sequence[Tuple[str, ex.Expr]],
              second: Sequence[Tuple[str, ex.Expr]]) -> PDETemplate:
    """Quasi-linear template: first second-order slot 1, the rest a_k(...), b(...)."""
    args = [e for _, e in first]
    terms = [second[0][1]]
    heads = []
    for k, (_, e) in enumerate(second[1:], start=1):
        head = f"a{k}"
        heads.append(head)
        terms.append(ex.mul(ex.applied(head, args), e))
    heads.append("b")
    terms.append(ex.applied("b", args))
    return PDETemplate(space, ex.add(*terms), tuple(heads))


def realize(entry: liealg.AlgebraCatalogEntry, zspace: JetSpace,
            space: JetSpace, cfg: nm.SamplerConfig) -> Tuple[tuple, tuple]:
    """The frames eta on zspace and the generators prolonged on space.

    Both frames come gated from liealg.build_invariant_fields
    (VerificationFailed otherwise), built and gated once per distinct
    (entry.sc, zspace, cfg) in its bounded memo.  If space.dep is a
    coordinate of zspace, as for a simply transitive action, that
    coordinate becomes the graph u of the dependent variable and each xi's
    component along it is theta; otherwise u is invariant and theta is
    zero.  Each generator comes from jet.prolong2, memoized by (field,
    theta).
    """
    xi, eta = liealg.build_invariant_fields(entry.sc, zspace, cfg)
    graph = {}
    if space.dep in zspace.coords:
        graph[zspace.base(space.dep)] = space.jet()
    gens = []
    for f in xi:
        comps = {c: ex.substitute(comp, graph) for c, comp in f.components}
        theta = comps.pop(space.dep, ex.ZERO)
        gens.append(prolong2(VectorField.from_dict(space, comps), theta))
    return eta, tuple(gens)


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
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{mu}" for mu in range(1, m))
    names = [p for p, _ in entry.params]
    zspace = JetSpace(xs, "u", params=names)
    space = JetSpace(xs + ys, "u", params=names)
    eta, generators = realize(entry, zspace, space, cfg)
    u_i, u_ij = frame_jets(eta)

    first: List[Tuple[str, ex.Expr]] = []
    for mu in ys:
        first.append((f"u_{mu}", space.jet(mu)))
    for i, e in enumerate(u_i, start=1):
        first.append((f"u_({i})", e))

    second: List[Tuple[str, ex.Expr]] = []
    for a, mu in enumerate(ys):
        for nu in ys[a:]:
            second.append((f"u_{mu}{nu}", space.jet(mu, nu)))
    for (i, j), e in u_ij.items():
        second.append((f"u_({i + 1}{j + 1})", e))
    for i, e in enumerate(u_i, start=1):
        for mu in ys:
            second.append((f"u_({i})_{mu}", total_derivative(e, mu, space)))

    invariants: List[Tuple[str, ex.Expr]] = []
    for mu in ys:
        invariants.append((mu, space.base(mu)))
    invariants.append(("u", space.jet()))
    invariants.extend(first)
    invariants.extend(second)

    _verify_annihilation(generators, invariants, cfg)
    _check_rank(invariants, space, n, cfg)

    template = _template(
        space,
        [("u", space.jet())] + first + [(mu, space.base(mu)) for mu in ys],
        second,
    )
    return InvariantSet(entry.name, entry.params, "free", space,
                        tuple(invariants), template, True, cfg.seed,
                        generators)


# ---------------------------------------------------------------------------
# Pipeline for simply transitive actions


def eliminate_w(e: ex.Expr, wspace: JetSpace, split: JetSpace,
                cfg: nm.SamplerConfig = nm.SamplerConfig(),
                label: str = "") -> ex.Expr:
    """A w-space invariant on the normalized section of split.

    e is free of the residual w-jets {w_n, w_an, w_nn}, the coordinates
    along the gauge w -> phi*w, exactly when D e = 0 and R_j e = 0 for
    every j: the covariant-form contract at degree 0.  A refusal is raised
    as ResidualDependence naming the operator that fails.  The lift to
    those coordinates followed by the section is the section.
    """
    try:
        covariant.rescale_invariance_check(e, wspace, cfg, degree=0)
    except (NotHomogeneous, NotRescaleInvariant) as err:
        raise ResidualDependence(f"{label or ex.render(e)} depends on the "
                                 f"residual w-jets: {err}") from err
    return ex.substitute(e, covariant.normalized_section(wspace, split))


def type2_pipeline(entry: liealg.AlgebraCatalogEntry,
                   cfg: nm.SamplerConfig = nm.SamplerConfig()) -> InvariantSet:
    """Invariants and template for a simply transitive action (dim >= 2)."""
    n = entry.dim
    if n < 2:
        raise ValueError("simply transitive pipeline requires dim >= 2")
    wspace = entry.split_space("w")
    dep = entry.dep
    split = JetSpace(tuple(c for c in wspace.coords if c != dep), dep,
                     params=wspace.params)
    eta, generators = realize(entry, wspace, split, cfg)

    # J~ on the frame derivatives, frame i paired with wspace.coords[i - 1]
    coords = wspace.coords
    w_i, w_ij = frame_jets(eta)
    frame = {wspace.jet(c): e for c, e in zip(coords, w_i)}
    frame.update({wspace.jet(coords[i], coords[j]): e
                  for (i, j), e in w_ij.items()})
    index = {c: i for i, c in enumerate(coords, start=1)}
    J1, J2 = covariant.J_invariants(wspace, dep)
    I_first = [(f"v_{index[c]}", ex.substitute(J, frame))
               for c, J in J1.items() if c != dep]
    I_second = [(f"v_{index[a]}{index[b]}", ex.substitute(J, frame))
                for (a, b), J in J2.items()]

    invariants = [(label, eliminate_w(e, wspace, split, cfg, label=label))
                  for label, e in I_first + I_second]

    _verify_annihilation(generators, invariants, cfg)
    _check_rank(invariants, split, n, cfg)

    n_first = len(I_first)
    template = _template(split, invariants[:n_first], invariants[n_first:])
    return InvariantSet(entry.name, entry.params, "transitive", split,
                        tuple(invariants), template, True, cfg.seed,
                        generators)


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
