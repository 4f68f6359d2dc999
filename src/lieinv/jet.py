"""Second-order jet spaces, total derivatives, prolongation, frame operators.

A JetSpace fixes the independent coordinates and the name of the dependent
variable; it owns the base and jet symbols and resolves identifiers for the
parser.  Spaces with the same coordinates, dependent name and parameters
are equal, so a space (and a VectorField on it) is a memo key by value.
On top of it live:

  * total_derivative  -- D_a = d/dx^a + u_a d/du + u_ab d/du_b
  * VectorField       -- first-order derivation on the base coordinates
  * FirstOrderOperator -- c + sum_s c_s d/ds on jet expressions
  * frame_derivative  -- the lifted operator  X^a D_a  of a vector field
  * frame_jets        -- X_i u and (1/2)(X_i X_j + X_j X_i) u of a frame,
                         each total derivative taken once
  * prolong2          -- second prolongation of a point symmetry generator,
                         each D_a xi^b taken once, memoized by (field, theta)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import expr as ex
from .errors import OrderOverflow


class JetSpace:
    """Coordinates, dependent variable, and the induced order-2 jet symbols."""

    def __init__(self, coords: Sequence[str], dep: str,
                 params: Iterable[str] = ()):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate coordinates in {coords}")
        if dep in coords:
            raise ValueError(f"dependent name {dep!r} collides with a coordinate")
        self.coords = coords
        self.dep = dep
        self.params = tuple(sorted(set(params)))
        self._base = {c: ex.Symbol(c, ex.BASE) for c in coords}
        self._params = {p: ex.Symbol(p, ex.PARAM) for p in self.params}

    # equal names make equal spaces, so a space is a memo key by value
    def __eq__(self, other):
        return isinstance(other, JetSpace) and (
            (self.coords, self.dep, self.params)
            == (other.coords, other.dep, other.params))

    def __hash__(self):
        return hash((self.coords, self.dep, self.params))

    # -- symbols -------------------------------------------------------------
    def base(self, name: str) -> ex.Symbol:
        return self._base[name]

    def jet(self, *index: str) -> ex.Symbol:
        for c in index:
            if c not in self._base:
                raise KeyError(f"{c!r} is not a coordinate of this space")
        return ex.jet_symbol(self.dep, index)

    def jet_symbols(self):
        """All jet symbols up to order 2, in a fixed order."""
        n = len(self.coords)
        return [self.jet()] + [self.jet(a) for a in self.coords] + [
            self.jet(self.coords[i], self.coords[j])
            for i in range(n) for j in range(i, n)]

    # -- identifier resolution (parser context) -------------------------------
    def resolve(self, name: str) -> ex.Symbol:
        if name in self._base:
            return self._base[name]
        if name in self._params:
            return self._params[name]
        if name == self.dep:
            return self.jet()
        prefix = self.dep + "_"
        if name.startswith(prefix):
            index = self._parse_index(name[len(prefix):])
            if index is not None and 1 <= len(index) <= 2:
                return self.jet(*index)
        raise KeyError(name)

    def _parse_index(self, suffix: str):
        """Split a jet-index suffix into coordinate names, longest match first."""
        by_len = sorted(self._base, key=len, reverse=True)
        out = []
        while suffix:
            for c in by_len:
                if suffix.startswith(c):
                    out.append(c)
                    suffix = suffix[len(c):]
                    break
            else:
                return None
        return out

    def parse(self, text: str) -> ex.Expr:
        return ex.parse(text, self)


def total_derivative(e: ex.Expr, coord: str, space: JetSpace) -> ex.Expr:
    """Total derivative D_coord of an expression of order at most 1.

    Raises OrderOverflow if e depends on a second-order jet variable whose
    derivative would leave the order-2 jet space.
    """
    a = space.base(coord)
    parts = [ex.diff(e, a)]
    for sym in e.free_symbols():
        if sym.kind != ex.JET or sym.dep != space.dep:
            continue
        if sym.order >= 2:
            if ex.diff(e, sym) != ex.ZERO:
                raise OrderOverflow(
                    f"total derivative of {sym.name} leaves the order-2 jet space"
                )
            continue
        lifted = space.jet(*(sym.index + (coord,)))
        parts.append(ex.mul(ex.diff(e, sym), ex.Sym(lifted)))
    return ex.add(*parts)


@dataclass(frozen=True)
class VectorField:
    """A vector field on the base coordinates of a jet space.

    `components` maps coordinate name -> coefficient expression; missing
    coordinates mean a zero component.
    """

    space: JetSpace
    components: tuple  # tuple of (coord, Expr) in space.coords order

    @staticmethod
    def from_dict(space: JetSpace, comps: Mapping[str, ex.Expr]) -> "VectorField":
        def conv(v):
            return space.parse(v) if isinstance(v, str) else ex.as_expr(v)

        items = tuple((c, conv(comps.get(c, ex.ZERO))) for c in space.coords)
        return VectorField(space, items)

    def component(self, coord: str) -> ex.Expr:
        for c, e in self.components:
            if c == coord:
                return e
        raise KeyError(coord)

    def apply(self, e: ex.Expr) -> ex.Expr:
        """First-order derivation: sum of component * d/dcoord."""
        return ex.add(*[ex.mul(comp, ex.diff(e, self.space.base(c)))
                        for c, comp in self.components])

    def bracket(self, other: "VectorField") -> "VectorField":
        comps = {}
        for c, _ in self.components:
            comps[c] = ex.add(
                self.apply(other.component(c)),
                ex.mul(ex.Const(-1), other.apply(self.component(c))),
            )
        return VectorField.from_dict(self.space, comps)

    def frame_derivative(self, e: ex.Expr) -> ex.Expr:
        """The lifted operator X^a D_a applied to a jet expression."""
        return ex.add(*[ex.mul(comp, total_derivative(e, c, self.space))
                        for c, comp in self.components])

    def __repr__(self):
        body = " + ".join(f"({ex.render(comp)}) d_{c}"
                          for c, comp in self.components
                          if comp != ex.ZERO) or "0"
        return f"<VectorField {body}>"


def frame_jets(eta: Sequence[VectorField]) -> Tuple[list, dict]:
    """The frame jets of u: first[i] = X_i u and, for i <= j,
    second[(i, j)] = (1/2)(X_i X_j + X_j X_i) u, in (i, j) order.

    Each total derivative D_c X_j u is taken once, and X_i X_j u is
    sum_c X_i^c D_c X_j u, as X_i.frame_derivative(X_j u) builds it.
    """
    space = eta[0].space
    first = [f.frame_derivative(ex.Sym(space.jet())) for f in eta]
    d = [{c: total_derivative(e, c, space) for c in space.coords}
         for e in first]

    def lifted(i, j):
        return ex.add(*[ex.mul(comp, d[j][c]) for c, comp in eta[i].components])

    half = ex.Const(Fraction(1, 2))
    second = {(i, j): ex.mul(half, ex.add(lifted(i, j), lifted(j, i)))
              for i in range(len(eta)) for j in range(i, len(eta))}
    return first, second


class FirstOrderOperator:
    """The operator e -> c e + sum_s coefficients[s] * de/ds on jet expressions.

    `coefficients` maps each symbol s to the coefficient of d/ds, and the
    key None to the zeroth-order coefficient c (absent means 0).
    """

    def __init__(self, coefficients: Dict[Optional[ex.Symbol], ex.Expr]):
        self.coefficients = coefficients

    def apply(self, e: ex.Expr) -> ex.Expr:
        """Apply the operator to a second-order jet expression."""
        return ex.add(*[ex.mul(coeff, e if s is None else ex.diff(e, s))
                        for s, coeff in self.coefficients.items()])


class ProlongedField(FirstOrderOperator):
    """Second prolongation of a point symmetry X = xi^a d_a + theta d_u.

    Its coefficients are theta for u, xi^a for x^a, phi_a for u_a and
    phi_ab for u_ab, so X e = sum_s coefficients[s] * de/ds.  Made by
    prolong2.
    """

    def __init__(self, space: JetSpace,
                 coefficients: Dict[Optional[ex.Symbol], ex.Expr]):
        super().__init__(coefficients)
        self.space = space


PROLONG_MEMO_SIZE = 16  # distinct (field, theta) whose prolongations are kept


@lru_cache(maxsize=PROLONG_MEMO_SIZE)
def _prolongation(field: VectorField, theta: ex.Expr) -> tuple:
    """The (symbol, coefficient) pairs of the second prolongation."""
    space = field.space
    given = dict(field.components)
    xi = {c: given.get(c, ex.ZERO) for c in space.coords}
    # D_a xi^b, taken once for both phi_a and phi_ab
    dxi = {(a, b): total_derivative(xi[b], a, space)
           for a in space.coords for b in space.coords}
    coeffs = {space.jet(): theta}
    phi1 = {}
    # phi_a = D_a theta - u_b D_a xi^b
    for a in space.coords:
        terms = [total_derivative(theta, a, space)]
        for b in space.coords:
            terms.append(ex.mul(ex.Const(-1), ex.Sym(space.jet(b)),
                                dxi[a, b]))
        phi1[a] = ex.add(*terms)
        coeffs[space.base(a)] = xi[a]
        coeffs[space.jet(a)] = phi1[a]
    # phi_ab = D_b phi_a - u_ac D_b xi^c
    for i, a in enumerate(space.coords):
        for b in space.coords[i:]:
            terms = [total_derivative(phi1[a], b, space)]
            for c in space.coords:
                terms.append(ex.mul(ex.Const(-1), ex.Sym(space.jet(a, c)),
                                    dxi[b, c]))
            coeffs[space.jet(a, b)] = ex.add(*terms)
    return tuple(coeffs.items())


def prolong2(field: VectorField, theta: ex.Expr = ex.ZERO) -> ProlongedField:
    """Second prolongation of field + theta d_u, on field.space.

    Computed once per distinct (field, theta), by value (equal spaces and
    structurally equal components), in a bounded memo (_prolongation,
    PROLONG_MEMO_SIZE entries, least recently used dropped first); every
    call gets its own ProlongedField and coefficient dict, so a caller
    cannot alter the memo.
    """
    return ProlongedField(field.space,
                          dict(_prolongation(field, ex.as_expr(theta))))
