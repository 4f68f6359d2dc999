"""Abstract Lie algebras, canonical realizations, and the built-in catalog.

A Lie algebra is given by its structure constants C^k_ij ([e_i,e_j] =
C^k_ij e_k, stored for i<j, 1-based).  From the structure constants alone,
left- and right-invariant vector fields are constructed in canonical
coordinates of the second kind, g_z = e^{z^n e_n} ... e^{z^1 e_1}:

  * the columns of Omega_L are  L_k = Ad(A_1)^{-1} ... Ad(A_{k-1})^{-1} e_k,
  * the columns of Omega_R are  R_k = Ad(A_n) ... Ad(A_{k+1}) e_k,

with A_j = exp(z^j e_j) and Ad(A_j) = exp(z^j ad_{e_j}) computed in closed
form (module putzer), once per generator; Ad(A_j)^{-1} = exp(-z^j ad_{e_j})
is Ad(A_j) at z^j -> -z^j.  Then xi_i = (Omega_L^{-1})_{ki} d/dz^k and
eta_i = (Omega_R^{-1})_{ki} d/dz^k.  The frames are gated where they are
made: build_invariant_fields keeps them in one bounded memo keyed by
(algebra, z-space, sampler configuration), and returns or stores them only
once verify_realization has passed, which raises VerificationFailed
unless, numerically,

  [xi_i, xi_j] = C^k_ij xi_k,   [eta_i, eta_j] = -C^k_ij eta_k,
  [xi_i, eta_j] = 0,            det || xi_i^j || != 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import expr as ex
from . import numeric as nm
from . import putzer
from .errors import (CatalogError, JacobiViolation, SingularEvaluation,
                     VerificationFailed)
from .jet import JetSpace, VectorField

FRAME_MEMO_SIZE = 4  # distinct (algebra, z-space, cfg) whose frames passed


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants of an n-dimensional Lie algebra, exact rationals.

    C maps (i, j, k) -> Fraction for 1 <= i < j <= n; antisymmetry is
    implicit, missing keys are zero.  from_dict checks the Jacobi identity.
    """

    dim: int
    C: tuple  # sorted tuple of ((i, j, k), Fraction)

    @staticmethod
    def from_dict(dim: int, c: Mapping[Tuple[int, int, int], Fraction]
                  ) -> "StructureConstants":
        items = []
        for (i, j, k), v in c.items():
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise ValueError(f"bad structure-constant index {(i, j, k)}")
            v = Fraction(v)
            if v != 0:
                items.append(((i, j, k), v))
        sc = StructureConstants(dim, tuple(sorted(items)))
        validate(sc)
        return sc

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for key, v in self.C:
            if key == (i, j, k):
                return sign * v
        return Fraction(0)

    def ad(self, k: int) -> List[List[Fraction]]:
        """Matrix of ad_{e_k} in the basis e_1..e_n: entry (m, j) = C^m_kj."""
        n = self.dim
        return [[self.coeff(k, j, m) for j in range(1, n + 1)]
                for m in range(1, n + 1)]


def validate(sc: StructureConstants) -> None:
    """Exact check of the Jacobi identity; raises JacobiViolation if broken."""
    n = sc.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                for target in range(1, n + 1):
                    total = Fraction(0)
                    for m in range(1, n + 1):
                        total += sc.coeff(i, j, m) * sc.coeff(m, k, target)
                        total += sc.coeff(j, k, m) * sc.coeff(m, i, target)
                        total += sc.coeff(k, i, m) * sc.coeff(m, j, target)
                    if total != 0:
                        raise JacobiViolation((i, j, k, target))


def parse_rational(value) -> Fraction:
    """A rational or decimal, as text or a number, as a Fraction.

    Raises ValueError on malformed text and on a zero denominator.
    """
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


_JSON_TYPES = {int: "an integer", list: "an array", dict: "an object"}


def _field(obj, key: str, kind: type, default=None):
    """obj[key], which must be of the JSON type kind (a bool is no integer).

    A missing field takes the default; without one it is an error.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is None:
            raise ValueError(f"missing field {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"field {key!r} must be {_JSON_TYPES[kind]}, "
                         f"got {value!r}")
    return value


def load_algebra(data) -> Tuple[StructureConstants, Dict[str, Fraction]]:
    """Parse the JSON algebra format into structure constants and parameters.

    Format: {"dim": n, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1,
    "c": "1"}]}], "params": {"h": "1/2"}} with 1-based integer indices,
    i < j, and rational/decimal coefficients.  A field of the wrong type
    raises ValueError.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    dim = _field(data, "dim", int)
    if dim < 1:
        raise ValueError("dim must be positive")
    c: Dict[Tuple[int, int, int], Fraction] = {}
    for entry in _field(data, "brackets", list, []):
        i, j = _field(entry, "i", int), _field(entry, "j", int)
        if not (1 <= i < j <= dim):
            raise ValueError(f"bracket indices must satisfy 1 <= i < j <= dim, got {i},{j}")
        for term in _field(entry, "terms", list, []):
            k = _field(term, "k", int)
            # any type: parse_rational refuses what is not a rational
            coeff = parse_rational(_field(term, "c", object))
            c[(i, j, k)] = c.get((i, j, k), Fraction(0)) + coeff
    params = {name: parse_rational(v)
              for name, v in _field(data, "params", dict, {}).items()}
    return StructureConstants.from_dict(dim, c), params


# ---------------------------------------------------------------------------
# Symbolic linear algebra (small matrices of expressions)


def mat_det(M: Sequence[Sequence[ex.Expr]]) -> ex.Expr:
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return ex.add(ex.mul(M[0][0], M[1][1]),
                      ex.mul(ex.Const(-1), M[0][1], M[1][0]))
    total = ex.ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = ex.mul(M[0][j], mat_det(minor))
        if j % 2 == 1:
            term = ex.mul(ex.Const(-1), term)
        total = ex.add(total, term)
    return total


def mat_inverse(M: Sequence[Sequence[ex.Expr]]) -> List[List[ex.Expr]]:
    """Inverse by adjugate over the expression field (small n only)."""
    n = len(M)
    det = mat_det(M)
    inv_det = ex.pow_(det, -1)
    if n == 1:
        return [[inv_det]]
    out = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = mat_det(minor)
            if (i + j) % 2 == 1:
                cof = ex.mul(ex.Const(-1), cof)
            out[j][i] = ex.mul(cof, inv_det)
    return out


def _mat_vec_sym(M: List[List[ex.Expr]], v: List[ex.Expr]) -> List[ex.Expr]:
    n = len(M)
    return [ex.add(*[ex.mul(M[i][j], v[j]) for j in range(n)]) for i in range(n)]


# ---------------------------------------------------------------------------
# Second-kind invariant fields


def build_invariant_fields(sc: StructureConstants, space: JetSpace,
                           cfg: nm.SamplerConfig = nm.SamplerConfig()
                           ) -> Tuple[tuple, tuple]:
    """Left- (xi) and right- (eta) invariant fields on the given z-space.

    space.coords supplies the names of z^1..z^n in order; the fields are
    built from structure constants only and returned once they pass
    verify_realization under cfg (VerificationFailed otherwise).  Built and
    gated once per distinct (sc, space, cfg), by value, in the bounded memo
    _gated_frames (FRAME_MEMO_SIZE entries, least recently used dropped
    first; its __wrapped__ builds and gates uncached).  The frames are
    tuples of frozen fields, so no caller can alter what the next one gets.
    """
    # every argument passed on: f(sc, space), f(sc, space, cfg) share a key
    return _gated_frames(sc, space, cfg)


@lru_cache(maxsize=FRAME_MEMO_SIZE)
def _gated_frames(sc: StructureConstants, space: JetSpace,
                  cfg: nm.SamplerConfig) -> Tuple[tuple, tuple]:
    """(xi, eta) on space, built and gated.  lru_cache stores no raised
    VerificationFailed, so a failing key is built and gated again."""
    n = sc.dim
    if len(space.coords) != n:
        raise ValueError("coordinate count does not match algebra dimension")
    if n > 4:
        raise ValueError("construction limited to dim <= 4")
    z = [ex.Sym(space.base(c)) for c in space.coords]
    # Ad(A_k), and its inverse exp(-z^k ad_{e_k}) as Ad(A_k) at z^k -> -z^k
    ad = [putzer.exp_matrix_expr(sc.ad(k + 1), z[k]) for k in range(n)]
    ad_inv = [[[ex.substitute(v, {z[k].symbol: ex.mul(ex.Const(-1), z[k])})
                for v in row] for row in ad[k]] for k in range(n - 1)]

    def frame(chain):
        """Omega^{-1} as fields, with column k of Omega the matrices chain(k)
        applied in turn to e_k."""
        cols = []
        for k in range(n):
            col = [ex.ONE if i == k else ex.ZERO for i in range(n)]
            for M in chain(k):
                col = _mat_vec_sym(M, col)
            cols.append(col)
        inv = mat_inverse(list(zip(*cols)))
        return tuple(VectorField.from_dict(space, {c: inv[k][i] for k, c
                                                   in enumerate(space.coords)})
                     for i in range(n))

    # Omega_L column k: Ad(A_1)^{-1} ... Ad(A_{k-1})^{-1} e_k
    xi = frame(lambda k: ad_inv[:k][::-1])
    # Omega_R column k: Ad(A_n) ... Ad(A_{k+1}) e_k
    eta = frame(lambda k: ad[k + 1:])
    verify_realization(xi, eta, sc, cfg)
    return xi, eta


# ---------------------------------------------------------------------------
# Realization gate


def _field_combination(fields: List[VectorField], coeffs: List[Fraction],
                       space: JetSpace) -> Dict[str, ex.Expr]:
    out = {c: ex.ZERO for c in space.coords}
    for f, coeff in zip(fields, coeffs):
        if coeff == 0:
            continue
        for c, comp in f.components:
            out[c] = ex.add(out[c], ex.mul(ex.Const(coeff), comp))
    return out


def verify_realization(xi: List[VectorField], eta: List[VectorField],
                       sc: StructureConstants,
                       cfg: nm.SamplerConfig = nm.SamplerConfig()) -> None:
    """Numeric gate: commutation relations of both frames plus det || xi || != 0.

    Every relation is checked; VerificationFailed lists each one that fails,
    and "det" if the determinant vanishes, or is singular, at one of the
    cfg.points sampled points.  Frames built from rational structure
    constants hold no parameter symbol, so no parameter values are taken.
    """
    n = sc.dim
    space = xi[0].space
    failures = []

    def check(label: str, got: VectorField, want: Dict[str, ex.Expr]):
        for c, comp in got.components:
            if not nm.is_zero(ex.add(comp, ex.mul(ex.Const(-1), want[c])),
                              cfg):
                failures.append(label)
                return

    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [sc.coeff(i + 1, j + 1, k + 1) for k in range(n)]
            check(f"[xi{i + 1},xi{j + 1}]", xi[i].bracket(xi[j]),
                  _field_combination(xi, coeffs, space))
            check(f"[eta{i + 1},eta{j + 1}]", eta[i].bracket(eta[j]),
                  _field_combination(eta, [-c for c in coeffs], space))
    for i in range(n):
        for j in range(n):
            check(f"[xi{i + 1},eta{j + 1}]", xi[i].bracket(eta[j]),
                  {c: ex.ZERO for c in space.coords})

    det = mat_det([[xi[i].component(c) for c in space.coords]
                   for i in range(n)])
    det_fn = ex.compile_numeric(det)

    def det_vanishes(pt):
        # no redraw: a singular point fails the gate like a vanishing det
        try:
            return True if abs(det_fn(pt)) <= 1e-9 else None
        except SingularEvaluation:
            return True

    if nm.at_regular_points([det], cfg, None, det_vanishes):
        failures.append("det")
    if failures:
        raise VerificationFailed(f"realization gate failed: {failures}")


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class AlgebraCatalogEntry:
    """A named algebra with its standard splitting for the transitive pipeline.

    split_coords lists the names given to z^1..z^n ('x', 'y', 'u', ...);
    dep is the dependent one among them, whose frame derivative serves as
    the pipeline divisor.
    """

    name: str
    dim: int
    sc: StructureConstants
    params: tuple  # ((name, Fraction), ...)
    split_coords: tuple
    dep: str

    @property
    def param_map(self) -> Dict[str, Fraction]:
        return dict(self.params)

    def split_space(self, dep_name: str = "w") -> JetSpace:
        return JetSpace(self.split_coords, dep_name,
                        params=[p for p, _ in self.params])


_CATALOG_SPECS = {
    # name: (dim, brackets {(i,j,k): coefficient | param name | (-1, name)},
    #        param defaults/constraints, split coords, dependent coord)
    "g1": (1, {}, {}, ("x",), "x"),
    "2g1": (2, {}, {}, ("x", "u"), "u"),
    "g2": (2, {(1, 2, 1): 1}, {}, ("x", "u"), "u"),
    "3g1": (3, {}, {}, ("x", "y", "u"), "u"),
    "g1+g2": (3, {(1, 2, 1): 1}, {}, ("x", "y", "u"), "u"),
    "g3_1": (3, {(2, 3, 1): 1}, {}, ("u", "x", "y"), "u"),
    "g3_2": (3, {(1, 3, 1): 1, (2, 3, 1): 1, (2, 3, 2): 1}, {},
             ("u", "y", "x"), "u"),
    "g3_3": (3, {(1, 3, 1): 1, (2, 3, 2): 1}, {}, ("x", "y", "u"), "u"),
    "g3_4": (3, {(1, 3, 1): 1, (2, 3, 2): "h"}, {"h": Fraction(1, 2)},
             ("x", "y", "u"), "u"),
    "g3_5": (3, {(1, 3, 1): "p", (1, 3, 2): -1, (2, 3, 1): 1, (2, 3, 2): "p"},
             {"p": Fraction(1)}, ("x", "y", "u"), "u"),
    "g3_6": (3, {(1, 2, 1): 1, (1, 3, 2): 2, (2, 3, 3): 1}, {},
             ("x", "y", "u"), "u"),
    "g3_7": (3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, {},
             ("x", "y", "u"), "u"),
}

CATALOG_NAMES = tuple(_CATALOG_SPECS)

_ALIASES = {"so3": "g3_7", "so(3)": "g3_7"}


def check_params(name: str, params: Mapping[str, Fraction]) -> None:
    if name == "g3_4":
        h = params["h"]
        if not (abs(h) <= 1) or h in (0, 1):
            raise CatalogError(f"g3_4 requires |h| <= 1 and h not in {{0, 1}}, got {h}")
    if name == "g3_5":
        p = params["p"]
        if p < 0:
            raise CatalogError(f"g3_5 requires p >= 0, got {p}")


def catalog_lookup(name: str, params: Optional[Mapping] = None
                   ) -> AlgebraCatalogEntry:
    """Build, validate, and parameter-check a catalog entry by name."""
    key = _ALIASES.get(name.lower(), name.lower())
    spec = _CATALOG_SPECS.get(key)
    if spec is None:
        raise CatalogError(f"unknown algebra {name!r}; known: {', '.join(CATALOG_NAMES)}")
    dim, brackets, defaults, split, dep = spec
    bound = dict(defaults)
    for pname, v in (params or {}).items():
        if pname not in defaults:
            raise CatalogError(f"{key} takes no parameter {pname!r}")
        bound[pname] = parse_rational(v)
    check_params(key, bound)
    c = {}
    for idx, coeff in brackets.items():
        if isinstance(coeff, str):
            c[idx] = bound[coeff]
        else:
            c[idx] = Fraction(coeff)
    return AlgebraCatalogEntry(key, dim, StructureConstants.from_dict(dim, c),
                               tuple(sorted(bound.items())), split, dep)
