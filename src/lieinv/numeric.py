"""Randomized numerical oracles: zero testing, annihilation, functional rank.

All checks evaluate candidate expressions at reproducibly sampled random
points.  Points are drawn from narrow ranges near the identity so that the
exponential-coordinate constructions stay well conditioned; symbols that
appear in any denominator are sampled bounded away from zero.

Annihilation residuals and Jacobian rows come from one compiled
value-and-gradient evaluator per expression (expr.compile_gradient): the
derivatives are exact, and no residual expression is built unless a float
residual exceeds the tolerance.  Each check takes a whole family in one
pass over one point stream:

  * first_non_annihilating evaluates each distinct operator coefficient
    and each member's gradient once per point, and compiles nothing for a
    member no operator touches;
  * equivalence_check evaluates the Jacobian of A and B once per point;
    one elimination of A gives rank(A) and a null basis K of A, and
    rank(A u B) = rank(A) + rank(BK).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (Any, Callable, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from . import expr as ex
from .errors import SingularEvaluation, Unsampleable

DEFAULT_SEED = 0xC0FFEE
DEFAULT_POINTS = 32
DEFAULT_TOL = 1e-7
MAX_TOL = 1e-3
RANK_PIVOT_TOL = 1e-9
MAX_SAMPLE_ATTEMPTS = 64
# base coordinates in [-BASE_RANGE, BASE_RANGE], jet variables in
# [-JET_RANGE, JET_RANGE], denominator symbols DENOM_LOW <= |v| <= DENOM_HIGH
BASE_RANGE = 0.4
JET_RANGE = 1.0
DENOM_LOW = 0.5
DENOM_HIGH = 1.5


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling policy for all numeric checks."""

    seed: int = DEFAULT_SEED
    points: int = DEFAULT_POINTS
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        # zero points, or a tolerance no residual can exceed, verifies nothing
        if self.points < 1:
            raise ValueError(f"points must be at least 1, got {self.points}")
        if not 0 < self.tol <= MAX_TOL:
            raise ValueError(f"tol must lie in (0, {MAX_TOL}], got {self.tol}")


def _draw(rng: random.Random, sym: ex.Symbol, denom: bool,
          params: Mapping) -> float:
    if sym.kind == ex.PARAM:
        v = params.get(sym.name)
        if v is None:
            raise Unsampleable(f"parameter {sym.name!r} has no assigned value")
        return float(v)
    if denom:
        mag = rng.uniform(DENOM_LOW, DENOM_HIGH)
        return mag if rng.random() < 0.5 else -mag
    r = JET_RANGE if sym.kind == ex.JET else BASE_RANGE
    return rng.uniform(-r, r)


def sample_points(symbols: Iterable[ex.Symbol], cfg: SamplerConfig,
                  denom_syms: frozenset = frozenset(),
                  params: Optional[Mapping] = None) -> Iterator[dict]:
    """Yield cfg.points assignments {name: float} for the given symbols.

    Symbols are ordered by name so the stream is independent of set/iteration
    order; denominator symbols are bounded away from zero.  Points are drawn
    as they are taken, so a caller that stops early draws no more.
    """
    params = params or {}
    symbols = sorted(set(symbols), key=lambda s: (s.name, s.kind))
    denom_names = {s.name for s in denom_syms}
    rng = random.Random(cfg.seed)
    for _ in range(cfg.points):
        yield {s.name: _draw(rng, s, s.name in denom_names, params)
               for s in symbols}


def at_regular_points(exprs: Sequence[ex.Expr], cfg: SamplerConfig,
                      params: Optional[Mapping], visit: Callable[[dict], Any],
                      off_zero: frozenset = frozenset()) -> Any:
    """Call visit at cfg.points regular points; the point policy of every check.

    Points assign every free symbol of exprs, drawn by sample_points with
    the symbols of their denominators, and those in off_zero, kept off
    zero.  visit(point) returns None to go on or a verdict, which stops the
    loop, and the drawing, and is returned.  A point where visit raises
    SingularEvaluation is not counted: it is redrawn in the next batch,
    drawn under seed + 1.  Returns None once cfg.points points were visited
    without a verdict, and raises Unsampleable if MAX_SAMPLE_ATTEMPTS
    batches leave that quota unfilled.
    """
    syms = frozenset().union(*[e.free_symbols() for e in exprs])
    denoms = off_zero.union(*[ex.denominator_symbols(e) for e in exprs])
    need = cfg.points
    for attempt in range(MAX_SAMPLE_ATTEMPTS):
        batch = replace(cfg, seed=cfg.seed + attempt, points=need)
        for pt in sample_points(syms, batch, denoms, params):
            try:
                verdict = visit(pt)
            except SingularEvaluation:
                continue
            if verdict is not None:
                return verdict
            need -= 1
        if need == 0:
            return None
    raise Unsampleable(
        f"could not draw {cfg.points} regular points after "
        f"{MAX_SAMPLE_ATTEMPTS} attempts")


def _exceeds(e: ex.Expr, value: Callable, pt: dict, tol: float) -> bool:
    """The zero test at one point: |e(p)| > tol * max(1, magnitude(e, p)).

    The magnitude is the cancellation-free estimate of e itself, so genuine
    identities with large intermediate terms still pass, while expressions
    that are merely small never do.  Since max(1, magnitude) >= 1, the
    magnitude is evaluated only where |e(p)| > tol.  `value` is e's compiled
    evaluator.
    """
    val = abs(value(pt))
    return val > tol and \
        val > tol * max(1.0, ex.compile_numeric(e, magnitude=True)(pt))


def is_zero(e: ex.Expr, cfg: SamplerConfig = SamplerConfig(),
            params: Optional[Mapping] = None,
            extra_denoms: frozenset = frozenset()) -> bool:
    """Randomized zero test: |e(p)| <= tol * max(1, magnitude(e, p)) at all points.

    A point where the value or the magnitude is singular is redrawn
    (at_regular_points).
    """
    if isinstance(e, ex.Const):
        return e.value == 0
    value = ex.compile_numeric(e)

    def visit(pt):
        return False if _exceeds(e, value, pt, cfg.tol) else None

    return at_regular_points([e], cfg, params, visit, extra_denoms) is None


def first_non_annihilating(fields: Sequence, exprs: Sequence[ex.Expr],
                           cfg: SamplerConfig = SamplerConfig(),
                           params: Optional[Mapping] = None
                           ) -> Optional[Tuple[int, int]]:
    """(i, k) for an operator X = fields[k] with X exprs[i] != 0, or None.

    X is a jet.FirstOrderOperator: X e = c e + sum_s c_s de/ds, with c
    (key None) and c_s from its `coefficients`.  The family is checked in
    one pass: each member's rows (the terms of each operator that touch
    it) come from its free symbols, so a member no operator touches is
    never compiled, and the points cover the members with rows and the
    coefficients they use.  At each point every distinct coefficient is
    evaluated once and each member's compiled gradient (the member itself
    in slot 0) once; together they give the residual r_ik of every
    operator k on every member i.  A point where |r_ik| <= tol passes for
    (i, k).  Elsewhere the point is decided by the zero test on the
    symbolic residual fields[k].apply(exprs[i]) (exactly for a constant
    one), so no rejection rests on these floats.  The first failing pair,
    in point, member and operator order, is returned.
    """
    slot = {}  # id(coefficient) -> its index in coeffs and values
    coeffs, values = [], []  # the distinct coefficients rows use, compiled
    checks = []  # (i, gradient of exprs[i], per field [(slot, column)])
    for i, e in enumerate(exprs):
        free = {s for s in e.free_symbols() if s.kind != ex.PARAM}
        rows = [[(s, c) for s, c in f.coefficients.items()
                 if (s is None or s in free) and c != ex.ZERO]
                for f in fields]
        if not any(rows):
            continue  # no operator touches e
        wrt, grad = ex.compile_gradient(e)
        column = {s: j for j, s in enumerate(wrt, start=1)}
        column[None] = 0
        for row in rows:
            for _, c in row:
                if id(c) not in slot:
                    slot[id(c)] = len(coeffs)
                    coeffs.append(c)
                    values.append(ex.compile_numeric(c))
        checks.append((i, grad, [[(slot[id(c)], column[s]) for s, c in row]
                                 for row in rows]))
    if not checks:
        return None
    residuals = {}

    def rejects(i, k, pt):
        x = residuals.get((i, k))
        if x is None:
            x = residuals[i, k] = fields[k].apply(exprs[i])
        if isinstance(x, ex.Const):
            return x.value != 0
        return _exceeds(x, ex.compile_numeric(x), pt, cfg.tol)

    def visit(pt):
        cv = [c(pt) for c in values]
        for i, grad, rows in checks:
            g = grad(pt)
            for k, row in enumerate(rows):
                r = 0.0
                for c, j in row:
                    r += cv[c] * g[j]
                if abs(r) > cfg.tol and rejects(i, k, pt):
                    return i, k
        return None

    return at_regular_points([exprs[i] for i, _, _ in checks] + coeffs, cfg,
                             params, visit)


def _row_echelon(matrix: list, scale: Optional[float] = None
                 ) -> Tuple[int, List[Tuple[int, list]]]:
    """Rank and pivot rows by Gaussian elimination with full pivoting.

    The pivot is the first entry of largest magnitude, row by row, over
    the columns not yet pivoted on.  A pivot counts while it exceeds
    RANK_PIVOT_TOL * max(1, scale), where scale defaults to the first
    pivot, the largest magnitude in the matrix.  The pivot rows are
    (column, row as reduced by the pivots before it), in pivot order.
    """
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return 0, []
    rows = len(m)
    free = list(range(len(m[0])))  # unpivoted columns, ascending
    pivots = []
    bound = None
    r = 0
    while r < rows:
        best = (0.0, -1, -1)
        for i in range(r, rows):
            mi = m[i]
            for j in free:
                v = abs(mi[j])
                if v > best[0]:
                    best = (v, i, j)
        pv, pi, pj = best
        if bound is None:
            bound = RANK_PIVOT_TOL * max(1.0, pv if scale is None else scale)
        if pv <= bound:
            break
        m[r], m[pi] = m[pi], m[r]
        free.remove(pj)
        mr = m[r]
        pivots.append((pj, mr))
        for i in range(r + 1, rows):
            f = m[i][pj] / mr[pj]
            if f != 0.0:
                m[i] = [a - f * b for a, b in zip(m[i], mr)]
        r += 1
    return r, pivots


def _row_echelon_rank(matrix: list) -> int:
    """Rank of matrix, pivots counted relative to its largest entry."""
    return _row_echelon(matrix)[0]


def _null_basis(pivots: List[Tuple[int, list]], width: int) -> List[list]:
    """A basis of the null space of the pivot rows, by back-substitution.

    One vector per column no pivot took: 1 there and 0 in the other such
    columns, the pivot columns solved from the last pivot row up, each
    vector scaled to max-norm 1.
    """
    pivoted = {j for j, _ in pivots}
    basis = []
    for f in range(width):
        if f in pivoted:
            continue
        x = [0.0] * width
        x[f] = 1.0
        for j, row in reversed(pivots):
            # x[j] is still 0, and so is each pivot column solved later
            x[j] = -sum([a * b for a, b in zip(row, x)]) / row[j]
        top = max(map(abs, x))
        basis.append([v / top for v in x])
    return basis


def _union_rank(ja: list, jb: list, width: int) -> Tuple[int, int]:
    """(rank A, rank of A and B stacked) at one point, eliminating A once.

    With K a null basis of A's pivot rows, rank [A; B] = rank A + rank BK.
    BK's pivots count above RANK_PIVOT_TOL * max(1, largest |entry| of A
    and B), the threshold of the stacked elimination.
    """
    ra, pivots = _row_echelon(ja)
    scale = max([abs(v) for row in ja + jb for v in row], default=0.0)
    null = _null_basis(pivots, width)
    bk = [[sum([a * b for a, b in zip(row, k)]) for k in null] for row in jb]
    return ra, ra + _row_echelon(bk, scale)[0]


def _jacobian(exprs: Sequence[ex.Expr]) -> Tuple[int, Callable[[dict], list]]:
    """(width, rows): rows(pt) is the exact Jacobian of exprs at pt.

    One row per expression, one column per non-parameter symbol name, in
    name order; each row is one call of the expression's compiled
    gradient (expr.compile_gradient), placed by column index.
    """
    names = sorted({s.name for e in exprs for s in e.free_symbols()
                    if s.kind != ex.PARAM})
    column = {name: j for j, name in enumerate(names)}
    width = len(names)
    parts = []
    for e in exprs:
        wrt, grad = ex.compile_gradient(e)
        parts.append((grad, [(j, column[s.name])
                             for j, s in enumerate(wrt, start=1)]))

    def rows(pt):
        out = []
        for grad, cols in parts:
            g = grad(pt)
            row = [0.0] * width
            for j, c in cols:
                row[c] = g[j]
            out.append(row)
        return out

    return width, rows


def functional_rank(exprs: Sequence[ex.Expr], cfg: SamplerConfig = SamplerConfig(),
                    params: Optional[Mapping] = None) -> int:
    """Generic rank of the Jacobian of the given functions.

    The Jacobian is exact (_jacobian), with respect to the union of free
    symbols, parameters excluded.  The result is the maximum rank over the
    sampled regular points, which equals the generic rank with probability
    one.  Sampling stops early once the rank is full.
    """
    exprs = list(exprs)
    if not exprs:
        return 0
    width, jacobian = _jacobian(exprs)
    full = min(len(exprs), width)
    best = 0

    def visit(pt):
        nonlocal best
        best = max(best, _row_echelon_rank(jacobian(pt)))
        return best if best == full else None

    at_regular_points(exprs, cfg, params, visit)
    return best


def equivalence_check(a: Sequence[ex.Expr], b: Sequence[ex.Expr],
                      cfg: SamplerConfig = SamplerConfig(),
                      params: Optional[Mapping] = None) -> bool:
    """Functional equivalence of two invariant sets, in one pass.

    True iff rank(A) == rank(B) == rank(A ∪ B), i.e. each family is
    functionally expressible through the other.  At each point of the
    union's stream the Jacobian of A ∪ B is evaluated once: one
    elimination of A gives rank(A) and, through A's null space, the
    union rank (_union_rank), and B is eliminated until its rank is full.
    Each rank is the maximum over the points; sampling stops early once
    the union rank is full.
    """
    a, b = list(a), list(b)
    width, jacobian = _jacobian(a + b)
    full_b = min(len(b), width)
    full = min(len(a) + len(b), width)
    ra = rb = rab = 0

    def visit(pt):
        nonlocal ra, rb, rab
        rows = jacobian(pt)
        ja, jb = rows[:len(a)], rows[len(a):]
        if rb < full_b:
            rb = max(rb, _row_echelon_rank(jb))
        rank_a, rank_ab = _union_rank(ja, jb, width)
        ra, rab = max(ra, rank_a), max(rab, rank_ab)
        return True if rab == full else None

    at_regular_points(a + b, cfg, params, visit)
    return ra == rb == rab
