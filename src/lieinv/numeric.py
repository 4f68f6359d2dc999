"""Randomized numerical oracles: zero testing, annihilation, functional rank.

All checks evaluate candidate expressions at reproducibly sampled random
points.  Points are drawn from narrow ranges near the identity so that the
exponential-coordinate constructions stay well conditioned; symbols that
appear in any denominator are sampled bounded away from zero.

Annihilation residuals and Jacobian rows come from one compiled
value-and-gradient evaluator per expression (expr.compile_gradient): the
derivatives are exact, and no residual expression is built unless a float
residual exceeds the tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (Any, Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

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


def first_non_annihilating(fields: Sequence, e: ex.Expr,
                           cfg: SamplerConfig = SamplerConfig(),
                           params: Optional[Mapping] = None) -> Optional[int]:
    """Index of the first operator X with X e != 0, or None (randomized).

    X is a jet.FirstOrderOperator: X e = c e + sum_s c_s de/ds, with c
    (key None) and c_s from its `coefficients`.  At each sampled point, one
    call of e's compiled gradient (e itself in slot 0) and the compiled
    coefficients give the residual r_k of every operator k.  A point where
    |r_k| <= tol passes for k.  Elsewhere the point is decided by the zero
    test on the symbolic residual fields[k].apply(e) (exactly for a
    constant one), so no rejection rests on these floats.  Points cover
    e and the coefficients it uses.
    """
    wrt, grad = ex.compile_gradient(e)
    column = {s: i for i, s in enumerate(wrt, start=1)}
    column[None] = 0
    used = [e]  # what the points must cover
    rows = []  # per field: [(compiled coefficient, column of de/ds)]
    for f in fields:
        row = []
        for s, c in f.coefficients.items():
            if s in column and c != ex.ZERO:
                row.append((ex.compile_numeric(c), column[s]))
                used.append(c)
        rows.append(row)
    if not any(rows):
        return None
    residuals = {}

    def rejects(k, pt):
        x = residuals.get(k)
        if x is None:
            x = residuals[k] = fields[k].apply(e)
        if isinstance(x, ex.Const):
            return x.value != 0
        return _exceeds(x, ex.compile_numeric(x), pt, cfg.tol)

    def visit(pt):
        g = grad(pt)
        for k, row in enumerate(rows):
            r = 0.0
            for c, i in row:
                r += c(pt) * g[i]
            if abs(r) > cfg.tol and rejects(k, pt):
                return k
        return None

    return at_regular_points(used, cfg, params, visit)


def _row_echelon_rank(matrix: list) -> int:
    """Rank by Gaussian elimination with full pivoting.

    The pivot is the first entry of largest magnitude, row by row, over
    the columns not yet pivoted on.  The pivot threshold is relative to
    the largest pivot seen so far.
    """
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return 0
    rows = len(m)
    free = list(range(len(m[0])))  # unpivoted columns, ascending
    first_pivot = None
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
        if first_pivot is None:
            first_pivot = pv
        if pv <= RANK_PIVOT_TOL * max(1.0, first_pivot if first_pivot else 1.0):
            break
        m[r], m[pi] = m[pi], m[r]
        free.remove(pj)
        mr = m[r]
        for i in range(r + 1, rows):
            f = m[i][pj] / mr[pj]
            if f != 0.0:
                m[i] = [a - f * b for a, b in zip(m[i], mr)]
        r += 1
    return r


def functional_rank(exprs: Sequence[ex.Expr], cfg: SamplerConfig = SamplerConfig(),
                    params: Optional[Mapping] = None) -> int:
    """Generic rank of the Jacobian of the given functions.

    The Jacobian is exact: its rows come from each function's compiled
    gradient (expr.compile_gradient), with respect to the union of free
    symbols, parameters excluded.  The result is the maximum rank over the
    sampled regular points, which equals the generic rank with probability
    one.  Sampling stops early once the rank is full.
    """
    exprs = list(exprs)
    if not exprs:
        return 0
    var_order = sorted(s.name for s in frozenset().union(
        *[e.free_symbols() for e in exprs]) if s.kind != ex.PARAM)
    grads = [([s.name for s in wrt], grad)
             for wrt, grad in map(ex.compile_gradient, exprs)]
    full = min(len(exprs), len(var_order))
    best = 0

    def visit(pt):
        nonlocal best
        jac = []
        for names, grad in grads:
            partial = dict(zip(names, grad(pt)[1:]))
            jac.append([partial.get(name, 0.0) for name in var_order])
        best = max(best, _row_echelon_rank(jac))
        return best if best == full else None

    at_regular_points(exprs, cfg, params, visit)
    return best


def equivalence_check(a: Sequence[ex.Expr], b: Sequence[ex.Expr],
                      cfg: SamplerConfig = SamplerConfig(),
                      params: Optional[Mapping] = None) -> bool:
    """Functional equivalence of two invariant sets.

    True iff rank(A) == rank(B) == rank(A ∪ B), i.e. each family is
    functionally expressible through the other.
    """
    ra = functional_rank(a, cfg, params)
    rb = functional_rank(b, cfg, params)
    rab = functional_rank(list(a) + list(b), cfg, params)
    return ra == rb == rab
