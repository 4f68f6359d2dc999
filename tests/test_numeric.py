"""Randomized numeric oracle: zero tests, functional rank, equivalence."""

import dataclasses
import random

import pytest

from lieinv import expr as ex
from lieinv import numeric as nm
from lieinv.errors import SingularEvaluation, Unsampleable
from lieinv.jet import JetSpace

from helpers import eval_numeric, exprs_equal

SP = JetSpace(("x", "y"), "u")
CFG = nm.SamplerConfig()
FD_STEP = 1e-6


def central_difference(e, point, name):
    """de/d(name) at the point by a central difference of step FD_STEP.

    It shares no code with the compiled gradients, so it checks them.
    """
    fn = ex.compile_numeric(e)
    hi, lo = dict(point), dict(point)
    hi[name] = point[name] + FD_STEP
    lo[name] = point[name] - FD_STEP
    return (fn(hi) - fn(lo)) / (2.0 * FD_STEP)


def p(text):
    return SP.parse(text)


class TestSampling:
    def test_deterministic(self):
        syms = p("x + y + u_x").free_symbols()
        a = list(nm.sample_points(syms, CFG, frozenset(), {}))
        b = list(nm.sample_points(syms, CFG, frozenset(), {}))
        assert a == b

    def test_seed_changes_points(self):
        syms = p("x + y").free_symbols()
        a = list(nm.sample_points(syms, CFG, frozenset(), {}))
        other = dataclasses.replace(CFG, seed=CFG.seed + 1)
        b = list(nm.sample_points(syms, other, frozenset(), {}))
        assert a != b

    def test_denominator_symbols_bounded_away_from_zero(self):
        syms = p("u_x").free_symbols()
        pts = nm.sample_points(syms, CFG, syms, {})
        assert all(0.5 <= abs(pt["u_x"]) <= 1.5 for pt in pts)

    def test_missing_param_raises(self):
        sp = JetSpace(("x",), "u", params=("h",))
        syms = sp.parse("h*u_x").free_symbols()
        with pytest.raises(Unsampleable):
            next(nm.sample_points(syms, CFG, frozenset(), {}))

    @pytest.mark.parametrize("kwargs", [
        {"points": 0}, {"points": -3}, {"tol": 0.0}, {"tol": -1e-7},
        {"tol": 1e9}, {"tol": float("nan")},
    ])
    def test_vacuous_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            nm.SamplerConfig(**kwargs)


class TestAtRegularPoints:
    E = p("x + y + u_x")  # three symbols, one draw each per point

    def _draws(self, monkeypatch):
        draws = []
        draw = nm._draw

        def counted(*args):
            draws.append(args[1])
            return draw(*args)

        monkeypatch.setattr(nm, "_draw", counted)
        return draws

    @pytest.mark.parametrize("points", [1, 32])
    def test_no_draw_after_a_verdict(self, monkeypatch, points):
        # the first point is singular and redrawn (from the same batch, or
        # under seed + 1 when the quota is one point); the second is a
        # verdict, and nothing more is drawn
        draws = self._draws(monkeypatch)
        cfg = nm.SamplerConfig(points=points)
        seen = []

        def visit(pt):
            seen.append(pt)
            if len(seen) == 1:
                raise SingularEvaluation("singular")
            return "verdict"

        assert nm.at_regular_points([self.E], cfg, {}, visit) == "verdict"
        assert len(draws) == 2 * 3
        syms = self.E.free_symbols()
        if points > 1:  # the next point of the same batch
            assert seen[1] == list(nm.sample_points(syms, cfg))[1]
        else:  # the first point of the next batch, drawn under seed + 1
            assert seen[1] == next(nm.sample_points(
                syms, dataclasses.replace(cfg, seed=cfg.seed + 1)))

    def test_every_point_drawn_without_a_verdict(self, monkeypatch):
        draws = self._draws(monkeypatch)
        assert nm.at_regular_points([self.E], CFG, {}, lambda pt: None) is None
        assert len(draws) == CFG.points * 3

    def test_symbols_and_denominators_from_the_expressions(self):
        seen = []
        e, f = p("x/u_x"), p("y")
        nm.at_regular_points([e, f], CFG, {}, seen.append,
                             frozenset(f.free_symbols()))
        assert len(seen) == CFG.points
        assert all(set(pt) == {"x", "y", "u_x"} for pt in seen)
        assert all(0.5 <= abs(pt["u_x"]) <= 1.5 and 0.5 <= abs(pt["y"]) <= 1.5
                   for pt in seen)


class TestIsZero:
    def test_trivial_zero(self):
        assert nm.is_zero(ex.ZERO, CFG)

    def test_pythagorean_identity(self):
        e = p("sin(x)^2 + cos(x)^2 - 1")
        assert nm.is_zero(e, CFG)

    def test_double_angle(self):
        e = p("sin(2*x) - 2*sin(x)*cos(x)")
        assert nm.is_zero(e, CFG)

    def test_log_exp(self):
        e = p("log(exp(x)) - x")
        assert nm.is_zero(e, CFG)

    def test_nonzero(self):
        assert not nm.is_zero(p("u_x + 1/1000000"), CFG)

    def test_large_cancellation_scale(self):
        # identity with huge intermediate terms still passes: |value| exceeds
        # tol at some points but stays within tol * scale
        e = p("(x + 1000000)^2 - x^2 - 2000000*x - 1000000000000")
        assert any(abs(eval_numeric(e, pt)) > CFG.tol
                   for pt in nm.sample_points(e.free_symbols(), CFG))
        assert nm.is_zero(e, CFG)
        assert e._fns[1] is not None

    def test_scale_only_evaluated_above_tol(self):
        e = p("sin(2*x) - 2*sin(x)*cos(x)")
        assert nm.is_zero(e, CFG)
        assert e._fns[0] is not None and e._fns[1] is None

    def test_non_finite_residual_is_unsampleable(self):
        # exp(800 + x + y): the value overflows to inf - inf = nan everywhere
        e = p("exp(400+x)*exp(400+y)*(1+x) - x*exp(400+x)*exp(400+y)")
        with pytest.raises(Unsampleable):
            nm.is_zero(e, CFG)

    def test_non_finite_scale_is_unsampleable(self):
        # value exp(400) is finite, but its magnitude overflows to inf
        e = p("exp(50 + 300*cos(x))*exp(350 - 300*cos(x))")
        with pytest.raises(Unsampleable):
            nm.is_zero(e, CFG)

    def test_domain_error_is_unsampleable(self):
        # exp(800 + x + y) overflows to inf, and sin(inf) leaves the domain
        with pytest.raises(Unsampleable):
            nm.is_zero(p("sin(exp(400+x)*exp(400+y))"), CFG)

    def test_quota_filled_by_last_batch(self):
        # log(x - 39/100) is singular for x < 39/100, so nearly every point
        # is redrawn; under seed 90 only the 64th and last batch is regular
        e = JetSpace(("x",), "u").parse("exp(log(x - 39/100)) - x + 39/100")
        assert nm.is_zero(e, nm.SamplerConfig(seed=90, points=1))

    def test_small_but_nonzero_fails(self):
        assert not nm.is_zero(p("x/100000"), CFG)

    def test_exprs_equal(self):
        a = p("exp(u)*u_x")
        b = p("-(-u_x)*exp(u)")
        assert exprs_equal(a, b, CFG)


class TestRank:
    def test_independent_pair(self):
        assert nm.functional_rank([p("u_x"), p("u_y")], CFG) == 2

    def test_dependent_pair(self):
        exprs = [p("u_x"), p("u_x^2"), p("u_x + u_x^2")]
        assert nm.functional_rank(exprs, CFG) == 1

    def test_mixed(self):
        exprs = [p("x + y"), p("x - y"), p("x")]
        assert nm.functional_rank(exprs, CFG) == 2

    def test_empty(self):
        assert nm.functional_rank([], CFG) == 0

    def test_non_finite_jacobian_is_unsampleable(self):
        # exp(1200 + x + y) is inf at every point; its central differences
        # would be nan and the rank 0
        with pytest.raises(Unsampleable):
            nm.functional_rank([p("exp(600+x)*exp(600+y)")], CFG)

    def test_equivalence_sign_flip(self):
        assert nm.equivalence_check([p("-exp(u)*u_x")], [p("exp(u)*u_x")], CFG)

    def test_equivalence_recombination(self):
        a = [p("-exp(2*u)*(u_xx + u_x^2)"), p("-exp(u)*u_x")]
        b = [p("exp(2*u)*u_xx"), p("exp(u)*u_x")]
        assert nm.equivalence_check(a, b, CFG)

    def test_inequivalent(self):
        assert not nm.equivalence_check([p("u_x")], [p("u_y")], CFG)

    def test_fd_gradient_matches_symbolic(self):
        e = p("x^2*y + sin(x)")
        pt = {"x": 0.3, "y": -0.2}
        grad = central_difference(e, pt, "x")
        sym = eval_numeric(ex.diff(e, SP.base("x")), pt)
        assert grad == pytest.approx(sym, rel=1e-5)


def set_based_rank(matrix):
    """The elimination before its free-column rewrite, kept to compare."""
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    first_pivot = None
    r = 0
    used_cols = set()
    while r < rows:
        best = (0.0, -1, -1)
        for i in range(r, rows):
            for j in range(cols):
                if j in used_cols:
                    continue
                v = abs(m[i][j])
                if v > best[0]:
                    best = (v, i, j)
        pv, pi, pj = best
        if first_pivot is None:
            first_pivot = pv
        if pv <= nm.RANK_PIVOT_TOL * max(1.0, first_pivot if first_pivot else 1.0):
            break
        m[r], m[pi] = m[pi], m[r]
        used_cols.add(pj)
        for i in range(r + 1, rows):
            f = m[i][pj] / m[r][pj]
            if f != 0.0:
                for j in range(cols):
                    m[i][j] -= f * m[r][j]
        rank += 1
        r += 1
    return rank


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _elimination_cases():
    """Seeded matrices: generic, rank-deficient, tied maxima, tiny rows."""
    rng = random.Random(20201)
    cases = [[], [[]], [[], []], [[0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for _ in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        cases.append([[rng.uniform(-2, 2) for _ in range(cols)]
                      for _ in range(rows)])
        # rank at most k: a product through a k-dimensional space
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        cases.append(_product(
            [[rng.uniform(-1, 1) for _ in range(k)] for _ in range(rows)],
            [[rng.uniform(-1, 1) for _ in range(cols)] for _ in range(k)]))
        # small integers: many entries tie for the largest magnitude, and
        # a low-rank product of them cancels exactly only in some orders
        cases.append([[float(rng.randint(-2, 2)) for _ in range(cols)]
                      for _ in range(rows)])
        cases.append(_product(
            [[float(rng.randint(-3, 3)) for _ in range(k)]
             for _ in range(rows)],
            [[float(rng.randint(-3, 3)) for _ in range(cols)]
             for _ in range(k)]))
        # a row near the pivot threshold
        tiny = [[rng.uniform(-1, 1) for _ in range(cols)] for _ in range(rows)]
        tiny[-1] = [v * 10.0 ** rng.randint(-11, -8) for v in tiny[-1]]
        cases.append(tiny)
    return cases


class TestRowEchelon:
    def test_same_rank_as_the_set_based_elimination(self):
        ranks = []
        for matrix in _elimination_cases():
            rank = nm._row_echelon_rank(matrix)
            assert rank == set_based_rank(matrix), matrix
            ranks.append((rank, min(len(matrix), len(matrix[0]) if matrix
                                    else 0)))
        # the cases are not all full rank
        assert sum(r < full for r, full in ranks) > 100

    def test_same_rounding_as_the_set_based_elimination(self, monkeypatch):
        # with no pivot threshold, any rounding residue left by another
        # pivot order or another update counts towards the rank
        monkeypatch.setattr(nm, "RANK_PIVOT_TOL", 0.0)
        for matrix in _elimination_cases():
            assert nm._row_echelon_rank(matrix) == set_based_rank(matrix), \
                matrix

    def test_input_left_unchanged(self):
        matrix = [[1.0, 2.0], [2.0, 4.0]]
        assert nm._row_echelon_rank(matrix) == 1
        assert matrix == [[1.0, 2.0], [2.0, 4.0]]


class TestUnionRank:
    def test_same_rank_as_the_stacked_elimination(self):
        # rank A + rank BK, with K a null basis of A's pivot rows, for every
        # split of each case into A above and B below
        for matrix in _elimination_cases():
            if not matrix or not matrix[0]:
                continue
            for k in range(len(matrix) + 1):
                ja, jb = matrix[:k], matrix[k:]
                assert nm._union_rank(ja, jb, len(matrix[0])) == \
                    (nm._row_echelon_rank(ja),
                     nm._row_echelon_rank(matrix)), (k, matrix)

    @pytest.mark.parametrize("a", [
        [[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 7.0, 1.0]],
        # back-substitution doubles: the raw solution is (-2, -1, 1)
        [[4.0, -4.0, 4.0], [0.0, 4.0, 4.0]]])
    def test_null_basis(self, a):
        # each vector solves the pivot rows, has max-norm 1 and is nonzero
        # only in its own unpivoted column among those
        width = len(a[0])
        rank, pivots = nm._row_echelon(a)
        basis = nm._null_basis(pivots, width)
        assert rank == 2 and len(basis) == width - 2
        pivoted = {j for j, _ in pivots}
        free = [j for j in range(width) if j not in pivoted]
        for f, x in zip(free, basis):
            assert max(map(abs, x)) == 1.0
            assert all(abs(sum(r * v for r, v in zip(row, x))) < 1e-12
                       for row in a)
            assert x[f] != 0.0
            assert all(x[j] == 0.0 for j in free if j != f)
