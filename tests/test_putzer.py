"""Closed-form matrix exponentials with exact rational/complex-rational data."""

import math
from fractions import Fraction

import pytest

from lieinv import expr as ex
from lieinv import putzer
from lieinv.errors import EigenvalueUnsupported
from lieinv.jet import JetSpace

from helpers import eval_numeric

SP = JetSpace(("t",), "u")
T = ex.Sym(SP.base("t"))


def exp_at(M, tval):
    rows = putzer.exp_matrix_expr(M, T)
    return [[eval_numeric(c, {"t": tval}) for c in row] for row in rows]


def num_expm(M, tval, terms=60):
    n = len(M)
    A = [[float(M[i][j]) * tval for j in range(n)] for i in range(n)]
    out = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for k in range(1, terms):
        term = [[sum(term[i][l] * A[l][j] for l in range(n)) / k
                 for j in range(n)] for i in range(n)]
        out = [[out[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return out


def assert_matches(M, tval=0.7):
    got = exp_at(M, tval)
    want = num_expm(M, tval)
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


F = Fraction


class TestCharPoly:
    def test_companion(self):
        M = [[F(0), F(1)], [F(-2), F(3)]]
        # char poly x^2 - 3x + 2, ascending coefficients
        assert putzer.char_poly(M) == [F(2), F(-3), F(1)]

    def test_eigenvalues_rational(self):
        M = [[F(0), F(1)], [F(-2), F(3)]]
        lams = putzer.eigenvalues(M)
        assert sorted((l.re, l.im) for l in lams) == [(F(1), 0), (F(2), 0)]

    def test_eigenvalues_complex_pair(self):
        M = [[F(0), F(-1)], [F(1), F(0)]]
        lams = putzer.eigenvalues(M)
        assert sorted((l.re, l.im) for l in lams) == [(0, F(-1)), (0, F(1))]

    def test_irrational_unsupported(self):
        M = [[F(0), F(1)], [F(2), F(0)]]  # eigenvalues +-sqrt(2)
        with pytest.raises(EigenvalueUnsupported):
            putzer.eigenvalues(M)


class TestExpMatrix:
    def test_zero_matrix(self):
        rows = putzer.exp_matrix_expr([[F(0)]], T)
        assert rows == [[ex.ONE]]

    def test_nilpotent(self):
        M = [[F(0), F(1)], [F(0), F(0)]]
        rows = putzer.exp_matrix_expr(M, T)
        assert rows[0][0] == ex.ONE
        assert rows[0][1] == T
        assert rows[1][0] == ex.ZERO

    def test_diagonal(self):
        M = [[F(2), F(0)], [F(0), F(-1)]]
        got = exp_at(M, 0.3)
        assert got[0][0] == pytest.approx(math.exp(0.6))
        assert got[1][1] == pytest.approx(math.exp(-0.3))
        assert got[0][1] == 0.0

    def test_jordan_block(self):
        assert_matches([[F(1), F(1)], [F(0), F(1)]])

    def test_generic_rational_spectrum(self):
        assert_matches([[F(0), F(1)], [F(-2), F(3)]])

    def test_rotation(self):
        M = [[F(0), F(-1)], [F(1), F(0)]]
        got = exp_at(M, 0.5)
        assert got[0][0] == pytest.approx(math.cos(0.5))
        assert got[0][1] == pytest.approx(-math.sin(0.5))

    def test_spiral(self):
        # eigenvalues -1 +- i
        assert_matches([[F(-1), F(-1)], [F(1), F(-1)]])

    def test_three_by_three_nilpotent(self):
        M = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
        rows = putzer.exp_matrix_expr(M, T)
        assert rows[0][2] == ex.mul(ex.Const(F(1, 2)), ex.pow_(T, 2))

    def test_three_by_three_mixed(self):
        M = [[F(0), F(0), F(0)],
             [F(0), F(0), F(-1)],
             [F(0), F(1), F(0)]]
        assert_matches(M)

    def test_exp_zero_time_is_identity(self):
        M = [[F(1), F(2)], [F(0), F(3)]]
        got = exp_at(M, 0.0)
        assert got == [[1.0, 0.0], [0.0, 1.0]]

    def test_memoized_result_cannot_be_mutated(self):
        # exp(t [[1, 1], [0, 1]]) = e^t [[1, t], [0, 1]]
        M = [[F(1), F(1)], [F(0), F(1)]]
        e1 = putzer.CRat(F(1))
        want = [[{(e1, 0): putzer.CONE}, {(e1, 1): putzer.CONE}],
                [{}, {(e1, 0): putzer.CONE}]]
        putzer._exp_poly_matrix.cache_clear()
        got = putzer.exp_poly_matrix(M)
        assert got == want
        got[0][1].clear()
        got[1][0][(e1, 0)] = putzer.CONE
        got[1].append({})
        again = putzer.exp_poly_matrix(M)
        assert putzer._exp_poly_matrix.cache_info().hits == 1
        assert again == want
