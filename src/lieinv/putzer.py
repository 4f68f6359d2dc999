"""Exact matrix exponentials of rational matrices as exp-polynomials.

exp(tM) for a square matrix M with rational entries is computed by Putzer's
recurrence.  All arithmetic is exact over complex rationals; the scalar
functions r_j(t) live in the algebra of exp-polynomials, finite sums of
c * t^m * e^{mu t} with complex-rational c and mu.  The only approximation
anywhere is the final rendering into expression trees, which stays exact too:
a term with mu = a + b*i contributes t^m e^{a t} (Re(c) cos bt - Im(c) sin bt).

Eigenvalues are found exactly: characteristic polynomial by the
Faddeev-LeVerrier recurrence, rational roots by the rational-root theorem,
and any leftover quadratic factor by the quadratic formula when its
discriminant is a perfect rational square (possibly negative, giving a
complex-rational pair).  Anything beyond that raises EigenvalueUnsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from .errors import EigenvalueUnsupported


@dataclass(frozen=True)
class CRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, o):
        return CRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return CRat(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def inv(self) -> "CRat":
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("inverse of zero")
        return CRat(self.re / d, -self.im / d)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


CZERO = CRat(Fraction(0))
CONE = CRat(Fraction(1))


# An exp-polynomial maps (mu, m) -> coefficient, with mu a CRat and m >= 0.
ExpPoly = Dict[Tuple[CRat, int], CRat]


def _ep_add(p: ExpPoly, key, c: CRat):
    cur = p.get(key, CZERO) + c
    if cur.is_zero():
        p.pop(key, None)
    else:
        p[key] = cur


def _ep_exp_shift(p: ExpPoly, lam: CRat) -> ExpPoly:
    """Multiply the exp-polynomial by e^{lam t}."""
    return {(mu + lam, m): c for (mu, m), c in p.items()}


def _ep_integrate(p: ExpPoly) -> ExpPoly:
    """Definite integral from 0 to t of the exp-polynomial in s."""
    out: ExpPoly = {}
    for (mu, m), c in p.items():
        if mu.is_zero():
            _ep_add(out, (CZERO, m + 1), c * CRat(Fraction(1, m + 1)))
            continue
        # int_0^t s^m e^{mu s} ds
        #   = e^{mu t} * sum_{k=0}^{m} (-1)^k m!/(m-k)! mu^{-(k+1)} t^{m-k}
        #     - (-1)^m m! mu^{-(m+1)}
        inv = mu.inv()
        invpow = CONE
        sign = CONE
        for k in range(m + 1):
            invpow = invpow * inv  # mu^{-(k+1)}
            coef = CRat(Fraction(factorial(m) // factorial(m - k)))
            _ep_add(out, (mu, m - k), c * sign * coef * invpow)
            sign = -sign
        boundary = CRat(Fraction(factorial(m)))
        if m % 2 == 1:
            boundary = -boundary
        _ep_add(out, (CZERO, 0), -(c * boundary * invpow))
    return out


# ---------------------------------------------------------------------------
# Exact eigenvalues


def char_poly(M: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Coefficients [c_0, ..., c_n] of det(x I - M) via Faddeev-LeVerrier."""
    n = len(M)
    A = [[Fraction(v) for v in row] for row in M]
    # p(x) = x^n + a_1 x^{n-1} + ... + a_n
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Mk = [row[:] for row in ident]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        Mk = _mat_mul(A, Mk)
        trace = sum(Mk[i][i] for i in range(n))
        a = -trace / k
        coeffs.append(a)
        for i in range(n):
            Mk[i][i] += a
    # coeffs are [1, a_1, ..., a_n] for descending powers; return ascending
    return list(reversed(coeffs))


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _rational_sqrt(v: Fraction) -> Optional[Fraction]:
    if v < 0:
        return None
    np_, dp = v.numerator, v.denominator
    rn, rd = isqrt(np_), isqrt(dp)
    if rn * rn == np_ and rd * rd == dp:
        return Fraction(rn, rd)
    return None


def _poly_eval(coeffs: List[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _deflate(coeffs: List[Fraction], root: Fraction) -> List[Fraction]:
    """Synthetic division of the ascending-coefficient polynomial by (x-root)."""
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(c + out[-1] * root)
    return list(reversed(out))


def _rational_roots(coeffs: List[Fraction]
                    ) -> Tuple[List[Fraction], List[Fraction]]:
    """(roots, leftover): all rational roots (with multiplicity), removed
    by deflation, and the polynomial left, which has no rational root."""
    roots = []
    while len(coeffs) > 1:
        if coeffs[0] == 0:
            roots.append(Fraction(0))
            coeffs = coeffs[1:]
            continue
        lcm = 1
        for c in coeffs:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        ints = [int(c * lcm) for c in coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        found = None
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if _poly_eval(coeffs, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        coeffs = _deflate(coeffs, found)
    return roots, coeffs


def _divisors(n: int) -> List[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def eigenvalues(M: Sequence[Sequence[Fraction]]) -> List[CRat]:
    """Exact eigenvalues with multiplicity; EigenvalueUnsupported otherwise."""
    coeffs = char_poly(M)
    rational, rest = _rational_roots(coeffs)
    out = [CRat(r) for r in rational]
    if len(rest) == 1:
        return out
    if len(rest) == 3:
        c0, c1, c2 = rest
        # c2 x^2 + c1 x + c0, with no rational root: a real pair is
        # irrational, as the discriminant is not a square
        disc = c1 * c1 - 4 * c2 * c0
        if disc >= 0:
            raise EigenvalueUnsupported(
                "irrational real eigenvalue pair (discriminant not a square)"
            )
        half = Fraction(-c1, 2 * c2)
        s = _rational_sqrt(-disc)
        if s is None:
            raise EigenvalueUnsupported(
                "complex eigenvalue pair with irrational imaginary part"
            )
        d = s / (2 * abs(c2))
        out += [CRat(half, d), CRat(half, -d)]
        return out
    raise EigenvalueUnsupported(
        f"cannot factor residual characteristic polynomial of degree {len(rest) - 1}"
    )


# ---------------------------------------------------------------------------
# Putzer recurrence


EXP_MEMO_SIZE = 64  # distinct matrices whose exponentials are kept


def exp_poly_matrix(M: Sequence[Sequence[Fraction]]) -> List[List[ExpPoly]]:
    """exp(tM) as an n x n matrix of exp-polynomials in t (exact).

    Computed once per distinct matrix, in a bounded memo (EXP_MEMO_SIZE
    matrices); the caller gets its own dicts, so it cannot alter the memo.
    """
    key = tuple(tuple(Fraction(v) for v in row) for row in M)
    return [[dict(p) for p in row] for row in _exp_poly_matrix(key)]


@lru_cache(maxsize=EXP_MEMO_SIZE)
def _exp_poly_matrix(A: Tuple[Tuple[Fraction, ...], ...]) -> tuple:
    """Putzer's recurrence on the normalized matrix; rows of exp-polynomials."""
    n = len(A)
    lams = eigenvalues(A)
    # r_1 = e^{lam_1 t}; r_j = e^{lam_j t} * int_0^t e^{-lam_j s} r_{j-1}(s) ds
    rs: List[ExpPoly] = [{(lams[0], 0): CONE}]
    for j in range(1, n):
        shifted = _ep_exp_shift(rs[-1], -lams[j])
        integ = _ep_integrate(shifted)
        rs.append(_ep_exp_shift(integ, lams[j]))
    # P_0 = I; P_j = (A - lam_j I) P_{j-1}, over the complex rationals: a
    # complex eigenvalue gives complex projectors, paired with the r_j's the
    # total stays real
    ident = [[CRat(Fraction(int(i == j))) for j in range(n)] for i in range(n)]
    Ps = [ident]
    for j in range(n - 1):
        lam = lams[j]
        shifted = [[CRat(A[i][k]) - (lam if i == k else CZERO)
                    for k in range(n)] for i in range(n)]
        nxt = [[sum((shifted[i][m] * Ps[-1][m][k] for m in range(n)), CZERO)
                for k in range(n)] for i in range(n)]
        Ps.append(nxt)
    out = [[dict() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                c = Ps[j][i][k]
                if c.is_zero():
                    continue
                for key, v in rs[j].items():
                    _ep_add(out[i][k], key, v * c)
    return tuple(map(tuple, out))


def exp_poly_to_expr(p: ExpPoly, t: ex.Expr) -> ex.Expr:
    """Realize an exp-polynomial as an expression in t, taking the real part.

    Each term c t^m e^{(a+bi)t} contributes
    t^m e^{at} (Re(c) cos(bt) - Im(c) sin(bt)); for a real matrix argument the
    imaginary parts cancel across conjugate terms, so the real part is exact.
    """
    parts = []
    for (mu, m), c in p.items():
        factors = []
        if m:
            factors.append(ex.pow_(t, m))
        if mu.re != 0:
            factors.append(ex.func("exp", ex.mul(ex.Const(mu.re), t)))
        if mu.im != 0:
            bt = ex.mul(ex.Const(mu.im), t)
            trig = ex.add(
                ex.mul(ex.Const(c.re), ex.func("cos", bt)),
                ex.mul(ex.Const(-c.im), ex.func("sin", bt)),
            )
            parts.append(ex.mul(trig, *factors))
        else:
            # an imaginary residue cancels against the conjugate term
            parts.append(ex.mul(ex.Const(c.re), *factors))
    return ex.add(*parts)


def exp_matrix_expr(M: Sequence[Sequence[Fraction]], t: ex.Expr) -> List[List[ex.Expr]]:
    """exp(tM) as a matrix of canonical expressions in t."""
    eps = exp_poly_matrix(M)
    n = len(M)
    return [[exp_poly_to_expr(eps[i][j], t) for j in range(n)] for i in range(n)]
