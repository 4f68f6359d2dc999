"""Every derivative rule of the kernel, held to an independent derivative.

The oracle reads every check from a compiled gradient (expr._adjoints),
and the engine's other derivative path is the symbolic diff.  Both are
compared, at regular points of seeded random expressions over the whole
grammar (every head, integer, negative and n/m exponents, repeated factors
and nesting), with a complex-step derivative taken by a small cmath walker
of the tree, which shares no rule with either: d e/d s = Im e(p + i h e_s)/h
for h = 1e-30 (Squire & Trapp, SIAM Review 40(1), 1998).
"""

import cmath
import random
import time
from fractions import Fraction

from lieinv import expr as ex
from lieinv.errors import SingularEvaluation
from lieinv.jet import JetSpace

SP = JetSpace(("x", "y"), "u")
SYMBOLS = [SP.base("x"), SP.base("y"), SP.jet(), SP.jet("x")]
# 2 is the (n, m) == (1, 1) branch of the power rule: d*2*base
EXPONENTS = [2, 3, 4, -1, -2, Fraction(1, 2), Fraction(3, 2),
             Fraction(-1, 3), Fraction(2, 3), Fraction(-5, 2)]
FIXED = ["log(x + 2)*u", "exp(x*y)*u_x", "sin(x)^2*cos(y*u)", "cos(u_x)^3",
         "log(1 + x^2)^2/(2 + sin(y))", "(1 + x^2)^(1/2)*exp(-u)",
         "(1 + x^2 + y^2)^(-3/2)", "x^2*y^3*u^(-1)",
         "sin(cos(x*y))*log(exp(u))", "exp(sin(x))^2*(x*y)^(2/3)",
         "u*log(u^2 + 1)*log(u^2 + 1)"]
EXPRESSIONS = 160
POINTS = 3
STEP = 1e-30


def _positive(rng, g):
    """A node with g in it whose value is positive at every real point."""
    return rng.choice([
        lambda: ex.add(1, ex.pow_(g, 2)),
        lambda: ex.add(2, ex.func("sin", g)),
        lambda: ex.func("exp", g),
    ])()


def _random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.8:
            return rng.choice(SYMBOLS)
        return ex.Const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    kind = rng.randrange(8)
    kids = [_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if kind == 0:
        return ex.add(*kids)
    if kind == 1:  # a repeated factor
        return ex.mul(kids[0], kids[0], *kids[1:])
    if kind == 2:
        return ex.mul(*kids)
    if kind == 3:
        n = rng.choice(EXPONENTS)
        base = kids[0] if type(n) is int and n > 0 else _positive(rng, kids[0])
        return ex.pow_(base, n)
    head = ex.ELEMENTARY_HEADS[kind - 4]
    arg = _positive(rng, kids[0]) if head == "log" else kids[0]
    return ex.func(head, arg)


def _complex_step(e, pt, s):
    """d e/d s at pt by the complex step, from a cmath walk of the tree."""
    memo = {}

    def walk(x):
        got = memo.get(x)
        if got is None:
            got = memo[x] = value(x)
        return got

    def value(x):
        t = type(x)
        if t is ex.Const:
            return complex(x.value)
        if t is ex.Symbol:
            return complex(pt[x.name], STEP if x is s else 0.0)
        if t is ex.Add:
            return sum([walk(k) for k in x.terms])
        if t is ex.Mul:
            out = 1.0
            for k in x.factors:
                out *= walk(k)
            return out
        if t is ex.Pow:
            b = walk(x.base)
            if x.exp.denominator == 1:
                return b ** int(x.exp)
            return cmath.exp(float(x.exp) * cmath.log(b))
        return getattr(cmath, x.head)(walk(x.arg))

    return walk(e).imag / STEP


def _close(a, b):
    return abs(a - b) <= 1e-7 * (1.0 + abs(a) + abs(b))


def _corpus():
    rng = random.Random(20260531)
    exprs = [SP.parse(text) for text in FIXED]
    exprs += [_random_expr(rng) for _ in range(EXPRESSIONS)]
    return [e for e in dict.fromkeys(exprs) if e.free_symbols()], rng


def _census(exprs):
    """The heads and exponent classes the corpus holds."""
    found = set()

    def visit(x, kids):
        if type(x) is ex.Func:
            found.add(x.head)
        elif type(x) is ex.Pow:
            n = x.exp
            found.add("n/m" if n.denominator != 1 else
                      "2" if n == 2 else "int" if n > 0 else "negative")
        elif type(x) is ex.Mul:
            found.add("product")

    for e in exprs:
        ex._fold(e, visit, lambda x: None)
    return found


def test_every_rule_matches_the_complex_step():
    start = time.perf_counter()
    exprs, rng = _corpus()
    assert _census(exprs) >= set(ex.ELEMENTARY_HEADS) | {
        "n/m", "2", "int", "negative", "product"}
    compared = 0
    for e in exprs:
        wrt, gradient = ex.compile_gradient(e)
        partials = [ex.compile_numeric(ex.diff(e, s)) for s in wrt]
        for _ in range(POINTS):
            pt = {s.name: rng.uniform(-1.2, 1.2) for s in SYMBOLS}
            try:
                slots = gradient(pt)[1:]
                symbolic = [d(pt) for d in partials]
                steps = [_complex_step(e, pt, s) for s in wrt]
            except (SingularEvaluation, OverflowError, ValueError,
                    ZeroDivisionError):
                continue
            for s, g, d, c in zip(wrt, slots, symbolic, steps):
                where = f"d/d{s.name} of {ex.render(e)} at {pt}"
                assert _close(g, c), f"compile_gradient: {g} != {c}, {where}"
                assert _close(d, c), f"diff: {d} != {c}, {where}"
                compared += 1
    assert compared > POINTS * len(exprs)
    assert time.perf_counter() - start < 2.0
