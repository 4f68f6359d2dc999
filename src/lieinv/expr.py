"""Immutable symbolic expression kernel.

Expressions are trees over exact rational constants, symbols (coordinates,
jet variables, parameters), sums, products, rational powers, the elementary
functions exp/log/sin/cos, and opaque function applications used as template
slots.  Every constructor canonicalizes: sums and products are flattened,
constants folded exactly, like terms and like powers collected, and operands
sorted by a fixed total order, so structurally equal trees compare equal.

Exact rationals are normalized: `Const.value` and `Pow.exp` are a Python
`int` when integral and a `Fraction` otherwise, so
`Const(Fraction(6, 3)).value` is the int 2.  Both types carry
`numerator`/`denominator`, which is all that sort keys, rendering and
codegen read.

Canonical form conventions:
  * tan(a) is accepted on input and rewritten to sin(a)*cos(a)^(-1); no tan
    node survives canonicalization.
  * repeated exponentials collect as powers: exp(u)*exp(u) -> exp(u)^2.
  * sums merge Pythagorean pairs: c*f*sin(a)^2 + c*f*cos(a)^2 -> c*f.

Trees are walked by one memoized fold, `_fold`: each structurally distinct
subtree is visited once, children first.  Differentiation, expansion,
substitution, code generation and the collection of applications and
denominator symbols are its visitors, so each handles a repeated subtree
once per call.  A node's free symbols follow one rule over its operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    ParseError,
    SingularEvaluation,
    UnboundSymbol,
    UnknownIdentifier,
    UnsupportedOperation,
)

ELEMENTARY_HEADS = ("exp", "log", "sin", "cos")
# accepted by the parser, rewritten away during canonicalization
_INPUT_HEADS = ELEMENTARY_HEADS + ("tan",)

BASE = "base"
JET = "jet"
PARAM = "param"


@dataclass(frozen=True)
class Symbol:
    """A named leaf: base coordinate, jet variable, or parameter.

    Jet variables carry the dependent name and a sorted multi-index of
    coordinate names (length 0..2); u itself is the jet variable with the
    empty index.
    """

    name: str
    kind: str = BASE
    dep: Optional[str] = None
    index: tuple = ()

    @property
    def order(self) -> int:
        return len(self.index) if self.kind == JET else 0

    def __repr__(self):
        return f"Symbol({self.name!r})"


def jet_symbol(dep: str, index: Sequence[str]) -> Symbol:
    idx = tuple(sorted(index))
    if len(idx) > 2:
        raise UnsupportedOperation(f"jet order {len(idx)} > 2 for {dep}")
    name = dep if not idx else dep + "_" + "".join(idx)
    return Symbol(name, JET, dep=dep, index=idx)


# ---------------------------------------------------------------------------
# Expression nodes


class Expr:
    """Base class; subclasses are immutable and canonical by construction."""

    __slots__ = ("_key", "_hash", "_free", "_fns")

    def __init__(self):
        self._key = None
        self._hash = None
        self._free = None
        self._fns = None  # compiled [value, magnitude, gradient] evaluators

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(Const(-1), as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(Const(-1), self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(as_expr(other), pow_(self, -1))

    def __pow__(self, e):
        return pow_(self, e)

    def __neg__(self):
        return mul(Const(-1), self)

    # -- structural identity -----------------------------------------------
    def sort_key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key

    def __eq__(self, other):
        return isinstance(other, Expr) and self.sort_key() == other.sort_key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.sort_key())
        return self._hash

    def free_symbols(self) -> frozenset:
        """A Sym's own symbol, one operand's set shared, else the union."""
        if self._free is None:
            kids = _OPERANDS[type(self)](self)
            self._free = (frozenset((self.symbol,)) if type(self) is Sym
                          else kids[0].free_symbols() if len(kids) == 1
                          else _union([k.free_symbols() for k in kids]))
        return self._free

    def __repr__(self):
        return f"<{type(self).__name__} {render(self)}>"

    def __str__(self):
        return render(self)


def _exact(v):
    """Normalize an exact rational: int if integral, else Fraction."""
    if type(v) is not int:
        if type(v) is not Fraction:
            v = Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


def _rat_pow(v, n: int):
    """v**n for an exact rational v and integer n; int ** -n is a float."""
    return v ** n if n >= 0 else Fraction(v) ** n


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        # Expr.__init__ inlined: Const is the node built most often
        self._key = self._hash = self._free = self._fns = None
        self.value = _exact(value)

    def _make_key(self):
        return (0, (self.value.numerator, self.value.denominator))


ZERO = Const(0)
ONE = Const(1)


class Sym(Expr):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        super().__init__()
        self.symbol = symbol

    def _make_key(self):
        s = self.symbol
        if s.kind == BASE:
            return (1, s.name)
        if s.kind == PARAM:
            return (2, s.name)
        return (3, s.dep, len(s.index), s.index)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int | Fraction):
        super().__init__()
        self.base = base
        self.exp = exp

    def _make_key(self):
        return (4, self.base.sort_key(), (self.exp.numerator, self.exp.denominator))


class Func(Expr):
    """Elementary function application (exp, log, sin, cos)."""

    __slots__ = ("head", "arg")

    def __init__(self, head: str, arg: Expr):
        super().__init__()
        self.head = head
        self.arg = arg

    def _make_key(self):
        return (5, self.head, self.arg.sort_key())


class Applied(Expr):
    """Opaque arbitrary-function application, used for template slots."""

    __slots__ = ("head", "args")

    def __init__(self, head: str, args: tuple):
        super().__init__()
        self.head = head
        self.args = args

    def _make_key(self):
        return (6, self.head, tuple(a.sort_key() for a in self.args))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        super().__init__()
        self.terms = terms

    def _make_key(self):
        return (7, tuple(t.sort_key() for t in self.terms))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        super().__init__()
        self.factors = factors

    def _make_key(self):
        return (8, tuple(f.sort_key() for f in self.factors))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, Symbol):
        return Sym(x)
    if isinstance(x, (int, Fraction)):
        return Const(x)
    raise TypeError(f"cannot convert {x!r} to Expr")


# ---------------------------------------------------------------------------
# Canonicalizing constructors


def _split_coeff(term: Expr):
    """Split a canonical term into (rational coefficient, monomial or None)."""
    if isinstance(term, Const):
        return term.value, None
    if isinstance(term, Mul):
        first = term.factors[0]
        if isinstance(first, Const):
            rest = term.factors[1:]
            mono = rest[0] if len(rest) == 1 else Mul(rest)
            return first.value, mono
    return 1, term


def _monomial_factors(mono: Expr):
    if isinstance(mono, Mul):
        return list(mono.factors)
    return [mono]


def _rebuild_monomial(factors):
    if not factors:
        return None
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(sorted(factors, key=lambda f: f.sort_key())))


def _trig_square_candidates(mono, head):
    """Yield (arg, reduced-monomial) pairs obtained by removing head(a)^2."""
    out = []
    factors = _monomial_factors(mono)
    for i, f in enumerate(factors):
        if (
            isinstance(f, Pow)
            and isinstance(f.base, Func)
            and f.base.head == head
            and f.exp.denominator == 1
            and f.exp >= 2
        ):
            rest = factors[:i] + factors[i + 1 :]
            if f.exp != 2:
                rest.append(Pow(f.base, f.exp - 2))
            out.append((f.base.arg, _rebuild_monomial(rest)))
    return out


def _pythagorean_merge(monos: dict):
    """In-place merge of matching c*f*sin(a)^2 and c*f*cos(a)^2 terms.

    `monos` maps sort-key -> [monomial-or-None, coefficient].
    """
    changed = True
    while changed:
        changed = False
        sin_index = {}
        for key, (mono, coeff) in monos.items():
            if mono is None or coeff == 0:
                continue
            for arg, rest in _trig_square_candidates(mono, "sin"):
                rk = None if rest is None else rest.sort_key()
                sin_index[(arg.sort_key(), rk, coeff)] = (key, rest)
        if not sin_index:
            return
        for key, (mono, coeff) in list(monos.items()):
            if mono is None or coeff == 0:
                continue
            for arg, rest in _trig_square_candidates(mono, "cos"):
                rk = None if rest is None else rest.sort_key()
                hit = sin_index.get((arg.sort_key(), rk, coeff))
                if hit is None:
                    continue
                skey, srest = hit
                if skey == key:
                    continue
                monos[skey][1] = 0
                monos[key][1] = 0
                tgt = None if rest is None else rest.sort_key()
                if tgt in monos:
                    monos[tgt][1] += coeff
                else:
                    monos[tgt] = [rest, coeff]
                changed = True
                break
            if changed:
                break


def add(*terms) -> Expr:
    flat = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    monos = {}
    for t in flat:
        coeff, mono = _split_coeff(t)
        key = None if mono is None else mono.sort_key()
        if key in monos:
            monos[key][1] += coeff
        else:
            monos[key] = [mono, coeff]
    _pythagorean_merge(monos)
    out = []
    for mono, coeff in monos.values():
        if coeff == 0:
            continue
        if mono is None:
            out.append(Const(coeff))
        elif coeff == 1:
            out.append(mono)
        else:
            out.append(mul(Const(coeff), mono))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda t: t.sort_key())
    return Add(tuple(out))


def mul(*factors) -> Expr:
    flat = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    const = 1
    powers = {}  # base key -> [base, exponent]
    order = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
            continue
        if isinstance(f, Pow):
            base, exp = f.base, f.exp
        else:
            base, exp = f, 1
        if isinstance(base, Const) and exp.denominator == 1:
            const *= _rat_pow(base.value, exp)
            continue
        key = base.sort_key()
        if key in powers:
            powers[key][1] += exp
        else:
            powers[key] = [base, exp]
            order.append(key)
    if const == 0:
        return ZERO
    out = []
    for key in order:
        base, exp = powers[key]
        if exp == 0:
            continue
        out.append(base if exp == 1 else pow_(base, exp))
    # pow_ may have folded, e.g. into constants or nested products
    if any(isinstance(f, (Mul, Const)) for f in out):
        return mul(Const(const), *out)
    if not out:
        return Const(const)
    out.sort(key=lambda f: f.sort_key())
    if const == 1 and len(out) == 1:
        return out[0]
    if const != 1:
        out.insert(0, Const(const))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def pow_(base, exp) -> Expr:
    base = as_expr(base)
    exp = _exact(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0:
            if exp > 0:
                return ZERO
            return Pow(base, exp)  # singular; caught at evaluation
        if exp.denominator == 1:
            return Const(_rat_pow(base.value, exp))
        if base.value == 1:
            return ONE
    if isinstance(base, Pow) and exp.denominator == 1:
        return pow_(base.base, base.exp * exp)
    if isinstance(base, Mul) and exp.denominator == 1:
        return mul(*[pow_(f, exp) for f in base.factors])
    return Pow(base, exp)


def _negated_arg(arg: Expr):
    """Return b with arg == -b if arg has a negative leading coefficient."""
    coeff, mono = _split_coeff(arg)
    if isinstance(arg, Add):
        # normalize sign by the first term of the sorted sum
        coeff, _ = _split_coeff(arg.terms[0])
        if coeff < 0:
            return mul(Const(-1), arg)
        return None
    if coeff < 0:
        return mul(Const(-1), arg)
    return None


def func(head: str, arg) -> Expr:
    arg = as_expr(arg)
    if head == "tan":
        return mul(func("sin", arg), pow_(func("cos", arg), -1))
    if head not in ELEMENTARY_HEADS:
        raise UnsupportedOperation(f"unknown function head {head!r}")
    if isinstance(arg, Const):
        v = arg.value
        if head == "exp" and v == 0:
            return ONE
        if head == "log" and v == 1:
            return ZERO
        if head == "sin" and v == 0:
            return ZERO
        if head == "cos" and v == 0:
            return ONE
    if head in ("sin", "cos"):
        neg = _negated_arg(arg)
        if neg is not None:
            inner = Func(head, neg)
            return mul(Const(-1), inner) if head == "sin" else inner
    return Func(head, arg)


def applied(head: str, args: Iterable) -> Expr:
    return Applied(head, tuple(as_expr(a) for a in args))


# ---------------------------------------------------------------------------
# Core operations


# The operands of each node type, and the canonical constructor that
# rebuilds a node of that type from new operands.
_OPERANDS = {
    Const: lambda x: (),
    Sym: lambda x: (),
    Add: lambda x: x.terms,
    Mul: lambda x: x.factors,
    Pow: lambda x: (x.base,),
    Func: lambda x: (x.arg,),
    Applied: lambda x: x.args,
}
_CONSTRUCTORS = {
    Add: lambda x, kids: add(*kids),
    Mul: lambda x, kids: mul(*kids),
    Pow: lambda x, kids: pow_(kids[0], x.exp),
    Func: lambda x, kids: func(x.head, kids[0]),
    Applied: lambda x, kids: applied(x.head, kids),
}


def _construct(x: Expr, kids) -> Expr:
    """The non-leaf x rebuilt from the operands kids, canonicalized."""
    return _CONSTRUCTORS[type(x)](x, kids)


_EMPTY = frozenset()


def _union(sets: Sequence[frozenset]) -> frozenset:
    """The union of sets; one holding the union so far is shared."""
    out = _EMPTY
    for s in sets:
        if not s <= out:
            out = s if out <= s else out | s
    return out


def _nothing_at_leaf(x: Expr) -> Optional[frozenset]:
    """A leaf holds no set member; the stop of a _fold that collects sets."""
    return _EMPTY if type(x) is Const or type(x) is Sym else None


def _leaf(x: Expr) -> Optional[Expr]:
    """A leaf folds to itself; for use as the stop of a _fold."""
    return x if type(x) is Const or type(x) is Sym else None


def _fold(e: Expr, visit: Callable, stop: Callable,
          memo: Optional[dict] = None):
    """Fold e bottom-up: the value of x is visit(x, values of its operands).

    Each structurally distinct subtree is visited once, children before
    parents, in first-occurrence order, and memo (a new dict unless given)
    maps it to its value in that order.  stop(x) is asked first: anything
    but None is x's value, taken without descending into x or memoizing it.
    This is the kernel's one recursive walk.
    """
    if memo is None:
        memo = {}

    def rec(x):
        out = stop(x)
        if out is None:
            out = memo.get(x)
            if out is None:
                kids = _OPERANDS[type(x)](x)
                out = memo[x] = visit(x, [rec(k) for k in kids])
        return out

    try:
        return rec(e)
    finally:
        del rec  # rec reaches itself through its closure; break the cycle


def simplify_basic(e: Expr) -> Expr:
    """Rebuild `e` through the canonicalizing constructors (idempotent)."""
    return _fold(e, _construct, _leaf)


def diff(e: Expr, s: Symbol) -> Expr:
    """Partial derivative of e with respect to the symbol s.

    All other symbols (including jet variables) are treated as independent.
    Structurally equal subtrees are differentiated once per call.
    """
    if s not in e.free_symbols():
        return ZERO

    def stop(x):
        if s not in x.free_symbols():
            return ZERO
        if type(x) is Applied:
            raise UnsupportedOperation(
                f"formal derivative of arbitrary-function head {x.head!r} is unsupported"
            )
        return None

    def visit(x, kids):
        t = type(x)
        if t is Sym:
            return ONE
        if t is Add:
            return add(*kids)
        if t is Mul:
            fs = x.factors
            return add(*[mul(df, *fs[:i], *fs[i + 1:])
                         for i, df in enumerate(kids)
                         if type(df) is not Const or df.value != 0])
        if t is Pow:
            return mul(Const(x.exp), pow_(x.base, x.exp - 1), kids[0])
        if x.head == "exp":
            return mul(x, kids[0])
        if x.head == "log":
            return mul(pow_(x.arg, -1), kids[0])
        if x.head == "sin":
            return mul(func("cos", x.arg), kids[0])
        return mul(Const(-1), func("sin", x.arg), kids[0])

    return _fold(e, visit, stop)


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    """Simultaneous substitution of symbols, then canonicalization."""
    if not bindings:
        return e
    if not (e.free_symbols() & set(bindings)):
        return e

    def stop(x):
        r = bindings.get(x.symbol) if type(x) is Sym else None
        return _leaf(x) if r is None else as_expr(r)

    return _fold(e, _construct, stop)


def substitute_heads(e: Expr, heads: Mapping[str, Callable]) -> Expr:
    """Replace arbitrary-function applications head(args) by heads[head](*args).

    A replaced application is answered from its own args, which are handed
    to the callable as they are, not rebuilt.
    """

    def stop(x):
        fn = heads.get(x.head) if type(x) is Applied else None
        return _leaf(x) if fn is None else as_expr(fn(*x.args))

    return _fold(e, _construct, stop)


def _applications(x: Expr, kids) -> frozenset:
    """The applications in x: its operands', and x if it is one."""
    found = _union(kids)
    return found | {x} if type(x) is Applied else found


def applications(e: Expr) -> list:
    """The distinct arbitrary-function applications in e, in sort order.

    Of structurally equal applications the first one met is kept, so its
    argument nodes (and the evaluators compiled on them) are e's own.
    """
    return sorted(_fold(e, _applications, _nothing_at_leaf),
                  key=Expr.sort_key)


def _expanded(x: Expr, kids) -> Expr:
    """x on its expanded operands, a product or small power of sums distributed."""
    if type(x) is Mul:
        return reduce(_distribute, kids, ONE)
    if (type(x) is Pow and type(kids[0]) is Add and x.exp.denominator == 1
            and 2 <= x.exp <= 4):
        return reduce(_distribute, [kids[0]] * (x.exp - 1), kids[0])
    return _construct(x, kids)


def expand(e: Expr) -> Expr:
    """Distribute products over sums (and small positive integer powers of sums)."""
    return _fold(e, _expanded, _leaf)


def _distribute(a: Expr, b: Expr) -> Expr:
    aterms = a.terms if isinstance(a, Add) else (a,)
    bterms = b.terms if isinstance(b, Add) else (b,)
    return add(*[mul(x, y) for x in aterms for y in bterms])


def _denominators_at(x: Expr) -> Optional[frozenset]:
    """The stop of denominator_symbols: a leaf has none, and a negative
    power has its base's symbols, which hold every denominator inside."""
    if type(x) is Pow and x.exp < 0:
        return x.base.free_symbols()
    return _nothing_at_leaf(x)


def denominator_symbols(e: Expr) -> frozenset:
    """Symbols occurring inside the base of any negative-exponent power."""
    return _fold(e, lambda x, kids: _union(kids), _denominators_at)


# ---------------------------------------------------------------------------
# Numeric evaluation


def _num_pow(b: float, num: int, den: int) -> float:
    if b == 0.0 and num < 0:
        raise SingularEvaluation("zero base with negative exponent")
    if den == 1:
        if num >= 0:
            return b ** num
        if abs(b) < 1e-280:
            raise SingularEvaluation("vanishing denominator")
        d = b ** (-num)
        if d == 0.0:
            raise SingularEvaluation("denominator underflows to zero")
        return 1.0 / d
    if b < 0:
        raise SingularEvaluation("negative base with fractional exponent")
    return b ** (num / den)


def _num_log(x: float) -> float:
    if x <= 0.0:
        raise SingularEvaluation("log of non-positive value")
    return math.log(x)


def _num_exp(x: float) -> float:
    if x > 700.0:
        raise SingularEvaluation("exp overflow")
    return math.exp(x)


def _literal(v: int | Fraction) -> str:
    if v.denominator == 1:
        return f"({v.numerator})"
    return f"({v.numerator}/{v.denominator})"


JOIN_LIMIT = 256  # the compiler recurses once per operand of a + b + ...


def _join(op: str, operands: list, lines: list) -> str:
    """The operands joined by op, JOIN_LIMIT at a time.

    Each full chunk goes to a partial local p<line number>, appended to
    lines, that is the first operand of the next: the same float
    operations, left to right.
    """
    while len(operands) > JOIN_LIMIT:
        part = f"p{len(lines)}"
        lines.append(f"  {part}={op.join(operands[:JOIN_LIMIT])}")
        operands = [part] + operands[JOIN_LIMIT:]
    return op.join(operands)


def _codegen(e: Expr, magnitude: bool, wrt: Optional[tuple] = None) -> str:
    """Source of a flat function `f(a)` evaluating e, one local per subtree.

    Structurally equal subtrees share one local, assigned in first-occurrence
    post-order, which is the order a nested expression would evaluate them
    in; constants stay inline literals.  This is the one place that decides
    what a singular point is: the body runs inside one `try`, and an
    OverflowError or ValueError (math.sin(inf)), like a result that is not
    finite, raises SingularEvaluation (bound as `S`).  Given a tuple of
    symbols wrt, a reverse sweep (_adjoints) follows in the same `try`, and
    f returns [e, de/ds for s in wrt], each held to the same rule.
    """
    refs = {}  # subtree -> local name, the memo of the fold
    lines = ["def f(a):", " try:"]

    def stop(x):
        if type(x) is Const:
            return _literal(abs(x.value) if magnitude else x.value)
        if type(x) is Applied:
            raise UnboundSymbol(
                f"cannot numerically evaluate arbitrary-function head {x.head!r}"
            )
        return None

    def visit(x, kids):
        t = type(x)
        if t is Sym:
            src = f"a[{x.symbol.name!r}]"
            if magnitude:
                src = f"abs({src})"
        elif t is Add:
            src = _join("+", kids, lines)
        elif t is Mul:
            src = _join("*", kids, lines)
        elif t is Pow:
            src = f"P({kids[0]},{x.exp.numerator},{x.exp.denominator})"
        else:
            src = f"F[{x.head!r}]({kids[0]})"
            if magnitude and x.head != "exp":
                src = f"abs({src})"
        ref = f"t{len(refs)}"
        lines.append(f"  {ref}={src}")
        return ref

    lines.append(f"  r={_fold(e, visit, stop, refs)}+0.0")
    out = ["r"]
    if wrt:  # a tuple of e's symbols, so e is not a Const
        adjoint = _adjoints(refs, frozenset(wrt), lines)
        out += [adjoint[s] for s in wrt]
    lines += [
        " except (OverflowError, ValueError) as x:",
        "  raise S(str(x)) from None",
        # inf - inf and nan - nan are nan, which is truthy
        " if " + " or ".join([f"{v}-{v}" for v in out]) + ":",
        "  raise S('non-finite value')",
        " return r" if wrt is None else f" return [{','.join(out)}]",
    ]
    return "\n".join(lines)


def _adjoints(refs: dict, wrt: frozenset, lines: list) -> dict:
    """Append the reverse sweep over the forward locals; {symbol: its partial}.

    The subtree in local t<i> gets the adjoint d<i> = d(root)/d(subtree),
    1.0 at the root (the last local).  Locals are visited in reverse, so
    every parent has added its term before a child's sum is emitted; only
    subtrees that depend on a symbol of wrt get one.
    """
    def src(x):
        return _literal(x.value) if isinstance(x, Const) else refs[x]

    nodes = list(refs)
    terms = {nodes[-1]: ["1.0"]}
    out = {}
    for x in reversed(nodes):
        parts = terms.pop(x, None)
        if parts is None:
            continue
        d = "d" + refs[x][1:]
        lines.append(f"  {d}={_join('+', parts, lines)}")
        if isinstance(x, Sym):
            out[x.symbol] = d
            continue
        if isinstance(x, Add):
            kids = [(t, d) for t in x.terms]
        elif isinstance(x, Mul):
            fs = x.factors
            kids = [(f, "*".join([d] + [src(g) for g in fs[:i] + fs[i + 1:]]))
                    for i, f in enumerate(fs)]
        elif isinstance(x, Pow):
            n, m = x.exp.numerator - x.exp.denominator, x.exp.denominator
            pw = src(x.base) if (n, m) == (1, 1) else f"P({src(x.base)},{n},{m})"
            kids = [(x.base, f"{d}*{_literal(x.exp)}*{pw}")]
        else:
            arg = src(x.arg)
            kids = [(x.arg, {"exp": f"{d}*{refs[x]}", "log": f"{d}/{arg}",
                             "sin": f"{d}*F['cos']({arg})",
                             "cos": f"-{d}*F['sin']({arg})"}[x.head])]
        for kid, term in kids:
            if not wrt.isdisjoint(kid.free_symbols()):
                terms.setdefault(kid, []).append(term)
    return out


CODE_MEMO_SIZE = 128  # distinct generated sources whose code objects are kept


class _Source:
    """A generated source as the code memo's key: equal by its SHA-256
    digest, so the text can be dropped once compiled."""

    __slots__ = ("text", "digest")

    def __init__(self, text: str):
        # imported on first use: loading OpenSSL adds about 3 ms to start-up
        import hashlib
        self.text = text
        self.digest = hashlib.sha256(text.encode()).digest()

    def __eq__(self, other):
        return self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)


@lru_cache(maxsize=CODE_MEMO_SIZE)
def _code(src: _Source):
    """The code object of a generated source; equal sources share one.

    The memo keeps src as its key, so the text is dropped here: the memo
    holds the 32-byte digest, not the source.
    """
    code = compile(src.text, "<string>", "exec")
    src.text = None
    return code


def _compile(src: str):
    env = {
        "P": _num_pow,
        "F": {"exp": _num_exp, "log": _num_log, "sin": math.sin, "cos": math.cos},
        "abs": abs,
        "S": SingularEvaluation,
    }
    exec(_code(_Source(src)), env)  # noqa: S102 - generated from our own AST
    # popped, so the evaluator does not hold itself through its globals
    return env.pop("f")


def compile_numeric(e: Expr, magnitude: bool = False):
    """Compile e to a fast evaluator mapping {symbol name: float} -> float.

    The generated function is flat: each distinct subtree is computed once
    into a local, in the order and with the operations a nested expression
    would use, so it returns the same float (or raises at the same
    operation) and has no nesting limit of its own.  Every finite float
    it returns is the one that nested evaluation gives; a point where
    evaluation overflows, leaves the domain or ends non-finite raises
    SingularEvaluation instead.  With magnitude=True
    it computes a cancellation-free magnitude estimate: |.| is applied at
    the leaves and propagated through sums and products.  Both evaluators
    are kept on the node itself, so they live exactly as long as the tree
    does.  Structurally equal nodes generate the same source, whose code
    object comes from a bounded memo (_code, CODE_MEMO_SIZE sources, keyed
    by each source's SHA-256 digest, so no source text is kept); each
    node still gets its own function, made from that code object in fresh
    globals.
    """
    if e._fns is None:
        e._fns = [None, None, None]
    fn = e._fns[magnitude]
    if fn is None:
        fn = e._fns[magnitude] = _compile(_codegen(e, magnitude))
    return fn


def compile_gradient(e: Expr):
    """(symbols, g): e's non-parameter symbols by name, and its gradient.

    g(a) returns [e(a)] + [de/ds(a) for s in symbols] from one call: the
    forward sweep of compile_numeric(e), so g(a)[0] is bit-identical to
    compile_numeric(e)(a), then a reverse sweep under the same
    singular-point rule.  Kept on the node like compile_numeric's.
    """
    if e._fns is None:
        e._fns = [None, None, None]
    if e._fns[2] is None:
        wrt = tuple(sorted((s for s in e.free_symbols() if s.kind != PARAM),
                           key=lambda s: (s.name, s.kind)))
        e._fns[2] = (wrt, _compile(_codegen(e, False, wrt)))
    return e._fns[2]


# ---------------------------------------------------------------------------
# Rendering


def _render_const(v: int | Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _needs_parens_in_mul(x: Expr) -> bool:
    return isinstance(x, Add) or (isinstance(x, Const) and (x.value < 0 or x.value.denominator != 1))


def _render_power(x: Pow) -> str:
    base = x.base
    bs = render(base)
    if not isinstance(base, (Sym, Func, Applied)):
        bs = f"({bs})"
    e = x.exp
    if e.denominator == 1 and e > 0:
        return f"{bs}^{e.numerator}"
    return f"{bs}^({_render_const(e)})"


def _render_factor(x: Expr) -> str:
    if isinstance(x, Pow):
        return _render_power(x)
    s = render(x)
    return f"({s})" if _needs_parens_in_mul(x) else s


def _render_term(x: Expr) -> str:
    if isinstance(x, Mul):
        coeff, mono = _split_coeff(x)
        if coeff < 0:
            return "-" + _render_term(mul(Const(-coeff), mono))
        num, den = [], []
        for f in x.factors:
            if isinstance(f, Pow) and f.exp < 0:
                inv = pow_(f.base, -f.exp)
                den.append(_render_factor(inv))
            else:
                num.append(_render_factor(f))
        s = "*".join(num) if num else "1"
        for d in den:
            s += f"/{d}"
        return s
    if isinstance(x, Pow) and x.exp < 0:
        return f"1/{_render_factor(pow_(x.base, -x.exp))}"
    return _render_factor(x)


def render(e: Expr) -> str:
    """Render to the ASCII expression grammar with minimal parentheses."""
    if isinstance(e, Const):
        return _render_const(e.value)
    if isinstance(e, Sym):
        return e.symbol.name
    if isinstance(e, Func):
        return f"{e.head}({render(e.arg)})"
    if isinstance(e, Applied):
        return f"{e.head}({', '.join(render(a) for a in e.args)})"
    if isinstance(e, (Mul, Pow)):
        return _render_term(e)
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            coeff, mono = _split_coeff(t)
            if i == 0:
                parts.append(_render_term(t))
            elif coeff < 0:
                parts.append(" - " + _render_term(mul(Const(-1), t)))
            else:
                parts.append(" + " + _render_term(t))
        return "".join(parts)
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# Parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self):
        return self.peek() == ""

    def ident(self):
        self.skip_ws()
        start = self.pos
        t = self.text
        if start >= len(t) or not (t[start].isalpha()):
            raise ParseError("expected identifier", start)
        i = start
        while i < len(t) and (t[i].isalnum() or t[i] == "_"):
            i += 1
        self.pos = i
        return t[start:i], start

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        t = self.text
        i = start
        while i < len(t) and t[i].isdigit():
            i += 1
        if i < len(t) and t[i] == ".":
            i += 1
            while i < len(t) and t[i].isdigit():
                i += 1
        if i == start:
            raise ParseError("expected number", start)
        self.pos = i
        return Fraction(t[start:i])


# Input limits: deeper nesting would exhaust the interpreter's stack in the
# recursive parser, constructors and tree walks (compile_numeric emits flat
# code, so it has no parenthesis limit); larger exponents build constants too
# big to hold or floats that overflow.
MAX_NESTING = 32
MAX_EXPONENT = 1000
MAX_CONST_BITS = 1 << 16


def _check_power(base: Expr, exp: int | Fraction, pos: int) -> None:
    """Refuse base^exp if it divides by zero or grows beyond the limits."""
    if abs(exp.numerator) > MAX_EXPONENT:
        raise ParseError(f"exponent numerator exceeds {MAX_EXPONENT}", pos)
    if isinstance(base, Const) and exp < 0 and base.value == 0:
        raise ParseError("division by zero", pos)
    if isinstance(base, Const) and exp.denominator == 1:
        v = base.value
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        if bits * abs(exp.numerator) > MAX_CONST_BITS:
            raise ParseError(f"constant power exceeds {MAX_CONST_BITS} bits",
                             pos)


class _Parser:
    def __init__(self, text: str, context):
        self.tok = _Tokenizer(text)
        self.context = context
        self.depth = 0

    def parse(self) -> Expr:
        e = self.expr()
        self.tok.skip_ws()
        if not self.tok.at_end():
            raise ParseError("unexpected trailing input", self.tok.pos)
        return e

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.tok.pos)
        sign = 1
        if self.tok.peek() == "-":
            self.tok.take("-")
            sign = -1
        elif self.tok.peek() == "+":
            self.tok.take("+")
        # one add (and one mul per term) over all operands: linear in their
        # number, and no merge depends on which partial sum it meets
        terms = [mul(Const(sign), self.term()) if sign < 0 else self.term()]
        while self.tok.peek() in ("+", "-"):
            op = self.tok.peek()
            self.tok.take(op)
            t = self.term()
            terms.append(t if op == "+" else mul(Const(-1), t))
        self.depth -= 1
        return terms[0] if len(terms) == 1 else add(*terms)

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.tok.peek() in ("*", "/"):
            op = self.tok.peek()
            self.tok.take(op)
            pos = self.tok.pos
            f = self.factor()
            if op == "/":
                _check_power(f, Fraction(-1), pos)
                f = pow_(f, -1)
            factors.append(f)
        return factors[0] if len(factors) == 1 else mul(*factors)

    def factor(self) -> Expr:
        base = self.base()
        if self.tok.peek() == "^":
            self.tok.take("^")
            pos = self.tok.pos
            exp = self.exponent()
            _check_power(base, exp, pos)
            return pow_(base, exp)
        return base

    def exponent(self) -> int | Fraction:
        self.tok.skip_ws()
        pos = self.tok.pos
        if self.tok.peek() == "(":
            self.tok.take("(")
            e = self.expr()
            self.tok.take(")")
            if not isinstance(e, Const):
                raise ParseError("exponent must be rational", pos)
            return e.value
        sign = 1
        if self.tok.peek() == "-":
            self.tok.take("-")
            sign = -1
        return sign * self.tok.number()

    def base(self) -> Expr:
        c = self.tok.peek()
        if c == "(":
            self.tok.take("(")
            e = self.expr()
            self.tok.take(")")
            return e
        if c.isdigit():
            return Const(self.tok.number())
        name, start = self.tok.ident()
        if self.tok.peek() == "(":
            self.tok.take("(")
            args = [self.expr()]
            while self.tok.peek() == ",":
                self.tok.take(",")
                args.append(self.expr())
            self.tok.take(")")
            if name in _INPUT_HEADS:
                if len(args) != 1:
                    raise ParseError(f"{name} takes one argument", start)
                return func(name, args[0])
            return applied(name, args)
        try:
            sym = self.context.resolve(name)
        except KeyError:
            raise UnknownIdentifier(f"unknown identifier {name!r}", start) from None
        return Sym(sym)


def parse(text: str, context) -> Expr:
    """Parse `text` in the ASCII grammar, resolving identifiers in `context`.

    `context` must provide resolve(name) -> Symbol (raising KeyError for
    unknown names); JetSpace implements this.
    """
    return _Parser(text, context).parse()
