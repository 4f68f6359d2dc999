"""Immutable symbolic expression kernel.

Expressions are trees over exact rational constants, symbols (coordinates,
jet variables, parameters), sums, products, rational powers, the elementary
functions exp/log/sin/cos, and opaque function applications used as template
slots; a symbol is itself a leaf node.  Every constructor canonicalizes:
sums and products are flattened, constants folded exactly, like terms and
like powers collected, and operands sorted by a fixed total order, so
equal values build one canonical tree.

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

Trees are walked by one memoized fold, `_fold`: each distinct subtree is
visited once, children first.  Differentiation, expansion, substitution,
code generation and the collection of applications and denominator
symbols are its visitors, so each handles a repeated subtree once per
call.  A node's free symbols follow one rule over its operands.
Expansion folds to sparse polynomials (coefficient and power map per term)
and builds the canonical sum once, at the end.

One node per value.  Every node is made by one constructor, Expr.__new__,
which returns the one live node of its type and fields from a weak table
(_NODES): equal values built apart are one object, so equality and hash
are the object's own, a tree, a binding, a free set and an operator's
coefficients all hold the same object, and one node's caches (its free
symbols and compiled evaluators) serve every place the value is built.
The table keeps no node alive.  Nodes are slotted and immutable: only
their caches can be set.  Sort keys, cached on the node, order operands
and never decide equality.
"""

from __future__ import annotations

import math
import sys
import weakref
from fractions import Fraction
from functools import lru_cache
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


# ---------------------------------------------------------------------------
# Expression nodes


# (type, fields) with a rational as its numerator and denominator, or a
# symbol's sort key -> the one live node of that value
_NODES = weakref.WeakValueDictionary()
_CACHES = frozenset(("_key", "_free", "_fns"))
_set = object.__setattr__  # writes a slot past the immutability guard


class Expr:
    """Base class; subclasses are immutable and canonical by construction.

    Expr.__new__ is the constructor of every node type: called as
    Const(value), Symbol(name, kind, dep, index), Pow(base, exp),
    Func(head, arg), Applied(head, args), Add(terms) or Mul(factors), it
    returns the live node of that type with those fields, or makes it.  A
    rational is normalized (_exact) before the lookup, and a Const is
    refused where it would have more digits than _digit_limit() allows,
    once, when it is made.  A symbol is keyed by its sort key, which it
    keeps from then on.

    Three cache slots, None until first use, are all that can be set on a
    node: the sort key, the free symbols and the compiled [value,
    gradient] evaluators, to which denominator_symbols appends the node's
    denominator symbols.  They are filled through _set.
    """

    __slots__ = ("_key", "_free", "_fns", "__weakref__")

    def __new__(cls, *fields):
        if cls is Symbol:
            fields += (BASE, None, ())[len(fields) - 1:]
            name, kind, dep, index = fields
            key = ((1, name) if kind == BASE else (2, name) if kind == PARAM
                   else (3, dep, len(index), index))
        elif cls is Const or cls is Pow:
            v = fields[-1]
            if type(v) is not int:
                v = _exact(v)
                fields = fields[:-1] + (v,)
            # a Fraction hashes in Python code: key by its two ints
            key = (cls, *fields[:-1], v.numerator, v.denominator)
        else:
            key = (cls,) + fields
        node = _NODES.get(key)
        if node is None:
            if cls is Const:
                _check_digits(fields[0])
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                _set(node, name, value)
            _set(node, "_key", key if cls is Symbol else None)
            _set(node, "_free", None)
            _set(node, "_fns", None)
            _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        if name not in _CACHES:
            raise AttributeError(f"cannot set {name!r} of an immutable "
                                 f"{type(self).__name__} to {value!r}")
        _set(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the one node
        return type(self), tuple([getattr(self, f) for f in self.__slots__])

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

    # -- ordering and free symbols -------------------------------------------
    def sort_key(self):
        """The key of the fixed total order of operands, made once."""
        key = self._key
        if key is None:
            key = self._make_key()
            _set(self, "_key", key)
        return key

    def free_symbols(self) -> frozenset:
        """One operand's set, shared, else the union of the operands'."""
        if self._free is None:
            kids = _OPERANDS[type(self)](self)
            _set(self, "_free", kids[0].free_symbols() if len(kids) == 1
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


def _digit_limit() -> int:
    """The digits int/str conversion allows (sys.set_int_max_str_digits),
    or its default where the limit is off; never below _SHORT_DIGITS."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


# the least limit sys.set_int_max_str_digits takes (640)
_SHORT_DIGITS = sys.int_info.str_digits_check_threshold


def _check_digits(v) -> None:
    """Refuse a rational whose numerator or denominator has more digits
    than _digit_limit() allows, so that every constant can be printed and
    compiled."""
    n = max(abs(v.numerator), v.denominator)
    # an n of 3*k bits or fewer is below 8^k < 10^k: k digits at most
    if n.bit_length() > 3 * _SHORT_DIGITS and n >= 10 ** _digit_limit():
        raise UnsupportedOperation(f"constant exceeds {_digit_limit()} digits")


def _rat_pow(v, n: int):
    """v**n for an exact rational v and integer n; int ** -n is a float.
    Refused uncomputed where a part would reach 2^(4*limit) > 10^limit."""
    bits = max(abs(v.numerator), v.denominator).bit_length()
    if (bits - 1) * abs(n) >= 4 * _digit_limit():
        raise UnsupportedOperation(f"constant exceeds {_digit_limit()} digits")
    return v ** n if n >= 0 else Fraction(v) ** n


class Const(Expr):
    __slots__ = ("value",)

    def _make_key(self):
        return (0, (self.value.numerator, self.value.denominator))


class Symbol(Expr):
    """A named leaf: base coordinate, jet variable, or parameter.

    Jet variables carry the dependent name and a sorted multi-index of
    coordinate names (length 0..2); u itself is the jet variable with the
    empty index.  A symbol is its own node: the same object is a leaf of
    trees, a key of bindings, free sets and operator coefficients, and the
    variable of diff.  Made as Symbol(name, kind=BASE, dep=None, index=()),
    it is the one live symbol of its sort key, which it keeps.
    """

    __slots__ = ("name", "kind", "dep", "index")

    def free_symbols(self) -> frozenset:
        """The set of the symbol itself, made on each call: kept on the
        symbol, it would be a reference cycle, which holds a dropped
        symbol and its evaluators until the cyclic collector runs."""
        return frozenset((self,))

    @property
    def order(self) -> int:
        return len(self.index) if self.kind == JET else 0

    def __repr__(self):
        return f"Symbol({self.name!r})"


def Sym(symbol: Symbol) -> Symbol:
    """The symbol itself, which is its own leaf node."""
    return symbol


def jet_symbol(dep: str, index: Sequence[str]) -> Symbol:
    idx = tuple(sorted(index))
    if len(idx) > 2:
        raise UnsupportedOperation(f"jet order {len(idx)} > 2 for {dep}")
    name = dep if not idx else dep + "_" + "".join(idx)
    return Symbol(name, JET, dep, idx)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def _make_key(self):
        return (4, self.base.sort_key(), (self.exp.numerator, self.exp.denominator))


class Func(Expr):
    """Elementary function application (exp, log, sin, cos)."""

    __slots__ = ("head", "arg")

    def _make_key(self):
        return (5, self.head, self.arg.sort_key())


class Applied(Expr):
    """Opaque arbitrary-function application, used for template slots."""

    __slots__ = ("head", "args")

    def _make_key(self):
        return (6, self.head, tuple([a.sort_key() for a in self.args]))


class Add(Expr):
    __slots__ = ("terms",)

    def _make_key(self):
        return (7, tuple([t.sort_key() for t in self.terms]))


class Mul(Expr):
    __slots__ = ("factors",)

    def _make_key(self):
        return (8, tuple([f.sort_key() for f in self.factors]))


ZERO = Const(0)
ONE = Const(1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
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


def _trig_square_candidates(mono, head):
    """The (arg, cofactor) pairs of mono = cofactor*head(arg)^2, the
    cofactor None when it is 1."""
    out = []
    factors = list(mono.factors) if type(mono) is Mul else [mono]
    for i, f in enumerate(factors):
        if type(f) is Pow and type(f.base) is Func and f.base.head == head \
                and type(f.exp) is int and f.exp >= 2:
            rest = factors[:i] + factors[i + 1:]
            if f.exp != 2:
                rest.append(Pow(f.base, f.exp - 2))
            rest.sort(key=Expr.sort_key)
            out.append((f.base.arg, None if not rest else rest[0]
                        if len(rest) == 1 else Mul(tuple(rest))))
    return out


def _pythagorean_merge(monos: dict):
    """In-place merge of matching c*f*sin(a)^2 and c*f*cos(a)^2 terms.

    `monos` maps monomial (None for the constant) -> coefficient.  Each
    round merges the pair whose cos monomial sorts first, with the sin
    monomial that sorts first, so the result does not depend on the order
    of monos.
    """
    while True:
        sins = {}  # (arg, cofactor, coefficient) -> the one sin monomial
        for m, c in monos.items():
            if m is not None and c != 0:
                for arg, rest in _trig_square_candidates(m, "sin"):
                    sins[arg, rest, c] = m
        if not sins:
            return
        pairs = [(m, sins[arg, rest, c], rest, c) for m, c in monos.items()
                 if m is not None and c != 0
                 for arg, rest in _trig_square_candidates(m, "cos")
                 if (arg, rest, c) in sins]
        if not pairs:
            return
        cos, sin, rest, coeff = min(
            pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key()))
        monos[cos] = monos[sin] = 0
        monos[rest] = monos.get(rest, 0) + coeff


def add(*terms) -> Expr:
    monos = {}  # monomial (None for the constant) -> coefficient
    for t in terms:
        if not isinstance(t, Expr):
            t = as_expr(t)
        for t in (t.terms if type(t) is Add else (t,)):
            # split the term into its rational coefficient and monomial
            if type(t) is Const:
                coeff, mono = t.value, None
            elif type(t) is Mul and type(t.factors[0]) is Const:
                fs = t.factors
                coeff = fs[0].value
                mono = fs[1] if len(fs) == 2 else Mul(fs[1:])
            else:
                coeff, mono = 1, t
            monos[mono] = monos.get(mono, 0) + coeff
    _pythagorean_merge(monos)
    out = []
    for mono, coeff in monos.items():
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
    out.sort(key=Expr.sort_key)
    return Add(tuple(out))


def mul(*factors) -> Expr:
    const = 1
    powers = {}  # base -> exponent, in first-occurrence order
    for f in factors:
        if not isinstance(f, Expr):
            f = as_expr(f)
        for f in (f.factors if type(f) is Mul else (f,)):
            if type(f) is Const:
                const *= f.value
                continue
            if type(f) is Pow:
                base, exp = f.base, f.exp
            else:
                base, exp = f, 1
            if type(base) is Const and exp.denominator == 1 \
                    and (exp > 0 or base.value):  # 0^-k stays, as in pow_
                const *= _rat_pow(base.value, exp)
                continue
            powers[base] = powers.get(base, 0) + exp
    if const == 0:
        return ZERO
    out, again = [], False
    for base, exp in powers.items():
        if exp != 0:
            f = base if exp == 1 else pow_(base, exp)
            out.append(f)
            # pow_ may have folded, e.g. into constants or nested products,
            # and a power base raised to an integer is a power of its base
            if type(f) is Mul or type(f) is Const \
                    or type(base) is Pow and exp.denominator == 1:
                again = True
    if again:
        return mul(Const(const), *out)
    if not out:
        return Const(const)
    out.sort(key=Expr.sort_key)
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
    Symbol: lambda x: (),
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
    return _EMPTY if type(x) is Const or type(x) is Symbol else None


def _leaf(x: Expr) -> Optional[Expr]:
    """A leaf folds to itself; for use as the stop of a _fold."""
    return x if type(x) is Const or type(x) is Symbol else None


def _fold(e: Expr, visit: Callable, stop: Callable,
          memo: Optional[dict] = None):
    """Fold e bottom-up: the value of x is visit(x, values of its operands).

    Each distinct subtree (one node per value) is visited once, children
    before parents, in first-occurrence order, and memo (a new dict unless
    given) maps it to its value (None too) in that order.  stop(x) is asked
    first: anything but None is x's value, taken without descending into x
    or memoizing it.  This is the kernel's one recursive walk.
    """
    if memo is None:
        memo = {}

    def rec(x):
        out = stop(x)
        if out is None:
            out = memo.get(x, memo)
            if out is memo:
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
    Each distinct subtree is differentiated once per call.
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
        if t is Symbol:
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
        r = bindings.get(x) if type(x) is Symbol else None
        return _leaf(x) if r is None else as_expr(r)

    return _fold(e, _construct, stop)


def bind(e: Expr, values: Optional[Mapping[str, int | Fraction]]) -> Expr:
    """e with Const(v) for each parameter named in values (e if none is)."""
    if not values:
        return e
    return substitute(e, {Symbol(name, PARAM): Const(v)
                          for name, v in values.items()})


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
    """The distinct arbitrary-function applications in e, in sort order:
    the nodes of e itself, one per value."""
    return sorted(_fold(e, _applications, _nothing_at_leaf),
                  key=Expr.sort_key)


# How a base's exponents merge in a product of two monomials: a plain base
# or a sum adds them; a constant, product or power base folds (mul may turn
# it into a coefficient or other factors); a sin or cos adds them and marks
# a power >= 2, which a Pythagorean merge may need.
_PLAIN, _SUM, _FOLDS, _TRIG = range(4)
_UNIT = frozenset()  # the monomial of a constant term


class _Expansion:
    """The sparse polynomials of one expand call.

    A polynomial is the list of (monomial, rational coefficient) terms of
    a node, in the order they were collected.  A monomial is a power map:
    a frozenset of (base node, exponent) pairs.
    A product of two terms merges their power maps and builds no node,
    except where mul would do more than add exponents: then the two term
    nodes are multiplied with mul and its result collected as add collects
    it.  A collected sum with a sin or cos power >= 2 is merged as add
    merges it.
    """

    def __init__(self):
        self.kinds = {}       # base node -> _PLAIN, _SUM, _FOLDS or _TRIG
        self.squares = set()  # (base, exponent) of every sin/cos power >= 2
        self.monos = {}       # monomial -> its factor nodes, sorted

    def split(self, t: Expr):
        """(monomial, coefficient) of the term t, as add splits it."""
        if type(t) is Const:
            return _UNIT, t.value
        fs = t.factors if type(t) is Mul else (t,)
        coeff = 1
        if type(fs[0]) is Const:
            coeff, fs = fs[0].value, fs[1:]
        pairs = []
        for f in fs:
            b, x = (f.base, f.exp) if type(f) is Pow else (f, 1)
            kind = self.kinds.get(b)
            if kind is None:
                kind = self.kinds[b] = (
                    _SUM if type(b) is Add
                    else _FOLDS if type(b) in (Const, Mul, Pow)
                    else _TRIG if type(b) is Func and b.head in ("sin", "cos")
                    else _PLAIN)
            if kind == _TRIG and type(x) is int and x >= 2:
                self.squares.add((b, x))
            pairs.append((b, x))
        return frozenset(pairs), coeff

    def terms(self, x: Expr) -> list:
        """The polynomial of the node x: its terms as a parent meets them."""
        return [self.split(t) for t in (x.terms if type(x) is Add else (x,))]

    def monomial(self, key) -> tuple:
        fs = self.monos.get(key)
        if fs is None:
            fs = self.monos[key] = tuple(sorted(
                [b if x == 1 else Pow(b, x) for b, x in key],
                key=Expr.sort_key))
        return fs

    def term(self, key, coeff) -> Expr:
        """The node of coeff times the monomial key, as add builds it."""
        fs = self.monomial(key)
        if not fs:
            return Const(coeff)
        if coeff != 1:
            return Mul((Const(coeff),) + fs)
        return fs[0] if len(fs) == 1 else Mul(fs)

    def node(self, poly: list) -> Expr:
        terms = [self.term(k, c) for k, c in poly]
        if len(terms) < 2:
            return terms[0] if terms else ZERO
        terms.sort(key=Expr.sort_key)
        return Add(tuple(terms))

    def bare_sum(self, key, coeff) -> Optional[Add]:
        """The sum that coeff times the monomial key is, if it is one: mul
        and add return it bare, and a parent flattens it."""
        if coeff == 1 and len(key) == 1:
            (b, x), = key
            if x == 1 and self.kinds[b] == _SUM:
                return b
        return None

    def built(self, out: dict) -> list:
        """The polynomial of the node add builds from the collected out."""
        poly = [(k, c) for k, c in out.items() if c != 0]
        lone = self.bare_sum(*poly[0]) if len(poly) == 1 else None
        return poly if lone is None else self.terms(lone)

    def merged(self, out: dict) -> dict:
        """out after add's Pythagorean merge of its monomials, which only
        a term with a sin or cos power >= 2 can take part in."""
        squares = self.squares
        if not squares or all(c == 0 or squares.isdisjoint(k)
                              for k, c in out.items()):
            return out
        monos = {None if not k else self.term(k, 1): c
                 for k, c in out.items()}
        _pythagorean_merge(monos)
        out = {}
        for mono, c in monos.items():
            k = _UNIT if mono is None else self.split(mono)[0]
            out[k] = out.get(k, 0) + c
        return out

    def product(self, a: list, b: list) -> dict:
        """The terms of a times b, collected."""
        out = {}
        kinds, squares = self.kinds, self.squares
        for ka, ca in a:
            for kb, cb in b:
                c = ca * cb
                if not ka or not kb:
                    k = ka or kb
                else:
                    d = dict(ka)
                    for base, x in kb:
                        y = d.get(base)
                        if y is None:
                            d[base] = x
                            continue
                        s = x + y
                        if type(s) is not int:
                            s = _exact(s)
                        kind = kinds[base]
                        if kind == _FOLDS:
                            k = None
                            break
                        if kind == _TRIG and type(s) is int and s >= 2:
                            squares.add((base, s))
                        if s == 0:
                            d.pop(base)
                        else:
                            d[base] = s
                    else:
                        k = frozenset(d.items())
                if k is None or len(k) == 1 and self.bare_sum(k, c):
                    r = mul(self.term(ka, ca), self.term(kb, cb))
                    for k, c in self.terms(r):
                        out[k] = out.get(k, 0) + c
                    continue
                out[k] = out.get(k, 0) + c
        return out

    def times(self, a: list, b: list) -> list:
        """_distribute(a, b): add(*[mul(x, y) for x in a for y in b])."""
        if len(a) * len(b) > MAX_EXPANSION_TERMS:
            raise UnsupportedOperation(
                f"expansion exceeds {MAX_EXPANSION_TERMS} terms")
        return self.built(self.merged(self.product(a, b)))

    def plus(self, polys: list) -> list:
        """add of the nodes of polys."""
        out = {}
        for p in polys:
            for k, c in p:
                out[k] = out.get(k, 0) + c
        return self.built(self.merged(out))

    def visit(self, x: Expr, kids: list) -> list:
        """The fold's value of x: the polynomial of its expansion."""
        t = type(x)
        if t is Add:
            return self.plus(kids)
        if t is Mul:
            out = [(_UNIT, 1)]
            for k in kids:
                out = self.times(out, k)
            return out
        if t is Pow and type(x.exp) is int and 2 <= x.exp <= 4 \
                and len(kids[0]) > 1:
            out = kids[0]
            for _ in range(x.exp - 1):
                out = self.times(out, kids[0])
            return out
        if t is Const:
            return [(_UNIT, x.value)] if x.value != 0 else []
        if t is Symbol:
            return self.terms(x)
        return self.terms(_construct(x, [self.node(k) for k in kids]))


def expand(e: Expr, bindings: Optional[Mapping[Symbol, Expr]] = None,
           clear: Optional[Symbol] = None) -> Expr:
    """e with products distributed over sums, and powers 2 to 4 of sums.

    One fold whose value is a sparse polynomial (_Expansion): a product of
    two polynomials merges the power maps of their terms, and the canonical
    sum is built once, at the end.  The trees are those of the pairwise
    fold over nodes, which builds add(*[mul(x, y) ...]) for every product
    of two operands: where mul and add would do more than add exponents
    (a constant, product or power base shared by both terms, a bare sum,
    a Pythagorean pair), the polynomial does what they do.  A power of a
    sum other than 2, 3 or 4 is kept as a power.

    bindings, a map from symbols to values, is applied at the leaves: a
    bound symbol is the polynomial of its value's expansion.  The result
    equals expand(substitute(e, bindings)) in value, and has its tree
    wherever substitution neither merges operands of e nor reorders the
    factors of a product whose partial products hold Pythagorean pairs
    (which pairs a partial sum holds depends on which factors came
    first), as in the covariant lift.  Given the symbol clear, every term
    is multiplied by clear^kappa, kappa the least power that leaves no
    term with a negative power of clear, before any node is built.

    Raises UnsupportedOperation before a product of polynomials whose term
    counts multiply to more than MAX_EXPANSION_TERMS.
    """
    poly = _Expansion()
    values = {}  # bound symbol -> the polynomial of its value

    def stop(x):
        if type(x) is not Symbol or not bindings or x not in bindings:
            return None
        got = values.get(x)
        if got is None:
            got = values[x] = _fold(as_expr(bindings[x]), poly.visit,
                                    lambda y: None)
        return got

    out = _fold(e, poly.visit, stop)
    if clear in poly.kinds:
        kappa = -min([0] + [sum([int(x) for b, x in k if b is clear])
                            for k, _ in out])
        if kappa:
            out = poly.times([(frozenset(((clear, kappa),)), 1)], out)
    return poly.node(out)


def _terms_at(x: Expr, kids) -> int:
    cap = MAX_EXPANSION_TERMS + 1
    if type(x) is Add:
        return min(sum(kids), cap)
    if type(x) is Mul:
        return min(math.prod(kids), cap)
    if type(x) is Pow and x.exp.denominator == 1 and 2 <= x.exp <= 4:
        return min(kids[0] ** int(x.exp), cap)
    return 1 if max(kids, default=1) < cap else cap


def expansion_terms(e: Expr) -> int:
    """At least the terms of expand(e), counted without expanding (n sums of
    m terms multiplied count m^n); MAX_EXPANSION_TERMS + 1 once e or a node
    inside it counts more than MAX_EXPANSION_TERMS."""
    return _fold(e, _terms_at, lambda x: None if _leaf(x) is None else 1)


def _denominators_at(x: Expr) -> Optional[frozenset]:
    """The stop of denominator_symbols: a leaf has none, and a negative
    power has its base's symbols, which hold every denominator inside."""
    if type(x) is Pow and x.exp < 0:
        return x.base.free_symbols()
    return _nothing_at_leaf(x)


def denominator_symbols(e: Expr) -> frozenset:
    """Symbols occurring inside the base of any negative-exponent power.

    Kept on e after its evaluators (e._fns[2]), so a node the oracle
    samples again is not folded again.
    """
    fns = _evaluators(e)
    if len(fns) == 2:
        fns.append(_fold(e, lambda x, kids: _union(kids), _denominators_at))
    return fns[2]


def _degree_at(x: Expr, kids):
    if None in kids or type(x) is Add and len(set(kids)) > 1:
        return None
    if type(x) is Mul:
        return _exact(sum(kids))
    if type(x) is Pow:
        return _exact(kids[0] * x.exp)
    return kids[0] if type(x) is Add else None if any(kids) else 0


def degree(e: Expr, symbols: Iterable) -> Optional[int | Fraction]:
    """The degree of e in symbols, read from its tree, or None.

    One of symbols has degree 1 and any other leaf 0; a product adds its
    factors' degrees, a power multiplies its base's by the exponent, a sum
    has its terms' common degree, and f(g) has degree 0 if g has, since
    D f(g) = f'(g) D g.  Other sums and functions give e none."""
    symbols = frozenset(symbols)

    def stop(x):
        if type(x) is Symbol:
            return 1 if x in symbols else 0
        return 0 if type(x) is Const else None

    return _fold(e, _degree_at, stop)


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
    """The source text of a rational constant: its rendering, in parens."""
    return f"({_render_const(v)})"


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


def _codegen(e: Expr, wrt: Optional[tuple] = None) -> tuple:
    """(source, values): a flat function `f(a, k0, k1, ...)` evaluating e,
    one local per subtree, and the values of its parameters k<i>.

    Each distinct subtree has one local, assigned in first-occurrence
    post-order, which is the order a nested expression would evaluate them
    in.  The source depends only on e's shape: each symbol name (a[k0]) and
    each rational constant, a power's exponent included, is a parameter,
    one per distinct value, keyed by its literal text (hashing a Fraction
    costs more than the text).  A parameter's value is the float that the
    constant's literal folds to, n/d for a non-integral rational and the
    int itself otherwise, so every float is the one the literal gives; a
    rational whose float overflows stays an inline literal, so that it
    raises where the evaluator runs, like any other overflow.  This is the
    one place that decides what a singular point is: the body runs inside
    one `try`, and an OverflowError or ValueError (math.sin(inf)), like a
    result that is not finite, raises SingularEvaluation (bound as `S`).
    Given a tuple of symbols wrt, a reverse sweep (_adjoints) along them
    follows in the same `try`, and f returns [e, de/ds for s in wrt], each
    held to the same rule.
    """
    refs = {}  # subtree -> local name, the memo of the fold
    params = {}  # literal text -> parameter name, or the literal itself
    values = []
    lines = [" try:"]

    def param(text: str, value) -> str:
        name = params.get(text)
        if name is None:
            name = params[text] = f"k{len(values)}"
            values.append(value)
        return name

    def const(v: int | Fraction) -> str:
        text = _literal(v)
        name = params.get(text)
        if name is None:
            try:
                name = param(text, v.numerator if v.denominator == 1
                             else v.numerator / v.denominator)
            except OverflowError:
                name = params[text] = text
        return name

    def stop(x):
        if type(x) is Const:
            return const(x.value)
        if type(x) is Applied:
            raise UnboundSymbol(
                f"cannot numerically evaluate arbitrary-function head {x.head!r}"
            )
        return None

    def visit(x, kids):
        t = type(x)
        if t is Symbol:
            src = f"a[{param(repr(x.name), x.name)}]"
        elif t is Add:
            src = _join("+", kids, lines)
        elif t is Mul:
            src = _join("*", kids, lines)
        elif t is Pow:
            src = (f"P({kids[0]},{const(x.exp.numerator)},"
                   f"{const(x.exp.denominator)})")
        else:
            src = f"F[{x.head!r}]({kids[0]})"
        ref = f"t{len(refs)}"
        lines.append(f"  {ref}={src}")
        return ref

    lines.append(f"  r={_fold(e, visit, stop, refs)}+0.0")
    out = ["r"]
    if wrt:  # a tuple of e's symbols, so e is not a Const
        adjoint = _adjoints(refs, frozenset(wrt), lines, const)
        out += [adjoint[s] for s in wrt]
    lines += [
        " except (OverflowError, ValueError) as x:",
        "  raise S(str(x)) from None",
        # inf - inf and nan - nan are nan, which is truthy
        " if " + " or ".join([f"{v}-{v}" for v in out]) + ":",
        "  raise S('non-finite value')",
        " return r" if wrt is None else f" return [{','.join(out)}]",
    ]
    head = "".join([f",k{i}" for i in range(len(values))])
    return "\n".join([f"def f(a{head}):"] + lines), tuple(values)


def _adjoints(refs: dict, wrt: frozenset, lines: list,
              const: Callable) -> dict:
    """Append the reverse sweep over the forward locals; {symbol: its partial}.

    The subtree in local t<i> gets the adjoint d<i> = d(root)/d(subtree),
    1.0 at the root (the last local).  Locals are visited in reverse, so
    every parent has added its term before a child's sum is emitted; only
    subtrees that depend on a symbol of wrt get one.  An adjoint whose one
    term is a bare name or 1.0 (a sole parent that is a sum, or the root)
    is not copied: the subtree reuses that name.  const(v) is the source
    of a rational v, as _codegen's forward sweep writes it: a constant
    operand, and a power's exponent in d*exp*P(base, exp - 1), are
    parameters of the same function.
    """
    def src(x):
        return const(x.value) if isinstance(x, Const) else refs[x]

    nodes = list(refs)
    terms = {nodes[-1]: ["1.0"]}
    out = {}
    for x in reversed(nodes):
        parts = terms.pop(x, None)
        if parts is None:
            continue
        if len(parts) == 1 and (parts[0] == "1.0" or parts[0].isidentifier()):
            d = parts[0]
        else:
            d = "d" + refs[x][1:]
            lines.append(f"  {d}={_join('+', parts, lines)}")
        if isinstance(x, Symbol):
            out[x] = d
            continue
        if isinstance(x, Add):
            kids = [(t, d) for t in x.terms]
        elif isinstance(x, Mul):
            fs = x.factors
            kids = [(f, "*".join([d] + [src(g) for g in fs[:i] + fs[i + 1:]]))
                    for i, f in enumerate(fs)]
        elif isinstance(x, Pow):
            n, m = x.exp.numerator - x.exp.denominator, x.exp.denominator
            pw = src(x.base) if (n, m) == (1, 1) \
                else f"P({src(x.base)},{const(n)},{const(m)})"
            kids = [(x.base, f"{d}*{const(x.exp)}*{pw}")]
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

    A source depends only on its expression's shape (_codegen), so every
    node of one shape shares one code object, whatever its constants and
    symbol names.  The memo keeps src as its key, so the text is dropped
    here: the memo holds the 32-byte digest, not the source.
    """
    code = compile(src.text, "<string>", "exec")
    src.text = None
    return code


def _compile(generated: tuple):
    """The function of a (source, values) pair from _codegen: the shared
    code object, with the values bound as its parameters' defaults."""
    src, values = generated
    env = {
        "P": _num_pow,
        "F": {"exp": _num_exp, "log": _num_log, "sin": math.sin, "cos": math.cos},
        "S": SingularEvaluation,
    }
    exec(_code(_Source(src)), env)  # noqa: S102 - generated from our own AST
    # popped, so the evaluator does not hold itself through its globals
    f = env.pop("f")
    f.__defaults__ = values
    return f


def compile_numeric(e: Expr):
    """Compile e to a fast evaluator mapping {symbol name: float} -> float.

    The generated function is flat: each distinct subtree is computed once
    into a local, in the order and with the operations a nested expression
    would use, so it returns the same float (or raises at the same
    operation) and has no nesting limit of its own.  Every finite float
    it returns is the one that nested evaluation gives; a point where
    evaluation overflows, leaves the domain or ends non-finite raises
    SingularEvaluation instead.  The evaluator is kept on the node itself,
    so it lives exactly as long as the node does, and since a value has
    one node, every place that builds the value shares it.  Expressions
    of the same shape, which may differ in their rational constants and
    symbol names, generate the same source, whose code object comes from
    a bounded memo (_code, CODE_MEMO_SIZE sources, keyed by each source's
    SHA-256 digest, so no source text is kept); each node still gets its
    own function, made from that code object in fresh globals, with its
    own constants and names bound as the function's defaults.
    """
    fns = _evaluators(e)
    if fns[0] is None:
        fns[0] = _compile(_codegen(e))
    return fns[0]


def _evaluators(e: Expr) -> list:
    """e's evaluator cache, [value, gradient] (None until compiled)."""
    fns = e._fns
    if fns is None:
        fns = [None, None]
        _set(e, "_fns", fns)
    return fns


def compile_gradient(e: Expr, wrt: Optional[Iterable] = None):
    """(symbols, g): the symbols the gradient is taken along, by name, and g.

    g(a) returns [e(a)] + [de/ds(a) for s in symbols] from one call: the
    forward sweep of compile_numeric(e), so g(a)[0] is bit-identical to
    compile_numeric(e)(a), then a reverse sweep that gives an adjoint only
    to the subtrees depending on symbols.  Every value g returns is held
    to compile_numeric's singular-point rule, and g shares its code object
    with every gradient of the same shape along the same slots, as
    compile_numeric's evaluator does.

    wrt requests the symbols to take the gradient along, of which those
    free in e are taken (other items, such as None, are ignored); by
    default all of e's free symbols.  The gradient is kept on the node, like
    compile_numeric's evaluator, so it serves every place that builds the
    value, and it serves any later request it covers;
    a request it does not cover compiles along the union of both, so
    symbols may hold more than was asked for.  Each slot is bit-identical
    to the same slot of the gradient along all free symbols: a subtree
    that depends on a requested symbol sums the same parent terms in the
    same order.
    """
    free = e.free_symbols()
    want = free if wrt is None else free.intersection(wrt)
    fns = _evaluators(e)
    kept = fns[1]
    if kept is None or not want.issubset(kept[0]):
        if kept is not None:
            want = want.union(kept[0])
        symbols = tuple(sorted(want, key=lambda s: (s.name, s.kind)))
        fns[1] = (symbols, _compile(_codegen(e, symbols)))
    return fns[1]


# ---------------------------------------------------------------------------
# Rendering


def _render_const(v: int | Fraction) -> str:
    """The text n or n/d of a rational, for rendering and for codegen."""
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _needs_parens_in_mul(x: Expr) -> bool:
    return isinstance(x, Add) or (isinstance(x, Const) and (x.value < 0 or x.value.denominator != 1))


def _render_power(x: Pow) -> str:
    base = x.base
    bs = render(base)
    if not isinstance(base, (Symbol, Func, Applied)):
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
    if isinstance(e, Symbol):
        return e.name
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


_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit takes "²"


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
        while i < len(t) and t[i] in _DIGITS:
            i += 1
        if i < len(t) and t[i] == ".":
            i += 1
            while i < len(t) and t[i] in _DIGITS:
                i += 1
        if i == start:
            raise ParseError("expected number", start)
        if i - start > _SHORT_DIGITS \
                and i - start - ("." in t[start:i]) > _digit_limit():
            raise ParseError(f"constant exceeds {_digit_limit()} digits",
                             start)
        self.pos = i
        return Fraction(t[start:i])


# Input limits: deeper nesting would exhaust the interpreter's stack in the
# recursive parser, constructors and tree walks (compile_numeric emits flat
# code, so it has no parenthesis limit); larger exponents build floats that
# overflow; the oracle expands no residual beyond MAX_EXPANSION_TERMS, as a
# product of sums grows exponentially when expanded.  A constant has at
# most _digit_limit() digits in its numerator and its denominator
# (_check_digits, where a Const is made), so that it can be printed and
# compiled.
MAX_NESTING = 32
MAX_EXPONENT = 1000
MAX_EXPANSION_TERMS = 10_000


def _check_power(base: Expr, exp: int | Fraction, pos: int) -> None:
    """Refuse base^exp if its exponent is too large or it divides by zero."""
    if abs(exp.numerator) > MAX_EXPONENT:
        raise ParseError(f"exponent numerator exceeds {MAX_EXPONENT}", pos)
    if isinstance(base, Const) and exp < 0 and base.value == 0:
        raise ParseError("division by zero", pos)


class _Parser:
    def __init__(self, text: str, context):
        self.tok = _Tokenizer(text)
        self.context = context
        self.depth = 0

    def parse(self) -> Expr:
        try:
            e = self.expr()
        except UnsupportedOperation as err:  # a constant too long
            raise ParseError(str(err), self.tok.pos) from None
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
        if c in _DIGITS:
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
            return self.context.resolve(name)
        except KeyError:
            raise UnknownIdentifier(f"unknown identifier {name!r}", start) from None


def parse(text: str, context) -> Expr:
    """Parse `text` in the ASCII grammar, resolving identifiers in `context`.

    `context` must provide resolve(name) -> Symbol (raising KeyError for
    unknown names); JetSpace implements this.
    """
    return _Parser(text, context).parse()
