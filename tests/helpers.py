"""Helpers that only the tests use: point evaluation, numeric equality, a
catalog entry's frames, a count of realization gates, the so3 worked
example's jet spaces, the perturbed invariants of the negative controls,
a reference second prolongation, reference sum and product
constructors, the reference expansion and covariant lift, the reference
reverse sweep of the compiled gradient, and the evaluator source with
inline literals."""

from fractions import Fraction
from functools import reduce
from typing import List, Mapping, Optional

from lieinv import covariant as cov
from lieinv import expr as ex
from lieinv import jet
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.errors import SingularEvaluation, UnboundSymbol
from lieinv.fixtures import SO3_COORDS
from lieinv.jet import JetSpace, VectorField
from lieinv.liealg import AlgebraCatalogEntry, build_invariant_fields


def eval_numeric(e: ex.Expr, assignment: Mapping) -> float:
    """Deterministic IEEE-double evaluation of e at the given point.

    `assignment` maps Symbol (or symbol name) to a real number.  Raises
    UnboundSymbol / SingularEvaluation with the offending item.
    """
    values = {}
    for k, v in assignment.items():
        values[k.name if isinstance(k, ex.Symbol) else k] = float(v)
    missing = [s.name for s in e.free_symbols() if s.name not in values]
    if missing:
        raise UnboundSymbol(f"unbound symbols: {sorted(missing)}")
    try:
        return ex.compile_numeric(e)(values)
    except SingularEvaluation as exc:
        raise SingularEvaluation(
            f"{exc} while evaluating {ex.render(e)}") from None


def exprs_equal(a: ex.Expr, b: ex.Expr,
                cfg: nm.SamplerConfig = nm.SamplerConfig(),
                params: Optional[Mapping] = None) -> bool:
    """Numeric equality a == b via is_zero(a - b) with shared denominator info."""
    denoms = ex.denominator_symbols(a) | ex.denominator_symbols(b)
    return nm.is_zero(ex.bind(a - b, params), cfg, extra_denoms=denoms)


def fields(entry: AlgebraCatalogEntry, space: Optional[JetSpace] = None):
    """The gated frames (xi, eta) of a catalog entry, on its split space by
    default, under the default sampler configuration."""
    return build_invariant_fields(
        entry.sc, entry.split_space() if space is None else space)


def count_gates(monkeypatch) -> list:
    """Empty the gated-frame memo; from now on, the arguments of every run
    of the realization gate are appended to the returned list."""
    liealg._gated_frames.cache_clear()
    calls = []
    gate = liealg.verify_realization

    def counted(*args, **kwargs):
        calls.append(args)
        return gate(*args, **kwargs)

    monkeypatch.setattr(liealg, "verify_realization", counted)
    return calls


def so3_split_space() -> JetSpace:
    return JetSpace(("x", "y"), "u")


def so3_z_space() -> JetSpace:
    return JetSpace(SO3_COORDS, "w")


def perturbed_variants(e: ex.Expr, space: JetSpace, count: int = 3) -> List[ex.Expr]:
    """Mutations of an invariant that must fail annihilation.

    When the expression is a sum, one additive term's coefficient is bumped
    by ~10%, which breaks the cancellations the invariance relies on.  For a
    single-term invariant a uniform rescale is still invariant, so a small
    multiple of a base coordinate is added instead.
    """
    out = []
    coeffs = [Fraction(11, 10), Fraction(9, 10), Fraction(12, 10)]
    add_coeffs = [Fraction(1, 10), Fraction(1, 7), Fraction(1, 13)]
    terms = list(e.terms) if isinstance(e, ex.Add) else [e]
    coords = list(space.coords)
    for k in range(count):
        if len(terms) >= 2:
            idx = k % len(terms)
            bumped = [ex.mul(ex.Const(coeffs[k % len(coeffs)]), t)
                      if i == idx else t for i, t in enumerate(terms)]
            out.append(ex.add(*bumped))
        else:
            c = coords[k % len(coords)]
            out.append(ex.add(e, ex.mul(ex.Const(add_coeffs[k % len(add_coeffs)]),
                                        ex.Sym(space.base(c)))))
    return out


def reference_prolongation(field: VectorField, theta: ex.Expr) -> list:
    """The (symbol, coefficient) pairs of the second prolongation, built
    with a total_derivative call at every use of D_a xi^b."""
    space = field.space
    given = dict(field.components)
    xi = {c: given.get(c, ex.ZERO) for c in space.coords}
    coeffs = {space.jet(): theta}
    phi1 = {}
    for a in space.coords:
        terms = [jet.total_derivative(theta, a, space)]
        for b in space.coords:
            terms.append(ex.mul(ex.Const(-1), ex.Sym(space.jet(b)),
                                jet.total_derivative(xi[b], a, space)))
        phi1[a] = ex.add(*terms)
        coeffs[space.base(a)] = xi[a]
        coeffs[space.jet(a)] = phi1[a]
    for i, a in enumerate(space.coords):
        for b in space.coords[i:]:
            terms = [jet.total_derivative(phi1[a], b, space)]
            for c in space.coords:
                terms.append(ex.mul(ex.Const(-1), ex.Sym(space.jet(a, c)),
                                    jet.total_derivative(xi[c], b, space)))
            coeffs[space.jet(a, b)] = ex.add(*terms)
    return list(coeffs.items())


# ---------------------------------------------------------------------------
# Reference sum and product constructors: add and mul with like terms and
# like bases collected under their sort keys, Pythagorean pairs merged in
# sort-key order, and a power base raised to an integer collected again.
# They pin the canonical forms that the node-keyed constructors must give.


def reference_split_coeff(term: ex.Expr):
    """Split a canonical term into (rational coefficient, monomial or None)."""
    if isinstance(term, ex.Const):
        return term.value, None
    if isinstance(term, ex.Mul):
        first = term.factors[0]
        if isinstance(first, ex.Const):
            rest = term.factors[1:]
            mono = rest[0] if len(rest) == 1 else ex.Mul(rest)
            return first.value, mono
    return 1, term


def reference_pythagorean_merge(monos: dict):
    """In-place merge of matching c*f*sin(a)^2 and c*f*cos(a)^2 terms.

    `monos` maps sort-key -> [monomial-or-None, coefficient].  The
    monomials are walked in sort-key order: each round merges the first
    cos monomial that has a partner with the first of its sin partners.
    """
    while True:
        live = sorted(key for key, (mono, coeff) in monos.items()
                      if mono is not None and coeff != 0)
        sin_index = {}  # (arg key, cofactor key, coeff) -> sin key
        for key in live:
            mono, coeff = monos[key]
            for arg, rest in ex._trig_square_candidates(mono, "sin"):
                rk = None if rest is None else rest.sort_key()
                sin_index[(arg.sort_key(), rk, coeff)] = key
        hits = []
        for key in live:
            mono, coeff = monos[key]
            for arg, rest in ex._trig_square_candidates(mono, "cos"):
                rk = None if rest is None else rest.sort_key()
                skey = sin_index.get((arg.sort_key(), rk, coeff))
                if skey is not None:
                    hits.append((skey, rest, coeff))
            if hits:
                break
        if not hits:
            return
        skey, rest, coeff = min(hits, key=lambda h: h[0])
        monos[skey][1] = 0
        monos[key][1] = 0
        tgt = None if rest is None else rest.sort_key()
        if tgt in monos:
            monos[tgt][1] += coeff
        else:
            monos[tgt] = [rest, coeff]


def reference_add(*terms) -> ex.Expr:
    flat = []
    for t in terms:
        t = ex.as_expr(t)
        if isinstance(t, ex.Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    monos = {}
    for t in flat:
        coeff, mono = reference_split_coeff(t)
        key = None if mono is None else mono.sort_key()
        if key in monos:
            monos[key][1] += coeff
        else:
            monos[key] = [mono, coeff]
    reference_pythagorean_merge(monos)
    out = []
    for mono, coeff in monos.values():
        if coeff == 0:
            continue
        if mono is None:
            out.append(ex.Const(coeff))
        elif coeff == 1:
            out.append(mono)
        else:
            out.append(reference_mul(ex.Const(coeff), mono))
    if not out:
        return ex.ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda t: t.sort_key())
    return ex.Add(tuple(out))


def reference_mul(*factors) -> ex.Expr:
    flat = []
    for f in factors:
        f = ex.as_expr(f)
        if isinstance(f, ex.Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    const = 1
    powers = {}  # base key -> [base, exponent]
    order = []
    for f in flat:
        if isinstance(f, ex.Const):
            const *= f.value
            continue
        if isinstance(f, ex.Pow):
            base, exp = f.base, f.exp
        else:
            base, exp = f, 1
        # 0^-k stays a singular power, as in pow_
        if isinstance(base, ex.Const) and exp.denominator == 1 \
                and (exp > 0 or base.value != 0):
            const *= ex._rat_pow(base.value, exp)
            continue
        key = base.sort_key()
        if key in powers:
            powers[key][1] += exp
        else:
            powers[key] = [base, exp]
            order.append(key)
    if const == 0:
        return ex.ZERO
    out = []
    for key in order:
        base, exp = powers[key]
        if exp == 0:
            continue
        out.append(base if exp == 1 else ex.pow_(base, exp))
    # pow_ may have folded, e.g. into constants or nested products, and a
    # power base raised to an integer is a power of its own base, which
    # may be collected already
    if any(isinstance(f, (ex.Mul, ex.Const)) for f in out) or any(
            isinstance(base, ex.Pow) and exp != 0 and exp.denominator == 1
            for base, exp in powers.values()):
        return reference_mul(ex.Const(const), *out)
    if not out:
        return ex.Const(const)
    out.sort(key=lambda f: f.sort_key())
    if const == 1 and len(out) == 1:
        return out[0]
    if const != 1:
        out.insert(0, ex.Const(const))
    if len(out) == 1:
        return out[0]
    return ex.Mul(tuple(out))


def use_reference_constructors(monkeypatch) -> None:
    """Make the kernel build every sum and product with the reference
    constructors, its own internal calls included."""
    monkeypatch.setattr(ex, "add", reference_add)
    monkeypatch.setattr(ex, "mul", reference_mul)


def structure(e: ex.Expr) -> tuple:
    """e as nested tuples of node types and fields, exact types included."""
    t = type(e)
    if t is ex.Const:
        return ("Const", type(e.value), e.value)
    if t is ex.Symbol:
        return ("Symbol", e.name, e.kind, e.dep, e.index)
    if t is ex.Pow:
        return ("Pow", structure(e.base), type(e.exp), e.exp)
    if t is ex.Func:
        return ("Func", e.head, structure(e.arg))
    if t is ex.Applied:
        return ("Applied", e.head, tuple(structure(a) for a in e.args))
    return (t.__name__, tuple(structure(k) for k in
                              (e.terms if t is ex.Add else e.factors)))


# ---------------------------------------------------------------------------
# Reference expansion and covariant lift: expand as a pairwise fold over
# nodes, which builds a canonical sum after every product of two operands,
# and the lift as substitute, expand, then every term times w_n^kappa.
# They pin the trees that the sparse-polynomial expansion must give.


def _reference_distribute(a: ex.Expr, b: ex.Expr) -> ex.Expr:
    aterms = a.terms if isinstance(a, ex.Add) else (a,)
    bterms = b.terms if isinstance(b, ex.Add) else (b,)
    return ex.add(*[ex.mul(x, y) for x in aterms for y in bterms])


def _reference_expanded(x: ex.Expr, kids) -> ex.Expr:
    if type(x) is ex.Mul:
        return reduce(_reference_distribute, kids, ex.ONE)
    if (type(x) is ex.Pow and type(kids[0]) is ex.Add
            and x.exp.denominator == 1 and 2 <= x.exp <= 4):
        return reduce(_reference_distribute, [kids[0]] * (x.exp - 1), kids[0])
    return ex._construct(x, kids)


def reference_expand(e: ex.Expr) -> ex.Expr:
    """Distribute products over sums (and powers 2-4 of sums), one pair of
    operands at a time."""
    return ex._fold(e, _reference_expanded, ex._leaf)


def _reference_min_exponent(e: ex.Expr, s: ex.Symbol) -> int:
    """Smallest exponent of s across the additive terms of an expanded expr."""
    lo = 0
    for t in e.terms if isinstance(e, ex.Add) else (e,):
        exp = 0
        for f in t.factors if isinstance(t, ex.Mul) else (t,):
            if isinstance(f, ex.Pow) and f.base == s:
                exp += int(f.exp)
            elif f == s:
                exp += 1
        lo = min(lo, exp)
    return lo


def reference_lift(pde, wspace: JetSpace) -> ex.Expr:
    """covariant.lift as substitute, reference_expand, then each term of
    the expansion times w_n^kappa."""
    dep = pde.space.dep
    subs = {**cov.implicit_first(wspace, dep),
            **cov.implicit_second(wspace, dep)}
    subs[pde.space.jet()] = ex.Sym(wspace.base(dep))
    expanded = reference_expand(ex.substitute(pde.lhs, subs))
    wn = wspace.jet(dep)
    wn_kappa = ex.pow_(ex.Sym(wn), -_reference_min_exponent(expanded, wn))
    terms = expanded.terms if isinstance(expanded, ex.Add) else (expanded,)
    return ex.add(*[ex.mul(wn_kappa, t) for t in terms])


def reference_adjoints(refs: dict, wrt: frozenset, lines: list,
                       const) -> dict:
    """expr._adjoints as it was before adjoints were shared: every subtree
    that depends on wrt gets its own local d<i>, a copy where its one term
    is a bare name or 1.0.  const(v) is the source of a rational v."""
    def src(x):
        return const(x.value) if isinstance(x, ex.Const) else refs[x]

    nodes = list(refs)
    terms = {nodes[-1]: ["1.0"]}
    out = {}
    for x in reversed(nodes):
        parts = terms.pop(x, None)
        if parts is None:
            continue
        d = "d" + refs[x][1:]
        lines.append(f"  {d}={ex._join('+', parts, lines)}")
        if isinstance(x, ex.Symbol):
            out[x] = d
            continue
        if isinstance(x, ex.Add):
            kids = [(t, d) for t in x.terms]
        elif isinstance(x, ex.Mul):
            fs = x.factors
            kids = [(f, "*".join([d] + [src(g) for g in fs[:i] + fs[i + 1:]]))
                    for i, f in enumerate(fs)]
        elif isinstance(x, ex.Pow):
            n, m = x.exp.numerator - x.exp.denominator, x.exp.denominator
            pw = src(x.base) if (n, m) == (1, 1) \
                else f"P({src(x.base)},{n},{m})"
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


def reference_codegen(e: ex.Expr, wrt: Optional[tuple] = None) -> str:
    """expr._codegen as it was before constants and symbol names became
    parameters: the source of `f(a)` with every rational an inline literal
    and every symbol read as a['name'], so it depends on them; the reverse
    sweep is expr._adjoints with the same literals."""
    refs = {}
    lines = ["def f(a):", " try:"]

    def stop(x):
        if type(x) is ex.Const:
            return ex._literal(x.value)
        if type(x) is ex.Applied:
            raise UnboundSymbol(
                f"cannot numerically evaluate arbitrary-function head {x.head!r}"
            )
        return None

    def visit(x, kids):
        t = type(x)
        if t is ex.Symbol:
            src = f"a[{x.name!r}]"
        elif t is ex.Add:
            src = ex._join("+", kids, lines)
        elif t is ex.Mul:
            src = ex._join("*", kids, lines)
        elif t is ex.Pow:
            src = f"P({kids[0]},{x.exp.numerator},{x.exp.denominator})"
        else:
            src = f"F[{x.head!r}]({kids[0]})"
        ref = f"t{len(refs)}"
        lines.append(f"  {ref}={src}")
        return ref

    lines.append(f"  r={ex._fold(e, visit, stop, refs)}+0.0")
    out = ["r"]
    if wrt:
        adjoint = ex._adjoints(refs, frozenset(wrt), lines, ex._literal)
        out += [adjoint[s] for s in wrt]
    lines += [
        " except (OverflowError, ValueError) as x:",
        "  raise S(str(x)) from None",
        " if " + " or ".join([f"{v}-{v}" for v in out]) + ":",
        "  raise S('non-finite value')",
        " return r" if wrt is None else f" return [{','.join(out)}]",
    ]
    return "\n".join(lines)
