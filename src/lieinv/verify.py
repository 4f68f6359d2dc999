"""Verification suite: annihilation checks, equivalence gates, table reports.

run_fixture_suite re-derives every requested table row from structure
constants alone and holds the result against the transcribed fixtures:

  * fixture self-test - every transcribed invariant is annihilated by the
    prolonged generators (catches transcription typos);
  * generated pipeline run - annihilation and functional-rank gates inside
    the pipeline itself;
  * equivalence - functional_rank(generated) = rank(fixture) =
    rank(generated + fixture);
  * template soundness - random polynomial instantiations of the
    arbitrary-function slots are annihilated.  The slots become leaves of
    one compiled gradient per template, and the chain rule through the
    invariants' own gradients gives every binding's float residual; a
    binding over tol at some point is decided by annihilation_check on the
    symbolically instantiated template.

Reports serialize deterministically (sorted keys) to JSON, CSV, and a plain
text table; overall exit status is 0 iff every row passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence

from . import expr as ex
from . import fixtures as fx
from . import liealg
from . import numeric as nm
from .errors import LieInvError
from .invariants import (
    PDETemplate,
    instantiate_template,
    type1_pipeline,
    type2_pipeline,
)
from .jet import JetSpace, ProlongedField

# random instantiations of the arbitrary-function slots per template check
TEMPLATE_DRAWS = 5
TEMPLATE_SEED = 1
# a drawn slot binding reads only its slot's first SLOT_ARGS_READ arguments
SLOT_ARGS_READ = 3


def annihilation_check(fields: Sequence[ProlongedField], e: ex.Expr,
                       cfg: nm.SamplerConfig = nm.SamplerConfig(),
                       params: Optional[Mapping] = None) -> bool:
    """True iff every prolonged generator annihilates e (randomized)."""
    return nm.first_non_annihilating(fields, e, cfg, params) is None


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


@dataclass(frozen=True)
class SlotBinding:
    """A random choice a(I) = c0 + c1 I_1 + c2 I_2 + c3 I_3 (+ I_1^2) for a slot.

    Only the first SLOT_ARGS_READ arguments get a coefficient, and sq adds
    the square of the first.  Called on expressions it builds the symbolic
    a(args); at(values) gives the float a(I) and its partials from the same
    record.
    """

    consts: tuple  # c0, then one coefficient per argument read
    sq: bool

    def __call__(self, *args: ex.Expr) -> ex.Expr:
        total = ex.Const(self.consts[0])
        for coeff, a in zip(self.consts[1:], args):
            total = ex.add(total, ex.mul(ex.Const(coeff), a))
        if self.sq and args:
            total = ex.add(total, ex.pow_(args[0], 2))
        return total

    def at(self, values: Sequence[float]) -> tuple:
        """(a(I), [da/dI_j]) at I = values, the first SLOT_ARGS_READ of them."""
        value = self.consts[0]
        partials = list(self.consts[1:len(values) + 1])
        for coeff, x in zip(self.consts[1:], values):
            value += coeff * x
        if self.sq and values:
            value += values[0] ** 2
            partials[0] += 2 * values[0]
        return value, partials


def _draw_bindings(heads: Sequence[str], rng: random.Random
                   ) -> Dict[str, SlotBinding]:
    """One SlotBinding per head, drawn in head order from rng."""
    return {head: SlotBinding(tuple(rng.randint(-3, 3)
                                    for _ in range(SLOT_ARGS_READ + 1)),
                              rng.randrange(4) == 0)
            for head in heads}


def _draws_over_tol(template: PDETemplate, fields: Sequence[ProlongedField],
                    draws: Sequence[Mapping[str, SlotBinding]],
                    cfg: nm.SamplerConfig,
                    params: Optional[Mapping]) -> List[int]:
    """Indices of the draws whose float residual X lhs exceeds tol somewhere.

    Each slot application a(I) in the lhs becomes a leaf A, giving L, whose
    gradient is compiled once.  With the slots bound, the chain rule gives

        X lhs = X L + sum_A dL/dA * sum_j da/dI_j * X' I_j,

    where X L holds every A fixed and X' is X without its zeroth-order
    part.  I_j and dI_j/ds come from each argument's own compiled gradient
    and the coefficients from compile_numeric, evaluated once per point for
    all draws.  Points cover the symbols of L (not its leaves), of the
    arguments read and of the coefficients used.
    """
    apps = ex.applications(template.lhs)
    leaf = {x: ex.Symbol(f"{x.head}#{i}") for i, x in enumerate(apps)}
    lhs = ex.substitute_heads(template.lhs, {
        x.head: (lambda *args, _h=x.head: ex.Sym(leaf[ex.applied(_h, args)]))
        for x in apps})
    read = {}  # argument node -> its index among the arguments read
    slots = []  # (head, leaf name, its column in L's gradient, argument indices)
    grads = [ex.compile_gradient(lhs)]
    cols = [{s: i for i, s in enumerate(grads[0][0], start=1)}]
    for x in apps:
        if leaf[x] in cols[0]:
            slots.append((x.head, leaf[x].name, cols[0][leaf[x]],
                          [read.setdefault(a, len(read))
                           for a in x.args[:SLOT_ARGS_READ]]))
    grads += [ex.compile_gradient(a) for a in read]
    cols += [{s: i for i, s in enumerate(wrt, start=1)} for wrt, _ in grads[1:]]
    cols[0][None] = 0  # the zeroth-order part acts on lhs only
    syms = set(lhs.free_symbols()) - set(leaf.values())
    denoms = set(ex.denominator_symbols(lhs))
    for a in read:
        syms |= a.free_symbols()
        denoms |= ex.denominator_symbols(a)
    ops = []  # per field: (coefficients, per gradient [(coefficient, column)])
    for f in fields:
        coeffs, rows = [], [[] for _ in grads]
        for s, c in f.coefficients.items():
            uses = [(row, col[s]) for row, col in zip(rows, cols) if s in col]
            if uses and c != ex.ZERO:
                for row, i in uses:
                    row.append((len(coeffs), i))
                coeffs.append(ex.compile_numeric(c))
                syms |= c.free_symbols()
                denoms |= ex.denominator_symbols(c)
        ops.append((coeffs, rows))
    over = set()

    def dot(cv, row, g):
        r = 0.0
        for i, col in row:
            r += cv[i] * g[col]
        return r

    def visit(pt):
        values = [g(pt) for _, g in grads[1:]]
        sweeps = []  # per field: (coefficient values, L's row, [X' I_j])
        for coeffs, rows in ops:
            cv = [c(pt) for c in coeffs]
            sweeps.append((cv, rows[0], [dot(cv, row, v)
                                         for row, v in zip(rows[1:], values)]))
        for d, draw in enumerate(draws):
            if d in over:
                continue
            chain = []  # (column of dL/dA, [da/dI_j], [j])
            for head, name, col, js in slots:
                pt[name], partials = draw[head].at([values[j][0] for j in js])
                chain.append((col, partials, js))
            g = grads[0][1](pt)
            for cv, row, xi in sweeps:
                r = dot(cv, row, g)
                for col, partials, js in chain:
                    for p, j in zip(partials, js):
                        r += g[col] * p * xi[j]
                if abs(r) > cfg.tol:
                    over.add(d)
                    break
        return True if len(over) == len(draws) else None

    nm.at_regular_points(frozenset(syms), cfg, frozenset(denoms), params,
                         visit)
    return sorted(over)


def template_spot_check(template: PDETemplate,
                        fields: Sequence[ProlongedField],
                        cfg: nm.SamplerConfig,
                        params: Optional[Mapping]) -> bool:
    """True iff TEMPLATE_DRAWS random polynomial slot bindings are annihilated.

    The bindings are drawn as data from random.Random(TEMPLATE_SEED), and
    screened by their float residuals (_draws_over_tol) without building
    anything per binding.  A binding whose residual exceeds tol at some
    point is decided by annihilation_check on the symbolically instantiated
    template, so every rejection is that check's.
    """
    rng = random.Random(TEMPLATE_SEED)
    draws = [_draw_bindings(template.heads, rng)
             for _ in range(TEMPLATE_DRAWS)]
    return all(
        annihilation_check(fields, instantiate_template(template, draws[d]),
                           cfg, params)
        for d in _draws_over_tol(template, fields, draws, cfg, params))


# ---------------------------------------------------------------------------
# Table rows and report


TABLE_ROWS: Dict[str, List[tuple]] = {
    # table -> list of (algebra, pipeline, m, params)
    "1d": [("g1", "free", m, {}) for m in (1, 2)],
    "2d-free": [(name, "free", m, {})
                for name in ("2g1", "g2") for m in (1, 2)],
    "3d-free": [(name, "free", m, _p)
                for name in ("3g1", "g1+g2", "g3_1", "g3_2", "g3_3",
                             "g3_4", "g3_5", "g3_6", "g3_7")
                for m in (1, 2)
                for _p in [{}]],
    "2d-transitive": [("2g1", "transitive", None, {}),
                      ("g2", "transitive", None, {})],
    "3d-transitive": (
        [(name, "transitive", None, {})
         for name in ("3g1", "g1+g2", "g3_1", "g3_2", "g3_3")]
        + [("g3_4", "transitive", None, {"h": Fraction(1, 2)}),
           ("g3_4", "transitive", None, {"h": Fraction(-1)}),
           ("g3_4", "transitive", None, {"h": Fraction(-1, 3)}),
           ("g3_5", "transitive", None, {"p": Fraction(0)}),
           ("g3_5", "transitive", None, {"p": Fraction(1)})]
        + [(name, "transitive", None, {}) for name in ("g3_6", "g3_7")]
    ),
}

TABLE_NAMES = tuple(TABLE_ROWS) + ("all",)

CHECK_NAMES = ("fixture_annihilated", "generated_verified",
               "equivalent", "template_sound")


@dataclass
class RowResult:
    table: str
    algebra: str
    pipeline: str
    m: Optional[int]
    params: Dict[str, str]
    checks: Dict[str, bool] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(self.checks.get(c, False)
                                          for c in CHECK_NAMES)

    def label(self) -> str:
        bits = [self.algebra, self.pipeline]
        if self.m is not None:
            bits.append(f"m={self.m}")
        bits += [f"{k}={v}" for k, v in sorted(self.params.items())]
        return " ".join(bits)


@dataclass
class Report:
    seed: int
    rows: List[RowResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self, pretty: bool = False) -> str:
        payload = {
            "seed": self.seed,
            "passed": self.passed,
            "rows": [{
                "table": r.table,
                "algebra": r.algebra,
                "pipeline": r.pipeline,
                "m": r.m,
                "params": r.params,
                "checks": r.checks,
                "error": r.error,
                "passed": r.passed,
            } for r in self.rows],
        }
        if pretty:
            return json.dumps(payload, sort_keys=True, indent=2)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["table,algebra,pipeline,m,params," +
                 ",".join(CHECK_NAMES) + ",passed"]
        for r in self.rows:
            params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            cells = [r.table, r.algebra, r.pipeline,
                     "" if r.m is None else str(r.m), params]
            cells += [str(r.checks.get(c, False)).lower() for c in CHECK_NAMES]
            cells.append(str(r.passed).lower())
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            detail = ""
            if r.error:
                detail = f"  ({r.error})"
            elif not r.passed:
                bad = [c for c in CHECK_NAMES if not r.checks.get(c, False)]
                detail = f"  (failed: {', '.join(bad)})"
            lines.append(f"[{status}] {r.table:15s} {r.label()}{detail}")
        lines.append(f"{'ALL PASS' if self.passed else 'FAILURES PRESENT'} "
                     f"({sum(r.passed for r in self.rows)}/{len(self.rows)} rows)")
        return "\n".join(lines) + "\n"


def _run_row(table: str, algebra: str, pipeline: str, m: Optional[int],
             params: Dict[str, Fraction], cfg: nm.SamplerConfig) -> RowResult:
    row = RowResult(table, algebra, pipeline, m,
                    {k: str(v) for k, v in params.items()})
    try:
        entry = liealg.catalog_lookup(algebra, params)
        pmap = entry.param_map
        if pipeline == "free":
            fixture = fx.free_fixture(algebra, m or 1)
            inv = type1_pipeline(entry, m or 1, cfg)
        else:
            fixture = fx.transitive_fixture(algebra)
            inv = type2_pipeline(entry, cfg)
        row.checks["generated_verified"] = inv.verified
        fixture_exprs = fixture.exprs()
        row.checks["fixture_annihilated"] = all(
            annihilation_check(inv.generators, e, cfg, pmap)
            for e in fixture_exprs)
        row.checks["equivalent"] = nm.equivalence_check(
            inv.exprs(), fixture_exprs, cfg, pmap)
        row.checks["template_sound"] = template_spot_check(
            inv.template, inv.generators, cfg, pmap)
    except LieInvError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def run_fixture_suite(tables: Sequence[str],
                      cfg: nm.SamplerConfig = nm.SamplerConfig(),
                      param_overrides: Optional[Mapping[str, Mapping]] = None
                      ) -> Report:
    """Reproduce the requested tables and report per-row pass/fail.

    param_overrides maps algebra name -> {param: Fraction}; an override
    replaces all stock parameter draws for that algebra in the tables run.
    """
    names = list(TABLE_ROWS) if list(tables) == ["all"] else list(tables)
    report = Report(seed=cfg.seed)
    overrides = {k: dict(v) for k, v in (param_overrides or {}).items()}
    for table in names:
        if table not in TABLE_ROWS:
            raise KeyError(f"unknown table {table!r}; known: "
                           f"{', '.join(TABLE_NAMES)}")
        rows = TABLE_ROWS[table]
        seen = set()
        for algebra, pipeline, m, params in rows:
            if algebra in overrides:
                if (algebra, pipeline, m) in seen:
                    continue
                seen.add((algebra, pipeline, m))
                params = overrides[algebra]
            report.rows.append(_run_row(table, algebra, pipeline, m,
                                        params, cfg))
    return report
