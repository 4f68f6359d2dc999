"""Verification suite: annihilation checks, equivalence gates, table reports.

run_fixture_suite re-derives every requested table row from structure
constants alone and holds the result against the transcribed fixtures:

  * fixture self-test - the transcribed invariants, as one family, are
    annihilated by the prolonged generators (catches transcription typos);
  * generated pipeline run - annihilation and functional-rank gates inside
    the pipeline itself;
  * equivalence - rank(generated) = rank(fixture) = rank(generated +
    fixture), all three from one pass of numeric.equivalence_check, the
    union through the null space of the generated family's Jacobian;
  * template soundness - the template is annihilated for every choice of
    its arbitrary-function slots: the lhs with each slot application
    replaced by a free leaf, and every argument of a slot it depends on,
    pass as one family (template_spot_check gives the proof).

Each family is one numeric.first_non_annihilating call;
annihilation_check is the same routine on a single expression.

Reports serialize deterministically (sorted keys) to JSON, CSV, and a plain
text table; overall exit status is 0 iff every row passes.
"""

from __future__ import annotations

import json
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
    type1_pipeline,
    type2_pipeline,
)
from .jet import ProlongedField


def annihilation_check(fields: Sequence[ProlongedField], e: ex.Expr,
                       cfg: nm.SamplerConfig = nm.SamplerConfig(),
                       params: Optional[Mapping] = None) -> bool:
    """True iff every prolonged generator annihilates e (randomized)."""
    return nm.first_non_annihilating(fields, [e], cfg, params) is None


def template_spot_check(template: PDETemplate,
                        fields: Sequence[ProlongedField],
                        cfg: nm.SamplerConfig,
                        params: Optional[Mapping]) -> bool:
    """True iff the fields annihilate the template for every choice of slots.

    Write L for the lhs with each slot application a_k(I) replaced by a
    free leaf A_k.  A prolonged field X has no zeroth-order part, so the
    chain rule gives

        X lhs = (X L)|_{A=a(I)} + sum_k dL/dA_k * sum_j da_k/dI_j * X I_j.

    This vanishes for every choice of the slots iff X L = 0 with the leaves
    free (take each a_k constant) and X I_j = 0 for every argument I_j of
    every slot that L depends on (then take a_k = I_j).  L and the
    arguments, the lhs's own nodes, are checked as one family.
    """
    apps = ex.applications(template.lhs)
    leaf = {x: ex.Symbol(f"{x.head}#{i}") for i, x in enumerate(apps)}
    lhs = ex.substitute_heads(template.lhs, {
        x.head: (lambda *args, _h=x.head: ex.Sym(leaf[ex.applied(_h, args)]))
        for x in apps})
    used = lhs.free_symbols()
    args = {a: None for x in apps if leaf[x] in used for a in x.args}
    return nm.first_non_annihilating(fields, [lhs, *args], cfg,
                                     params) is None


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
        row.checks["fixture_annihilated"] = nm.first_non_annihilating(
            inv.generators, fixture_exprs, cfg, pmap) is None
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
