"""Checks of the program's outputs, computed apart from the program.

Nothing here imports lieinv.  Rendered expressions are read by the
benchmark's own evaluator: the text is parsed by Python's ``ast`` module
(after ``^`` -> ``**``), every node is checked against a small whitelist,
and jet names are brought to one spelling.  Values are complex, so a
derivative is a complex step, exact to rounding, and a Jacobian rank needs
no step-size tuning.

Each ``check_<workload>(inputs, outputs)`` returns a list of problems; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import ast
import cmath
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

_FUNCS = {"exp": cmath.exp, "log": cmath.log, "sin": cmath.sin,
          "cos": cmath.cos, "tan": cmath.tan}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
          ast.Call, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
          ast.USub, ast.UAdd)
_ENV = {"__builtins__": {}, **_FUNCS}
ROW_CHECKS = ("equivalent", "fixture_annihilated", "generated_verified",
                "template_sound")
STEP = 1e-30  # complex step

# The paper's tables row by row, in report order:
# (table, algebra, pipeline, m, params), 2 + 4 + 18 + 2 + 12 = 38 rows.
_ALG3 = ("3g1", "g1+g2", "g3_1", "g3_2", "g3_3", "g3_4", "g3_5", "g3_6",
         "g3_7")
EXPECTED_ROWS = (
    [("1d", "g1", "free", m, {}) for m in (1, 2)]
    + [("2d-free", a, "free", m, {}) for a in ("2g1", "g2") for m in (1, 2)]
    + [("3d-free", a, "free", m, {}) for a in _ALG3 for m in (1, 2)]
    + [("2d-transitive", a, "transitive", None, {}) for a in ("2g1", "g2")]
    + [("3d-transitive", a, "transitive", None, {})
       for a in ("3g1", "g1+g2", "g3_1", "g3_2", "g3_3")]
    + [("3d-transitive", "g3_4", "transitive", None, {"h": h})
       for h in ("1/2", "-1", "-1/3")]
    + [("3d-transitive", "g3_5", "transitive", None, {"p": p})
       for p in ("0", "1")]
    + [("3d-transitive", a, "transitive", None, {}) for a in ("g3_6", "g3_7")]
)


def jet_name(dep: str, index) -> str:
    index = sorted(index)
    return dep if not index else dep + "_" + "".join(index)


def _split_index(suffix: str, coords):
    out = []
    by_len = sorted(coords, key=len, reverse=True)
    while suffix:
        for c in by_len:
            if suffix.startswith(c):
                out.append(c)
                suffix = suffix[len(c):]
                break
        else:
            return None
    return out


class Formula:
    """A rendered expression compiled for evaluation at complex points."""

    def __init__(self, text: str, coords=(), dep: str = ""):
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _NODES):
                raise ValueError(f"unexpected {type(node).__name__} in {text!r}")
            if isinstance(node, ast.Call) and not (
                    isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                    and len(node.args) == 1 and not node.keywords):
                raise ValueError(f"unexpected call in {text!r}")
            if isinstance(node, ast.Name) and dep and \
                    node.id.startswith(dep + "_"):
                index = _split_index(node.id[len(dep) + 1:], coords)
                if index:
                    node.id = jet_name(dep, index)
        self.names = {n.id for n in ast.walk(tree)
                      if isinstance(n, ast.Name)} - set(_FUNCS)
        self.code = compile(tree, "<rendered>", "eval")

    def __call__(self, values) -> complex:
        return complex(eval(self.code, _ENV, values))  # noqa: S307 - whitelisted AST


def _close(a: complex, b: complex, tol: float = 1e-8) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# reproduce_all


def check_reproduce_all(inputs: dict, outputs: dict) -> list:
    problems = []
    if outputs["exit"] != 0:
        problems.append(f"exit status {outputs['exit']}")
    try:
        report = json.loads(outputs["stdout"])
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if report.get("seed") != 7 or report.get("passed") is not True:
        problems.append("report seed/passed header is wrong")
    rows = report.get("rows", [])
    got = [(r.get("table"), r.get("algebra"), r.get("pipeline"), r.get("m"),
            r.get("params")) for r in rows]
    if got != [tuple(r) for r in EXPECTED_ROWS]:
        problems.append(f"rows differ from the paper's {len(EXPECTED_ROWS)} rows")
    for r in rows:
        checks = r.get("checks", {})
        if sorted(checks) != list(ROW_CHECKS) or not all(
                v is True for v in checks.values()) \
                or r.get("error") is not None or r.get("passed") is not True:
            problems.append(f"row {r.get('table')} {r.get('algebra')} "
                            f"m={r.get('m')} {r.get('params')} did not pass")
    return problems


# ---------------------------------------------------------------------------
# derive_sweep


def jet_variables(coords, dep: str) -> list:
    """Base coordinates, then the jets of order 0, 1 and 2 of dep."""
    out = list(coords) + [dep] + [jet_name(dep, (a,)) for a in coords]
    out += [jet_name(dep, ab) for ab in combinations_with_replacement(coords, 2)]
    return out


def _sample(rng: random.Random, names, fixed=None) -> dict:
    """Values bounded away from 0, of random sign; `fixed` ones override."""
    out = {}
    for name in sorted(names):
        mag = rng.uniform(0.3, 1.0)
        out[name] = mag if rng.random() < 0.5 else -mag
    out.update(fixed or {})
    return out


def _rank(rows, tol: float = 1e-9) -> int:
    """Rank by Gaussian elimination with full pivoting, rows scaled to 1."""
    m = []
    for row in rows:
        scale = max((abs(v) for v in row), default=0.0)
        if scale > 0.0:
            m.append([v / scale for v in row])
    rank = 0
    while m:
        i, j = max(((i, j) for i in range(len(m)) for j in range(len(m[0]))),
                   key=lambda ij: abs(m[ij[0]][ij[1]]))
        pivot = m[i][j]
        if abs(pivot) <= tol:
            break
        prow = m.pop(i)
        m = [[v - r[j] / pivot * p for v, p in zip(r, prow)] for r in m]
        rank += 1
    return rank


def jacobian_rank(formulas, variables, params, rng, points: int = 3) -> int:
    """Generic rank of the Jacobian: the largest rank at a few points."""
    best = 0
    names = set(variables)
    for f in formulas:
        names |= f.names - set(params)
    for _ in range(points):
        pt = _sample(rng, names, params)
        rows = []
        try:
            for f in formulas:
                row = []
                for v in variables:
                    shifted = dict(pt)
                    shifted[v] = pt[v] + 1j * STEP
                    row.append(f(shifted).imag / STEP)
                rows.append(row)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        best = max(best, _rank(rows))
    return best


def check_derived_set(job: dict, rng: random.Random) -> list:
    """Size, verification and equivalence of one derived set; its verdicts."""
    where = f"{job['algebra']} {job['pipeline']} m={job['m']} {job['params']}"
    if "error" in job:
        return []  # counted in `failed`
    problems = []
    inv = json.loads(job["set"])
    coords, dep = inv["coords"], inv["dep"]
    variables = jet_variables(coords, dep)
    expected = len(variables) - job["dim"]
    if inv.get("verified") is not True:
        problems.append(f"{where}: set not verified")
    derived = [Formula(i["expr"], coords, dep) for i in inv["invariants"]]
    if len(derived) != expected:
        problems.append(f"{where}: {len(derived)} invariants, expected "
                        f"{expected} (jet dim {len(variables)} - {job['dim']})")
    if coords != job["fixture_coords"] or dep != job["fixture_dep"]:
        problems.append(f"{where}: space {coords}/{dep} differs from the table")
    fixture = [Formula(text, coords, dep) for _, text in job["fixture"]]
    params = {k: float(Fraction(v)) for k, v in inv["params"].items()}
    ranks = [jacobian_rank(fs, variables, params, rng)
             for fs in (derived, fixture, derived + fixture)]
    if ranks != [expected] * 3:
        problems.append(f"{where}: ranks (derived, table, union) = {ranks}, "
                        f"expected {expected}")
    fixture_labels = [label for label, _ in job["fixture"]]
    want = [[label, answer] for label in fixture_labels
            for answer in (True, False)]
    got = [[label, answer] for label, answer, _ in job["verdicts"]]
    if got != want:
        problems.append(f"{where}: verdicts were not made for every invariant")
    for label, answer, verdict in job["verdicts"]:
        if isinstance(verdict, bool) and verdict is not answer:
            kind = "table invariant" if answer else f"invariant + {job['shift']}"
            problems.append(f"{where}: {kind} {label} got verdict {verdict}")
    return problems


def check_derive_sweep(inputs: dict, outputs: dict) -> list:
    want = [(e["name"], pipeline, m) for e in inputs["entries"]
            for pipeline, m in e["jobs"]]
    got = [(j["algebra"], j["pipeline"], j["m"]) for j in outputs["jobs"]]
    if got != want:
        return ["derivations differ from the sweep's inputs"]
    rng = random.Random(0)
    problems = []
    for job in outputs["jobs"]:
        problems += check_derived_set(job, rng)
    return problems


# ---------------------------------------------------------------------------
# covariant_roundtrip


def _pde_fields(text: str) -> dict:
    fields = {}
    for chunk in text.replace(";", "\n").splitlines():
        key, _, value = chunk.partition(":")
        fields[key.strip()] = value.strip()
    fields["coords"] = [c.strip() for c in fields["coords"].split(",")]
    return fields


def split_jets_from_w(w: dict, coords, dep: str, wdep: str = "w") -> dict:
    """u_a and u_ab of the level set w(x, u) = 0, by implicit differentiation.

    w_a + w_u u_a = 0 gives u_a = -w_a / w_u; differentiating again,
    u_ab = -(w_ab + w_au u_b + w_bu u_a + w_uu u_a u_b) / w_u.
    """
    wn = w[jet_name(wdep, (dep,))]
    wnn = w[jet_name(wdep, (dep, dep))]
    first = {a: -w[jet_name(wdep, (a,))] / wn for a in coords}
    out = {jet_name(dep, (a,)): first[a] for a in coords}
    for a, b in combinations_with_replacement(coords, 2):
        out[jet_name(dep, (a, b))] = -(
            w[jet_name(wdep, (a, b))] + w[jet_name(wdep, (a, dep))] * first[b]
            + w[jet_name(wdep, (b, dep))] * first[a]
            + wnn * first[a] * first[b]) / wn
    return out


def check_round_trip(text: str, trip: dict, rng: random.Random,
                     points: int = 4) -> list:
    """E~ = w_n^k E(u(w)); E~ picks up f'^k under w -> f(w); back = E."""
    fields = _pde_fields(text)
    coords, dep = fields["coords"], fields["dep"]
    zcoords = coords + [dep]
    if trip["cov_coords"] != zcoords or trip["dep_coord"] != dep \
            or trip["back_coords"] != coords or trip["back_dep"] != dep:
        return [f"{text!r}: spaces of the covariant form or of its inverse "
                f"are wrong"]
    wdep = trip["cov_dep"]
    lhs = Formula(fields["lhs"], coords, dep)
    cov = Formula(trip["cov_lhs"], zcoords, wdep)
    back = Formula(trip["back_lhs"], coords, dep)
    k = trip["degree"]
    wjets = [jet_name(wdep, (a,)) for a in zcoords] + \
        [jet_name(wdep, ab) for ab in combinations_with_replacement(zcoords, 2)]
    problems = []
    for _ in range(points):
        base = {c: rng.uniform(-0.5, 0.5) for c in zcoords}
        w = _sample(rng, wjets)
        w[wdep] = 0.0
        wn = w[jet_name(wdep, (dep,))]
        split = dict(base, **split_jets_from_w(w, coords, dep, wdep))
        e_split = lhs(split)
        e_cov = cov(dict(base, **w))
        if not _close(e_cov, wn ** k * e_split):
            problems.append(f"{text!r}: E~ != w_n^{k} E at {w}")
        f1 = rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
        f2 = rng.uniform(-1.0, 1.0)
        scaled = dict(base, **w)
        for a in zcoords:
            scaled[jet_name(wdep, (a,))] = f1 * w[jet_name(wdep, (a,))]
        for a, b in combinations_with_replacement(zcoords, 2):
            scaled[jet_name(wdep, (a, b))] = (
                f1 * w[jet_name(wdep, (a, b))]
                + f2 * w[jet_name(wdep, (a,))] * w[jet_name(wdep, (b,))])
        if not _close(cov(scaled), f1 ** k * e_cov):
            problems.append(f"{text!r}: E~ does not scale by f'^{k}")
        if not _close(back(split), e_split):
            problems.append(f"{text!r}: from_covariant does not recover E")
    return problems


def check_covariant_roundtrip(inputs: dict, outputs: dict) -> list:
    problems = []
    if len(outputs["trips"]) != len(inputs["pdes"]):
        return ["round trips are missing"]
    rng = random.Random(0)
    for text, trip in zip(inputs["pdes"], outputs["trips"]):
        if "error" not in trip:
            problems += check_round_trip(text, trip, rng)
    names = [name for name, _, _ in inputs["refusals"]]
    if [name for name, _ in outputs["refusals"]] != names:
        problems.append("refusal cases are missing")
    return problems


CHECK = {"reproduce_all": check_reproduce_all,
         "derive_sweep": check_derive_sweep,
         "covariant_roundtrip": check_covariant_roundtrip}
