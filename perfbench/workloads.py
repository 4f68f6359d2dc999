"""Seeded inputs and the timed program calls of the three workloads.

Each workload has two halves:

* ``make_<workload>(seed)`` builds the inputs with the benchmark's own code
  only, without calling into lieinv; this is part of set-up;
* ``run_<workload>(inputs)`` makes every program call and returns the
  outputs as plain text and numbers, for the checkers in ``checks.py``.

``run_*`` reaches the program through public module attributes looked up at
call time (``invariants.type1_pipeline``, not a name bound at import), so
that the wrappers installed by ``tracer.py`` see every call.

An operation is one unit of ``attempted``: a table row, a derivation, an
accept/reject verdict, a round trip, or a refusal.  An operation that raises
where it should return is counted in ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import lieinv
from lieinv import cli, covariant, fixtures, invariants, jet, liealg, numeric
from lieinv import expr as ex

from checks import EXPECTED_ROWS

# ---------------------------------------------------------------------------
# reproduce_all: the north-star command, run in-process

REPRODUCE_ARGV = ["reproduce", "all", "--seed", "7", "--format", "json"]


def make_reproduce_all(seed: int) -> dict:
    # The north-star command is fixed; the benchmark seed does not enter it.
    return {"argv": list(REPRODUCE_ARGV)}


def row_counts(code: int, stdout: str):
    """(attempted, failed) rows of a report.

    Attempted: the report's rows plus the paper's rows it lacks.  Failed:
    rows whose ``passed`` is not true, plus the missing ones.  A non-zero
    exit fails at least one row; an unreadable report fails all of them.
    """
    try:
        rows = json.loads(stdout)["rows"]
        keys = {(r["table"], r["algebra"], r["pipeline"], r["m"],
                 json.dumps(r["params"], sort_keys=True)) for r in rows}
    except (ValueError, KeyError, TypeError):
        return len(EXPECTED_ROWS), len(EXPECTED_ROWS)
    missing = sum((t, a, p, m, json.dumps(params, sort_keys=True)) not in keys
                  for t, a, p, m, params in EXPECTED_ROWS)
    failed = missing + sum(r.get("passed") is not True for r in rows)
    if code != 0:
        failed = max(failed, 1)
    return len(rows) + missing, failed


def run_reproduce_all(inputs: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inputs["argv"])
    attempted, failed = row_counts(code, buf.getvalue())
    return {"exit": code, "stdout": buf.getvalue(),
            "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# derive_sweep: the `lieinv invariants` path over the whole catalog

# algebra -> group dimension
ALGEBRA_DIMS = {"g1": 1, "2g1": 2, "g2": 2, "3g1": 3, "g1+g2": 3,
                "g3_1": 3, "g3_2": 3, "g3_3": 3, "g3_4": 3, "g3_5": 3,
                "g3_6": 3, "g3_7": 3}
PARAM_DRAWS = 3
P_LIMIT = 3
# A fixed, seed-independent draw at P_LIMIT: its transitive derivation fails
# today (VerificationFailed) and counts in `failed` until the program is fixed.
P_AT_LIMIT = {"name": "g3_5", "params": {"p": Fraction(P_LIMIT)},
              "jobs": [("transitive", None)], "shift": Fraction(1)}


def _admissible_draws(name: str, rng: random.Random) -> list:
    """Parameter draws as in acceptance criterion 6: h for g3_4, p for g3_5.

    p >= P_LIMIT is drawn again: there the pipelines reject the correct
    invariants of g3_5 (the transitive one from p = 3, the free one from
    p = 6), so such a derivation would fail on some seeds only.  The fixed
    entry ``P_AT_LIMIT`` covers that fault on every seed instead.
    """
    draws = []
    while len(draws) < PARAM_DRAWS:
        if name == "g3_4":
            h = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            if abs(h) <= 1 and h not in (0, 1):
                draws.append({"h": h})
        elif name == "g3_5":
            p = Fraction(rng.randint(0, 12), rng.randint(1, 12))
            if p < P_LIMIT:
                draws.append({"p": p})
        else:
            return [{}]
    return draws


def make_derive_sweep(seed: int) -> dict:
    """One entry per (algebra, params): its derivations and a shift c != 0.

    Every fixture invariant I must be accepted; I + c*x, with x the first
    coordinate of the space, must be rejected: X(I + c x) = c X(x), and some
    generator moves x.
    """
    rng = random.Random(f"derive_sweep:{seed}")
    entries = []
    for name, dim in ALGEBRA_DIMS.items():
        for params in _admissible_draws(name, rng):
            jobs = [("free", 1), ("free", 2)]
            if dim >= 2:
                jobs.append(("transitive", None))
            shift = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            entries.append({"name": name, "params": params, "jobs": jobs,
                            "shift": shift})
        if name == "g3_5":
            entries.append(dict(P_AT_LIMIT))
    return {"entries": entries}


def _generators(entry, pipeline, space, realized: dict):
    """Prolonged generators on `space` for the verdicts.

    An InvariantSet carries no generators, so the benchmark realizes the
    algebra itself, once per (algebra, params, action): the free action's
    fields serve both m = 1 and m = 2.  In the transitive case u = z^dep
    becomes the graph of the dependent variable.
    """
    if pipeline not in realized:
        if pipeline == "free":
            zspace = jet.JetSpace(space.coords[:entry.dim], space.dep,
                                  params=space.params)
        else:
            zspace = entry.split_space("w")
        realized[pipeline] = (
            zspace, liealg.build_invariant_fields(entry.sc, zspace)[0])
    zspace, xi = realized[pipeline]
    if pipeline == "free":
        return [jet.prolong2(jet.VectorField.from_dict(space, dict(f.components)))
                for f in xi]
    graph = {zspace.base(entry.dep): ex.Sym(space.jet())}
    gens = []
    for f in xi:
        comps = {c: ex.substitute(comp, graph) for c, comp in f.components}
        theta = comps.pop(entry.dep)
        gens.append(jet.prolong2(jet.VectorField.from_dict(space, comps),
                                 theta))
    return gens


def _derive_job(entry, pipeline, m, cfg, shift, realized):
    if pipeline == "free":
        inv = invariants.type1_pipeline(entry, m, cfg)
        fixture = fixtures.free_fixture(entry.name, m)
    else:
        inv = invariants.type2_pipeline(entry, cfg)
        fixture = fixtures.transitive_fixture(entry.name)
    space = fixture.space()
    gens = _generators(entry, pipeline, space, realized)
    coord = space.coords[0]
    pmap = entry.param_map
    verdicts = []
    failed = 0
    for (label, text), e in zip(fixture.invariants, fixture.exprs()):
        shifted = space.parse(f"{text} + {shift}*{coord}")
        for expected, target in ((True, e), (False, shifted)):
            try:
                got = lieinv.annihilation_check(gens, target, cfg, pmap)
            except lieinv.LieInvError as exc:
                got = f"{type(exc).__name__}: {exc}"
                failed += 1
            verdicts.append([label, expected, got])
    return {"set": inv.to_json(), "fixture": [list(p) for p in fixture.invariants],
            "fixture_coords": list(space.coords), "fixture_dep": space.dep,
            "shift": f"{shift}*{coord}", "verdicts": verdicts}, failed


def run_derive_sweep(inputs: dict) -> dict:
    cfg = numeric.SamplerConfig()
    results = []
    attempted = failed = 0
    for item in inputs["entries"]:
        entry = liealg.catalog_lookup(item["name"], item["params"])
        realized = {}
        for pipeline, m in item["jobs"]:
            out = {"algebra": item["name"], "pipeline": pipeline, "m": m,
                   "params": {k: str(v) for k, v in item["params"].items()},
                   "dim": ALGEBRA_DIMS[item["name"]]}
            try:
                body, bad = _derive_job(entry, pipeline, m, cfg, item["shift"],
                                        realized)
            except lieinv.LieInvError as exc:
                out["error"] = f"{type(exc).__name__}: {exc}"
                attempted += 1
                failed += 1
            else:
                out.update(body)
                attempted += 1 + len(body["verdicts"])
                failed += bad
            results.append(out)
    return {"jobs": results, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# covariant_roundtrip: to_covariant then from_covariant

PDE_BATTERY = [
    "coords: x, y; dep: u\nlhs: x*u_x + y*u_y + u",
    "coords: x, y; dep: u\nlhs: u_x*u_y + u",
    "coords: x, y; dep: u\nlhs: u_x^2 + u_y^2 - 1",
    "coords: x; dep: u\nlhs: u_xx + u_x^2",
    "coords: x; dep: u\nlhs: u_xx + u_x^3",
    "coords: x, y; dep: u\nlhs: u_xx + u_yy",
    "coords: x, y; dep: u\nlhs: u_xx*u_yy - u_xy^2",
    "coords: x, y; dep: u\nlhs: u_xx + u*u_yy",
    "coords: x, y; dep: u\nlhs: u_xy + u_x*u_y",
    "coords: x, y, z; dep: u\nlhs: u_xx + u_yy + u_zz + u_x*u_y*u_z",
]

GENERATED_PDES = 60
_COORDS = (("x",), ("x", "y"), ("x", "y", "z"))

# Inputs whose correct outcome is a refusal; today each is accepted or ends
# in a non-lieinv exception, so each counts as failed.
REFUSALS = [
    ("division_by_zero_exponent", "coords: x, y; dep: u\nlhs: u_xx + x^(1/0)",
     None),
    ("nested_3000_parentheses",
     "coords: x; dep: u\nlhs: " + "(" * 3000 + "u_xx" + ")" * 3000, None),
    ("zero_points_config", "coords: x, y; dep: u\nlhs: u_xx + u_yy",
     {"points": 0}),
]


def _term(rng: random.Random, coords, degree: int) -> str:
    """c * g(x or u) * (a monomial of the given degree in the u_a), g in sin/exp."""
    k = rng.randint(1, 2)
    arg = rng.choice(coords + ("u",))
    parts = [str(Fraction(rng.randint(1, 5), rng.randint(1, 4))),
             f"{rng.choice(('sin', 'exp'))}({k}*{arg})" if k > 1
             else f"{rng.choice(('sin', 'exp'))}({arg})"]
    parts += [f"u_{rng.choice(coords)}" for _ in range(degree)]
    return "*".join(parts)


def _sum(rng: random.Random, terms) -> str:
    """Terms joined with random signs, in the grammar's binary +/- form."""
    out = terms[0]
    for t in terms[1:]:
        out += f" {rng.choice('+-')} {t}"
    return out


def generate_pde(shape: random.Random, rng: random.Random, coords) -> str:
    """A quasi-linear second-order PDE sum_{a<=b} A_ab u_ab + B = 0.

    A_ab and B are sums of rational multiples of sin/exp of one coordinate
    or of u, times monomials in the first derivatives (degree <= 2 in A_ab,
    <= 3 in B).  Every diagonal slot is present.  `shape` fixes which slots
    are present, the number of terms and the monomial degrees; `rng` fixes
    the rest, so the work per equation hardly depends on the seed.
    """
    terms = []
    for i, a in enumerate(coords):
        for b in coords[i:]:
            if a != b and shape.random() < 0.5:
                continue
            coef = [_term(rng, coords, shape.randint(0, 2))
                    for _ in range(shape.randint(1, 2))]
            if a == b:
                coef.insert(0, "1")
            terms.append(f"({_sum(rng, coef)})*u_{a}{b}")
    terms += [_term(rng, coords, shape.randint(0, 3))
              for _ in range(shape.randint(1, 3))]
    return f"coords: {', '.join(coords)}; dep: u\nlhs: " + _sum(rng, terms)


def make_covariant_roundtrip(seed: int) -> dict:
    shape = random.Random("covariant_roundtrip:shape")
    rng = random.Random(f"covariant_roundtrip:{seed}")
    generated = [generate_pde(shape, rng, _COORDS[i % 3])
                 for i in range(GENERATED_PDES)]
    return {"pdes": PDE_BATTERY + generated, "refusals": REFUSALS}


def _refusal(text: str, config) -> str:
    """'refused: ...' when the program declines the input, else what happened."""
    try:
        cfg = numeric.SamplerConfig(**config) if config else numeric.SamplerConfig()
        pde = covariant.parse_pde(text)
        covariant.to_covariant(pde, cfg)
    except (lieinv.LieInvError, ValueError) as exc:
        return f"refused: {type(exc).__name__}"
    except (ArithmeticError, RecursionError) as exc:
        return f"crashed: {type(exc).__name__}"
    return "accepted"


def run_covariant_roundtrip(inputs: dict) -> dict:
    cfg = numeric.SamplerConfig()
    trips = []
    failed = 0
    for text in inputs["pdes"]:
        try:
            pde = covariant.parse_pde(text)
            cov = covariant.to_covariant(pde, cfg)
            back = covariant.from_covariant(cov, cfg)
        except lieinv.LieInvError as exc:
            trips.append({"error": f"{type(exc).__name__}: {exc}"})
            failed += 1
            continue
        trips.append({
            "cov_coords": list(cov.space.coords), "cov_dep": cov.space.dep,
            "dep_coord": cov.dep_coord, "degree": cov.degree,
            "cov_lhs": ex.render(cov.lhs),
            "back_coords": list(back.space.coords), "back_dep": back.space.dep,
            "back_lhs": ex.render(back.lhs),
        })
    refusals = []
    for name, text, config in inputs["refusals"]:
        outcome = _refusal(text, config)
        refusals.append([name, outcome])
        failed += not outcome.startswith("refused")
    return {"trips": trips, "refusals": refusals,
            "attempted": len(trips) + len(refusals), "failed": failed}


MAKE = {"reproduce_all": make_reproduce_all, "derive_sweep": make_derive_sweep,
        "covariant_roundtrip": make_covariant_roundtrip}
RUN = {"reproduce_all": run_reproduce_all, "derive_sweep": run_derive_sweep,
       "covariant_roundtrip": run_covariant_roundtrip}
