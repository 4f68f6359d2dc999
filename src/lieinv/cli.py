"""Command-line interface.

Subcommands:
  validate    check a structure-constant JSON file (Jacobi identity)
  invariants  run a pipeline for a catalog algebra and print the results
  covariant   convert a scalar PDE to/from its homogeneous covariant form
  reproduce   re-derive the bundled classification tables and report

Exit status always reflects verification, not mere completion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import covariant as cov
from . import expr as ex
from . import liealg
from . import numeric as nm
from .errors import JacobiViolation, LieInvError
from .invariants import type1_pipeline, type2_pipeline
from .verify import TABLE_NAMES, run_fixture_suite


def _parse_params(items: List[str]) -> Dict[str, Dict[str, Fraction]]:
    """Parse --params entries of the form k=v or algebra:k=v.

    Returns {algebra_or_"": {param: value}}; the "" bucket applies to the
    single algebra named on the command line.
    """
    out: Dict[str, Dict[str, Fraction]] = {}
    for item in items:
        key, _, value = item.partition("=")
        if not _ or not key or not value:
            raise ValueError(f"bad --params entry {item!r}; expected k=v")
        algebra, _, param = key.partition(":")
        if not param:
            algebra, param = "", algebra
        out.setdefault(algebra, {})[param] = liealg.parse_rational(value)
    return out


def _sampler(args) -> nm.SamplerConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LIEINV_SEED", nm.DEFAULT_SEED))
    return nm.SamplerConfig(seed=seed, points=args.points, tol=args.tol)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $LIEINV_SEED or built-in)")
    p.add_argument("--points", type=int, default=nm.DEFAULT_POINTS)
    p.add_argument("--tol", type=float, default=nm.DEFAULT_TOL)


def cmd_validate(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        sc, _ = liealg.load_algebra(payload)
    except JacobiViolation as exc:
        i, j, k, l = exc.quadruple
        print(f"invalid: Jacobi identity fails at (i,j,k)=({i},{j},{k}), "
              f"component {l}")
        return 1
    except LieInvError as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"valid: {sc.dim}-dimensional Lie algebra, "
          f"{len(sc.C)} nonzero structure constants")
    return 0


def cmd_invariants(args) -> int:
    params = _parse_params(args.params)
    merged = dict(params.get("", {}))
    merged.update(params.get(args.algebra, {}))
    cfg = _sampler(args)
    entry = liealg.catalog_lookup(args.algebra, merged)
    if args.pipeline == "free":
        inv = type1_pipeline(entry, args.m, cfg)
    else:
        inv = type2_pipeline(entry, cfg)
    if args.format == "json":
        print(inv.to_json(pretty=args.pretty))
    elif args.format == "csv":
        print("label,expression")
        for label, e in inv.labelled().items():
            print(f"{label},\"{ex.render(e)}\"")
    else:
        print(f"algebra {inv.algebra}  pipeline {args.pipeline}"
              + (f"  m={args.m}" if args.pipeline == "free" else ""))
        for label, e in inv.labelled().items():
            print(f"  {label} = {ex.render(e)}")
        print(f"  template: {ex.render(inv.template.lhs)} = 0")
        print(f"  verified: {inv.verified} (seed {inv.seed})")
    return 0


def cmd_covariant(args) -> int:
    with open(args.pde_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = _sampler(args)
    params = _parse_params(args.params).get("", {})
    pde = cov.parse_pde(text, tuple(params))
    if args.to:
        space, dep_coord = cov.wspace_for(pde.space), pde.space.dep
        lhs = cov.lift(pde, space)
    else:
        # the file's coords are the z-coordinates, its dep is the covariant
        # scalar (usually w); the last coordinate was the dependent variable
        space, lhs, dep_coord = pde.space, pde.lhs, pde.space.coords[-1]
    # the form is checked with the values bound and printed with the names
    degree = cov.CovariantPDE(space, ex.bind(lhs, params), dep_coord,
                              cfg).degree
    if args.to:
        print(f"coords: {', '.join(space.coords)}; dep: {space.dep}"
              f"  (was dependent: {dep_coord})")
        print(f"degree: {degree}")
        print(f"lhs: {ex.render(lhs)}")
        return 0
    out = cov.section(space, lhs, dep_coord)
    print(f"rescale-invariant: yes (degree {degree})")
    print(f"coords: {', '.join(out.space.coords)}; dep: {out.space.dep}")
    print(f"lhs: {ex.render(out.lhs)}")
    return 0


def cmd_reproduce(args) -> int:
    tables = args.table or ["all"]
    cfg = _sampler(args)
    overrides = {k: v for k, v in _parse_params(args.params).items() if k}
    report = run_fixture_suite(tables, cfg, overrides)
    if args.format == "json":
        print(report.to_json(pretty=args.pretty))
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieinv",
        description="Differential invariants and invariant PDE templates "
                    "for low-dimensional Lie symmetry groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structure constants (Jacobi)")
    p.add_argument("input", help="JSON file with dim/brackets")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("invariants", help="run a pipeline for an algebra")
    p.add_argument("algebra", help="catalog name, e.g. g2, g3_7, so3")
    p.add_argument("--pipeline", choices=["free", "transitive"],
                   required=True)
    p.add_argument("--m", type=int, default=1,
                   help="number of non-orbit independent variables (free)")
    p.add_argument("--params", action="append", default=[],
                   metavar="K=V", help="algebra parameter, rational string")
    p.add_argument("--format", choices=["json", "csv", "text"],
                   default="text")
    p.add_argument("--pretty", action="store_true")
    _add_sampler_flags(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("covariant", help="convert a PDE to/from covariant form")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to", action="store_true",
                       help="scalar PDE -> homogeneous covariant form")
    group.add_argument("--from", dest="from_", action="store_true",
                       help="covariant form -> scalar PDE (checks rescale "
                            "invariance)")
    p.add_argument("pde_file", help="file with 'coords: ...; dep: ...' and "
                                    "'lhs: <expr>' lines")
    p.add_argument("--params", action="append", default=[], metavar="K=V")
    _add_sampler_flags(p)
    p.set_defaults(fn=cmd_covariant)

    p = sub.add_parser("reproduce", help="re-derive the bundled tables")
    p.add_argument("table", nargs="*", default=[],
                   help=f"tables to run (default: all); one of "
                        f"{', '.join(TABLE_NAMES)}")
    p.add_argument("--params", action="append", default=[],
                   metavar="ALGEBRA:K=V",
                   help="override parameter draws, e.g. g3_4:h=1/3")
    p.add_argument("--format", choices=["json", "csv", "text"],
                   default="text")
    p.add_argument("--pretty", action="store_true")
    _add_sampler_flags(p)
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LieInvError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
