"""Micro-benchmark of the expression kernel on a fixed corpus.

    python3 tools/kernel_bench.py [--repeats N]

Run from anywhere; lieinv is imported from the checkout's ``src/`` and the
covariant round trip's equations from ``perfbench/workloads.py``.  Standard
library only.

The corpus is built once, untimed: the invariants of every row of
``reproduce all`` (``verify.TABLE_ROWS``), and for each of the 70 equations
of the benchmark's covariant round trip (seed 61) its lhs and its lifted
covariant form, distinct expressions only.  The kernel keeps one node per
value, so a copy of an expression would be the expression itself: each
repetition instead empties, in place and untimed, the caches of every node
of the corpus before it times one pass over it.  No node then holds its
free symbols, its evaluators or, except for a symbol's, which is set when
it is made, its sort key, so every pass does the work of a first visit,
but for making the corpus's own nodes, which the constructors find live:

* ``add_mul_ms``: ``simplify_basic``, every sum and product rebuilt through
  ``add``/``mul``;
* ``diff_ms``: ``diff`` along each free symbol of each expression;
* ``substitute_ms``: ``substitute`` of 2*s for every free symbol s;
* ``expand_ms``: ``expand``;
* ``codegen_compile_ms``: the evaluator's source and its compilation, with
  the code memo emptied first;
* ``gradient_ms``: the gradient's source along all free symbols
  (``_codegen(e, symbols)``, the forward and the reverse sweep) and its
  compilation, with the code memo emptied first;
* ``lift_ms``: ``covariant.lift`` of each of the 70 equations of the
  covariant round trip (seed 61), each lhs with its caches emptied and each
  z-space made anew, untimed, with the memo of implicit derivatives emptied
  first:
  the substitution of the implicit derivatives (built once per z-space),
  the expansion and the clearing of w_n, in one ``expand`` call per
  equation.

The one line of output is a JSON object of the medians over the
repetitions, in milliseconds, with the corpus size (``corpus_exprs``
expressions, ``corpus_nodes`` distinct nodes), the repetition count
(``repeats``), the Python version (``python``) and ``code_misses``: the
code memo's misses (Python ``compile`` calls) in one ``codegen_compile_ms``
pass and in one ``gradient_ms`` pass, fewer than the corpus's expressions
where expressions of one shape share a source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from lieinv import covariant, invariants, liealg, verify  # noqa: E402
from lieinv import expr as ex  # noqa: E402
from lieinv import numeric as nm  # noqa: E402

import workloads  # noqa: E402


def equations() -> list:
    """The 70 equations of the covariant round trip (seed 61), parsed."""
    return [covariant.parse_pde(text)
            for text in workloads.make_covariant_roundtrip(61)["pdes"]]


def corpus() -> list:
    """The catalog's invariants and the covariant battery, deduplicated."""
    cfg = nm.SamplerConfig()
    exprs = []
    for rows in verify.TABLE_ROWS.values():
        for algebra, pipeline, m, params in rows:
            entry = liealg.catalog_lookup(algebra, params)
            inv = (invariants.type1_pipeline(entry, m, cfg) if pipeline == "free"
                   else invariants.type2_pipeline(entry, cfg))
            exprs += inv.exprs()
    for pde in equations():
        exprs += [pde.lhs, covariant.to_covariant(pde, cfg).lhs]
    return list(dict.fromkeys(exprs))


def _empty(x: ex.Expr, kids) -> None:
    if type(x) is not ex.Symbol:
        x._key = None
    x._free = x._fns = None


def fresh(e: ex.Expr) -> ex.Expr:
    """e, every node's caches emptied in place but a symbol's sort key."""
    ex._fold(e, _empty, lambda x: None)
    return e


def _diff_all(e):
    for s in sorted(e.free_symbols(), key=lambda s: (s.name, s.kind)):
        ex.diff(e, s)


def _substitute_all(e):
    ex.substitute(e, {s: ex.mul(2, s) for s in e.free_symbols()})


def _codegen_compile(e):
    ex._compile(ex._codegen(e))


def _gradient(e):
    wrt = tuple(sorted(e.free_symbols(), key=lambda s: (s.name, s.kind)))
    ex._compile(ex._codegen(e, wrt))


OPS = {
    "add_mul_ms": ex.simplify_basic,
    "diff_ms": _diff_all,
    "substitute_ms": _substitute_all,
    "expand_ms": ex.expand,
    "codegen_compile_ms": _codegen_compile,
    "gradient_ms": _gradient,
}


def _nodes(exprs) -> int:
    memo = {}
    for e in exprs:
        ex._fold(e, lambda x, kids: True, lambda x: None, memo)
    return len(memo)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    exprs = corpus()
    pdes = equations()
    times = {name: [] for name in [*OPS, "lift_ms"]}
    misses = {}
    for _ in range(args.repeats):
        for name, op in OPS.items():
            copies = [fresh(e) for e in exprs]
            ex._code.cache_clear()
            start = time.perf_counter()
            for e in copies:
                op(e)
            times[name].append((time.perf_counter() - start) * 1e3)
            misses[name] = ex._code.cache_info().misses
        lifts = [(covariant.ScalarPDE(p.space, fresh(p.lhs)),
                  covariant.wspace_for(p.space)) for p in pdes]
        covariant._implicit.cache_clear()
        start = time.perf_counter()
        for pde, wspace in lifts:
            covariant.lift(pde, wspace)
        times["lift_ms"].append((time.perf_counter() - start) * 1e3)
    out = {name: round(statistics.median(t), 2) for name, t in times.items()}
    out.update(code_misses={name: misses[name] for name in
                            ("codegen_compile_ms", "gradient_ms")},
               corpus_exprs=len(exprs), corpus_nodes=_nodes(exprs),
               repeats=args.repeats, python=platform.python_version())
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
