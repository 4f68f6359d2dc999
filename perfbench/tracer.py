"""Per-layer spans and counters, recorded from the benchmark's own code.

``Tracer.install()`` wraps public lieinv functions and methods in place.  A
function is replaced wherever a lieinv module binds it, so a name imported
with ``from .invariants import type1_pipeline`` (as in ``verify``) is traced
too.  Spans nest: a span's ``self_ms`` is its time minus the time of the
traced spans it called.  For a recursive function only the outermost call
counts.  Spans stay in memory until ``metrics()`` reads them.

Counters, taken at the same boundaries:

* ``jet.ProlongedField.apply.out_nodes``: tree nodes of every result;
* ``numeric.is_zero.accepted`` / ``.rejected``: verdicts;
* ``numeric.points_evaluated`` / ``numeric.singular_points``: value
  evaluations made inside ``is_zero``, and those that raised
  ``SingularEvaluation``;
* ``expr.compile_numeric.compiled``: calls that returned an evaluator not
  returned before (the rest were compile-cache hits).
"""

from __future__ import annotations

import sys
import time
import weakref

import lieinv  # noqa: F401 - loads every submodule before install()
from lieinv import errors
from lieinv import expr as ex

SPANS = (
    "verify.template_spot_check", "verify.annihilation_check",
    "liealg.build_invariant_fields", "liealg.verify_realization",
    "putzer.exp_matrix_expr",
    "jet.prolong2", "jet.ProlongedField.apply",
    "invariants.type1_pipeline", "invariants.type2_pipeline",
    "invariants.eliminate_w", "invariants.instantiate_template",
    "numeric.is_zero", "numeric.functional_rank",
    "expr.compile_numeric", "expr.diff", "expr.substitute", "expr.expand",
    "covariant.to_covariant", "covariant.from_covariant",
    "covariant.homogeneity_degree", "covariant.rescale_invariance_check",
    "fixtures.Fixture.exprs", "verify.Report.to_json",
)
COUNTERS = (
    "jet.ProlongedField.apply.out_nodes",
    "numeric.is_zero.accepted", "numeric.is_zero.rejected",
    "numeric.points_evaluated", "numeric.singular_points",
    "expr.compile_numeric.compiled",
)


def tree_nodes(e) -> int:
    """Number of nodes of an expression tree (shared subtrees counted again)."""
    count, stack = 0, [e]
    while stack:
        x = stack.pop()
        count += 1
        if isinstance(x, ex.Add):
            stack.extend(x.terms)
        elif isinstance(x, ex.Mul):
            stack.extend(x.factors)
        elif isinstance(x, ex.Pow):
            stack.append(x.base)
        elif isinstance(x, ex.Func):
            stack.append(x.arg)
        elif isinstance(x, ex.Applied):
            stack.extend(x.args)
    return count


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0, 0] for name in SPANS}  # calls, ns, child ns
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self._stack = []  # child-time accumulators of the open spans
        self._open = set()
        self._seen = weakref.WeakSet()

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        span, stack, open_ = self.spans[name], self._stack, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            open_.add(name)
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                open_.discard(name)
                span[0] += 1
                span[1] += elapsed
                span[2] += child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                # counting time is tracer overhead, not the caller's self time
                t0 = clock()
                result = after(result, args, kwargs)
                if stack:
                    stack[-1] += clock() - t0
            return result

        return traced

    def install(self) -> None:
        after = {
            "jet.ProlongedField.apply": self._count_nodes,
            "numeric.is_zero": self._count_verdict,
            "expr.compile_numeric": self._count_compiled,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "lieinv" or n.startswith("lieinv.")]
        for name in SPANS:
            module, _, attr = name.partition(".")
            owner = sys.modules.get(f"lieinv.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = method
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            traced = self._wrap(name, fn, after.get(name))
            if cls_name:
                setattr(owner, attr, traced)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)

    # -- counters --------------------------------------------------------------
    def _count_nodes(self, result, args, kwargs):
        self.counters["jet.ProlongedField.apply.out_nodes"] += tree_nodes(result)
        return result

    def _count_verdict(self, result, args, kwargs):
        key = "accepted" if result else "rejected"
        self.counters[f"numeric.is_zero.{key}"] += 1
        return result

    def _count_compiled(self, fn, args, kwargs):
        if fn not in self._seen:
            self._seen.add(fn)
            self.counters["expr.compile_numeric.compiled"] += 1
        magnitude = kwargs.get("magnitude", args[1] if len(args) > 1 else False)
        if magnitude:
            return fn
        counters, open_ = self.counters, self._open

        def evaluate(point):
            if "numeric.is_zero" not in open_:
                return fn(point)
            counters["numeric.points_evaluated"] += 1
            try:
                return fn(point)
            except errors.SingularEvaluation:
                counters["numeric.singular_points"] += 1
                raise

        return evaluate

    # -- output ----------------------------------------------------------------
    def metrics(self) -> dict:
        out = {}
        for name, (calls, ns, child) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = ns / 1e6
            out[f"{name}.self_ms"] = (ns - child) / 1e6
        out.update(self.counters)
        return out

