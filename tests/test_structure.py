"""Structural rules of the package source, checked with the stdlib `ast`.

The oracle's point policy lives in one loop, `numeric.at_regular_points`,
under the one sampler configuration the command line builds, and what
counts as a singular point is decided only by the evaluator that
`expr.compile_numeric` generates.  Outside `jet`, only the annihilation
routine applies a prolonged field.  The covariant-form contract is checked
only where a `CovariantPDE` is made and, at degree 0, by `eliminate_w`;
only `covariant` builds its operators.  Only the kernel and the jet layer
differentiate symbolically: every other first-order operator check goes
through the annihilation routine.  Only the numeric checks, the covariant
degree fit and the realization gate loop over points, so the verification
suite has no oracle loop of its own, and no caller checks a family one
member at a time.  The expression kernel walks a tree
recursively only in its one fold, and every parameter is read.  The
frames are gated where they are made, in `liealg`'s gated-frame memo,
which only `invariants.realize` reaches, and every span the benchmark's
tracer names exists.  Only the kernel's compile helpers run `exec` or
`compile`, and every memo is an `lru_cache` with a bound.  Only
`jet.frame_jets` takes frame derivatives, so both pipelines share one
frame-jet table, and every imported name is read.  These tests keep it
that way.
"""

import ast
import importlib
from pathlib import Path

import lieinv

SOURCES = sorted(Path(lieinv.__file__).parent.glob("*.py"))


def _walk_with_scope(tree):
    """(node, enclosing function name or None) for every node of a module."""
    stack = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope is None else scope
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _nodes(kind):
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node, scope in _walk_with_scope(tree):
            if isinstance(node, kind):
                yield path.stem, scope, node


def _names(node):
    """Names mentioned by an expression (x, mod.x, (x, y))."""
    if node is None:
        return set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_sources_found():
    assert {p.stem for p in SOURCES} >= {"expr", "numeric", "covariant", "liealg"}


def test_only_the_sampling_loop_draws_points():
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if "sample_points" in _names(call.func)}
    assert callers == {("numeric", "at_regular_points")}


def test_only_the_cli_configures_the_sampler():
    # every check samples under the cfg it is handed, so --points, --seed
    # and --tol govern them all; no module keeps a point count of its own
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if "SamplerConfig" in _names(call.func)
               and (call.args or call.keywords)}
    assert callers == {("cli", "_sampler")}


def test_only_the_oracle_checks_loop_over_points():
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if "at_regular_points" in _names(call.func)}
    assert callers == {("numeric", "is_zero"),
                       ("numeric", "first_non_annihilating"),
                       ("numeric", "functional_rank"),
                       ("numeric", "equivalence_check"),
                       ("covariant", "homogeneity_degree"),
                       ("liealg", "verify_realization")}
    # called, or handed to map(): every use of the compiled gradient
    users = {(module, scope)
             for module, scope, n in _nodes((ast.Name, ast.Attribute))
             if module != "expr" and "compile_gradient" in _names(n)}
    assert users == {("numeric", "first_non_annihilating"),
                     ("numeric", "_jacobian"),
                     ("covariant", "homogeneity_degree")}


def test_each_family_is_checked_in_one_pass():
    # a family's members share one annihilation pass and one rank pass, so
    # no caller runs those checks once per member, in a loop or a
    # comprehension
    checks = {"annihilation_check", "first_non_annihilating",
              "functional_rank"}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for loop in ast.walk(tree):
            if isinstance(loop, loops):
                found += [(path.stem, call.lineno) for call in ast.walk(loop)
                          if isinstance(call, ast.Call)
                          and checks & _names(call.func)]
    assert found == []


def test_only_a_covariant_form_checks_its_contract():
    checks = {"homogeneity_degree", "rescale_invariance_check"}
    calls = [(module, scope, call) for module, scope, call in _nodes(ast.Call)
             if checks & _names(call.func)]
    assert {(module, scope) for module, scope, _ in calls} == \
        {("covariant", "__post_init__"), ("invariants", "eliminate_w")}
    # eliminate_w fits no degree: it checks the contract at degree 0
    assert [(_names(call.func) & checks,
             [(k.arg, ast.literal_eval(k.value)) for k in call.keywords])
            for module, _, call in calls if module == "invariants"] == \
        [({"rescale_invariance_check"}, [("degree", 0)])]


def test_only_covariant_builds_the_contract_operators():
    # D - k and the R_j are built where the contract is checked, so no
    # other module keeps its own list of them
    ops = {"euler_operator", "rescale_operators"}
    callers = {module for module, _, call in _nodes(ast.Call)
               if ops & _names(call.func)}
    assert callers == {"covariant"}


def test_no_broad_handler():
    found = [(module, scope, h.lineno)
             for module, scope, h in _nodes(ast.ExceptHandler)
             if h.type is None
             or _names(h.type) & {"Exception", "BaseException"}]
    assert found == []


def test_overflow_handled_only_in_expr():
    found = [(module, scope, h.lineno)
             for module, scope, h in _nodes(ast.ExceptHandler)
             if module != "expr" and "OverflowError" in _names(h.type)]
    assert found == []


def test_only_the_kernel_compiles_code():
    # generated sources are compiled in one place, behind the code memo
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if isinstance(call.func, ast.Name)
               and call.func.id in ("exec", "compile")}
    assert callers == {("expr", "_code"), ("expr", "_compile")}


def test_every_memo_is_bounded():
    # an unbounded memo grows with the run: every lru_cache is called with
    # a maxsize that is a positive int constant of its module, and
    # functools.cache is not used
    memos, unbounded = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        ints = {t.id: n.value.value for n in tree.body
                if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Constant)
                for t in n.targets if isinstance(t, ast.Name)}
        bounded = set()
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                size = {k.arg: k.value for k in call.keywords}.get("maxsize")
                size = ints.get(size.id) if isinstance(size, ast.Name) \
                    else getattr(size, "value", None)
                if type(size) is int and size > 0:
                    bounded.add(id(call.func))
        for n in ast.walk(tree):
            if isinstance(n, ast.FunctionDef):
                memos |= {(path.stem, n.name) for d in n.decorator_list
                          if "lru_cache" in _names(d)}
            name = n.id if isinstance(n, ast.Name) else \
                n.attr if isinstance(n, ast.Attribute) else None
            if name == "lru_cache" and id(n) not in bounded \
                    or name == "cache" and "functools" in _names(n.value) \
                    or isinstance(n, ast.alias) and n.name == "cache":
                unbounded.append((path.stem, n.lineno))
    assert unbounded == []
    assert memos == {("expr", "_code"), ("putzer", "_exp_poly_matrix"),
                     ("liealg", "_gated_frames"), ("jet", "_prolongation")}


def test_no_finiteness_check_outside_the_evaluator():
    found = [(module, scope, n.lineno)
             for module, scope, n in _nodes(ast.Attribute)
             if n.attr == "isfinite"]
    assert found == []


def test_only_the_annihilation_routine_applies_a_prolonged_field():
    # the oracle takes residuals from compiled gradients and builds one
    # symbolically only to decide a point; no finite-difference gradient
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if isinstance(call.func, ast.Attribute)
               and call.func.attr == "apply" and module != "jet"}
    assert callers == {("numeric", "first_non_annihilating")}
    assert [path.stem for path in SOURCES
            if "fd_gradient" in path.read_text(encoding="utf-8")] == []


def test_only_the_kernel_and_jet_differentiate():
    # Euler, rescaling and residual-jet checks are first-order operators
    # applied through numeric.first_non_annihilating, not symbolic diffs
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if "diff" in _names(call.func) and module not in ("expr", "jet")}
    assert callers == set()
    zero_tests = {(module, scope) for module, scope, call in _nodes(ast.Call)
                  if "is_zero" in _names(call.func)
                  and module in ("covariant", "invariants")}
    assert zero_tests == set()


def test_every_parameter_is_read():
    # a parameter nothing reads misstates what a function depends on.  A
    # method's receiver is bound by Python, so it is not counted; and
    # from_covariant keeps cfg and params because the benchmark's covariant
    # round trip (perfbench/workloads.py) calls from_covariant(cov, cfg)
    exempt = {("covariant", "from_covariant", "cfg"),
              ("covariant", "from_covariant", "params")}
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not any("staticmethod" in _names(d)
                               for d in f.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            if id(fn) in methods:
                params = params[1:]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.stem, fn.name, p) for p in params
                       if p not in read and (path.stem, fn.name, p) not in exempt]
    assert unread == []


def test_every_traced_span_exists():
    # the benchmark's tracer marks a traced run incorrect when a span names
    # something lieinv no longer has; SPANS is read without importing it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    spans = next(ast.literal_eval(n.value) for n in tree.body
                 if isinstance(n, ast.Assign)
                 and "SPANS" in _names(n.targets[0]))
    missing = []
    for span in spans:
        module, *attrs = span.split(".")
        obj = importlib.import_module(f"lieinv.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(span)
    assert spans and missing == []


def _qualified_callers(name):
    """(module, enclosing function or Class.method) of every call of name."""
    found = set()
    for path in SOURCES:
        stack = [(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, ast.Call) and name in _names(node.func):
                found.add((path.stem, scope))
            if isinstance(node, ast.ClassDef) and not scope:
                scope = node.name + "."
            elif isinstance(node, ast.FunctionDef) and scope[-1:] in ("", "."):
                scope += node.name
            stack.extend((c, scope) for c in ast.iter_child_nodes(node))
    return found


def test_only_realize_gates_frames():
    # the frames are built and gated in one place, the gated-frame memo
    # behind build_invariant_fields, and realize is its one caller in the
    # package, for both pipelines
    assert _qualified_callers("verify_realization") == {
        ("liealg", "_gated_frames")}
    assert _qualified_callers("_gated_frames") == {
        ("liealg", "build_invariant_fields")}
    assert _qualified_callers("build_invariant_fields") == {
        ("invariants", "realize")}


def _expr_functions():
    path = Path(lieinv.__file__).parent / "expr.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f for f in tree.body if isinstance(f, ast.FunctionDef)]


def _calls_to(node, name):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, ast.Name) and c.func.id == name]


def test_only_the_fold_walks_recursively():
    # the kernel has one recursive tree walk, _fold; the walks built on it
    # are its visitors, and only _fold breaks a closure's reference cycle
    functions = _expr_functions()
    self_calling_closures = {
        f.name for f in functions for g in ast.walk(f)
        if isinstance(g, ast.FunctionDef) and g is not f
        and _calls_to(g, g.name)}
    assert self_calling_closures == {"_fold"}
    visitors = {"expand", "diff", "simplify_basic", "substitute",
                "substitute_heads", "_codegen", "applications",
                "denominator_symbols"}
    assert {f.name for f in functions if f.name in visitors
            and not _calls_to(f, f.name)} == visitors
    assert {f.name for f in functions
            if any(isinstance(n, ast.Delete) for n in ast.walk(f))} == {"_fold"}


def test_only_frame_jets_takes_frame_derivatives():
    # both pipelines read X_i u and the symmetrized X_i X_j u from one
    # table, which takes each total derivative once
    assert _qualified_callers("frame_derivative") == {("jet", "frame_jets")}


def test_no_unused_import():
    # every imported name is read; the package re-exports through __all__,
    # and a __future__ import is a compiler directive
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {name for n in tree.body if isinstance(n, ast.Assign)
                 and "__all__" in _names(n.targets[0])
                 for name in ast.literal_eval(n.value)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Import, ast.ImportFrom)) \
                    and getattr(n, "module", None) != "__future__":
                unused += [(path.stem, a.asname or a.name) for a in n.names
                           if (a.asname or a.name).split(".")[0] not in read]
    assert unused == []
