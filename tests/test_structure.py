"""Structural rules of the package source, checked with the stdlib `ast`.

The oracle's point policy lives in one loop, `numeric.at_regular_points`,
and what counts as a singular point is decided only by the evaluator that
`expr.compile_numeric` generates.  The covariant-form contract is checked
only where a `CovariantPDE` is made.  These tests keep it that way.
"""

import ast
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


def test_only_a_covariant_form_checks_its_contract():
    checks = {"homogeneity_degree", "rescale_invariance_check"}
    callers = {(module, scope) for module, scope, call in _nodes(ast.Call)
               if checks & _names(call.func)}
    assert callers == {("covariant", "__post_init__")}


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


def test_no_finiteness_check_outside_the_evaluator():
    found = [(module, scope, n.lineno)
             for module, scope, n in _nodes(ast.Attribute)
             if n.attr == "isfinite"]
    assert found == []
