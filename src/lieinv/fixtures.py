"""Golden fixtures: published invariant tables, transcribed verbatim.

Each fixture stores the printed second-order differential invariants for one
algebra and pipeline as expression strings; they are parsed on demand into
the matching jet space.  Three transcription corrections are applied, all
confirmed against the annihilation oracle (the printed variants fail it):

  * transitive g3_5, last invariant: the second term reads
    `2 u_xy cos 2u` (the printed duplicate `sin 2u` breaks annihilation and
    contradicts the matching free-pipeline row);
  * transitive g3_7, second first-order invariant: `u_x sin u / cos y`
    (the printed form duplicates `u_x`; the worked-example display has the
    correct expression);
  * free g3_7, the three mixed frame invariants u_(11), u_(12), u_(22):
    each printed form omits its u_33 tan^2(x2) * {cos^2 x3, sin x3 cos x3,
    sin^2 x3} term, without which the expression is not annihilated by the
    second and third prolonged generators.

The `SO3_*` constants carry the worked so(3) example: the printed frames,
the raw invariants v_1..v_23, and the recombined forms with their defining
identities, used as structural and numerical oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import expr as ex
from . import liealg
from .jet import JetSpace


@dataclass(frozen=True)
class Fixture:
    """Printed invariants for one algebra/pipeline, as grammar strings."""

    algebra: str
    pipeline: str  # "free" | "transitive"
    coords: tuple
    dep: str
    params: tuple  # parameter names usable in the strings
    invariants: tuple  # (label, expression string)

    def space(self) -> JetSpace:
        return JetSpace(self.coords, self.dep, params=self.params)

    def parsed(self) -> List[Tuple[str, ex.Expr]]:
        sp = self.space()
        return [(label, sp.parse(text)) for label, text in self.invariants]

    def exprs(self) -> List[ex.Expr]:
        return [e for _, e in self.parsed()]


# ---------------------------------------------------------------------------
# Pipeline "transitive": tables of v_a, v_ij per algebra


_TRANSITIVE: Dict[str, tuple] = {
    "2g1": (("x",), "u", (), (
        ("v_1", "u_x"),
        ("v_12", "u_xx"),
    )),
    "g2": (("x",), "u", (), (
        ("v_1", "exp(u)*u_x"),
        ("v_12", "exp(2*u)*u_xx"),
    )),
    "3g1": (("x", "y"), "u", (), (
        ("v_1", "u_x"),
        ("v_2", "u_y"),
        ("v_12", "u_xx"),
        ("v_13", "u_xy"),
        ("v_23", "u_yy"),
    )),
    "g1+g2": (("x", "y"), "u", (), (
        ("v_1", "exp(y)*u_x"),
        ("v_2", "u_y"),
        ("v_12", "exp(2*y)*u_xx"),
        ("v_13", "exp(y)*u_xy"),
        ("v_23", "u_yy"),
    )),
    "g3_1": (("x", "y"), "u", (), (
        ("v_2", "u_x - y"),
        ("v_3", "u_y"),
        ("v_12", "u_xx"),
        ("v_13", "u_xy"),
        ("v_23", "u_yy"),
    )),
    "g3_2": (("y", "x"), "u", (), (
        ("v_2", "exp(-x)*u_x"),
        ("v_3", "u_y - x"),
        ("v_12", "exp(-x)*u_xx"),
        ("v_13", "u_xy"),
        ("v_23", "exp(x)*u_yy"),
    )),
    "g3_3": (("x", "y"), "u", (), (
        ("v_1", "exp(u)*u_x"),
        ("v_2", "exp(u)*u_y"),
        ("v_12", "exp(2*u)*u_xx"),
        ("v_13", "exp(2*u)*u_xy"),
        ("v_23", "exp(2*u)*u_yy"),
    )),
    "g3_4": (("x", "y"), "u", ("h",), (
        ("v_1", "exp(u)*u_x"),
        ("v_2", "exp(h*u)*u_y"),
        ("v_12", "exp(2*u)*u_xx"),
        ("v_13", "exp((1+h)*u)*u_xy"),
        ("v_23", "exp(2*h*u)*u_yy"),
    )),
    "g3_5": (("x", "y"), "u", ("p",), (
        ("v_1", "exp(p*u)*(u_x*cos(u) - u_y*sin(u))"),
        ("v_2", "exp(p*u)*(u_x*sin(u) + u_y*cos(u))"),
        ("v_12", "exp(2*p*u)*(u_xx + u_yy)"),
        ("v_13", "exp(2*p*u)*((u_xx - u_yy)*cos(2*u) - 2*u_xy*sin(2*u))"),
        # transcription fix: second term is cos 2u, not sin 2u
        ("v_23", "exp(2*p*u)*((u_xx - u_yy)*sin(2*u) + 2*u_xy*cos(2*u))"),
    )),
    "g3_6": (("x", "y"), "u", (), (
        ("v_1", "exp(y)*u_x + u_y^2"),
        ("v_2", "u_y - u"),
        ("v_12", "u_yy - u"),
        ("v_13", "exp(y)*u_xy + 2*u*u_yy - u^2"),
        ("v_23", "exp(2*y)*u_xx + 2*u*(u*(2*u_yy + u_y - u) + exp(y)*(u_x + 2*u_xy))"),
    )),
    "g3_7": (("x", "y"), "u", (), (
        ("v_1", "u_x*cos(u)/cos(y) - u_y*sin(u) - cos(u)*tan(y)"),
        # transcription fix: printed duplicate u_x removed
        ("v_2", "u_x*sin(u)/cos(y) + u_y*cos(u) - sin(u)*tan(y)"),
        ("v_12", "u_xx/cos(y)^2 + u_yy - u_y*tan(y)"),
        ("v_13", "cos(2*u)*(u_xx/cos(y)^2 - u_yy - 2*u_x*u_y/cos(y) + u_y*tan(y))"
                 " + sin(2*u)*(-2*u_xy/cos(y) + u_y^2 + (1 - u_x^2)/cos(y)^2)"),
        ("v_23", "-sin(2*u)*(u_xx/cos(y)^2 - u_yy - 2*u_x*u_y/cos(y) + u_y*tan(y))"
                 " + cos(2*u)*(-2*u_xy/cos(y) + u_y^2 + (1 - u_x^2)/cos(y)^2)"),
    )),
}


# ---------------------------------------------------------------------------
# Pipeline "free": invariants per algebra, parameterized by m
#
# Entries list (label, expr) with placeholders: strings containing "MU"
# are emitted once per transversal coordinate y^mu.

_FREE: Dict[str, tuple] = {
    "g1": ((), (
        ("u_(1)", "u_x1"),
        ("u_(11)", "u_x1x1"),
    ), (
        ("u_(1)_MU", "u_x1MU"),
    )),
    "2g1": ((), (
        ("u_(1)", "u_x1"),
        ("u_(2)", "u_x2"),
        ("u_(11)", "u_x1x1"),
        ("u_(12)", "u_x1x2"),
        ("u_(22)", "u_x2x2"),
    ), (
        ("u_(1)_MU", "u_x1MU"),
        ("u_(2)_MU", "u_x2MU"),
    )),
    "g2": ((), (
        ("u_(1)", "exp(x2)*u_x1"),
        ("u_(2)", "u_x2"),
        ("u_(11)", "exp(2*x2)*u_x1x1"),
        ("u_(12)", "exp(x2)*(u_x1x2 + u_x1/2)"),
        ("u_(22)", "u_x2x2"),
    ), (
        ("u_(1)_MU", "exp(x2)*u_x1MU"),
        ("u_(2)_MU", "u_x2MU"),
    )),
    "3g1": ((), (
        ("u_(1)", "u_x1"),
        ("u_(2)", "u_x2"),
        ("u_(3)", "u_x3"),
        ("u_(11)", "u_x1x1"),
        ("u_(12)", "u_x1x2"),
        ("u_(13)", "u_x1x3"),
        ("u_(22)", "u_x2x2"),
        ("u_(23)", "u_x2x3"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "u_x1MU"),
        ("u_(2)_MU", "u_x2MU"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g1+g2": ((), (
        ("u_(1)", "exp(x2)*u_x1"),
        ("u_(2)", "u_x2"),
        ("u_(3)", "u_x3"),
        ("u_(11)", "exp(2*x2)*u_x1x1"),
        ("u_(12)", "exp(x2)*(u_x1x2 + u_x1/2)"),
        ("u_(13)", "exp(x2)*u_x1x3"),
        ("u_(22)", "u_x2x2"),
        ("u_(23)", "u_x2x3"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "exp(x2)*u_x1MU"),
        ("u_(2)_MU", "u_x2MU"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_1": ((), (
        ("u_(1)", "u_x1"),
        ("u_(2)", "x3*u_x1 + u_x2"),
        ("u_(3)", "u_x3"),
        ("u_(11)", "u_x1x1"),
        ("u_(12)", "x3*u_x1x1 + u_x1x2"),
        ("u_(13)", "u_x1x3"),
        ("u_(22)", "x3^2*u_x1x1 + 2*x3*u_x1x2 + u_x2x2"),
        ("u_(23)", "x3*u_x1x3 + u_x2x3 + u_x1/2"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "u_x1MU"),
        ("u_(2)_MU", "x3*u_x1MU + u_x2MU"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_2": ((), (
        ("u_(1)", "exp(x3)*u_x1"),
        ("u_(2)", "exp(x3)*(x3*u_x1 + u_x2)"),
        ("u_(3)", "u_x3"),
        ("u_(11)", "exp(2*x3)*u_x1x1"),
        ("u_(12)", "exp(2*x3)*(x3*u_x1x1 + u_x1x2)"),
        ("u_(13)", "exp(x3)*(u_x1x3 + u_x1/2)"),
        ("u_(22)", "exp(2*x3)*(x3^2*u_x1x1 + 2*x3*u_x1x2 + u_x2x2)"),
        ("u_(23)", "exp(x3)*x3*(u_x1x3 + u_x1/2) + exp(x3)*(u_x2x3 + (u_x1 + u_x2)/2)"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "exp(x3)*u_x1MU"),
        ("u_(2)_MU", "exp(x3)*(x3*u_x1MU + u_x2MU)"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_3": ((), (
        ("u_(1)", "exp(x3)*u_x1"),
        ("u_(2)", "exp(x3)*u_x2"),
        ("u_(3)", "u_x3"),
        ("u_(11)", "exp(2*x3)*u_x1x1"),
        ("u_(12)", "exp(2*x3)*u_x1x2"),
        ("u_(13)", "exp(x3)*(u_x1x3 + u_x1/2)"),
        ("u_(22)", "exp(2*x3)*u_x2x2"),
        ("u_(23)", "exp(x3)*(u_x2x3 + u_x2/2)"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "exp(x3)*u_x1MU"),
        ("u_(2)_MU", "exp(x3)*u_x2MU"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_4": (("h",), (
        ("u_(1)", "exp(x3)*u_x1"),
        ("u_(2)", "exp(h*x3)*u_x2"),
        ("u_(3)", "u_x3"),
        ("u_(11)", "exp(2*x3)*u_x1x1"),
        ("u_(12)", "exp((1+h)*x3)*u_x1x2"),
        ("u_(13)", "exp(x3)*(u_x1x3 + u_x1/2)"),
        ("u_(22)", "exp(2*h*x3)*u_x2x2"),
        ("u_(23)", "exp(h*x3)*(u_x2x3 + h*u_x2/2)"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "exp(x3)*u_x1MU"),
        ("u_(2)_MU", "exp(h*x3)*u_x2MU"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_5": (("p",), (
        ("u_(1)", "exp(p*x3)*(u_x1*cos(x3) - u_x2*sin(x3))"),
        ("u_(2)", "exp(p*x3)*(u_x1*sin(x3) + u_x2*cos(x3))"),
        ("u_(3)", "u_x3"),
        ("u_(11)+u_(22)", "exp(2*p*x3)*(u_x1x1 + u_x2x2)"),
        ("u_(11)-u_(22)",
         "exp(2*p*x3)*((u_x1x1 - u_x2x2)*cos(2*x3) - 2*u_x1x2*sin(2*x3))"),
        ("u_(12)",
         "exp(2*p*x3)*((u_x1x1 - u_x2x2)*sin(2*x3) + 2*u_x1x2*cos(2*x3))"),
        ("u_(13)",
         "exp(p*x3)*((u_x1x3 + (p*u_x1 - u_x2)/2)*cos(x3)"
         " - (u_x2x3 + (p*u_x2 + u_x1)/2)*sin(x3))"),
        ("u_(23)",
         "exp(p*x3)*((u_x1x3 + (p*u_x1 - u_x2)/2)*sin(x3)"
         " + (u_x2x3 + (p*u_x2 + u_x1)/2)*cos(x3))"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "exp(p*x3)*(u_x1MU*cos(x3) - u_x2MU*sin(x3))"),
        ("u_(2)_MU", "exp(p*x3)*(u_x1MU*sin(x3) + u_x2MU*cos(x3))"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_6": ((), (
        ("u_(1)", "exp(x2)*u_x1 + 2*x3*u_x2 + x3^2*u_x3"),
        ("u_(2)", "u_x2 + x3*u_x3"),
        ("u_(3)", "u_x3"),
        ("u_(11)",
         "1/4*exp(2*x2)*u_x1x1 + exp(x2)*x3*(u_x1x2 + (x3*u_x1x3 + u_x1)/2)"
         " + x3^2*(x3*u_x2x3 + u_x2x2 + (u_x2 + x3*u_x3)/2 + x3^2*u_x3x3/4)"),
        ("u_(12)",
         "exp(x2)*(u_x1x2 + x3*u_x1x3 + u_x1/2) + x3^3*u_x3x3"
         " + 3*x3^2*(u_x2x3 + u_x3/2) + x3*(2*u_x2x2 + u_x2)"),
        ("u_(13)", "exp(x2)*u_x1x3 + x3^2*u_x3x3 + x3*(2*u_x2x3 + u_x3) + u_x2"),
        ("u_(22)", "x3^2*u_x3x3 + x3*(2*u_x2x3 + u_x3) + u_x2x2"),
        ("u_(23)", "x3*u_x3x3 + u_x2x3 + u_x3/2"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "exp(x2)*u_x1MU + 2*x3*u_x2MU + x3^2*u_x3MU"),
        ("u_(2)_MU", "x3*u_x3MU + u_x2MU"),
        ("u_(3)_MU", "u_x3MU"),
    )),
    "g3_7": ((), (
        ("u_(1)", "u_x1*cos(x3)/cos(x2) - u_x2*sin(x3) + u_x3*tan(x2)*cos(x3)"),
        ("u_(2)", "u_x1*sin(x3)/cos(x2) + u_x2*cos(x3) + u_x3*tan(x2)*sin(x3)"),
        ("u_(3)", "u_x3"),
        ("u_(11)",
         "u_x1x1*cos(x3)^2/cos(x2)^2 - u_x1x2*sin(2*x3)/cos(x2)"
         " + 2*u_x1x3*tan(x2)*cos(x3)^2/cos(x2) + u_x2x2*sin(x3)^2"
         " - u_x2x3*tan(x2)*sin(2*x3) - u_x1*tan(x2)*sin(2*x3)/cos(x2)"
         " - u_x2*tan(x2)*cos(x3)^2 - u_x3*(1/2 + tan(x2)^2)*sin(2*x3)"
         " + u_x3x3*tan(x2)^2*cos(x3)^2"),
        ("u_(12)",
         "u_x1x1*sin(2*x3)/(2*cos(x2)^2) + u_x1x2*cos(2*x3)/cos(x2)"
         " + u_x1x3*tan(x2)*sin(2*x3)/cos(x2) - 1/2*u_x2x2*sin(2*x3)"
         " + u_x2x3*tan(x2)*cos(2*x3) + u_x1*tan(x2)*cos(2*x3)/cos(x2)"
         " - 1/2*u_x2*tan(x2)*sin(2*x3) + u_x3*(1/2 + tan(x2)^2)*cos(2*x3)"
         " + 1/2*u_x3x3*tan(x2)^2*sin(2*x3)"),
        ("u_(22)",
         "u_x1x1*sin(x3)^2/cos(x2)^2 + u_x1x2*sin(2*x3)/cos(x2)"
         " + 2*u_x1x3*tan(x2)*sin(x3)^2/cos(x2) + u_x2x2*cos(x3)^2"
         " + u_x2x3*tan(x2)*sin(2*x3) + u_x1*tan(x2)*sin(2*x3)/cos(x2)"
         " - u_x2*tan(x2)*sin(x3)^2 + u_x3*(1/2 + tan(x2)^2)*sin(2*x3)"
         " + u_x3x3*tan(x2)^2*sin(x3)^2"),
        ("u_(13)",
         "u_x1x3*cos(x3)/cos(x2) - u_x2x3*sin(x3) + u_x3x3*cos(x3)*tan(x2)"
         " - u_x1*sin(x3)/(2*cos(x2)) - u_x2*cos(x3)/2 - u_x3*sin(x3)*tan(x2)/2"),
        ("u_(23)",
         "u_x1x3*sin(x3)/cos(x2) + u_x2x3*cos(x3) + u_x3x3*sin(x3)*tan(x2)"
         " + u_x1*cos(x3)/(2*cos(x2)) - u_x2*sin(x3)/2 + u_x3*cos(x3)*tan(x2)/2"),
        ("u_(33)", "u_x3x3"),
    ), (
        ("u_(1)_MU", "u_x1MU*cos(x3)/cos(x2) - u_x2MU*sin(x3) + u_x3MU*cos(x3)*tan(x2)"),
        ("u_(2)_MU", "u_x1MU*sin(x3)/cos(x2) + u_x2MU*cos(x3) + u_x3MU*sin(x3)*tan(x2)"),
        ("u_(3)_MU", "u_x3MU"),
    )),
}

FREE_NAMES = tuple(_FREE)
TRANSITIVE_NAMES = tuple(_TRANSITIVE)


def transitive_fixture(name: str) -> Fixture:
    if name not in _TRANSITIVE:
        raise KeyError(name)
    coords, dep, params, invs = _TRANSITIVE[name]
    return Fixture(name, "transitive", coords, dep, params, invs)


def free_fixture(name: str, m: int = 1) -> Fixture:
    """Free-pipeline fixture with m invariant variables (m - 1 transversal)."""
    if name not in _FREE:
        raise KeyError(name)
    if m < 1:
        raise ValueError("m must be at least 1")
    params, orbit_invs, mixed = _FREE[name]
    n = liealg.catalog_lookup(name).dim
    ys = tuple(f"y{mu}" for mu in range(1, m))
    coords = tuple(f"x{i}" for i in range(1, n + 1)) + ys
    items: List[Tuple[str, str]] = []
    for mu in ys:
        items.append((mu, mu))
    items.append(("u", "u"))
    for mu in ys:
        items.append((f"u_{mu}", f"u_{mu}"))
    items.extend(orbit_invs[:n])          # first-order orbit invariants
    for a, mu in enumerate(ys):
        for nu in ys[a:]:
            items.append((f"u_{mu}{nu}", f"u_{mu}{nu}"))
    items.extend(orbit_invs[n:])          # second-order orbit invariants
    for label_t, expr_t in mixed:
        for mu in ys:
            items.append((label_t.replace("MU", mu), expr_t.replace("MU", mu)))
    return Fixture(name, "free", coords, "u", params, tuple(items))


# ---------------------------------------------------------------------------
# Worked so(3) example: printed frames and recombination identities


SO3_COORDS = ("x", "y", "u")

SO3_XI = (
    {"x": "1", "y": "0", "u": "0"},
    {"x": "sin(x)*tan(y)", "y": "cos(x)", "u": "sin(x)/cos(y)"},
    {"x": "cos(x)*tan(y)", "y": "-sin(x)", "u": "cos(x)/cos(y)"},
)

SO3_ETA = (
    {"x": "cos(u)/cos(y)", "y": "-sin(u)", "u": "cos(u)*tan(y)"},
    {"x": "sin(u)/cos(y)", "y": "cos(u)", "u": "sin(u)*tan(y)"},
    {"x": "0", "y": "0", "u": "1"},
)

# raw invariants of the worked example (split variables x, y; dependent u)
SO3_V = {
    "v_1": "u_x*cos(u)/cos(y) - u_y*sin(u) - cos(u)*tan(y)",
    "v_2": "u_x*sin(u)/cos(y) + u_y*cos(u) - sin(u)*tan(y)",
    "v_12": "(u_xx*u_y^2 + 2*u_xy*u_y*(sin(y) - u_x) + u_yy*(u_x - sin(y))^2"
            " + 1/2*(1 - u_y^2)*u_y*sin(2*y) - 3*u_x*u_y*cos(y)"
            " - 2*(1 + u_x^2)*u_y*tan(y) + 4*u_x*u_y/cos(y))/cos(y)^2",
    "v_13": "u_xx*cos(u)^2/cos(y)^2 - u_xy*sin(2*u)/cos(y) + u_yy*sin(u)^2"
            " + 1/2*(u_y^2 - u_x^2/cos(y)^2)*sin(2*u) - u_x*u_y*cos(2*u)/cos(y)"
            " - u_y*tan(y)*sin(u)^2 + sin(2*u)/(1 + cos(2*y))",
    "v_23": "u_xx*sin(u)^2/cos(y)^2 + u_xy*sin(2*u)/cos(y) + u_yy*cos(u)^2"
            " - 1/2*((1 - u_x^2)/cos(y)^2 + u_y^2)*sin(2*u)"
            " + u_x*u_y*cos(2*u)/cos(y) - u_y*cos(u)^2*tan(y)",
}

# recombined invariants and their defining identities
SO3_V_TILDE = {
    "tv_12": "u_xx/cos(y)^2 + u_yy - u_y*tan(y)",
    "tv_13": "cos(2*u)*(u_xx/cos(y)^2 - u_yy - 2*u_x*u_y/cos(y) + u_y*tan(y))"
             " + sin(2*u)*(-2*u_xy/cos(y) + u_y^2 + (1 - u_x^2)/cos(y)^2)",
    "tv_23": "-sin(2*u)*(u_xx/cos(y)^2 - u_yy - 2*u_x*u_y/cos(y) + u_y*tan(y))"
             " + cos(2*u)*(-2*u_xy/cos(y) + u_y^2 + (1 - u_x^2)/cos(y)^2)",
}

# The published display swaps the first and third relations; its own closed
# forms (and the numeric oracle) satisfy the assignment below:
# tv_12 = v_13 + v_23; tv_13 = v_13 - v_23;
# tv_23 = (v_12 - v_1^2 v_23 - v_2^2 v_13)/(v_1 v_2)
SO3_RECOMBINATION = (
    ("tv_12", "v_13 + v_23"),
    ("tv_13", "v_13 - v_23"),
    ("tv_23", "(v_12 - v_1^2*v_23 - v_2^2*v_13)/(v_1*v_2)"),
)
