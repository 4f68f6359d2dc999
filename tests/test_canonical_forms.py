"""Golden canonical forms: derived invariants, templates and covariant forms.

The report of `reproduce all` pins only verdicts.  This test pins the
rendered canonical trees themselves, so a kernel change that alters a sort
order, a folded constant or a rendered exponent shows up here even when
every verdict stays the same.
"""

import hashlib
from fractions import Fraction

from lieinv import covariant as cov
from lieinv import liealg
from lieinv import numeric as nm
from lieinv.invariants import type1_pipeline, type2_pipeline

from test_covariant import PDE_BATTERY

CFG = nm.SamplerConfig()
# sha256 over the lines built by _canonical_lines()
CANONICAL_FORMS_SHA256 = (
    "fd4f3217d704529bb789d2deaaf6b59ab0ee52e509cd400b272d345c29a8331d")


def _canonical_lines():
    g3_7 = liealg.catalog_lookup("g3_7", {})
    g3_4 = liealg.catalog_lookup("g3_4", {"h": Fraction(1, 2)})
    lines = [
        type1_pipeline(g3_7, 2, CFG).to_json(),
        type2_pipeline(g3_7, CFG).to_json(),
        type2_pipeline(g3_4, CFG).to_json(),
    ]
    for text in PDE_BATTERY:
        lines.append(str(cov.to_covariant(cov.parse_pde(text), CFG)))
    return lines


def test_canonical_forms_unchanged():
    blob = "\n".join(_canonical_lines()).encode()
    assert hashlib.sha256(blob).hexdigest() == CANONICAL_FORMS_SHA256
