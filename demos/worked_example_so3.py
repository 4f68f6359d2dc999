"""Walk through the full simply-transitive pipeline for so(3).

Builds the commuting left/right invariant frames from the structure
constants (they arrive gated: the builder runs the realization gate before
it returns them), derives the first- and second-order differential
invariants, and prints an invariant equation template.

Run:  python3 demos/worked_example_so3.py
"""

from lieinv import expr as ex
from lieinv import numeric as nm
from lieinv.invariants import type2_pipeline
from lieinv.liealg import (build_invariant_fields, catalog_lookup,
                            verify_realization)

cfg = nm.SamplerConfig()
entry = catalog_lookup("so3", {})

print("== structure constants ==")
n = entry.sc.dim
for i in range(1, n + 1):
    for j in range(i + 1, n + 1):
        terms = [(k, entry.sc.coeff(i, j, k)) for k in range(1, n + 1)]
        rhs = " + ".join(f"({c})*e{k}" for k, c in terms if c)
        if rhs:
            print(f"  [e{i}, e{j}] = {rhs}")

# gated where they are made: raises VerificationFailed on a failing gate
xi, eta = build_invariant_fields(entry.sc, entry.split_space(), cfg)
print("\nrealization gate: PASS")
print("\n== invariant frames ==")
for name, fields in (("xi", xi), ("eta", eta)):
    for idx, f in enumerate(fields, start=1):
        comps = ", ".join(f"{c}: {ex.render(comp)}" for c, comp in f.components)
        print(f"  {name}_{idx} = [{comps}]")

verify_realization(xi, eta, entry.sc, cfg)  # the same gate, run by hand
print("\nrealization gate, run again on the frames shown: PASS")

inv = type2_pipeline(entry, cfg)  # raises unless every check passes
print("\n== differential invariants (verified numerically) ==")
for label, e in inv.labelled().items():
    print(f"  {label} = {ex.render(e)}")

template = inv.template
print("\n== invariant quasi-linear template ==")
print(f"  {ex.render(template.lhs)} = 0")
print(f"  free coefficient heads: {', '.join(template.heads)}")
