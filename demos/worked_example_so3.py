"""Walk through the full simply-transitive pipeline for so(3).

Builds the commuting left/right invariant frames from the structure
constants, runs the realization gate, derives the first- and second-order
differential invariants, and prints an invariant equation template.

Run:  python3 demos/worked_example_so3.py
"""

from lieinv import expr as ex
from lieinv import numeric as nm
from lieinv.invariants import type2_pipeline
from lieinv.liealg import catalog_lookup, verify_realization

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

xi, eta = entry.fields()
print("\n== invariant frames ==")
for name, fields in (("xi", xi), ("eta", eta)):
    for idx, f in enumerate(fields, start=1):
        comps = ", ".join(f"{c}: {ex.render(comp)}" for c, comp in f.components)
        print(f"  {name}_{idx} = [{comps}]")

gate = verify_realization(xi, eta, entry.sc, cfg, entry.param_map)
print(f"\nrealization gate: {'PASS' if gate.passed else 'FAIL'}")

inv = type2_pipeline(entry, cfg)  # raises unless every check passes
print("\n== differential invariants (verified numerically) ==")
for label, e in inv.labelled().items():
    print(f"  {label} = {ex.render(e)}")

template = inv.template
print("\n== invariant quasi-linear template ==")
print(f"  {ex.render(template.lhs)} = 0")
print(f"  free coefficient heads: {', '.join(template.heads)}")
