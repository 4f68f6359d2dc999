"""Convert a quasi-linear PDE to its homogeneous covariant form and back.

The covariant form rewrites a second-order PDE for u(x, y) in terms of the
first and second derivatives of an implicit level function w(x, y, u); the
result is homogeneous under rescaling w -> f(w) and recovers the original
equation on the normalized section.

Run:  python3 demos/covariant_round_trip.py
"""

from lieinv import expr as ex
from lieinv import numeric as nm
from lieinv.covariant import from_covariant, parse_pde, to_covariant

cfg = nm.SamplerConfig()

EXAMPLES = [
    "coords: x, y; dep: u\nlhs: u_xx + u_yy",
    "coords: x, y; dep: u\nlhs: u_xx*u_yy - u_xy^2",
    "coords: x, y; dep: u\nlhs: u_xy + u_x*u_y",
]

for text in EXAMPLES:
    pde = parse_pde(text)
    print(f"original:   {ex.render(pde.lhs)} = 0")
    cov = to_covariant(pde, cfg)  # raises unless homogeneous and invariant
    print(f"covariant:  {ex.render(cov.lhs)} = 0")
    print(f"  homogeneity degree: {cov.degree}")
    print("  invariant under w -> f(w): yes")
    back = from_covariant(cov, cfg)
    diff = ex.add(back.lhs, ex.mul(ex.Const(-1), pde.lhs))
    same = nm.is_zero(diff, cfg)
    print(f"  round trip recovers original: {'yes' if same else 'NO'}\n")
