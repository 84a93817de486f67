"""Quasi-static dissolved-field solves checked against closed forms.

The substrate and planktonic profiles obey -D v'' = r(v) on [0, L] with a
no-flux substratum and the bulk value at the interface.  Two cases have
closed-form solutions that pin the solver down:

* constant sink  r = -q:        v = v_bulk - (q L^2 / 2D)(1 - (z/L)^2)
* linear sink    r = -k v:      v = v_bulk cosh(z sqrt(k/D)) / cosh(L sqrt(k/D))

Both go through the damped Newton solve that the substrates use, started
from the bulk value; on these linear problems the first step is exact.

Runtime: ~1 s.
"""

import math

import numpy as np

from biofilm1d.elliptic import solve_problem

print(__doc__)

D, L, bulk = 1e-5, 1e-3, 100.0


def solve(reaction, jacobian, N):
    return solve_problem(reaction, jacobian, np.full(N + 1, bulk), bulk,
                         (L / N) ** 2 / D, 1e-9, 50)


q = 100.0
sol = solve(lambda v: np.full_like(v, -q), np.zeros_like, 200)
print(f"constant sink, q = {q}: v(0) = {sol.values[0]:.12f} "
      f"(closed form: {bulk - q * L * L / (2 * D):.1f})")
print("  central differences are exact on quadratics, so the discrete "
      "solution matches to round-off at any resolution\n")

k = 5.0
mu = math.sqrt(k / D)
print(f"linear sink, k = {k} 1/d  (decay argument L sqrt(k/D) = {mu * L:.3f}):")
print("   N    max nodal error      ratio")
prev = None
for N in (50, 100, 200, 400, 800):
    zeta = np.linspace(0.0, 1.0, N + 1)
    exact = bulk * np.cosh(mu * zeta * L) / math.cosh(mu * L)
    sol = solve(lambda v: -k * v, lambda v: np.full_like(v, -k), N)
    err = float(np.max(np.abs(sol.values - exact)))
    print(f"  {N:4d}   {err:.6e}    " + (f"{prev / err:9.2f}" if prev else "      -"))
    prev = err
print("the ratio settles at 4: the ghost-node Neumann closure keeps the "
      "scheme second order all the way to the wall.\n")

k_hard = (2.5 / 2e-7) * (100.0 / 101.0)
print("with the colonization parameters the sink is k = k_col/Y_psi * monod "
      f"= {k_hard:.3e} 1/d;")
print(f"continuum attenuation over L = 1e-4 m: 1/cosh(L sqrt(k/D)) = "
      f"{2.0 * math.exp(-1e-4 * math.sqrt(k_hard / D)):.2e}")
print("resolving that layer needs N >= L / (0.5 sqrt(D_psi Y_psi / k_col)) "
      f"= {1e-4 / (0.5 * math.sqrt(1e-5 * 2e-7 / 2.5)):.0f}; a run whose grid "
      "falls short at its largest L emits one BoundaryLayerResolutionWarning "
      "per species.")
