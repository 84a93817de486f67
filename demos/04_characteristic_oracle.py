"""The integral-equation oracle: fixed point, contraction window, cross-check.

In the attachment regime the whole free-boundary system can be rewritten as
integral equations along characteristics.  Successive substitution of that
map contracts for short horizons, which yields (i) an independent solver to
cross-validate the time stepper and (ii) a computable horizon T_star on
which existence and uniqueness of the solution are guaranteed by the
contraction-mapping argument: the map shrinks distances by at least
Lambda(T) = a T^2 + b T, and T_star keeps Lambda below one alongside the
kernel-bound caps.

Runtime: ~1 s.
"""

import dataclasses

import numpy as np

from biofilm1d import (box_from_run, build_preset, cross_check_errors,
                       estimate_contraction, map_run_to_char_grid, picard_solve,
                       run)

print(__doc__)

cfg = build_preset("case1").cfg
T_o = 0.02

fields, history = picard_solve(cfg, T_o=T_o, grid_n=50)
print(f"fixed-point iteration on [0, {T_o}] d, grid 50:")
for k, d in enumerate(history, start=1):
    print(f"  iterate {k}: distance {d:.3e}")
print(f"interface grew to L(T) = {fields.L[-1]:.4e} m; "
      f"characteristic slopes stay positive: {bool(np.all(fields.c_t0[fields.wedge] >= 0))}\n")

nm = dataclasses.replace(cfg.numerics, N=100, dt_max=4e-4)
short = dataclasses.replace(cfg, numerics=nm, horizon=T_o, snapshot_times=())
res = run(short, record_profiles=True)
err_x, err_c, err_L = cross_check_errors(
    fields, *map_run_to_char_grid(res, fields.times))
print("stepper mapped onto characteristic coordinates, relative sup errors:")
print(f"  sessile concentrations {err_x:.2e}, paths {err_c:.2e}, "
      f"interface {err_L:.2e}\n")

box = box_from_run(res)
est = estimate_contraction(cfg, box, t_max=T_o)
print(f"contraction window from sampled kernel bounds ({est.samples} samples):")
print(f"  a = {est.a:.3e}, b = {est.b:.3e}")
print(f"  T_star = {est.T_star:.3e} d with Lambda(T_star) = "
      f"{est.contraction_factor(est.T_star):.3f} < 1")
print("  binding caps:")
for name, cap in sorted(est.caps.items(), key=lambda kv: kv[1])[:4]:
    print(f"    {name:>12s}: {cap:.3e} d")

T_half = est.T_star / 2.0
_, hist2 = picard_solve(cfg, T_o=T_half, grid_n=40)
print(f"\ninside the window (T_o = T_star/2 = {T_half:.2e} d) the iteration "
      f"settles in {len(hist2)} sweeps; Lambda there = "
      f"{est.contraction_factor(T_half):.3f}")
print("beyond the window the bound is vacuous, but the map itself keeps "
      f"converging (the {T_o} d run above took {len(history)} sweeps).")
