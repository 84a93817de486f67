"""Biofilm formation from a clean surface, and late-arrival washout.

Scenario ``case1``: two species seed the film at t = 0; a third arrives in
the bulk at t1 = 0.2 d and attaches, but cannot colonize the interior
(colonization is disabled).  The script integrates the full 10 d horizon,
prints the interface history through the attachment -> detachment
transition, and shows that the latecomer (i) never appears below the
characteristic line traced from its arrival point and (ii) is completely
washed out of the mature film.

Runtime: ~15 s.  Output CSVs land in ./demo_output/case1/.
"""

import numpy as np

from biofilm1d import build_preset, characteristic_trace, emit, run

preset = build_preset("case1")
print(__doc__)
print("assumptions:", *preset.notes, sep="\n  ")

result = run(preset.cfg, record_profiles=True, profile_t_max=1.05)

print("\ninterface history:")
b = result.boundary
for t_mark in (0.05, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
    k = int(np.searchsorted(b.t, t_mark))
    k = min(k, b.t.size - 1)
    regime = "attachment" if b.attachment[k] else "detachment"
    print(f"  t = {b.t[k]:5.2f} d   L = {b.L[k]:.4e} m   "
          f"sigma_a - sigma_d = {b.sigma_a[k] - b.sigma_d[k]:+.3e} m/d   ({regime})")

flip = b.t[np.argmax(~b.attachment)]
print(f"\nthe interface flips to the detachment regime near t = {flip:.2f} d")
print(f"plateau check: |L(10) - L(9)| / L(10) = "
      f"{abs(b.L[-1] - np.interp(9.0, b.t, b.L)) / b.L[-1]:.2e}")

print("\nexclusion of the late species (f3) below the characteristic c(t1, t):")
t1 = 0.2
for snap in result.snapshots:
    t = snap.t
    if t < t1 or not snap.attachment:
        continue
    c_t = characteristic_trace(result, t1, t).z[-1]
    below = snap.zeta * snap.L < c_t
    print(f"  t = {t:4.2f} d: c(t1,t)/L = {c_t / snap.L:.3f}, "
          f"max f3 below the line = {snap.f[2][below].max():.3e}, "
          f"max f3 above = {snap.f[2][~below].max():.3e}")

final = result.snapshots[-1]
print(f"\nat t = 10 d the mature film carries max f3 = {final.f[2].max():.3e}: "
      "material attached after t1 has been eroded away (washout).")

bundle = emit(result, "demo_output/case1", notes=preset.notes)
print(f"\nwrote {bundle.directory}/ (sha256 {bundle.sha256[:12]}...)")
