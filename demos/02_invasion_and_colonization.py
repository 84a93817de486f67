"""Attachment versus colonization: how planktonic cells enter the film.

Runs the two colonization scenarios against the attachment-only baseline:

* ``case2``: the late species both attaches and colonizes,
* ``case3``: the late species cannot attach (v_a = 0) and must colonize.

With the default parameters the planktonic consumption coefficient
k_col / Y_psi = 2.5 / 2e-7 = 1.25e7 1/d is enormous, so cells diffusing
into the matrix are consumed within a boundary layer of width
sqrt(D_psi Y_psi / k_col) ~ 0.9 um where their substrate is supplied at
the interface (species 3 sees S3* = 0 there: an Airy layer of 1.6-1.8 um),
about a thousandth of the film thickness.  After the arrival colonization
therefore seeds only a thin skin under the interface, and erosion (newest
material detaches first) removes those seeds again.  What reaches depth is
the one seed planted on arrival, while the film is thin.  At the default
arrival t1 = 0.2 d that seed is about 1e-88, so invasion stays small
within these 10 d (2b's 1e-3 is predicted after about 900 d); with
t1 = 0.01 d it is about 1e-6, and species 3 takes over the inner layers by
20-40 d.  The script quantifies the default case.

Runtime: ~40 s.
"""

import math
import warnings

from biofilm1d import BoundaryLayerResolutionWarning, build_preset, run

warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)

print(__doc__)

sp = build_preset("case2").cfg.species[2]
layer = math.sqrt(sp.D_psi * sp.Y_psi / sp.k_col)
print(f"planktonic reaction-layer width: sqrt(D_psi Y_psi / k_col) = {layer:.2e} m")
print(f"grid spacing at L = 5e-4 m with N = 200: {5e-4 / 200:.2e} m "
      "(the layer is thinner: profiles under-resolve it and the solver warns)\n")

results = {}
for pid in ("case1", "case2", "case3"):
    results[pid] = run(build_preset(pid).cfg)
    print(f"{pid} done: L(10 d) = {results[pid].snapshots[-1].L:.4e} m")

print("\nfilm thickness at the snapshot times (colonization-only stays thinnest):")
times = [s.t for s in results["case1"].snapshots]
print("  t [d]      " + "  ".join(f"{t:>9.2f}" for t in times))
for pid in ("case1", "case2", "case3"):
    Ls = [s.L for s in results[pid].snapshots]
    print(f"  {pid}   " + "  ".join(f"{L:9.3e}" for L in Ls))

print("\nfate of the late species f3 (min / max over depth):")
for pid in ("case2", "case3"):
    for snap in results[pid].snapshots:
        f3 = snap.f[2]
        print(f"  {pid} t = {snap.t:5.2f} d: "
              f"min = {f3.min():.2e}, max = {f3.max():.2e}")

s3_1 = results["case1"].snapshots[-1].S[2]
s3_2 = results["case2"].snapshots[-1].S[2]
print("\nsubstrate 3 at t = 10 d (produced inside, vented at the interface):")
print(f"  attachment-only max = {s3_1.max():.3f} g/m^3, "
      f"with colonization max = {s3_2.max():.3f} g/m^3")
print("the two differ only marginally: with the arrival at t1 = 0.2 d, colonization "
      "builds too little f3 within 10 d to dent the substrate-3 pool.")
