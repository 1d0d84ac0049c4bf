"""Walkthrough: every certification threshold the library knows.

Three layers of thresholds, strongest first:
  - proven maxima of R_3 over k-coherent states (exact rationals),
    derived from polytope vertex bounds in the frequency-grouped variables;
  - best-known numeric maxima from multi-start simplex optimization,
    including the optimal amplitude profiles;
  - the closed-form value for equal superpositions, exact for every k.
"""

import numpy as np

import cohcert as cc

print("proven R_3 maxima over C_k (exceeding certifies k+1):")
for k, thr in enumerate(cc.R3_CERTIFICATION_THRESHOLDS, start=1):
    print(f"  k={k}: {thr} = {float(thr):.6f}")

print("\npolytope vertex bounds behind those numbers:")
for case in ("k3d3", "k3_general_generic", "k3_general_ratio12", "k4d4"):
    maxima = ", ".join(str(rec.r3_max) for rec in cc.vertex_table(case))
    print(f"  {case:22s} vertex maxima {maxima}")

print("\nnumeric maxima and optimal profiles (32 restarts each):")
cfg = cc.OptimizationConfig(restarts=32, seed=0)
# the maxima of `cohcert tables`: k = 2..8 at n = 3, k = 2..5 at n = 4, 5, in two
# searches grouped by width (every order at k <= 5, then n = 3 at k = 6..8)
for n, scan in cc.table_scans(cfg).items():
    for k, res in zip(scan.ks[:4], scan.results):
        print(f"  R_{n}, k={k}: max {res.value:8.4f}   alpha^2 {np.round(res.alpha, 3)}"
              f"   {res.n_agree}/{cfg.restarts} restarts agree")

print("\nequal superpositions lag slightly behind the optimum:")
for k in (2, 3, 4, 5, 10, 20):
    print(f"  k={k:2d}: closed form {cc.r3_w_closed_form(k):.6f}")

scan = cc.growth_scan(8, cfg=cc.OptimizationConfig(restarts=8, seed=0))
print(f"\ngrowth of the k-coherent maximum is linear: "
      f"slope {scan.slope:.4f}, intercept {scan.intercept:.4f}, "
      f"max |fit residual| {np.abs(scan.residuals).max():.4f}")

print("\ndecoherence thresholds on the Werner family (W_k projection):")
print("  n\\k " + "".join(f"{k:7d}" for k in range(3, 11)))
rows = {}
for rec in cc.decoherence_threshold_table():
    rows.setdefault(rec.n, []).append(rec.lambda_thr)
for n, vals in rows.items():
    print(f"  R_{n} " + "".join(f"{v:7.3f}" for v in vals))
print("  dec " + "".join(f"{cc.lambda_dec(k, k - 1):7.3f}" for k in range(3, 11)))
