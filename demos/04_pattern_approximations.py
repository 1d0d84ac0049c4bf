"""Walkthrough: when does a pattern prove more coherence than q levels?

Mixing the 3-level equal superposition with white noise (weight lambda)
washes out the interference pattern.  Below lambda = 1/2 the pattern
cannot be faked by any mixture of 2-coherent states; above, it can be
reproduced exactly.  Finding the best 2-coherent mixture is a convex
problem; the Frank-Wolfe fitter returns it together with a certified lower
bound on the residual, and the verdict claims 3-coherence only when that
bound clears the decision tolerance.
"""

import numpy as np

import cohcert as cc

chi = cc.w_state(3).density()

print("best 2-coherent approximations of noisy 3-level patterns:")
for lam in (0.18, 0.36, 0.54):
    rho = cc.werner_state(cc.WernerParams(3, lam))
    target = cc.pattern_from_states(rho, chi)
    verdict = cc.reproducibility_verdict(target, chi, q=2)
    tag = "NOT reproducible -> at least 3-coherent" if verdict.exceeds_coherence \
        else "reproducible by 2-coherent mixtures"
    print(f"  lambda={lam}: residual {verdict.residual:10.3e} "
          f"(certified >= {verdict.approx.lower_bound:10.3e})  {tag}")
    print(f"    peak above q*M_1 = {2 * target.c0:.4f}: {verdict.peak_exceeded}")

print(f"\npattern-level threshold equals the state-level one: "
      f"lambda_dec = {cc.lambda_dec(3, 2)}")

# the scalar certifier is slightly more conservative than the full pattern
rec = cc.lambda_threshold(3, 3, threshold=float(cc.R3_CERTIFICATION_THRESHOLDS[1]))
print(f"R_3 stops certifying 3-coherence already at lambda = {rec.lambda_thr:.4f}")

# inspect the winning mixture at lambda = 0.54
rho = cc.werner_state(cc.WernerParams(3, 0.54))
target = cc.pattern_from_states(rho, chi)
approx = cc.best_q_approximation(target, chi, q=2)
print(f"\nexact reproduction at lambda=0.54 (residual {approx.residual:.2e}):")
for w, state in approx.components:
    if w > 1e-9:
        print(f"  weight {w:.4f}  amplitudes {np.round(state.amplitudes, 4)}")

t = np.linspace(0, 2 * np.pi, 9, endpoint=False)
mix = sum(w * cc.pattern_from_states(s.density(), chi).evaluate(t)
          for w, s in approx.components)
print("  target p(t):", np.round(target.evaluate(t), 5))
print("  approx p(t):", np.round(mix, 5))
