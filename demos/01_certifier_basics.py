"""Walkthrough: from states to interference patterns to coherence verdicts.

A Ramsey-style experiment prepares a state, lets it evolve under an
equally spaced spectrum for one period, and projects onto a reference
state.  The detection probability traces out a trigonometric polynomial
p(t); the moment ratio R_3 = M_3 / M_1^2 of that pattern certifies how
many levels interfere, and it can only ever under-report.
"""

import numpy as np

import cohcert as cc

# A three-level equal superposition, projected onto itself.
w3 = cc.w_state(3)
pattern = cc.pattern_from_states(w3.density(), w3.density())
print("pattern of W_3 against itself")
print("  c0 =", pattern.c0)
print("  AC coefficients:", np.round(pattern.c, 6))

ms = cc.moments(pattern, 5)
print("  moments M_1..M_5:", np.round(ms, 6))

r3 = cc.ratio(pattern, 3)
verdict = cc.certify_r3(r3)
print(f"  R_3 = {r3:.6f} -> certified at least {verdict.certified_level}-coherent")
print(f"  (threshold exceeded: {verdict.threshold_used:.6f})")

# The same number from the closed form for equal superpositions.
print("closed form R_3(W_3) =", cc.r3_w_closed_form(3))

# Moments are exact coefficient convolutions; a uniform-grid average must
# agree to machine precision once it out-samples the bandwidth.
print("sampling cross-check:", ms[2],
      "vs", cc.moment_by_sampling(pattern, 3, 64))

# A noisy experimental record still certifies: fit, then certify.
# certify_pattern refuses a fit that is not a probability, as certify --input does.
rng = np.random.default_rng(1)
t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
noisy = pattern.evaluate(t) + 0.005 * rng.standard_normal(t.size)
fit = cc.fit_pattern_from_samples(np.column_stack([t, noisy]), dim=5)
_, noisy_verdict = cc.certify_pattern(fit.pattern)
print(f"fit from 200 noisy samples: R_3 = {noisy_verdict.value:.4f} "
      f"(rms residual {fit.residual:.4f}, cond {fit.cond:.1f})")
print("verdict:", noisy_verdict.certified_level, "coherent levels at least")

# The same record in percent: R_3 scales with p, so it is refused, not certified.
percent = cc.fit_pattern_from_samples(np.column_stack([t, 100 * noisy]), dim=5)
try:
    cc.certify_pattern(percent.pattern)
except ValueError as exc:
    print("in percent:", exc)

# Why imperfect measurements cannot overclaim: mixing projections is convex.
rng = np.random.default_rng(7)
chi_good = w3
chi_bad = cc.PureState.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
sigma = cc.DensityMatrix(0.7 * chi_good.density().matrix + 0.3 * chi_bad.density().matrix)
mixed_r3 = cc.ratio(cc.pattern_from_states(w3.density(), sigma), 3)
split = 0.7 * cc.ratio(cc.pattern_from_states(w3.density(), chi_good.density()), 3) \
    + 0.3 * cc.ratio(cc.pattern_from_states(w3.density(), chi_bad.density()), 3)
print(f"fluctuating measurement: R_3 = {mixed_r3:.4f} <= convex split {split:.4f}")
