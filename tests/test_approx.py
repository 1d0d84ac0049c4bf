import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcert import (
    OptimizationConfig,
    PureState,
    WernerParams,
    best_q_approximation,
    coherence_support,
    lambda_patt,
    pattern_distance,
    pattern_from_states,
    reproducibility_verdict,
    w_state,
    werner_state,
)
from cohcert.patterns import PatternCoefficients
from conftest import rand_density

FAST = OptimizationConfig(restarts=8, seed=0)


def werner_pattern(lam, k=3):
    rho = werner_state(WernerParams(k, lam))
    return pattern_from_states(rho, w_state(k).density())


def test_pattern_distance_examples():
    pat = werner_pattern(0.3)
    assert pattern_distance(pat, pat) == 0.0
    a = PatternCoefficients(0.5, [0.1 + 0.05j])
    b = PatternCoefficients(0.6, [0.1 + 0.05j])
    assert pattern_distance(a, b) == pytest.approx(0.01, abs=1e-15)
    w2 = w_state(2)
    fringe = pattern_from_states(w2.density(), w2.density())
    flat = PatternCoefficients(0.5, [0.0])
    assert pattern_distance(fringe, flat) == pytest.approx(1 / 8, abs=1e-14)
    with pytest.raises(ValueError):
        pattern_distance(fringe, werner_pattern(0.3))


def test_pattern_distance_is_mean_square_deviation():
    rng = np.random.default_rng(1)
    a = pattern_from_states(rand_density(rng, 4), rand_density(rng, 4))
    b = pattern_from_states(rand_density(rng, 4), rand_density(rng, 4))
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    direct = np.mean((a.evaluate(t) - b.evaluate(t)) ** 2)
    assert pattern_distance(a, b) == pytest.approx(direct, abs=1e-10)


def test_sqrt_distance_satisfies_metric_axioms():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pats = [pattern_from_states(rand_density(rng, 4), rand_density(rng, 4))
                for _ in range(3)]
        dab = np.sqrt(pattern_distance(pats[0], pats[1]))
        dba = np.sqrt(pattern_distance(pats[1], pats[0]))
        dbc = np.sqrt(pattern_distance(pats[1], pats[2]))
        dac = np.sqrt(pattern_distance(pats[0], pats[2]))
        assert dab == pytest.approx(dba, abs=1e-14)
        assert dab >= 0 and np.sqrt(pattern_distance(pats[0], pats[0])) == 0
        assert dac <= dab + dbc + 1e-12


def test_best_q_approx_reproducible_werner():
    # above the decoherence threshold 1/2, 2-coherent mixtures reproduce exactly
    approx = best_q_approximation(werner_pattern(0.54), w_state(3).density(), 2, cfg=FAST)
    assert approx.residual < 1e-8
    weights = [w for w, _ in approx.components]
    assert all(w >= 0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)
    assert all(coherence_support(s) <= 2 for _, s in approx.components)


@pytest.mark.parametrize("lam", [0.18, 0.36])
def test_best_q_approx_irreproducible_werner(lam):
    approx = best_q_approximation(werner_pattern(lam), w_state(3).density(), 2, cfg=FAST)
    assert approx.residual > 1e-6


def test_best_q_approx_self_reproduction():
    psi = PureState.normalized(np.array([0.8, 0.6, 0.0]))
    target = pattern_from_states(psi.density(), w_state(3).density())
    approx = best_q_approximation(target, w_state(3).density(), 2, cfg=FAST)
    assert approx.residual < 1e-10


def test_best_q_approx_validation():
    with pytest.raises(ValueError):
        best_q_approximation(werner_pattern(0.3), w_state(3).density(), 0)
    with pytest.raises(ValueError):
        best_q_approximation(werner_pattern(0.3), w_state(2).density(), 2)


def test_residual_nonincreasing_in_q():
    target = werner_pattern(0.3)
    chi = w_state(3).density()
    r2 = best_q_approximation(target, chi, 2, cfg=FAST).residual
    r3 = best_q_approximation(target, chi, 3, cfg=FAST).residual
    assert r3 <= r2 + 1e-12
    assert r3 < 1e-8  # q = k reproduces everything


def test_verdict_brackets_pattern_threshold():
    chi = w_state(3).density()
    below = reproducibility_verdict(werner_pattern(0.49), chi, 2, cfg=FAST)
    assert below.exceeds_coherence
    above = reproducibility_verdict(werner_pattern(0.51), chi, 2, cfg=FAST)
    assert not above.exceeds_coherence


def test_verdict_full_class_reproduces_everything():
    verdict = reproducibility_verdict(werner_pattern(0.1), w_state(3).density(), 3, cfg=FAST)
    assert not verdict.exceeds_coherence
    assert verdict.residual < 1e-8


def test_verdict_peak_bound_consistency():
    chi = w_state(3).density()
    for lam in (0.1, 0.3, 0.49, 0.6, 0.9):
        verdict = reproducibility_verdict(werner_pattern(lam), chi, 2, cfg=FAST)
        assert verdict.peak_exceeded is not None
        if verdict.peak_exceeded:
            # the analytic shortcut may only confirm the fit verdict
            assert verdict.exceeds_coherence
    # non-W projection: no peak shortcut available
    rng = np.random.default_rng(3)
    sigma = rand_density(rng, 3)
    target = pattern_from_states(werner_state(WernerParams(3, 0.3)), sigma)
    verdict = reproducibility_verdict(target, sigma, 2, cfg=FAST)
    assert verdict.peak_exceeded is None


def werner_grid():
    for k in range(3, 7):
        for q in range(1, k):
            for lam in np.linspace(0.0, 1.0, 21):
                if abs(lam - lambda_patt(k, q)) >= 0.02:
                    yield k, q, float(lam)


def test_verdict_matches_pattern_threshold_on_werner_grid():
    # the verdict is proven both ways: exceeding below lambda_patt, reproduced above
    for k, q, lam in werner_grid():
        verdict = reproducibility_verdict(werner_pattern(lam, k), w_state(k).density(), q)
        approx = verdict.approx
        assert verdict.exceeds_coherence == (lam < lambda_patt(k, q)), (k, q, lam)
        assert 0.0 <= approx.lower_bound <= approx.residual, (k, q, lam)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_incoherent_residual_is_off_dc_power(k):
    # q = 1 mixtures are diagonal: they match c0 under W_k and no frequency above it
    for lam in (0.0, 0.3, 0.7):
        target = werner_pattern(lam, k)
        approx = best_q_approximation(target, w_state(k).density(), 1)
        power = 2.0 * float(np.sum(np.abs(target.c) ** 2))
        assert approx.residual == pytest.approx(power, abs=1e-12)
        assert approx.lower_bound == pytest.approx(power, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), q=st.integers(1, 6))
def test_lower_bound_certifies_residual_random_projection(seed, d, q):
    rng = np.random.default_rng(seed)
    sigma = rand_density(rng, d)
    target = pattern_from_states(rand_density(rng, d), sigma)
    approx = best_q_approximation(target, sigma, q)
    assert approx.converged
    assert 0.0 <= approx.lower_bound <= approx.residual
    assert all(coherence_support(s) <= q for _, s in approx.components)


def test_iteration_cap_reports_nonconvergence():
    # werner:4:0.8 needs four atoms; one iteration leaves the gap open
    target = werner_pattern(0.8, 4)
    capped = best_q_approximation(target, w_state(4).density(), 2,
                                  cfg=OptimizationConfig(max_iters=1))
    assert not capped.converged
    assert 0.0 <= capped.lower_bound <= capped.residual
    assert capped.residual > 1e-6
    with pytest.raises(ValueError):
        OptimizationConfig(max_iters=0)
