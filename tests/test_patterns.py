import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohcert import (
    DensityMatrix,
    PatternCoefficients,
    PureState,
    fit_pattern_from_samples,
    moment_by_sampling,
    moments,
    pattern_from_states,
    ratio,
    w_state,
)
from cohcert.patterns import COND_LIMIT
from conftest import pattern_from_overlaps, rand_density, rand_pure, rand_simplex


def w2_pattern():
    w2 = w_state(2)
    return pattern_from_states(w2.density(), w2.density())


def test_pattern_from_states_ground_state():
    g = PureState([1, 0, 0])
    pat = pattern_from_states(g.density(), g.density())
    assert pat.c0 == pytest.approx(1.0, abs=1e-15)
    assert np.abs(pat.c).max() < 1e-15


def test_pattern_from_states_w2():
    pat = w2_pattern()
    assert pat.c0 == pytest.approx(0.5, abs=1e-14)
    assert pat.c[0] == pytest.approx(0.25, abs=1e-14)
    # (1 + cos t)/2 on a grid
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    assert np.allclose(pat.evaluate(t), (1 + np.cos(t)) / 2, atol=1e-13)


def test_pattern_from_states_matches_direct_probability():
    rng = np.random.default_rng(0)
    for _ in range(15):
        d = rng.integers(2, 7)
        psi, chi = rand_pure(rng, d), rand_pure(rng, d)
        pat = pattern_from_states(psi.density(), chi.density())
        for t in rng.uniform(0, 2 * np.pi, 5):
            amp = np.vdot(chi.amplitudes, np.exp(-1j * np.arange(d) * t) * psi.amplitudes)
            assert pat.evaluate(t)[0] == pytest.approx(abs(amp) ** 2, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_is_physical_checks_the_range_on_its_grid(d):
    rng = np.random.default_rng(d)
    pat = PatternCoefficients(0.5, 0.2 * (rng.standard_normal(d - 1)
                                          + 1j * rng.standard_normal(d - 1)))
    vals = pat.evaluate(np.linspace(0.0, 2 * np.pi, 16 * d, endpoint=False))
    excursion = max(-vals.min(), vals.max() - 1.0)
    assert pat.is_physical(tol=excursion + 1e-9)
    assert not pat.is_physical(tol=excursion - 1e-9)


def test_pattern_from_states_mixed_projection():
    rng = np.random.default_rng(1)
    rho = rand_density(rng, 4)
    sigma = rand_density(rng, 4)
    pat = pattern_from_states(rho, sigma)
    assert pat.is_physical(tol=1e-9)
    diag_product = (np.diagonal(rho.matrix) * np.diagonal(sigma.matrix)).sum().real
    assert pat.c0 == pytest.approx(diag_product, abs=1e-12)
    # at t = 0 the pattern is the full overlap Tr(rho sigma)
    assert pat.evaluate(0.0)[0] == pytest.approx(
        np.trace(rho.matrix @ sigma.matrix).real, abs=1e-12
    )


def test_pattern_dimension_mismatch():
    with pytest.raises(ValueError):
        pattern_from_states(w_state(2).density(), w_state(3).density())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 7), pure=st.booleans())
def test_validated_inputs_give_patterns_in_unit_range(seed, d, pure):
    # pattern_from_states runs no range check: validated states keep 0 <= p <= 1,
    # and so do overlaps summing to at most 1
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 2 * np.pi, 64 * d, endpoint=False)
    if pure:
        rho, sigma = rand_pure(rng, d), rand_pure(rng, d)
    else:
        rank = int(rng.integers(1, d + 1))
        rho, sigma = rand_density(rng, d, rank), rand_density(rng, d, rank)
    scale = 1.0 if rng.random() < 0.5 else rng.random()
    alpha, phi = rand_simplex(rng, d) * scale, rng.uniform(0, 2 * np.pi, d)
    for pat in (pattern_from_states(rho, sigma), pattern_from_overlaps(alpha, phi)):
        vals = pat.evaluate(t)
        assert vals.min() >= -1e-9 and vals.max() <= 1.0 + 1e-9


def test_pattern_from_overlaps_examples():
    pat = pattern_from_overlaps([1.0, 0.0])
    assert pat.c0 == pytest.approx(1.0) and np.abs(pat.c).max() < 1e-15
    pat = pattern_from_overlaps([0.5, 0.5])
    ref = w2_pattern()
    assert pat.c0 == pytest.approx(ref.c0, abs=1e-14)
    assert np.allclose(pat.c, ref.c, atol=1e-14)
    pat = pattern_from_overlaps([1 / 3] * 3)
    assert pat.c0 == pytest.approx(1 / 3, abs=1e-14)
    assert np.allclose(pat.c, [2 / 9, 1 / 9], atol=1e-14)


def test_pattern_from_overlaps_equals_states_route():
    # alpha_p e^{i phi_p} = psi_p conj(chi_p) with chi = sqrt(alpha),
    # psi = sqrt(alpha) e^{i phi}
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.integers(2, 7)
        alpha = rand_simplex(rng, d)
        phi = rng.uniform(0, 2 * np.pi, d)
        chi = PureState(np.sqrt(alpha).astype(complex))
        psi = PureState(np.sqrt(alpha) * np.exp(1j * phi))
        a = pattern_from_overlaps(alpha, phi)
        b = pattern_from_states(psi.density(), chi.density())
        assert a.c0 == pytest.approx(b.c0, abs=1e-12)
        assert np.allclose(a.c, b.c, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_patterns_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        PatternCoefficients(bad, [0.1])
    with pytest.raises(ValueError, match="finite"):
        PatternCoefficients(0.5, [0.1, complex(0.0, bad)])


def test_moment_examples():
    pat = w2_pattern()
    assert moments(pat, 1)[0] == pytest.approx(0.5, abs=1e-14)
    assert moments(pat, 3)[2] == pytest.approx(5 / 16, abs=1e-14)
    g = w_state(1).density()
    flat = pattern_from_states(g, g)
    for n in (1, 2, 5):
        assert moments(flat, n)[n - 1] == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        moments(pat, 0)


def test_moments_vector():
    pat = w2_pattern()
    mv = moments(pat, 5)
    assert mv[0] == pytest.approx(0.5)
    assert mv[2] == pytest.approx(5 / 16)
    # physical patterns: positive, decreasing, bounded by M_1
    assert np.all(np.diff(mv) < 0) and mv.min() > 0


def test_moments_decreasing_for_physical_patterns():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = rng.integers(2, 7)
        mv = moments(pattern_from_states(rand_density(rng, d), rand_density(rng, d)), 5)
        assert mv.min() >= 0
        assert np.all(np.diff(mv) <= 1e-15)
        assert np.all(mv <= mv[0] + 1e-15)


def test_ratio_examples():
    assert ratio(w2_pattern(), 3) == pytest.approx(1.25, abs=1e-13)
    w3 = w_state(3)
    pat3 = pattern_from_states(w3.density(), w3.density())
    assert ratio(pat3, 3) == pytest.approx(940 / 540, abs=1e-13)
    const = PatternCoefficients(1.0)
    assert ratio(const, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ratio(w2_pattern(), 1)


def test_ratio_dark_pattern():
    with pytest.raises(ValueError):
        ratio(PatternCoefficients(0.0), 3)


def test_moment_by_sampling_examples():
    pat = w2_pattern()
    assert moment_by_sampling(pat, 3, 16) == pytest.approx(5 / 16, abs=1e-12)
    const = PatternCoefficients(0.3)
    assert moment_by_sampling(const, 2, 8) == pytest.approx(0.09, abs=1e-15)
    with pytest.raises(ValueError):
        moment_by_sampling(pat, 3, 6)  # needs > 2*3*1


def test_sampling_oracle_equivalence():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = rng.integers(2, 9)
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        pat = pattern_from_states(rho, sigma)
        n = rng.integers(1, 6)
        exact = moments(pat, n)[n - 1]
        sampled = moment_by_sampling(pat, n, 2 * n * (d - 1) + 1)
        assert abs(exact - sampled) < 1e-10


def test_fit_roundtrip():
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    samples = np.column_stack([t, (1 + np.cos(t)) / 2])
    fit = fit_pattern_from_samples(samples, 4)
    assert fit.pattern.c0 == pytest.approx(0.5, abs=1e-10)
    assert fit.pattern.c[0] == pytest.approx(0.25, abs=1e-10)
    assert np.abs(fit.pattern.c[1:]).max() < 1e-10
    assert fit.residual < 1e-12


def test_fit_constant():
    t = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    fit = fit_pattern_from_samples(np.column_stack([t, np.full(16, 0.4)]), 3)
    assert fit.pattern.c0 == pytest.approx(0.4, abs=1e-12)
    assert np.abs(fit.pattern.c).max() < 1e-12


def test_fit_with_noise():
    rng = np.random.default_rng(42)
    t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    clean = (1 + np.cos(t)) / 2
    fit = fit_pattern_from_samples(np.column_stack([t, clean + 0.01 * rng.standard_normal(200)]), 3)
    assert abs(fit.pattern.c0 - 0.5) < 0.01
    assert abs(fit.pattern.c[0] - 0.25) < 0.01
    assert 0.005 < fit.residual < 0.02


def test_fit_errors():
    t = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    samples = np.column_stack([t, np.ones(5)])
    with pytest.raises(ValueError):
        fit_pattern_from_samples(samples, 4)  # too few samples
    bad_t = np.column_stack([np.zeros(9), np.ones(9)])
    with pytest.raises(ValueError):
        fit_pattern_from_samples(bad_t, 3)  # all times identical: rank deficient
    with pytest.raises(ValueError):
        fit_pattern_from_samples(np.column_stack([t + 7.0, np.ones(5)]), 2)


@pytest.mark.parametrize("column, value", [(0, np.nan), (1, np.inf)], ids=["nan-t", "inf-p"])
def test_fit_names_the_first_non_finite_row(column, value):
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    samples = np.column_stack([t, (1 + np.cos(t)) / 2])
    samples[[5, 9], column] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on the values
        with pytest.raises(ValueError, match=r"^samples\[5\] is not finite: \(t, p\) = "):
            fit_pattern_from_samples(samples, 3)


def reference_fit(t, p, dim):
    """The SVD least-squares fit ``fit_pattern_from_samples`` replaced, kept as the reference."""
    m = np.arange(1, dim)
    design = np.hstack(
        [np.ones((t.size, 1)), 2 * np.cos(np.outer(t, m)), 2 * np.sin(np.outer(t, m))]
    )
    coef, _, _, svals = np.linalg.lstsq(design, p, rcond=None)
    return coef, np.linalg.norm(design @ coef - p), svals[0] / svals[-1]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), extra=st.integers(0, 3000),
       span=st.floats(0.3, 1.0))
@example(seed=10148, dim=5, extra=0, span=0.681640625)  # one refinement step left 1.75 floors
def test_fit_matches_svd_reference(seed, dim, extra, span):
    rng = np.random.default_rng(seed)
    n = min(2 * dim - 1 + extra, 3000)
    t = rng.uniform(0.0, 2 * np.pi * span, n)
    p = (rng.uniform(0.2, 0.8) + rng.uniform(0.0, 0.2) * np.cos(t - rng.uniform(0.0, 2 * np.pi))
         + rng.uniform(0.0, 0.05) * rng.standard_normal(n))
    coef, res_norm, cond = reference_fit(t, p, dim)
    try:
        fit = fit_pattern_from_samples(np.column_stack([t, p]), dim)
    except ValueError:
        assert cond > 0.99 * COND_LIMIT
        return
    assert fit.cond == pytest.approx(cond, rel=1e-6)
    # a consistent system (n = 2 dim - 1) leaves only round-off, eps * cond * |p|, to compare
    floor = np.finfo(float).eps * cond * np.linalg.norm(p)
    assert fit.residual * np.sqrt(n) <= (1 + 1e-10) * res_norm + floor
    if cond <= 10:
        got = np.concatenate([[fit.pattern.c0], fit.pattern.c.real, fit.pattern.c.imag])
        assert np.all(np.abs(got - coef) <= 1e-12 * np.maximum(1.0, np.abs(coef)))


def test_convexity_in_state():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = rng.integers(2, 7)
        rho1, rho2 = rand_density(rng, d), rand_density(rng, d)
        sigma = rand_density(rng, d)
        lam = rng.random()
        mix = lam * rho1.matrix + (1 - lam) * rho2.matrix
        n = int(rng.integers(2, 6))
        lhs = ratio(pattern_from_states(DensityMatrix(mix), sigma), n)
        rhs = lam * ratio(pattern_from_states(rho1, sigma), n) + (1 - lam) * ratio(
            pattern_from_states(rho2, sigma), n
        )
        assert lhs <= rhs + 1e-9


def test_convexity_in_measurement():
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = rng.integers(2, 7)
        rho = rand_density(rng, d)
        chis = [rand_pure(rng, d) for _ in range(3)]
        q = rand_simplex(rng, 3)
        sigma = sum(w * c.density().matrix for w, c in zip(q, chis))
        n = int(rng.integers(2, 6))
        lhs = ratio(pattern_from_states(rho, DensityMatrix(sigma)), n)
        rhs = sum(w * ratio(pattern_from_states(rho, c.density()), n) for w, c in zip(q, chis))
        assert lhs <= rhs + 1e-9


def test_time_reversal_invariance():
    rng = np.random.default_rng(14)
    for _ in range(30):
        d = rng.integers(2, 7)
        pat = pattern_from_states(rand_density(rng, d), rand_density(rng, d))
        conj = PatternCoefficients(pat.c0, pat.c.conj())
        for n in range(1, 6):
            assert moments(pat, n)[n - 1] == pytest.approx(moments(conj, n)[n - 1], abs=1e-13)


def test_frequency_dilation_invariance():
    rng = np.random.default_rng(15)
    for s in (2, 3):
        for _ in range(20):
            k = rng.integers(2, 5)
            alpha = rand_simplex(rng, k)
            phi = rng.uniform(0, 2 * np.pi, k)
            dense = pattern_from_overlaps(alpha, phi)
            spread = np.zeros(s * (k - 1) + 1)
            spread_phi = np.zeros(s * (k - 1) + 1)
            spread[::s], spread_phi[::s] = alpha, phi
            dilated = pattern_from_overlaps(spread, spread_phi)
            for n in range(1, 6):
                m_dense, m_dilated = moments(dense, n)[n - 1], moments(dilated, n)[n - 1]
                assert m_dense == pytest.approx(m_dilated, abs=1e-12)


def test_first_moment_is_dc_term():
    rng = np.random.default_rng(16)
    for _ in range(20):
        d = rng.integers(2, 7)
        pat = pattern_from_states(rand_density(rng, d), rand_density(rng, d))
        assert moments(pat, 1)[0] == pytest.approx(pat.c0, abs=1e-14)
    alpha = rand_simplex(rng, 4)
    pat = pattern_from_overlaps(alpha)
    assert moments(pat, 1)[0] == pytest.approx(np.sum(alpha**2), abs=1e-14)


def test_zero_phase_dominance():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = rng.integers(2, 7)
        alpha = rand_simplex(rng, d) * rng.uniform(0.3, 1.0)
        phi = rng.uniform(0, 2 * np.pi, d)
        n = int(rng.integers(3, 6))
        flat = ratio(pattern_from_overlaps(alpha), n)
        phased = ratio(pattern_from_overlaps(alpha, phi), n)
        assert flat >= phased - 1e-9


def test_full_coefficients_and_evaluate_agree():
    rng = np.random.default_rng(18)
    pat = pattern_from_states(rand_density(rng, 5), rand_density(rng, 5))
    # coefficients of e^{-imt} over m = -(d-1)..(d-1): c_{-m} = conj(c_m)
    full = np.concatenate([pat.c[::-1].conj(), [pat.c0], pat.c])
    t = rng.uniform(0, 2 * np.pi, 7)
    freqs = np.arange(-(pat.dim - 1), pat.dim)
    direct = (np.exp(-1j * np.outer(t, freqs)) @ full).real
    assert np.allclose(pat.evaluate(t), direct, atol=1e-12)
