"""Property tests of the coefficient kernel and the batched moment engine.

Each property compares the vectorised code with an independent route: a
direct trace of the time-evolved state, the matrix form of the kernel, the
per-pattern engine, uniform sampling, and a per-record loop over the drift
sweep built from outer products and coefficient convolution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcert import (
    PatternCoefficients,
    moment_by_sampling,
    moments,
    psi_star,
    sample_gue,
    tolerance_sweep,
)
from cohcert import bounds, patterns, robustness
from cohcert.patterns import (
    batch_moments,
    coefficient_gradient,
    grid_values,
    matrix_coefficients,
    overlap_coefficients,
    ratio_from_moments,
)
from conftest import rand_density, rand_pure

TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 7)


def pattern(cs) -> PatternCoefficients:
    return PatternCoefficients(cs[0].real, cs[1:])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=dims, t=st.floats(0.0, 2 * np.pi))
def test_kernel_matches_direct_trace(seed, d, t):
    rng = np.random.default_rng(seed)
    rho, sigma = rand_density(rng, d).matrix, rand_density(rng, d).matrix
    u = np.diag(np.exp(-1j * np.arange(d) * t))
    direct = np.trace(u @ rho @ u.conj().T @ sigma).real
    assert pattern(matrix_coefficients(rho, sigma)).evaluate(t)[0] == pytest.approx(direct, abs=TOL)


def matrix_coefficients_by_diagonals(rho, sigma):
    """The kernel's former arithmetic: one dot of matching diagonals per lag."""
    d = sigma.shape[0]
    return np.array([np.diagonal(rho, -m, -2, -1) @ np.diagonal(sigma, m) for m in range(d)]).T


@settings(max_examples=150, deadline=None)
@given(seed=seeds, d=st.integers(1, 8), batch=st.sampled_from([(), (1,), (5,)]))
def test_kernel_matches_diagonal_dots(seed, d, batch):
    """The gather-and-sum kernel against the diagonal dots, on mixed complex
    states and projections: each entry within 4 ulps of sum_p |rho||sigma|."""
    rng = np.random.default_rng(seed)
    rho = np.array([rand_density(rng, d).matrix for _ in range(int(np.prod(batch)))])
    rho = rho.reshape(batch + (d, d))
    sigma = rand_density(rng, d).matrix
    got = matrix_coefficients(rho, sigma)
    ref = matrix_coefficients_by_diagonals(rho, sigma)
    assert got.shape == ref.shape == batch + (d,)
    scale = matrix_coefficients_by_diagonals(np.abs(rho), np.abs(sigma)).real
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)
    for arr in patterns._lag_runs(d):
        with pytest.raises(ValueError):
            arr[0] = 0


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=dims, batch=st.integers(1, 5))
def test_fast_path_matches_matrix_form(seed, d, batch):
    rng = np.random.default_rng(seed)
    pairs = [(rand_pure(rng, d).amplitudes, rand_pure(rng, d).amplitudes) for _ in range(batch)]
    z = np.array([psi * chi.conj() for psi, chi in pairs])
    batched = overlap_coefficients(z)
    assert batched.shape == (batch, d)
    for row, (psi, chi) in zip(batched, pairs):
        ref = matrix_coefficients(np.outer(psi, psi.conj()), np.outer(chi, chi.conj()))
        np.testing.assert_allclose(overlap_coefficients(psi * chi.conj()), ref, rtol=0, atol=TOL)
        np.testing.assert_allclose(row, ref, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=st.integers(1, 8))
def test_coefficient_gradient_matches_scipy_toeplitz(seed, d):
    from scipy.linalg import toeplitz

    rng = np.random.default_rng(seed)
    r = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sigma = g + g.conj().T
    assert np.array_equal(coefficient_gradient(r, sigma), 2.0 * sigma * toeplitz(r))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=dims, nmax=st.integers(1, 6), batch=st.integers(1, 4))
def test_batched_moments_match_single_and_sampling(seed, d, nmax, batch):
    rng = np.random.default_rng(seed)
    cs = np.array([
        matrix_coefficients(rand_density(rng, d).matrix, rand_density(rng, d).matrix)
        for _ in range(2 * batch)
    ]).reshape(2, batch, d)
    got = batch_moments(cs, nmax)
    assert got.shape == (2, batch, nmax)
    for idx in np.ndindex(2, batch):
        pat = pattern(cs[idx])
        np.testing.assert_allclose(got[idx], moments(pat, nmax), rtol=0, atol=TOL)
        for n in range(1, nmax + 1):
            sampled = moment_by_sampling(pat, n, 2 * n * (d - 1) + 3)
            assert got[idx][n - 1] == pytest.approx(sampled, abs=TOL)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, d=dims, nmax=st.integers(1, 6))
def test_real_coefficients_take_the_cosine_rows(seed, d, nmax):
    alpha = np.random.default_rng(seed).random(d)
    cs = overlap_coefficients(alpha / alpha.sum())
    assert cs.dtype.kind == "f"
    np.testing.assert_allclose(batch_moments(cs, nmax), batch_moments(cs.astype(complex), nmax),
                               rtol=0, atol=TOL)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, d=st.integers(1, 8), nmax=st.integers(1, 6),
       batch=st.sampled_from([(), (1,), (3,), (2, 3)]), real=st.booleans(),
       zero=st.sampled_from([None, "grid", "anywhere"]))
def test_moments_by_products_match_float_powers(seed, d, nmax, batch, real, zero):
    """The engine's p^n by products against ``moment_by_sampling``'s ``p ** n``.

    Both evaluate p from about 2d terms and round n times more for p^n, so they
    agree to a few ulps per rounding: 4 (n + d) ulps of M_n (40 000 random
    cases gave at most 19.4 ulps, at n = 5 and d = 8).  With ``zero`` set, each
    pattern's p(t) touches 0, at a point of the engine's grid or anywhere.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(batch + (d,))
    if not real:
        z = z + 1j * rng.standard_normal(batch + (d,))
    if zero and d > 1:
        # p = |sum_q z_q e^{-iqt}|^2 vanishes where the polynomial sum_q z_q x^q
        # has a root x = e^{-it}
        n_points = nmax * (d - 1) + 1
        if real:  # a real polynomial's unimodular real roots: x = 1 (t = 0) and x = -1
            root = 1.0 if zero == "grid" else -1.0
        elif zero == "grid":
            root = np.exp(2j * np.pi * rng.integers(n_points) / n_points)
        else:
            root = np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = np.apply_along_axis(np.convolve, -1, z[..., 1:], [1.0, -root])
    z = z / np.abs(z).sum(axis=-1, keepdims=True)
    cs = overlap_coefficients(z)
    got = batch_moments(cs, nmax)
    assert got.shape == batch + (nmax,)
    eps = np.finfo(float).eps
    for idx in np.ndindex(batch):
        for n in range(1, nmax + 1):
            ref = moment_by_sampling(pattern(cs[idx]), n, 2 * n * (d - 1) + 1 + seed % 5)
            assert abs(got[idx][n - 1] - ref) <= 4 * (n + d) * eps * ref


# -- per-record reference for the drift sweep -------------------------------

def _conv_moments(full: np.ndarray, nmax: int) -> np.ndarray:
    """M_1..M_nmax as the DC coefficients of p^n, by repeated convolution."""
    out, conv = np.empty(nmax), full
    for n in range(nmax):
        out[n] = conv[(len(conv) - 1) // 2].real
        conv = np.convolve(conv, full)
    return out


def _r3_loop(psi: np.ndarray, chi: np.ndarray) -> float:
    d = psi.size
    rho, sig = np.outer(psi, psi.conj()), np.outer(chi, chi.conj())
    full = np.array([np.diagonal(rho, -m) @ np.diagonal(sig, m) for m in range(d - 1, -d, -1)])
    ms = _conv_moments(full, 3)
    return float(ms[2] / ms[0] ** 2)


def _sweep_loop(k, n_samples, seed, taus):
    """One Python iteration per (sample, tau) record: (seed, tau, D, r3) rows
    and each sample's crossed/not-crossed outcome."""
    psi = psi_star(k).amplitudes
    thr = (1.0, 1.25, 179 / 96)[k - 2]
    rows, crossed = [], []
    for child in np.random.SeedSequence(seed).generate_state(n_samples):
        evals, evecs = np.linalg.eigh(sample_gue(psi.size, int(child)))
        coeffs = evecs.conj().T @ psi
        hit = False
        for tau in taus:
            chi = psi if tau == 0.0 else (evecs * np.exp(1j * evals * tau)) @ coeffs
            r3 = _r3_loop(psi, chi)
            rows.append((int(child), float(tau), float(np.sum(np.abs(chi - psi) ** 2)), r3))
            hit = hit or r3 < thr
        crossed.append(hit)
    return rows, crossed


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from([3, 4]), n_samples=st.integers(1, 4), seed=st.integers(0, 2**31),
       extra_taus=st.lists(st.floats(1e-4, 3.0), max_size=5))
def test_batched_sweep_matches_record_loop(k, n_samples, seed, extra_taus):
    taus = np.concatenate([[0.0], np.logspace(-3.0, 0.0, 10), extra_taus])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustness, "TAU_GRID", taus)
        sweep = tolerance_sweep(k, n_samples, seed=seed)
    rows, crossed = _sweep_loop(k, n_samples, seed, taus)
    assert len(sweep.records) == len(rows)
    for rec, (s, tau, dev, r3) in zip(sweep.records, rows):
        assert (rec.seed, rec.tau) == (s, tau)
        assert rec.D == pytest.approx(dev, abs=TOL)
        assert rec.r3 == pytest.approx(r3, abs=TOL)
        if tau == 0.0:
            assert rec.D == 0.0 and rec.r3 == sweep.drift_free_r3
    assert (~np.isnan(sweep.crossing)).tolist() == crossed
    assert sweep.drift_free_r3 == pytest.approx(_r3_loop(*(psi_star(k).amplitudes,) * 2), abs=TOL)


def test_default_sweep_matches_record_loop():
    sweep = tolerance_sweep(4, 6, seed=11)
    rows, crossed = _sweep_loop(4, 6, 11, robustness.TAU_GRID)
    np.testing.assert_allclose([r.r3 for r in sweep.records], [r[3] for r in rows],
                               rtol=0, atol=TOL)
    np.testing.assert_allclose([r.D for r in sweep.records], [r[2] for r in rows],
                               rtol=0, atol=TOL)
    assert (~np.isnan(sweep.crossing)).tolist() == crossed


def test_ratio_from_moments_batches():
    ms = batch_moments(np.array([[0.5, 0.25], [1.0, 0.0]]), 3)
    np.testing.assert_allclose(ratio_from_moments(ms, 3), [1.25, 1.0], rtol=1e-14)
    assert isinstance(ratio_from_moments(ms[0], 3), np.floating)


# -- the cached grid basis --------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seed=seeds, d=st.integers(1, 8), per_level=st.sampled_from([1, 4, 16, 64]),
       batch=st.sampled_from([(), (3,)]), real=st.booleans())
def test_grid_values_match_evaluate(seed, d, per_level, batch, real):
    # the basis product against the complex exponentials of ``evaluate``
    rng = np.random.default_rng(seed)
    cs = rng.standard_normal(batch + (d,))
    if not real:
        cs = cs + 1j * rng.standard_normal(batch + (d,))
        cs[..., 0] = cs[..., 0].real
    points = per_level * d + seed % 3
    got = grid_values(cs, points)
    assert got.shape == (int(np.prod(batch)), points)
    t = np.arange(points) * (2 * np.pi / points)
    for row, c in zip(got, cs.reshape(-1, d)):
        ref = pattern(c).evaluate(t)
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()


def test_grid_basis_is_cached_and_read_only():
    cos_basis, basis, weights = patterns._grid_basis(4, 64)
    assert patterns._grid_basis(4, 64)[1] is basis
    assert basis.shape == (8, 64) and cos_basis.shape == (4, 64) and weights.shape == (64,)
    for arr in (cos_basis, basis, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@settings(max_examples=100, deadline=None)
@given(seed=seeds, d=st.integers(1, 8), side=st.sampled_from([-1.0, 1.0]),
       edge=st.sampled_from(["top", "bottom"]))
def test_is_physical_decides_patterns_at_its_bounds(seed, d, side, edge):
    # p placed 1e-9 inside or outside [-tol, 1 + tol] on the 16-per-level grid,
    # where the former FFT evaluation put it; the other edge is left far inside
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
    c *= 0.2 / max(2.0 * np.abs(c).sum(), 1e-300)  # a swing of at most 0.4
    n = patterns.SAMPLES_PER_DIM * d
    osc = 2.0 * np.fft.fft(np.concatenate([[0.0], c]), n).real
    tol = bounds.RANGE_SLACK
    if edge == "top":
        c0 = 1.0 + tol + side * 1e-9 - osc.max()
    else:
        c0 = -tol - side * 1e-9 - osc.min()
    pat = PatternCoefficients(c0, c)
    fft_vals = 2.0 * np.fft.fft(pat.one_sided(), n).real - pat.c0
    expected = bool(fft_vals.min() >= -tol and fft_vals.max() <= 1.0 + tol)
    assert expected is (side < 0)
    assert pat.is_physical(tol) is expected
