from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohcert.approx
import cohcert.bounds
import cohcert.optimize
from cohcert import (
    DensityMatrix,
    PureState,
    WernerParams,
    best_q_approximation,
    coherence_support,
    lambda_dec,
    maximize_rn_over_ck,
    pattern_from_states,
    psi_star,
    reproducibility_verdict,
    w_state,
    werner_state,
)
from cohcert.patterns import PatternCoefficients, coefficient_gradient, matrix_coefficients
from conftest import rand_density, rand_pure

def werner_pattern(lam, k=3):
    rho = werner_state(WernerParams(k, lam))
    return pattern_from_states(rho, w_state(k).density())


def test_pattern_distance_is_mean_square_deviation():
    # the residual is the mean-square deviation of the mixture's pattern over one period
    rng = np.random.default_rng(1)
    target = pattern_from_states(rand_density(rng, 4), rand_density(rng, 4))
    chi = rand_density(rng, 4)
    approx = best_q_approximation(target, chi, 1)
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    mixed = sum(w * pattern_from_states(s.density(), chi).evaluate(t) for w, s in approx.components)
    direct = np.mean((target.evaluate(t) - mixed) ** 2)
    assert approx.residual > 1e-4
    assert approx.residual == pytest.approx(direct, abs=1e-10)


def test_best_q_approx_reproducible_werner():
    # above the decoherence threshold 1/2, 2-coherent mixtures reproduce exactly
    approx = best_q_approximation(werner_pattern(0.54), w_state(3).density(), 2)
    assert approx.residual < 1e-8
    weights = [w for w, _ in approx.components]
    assert all(w >= 0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)
    assert all(coherence_support(s) <= 2 for _, s in approx.components)


@pytest.mark.parametrize("lam", [0.18, 0.36])
def test_best_q_approx_irreproducible_werner(lam):
    approx = best_q_approximation(werner_pattern(lam), w_state(3).density(), 2)
    assert approx.residual > 1e-6


def test_best_q_approx_self_reproduction():
    psi = PureState.normalized(np.array([0.8, 0.6, 0.0]))
    target = pattern_from_states(psi.density(), w_state(3).density())
    approx = best_q_approximation(target, w_state(3).density(), 2)
    assert approx.residual < 1e-10


def test_best_q_approx_validation():
    with pytest.raises(ValueError):
        best_q_approximation(werner_pattern(0.3), w_state(3).density(), 0)
    with pytest.raises(ValueError):
        best_q_approximation(werner_pattern(0.3), w_state(2).density(), 2)


def test_residual_nonincreasing_in_q():
    target = werner_pattern(0.3)
    chi = w_state(3).density()
    r2 = best_q_approximation(target, chi, 2).residual
    r3 = best_q_approximation(target, chi, 3).residual
    assert r3 <= r2 + 1e-12
    assert r3 < 1e-8  # q = k reproduces everything


def test_verdict_brackets_pattern_threshold():
    chi = w_state(3).density()
    below = reproducibility_verdict(werner_pattern(0.49), chi, 2)
    assert below.exceeds_coherence
    above = reproducibility_verdict(werner_pattern(0.51), chi, 2)
    assert not above.exceeds_coherence


def test_verdict_full_class_reproduces_everything():
    verdict = reproducibility_verdict(werner_pattern(0.1), w_state(3).density(), 3)
    assert not verdict.exceeds_coherence
    assert verdict.residual < 1e-8


def test_verdict_peak_bound_consistency():
    # the peak test applies under every projection and may only confirm the fit verdict
    chis = [w_state(3).density(), psi_star(3).density(),
            PureState.normalized([1, 2, 1]).density(), rand_density(np.random.default_rng(3), 3)]
    for chi in chis:
        for lam in (0.1, 0.3, 0.49, 0.6, 0.9):
            target = pattern_from_states(werner_state(WernerParams(3, lam)), chi)
            verdict = reproducibility_verdict(target, chi, 2)
            assert isinstance(verdict.peak_exceeded, bool)
            if verdict.peak_exceeded:
                assert verdict.exceeds_coherence
            if lam == 0.1 and chi is not chis[-1]:
                assert verdict.peak_exceeded


@pytest.mark.parametrize("k, q", [(3, 2), (4, 3), (5, 2), (6, 4)])
def test_peak_rule_splits_werner_at_lambda_dec(k, q):
    # under W_k the Werner peak is q M_1 exactly at lambda_dec and exceeds it
    # by about 1e-9 relative just below, where the state is (q+1)-coherent;
    # the relative certification margin keeps the first and resolves the second
    lam = lambda_dec(k, q)
    for at, exceeded in ((lam, False), (lam - 1e-9, True)):
        verdict = reproducibility_verdict(werner_pattern(at, k), w_state(k).density(), q)
        assert verdict.peak_exceeded is exceeded, (k, q, at)


def q_coherent_mixture(rng, d, q, parts, chi=None):
    """A mixture of ``parts`` pure states, each on its own random support of
    at most q of the d levels.  Given a pure projection ``chi``, each state
    has amplitudes 1 / conj(chi) on its support, where the peak bound is tight."""
    rho = np.zeros((d, d), dtype=complex)
    for w in rng.dirichlet(np.ones(parts)):
        support = rng.choice(d, size=rng.integers(1, q + 1), replace=False)
        v = np.zeros(d, dtype=complex)
        v[support] = (rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
                      if chi is None else 1.0 / chi.amplitudes[support].conj())
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(rho)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10), q=st.integers(1, 10),
       parts=st.integers(1, 4), tight=st.booleans())
@example(seed=0, d=4, q=1, parts=3, tight=False)  # incoherent: p(t) = M_1 for every t
def test_peak_never_exceeds_q_mean_for_q_coherent_mixtures(seed, d, q, parts, tight):
    rng = np.random.default_rng(seed)
    q = min(q, d)
    chi = rand_pure(rng, d) if tight else None
    sigma = chi.density() if tight else rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
    target = pattern_from_states(q_coherent_mixture(rng, d, q, parts, chi), sigma)
    grid = np.linspace(0.0, 2 * np.pi, 64 * d, endpoint=False)
    assert target.evaluate(grid).max() <= q * target.c0 * (1 + 1e-12)
    assert reproducibility_verdict(target, sigma, q).peak_exceeded is False


def werner_grid():
    for k in range(3, 7):
        for q in range(1, k):
            for lam in np.linspace(0.0, 1.0, 21):
                if abs(lam - lambda_dec(k, q)) >= 0.02:
                    yield k, q, float(lam)


def test_verdict_matches_pattern_threshold_on_werner_grid():
    # the verdict is proven both ways: exceeding below lambda_dec, reproduced above
    for k, q, lam in werner_grid():
        verdict = reproducibility_verdict(werner_pattern(lam, k), w_state(k).density(), q)
        approx = verdict.approx
        assert verdict.exceeds_coherence == (lam < lambda_dec(k, q)), (k, q, lam)
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


def simplex_nnls_reference(columns, target):
    """The former weight solve: scipy's NNLS with the sum constraint as a row of weight 1e4."""
    from scipy.optimize import nnls

    scale = 1e4 * max(1.0, float(np.abs(columns).max()))
    a = np.vstack([columns, np.full((1, columns.shape[1]), scale)])
    w, _ = nnls(a, np.concatenate([target, [scale]]))
    return w / w.sum()


def check_simplex_solve(columns, target, start):
    w = cohcert.approx.nnls(columns, target, start)
    ref = simplex_nnls_reference(columns, target)
    scale = np.abs(columns).max() * (np.abs(columns).max() + np.abs(target).max())
    tol = 1e-9 * scale

    def objective(v):
        return float(np.sum((columns @ v - target) ** 2))

    assert objective(w) <= objective(ref) + tol
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 4 * np.finfo(float).eps
    # KKT: one multiplier for the sum, no free column moving, no zero column entering
    grad = columns.T @ (columns @ w - target)
    reduced = grad - grad[w > 0].mean()
    assert np.all(reduced >= -tol)
    assert np.all(np.abs(reduced[w > 0]) <= tol)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 11), cols=st.integers(1, 14),
       kind=st.sampled_from(["interior", "outside", "duplicate", "vertex"]))
@example(seed=0, rows=5, cols=1, kind="outside")  # a single column
@example(seed=1, rows=5, cols=9, kind="outside")  # more columns than rows + 1
def test_simplex_weights_match_reference_solve(seed, rows, cols, kind):
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((rows, cols))
    target = columns @ rng.dirichlet(np.ones(cols))
    if kind == "outside":
        target += rng.standard_normal(rows)
    elif kind == "duplicate":
        columns[:, -1] = columns[:, 0]
        target += 0.3 * rng.standard_normal(rows)
    elif kind == "vertex":
        target = columns[:, rng.integers(cols)].copy()
    check_simplex_solve(columns, target, np.eye(cols)[rng.integers(cols)])


def test_simplex_weights_on_affinely_dependent_atoms(monkeypatch):
    # late in this fit five atoms in five coordinates are nearly affinely dependent,
    # so the weight solves leave the all-positive fast path for the active set
    seen, solve = [], cohcert.approx.nnls

    def recorded(*args):
        seen.append(args)
        return solve(*args)

    monkeypatch.setattr(cohcert.approx, "nnls", recorded)
    rng = np.random.default_rng(2)
    sigma = rand_density(rng, 3)
    approx = best_q_approximation(pattern_from_states(rand_density(rng, 3), sigma), sigma, 2)
    assert approx.converged
    monkeypatch.undo()
    assert any(cohcert.approx._affine_lstsq(c, t).min() <= 0.0 for c, t, _ in seen)
    for args in seen:
        check_simplex_solve(*args)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), atoms=st.integers(1, 8))
def test_trace_of_gradient_from_residual_embedding(seed, d, atoms):
    # Tr(G rho) = 2 <r, c(rho)>: the coefficients are linear in rho
    rng = np.random.default_rng(seed)
    chi = rand_density(rng, d)
    sigma = chi.matrix
    tgt = pattern_from_states(rand_density(rng, d), chi).one_sided()
    psis = np.array([rand_pure(rng, d).amplitudes for _ in range(atoms)])
    weights = rng.dirichlet(np.ones(atoms))
    r = weights @ matrix_coefficients(psis[:, :, None] * psis[:, None, :].conj(), sigma) - tgt
    r_vec, tgt_vec = (cohcert.approx._coeff_residual_vector(v) for v in (r, tgt))
    direct = np.einsum("i,ij,jk,ik->", weights, psis.conj(), coefficient_gradient(r, sigma),
                       psis).real
    assert 2.0 * r_vec @ (r_vec + tgt_vec) == pytest.approx(direct, rel=1e-12)


def test_iteration_cap_reports_nonconvergence(monkeypatch):
    # werner:4:0.8 needs four atoms; one iteration leaves the gap open
    target = werner_pattern(0.8, 4)
    monkeypatch.setattr(cohcert.approx, "MAX_ITERS", 1)
    capped = best_q_approximation(target, w_state(4).density(), 2)
    assert not capped.converged
    assert 0.0 <= capped.lower_bound <= capped.residual
    assert capped.residual > 1e-6


def test_scipy_entry_points_stay_patchable(monkeypatch):
    # tracers patch these module attributes; the library must call them through the module
    calls = []

    def counted(mod, name):
        func = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    counted(cohcert.approx, "nnls")
    counted(cohcert.optimize, "minimize")
    best_q_approximation(werner_pattern(0.3), w_state(3).density(), 2)
    assert calls and set(calls) == {"nnls"}
    maximize_rn_over_ck(3, 3, cohcert.optimize.OptimizationConfig(restarts=2))
    assert calls[-1] == "minimize" and calls.count("minimize") == 1


def best_q_approximation_reference(target, chi, q):
    """The Frank-Wolfe loop before its atoms moved into buffers, kept as the
    reference: every iteration re-stacks each atom array and re-indexes them all."""
    dim = target.dim
    sigma_mat = chi.matrix
    supports = np.array(list(combinations(range(dim), min(q, dim))))
    tgt = target.one_sided()
    tgt_vec = cohcert.approx._coeff_residual_vector(tgt)

    psi = np.zeros(dim, dtype=complex)
    psi[supports[0]] = 1.0 / np.sqrt(supports.shape[1])
    psis = np.empty((0, dim), dtype=complex)
    coeffs = np.empty((0, dim), dtype=complex)
    columns = np.empty((tgt_vec.size, 0))
    weights = np.empty(0)
    converged = False
    for _ in range(cohcert.approx.MAX_ITERS):
        row = matrix_coefficients(np.outer(psi, psi.conj()), sigma_mat)
        psis = np.vstack([psis, psi])
        coeffs = np.vstack([coeffs, row])
        columns = np.column_stack([columns, cohcert.approx._coeff_residual_vector(row)])
        weights = cohcert.approx.nnls(columns, tgt_vec, weights)
        keep = weights > 0
        psis, coeffs, columns, weights = psis[keep], coeffs[keep], columns[:, keep], weights[keep]
        r_vec = columns @ weights - tgt_vec
        residual = float(r_vec @ r_vec)
        grad = coefficient_gradient(weights @ coeffs - tgt, sigma_mat)
        vals, vecs = np.linalg.eigh(grad[supports[:, :, None], supports[:, None, :]])
        best = int(np.argmin(vals[:, 0]))
        tr_grad_rho = 2.0 * float(r_vec @ (r_vec + tgt_vec))
        gap = max(tr_grad_rho - float(vals[best, 0]), 0.0)
        lower = max(residual - gap, 0.0)
        if (gap <= cohcert.approx.GAP_TOL + cohcert.approx.GAP_RTOL * residual
                or residual <= cohcert.approx.ROUNDOFF_RESIDUAL):
            converged = True
            break
        psi = np.zeros(dim, dtype=complex)
        psi[supports[best]] = vecs[best, :, 0]
    return weights, psis, residual, converged, lower


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), q=st.integers(1, 6),
       pure_sigma=st.booleans(), werner=st.booleans())
@example(seed=2, d=3, q=2, pure_sigma=False, werner=False)  # a fit that drops atoms
def test_best_q_approx_matches_restacking_reference(seed, d, q, pure_sigma, werner):
    # the buffered atoms reproduce the re-stacked loop bit for bit
    rng = np.random.default_rng(seed)
    q = min(q, d)
    chi = rand_pure(rng, d).density() if pure_sigma else rand_density(rng, d)
    if werner:
        rho = werner_state(WernerParams(d, float(rng.random())))
        chi = rand_pure(rng, d).density() if pure_sigma else w_state(d).density()
    else:
        rho = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
    target = pattern_from_states(rho, chi)
    approx = best_q_approximation(target, chi, q)
    weights, psis, residual, converged, lower = best_q_approximation_reference(target, chi, q)
    assert [w for w, _ in approx.components] == [float(w) for w in weights]
    for (_, state), psi in zip(approx.components, psis):
        assert state.amplitudes.tobytes() == PureState.normalized(psi).amplitudes.tobytes()
    assert (approx.residual, approx.converged, approx.lower_bound) == (residual, converged, lower)


def peak_exceeded_reference(target, q):
    """The peak test before the cached grid basis: complex exponentials per call."""
    grid = np.linspace(0.0, 2 * np.pi, 64 * target.dim, endpoint=False)
    return bool(cohcert.bounds.certifies(target.evaluate(grid).max(), q * target.c0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), q=st.integers(2, 5),
       side=st.sampled_from([-1.0, 1.0]))
def test_peak_test_decides_patterns_at_its_bound(seed, d, q, side):
    # a pattern whose grid peak sits 1e-9 relative below or above the bound
    # q M_1 (1 + margin) of the certification rule: both evaluations agree
    rng = np.random.default_rng(seed)
    q = min(q, d)
    sigma = rand_density(rng, d)
    c = pattern_from_states(rand_density(rng, d), sigma).c
    grid = np.linspace(0.0, 2 * np.pi, 64 * d, endpoint=False)
    swing = PatternCoefficients(0.0, c).evaluate(grid).max()
    scale = q * (1.0 + cohcert.bounds.ROUNDOFF_MARGIN) * (1.0 + side * 1e-9)
    target = PatternCoefficients(swing / (scale - 1.0), c)
    assert peak_exceeded_reference(target, q) is (side > 0)
    assert reproducibility_verdict(target, sigma, q).peak_exceeded is (side > 0)
