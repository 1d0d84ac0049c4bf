"""Independent reference computations for the benchmark's output checks.

Nothing here imports cohcert.  Patterns are evaluated directly from the
density matrix and the projection, p(t) = <chi| U(t) rho U(t)^dag |chi> with
U(t) = diag(e^{-ipt}), and moments are means over an alias-free uniform grid:
p^n is a trigonometric polynomial of degree n(d-1), so any grid of more than
n(d-1) points gives its mean exactly.  The checks therefore compare the
program against a second derivation, never against stored output.
"""

from fractions import Fraction

import numpy as np

# Proven maxima of R_3 over states populating at most k = 1, 2, 3 levels.
R3_THRESHOLDS = (Fraction(1), Fraction(5, 4), Fraction(179, 96))
# Proven maximum of R_3 over states populating 4 adjacent levels.
R3_MAX_4_ADJACENT = 2.44

# Published best-known amplitude-squared profiles maximizing R_3 over k
# adjacent levels (the paper's Table 2), renormalized.
PSI_STAR_PROFILES = {
    3: (0.31, 0.38, 0.31),
    4: (0.22, 0.28, 0.28, 0.22),
    5: (0.17, 0.21, 0.23, 0.21, 0.17),
}


def r3_upper_bound(k: int) -> float:
    """A proven upper bound of R_3 over pure states populating k adjacent levels.

    For k >= 5 the paper proves no constant; R_3 <= k then follows from
    M_3 <= max(p)^2 M_1 with max(p) <= S^2 and M_1 >= S^2 / k, where
    S = sum_p |chi_p psi_p| <= 1 (Cauchy-Schwarz twice).
    """
    if k <= 3:
        return float(R3_THRESHOLDS[k - 1])
    if k == 4:
        return R3_MAX_4_ADJACENT
    return float(k)


def certified_level(r3: float) -> int:
    """1 plus the number of proven thresholds that ``r3`` strictly exceeds."""
    return 1 + sum(1 for thr in R3_THRESHOLDS if r3 > thr)


def threshold_margin(r3: float) -> float:
    """Distance from ``r3`` to the nearest certification threshold."""
    return min(abs(r3 - float(thr)) for thr in R3_THRESHOLDS)


def pure(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex)
    a = a / np.linalg.norm(a)
    return np.outer(a, a.conj())


def w_vector(k: int, dim: int | None = None) -> np.ndarray:
    v = np.zeros(dim or k, dtype=complex)
    v[:k] = 1.0 / np.sqrt(k)
    return v


def werner_matrix(k: int, lam: float) -> np.ndarray:
    """(1 - lam) |W_k><W_k| + (lam / k) I_k."""
    w = w_vector(k)
    return (1.0 - lam) * np.outer(w, w.conj()) + (lam / k) * np.eye(k)


def psi_star_vector(k: int) -> np.ndarray:
    prof = np.array(PSI_STAR_PROFILES[k], dtype=float)
    return np.sqrt(prof / prof.sum()).astype(complex)


def pattern_values(rho: np.ndarray, chi: np.ndarray, t) -> np.ndarray:
    """p(t) for a state rho measured by projecting onto the pure state chi."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    levels = np.arange(rho.shape[0])
    u = np.exp(-1j * np.outer(t, levels)) * chi.conj()
    return np.einsum("tp,pq,tq->t", u, rho, u.conj()).real


def alias_free_grid(degree: int) -> np.ndarray:
    """Uniform grid exact for the mean of a trigonometric polynomial of ``degree``."""
    n = degree + 1
    return np.arange(n) * (2 * np.pi / n)


def rn(rho: np.ndarray, chi: np.ndarray, n: int) -> float:
    """R_n = M_n / M_1^(n-1) by alias-free sampling of p(t)."""
    d = rho.shape[0]
    p = pattern_values(rho, chi, alias_free_grid(n * (d - 1)))
    return float(np.mean(p**n) / np.mean(p) ** (n - 1))


def rn_of_profile(alpha, n: int) -> float:
    """R_n of the pure state with amplitude-squared profile ``alpha``,
    projected onto itself."""
    psi = np.sqrt(np.asarray(alpha, dtype=float)).astype(complex)
    return rn(np.outer(psi, psi.conj()), psi, n)


def fourier_coefficients(rho: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """c_m = (1/2pi) int p(t) e^{imt} dt for m = 0..d-1, from samples."""
    d = rho.shape[0]
    t = alias_free_grid(2 * (d - 1))
    p = pattern_values(rho, chi, t)
    m = np.arange(d)
    return (np.exp(1j * np.outer(m, t)) @ p) / t.size


def mean_square_distance(rho_a, rho_b, chi: np.ndarray) -> float:
    """(1/2pi) int (p_a - p_b)^2 dt under one projection, by exact sampling."""
    d = chi.size
    t = alias_free_grid(2 * (d - 1))
    diff = pattern_values(rho_a, chi, t) - pattern_values(rho_b, chi, t)
    return float(np.mean(diff**2))
