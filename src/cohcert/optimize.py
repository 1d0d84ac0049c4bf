"""Numeric maximization of the certifiers and Werner decoherence thresholds.

The search space for max R_n over k-coherent states reduces to nonnegative
overlap vectors summing to 1 on k adjacent levels (phases gone, preparation
equal to projection).  The simplex is handled by the square-then-normalize
reparametrization a_p = x_p^2 / sum x^2, optimized by multi-start
Nelder-Mead; restarts use splittable per-restart seeding so parallel and
serial execution agree bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bounds import r3_w_closed_form
from .patterns import batch_moments, matrix_coefficients, overlap_coefficients, ratio_from_moments
from .states import WernerParams, psi_star, werner_state, w_state

__all__ = [
    "OptimizationConfig",
    "OptimizeResult",
    "GrowthScan",
    "ThresholdRecord",
    "rn_of_alpha",
    "maximize_rn_over_ck",
    "growth_scan",
    "werner_rn",
    "lambda_threshold",
    "decoherence_threshold_table",
]


@dataclass(frozen=True)
class OptimizationConfig:
    """Multi-start local search settings; the seed fixes every restart."""

    restarts: int = 32
    max_iters: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def rn_of_alpha(alpha, n: int) -> float:
    """Certifier value of a phase-free overlap vector summing to 1.

    R_n grows as the square of alpha's scale, so unnormalized vectors give
    scaled values.

    The pattern coefficients are the autocorrelation of alpha, so moments
    follow exactly from the moment engine.
    """
    ms = batch_moments(overlap_coefficients(np.asarray(alpha, dtype=float)), n)
    return float(ratio_from_moments(ms, n))


@dataclass(frozen=True)
class OptimizeResult:
    """Best restart of a maximization: argmax ``alpha``, maximum ``value``.

    Nelder-Mead stops at ``fatol = tol`` and ``xatol = tol ** 0.5``: ``value``
    is resolved to about ``tol`` (1e-10), ``alpha`` only to about 1e-5.
    """

    alpha: np.ndarray
    value: float
    converged: bool


def _start_points(n: int, k: int, rng_children, extra=()):
    """Deterministic seeds (uniform, center-weighted bump, tabulated profile)
    followed by random draws, one per restart."""
    starts = [np.full(k, 1.0 / k)]
    p = np.arange(k)
    bump = 1.0 - 0.5 * ((p - (k - 1) / 2) / ((k - 1) / 2 + 1e-12)) ** 2
    starts.append(bump / bump.sum())
    try:
        starts.append(np.abs(psi_star(k, order=n).amplitudes) ** 2)
    except ValueError:
        pass
    starts.extend(extra)
    for i, child in enumerate(rng_children):
        if i < len(starts):
            yield starts[i]
        else:
            rng = np.random.default_rng(child)
            draw = rng.random(k) + 0.05
            yield draw / draw.sum()


def maximize_rn_over_ck(n: int, k: int, cfg: OptimizationConfig | None = None,
                        extra_starts=()) -> OptimizeResult:
    """Maximize R_n over states populating k adjacent levels.

    Returns the best overlap vector (equal to the amplitude-squared profile
    of the optimal state) and its value.  ``converged`` is False when no
    restart met the local-search tolerances; the best value found is still
    reported.
    """
    if n not in (3, 4, 5):
        raise ValueError(f"n must be one of 3, 4, 5, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cfg = cfg or OptimizationConfig()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)

    def neg(x):
        a = x * x
        s = a.sum()
        if s <= 0:
            return 0.0
        return -rn_of_alpha(a / s, n)

    best_val, best_alpha, converged = -np.inf, None, False
    for start in _start_points(n, k, children, extra_starts):
        res = minimize(
            neg,
            np.sqrt(start),
            method="Nelder-Mead",
            options=dict(
                xatol=cfg.tol ** 0.5,
                fatol=cfg.tol,
                maxiter=cfg.max_iters,
                maxfev=4 * cfg.max_iters,
            ),
        )
        if -res.fun > best_val:
            a = res.x ** 2
            best_val, best_alpha = -res.fun, a / a.sum()
        converged = converged or bool(res.success)
    if n == 3:
        assert best_val >= r3_w_closed_form(k) - cfg.tol
    return OptimizeResult(alpha=best_alpha, value=float(best_val), converged=converged)


@dataclass(frozen=True)
class GrowthScan:
    """Maxima of R_n for k = 2..k_max with a straight-line fit."""

    n: int
    ks: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    residuals: np.ndarray
    converged: bool


def growth_scan(k_max: int, n: int = 3, cfg: OptimizationConfig | None = None) -> GrowthScan:
    """Run the maximizer for k = 2..k_max and fit a line through the maxima.

    Each k warm-starts from the previous optimum padded by one level, which
    keeps the scan cheap up to k ~ 30.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    cfg = cfg or OptimizationConfig()
    ks = np.arange(2, k_max + 1)
    values, prev, all_conv = [], None, True
    for k in ks:
        extra = []
        if prev is not None:
            padded = np.concatenate([prev, [prev[-1] * 0.5]])
            extra.append(padded / padded.sum())
        res = maximize_rn_over_ck(n, int(k), cfg, extra_starts=extra)
        values.append(res.value)
        prev = res.alpha
        all_conv = all_conv and res.converged
    values = np.array(values)
    slope, intercept = np.polyfit(ks, values, 1)
    residuals = values - (slope * ks + intercept)
    return GrowthScan(n=n, ks=ks, values=values, slope=float(slope),
                      intercept=float(intercept), residuals=residuals, converged=all_conv)


def _rn_rho_chi(rho_mat: np.ndarray, chi: np.ndarray, n: int) -> float:
    ms = batch_moments(matrix_coefficients(rho_mat, np.outer(chi, chi.conj())), n)
    return float(ratio_from_moments(ms, n))


def werner_rn(k: int, lam: float, n: int, projection: str = "w",
              cfg: OptimizationConfig | None = None) -> float:
    """R_n of the k-level Werner-like state under a chosen projection.

    projection: "w" projects onto the equal superposition W_k (the optimal
    measurement for Werner-like states at lam = 0), "psi" onto the
    best-known pure maximizer, and "optimize" maximizes over real
    projection states by multi-start Nelder-Mead.
    """
    rho = werner_state(WernerParams(k, lam)).matrix
    if projection == "w":
        return _rn_rho_chi(rho, w_state(k).amplitudes, n)
    if projection == "psi":
        return _rn_rho_chi(rho, psi_star(k, order=n).amplitudes, n)
    if projection != "optimize":
        raise ValueError(f"unknown projection {projection!r}")
    cfg = cfg or OptimizationConfig(restarts=8)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)

    def neg(x):
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return 0.0
        return -_rn_rho_chi(rho, x.astype(complex) / nrm, n)

    best = -np.inf
    for i, child in enumerate(children):
        if i == 0:
            x0 = np.full(k, 1.0 / np.sqrt(k))
        else:
            rng = np.random.default_rng(child)
            x0 = rng.random(k) + 0.05
        res = minimize(neg, x0, method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14,
                                    maxiter=cfg.max_iters, maxfev=4 * cfg.max_iters))
        best = max(best, -res.fun)
    return best


@dataclass(frozen=True)
class ThresholdRecord:
    """Mixing parameter at which R_n stops certifying on the Werner family.

    ``reachable`` is False when the certifier never attains ``threshold``
    even at lam = 0 (lambda_thr is then reported as 0).
    """

    n: int
    k: int
    lambda_thr: float
    method: str
    projection: str
    threshold: float
    reachable: bool


def lambda_threshold(n: int, k: int, threshold: float,
                     projection: str = "w", xtol: float = 1e-6) -> ThresholdRecord:
    """Bisect for R_n(werner(k, lam), projection) = threshold.

    R_n of the Werner family is strictly decreasing in lam (the pattern's
    oscillating part scales with 1 - lam), so the root is unique whenever
    the threshold is bracketed.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    f = lambda lam: werner_rn(k, lam, n, projection=projection) - threshold
    f0, f1 = f(0.0), f(1.0)
    desc = f"werner({k}) under {projection} projection"
    if f0 <= 0:
        return ThresholdRecord(n, k, 0.0, "bisection", desc, threshold, reachable=False)
    if f1 >= 0:
        return ThresholdRecord(n, k, 1.0, "bisection", desc, threshold, reachable=False)
    lo, hi = 0.0, 1.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return ThresholdRecord(n, k, 0.5 * (lo + hi), "bisection", desc, threshold, reachable=True)


def decoherence_threshold_table(n_values=(3, 4, 5), k_values=range(3, 11)):
    """Werner decoherence thresholds lambda_thr^(n)(k-1) under W_k projection.

    The comparison threshold for losing (k)-coherence is R_n of the equal
    superposition of k-1 levels, which is what the published threshold
    table tracks (the slightly larger best-known maxima over C_{k-1} would
    shift the n=3 row down by up to 0.02).
    """
    records = []
    for n in n_values:
        for k in k_values:
            thr = rn_of_alpha(np.full(k - 1, 1.0 / (k - 1)), n)
            records.append(lambda_threshold(n, k, thr, projection="w"))
    return records
