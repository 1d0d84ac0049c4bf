"""Numeric maximization of the certifiers and Werner decoherence thresholds.

The search space for max R_n over k-coherent states reduces to nonnegative
overlap vectors summing to 1 on k adjacent levels (phases gone, preparation
equal to projection).  The simplex is handled by the square-then-normalize
reparametrization a_p = x_p^2 / sum x^2 and searched from many start points
(each restart draws its own from a spawned seed) by L-BFGS-B (Byrd, Lu,
Nocedal & Zhu 1995) on the exact chain-rule gradient of R_n.  The restarts
are independent, so one L-BFGS-B call minimizes -sum_r R_n(a_r) over the
stacked (restarts x k) array; its counts are the search's ``nfev`` and
``nit``.  The step length is shared by all rows, so a row that starts near
the simplex boundary can end on a boundary point that a lone run would
have left, when that point is a genuine local maximum of R_n: a one-level
vertex (R_n = 1; near a = (1, 0) at n = 3, k = 2, R_3 ~ 1 - 2 a_2), or at
n = 4, k = 3 the face a = (1/2, 0, 1/2) (R_4 = 35/16).

The Werner family needs no search: its pattern is 1/k + (1 - lam) q(t), so
R_n is a polynomial in 1 - lam and a threshold is one of its roots.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import Polynomial

from .bounds import r3_w_closed_form
from .patterns import (batch_moments, matrix_coefficients, overlap_coefficients, overlap_gradient,
                       ratio_from_moments, ratio_gradient)
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
# werner_coefficients, like the patterns kernel, is an unvalidated building block.

MAX_ITERS = 2000  # iteration cap of the stacked L-BFGS-B call
TOL = 1e-10  # convergence tolerance of the stacked L-BFGS-B call


@dataclass(frozen=True)
class OptimizationConfig:
    """Multi-start local search settings; the seed fixes every restart."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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

    The stacked L-BFGS-B call stops at ``ftol = TOL / restarts`` (its
    relative test sees a sum of restarts) and ``gtol = TOL``, resolving
    ``value`` to ``TOL`` relative and ``alpha`` to about 1e-8.  ``nfev`` and
    ``nit`` are that one call's counts.  From the restarts' end values:
    ``n_agree`` restarts end within ``TOL * max(1, value)`` of ``value`` (the
    scale of the ``ftol`` test); ``spread`` = best - worst, which reads
    ``value - 1`` when a restart ends on a one-level vertex (see the module
    docstring).
    """

    alpha: np.ndarray
    value: float
    converged: bool
    nfev: int
    nit: int
    n_agree: int
    spread: float


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call: commands that never
    optimize skip its import.  A module attribute, so tracers can patch it."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _stacked_lbfgsb(fun, x0: np.ndarray, args=()):
    """One L-BFGS-B call minimizing ``fun`` (summed value and flat gradient
    of a (restarts, k) array) from the start rows ``x0``; returns scipy's
    result and the end rows."""
    res = minimize(lambda x: fun(x.reshape(x0.shape), *args), x0.ravel(), jac=True,
                   method="L-BFGS-B",
                   options=dict(ftol=TOL / len(x0), gtol=TOL, maxiter=MAX_ITERS))
    return res, res.x.reshape(x0.shape)


def _start_points(n: int, k: int, rng_children, extra=()) -> np.ndarray:
    """One start row per restart: deterministic seeds (uniform,
    center-weighted bump, tabulated profile, ``extra``), then random draws."""
    starts = [np.full(k, 1.0 / k)]
    p = np.arange(k)
    bump = 1.0 - 0.5 * ((p - (k - 1) / 2) / ((k - 1) / 2 + 1e-12)) ** 2
    starts.append(bump / bump.sum())
    try:
        starts.append(np.abs(psi_star(k, order=n).amplitudes) ** 2)
    except ValueError:
        pass
    starts.extend(extra)
    for child in rng_children[len(starts):]:
        draw = np.random.default_rng(child).random(k) + 0.05
        starts.append(draw / draw.sum())
    return np.array(starts[:len(rng_children)])


def _neg_rn_over_simplex(x, n: int):
    """-sum_r R_n(a_r) over the rows a_r = x_r^2 / S_r, S_r = sum x_r^2, of
    ``x``, and its gradient in x, flattened as L-BFGS-B takes it; row by row
    g_x = (2 x / S)(g_a - a . g_a) for g_a = dR_n/da."""
    s = np.sum(x * x, axis=-1, keepdims=True)
    a = x * x / s
    r, g = ratio_gradient(overlap_coefficients(a), n)
    ga = overlap_gradient(a, g)
    return -r.sum(), ((-2.0 / s) * x * (ga - np.sum(a * ga, axis=-1, keepdims=True))).ravel()


def maximize_rn_over_ck(n: int, k: int, cfg: OptimizationConfig | None = None,
                        extra_starts=()) -> OptimizeResult:
    """Maximize R_n over states populating k adjacent levels.

    Returns the best overlap vector (equal to the amplitude-squared profile
    of the optimal state) and its value.  ``converged`` is False when the
    stacked search did not meet its tolerances; the best value found is
    still reported.
    """
    if n not in (3, 4, 5):
        raise ValueError(f"n must be one of 3, 4, 5, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cfg = cfg or OptimizationConfig()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    starts = np.sqrt(_start_points(n, k, children, extra_starts))
    res, x = _stacked_lbfgsb(_neg_rn_over_simplex, starts, args=(n,))
    a = x * x / np.sum(x * x, axis=-1, keepdims=True)
    values = ratio_from_moments(batch_moments(overlap_coefficients(a), n), n)
    best_val = values.max()
    if n == 3:
        assert best_val >= r3_w_closed_form(k) - TOL
    return OptimizeResult(
        alpha=a[values.argmax()], value=float(best_val), converged=res.success,
        nfev=res.nfev, nit=res.nit,
        n_agree=int(np.sum(values >= best_val - TOL * max(1.0, best_val))),
        spread=float(best_val - values.min()))


@dataclass(frozen=True)
class GrowthScan:
    """Maxima of R_n for k = 2..k_max with a straight-line fit; ``results``
    holds the maximizer's result, diagnostics included, for each k."""

    n: int
    ks: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    residuals: np.ndarray
    results: tuple

    @property
    def converged(self) -> bool:
        return all(res.converged for res in self.results)


def growth_scan(k_max: int, n: int = 3, cfg: OptimizationConfig | None = None) -> GrowthScan:
    """Run the maximizer for k = 2..k_max and fit a line through the maxima.

    Each k warm-starts from the previous optimum padded by one level, which
    keeps the scan cheap up to k ~ 30.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    cfg = cfg or OptimizationConfig()
    ks = np.arange(2, k_max + 1)
    results = []
    for k in ks:
        extra = []
        if results:
            prev = results[-1].alpha
            padded = np.concatenate([prev, [prev[-1] * 0.5]])
            extra.append(padded / padded.sum())
        results.append(maximize_rn_over_ck(n, int(k), cfg, extra_starts=extra))
    values = np.array([res.value for res in results])
    slope, intercept = np.polyfit(ks, values, 1)
    residuals = values - (slope * ks + intercept)
    return GrowthScan(n=n, ks=ks, values=values, slope=float(slope),
                      intercept=float(intercept), residuals=residuals, results=tuple(results))


def werner_coefficients(k: int, lam) -> np.ndarray:
    """Coefficients of werner(k, lam) under the W_k projection: c_0 = 1/k and
    c_m = (1 - lam) c_m^W, one row per entry of an array ``lam``."""
    w = w_state(k).amplitudes
    c_w = overlap_coefficients(w * w.conj())
    cs = np.multiply.outer(1.0 - np.asarray(lam, dtype=float), c_w)
    cs[..., 0] = 1.0 / k
    return cs


def _neg_rn_over_projection(x, rho: np.ndarray, n: int):
    """-sum_r R_n of a real ``rho`` under sigma_r = x_r x_r^T / S_r,
    S_r = sum x_r^2, over the rows x_r of ``x``, and its gradient in x,
    flattened as L-BFGS-B takes it.

    For real matrices the kernel is symmetric in rho and sigma, so the stack
    of sigmas can take rho's place.  With T_m = S c_m = sum_p rho_{p,p-m}
    x_{p-m} x_p and g = dR_n/dc, v = sum_m g_m dT_m/dx = (rho * H) x, where
    H_pq = g_|p-q| (2 g_0 on the diagonal); T_m is quadratic in x, so
    x . v = 2 S g . c and g_x = (v - (x . v / S) x) / S.
    """
    s = np.sum(x * x, axis=-1)
    sigma = x[..., :, None] * x[..., None, :] / s[..., None, None]
    r, g = ratio_gradient(matrix_coefficients(sigma, rho), n)
    lag = np.abs(np.subtract.outer(np.arange(len(rho)), np.arange(len(rho))))
    v = np.einsum("...pq,...q->...p", rho * (1.0 + np.eye(len(rho))) * g[..., lag], x)
    return -r.sum(), ((v - (np.sum(x * v, axis=-1) / s)[..., None] * x) / -s[..., None]).ravel()


def werner_rn(k: int, lam: float, n: int, projection: str = "w",
              cfg: OptimizationConfig | None = None) -> float:
    """R_n of the k-level Werner-like state under a chosen projection.

    projection: "w" projects onto the equal superposition W_k (the optimal
    measurement for Werner-like states at lam = 0), and "optimize"
    maximizes over real projection states by one stacked L-BFGS-B call on
    the exact gradient in chi, as in ``maximize_rn_over_ck`` (restarts from
    ``cfg``; the first restart starts at W_k, so the result is never below
    the "w" value).
    """
    params = WernerParams(k, lam)
    if projection == "w":
        return float(ratio_from_moments(batch_moments(werner_coefficients(k, lam), n), n))
    if projection != "optimize":
        raise ValueError(f"unknown projection {projection!r}")
    # the Werner state is real, so real projections give real coefficients
    rho = werner_state(params).matrix.real
    cfg = cfg or OptimizationConfig(restarts=8)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    starts = np.array([np.random.default_rng(child).random(k) + 0.05 for child in children])
    starts[0] = 1.0 / np.sqrt(k)
    _, x = _stacked_lbfgsb(_neg_rn_over_projection, starts, args=(rho, n))
    return float(max(-_neg_rn_over_projection(row, rho, n)[0] for row in x))


@dataclass(frozen=True)
class ThresholdRecord:
    """Mixing parameter at which R_n stops certifying on the Werner family.

    ``reachable`` is False when the certifier never attains ``threshold``
    even at lam = 0 (lambda_thr is then reported as 0), or stays above it
    even at lam = 1 (lambda_thr is then 1).
    """

    n: int
    k: int
    lambda_thr: float
    projection: str
    threshold: float
    reachable: bool


def lambda_threshold(n: int, k: int, threshold: float) -> ThresholdRecord:
    """Solve R_n(werner(k, lam)) = threshold under the W_k projection.

    With u = 1 - lam and mu_j = <q^j> for the centred W_k pattern q, M_1 = 1/k
    and R_n = sum_j C(n, j) k^(j-1) mu_j u^j, kept in the u basis (better
    conditioned than lam).  dR_n/du = n k^(n-1) <q p^(n-1)> >= 0 since p >= 0
    grows with q and <q> = 0, so a bracketed root is unique.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    q = werner_coefficients(k, 0.0)
    q[0] = 0.0
    mu = np.concatenate([[1.0], batch_moments(q, n)])
    rn = Polynomial([comb(n, j) * float(k) ** (j - 1) * mu[j] for j in range(n + 1)])
    desc = f"werner({k}) under w projection"
    if rn(1.0) <= threshold:
        return ThresholdRecord(n, k, 0.0, desc, threshold, reachable=False)
    if rn(0.0) >= threshold:
        return ThresholdRecord(n, k, 1.0, desc, threshold, reachable=False)
    # the root nearest the segment [0, 1] of the real axis is the bracketed one
    u = min((rn - threshold).roots(),
            key=lambda r: abs(r.imag) + max(-r.real, r.real - 1, 0.0)).real
    return ThresholdRecord(n, k, 1.0 - u, desc, threshold, reachable=True)


def decoherence_threshold_table(k_values=range(3, 11)):
    """Werner decoherence thresholds lambda_thr^(n)(k-1) under W_k projection,
    for n = 3, 4, 5 and each k of ``k_values``.

    The comparison threshold for losing (k)-coherence is R_n of the equal
    superposition of k-1 levels, which is what the published threshold
    table tracks (the slightly larger best-known maxima over C_{k-1} would
    shift the n=3 row down by up to 0.02).
    """
    return [lambda_threshold(n, k, rn_of_alpha(np.full(k - 1, 1.0 / (k - 1)), n))
            for n in (3, 4, 5) for k in k_values]
