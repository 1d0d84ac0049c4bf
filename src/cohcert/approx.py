"""Best approximation of a pattern by mixtures of low-coherence states.

Patterns are linear in the density matrix, so the closest q-coherent mixture
is a convex problem over the hull of pure states on q-level supports.
Fully-corrective Frank-Wolfe solves it deterministically: simplex-NNLS
re-solves the weights of the active atoms, and the next atom is the smallest
eigenvector of the gradient over all q-level supports, an exact linear step
whose duality gap certifies a lower bound on the optimal residual.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
# minimize is unused here, but traced benchmark runs patch approx.minimize and approx.nnls
from scipy.optimize import minimize, nnls  # noqa: F401

from .bounds import pattern_peak_bound
from .optimize import OptimizationConfig
from .patterns import PatternCoefficients, coefficient_gradient, matrix_coefficients
from .states import DensityMatrix, PureState, coherence_support, w_state

__all__ = [
    "MixtureApprox",
    "ReproducibilityVerdict",
    "pattern_distance",
    "best_q_approximation",
    "reproducibility_verdict",
]

DECISION_TOL = 1e-6
# Relative gap stop: on irreproducible patterns the gap stalls at round-off of the residual.
GAP_RTOL = 1e-6
ROUNDOFF_RESIDUAL = 1e-28  # round-off of an exact reproduction


def pattern_distance(a: PatternCoefficients, b: PatternCoefficients) -> float:
    """Mean-square deviation (1/2pi) int (p_a - p_b)^2 dt, exactly.

    In coefficient space this is (c0_a - c0_b)^2 + 2 sum_m |c_ma - c_mb|^2;
    its square root is the L2 metric on patterns.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dc = a.c - b.c
    return float((a.c0 - b.c0) ** 2 + 2.0 * np.sum(np.abs(dc) ** 2))


@dataclass(frozen=True)
class MixtureApprox:
    """Best mixture found: (weight, state) pairs with the residual distance.

    Weights are positive and sum to 1; every component populates at most q
    levels.  ``residual`` is the exact mean-square pattern distance to the
    target; ``lower_bound`` is a certified lower bound on the smallest
    residual any q-coherent mixture reaches (residual minus the Frank-Wolfe
    duality gap).  ``converged`` is False when the iteration cap stopped the
    fit before the gap closed.
    """

    q: int
    components: list
    residual: float
    target_pattern: PatternCoefficients = field(repr=False)
    converged: bool = True
    lower_bound: float = 0.0


def _coeff_residual_vector(coeffs: np.ndarray) -> np.ndarray:
    """Real residual embedding in which the Euclidean norm squared equals
    the mean-square pattern distance; leading axes are a batch."""
    return np.concatenate([coeffs[..., :1].real, np.sqrt(2.0) * coeffs[..., 1:].real,
                           np.sqrt(2.0) * coeffs[..., 1:].imag], axis=-1)


def _simplex_nnls(columns: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nonnegative weights summing to 1 minimizing ||columns @ w - target||.

    The sum constraint rides along as an extra row of weight 1e4, and the
    result is renormalized exactly afterwards.  That weight violates the sum
    by a relative 1e-8, below GAP_RTOL, while the solver's backward error,
    eps * 1e4, stays below the gap tolerance of an exact reproduction.
    """
    scale = 1e4 * max(1.0, float(np.abs(columns).max()))
    a = np.vstack([columns, np.full((1, columns.shape[1]), scale)])
    b = np.concatenate([target, [scale]])
    w, _ = nnls(a, b)
    return w / w.sum()


def best_q_approximation(target: PatternCoefficients, chi: DensityMatrix, q: int,
                         cfg: OptimizationConfig | None = None) -> MixtureApprox:
    """Closest pattern to ``target`` from mixtures of q-coherent states.

    The projection ``chi`` stays fixed.  Fully-corrective Frank-Wolfe from
    the equal superposition of the first q levels; it stops when the duality
    gap falls to ``cfg.tol + GAP_RTOL * residual`` and gives up after
    ``cfg.max_iters`` iterations.  ``cfg.restarts`` and ``cfg.seed`` are not
    read.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    cfg = cfg or OptimizationConfig()
    dim = target.dim
    sigma_mat = chi.matrix
    if sigma_mat.shape[0] != dim:
        raise ValueError(f"dimension mismatch: pattern {dim} vs projection {sigma_mat.shape[0]}")
    supports = np.array(list(combinations(range(dim), min(q, dim))))
    tgt = target.one_sided()
    tgt_vec = _coeff_residual_vector(tgt)

    psis = np.zeros((1, dim), dtype=complex)
    psis[0, supports[0]] = 1.0 / np.sqrt(supports.shape[1])
    converged = False
    for _ in range(cfg.max_iters):
        coeffs = matrix_coefficients(psis[:, :, None] * psis[:, None, :].conj(), sigma_mat)
        weights = _simplex_nnls(_coeff_residual_vector(coeffs).T, tgt_vec)
        psis, coeffs, weights = psis[weights > 0], coeffs[weights > 0], weights[weights > 0]
        r = weights @ coeffs - tgt
        residual = float(np.sum(_coeff_residual_vector(r) ** 2))
        grad = coefficient_gradient(r, sigma_mat)
        vals, vecs = np.linalg.eigh(grad[supports[:, :, None], supports[:, None, :]])
        best = int(np.argmin(vals[:, 0]))
        tr_grad_rho = float(np.einsum("i,ij,jk,ik->", weights, psis.conj(), grad, psis).real)
        gap = max(tr_grad_rho - float(vals[best, 0]), 0.0)
        lower = max(residual - gap, 0.0)
        if gap <= cfg.tol + GAP_RTOL * residual or residual <= ROUNDOFF_RESIDUAL:
            converged = True
            break
        psis = np.vstack([psis, np.zeros(dim, dtype=complex)])
        psis[-1, supports[best]] = vecs[best, :, 0]

    # after the iteration cap psis ends with one unweighted atom, which zip drops
    components = [(float(w), PureState.normalized(psi)) for w, psi in zip(weights, psis)]
    assert abs(sum(w for w, _ in components) - 1.0) <= 1e-10
    assert all(coherence_support(s) <= q for _, s in components)
    return MixtureApprox(q=q, components=components, residual=residual,
                         target_pattern=target, converged=converged, lower_bound=lower)


@dataclass(frozen=True)
class ReproducibilityVerdict:
    """Outcome of the pattern-level coherence test.

    ``exceeds_coherence`` is True when the certified lower bound on the
    residual of every q-coherent mixture exceeds the decision tolerance,
    proving at least (q+1) levels at pattern level.  ``peak_exceeded`` reports the analytic shortcut
    max_t p(t) > q/k when the projection is an equal superposition W_k
    (None otherwise); it can only confirm, never veto, the fit verdict.
    """

    exceeds_coherence: bool
    residual: float
    peak_exceeded: bool | None
    approx: MixtureApprox = field(repr=False)


def _w_projection_k(chi: DensityMatrix) -> int | None:
    """If chi is a projector onto an equal superposition of the first k
    levels, return k."""
    mat = chi.matrix
    d = mat.shape[0]
    for k in range(1, d + 1):
        proj = w_state(k, d)
        expected = np.outer(proj.amplitudes, proj.amplitudes.conj())
        if np.abs(mat - expected).max() < 1e-12:
            return k
    return None


def reproducibility_verdict(target: PatternCoefficients, chi: DensityMatrix, q: int,
                            cfg: OptimizationConfig | None = None,
                            decision_tol: float = DECISION_TOL) -> ReproducibilityVerdict:
    """Decide whether a pattern lies beyond reach of q-coherent mixtures.

    Claims non-reproducibility only when the Frank-Wolfe lower bound on the
    best q-coherent residual exceeds ``decision_tol``, so the claim is
    proven, not inferred from a search that found nothing better.  An
    exceeded peak bound is reported alongside as an independent analytic
    confirmation.
    """
    approx = best_q_approximation(target, chi, q, cfg=cfg)
    exceeds = approx.lower_bound > decision_tol
    peak = None
    k = _w_projection_k(chi)
    if k is not None and q <= k:
        grid = np.linspace(0.0, 2 * np.pi, 64 * target.dim, endpoint=False)
        peak = bool(target.evaluate(grid).max() > pattern_peak_bound(q, k) + 1e-9)
    return ReproducibilityVerdict(exceeds_coherence=exceeds, residual=approx.residual,
                                  peak_exceeded=peak, approx=approx)
