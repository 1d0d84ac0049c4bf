"""Best approximation of a pattern by mixtures of low-coherence states.

Mixture patterns are linear in the density matrix, so with the component
states held fixed the optimal weights solve a nonnegative least squares
problem exactly; the nonconvexity lives only in the component amplitudes,
which a Nelder-Mead refinement sweeps one component at a time.  Restarts
are independently seeded, so parallel and serial execution coincide.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import minimize, nnls

from .bounds import pattern_peak_bound
from .optimize import OptimizationConfig
from .patterns import PatternCoefficients, matrix_coefficients
from .states import DensityMatrix, PureState, coherence_support, w_state

__all__ = [
    "MixtureApprox",
    "ReproducibilityVerdict",
    "pattern_distance",
    "best_q_approximation",
    "reproducibility_verdict",
]

DECISION_TOL = 1e-6


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

    Weights are nonnegative and sum to 1; every component populates at most
    q levels.  ``residual`` is the exact mean-square pattern distance to the
    target; ``converged`` is False when the restart budget ran out while the
    fit was still improving.
    """

    q: int
    components: list
    residual: float
    target_pattern: PatternCoefficients = field(repr=False)
    converged: bool = True


def _component_coeffs(vec: np.ndarray, support, dim: int, sigma_mat: np.ndarray) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[list(support)] = vec
    return matrix_coefficients(np.outer(psi, psi.conj()), sigma_mat)


def _coeff_residual_vector(coeffs: np.ndarray) -> np.ndarray:
    """Real residual embedding in which the Euclidean norm squared equals
    the mean-square pattern distance."""
    return np.concatenate(
        [[coeffs[0].real], np.sqrt(2.0) * coeffs[1:].real, np.sqrt(2.0) * coeffs[1:].imag]
    )


def _simplex_nnls(columns: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nonnegative weights summing to 1 minimizing ||columns @ w - target||.

    The sum constraint rides along as a heavily weighted extra row; the
    result is renormalized exactly afterwards.
    """
    scale = 1e6 * max(1.0, float(np.abs(columns).max()))
    a = np.vstack([columns, np.full((1, columns.shape[1]), scale)])
    b = np.concatenate([target, [scale]])
    w, _ = nnls(a, b)
    total = w.sum()
    if total <= 0:
        w = np.full(columns.shape[1], 1.0 / columns.shape[1])
        total = 1.0
    return w / total


def best_q_approximation(target: PatternCoefficients, chi: DensityMatrix, q: int,
                         n_components: int = 3,
                         cfg: OptimizationConfig | None = None) -> MixtureApprox:
    """Closest pattern to ``target`` from mixtures of q-coherent states.

    The projection ``chi`` stays fixed.  Alternates exact simplex-NNLS over
    the mixture weights with per-component Nelder-Mead refinement of the
    complex amplitudes (restricted to q-level supports), multi-started.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    cfg = cfg or OptimizationConfig(restarts=16)
    dim = target.dim
    sigma_mat = chi.matrix
    if sigma_mat.shape[0] != dim:
        raise ValueError(f"dimension mismatch: pattern {dim} vs projection {sigma_mat.shape[0]}")
    q_eff = min(q, dim)
    supports = list(combinations(range(dim), q_eff))
    tgt = target.one_sided()
    tgt_vec = _coeff_residual_vector(tgt)

    def mixture_coeffs(vecs, ws):
        total = np.zeros_like(tgt)
        for w_i, (sup, v) in zip(ws, vecs):
            if w_i > 0:
                total = total + w_i * _component_coeffs(v, sup, dim, sigma_mat)
        return total

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    for restart, child in enumerate(children):
        rng = np.random.default_rng(child)
        comps = []
        for m in range(n_components):
            sup = supports[m % len(supports)]
            if restart == 0:
                v = np.ones(q_eff, dtype=complex) / np.sqrt(q_eff)
            else:
                v = rng.standard_normal(q_eff) + (restart % 2) * 1j * rng.standard_normal(q_eff)
                v = v / np.linalg.norm(v)
            comps.append((sup, v))
        weights = np.full(n_components, 1.0 / n_components)
        residual, prev, stagnated = np.inf, np.inf, False
        for _ in range(40):
            cols = np.column_stack(
                [_coeff_residual_vector(_component_coeffs(v, s, dim, sigma_mat))
                 for s, v in comps]
            )
            weights = _simplex_nnls(cols, tgt_vec)
            for m, (sup, v0) in enumerate(comps):
                if weights[m] < 1e-14:
                    continue
                others = mixture_coeffs(
                    [c for j, c in enumerate(comps) if j != m],
                    [w for j, w in enumerate(weights) if j != m],
                )

                def objective(x, sup=sup, wm=weights[m], others=others):
                    v = x[:q_eff] + 1j * x[q_eff:]
                    nrm = np.linalg.norm(v)
                    if nrm == 0:
                        return np.inf
                    cur = others + wm * _component_coeffs(v / nrm, sup, dim, sigma_mat)
                    return float(np.sum((_coeff_residual_vector(cur) - tgt_vec) ** 2))

                x0 = np.concatenate([v0.real, v0.imag])
                res = minimize(objective, x0, method="Nelder-Mead",
                               options=dict(xatol=1e-12, fatol=1e-18,
                                            maxiter=cfg.max_iters, maxfev=4 * cfg.max_iters))
                v = res.x[:q_eff] + 1j * res.x[q_eff:]
                comps[m] = (sup, v / np.linalg.norm(v))
            residual = float(np.sum(
                (_coeff_residual_vector(mixture_coeffs(comps, weights)) - tgt_vec) ** 2
            ))
            if prev - residual < 1e-16:
                stagnated = True
                break
            prev = residual
        if best is None or residual < best[0]:
            best = (residual, weights, list(comps), stagnated or residual < 1e-14)
        if best[0] < 1e-14:
            break

    residual, weights, comps, converged = best
    components = []
    for w_i, (sup, v) in zip(weights, comps):
        psi = np.zeros(dim, dtype=complex)
        psi[list(sup)] = v
        components.append((float(w_i), PureState.normalized(psi)))
    assert abs(sum(w for w, _ in components) - 1.0) <= 1e-10
    assert all(coherence_support(s) <= q for _, s in components)
    return MixtureApprox(q=q, components=components, residual=residual,
                         target_pattern=target, converged=converged)


@dataclass(frozen=True)
class ReproducibilityVerdict:
    """Outcome of the pattern-level coherence test.

    ``exceeds_coherence`` is True when no q-coherent mixture reproduced the
    pattern within the decision tolerance, certifying at least (q+1) levels
    at pattern level.  ``peak_exceeded`` reports the analytic shortcut
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
                            n_components: int = 3,
                            cfg: OptimizationConfig | None = None,
                            decision_tol: float = DECISION_TOL) -> ReproducibilityVerdict:
    """Decide whether a pattern lies beyond reach of q-coherent mixtures.

    Conservative by construction: claims non-reproducibility only after the
    full multi-start fitting budget leaves a residual above
    ``decision_tol``.  An exceeded peak bound is reported alongside as an
    independent analytic confirmation.
    """
    approx = best_q_approximation(target, chi, q, n_components=n_components, cfg=cfg)
    exceeds = approx.residual > decision_tol
    peak = None
    k = _w_projection_k(chi)
    if k is not None and q <= k:
        grid = np.linspace(0.0, 2 * np.pi, 64 * target.dim, endpoint=False)
        peak = bool(target.evaluate(grid).max() > pattern_peak_bound(q, k) + 1e-9)
    return ReproducibilityVerdict(exceeds_coherence=exceeds, residual=approx.residual,
                                  peak_exceeded=peak, approx=approx)
