"""Best approximation of a pattern by mixtures of low-coherence states.

Patterns are linear in the density matrix, so the closest q-coherent mixture
is a convex problem over the hull of pure states on q-level supports.
Fully-corrective Frank-Wolfe solves it deterministically: an active-set
solve in numpy re-fits the weights of the active atoms on the probability
simplex, with the sum constraint exact, and the next atom is the smallest
eigenvector of the gradient over all q-level supports, an exact linear step
whose duality gap certifies a lower bound on the optimal residual.

The verdict also reports a peak test that assumes no ideal measurement: no
q-coherent mixture has a pattern above q M_1 under any projection, where
M_1 = c0 is the pattern's mean.  For a pure state psi on a support S of at
most q levels and a pure projection chi, p(t) = |sum_{p in S} z_p
e^{-i E_p t}|^2 with z = psi * conj(chi), and M_1 = sum_p |z_p|^2 (the
levels are nondegenerate).  Cauchy-Schwarz gives p(t) <= |S| sum_p |z_p|^2
<= q M_1.  Both p and M_1 are linear in the state and in the projection, so
the bound holds for every mixture of such states under every mixture of
pure projections.  Under W_k, where M_1 = 1/k, it is the bound q/k.
"""

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _EXPORTS
from .bounds import certifies
from .patterns import (PatternCoefficients, coefficient_gradient, grid_values,
                       matrix_coefficients)
from .states import DensityMatrix, PureState, coherence_support

__all__ = _EXPORTS["approx"]

DECISION_TOL = 1e-6
MAX_ITERS = 2000  # Frank-Wolfe iteration cap
GAP_TOL = 1e-10  # absolute duality-gap stop
# Relative gap stop: on irreproducible patterns the gap stalls at round-off of the residual.
GAP_RTOL = 1e-6
ROUNDOFF_RESIDUAL = 1e-28  # round-off of an exact reproduction


def __getattr__(name):
    """``minimize`` resolves to ``optimize.minimize`` on first lookup, so that
    traced benchmark runs can patch ``approx.minimize`` while the fit itself
    never loads ``cohcert.optimize``."""
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .optimize import minimize
    return minimize


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
    converged: bool = True
    lower_bound: float = 0.0


@functools.lru_cache(maxsize=None)
def _embedding_scale(dim: int) -> np.ndarray:
    """1 for Re c_0, then sqrt(2) for each Re c_m and Im c_m, m >= 1; read-only."""
    scale = np.full(2 * dim - 1, np.sqrt(2.0))
    scale[0] = 1.0
    scale.setflags(write=False)
    return scale


def _coeff_residual_vector(coeffs: np.ndarray) -> np.ndarray:
    """Real residual embedding in which the Euclidean norm squared equals
    the mean-square pattern distance; leading axes are a batch."""
    parts = np.concatenate([coeffs.real, coeffs[..., 1:].imag], axis=-1)
    return parts * _embedding_scale(coeffs.shape[-1])


def _affine_lstsq(columns: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Weights of either sign summing to 1 that minimize ||columns @ w - target||.

    The constraint is exact: the last weight is eliminated as 1 - sum(rest),
    leaving an unconstrained least-squares problem in the differences to
    the last column.  Rank-deficient columns get the minimum-norm solution.
    """
    if columns.shape[1] == 1:
        return np.ones(1)
    last = columns[:, -1]
    rest = np.linalg.lstsq(columns[:, :-1] - last[:, None], target - last, rcond=None)[0]
    return np.concatenate((rest, [1.0 - rest.sum()]))


def nnls(columns: np.ndarray, target: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Nonnegative weights summing to 1 minimizing ||columns @ w - target||.

    Lawson-Hanson's active set, with every least-squares sub-solve taken on
    the affine hull of the free columns (:func:`_affine_lstsq`), so the sum
    constraint holds exactly.  The usual Frank-Wolfe case, where every
    column gets a positive weight, takes one sub-solve.  Otherwise the solve
    starts from ``start``, the weights of the leading columns (the others
    start at 0): they must be feasible and optimal on their own support,
    such as a vertex, or the previous solution when new columns are
    appended.  A step back to the feasible set removes the column that
    blocked it by name, not by a sign test that round-off can fail, and an
    entering column whose weight comes out not positive (its reduced
    gradient was round-off) ends the solve.  A module attribute, so tracers
    can patch it.
    """
    every = _affine_lstsq(columns, target)
    if every.min() > 0.0:
        return every
    w = np.zeros(columns.shape[1])
    w[:len(start)] = start
    free = w > 0.0
    for _ in range(3 * w.size):  # a guard: the active set terminates in exact arithmetic
        grad = columns.T @ (columns @ w - target)
        reduced = np.where(free, np.inf, grad - grad[free].mean())
        enter = int(np.argmin(reduced))
        if reduced[enter] >= 0.0:
            break
        free[enter] = True
        idx = np.flatnonzero(free)
        z = every if free.all() else _affine_lstsq(columns[:, idx], target)
        if z[np.searchsorted(idx, enter)] <= 0.0:
            break
        while z.min() <= 0.0:
            old = w[idx]
            neg = np.flatnonzero(z <= 0.0)
            steps = old[neg] / (old[neg] - z[neg])
            block = neg[int(np.argmin(steps))]
            w[idx] = np.maximum(old + steps.min() * (z - old), 0.0)
            w[idx[block]] = 0.0
            free[idx] = w[idx] > 0.0
            idx = np.flatnonzero(free)
            z = _affine_lstsq(columns[:, idx], target)
        w[idx] = z
    return w


@functools.lru_cache(maxsize=None)
def _supports(dim: int, q: int):
    """The q-level supports of ``dim`` levels in ``combinations`` order, and the
    flat indices of their principal submatrices in a dim x dim matrix; read-only."""
    supports = np.array(list(combinations(range(dim), q)))
    flat = supports[:, :, None] * dim + supports[:, None, :]
    for arr in (supports, flat):
        arr.setflags(write=False)
    return supports, flat


def best_q_approximation(target: PatternCoefficients, chi: DensityMatrix,
                         q: int) -> MixtureApprox:
    """Closest pattern to ``target`` from mixtures of q-coherent states.

    The projection ``chi`` stays fixed.  Fully-corrective Frank-Wolfe from
    the equal superposition of the first q levels; it stops when the duality
    gap falls to ``GAP_TOL + GAP_RTOL * residual`` and gives up after
    ``MAX_ITERS`` iterations.  The active atoms (state, coefficient row and
    residual-embedding column) sit in the leading rows of buffers that
    double when full; they are compacted only when a weight drops to 0.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    dim = target.dim
    sigma_mat = chi.matrix
    if sigma_mat.shape[0] != dim:
        raise ValueError(f"dimension mismatch: pattern {dim} vs projection {sigma_mat.shape[0]}")
    supports, blocks = _supports(dim, min(q, dim))
    tgt = target.one_sided()
    tgt_vec = _coeff_residual_vector(tgt)

    psi = np.zeros(dim, dtype=complex)
    psi[supports[0]] = 1.0 / np.sqrt(supports.shape[1])
    # each atom's coefficient row and residual-embedding column, computed once;
    # embeddings are stored as rows, so embeds[:n].T is the column matrix
    # (F-ordered; nnls gets a C-ordered copy, never written to afterwards)
    psis = np.empty((8, dim), dtype=complex)
    coeffs = np.empty_like(psis)
    embeds = np.empty((8, tgt_vec.size))
    n = 0
    weights = np.empty(0)  # the first solve has one column, whose weight is 1
    converged = False
    for _ in range(MAX_ITERS):
        if n == len(psis):
            psis, coeffs, embeds = (np.concatenate((buf, np.empty_like(buf)))
                                    for buf in (psis, coeffs, embeds))
        row = matrix_coefficients(psi[:, None] * psi.conj(), sigma_mat)
        psis[n], coeffs[n], embeds[n] = psi, row, _coeff_residual_vector(row)
        n += 1
        weights = nnls(embeds[:n].T.copy(), tgt_vec, weights)
        keep = weights > 0
        if not keep.all():
            kept = int(np.count_nonzero(keep))
            for buf in (psis, coeffs, embeds):
                buf[:kept] = buf[:n][keep]
            n, weights = kept, weights[keep]
        r_vec = embeds[:n].T @ weights - tgt_vec
        residual = float(r_vec @ r_vec)
        grad = coefficient_gradient(weights @ coeffs[:n] - tgt, sigma_mat)
        vals, vecs = np.linalg.eigh(grad.take(blocks))
        best = int(np.argmin(vals[:, 0]))
        # Tr(G rho) = 2 <r, c(rho)>, because the coefficients c are linear in rho
        tr_grad_rho = 2.0 * float(r_vec @ (r_vec + tgt_vec))
        gap = max(tr_grad_rho - float(vals[best, 0]), 0.0)
        lower = max(residual - gap, 0.0)
        if gap <= GAP_TOL + GAP_RTOL * residual or residual <= ROUNDOFF_RESIDUAL:
            converged = True
            break
        psi = np.zeros(dim, dtype=complex)
        psi[supports[best]] = vecs[best, :, 0]

    # each atom divided by its norm, as PureState.normalized does, without its checks
    components = [(float(w), PureState._trusted(psi / np.linalg.norm(psi)))
                  for w, psi in zip(weights, psis[:n])]
    assert abs(sum(w for w, _ in components) - 1.0) <= 1e-10
    assert all(coherence_support(s) <= q for _, s in components)
    return MixtureApprox(q=q, components=components, residual=residual,
                         converged=converged, lower_bound=lower)


@dataclass(frozen=True)
class ReproducibilityVerdict:
    """Outcome of the pattern-level coherence test.

    ``exceeds_coherence`` is True when the certified lower bound on the
    residual of every q-coherent mixture exceeds the decision tolerance,
    proving at least (q+1) levels at pattern level.  ``peak_exceeded`` is
    True when max_t p(t), on a grid of 64 points per level, exceeds q M_1
    by the certification rule ``bounds.certifies`` (a relative round-off
    margin): a peak no q-coherent mixture reaches under any projection
    (module docstring).  The peak test can only confirm the fit
    verdict, never veto it: a pattern whose peak stays below q M_1 may still
    be beyond reach of q-coherent mixtures.
    """

    exceeds_coherence: bool
    residual: float
    peak_exceeded: bool
    approx: MixtureApprox = field(repr=False)


def reproducibility_verdict(target: PatternCoefficients, chi: DensityMatrix,
                            q: int) -> ReproducibilityVerdict:
    """Decide whether a pattern lies beyond reach of q-coherent mixtures.

    Claims non-reproducibility only when the Frank-Wolfe lower bound (fit to
    ``GAP_TOL``) on the best q-coherent residual exceeds ``DECISION_TOL``, so
    the claim is proven, not inferred from a search that found nothing better.  An
    exceeded peak bound q M_1 is reported alongside as an independent analytic
    confirmation; the peak is the largest p(t_j) on the grid t_j = 2 pi j / (64 d),
    one product of the coefficients with the cached basis of
    ``patterns.grid_values``.
    """
    approx = best_q_approximation(target, chi, q)
    exceeds = approx.lower_bound > DECISION_TOL
    peak = bool(certifies(grid_values(target.one_sided(), 64 * target.dim).max(), q * target.c0))
    return ReproducibilityVerdict(exceeds_coherence=exceeds, residual=approx.residual,
                                  peak_exceeded=peak, approx=approx)
