"""Numeric maximization of the certifiers and Werner decoherence thresholds.

The search space for max R_n over k-coherent states reduces to nonnegative
overlap vectors summing to 1 on k adjacent levels (phases gone, preparation
equal to projection).  Every search starts from the uniform row and from
rows drawn by one generator seeded by the configuration's seed.  One
call of ``minimize``, a batched projected Newton method (Bertsekas 1982) on
the exact gradient and Hessian of R_n, moves every restart of a list of
cells (n, k) on its own: each k's rows are padded with zeros to the largest
k, a zero coordinate of a start row stays 0, each row is evaluated at its
own order n, and each row has its own active face of the simplex, its own
Newton direction and its own Armijo step, and stops once it has converged.
A row can still end on a boundary point that is a genuine local maximum of
R_n: a one-level vertex (R_n = 1; near a = (1, 0) at n = 3, k = 2,
R_3 ~ 1 - 2 a_2), or at n = 3, k = 3 the face a = (1/2, 0, 1/2)
(R_3 = 5/4).

A call pays per Newton iteration until its slowest row stops, at a cost
that grows with its width, so ``tables`` groups its cells by width
(``table_scans``), the fastest grouping measured (see CHANGES.md).

The Werner family needs no search: its pattern is 1/k + (1 - lam) q(t), so
R_n is a polynomial in u = 1 - lam, increasing and convex on [0, 1], and a
threshold is its one root there (``_increasing_root``).
"""

import functools
import operator
import sys
from dataclasses import dataclass
from math import comb, inf

import numpy as np
from numpy.linalg import _umath_linalg

from . import _EXPORTS
from .bounds import r3_w_closed_form
from .patterns import batch_moments, overlap_coefficients, ratio_from_moments
from .states import WernerParams

__all__ = _EXPORTS["optimize"]
# werner_coefficients, like the patterns kernel, is an unvalidated building block.

MAX_ITERS = 200  # Newton iteration cap of one minimize call
TOL = 1e-10  # a row converges when its projected gradient is below TOL * max(1, |value|)
ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
ROUNDOFF = 1e-14  # relative round-off of a value, which the line search tolerates
MIN_STEP = 1e-6  # a row whose step length falls below MIN_STEP stops unconverged


@dataclass(frozen=True)
class OptimizationConfig:
    """Multi-start local search settings; the seed fixes every restart."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if operator.index(self.restarts) < 1:
            raise ValueError(f"restarts must be an integer >= 1, got {self.restarts}")
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")


def rn_of_alpha(alpha, n: int) -> float:
    """Certifier value of a phase-free overlap vector summing to 1.

    R_n grows as the square of alpha's scale, so unnormalized vectors give
    scaled values.

    The pattern coefficients are the autocorrelation of alpha, so moments
    follow exactly from the moment engine.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ms = batch_moments(overlap_coefficients(np.asarray(alpha, dtype=float)), n)
    return float(ratio_from_moments(ms, n))


@dataclass(frozen=True)
class OptimizeResult:
    """Best restart of a maximization: argmax ``alpha``, maximum ``value``.

    Each restart stops once the gradient of R_n, projected on its face of
    the simplex, is below ``TOL * max(1, value)``; Newton's quadratic
    convergence leaves ``value`` and ``alpha`` resolved to round-off.
    ``nit`` counts the Newton iterations until the last of this cell's
    restarts stopped.  From the restarts' end values: ``n_agree`` restarts end
    within ``TOL * max(1, value)`` of ``value``; ``spread`` = best - worst,
    which reads ``value - 1`` when a restart ends on a one-level vertex (see
    the module docstring).  The best restart's KKT certificate, on the face
    of the levels it populates: ``kkt_gradient`` is the norm of the projected
    gradient of R_n and ``kkt_curvature`` the largest eigenvalue of the
    Hessian of R_n on the face; a gradient at round-off and a negative
    curvature show a strict local maximum on that face.
    """

    alpha: np.ndarray
    value: float
    converged: bool
    nit: int
    n_agree: int
    spread: float
    kkt_gradient: float
    kkt_curvature: float


@dataclass(frozen=True)
class NewtonResult:
    """End of a ``minimize`` call: end rows ``x`` with their ``values``,
    gradients ``jac`` and Hessians ``hess``, the iteration ``stops`` at which
    each row stopped and whether it ``converged``; the summed value ``fun``,
    ``nfev`` batched evaluations of the objective, ``nit`` Newton iterations
    (the last row's stop), and ``success`` when every row converged."""

    x: np.ndarray
    values: np.ndarray
    jac: np.ndarray
    hess: np.ndarray
    stops: np.ndarray
    converged: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool


def _retract(y: np.ndarray) -> np.ndarray:
    """Rows of ``y`` mapped onto the probability simplex by clipping negative
    entries and rescaling to sum 1."""
    y = np.maximum(y, 0.0)
    return y / y.sum(axis=-1, keepdims=True)


def _positive_definite(h: np.ndarray) -> np.ndarray:
    """Per matrix of the stack ``h``: is it positive definite?  numpy's public
    cholesky raises for the whole stack when one matrix is not; the gufunc
    behind it leaves NaN in that matrix's factor instead, in one call."""
    with np.errstate(invalid="ignore"):
        return ~np.isnan(_umath_linalg.cholesky_lo(h)[:, -1, -1])


def _newton_step(x, g, h, free):
    """Newton directions of the rows of ``x`` on their faces of the simplex.

    A row's face is {d : sum d = 0, d_i = 0 off the free coordinates}.  With
    j the row's largest coordinate, z_i = e_i - e_j for the free i != j, the
    moving coordinates, span it.  The step minimizes the quadratic model
    along the face: in these coordinates the reduced gradient is g_i - g_j
    and the reduced Hessian Z^T H Z is H_il - H_jl - (H_ij - H_jj), with the
    identity off the moving coordinates; the solution y maps back to the
    direction d_i = y_i, d_j = -sum_i y_i.  Where Z^T H Z is not positive
    definite, 1.5 times its Gershgorin bound is added to its diagonal, which
    leaves every eigenvalue at least half as large as the most negative one
    was in size (a factor chosen over 20 seeds of the ``tables`` searches:
    150 Newton iterations on average, against 155 for 2 and 164 for 2.5).
    Where that bound is not negative, Z^T H Z is positive semidefinite and
    singular; the shift is then the norm of the reduced gradient, which
    bounds the solution of the reduced system by 1.
    """
    rows, k = x.shape
    at = np.arange(rows)
    pivot = np.argmax(x, axis=-1)
    moves = free.copy()
    moves[at, pivot] = False
    grad = (g - g[at, pivot, None]) * moves
    row_j, col_j = h[at, pivot], h[at, :, pivot]
    reduced = np.where(moves[:, :, None] & moves[:, None, :],
                       (h - row_j[:, None, :]) - (col_j - row_j[at, pivot, None])[:, :, None],
                       np.eye(k))
    bad = ~_positive_definite(reduced)
    if bad.any():
        # Gershgorin: no eigenvalue lies below min_i (H_ii - sum_{l != i} |H_il|)
        on_diag = np.diagonal(reduced, axis1=1, axis2=2)
        lowest = np.min(on_diag + np.abs(on_diag) - np.abs(reduced).sum(axis=-1), axis=-1)
        shift = np.where(lowest < 0.0, -1.5 * lowest, np.linalg.norm(grad, axis=-1))
        reduced[:, np.arange(k), np.arange(k)] += np.where(bad, shift, 0.0)[:, None] * moves
    step = np.linalg.solve(reduced, -grad[..., None])[..., 0]
    step[at, pivot] = -step.sum(axis=-1)
    return step


def minimize(fun, x0, args=()) -> NewtonResult:
    """Minimize ``fun`` from each row of ``x0`` on its own, by projected Newton.

    ``fun(x, rows, *args)`` returns the values, gradients and Hessians of
    the rows of a (rows, k) array ``x``, rows ``rows`` of ``x0`` in
    increasing order, so ``fun`` can look up data of its own for each row.
    The rows live on the probability simplex, each on the face of the
    coordinates that are positive in its (retracted) start row: a coordinate
    that is 0 there stays 0, so a row padded with zeros searches only its
    own leading levels.  Within that face a coordinate is active, and stays
    0, while it is 0 and its reduced gradient g_i - x . g is positive; the
    retraction clips coordinates that a step takes below 0.  Each iteration
    evaluates every row's trial point in one batched call: a row whose trial
    passes the Armijo test moves there and takes its next Newton step at
    full length, and a row whose trial fails shortens its step for the next
    iteration.  A row stops once its gradient projected on its face is below
    ``TOL * max(1, |value|)``, or unconverged when its step length falls
    below MIN_STEP or after MAX_ITERS iterations; ``stops`` and
    ``converged`` report each row's end.
    """
    xs = _retract(np.array(x0, dtype=float))
    support = xs > 0.0
    live, step = np.arange(len(xs)), np.ones(len(xs))
    f, g, h = fun(xs, live, *args)
    end = [np.empty_like(arr) for arr in (xs, f, g, h)]
    stops = np.zeros(len(xs), dtype=int)
    converged = np.zeros(len(xs), dtype=bool)
    nit = 0
    while True:
        free = support & ((xs > 0.0) | (g <= (xs * g).sum(axis=-1, keepdims=True)))
        mean = (g * free).sum(axis=-1, keepdims=True) / free.sum(axis=-1, keepdims=True)
        along = (g - mean) * free
        scale = np.maximum(1.0, np.abs(f))
        # ``along``, the gradient on the face, decides convergence; a row whose
        # step fell below MIN_STEP found no descent and stops unconverged
        done = (along * along).sum(axis=-1) <= (TOL * scale) ** 2
        stop = done | (step < MIN_STEP) | (nit == MAX_ITERS)
        if stop.any():
            converged[live[done]] = True
            stops[live[stop]] = nit
            for arr, now in zip(end, (xs, f, g, h)):
                arr[live[stop]] = now[stop]
            live, xs, f, g, h, step, scale, free, support = (
                arr[~stop] for arr in (live, xs, f, g, h, step, scale, free, support))
            if not live.size:
                break
        trial = _retract(xs + step[:, None] * _newton_step(xs, g, h, free))
        ft, gt, ht = fun(trial, live, *args)
        nit += 1
        # the Armijo test tolerates round-off, so a Newton step at round-off level passes
        slope = (g * (trial - xs)).sum(axis=-1)
        ok = ft <= f + ARMIJO * slope + ROUNDOFF * scale
        # a failed step shrinks to the minimum of the parabola through f, the
        # slope and the trial value, kept within [1/10, 1/2] of its length
        # (1/10 where the slope does not descend or the trial value is not
        # finite); an accepted one resets to 1
        shrink = np.full(len(xs), 0.1)
        np.divide(-0.5 * slope, ft - f - slope, out=shrink,
                  where=~ok & (slope < 0.0) & np.isfinite(ft))
        step = np.where(ok, 1.0, step * np.clip(shrink, 0.1, 0.5))
        xs, f = np.where(ok[:, None], trial, xs), np.where(ok, ft, f)
        g, h = np.where(ok[:, None], gt, g), np.where(ok[:, None, None], ht, h)
    x, values, jac, hess = end
    return NewtonResult(x=x, values=values, jac=jac, hess=hess, stops=stops, converged=converged,
                        fun=float(values.sum()), nfev=nit + 1, nit=nit,
                        success=bool(converged.all()))


def _start_points(k: int, cfg: OptimizationConfig) -> np.ndarray:
    """One start row per restart: the uniform row 1/k, then ``cfg.restarts - 1``
    rows of k uniform draws + 0.05 from one generator seeded by ``cfg.seed``,
    each normalized.  The rows of r restarts are the leading rows of R > r."""
    draws = np.random.default_rng(cfg.seed).random((cfg.restarts - 1, k)) + 0.05
    return np.concatenate([np.full((1, k), 1.0 / k), draws / draws.sum(axis=-1, keepdims=True)])


@functools.lru_cache(maxsize=None)
def _trig_grid(k: int, n: int):
    """Tables of the simplex objective for k levels and order n, on the moment
    engine's alias-free grid of N = n(k-1)+1 points t_j: e^{iq t_j} for
    q < k, as (k, N) rows; e^{-im t_j} / N for m <= 2k-2, as (N, 2k-1)
    columns; the grid weights 1/N; the index matrices |q - s| and q + s of
    a k x k matrix; and the constants 2n^2, 2n(n-1) and 2n of T, K and G."""
    n_points = n * (k - 1) + 1
    mt = np.arange(2 * k - 1)[:, None] * (np.arange(n_points) * (2 * np.pi / n_points))
    q = np.arange(k)
    grid = (np.exp(1j * mt[:k]), np.exp(-1j * mt).T / n_points, np.full(n_points, 1.0 / n_points),
            np.abs(np.subtract.outer(q, q)), np.add.outer(q, q),
            np.array([2 * n * n, 2 * n * (n - 1), 2 * n])[:, None, None])
    for arr in grid:
        arr.setflags(write=False)
    return grid


def _neg_rn_over_simplex(a: np.ndarray, n: int):
    """-R_n of the rows of ``a`` (scaled as in ``rn_of_alpha`` when a row does
    not sum to 1), and its gradients and Hessians in a.

    With B(t) = sum_q a_q e^{iqt}, p = |B|^2 has dp/da_q = 2 Re(B e^{-iqt})
    and d2p/da_q da_s = 2 cos((q-s)t), so dM_n/da_q = 2n G_q and
    d2M_n/da_q da_s = 2n^2 T_|q-s| + 2n(n-1) K_(q+s) with the transforms
    T_m = Re <p^(n-1) e^{-imt}>, G_q = Re <p^(n-1) B e^{-iqt}> and
    K_m = Re <p^(n-2) B^2 e^{-imt}>.  Every integrand is a trigonometric
    polynomial of degree at most n(k-1), so its mean over the engine's grid
    is exact like the moments.  With M_1 = sum a^2, the quotient rule for
    R_n = M_n / M_1^(n-1) gives the rest.
    """
    k = a.shape[-1]
    waves, transform, mean, lag, total, constants = _trig_grid(k, n)
    b = a @ waves
    p = (b * b.conj()).real
    # p^(n-2), by products: a float power takes several times longer
    pn2 = p if n > 2 else np.ones_like(p)
    for _ in range(n - 3):
        pn2 = pn2 * p
    pn1 = pn2 * p
    j = n - 1
    v = (a * a).sum(axis=-1, keepdims=True)
    scale = v ** -j
    r = ((pn1 * p) @ mean)[:, None] * scale
    # T, K and G, each times its constant and 1 / M_1^(n-1)
    weights = np.concatenate([pn1, pn2 * b * b, pn1 * b])
    t, kk, u = (weights @ transform).real.reshape(3, len(a), -1) * (constants * scale)
    u = u[:, :k]
    # the quotient rule, with dM_1 = 2a and d2M_1 = 2I: u = dM_n / M_1^(n-1) and
    # c = 2(n-1) R_n / M_1 give dR_n = u - c a and d2R_n = d2M_n / M_1^(n-1)
    # - (2(n-1) / M_1)(e a^T + a e^T) - c I, with e = u - (n / 2(n-1)) c a;
    # all three are returned negated
    c = (2 * j) * r / v
    q = (u - (n / (2 * j)) * c * a) * ((2 * j) / v)
    hess = q[:, :, None] * a[:, None, :]
    t[:, :1] -= c  # c I joins the diagonal through T_0, which only |q - s| = 0 reads
    hess += np.swapaxes(hess, 1, 2) - t[:, lag] - kk[:, total]
    return -r[:, 0], c * a - u, hess


def _neg_rn_of_orders(a: np.ndarray, rows: np.ndarray, orders: np.ndarray):
    """``_neg_rn_over_simplex`` of the rows of ``a``, row i at order
    ``orders[rows[i]]``, one evaluation per run of adjacent rows of one order."""
    n = orders[rows]
    cuts = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), len(a)]
    parts = [_neg_rn_over_simplex(a[lo:hi], int(n[lo])) for lo, hi in zip(cuts, cuts[1:])]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


@functools.lru_cache(maxsize=None)
def _face_basis(size: int) -> np.ndarray:
    """An orthonormal basis, as (size, size - 1) columns, of the directions
    along a face of ``size`` levels (entries summing to 0); read-only."""
    basis = np.linalg.qr(np.eye(size)[:, 1:] - 1.0 / size)[0]
    basis.setflags(write=False)
    return basis


def _kkt_certificate(a: np.ndarray, g: np.ndarray, h: np.ndarray):
    """Norm of the gradient ``g`` of R_n at the simplex point ``a`` projected on
    the face of a's nonzero levels, and the largest eigenvalue of the Hessian
    ``h`` on that face."""
    face = a > 0.0
    g, h = g[face], h[np.ix_(face, face)]
    basis = _face_basis(len(g))
    return float(np.linalg.norm(g - g.mean())), float(np.linalg.eigvalsh(basis.T @ h @ basis).max())


def _maximize(cells, cfg: OptimizationConfig | None = None) -> list:
    """Maximize R_n over states populating k adjacent levels, for each cell
    (n, k) of ``cells``, in one ``minimize`` call.

    Each k's start rows serve every order, padded with zeros to the call's
    width; R_n of a padded row is R_n of its first k entries (each order's
    grid of n(width - 1) + 1 points is alias-free for every k).
    """
    for n, k in cells:
        if n not in (3, 4, 5) or k < 2:
            raise ValueError(f"n must be one of 3, 4, 5 and k must be >= 2, got n={n}, k={k}")
    cfg = cfg or OptimizationConfig()
    rows = cfg.restarts
    starts = {k: _start_points(k, cfg) for k in {k for _, k in cells}}
    x0 = np.zeros((len(cells) * rows, max(starts)))
    for i, (_, k) in enumerate(cells):
        x0[i * rows:(i + 1) * rows, :k] = starts[k]
    res = minimize(_neg_rn_of_orders, x0, args=(np.repeat([n for n, _ in cells], rows),))
    results = []
    for i, (n, k) in enumerate(cells):
        block = slice(i * rows, (i + 1) * rows)
        values = -res.values[block]
        best = values.argmax()
        best_val = values[best]
        if n == 3:
            assert best_val >= r3_w_closed_form(k) - TOL
        row = block.start + best
        kkt_gradient, kkt_curvature = _kkt_certificate(res.x[row], -res.jac[row], -res.hess[row])
        results.append(OptimizeResult(
            alpha=res.x[row, :k], value=float(best_val), converged=bool(res.converged[block].all()),
            nit=int(res.stops[block].max()),
            n_agree=int(np.sum(values >= best_val - TOL * max(1.0, best_val))),
            spread=float(best_val - values.min()),
            kkt_gradient=kkt_gradient, kkt_curvature=kkt_curvature))
    return results


def maximize_rn_over_ck(n: int, k: int, cfg: OptimizationConfig | None = None) -> OptimizeResult:
    """Maximize R_n over states populating k adjacent levels.

    Returns the best overlap vector (equal to the amplitude-squared profile
    of the optimal state) and its value.  ``converged`` is False when a
    restart stopped short of its tolerance; the best value found is still
    reported.
    """
    return _maximize([(n, k)], cfg)[0]


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


def _growth_fit(n: int, results) -> GrowthScan:
    """The scan of the maxima ``results`` of order n for k = 2, 3, ..."""
    ks = np.arange(2, len(results) + 2)
    values = np.array([res.value for res in results])
    slope, intercept = np.polyfit(ks, values, 1)
    residuals = values - (slope * ks + intercept)
    return GrowthScan(n=n, ks=ks, values=values, slope=float(slope),
                      intercept=float(intercept), residuals=residuals, results=tuple(results))


def growth_scan(k_max: int, n: int = 3, cfg: OptimizationConfig | None = None) -> GrowthScan:
    """Maximize R_n for k = 2..k_max in one search and fit a line through the
    maxima."""
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3 for a line through the maxima, got {k_max}")
    return _growth_fit(n, _maximize([(n, k) for k in range(2, k_max + 1)], cfg))


def table_scans(cfg: OptimizationConfig | None = None) -> dict:
    """The growth scans of ``tables``, n = 3 for k = 2..8 and n = 4, 5 for
    k = 2..5, in two searches grouped by width: every order at k <= 5, then
    n = 3 at k = 6..8."""
    solves = ([(n, k) for n in (3, 4, 5) for k in range(2, 6)], [(3, k) for k in range(6, 9)])
    found = {cell: res for cells in solves for cell, res in zip(cells, _maximize(cells, cfg))}
    return {n: _growth_fit(n, [found[n, k] for k in range(2, k_max + 1)])
            for n, k_max in ((3, 8), (4, 5), (5, 5))}


def _uniform_pattern(k: int) -> np.ndarray:
    """Coefficients of W_k under W_k: the autocorrelation of the uniform
    profile 1/k on k levels."""
    return overlap_coefficients(np.full(k, 1.0 / k))


def werner_coefficients(k: int, lam) -> np.ndarray:
    """Coefficients of werner(k, lam) under the W_k projection: c_0 = 1/k and
    c_m = (1 - lam) c_m^W, one row per entry of an array ``lam``, with c^W
    the W_k pattern under W_k."""
    c_w = _uniform_pattern(k)
    cs = np.multiply.outer(1.0 - np.asarray(lam, dtype=float), c_w)
    cs[..., 0] = 1.0 / k
    return cs


def _neg_werner_rn(x: np.ndarray, rows, k: int, lam: float, n: int):
    """-R_n of werner(k, lam) under the real projections x / |x| for the rows
    x of ``x`` (``rows`` is unused), and its gradients and Hessians in x.

    With S = sum x^2 and u = |sum_q x_q e^{iqt}|^2 / S, the pattern is
    (lam + (1 - lam) u) / k and M_1 = 1/k, so R_n = (1/k) sum_j C(n, j)
    lam^(n-j) (1 - lam)^j <u^j>, where <u^0> = <u> = 1 and <u^j> = R_j / S
    for j >= 2, with R_j of ``_neg_rn_over_simplex``.  For the weighted sum
    P of the -R_j and F = P / S, the quotient rule with dS = 2x and
    d2S = 2I gives dF = (dP - 2 F x) / S and
    d2F = (d2P - 2 (dF x^T + x dF^T) - 2 F I) / S.
    """
    weights = [comb(n, j) * lam ** (n - j) * (1.0 - lam) ** j / k for j in range(n + 1)]
    terms = [_neg_rn_over_simplex(x, j) for j in range(2, n + 1)]
    f, g, h = (sum(w * term[i] for w, term in zip(weights[2:], terms)) for i in range(3))
    s = (x * x).sum(axis=-1)
    f = f / s
    g = (g - 2.0 * f[:, None] * x) / s[:, None]
    gx = g[:, :, None] * x[:, None, :]
    h = h - 2.0 * (gx + np.swapaxes(gx, 1, 2) + f[:, None, None] * np.eye(k))
    return f - weights[0] - weights[1], g, h / s[:, None, None]


def werner_rn(k: int, lam: float, n: int, projection: str = "w",
              cfg: OptimizationConfig | None = None) -> float:
    """R_n of the k-level Werner-like state under a chosen projection.

    projection: "w" projects onto the equal superposition W_k (the optimal
    measurement for Werner-like states at lam = 0), and "optimize"
    maximizes over real projection states chi by one ``minimize`` call on
    the simplex, as in ``maximize_rn_over_ck`` (restarts from ``cfg``; the
    first restart starts at W_k and no step lowers R_n beyond round-off, so
    the result is not below the "w" value).

    Nonnegative chi lose nothing.  Under a unit real chi the pattern has
    c_0 = 1/k and c_m = (1 - lam)/k A_m with A_m = sum_q chi_{q+m} chi_q,
    so p = c_0 + 2 sum_m c_m cos(mt) and M_n = <p^n> is a polynomial in the
    c_m whose coefficients, means of products of cosines, are nonnegative.
    |A_m(chi)| <= A_m(|chi|) and 1 - lam >= 0 bound each of its terms by
    the same term at |chi|, and M_1 = 1/k at both, so R_n(|chi|) >=
    R_n(chi).  R_n depends on chi >= 0 only through its direction
    (``_neg_werner_rn``), so a search over nonnegative unit chi is a search
    over the simplex.
    """
    WernerParams(k, lam)  # validates k and lam
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if projection == "w":
        return float(ratio_from_moments(batch_moments(werner_coefficients(k, lam), n), n))
    if projection != "optimize":
        raise ValueError(f"unknown projection {projection!r}")
    cfg = cfg or OptimizationConfig(restarts=8)
    res = minimize(_neg_werner_rn, _start_points(k, cfg), args=(k, lam, n))
    return float(-res.values.min())


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


def _increasing_root(c, target: float) -> float:
    """The root in (0, 1) of P(u) = sum_j c_j u^j = target, for a polynomial
    increasing on [0, 1] with P(0) < target < P(1).

    Newton's method from u = 1, safeguarded by bisection: each evaluation
    shrinks the bracket [lo, hi] around the root, and a step that leaves it,
    or one from a point where P' is not positive, is replaced by the
    midpoint.  Where P is also convex, as R_n of the Werner family is,
    Newton's iterates from the right decrease to the root without crossing
    it and need no midpoint.  It stops once a step moves u by at most 4
    ulps.  Only values of P on [0, 1] enter, so a round-off error d in a
    coefficient moves P by at most |d| there and the root by |d| / P'; the
    degree and the leading coefficient play no role.  A companion-matrix
    root finder divides by that coefficient, which can be round-off: at
    k = 2 the odd moments of the centred Werner pattern cos(t) / 2 vanish,
    and the computed ones are about 1e-17.
    """
    lo, hi, u = 0.0, 1.0, 1.0
    for _ in range(100):  # 100 halvings of [0, 1] reach an ulp of any root above 4e-15
        f = df = 0.0
        for cj in reversed(c):  # Horner, with the derivative alongside
            df = df * u + f
            f = f * u + cj
        f -= target
        if f < 0.0:
            lo = u
        else:
            hi = u
        step = f / df if df > 0.0 else inf
        if abs(step) <= 4 * sys.float_info.epsilon * u:
            return u - step
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    return u


def _werner_threshold(n: int, k: int, mu, threshold: float) -> ThresholdRecord:
    """Solve R_n(werner(k, 1 - u)) = threshold for u, given the moments
    ``mu`` = <q^j>, j = 1..n (or more), of the centred W_k pattern q."""
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    threshold = float(threshold)
    c = [comb(n, j) * float(k) ** (j - 1) * m for j, m in enumerate([1.0, *mu[:n]])]
    desc = f"werner({k}) under w projection"
    if sum(c) <= threshold:
        return ThresholdRecord(n, k, 0.0, desc, threshold, reachable=False)
    if c[0] >= threshold:
        return ThresholdRecord(n, k, 1.0, desc, threshold, reachable=False)
    return ThresholdRecord(n, k, 1.0 - _increasing_root(c, threshold), desc, threshold,
                           reachable=True)


def lambda_threshold(n: int, k: int, threshold: float) -> ThresholdRecord:
    """Solve R_n(werner(k, lam)) = threshold under the W_k projection.

    With u = 1 - lam and mu_j = <q^j> for the centred W_k pattern q, M_1 = 1/k
    and R_n = sum_j C(n, j) k^(j-1) mu_j u^j, kept in the u basis (better
    conditioned than lam).  dR_n/du = n k^(n-1) <q p^(n-1)> >= 0 since p >= 0
    grows with q and <q> = 0, so a bracketed root is unique, and
    d2R_n/du2 = n(n-1) k^(n-1) <q^2 p^(n-2)> >= 0; ``_increasing_root``
    finds the root.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    q = _uniform_pattern(k)
    q[0] = 0.0
    return _werner_threshold(n, k, batch_moments(q, n).tolist(), threshold)


def decoherence_threshold_table(k_values=range(3, 11)):
    """Werner decoherence thresholds lambda_thr^(n)(k-1) under W_k projection,
    for n = 3, 4, 5 and each k of ``k_values``.

    The comparison threshold for losing (k)-coherence is R_n of the equal
    superposition of k-1 levels, which is what the published threshold
    table tracks (the slightly larger best-known maxima over C_{k-1} would
    shift the n=3 row down by up to 0.02).  One moment pass, up to n = 5,
    serves every k: the centred W_k patterns (the autocorrelation of the
    uniform k-profile, less its mean) and the uniform (k-1)-profiles,
    zero-padded to the largest k.
    """
    ks = list(k_values)
    if ks and min(ks) < 2:
        raise ValueError(f"k must be >= 2, got {min(ks)}")
    cs = np.zeros((2, len(ks), max(ks, default=2)))
    for row, k in enumerate(ks):
        cs[0, row, :k] = _uniform_pattern(k)
        cs[1, row, :k - 1] = _uniform_pattern(k - 1)
    cs[0, :, 0] = 0.0
    mu, ms = batch_moments(cs, 5).tolist()
    return [_werner_threshold(n, k, mu[row], ms[row][n - 1] / ms[row][0] ** (n - 1))
            for n in (3, 4, 5) for row, k in enumerate(ks)]
