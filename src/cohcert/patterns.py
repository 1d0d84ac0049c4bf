"""Interference patterns as trigonometric polynomials with integer frequencies.

A pattern p(t) = c0 + 2 sum_m Re(c_m e^{-imt}) collects the detection
probability over one 2*pi period.  This module holds the one coefficient
kernel c_m = sum_p rho_{p,p-m} sigma_{p-m,p} (a matrix form with its
adjoint, and a pure-state fast path), the one cached grid basis that
evaluates p on a uniform grid, and the one moment engine, which takes
M_n = <p^n> exactly as the mean over an alias-free grid and accepts leading
batch axes.
Sampling on a user-chosen grid is kept as an independent cross-check oracle.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .states import DensityMatrix, PureState

__all__ = _EXPORTS["patterns"]
# The kernel (matrix_coefficients, its adjoint coefficient_gradient,
# overlap_coefficients), the grid evaluation (grid_values) and the engine
# (batch_moments, ratio_from_moments) are unvalidated array building blocks
# shared by the other modules; they stay out of the public API.

SAMPLES_PER_DIM = 16
# fit_pattern_from_samples rejects a design whose condition number exceeds this
COND_LIMIT = 1e6


class PatternCoefficients:
    """DC term c0 plus complex amplitudes c_m for frequencies m = 1..d-1."""

    __slots__ = ("c0", "c")

    def __init__(self, c0, c=()):
        c0 = float(c0)
        carr = np.array(c, dtype=complex)
        if carr.ndim != 1:
            raise ValueError("c must be a 1-d vector of complex coefficients")
        if not (np.isfinite(c0) and np.isfinite(carr).all()):
            raise ValueError("pattern coefficients must be finite")
        object.__setattr__(self, "c0", c0)
        carr.setflags(write=False)
        object.__setattr__(self, "c", carr)

    def __setattr__(self, name, value):
        raise AttributeError("PatternCoefficients is immutable")

    @property
    def dim(self):
        return self.c.size + 1

    def one_sided(self) -> np.ndarray:
        """c_0..c_{d-1} as one complex vector, the kernel's layout."""
        return np.concatenate([[complex(self.c0)], self.c])

    def evaluate(self, t) -> np.ndarray:
        """p(t) on a scalar or array of times (always real)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        m = np.arange(1, self.dim)
        phases = np.exp(-1j * np.outer(t, m))
        vals = self.c0 + 2.0 * (phases @ self.c).real
        return vals

    def is_physical(self, tol: float) -> bool:
        """Check p(t) stays inside [-tol, 1 + tol] on a dense grid (16 points per
        level), evaluated through the cached grid basis of ``grid_values``."""
        vals = grid_values(self.one_sided(), SAMPLES_PER_DIM * self.dim)
        return bool(vals.min() >= -tol and vals.max() <= 1.0 + tol)

    def __repr__(self):
        return f"PatternCoefficients(c0={self.c0:.6g}, dim={self.dim})"


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    if isinstance(state, PureState):
        a = state.amplitudes
        return np.outer(a, a.conj())
    raise TypeError(f"expected DensityMatrix or PureState, got {type(state).__name__}")


def matrix_coefficients(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Kernel, matrix form: c_m = sum_p rho_{p,p-m} sigma_{p-m,p}, m = 0..d-1.

    Covers mixed states and mixed projections; ``rho`` may also be a stack
    of states (n, d, d), giving one row of coefficients per state.  c_m is
    the sum over lag m of the elementwise product rho * sigma^T: one gather
    by the cached index of ``_lag_runs`` lays its lower triangle out lag by
    lag, and one ``np.add.reduceat`` adds each lag's run.
    """
    d = sigma.shape[0]
    flat, starts = _lag_runs(d)
    prod = (rho * sigma.T).reshape(rho.shape[:-2] + (d * d,))
    return np.add.reduceat(prod.take(flat, axis=-1), starts, axis=-1)


@functools.lru_cache(maxsize=None)
def _lag_runs(d: int):
    """Flat indices of the lower triangle of a d x d matrix in lag order (lag m
    holds the entries (p, p - m), p = m..d-1) and the start of each lag's
    run; read-only."""
    flat = np.concatenate([np.arange(m, d) * (d + 1) - m for m in range(d)])
    starts = np.concatenate(([0], np.cumsum(np.arange(d, 1, -1))))
    for arr in (flat, starts):
        arr.setflags(write=False)
    return flat, starts


@functools.lru_cache(maxsize=None)
def _lags(d: int):
    """|i - j| and the mask i < j of a d x d matrix, read-only."""
    i = np.arange(d)
    lag = np.subtract.outer(i, i)
    lags = (np.abs(lag), lag < 0)
    for arr in lags:
        arr.setflags(write=False)
    return lags


def coefficient_gradient(r, sigma: np.ndarray) -> np.ndarray:
    """Adjoint of the matrix kernel: the Hermitian G with Tr(G drho) = dF.

    F(rho) = r_0^2 + 2 sum_m |r_m|^2 is the mean-square pattern distance for
    the one-sided coefficient residual r = c(rho) - c_target, so
    G[p-m, p] = 2 conj(r_m) sigma[p-m, p], G[p, p-m] = its conjugate and
    G[p, p] = 2 r_0 sigma[p, p].  The Hermitian Toeplitz matrix T[i, j] =
    r_{i-j} below the diagonal and conj(r_{j-i}) above it is built by
    indexing with the cached lags of ``_lags`` (the tests match it bit for
    bit with a library Toeplitz constructor).
    """
    abs_lag, upper = _lags(len(r))
    t = r[abs_lag]
    return 2.0 * sigma * np.where(upper, t.conj(), t)


def overlap_coefficients(z) -> np.ndarray:
    """Kernel, pure-state fast path: c_m = sum_q z_{q+m} conj(z_q), m = 0..d-1.

    ``z = psi * conj(chi)`` holds the complex overlaps along the last axis,
    so rho = |psi><psi| and sigma = |chi><chi| need no outer products.  Leading
    axes are a batch.  A single vector takes one C call; a batch is copied
    level-major, so that each lag's sum adds whole rows of the batch instead
    of running one short sum per pattern.
    """
    z = np.asarray(z)
    d = z.shape[-1]
    if z.ndim == 1:
        return np.correlate(z, z, "full")[d - 1:]
    levels = np.ascontiguousarray(np.moveaxis(z, -1, 0))
    cs = np.empty_like(levels)
    for m in range(d):
        np.sum(levels[m:] * levels[: d - m].conj(), axis=0, out=cs[m])
    return np.moveaxis(cs, 0, -1)


@functools.lru_cache(maxsize=None)
def _grid_basis(width: int, points: int):
    """The read-only basis of p on the grid t_j = 2 pi j / points, for patterns
    of ``width`` levels.

    Returns (cos_basis, basis, weights): rows 2m and 2m+1 of ``basis`` hold
    w_m cos(m t_j) and w_m sin(m t_j) (w_0 = 1, w_m = 2 otherwise), so
    interleaved (Re c_m, Im c_m) coefficients times ``basis`` give p(t_j);
    ``cos_basis`` holds the cosine rows alone and serves real coefficients;
    ``weights`` holds 1/points per point, so that a product with it is the
    grid mean.
    """
    t = np.arange(points) * (2 * np.pi / points)
    m = np.arange(width)[:, None]
    w = np.where(m == 0, 1.0, 2.0)
    basis = np.empty((2 * width, points))
    basis[0::2] = w * np.cos(m * t)
    basis[1::2] = w * np.sin(m * t)
    grid = (np.ascontiguousarray(basis[0::2]), basis, np.full(points, 1.0 / points))
    for arr in grid:
        arr.setflags(write=False)
    return grid


def grid_values(cs, points: int) -> np.ndarray:
    """p(t_j) at t_j = 2 pi j / points for the one-sided coefficients ``cs``.

    ``cs`` holds c_0..c_{d-1} along its last axis (real or complex); leading
    axes are a batch, flattened into the rows of the (batch, points) result.
    One matrix product with the cached basis of ``_grid_basis``: no FFT and
    no complex exponentials per call.
    """
    cs = np.asarray(cs)
    cos_basis, basis, _ = _grid_basis(cs.shape[-1], points)
    if cs.dtype.kind == "c":
        cs = np.ascontiguousarray(cs, dtype=complex).view(float)
    else:
        basis = cos_basis
    # 2-d operands throughout: np.dot passes a matrix to BLAS but loops over a
    # stack in C; on one pattern it costs less than matmul
    return np.dot(cs.reshape(-1, basis.shape[0]), basis)


def batch_moments(cs, nmax: int) -> np.ndarray:
    """Engine: M_1..M_nmax of the patterns with one-sided coefficients ``cs``.

    ``cs`` holds c_0..c_{d-1} along its last axis (real or complex); leading
    axes are a batch and the result has shape ``cs.shape[:-1] + (nmax,)``.
    p is evaluated by ``grid_values`` on the alias-free grid of
    nmax*(d-1)+1 points: p^n has frequencies up to n*(d-1), below the grid
    size, so the grid mean of p^n is exact.  Its powers are taken by
    repeated products, p^n = p^(n-1) p, never by a float power, which takes
    several times longer: each product adds at most half an ulp of relative
    error, so M_n is within about n ulps of the mean of ``p ** n``.
    """
    cs = np.asarray(cs)
    shape = cs.shape[:-1] + (nmax,)
    points = nmax * (cs.shape[-1] - 1) + 1
    p = grid_values(cs, points)
    powers = [p]
    for _ in range(nmax - 1):
        powers.append(powers[-1] * p)
    ms = np.dot(np.concatenate(powers), _grid_basis(cs.shape[-1], points)[2])
    return ms.reshape(nmax, -1).T.reshape(shape)


def ratio_from_moments(ms, n: int):
    """R_n = M_n / M_1^{n-1} along the last axis of a moment array."""
    # indexing the transpose keeps one pattern's moments numpy scalars
    return (ms.T[n - 1] / ms.T[0] ** (n - 1)).T


def pattern_from_states(rho, sigma) -> PatternCoefficients:
    """Pattern of Tr(e^{-iHt} rho e^{iHt} sigma): c_m = sum_p rho_{p,p-m} sigma_{p-m,p}.

    ``sigma`` may be mixed, covering measurements that fluctuate over a set
    of projections; for pure rho and sigma this is the Ramsey fringe
    |<chi|U(t)|psi>|^2.  Validated states keep p(t) inside [0, 1], so no
    range check runs here.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape[0]} vs {s.shape[0]}")
    cs = matrix_coefficients(r, s)
    return PatternCoefficients(cs[0].real, cs[1:])


def moments(pat: PatternCoefficients, nmax: int) -> np.ndarray:
    """All moments M_1..M_nmax in one pass; entry n - 1 holds M_n."""
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    return batch_moments(pat.one_sided(), nmax)


def ratio(pat: PatternCoefficients, n: int) -> float:
    """Certifier value R_n = M_n / M_1^{n-1}."""
    if n < 2:
        raise ValueError(f"ratio order must be >= 2, got {n}")
    ms = batch_moments(pat.one_sided(), n)
    if ms[0] <= 0.0:
        raise ValueError("dark pattern: M_1 = 0, ratio undefined")
    return float(ratio_from_moments(ms, n))


def moment_by_sampling(pat: PatternCoefficients, n: int, n_samples: int) -> float:
    """Independent oracle: mean of p(t_j)^n on a uniform grid.

    Exact for band-limited integrands provided no nonzero frequency of p^n
    aliases to DC, which the precondition n_samples > 2 n (d-1) guarantees
    with margin.
    """
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    if n_samples <= 2 * n * (pat.dim - 1):
        raise ValueError(
            f"{n_samples} samples alias: need n_samples > {2 * n * (pat.dim - 1)}"
        )
    grid = np.arange(n_samples) * (2 * np.pi / n_samples)
    return float(np.mean(pat.evaluate(grid) ** n))


@dataclass(frozen=True)
class PatternFit:
    """Least-squares pattern fit: coefficients, RMS residual, conditioning."""

    pattern: PatternCoefficients
    residual: float
    cond: float


def _trig_design(t: np.ndarray, dim: int) -> np.ndarray:
    """The fit's design, one row per unknown: 1, 2 sin t, 2 cos t, ..., 2 cos (dim-1)t.

    2 sin mt and 2 cos mt both obey f_m = 2 cos t f_{m-1} - f_{m-2}, from
    f_0 = (0, 2), so one sin and one cos per sample time build every row.
    """
    rows = np.empty((dim, 2, t.size))
    rows[0] = [[0.0], [2.0]]
    if dim > 1:
        x = 2 * np.cos(t)
        rows[1] = 2 * np.sin(t), x
    for m in range(2, dim):
        np.multiply(x, rows[m - 1], out=rows[m])
        rows[m] -= rows[m - 2]
    rows[0, 1] = 1.0
    return rows.reshape(2 * dim, t.size)[1:]


def fit_pattern_from_samples(samples, dim: int) -> PatternFit:
    """Ordinary least squares for {c0, Re c_m, Im c_m} from (t, p) samples.

    Needs at least 2*dim - 1 finite samples with t inside one period [0, 2pi);
    the first non-finite row is named before any other check runs on the values.

    Method: the design X, with columns 1, 2 cos mt and 2 sin mt (0 < m < dim),
    is built by a recurrence.  The normal equations are solved through the
    eigendecomposition X^T X = V diag(lambda) V^T that also gives ``cond``:
    from x = 0, three passes of x += V ((V^T X^T r) / lambda) with r = p - X x,
    the plain solve and two refinement steps.  This is Bjorck's corrected
    semi-normal equations (Linear Algebra Appl. 88/89, 1987) with the
    eigen-factor diag(sqrt(lambda)) V^T in place of a triangular one: eigh is
    backward stable, so the computed factor is exact for a Gram matrix
    perturbed by about eps |X^T X|, as a Cholesky factor is.  One refinement
    step is not always enough: over 18914 random consistent designs
    (2*dim - 1 samples, dim 2 to 8, cond(X) up to 1e6), 83 kept a residual
    above an SVD solve's by more than the round-off floor eps cond(X) |p|,
    by up to 12 floors; after a second step none did, the largest excess
    being 0.3 floors.  The factor only ever
    multiplies vectors; the same eigenpairs give (X^T X)^-1 =
    V diag(1/lambda) V^T, the covariance of the coefficients up to the noise
    variance.

    ``cond`` is sqrt(lambda_max / lambda_min) of X^T X, with lambda_min taken
    as |X v|^2 at the Gram matrix's lowest eigenvector v.  Up to the limit it
    agrees with sigma_max / sigma_min of X to about 1e-10 relative; far above
    it, it is a lower bound.
    No regularization: a design with cond above COND_LIMIT = 1e6 is rejected
    with a ValueError.  At that limit the Gram matrix's condition number is
    1e12, well inside what the eigen-factor and two refinement steps resolve;
    beyond it a fit amplifies the noise in p about cond-fold (64 samples
    over a quarter period give about 5e9 at dim 8).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (N, 2) array of (t, p) rows")
    if not np.isfinite(arr).all():  # a flat test: row by row costs ~30 times more
        i = int(np.argmin(np.isfinite(arr).all(axis=1)))
        raise ValueError(f"samples[{i}] is not finite: (t, p) = {tuple(arr[i].tolist())}")
    t, p = arr[:, 0], arr[:, 1]
    n_unknowns = 2 * dim - 1
    if arr.shape[0] < n_unknowns:
        raise ValueError(f"need at least {n_unknowns} samples for dim={dim}, got {arr.shape[0]}")
    if t.min() < -1e-9 or t.max() >= 2 * np.pi + 1e-9:
        raise ValueError("sample times must lie within one period [0, 2pi)")
    design = _trig_design(t, dim)
    gram = design @ design.T
    lam, vec = np.linalg.eigh(gram)
    low = vec[:, 0] @ design
    with np.errstate(divide="ignore"):
        cond = float(np.sqrt(lam[-1] / (low @ low)))
    if not cond <= COND_LIMIT:
        raise ValueError(
            f"ill-conditioned fit: design condition number {cond:.3g} exceeds the limit "
            f"{COND_LIMIT:g}; lower the fit dimension or spread the sample times over the period"
        )
    coef, resid = np.zeros(n_unknowns), p
    for _ in range(3):  # the solve, then two refinement steps
        coef += vec @ ((design @ resid) @ vec / lam)
        resid = p - coef @ design
    pat = PatternCoefficients(coef[0], coef[2::2] + 1j * coef[1::2])
    return PatternFit(pat, float(np.sqrt(np.mean(resid * resid))), cond)
