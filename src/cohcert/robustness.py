"""Faulty-measurement Monte Carlo: random unitary drift of the projection.

Projections drift as chi(tau) = e^{i H_r tau} chi with H_r drawn from the
Gaussian Unitary Ensemble, and the certifier is tracked against the
deviation D(tau) = sum_i |chi_i(tau) - chi_i(0)|^2.  Convexity guarantees
drifted measurements never overestimate coherence; these sweeps quantify
how fast they underestimate it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .bounds import R3_CERTIFICATION_THRESHOLDS, certifies
from .patterns import batch_moments, overlap_coefficients, ratio_from_moments
from .states import PureState, _readonly, psi_star

__all__ = _EXPORTS["robustness"]

# tau = 0 (drift-free anchor) plus 50 log-spaced points in [1e-3, 1]
TAU_GRID = _readonly(np.concatenate([[0.0], np.logspace(-3.0, 0.0, 50)]))
# R_3 is averaged over N_BINS equal deviation bins covering [0, BIN_MAX)
N_BINS = 12
BIN_MAX = 0.6
# drifted_projection accepts H with max |H - H^dag| up to this fraction of max |H|
HERMITIAN_RTOL = 1e-12


def _gue_draws(d: int, seed: int) -> np.ndarray:
    """The standard normal real and imaginary parts of one GUE matrix, as one
    (2, d, d) draw from ``default_rng(seed)``."""
    return np.random.default_rng(seed).standard_normal((2, d, d))


def _hermitian(draws: np.ndarray) -> np.ndarray:
    """H = (A + A^dag)/2 with A = draws[..., 0, :, :] + i draws[..., 1, :, :];
    leading axes of ``draws`` are a batch."""
    a = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def sample_gue(d: int, seed: int) -> np.ndarray:
    """Draw one GUE matrix H = (A + A^dag)/2 of dimension d, reproducibly from ``seed``.

    A has standard normal real/imag entries, so every entry of H has variance
    1 and the spectrum lies near [-2 sqrt(d), 2 sqrt(d)]; the scale is
    immaterial downstream, where results are reported against D, not tau.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return _hermitian(_gue_draws(d, seed))


def _drift(h: np.ndarray, psi: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """e^{i H tau} psi for every tau, shape ``h.shape[:-2] + (taus.size, d)``:
    one eigendecomposition per H (leading axes of ``h`` are a batch)."""
    evals, evecs = np.linalg.eigh(h)
    coeffs = evecs.conj().swapaxes(-1, -2) @ psi
    phases = np.exp(1j * taus[:, None] * evals[..., None, :])
    return (phases * coeffs[..., None, :]) @ evecs.swapaxes(-1, -2)


def drifted_projection(psi: PureState, h, tau: float) -> PureState:
    """Evolve the projection state: e^{i H tau} |psi>, via eigendecomposition.

    ``tau`` must be finite, and ``h`` a finite square matrix of psi's
    dimension, Hermitian to max |H - H^dag| <= HERMITIAN_RTOL max |H| (the
    eigendecomposition reads one triangle only, so it would silently drop an
    anti-Hermitian part).
    """
    h = np.asarray(h)
    tau = float(tau)
    d = psi.amplitudes.size
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"H must be a square matrix, got shape {h.shape}")
    if h.shape[0] != d:
        raise ValueError(f"dimension mismatch: H is {h.shape[0]} x {h.shape[0]}, psi has {d} levels")
    if not np.isfinite(h).all():
        raise ValueError("H must be finite")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    asymmetry = np.abs(h - h.conj().T).max()
    if asymmetry > HERMITIAN_RTOL * np.abs(h).max():
        raise ValueError(f"H is not Hermitian: max |H - H^dag| = {asymmetry:.3g}")
    out = _drift(h, psi.amplitudes, np.array([tau]))[0]
    return PureState(out / np.linalg.norm(out))


def measurement_deviation(chi_tau: PureState, chi0: PureState) -> float:
    """D = sum_i |chi_tau_i - chi0_i|^2 (squared distance, no square root).

    Sensitive to the global phase of the drifted state by construction; no
    phase gauging is applied.
    """
    a, b = chi_tau.amplitudes, chi0.amplitudes
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(np.sum(np.abs(a - b) ** 2))


@dataclass(frozen=True)
class ToleranceSweep:
    """Full record set of a drift sweep plus D-binned ensemble statistics.

    ``records`` is a read-only record array with one row per (sample, tau),
    sample-major over ``TAU_GRID``, and fields ``seed``, ``tau``,
    ``deviation`` and ``r3``.  ``crossing`` holds, per sample, the first
    deviation at which R_3 stops certifying k-coherence under
    ``bounds.certifies`` (NaN if it never does on the grid).  Binning covers
    deviations up to ``bin_edges[-1]``; records beyond that window are kept
    but not binned.
    """

    k: int
    master_seed: int
    threshold: float
    drift_free_r3: float
    records: np.recarray = field(repr=False)
    bin_edges: np.ndarray = field(repr=False)
    bin_mean: np.ndarray = field(repr=False)
    bin_std: np.ndarray = field(repr=False)
    bin_count: np.ndarray = field(repr=False)
    crossing: np.ndarray = field(repr=False)


def _r3_psi_chi(psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """R_3 of |psi> measured by |chi>; ``chi`` may carry leading batch axes."""
    return ratio_from_moments(batch_moments(overlap_coefficients(psi * chi.conj()), 3), 3)


def tolerance_sweep(k: int, n_samples: int, seed: int = 0) -> ToleranceSweep:
    """Ensemble of drifted-measurement sweeps for the best-known k-coherent state.

    For every sample (one GUE Hamiltonian) and every tau of ``TAU_GRID``,
    records the deviation D and R_3(psi, chi(tau)); emits mean/std of R_3
    binned by D plus the per-sample first crossing of the k-coherence
    certification threshold.  Bit-for-bit reproducible from (seed, k).
    """
    if k not in (3, 4):
        raise ValueError("tolerance sweeps cover k = 3 or 4 (proven thresholds)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    taus = TAU_GRID
    psi_vec = psi_star(k).amplitudes
    threshold = float(R3_CERTIFICATION_THRESHOLDS[k - 2])
    drift_free = float(_r3_psi_chi(psi_vec, psi_vec))

    seeds = np.random.SeedSequence(seed).generate_state(n_samples)
    draws = np.array([_gue_draws(psi_vec.size, s) for s in seeds.tolist()])
    chi = _drift(_hermitian(draws), psi_vec, taus)
    # tau = 0 must anchor the drift-free value exactly, round-off free
    anchor = taus == 0.0
    chi[:, anchor] = psi_vec
    devs = np.sum(np.abs(chi - psi_vec) ** 2, axis=-1)
    r3s = _r3_psi_chi(psi_vec, chi)
    r3s[:, anchor] = drift_free

    records = _readonly(np.rec.fromarrays(
        [np.repeat(seeds, taus.size), np.tile(taus, n_samples), devs.ravel(), r3s.ravel()],
        names=("seed", "tau", "deviation", "r3")))
    below = ~certifies(r3s, threshold)
    first = below.argmax(axis=1)
    i = np.arange(n_samples)
    crossing = _readonly(np.where(below[i, first], devs[i, first], np.nan))

    edges = np.linspace(0.0, BIN_MAX, N_BINS + 1)
    idx = np.digitize(devs.ravel(), edges) - 1
    # a stable sort keeps each bin's records in record order, so a bin's slice
    # holds the values a boolean mask would pick, in the same order
    order = np.argsort(idx, kind="stable")
    starts = np.searchsorted(idx[order], np.arange(N_BINS + 1))
    binned = r3s.ravel()[order]
    count = np.diff(starts)
    mean = np.full(N_BINS, np.nan)
    std = np.full(N_BINS, np.nan)
    for b in np.flatnonzero(count):
        values = binned[starts[b]:starts[b + 1]]
        mean[b] = values.mean()
        std[b] = values.std()
    return ToleranceSweep(
        k=k, master_seed=int(seed), threshold=threshold, drift_free_r3=drift_free,
        records=records, bin_edges=edges, bin_mean=mean,
        bin_std=std, bin_count=count, crossing=crossing,
    )


def _median_and_quartiles(values: np.ndarray):
    """``np.median(values)`` and ``np.percentile(values, [25, 50, 75])`` of a
    non-empty array, bit for bit, from one sort (the numpy functions import
    ``numpy.ma`` on first use).  numpy's rules: the median is the middle value
    or the mean (a + b) / 2 of the middle two; a percentile q takes the virtual
    index (n - 1) q between a = x[i] and b = x[i + 1], with g its fractional
    part, as a + (b - a) g for g < 0.5 and b - (b - a)(1 - g) otherwise.
    """
    x = np.sort(values).tolist()
    n = len(x)
    h = n // 2
    median = x[h] if n % 2 else (x[h - 1] + x[h]) / 2
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        i = int((n - 1) * q)
        g = (n - 1) * q - i
        a, b = x[i], x[min(i + 1, n - 1)]
        quartiles.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return median, quartiles


def sweep_summary(sweep: ToleranceSweep) -> dict:
    """JSON-ready binned statistics and crossing figures."""
    crossed = sweep.crossing[~np.isnan(sweep.crossing)]
    median, quartiles = _median_and_quartiles(crossed) if crossed.size else (None, None)
    return {
        "k": sweep.k,
        "seed": sweep.master_seed,
        "threshold": sweep.threshold,
        "drift_free_r3": sweep.drift_free_r3,
        "n_samples": len(sweep.crossing),
        "n_records": len(sweep.records),
        "bin_edges": [float(x) for x in sweep.bin_edges],
        "bin_mean": [None if np.isnan(x) else float(x) for x in sweep.bin_mean],
        "bin_std": [None if np.isnan(x) else float(x) for x in sweep.bin_std],
        "bin_count": [int(x) for x in sweep.bin_count],
        "crossings_found": len(crossed),
        "median_crossing_deviation": median,
        "crossing_deviation_quartiles": quartiles,
    }
