"""Faulty-measurement Monte Carlo: random unitary drift of the projection.

Projections drift as chi(tau) = e^{i H_r tau} chi with H_r drawn from the
Gaussian Unitary Ensemble, and the certifier is tracked against the
deviation D(tau) = sum_i |chi_i(tau) - chi_i(0)|^2.  Convexity guarantees
drifted measurements never overestimate coherence; these sweeps quantify
how fast they underestimate it.
"""

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import R3_CERTIFICATION_THRESHOLDS
from .patterns import batch_moments, overlap_coefficients, ratio_from_moments
from .states import PureState, psi_star

__all__ = [
    "GueSample",
    "SweepRecord",
    "ToleranceSweep",
    "sample_gue",
    "drifted_projection",
    "measurement_deviation",
    "tolerance_sweep",
    "SWEEP_CSV_HEADER",
    "sweep_csv_rows",
    "write_sweep_csv",
    "sweep_summary",
]


@dataclass(frozen=True)
class GueSample:
    """A GUE draw H = (A + A^dag)/2 with standard normal real/imag entries.

    Diagonal entries are real with variance 1; off-diagonal complex entries
    have total variance 1, putting the spectral support near [-2 sqrt(d),
    2 sqrt(d)].  The scale convention is immaterial downstream because
    results are reported against the deviation D, not tau.
    """

    matrix: np.ndarray
    seed: int

    def __post_init__(self):
        self.matrix.setflags(write=False)


def sample_gue(d: int, seed: int) -> GueSample:
    """Draw one GUE matrix of dimension d, reproducibly from ``seed``."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return GueSample(matrix=(a + a.conj().T) / 2.0, seed=int(seed))


def drifted_projection(psi: PureState, h, tau: float) -> PureState:
    """Evolve the projection state: e^{i H tau} |psi>, via eigendecomposition."""
    mat = h.matrix if isinstance(h, GueSample) else np.asarray(h)
    evals, evecs = np.linalg.eigh(mat)
    out = (evecs * np.exp(1j * evals * tau)) @ (evecs.conj().T @ psi.amplitudes)
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


class SweepRecord(NamedTuple):
    seed: int
    tau: float
    deviation: float
    r3: float
    k: int


@dataclass(frozen=True)
class ToleranceSweep:
    """Full record set of a drift sweep plus D-binned ensemble statistics.

    ``crossings`` holds, per sample, the first deviation at which R_3 drops
    below the certification threshold for k-coherence (None if it never
    does on the grid).  Binning covers deviations up to ``bin_edges[-1]``;
    records beyond that window are kept but not binned.
    """

    k: int
    master_seed: int
    threshold: float
    drift_free_r3: float
    tau_grid: np.ndarray
    records: list = field(repr=False)
    bin_edges: np.ndarray = field(repr=False)
    bin_mean: np.ndarray = field(repr=False)
    bin_std: np.ndarray = field(repr=False)
    bin_count: np.ndarray = field(repr=False)
    crossings: list = field(repr=False)


def _r3_psi_chi(psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """R_3 of |psi> measured by |chi>; ``chi`` may carry leading batch axes."""
    return ratio_from_moments(batch_moments(overlap_coefficients(psi * chi.conj()), 3), 3)


def default_tau_grid() -> np.ndarray:
    """tau = 0 (drift-free anchor) plus 50 log-spaced points in [1e-3, 1]."""
    return np.concatenate([[0.0], np.logspace(-3.0, 0.0, 50)])


def tolerance_sweep(k: int, n_samples: int, tau_grid=None, seed: int = 0,
                    psi: PureState | None = None, n_bins: int = 12,
                    bin_max: float = 0.6) -> ToleranceSweep:
    """Ensemble of drifted-measurement sweeps for the best-known k-coherent state.

    For every sample (one GUE Hamiltonian) and every tau, records the
    deviation D and R_3(psi, chi(tau)); emits mean/std of R_3 binned by D
    plus the per-sample first crossing of the k-coherence certification
    threshold.  Bit-for-bit reproducible from (seed, k, tau_grid).
    """
    if k not in (3, 4):
        raise ValueError("tolerance sweeps cover k = 3 or 4 (proven thresholds)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    taus = default_tau_grid() if tau_grid is None else np.asarray(tau_grid, dtype=float)
    psi = psi or psi_star(k)
    psi_vec = psi.amplitudes
    threshold = float(R3_CERTIFICATION_THRESHOLDS[k - 2])
    drift_free = float(_r3_psi_chi(psi_vec, psi_vec))

    seeds = [int(c) for c in np.random.SeedSequence(seed).generate_state(n_samples)]
    evals, evecs = np.linalg.eigh(np.stack([sample_gue(psi_vec.size, s).matrix for s in seeds]))
    coeffs = evecs.conj().swapaxes(1, 2) @ psi_vec
    # chi[s, i] = e^{i H_s tau_i} psi for every sample and tau in one matmul
    phases = np.exp(1j * taus[:, None] * evals[:, None, :])
    chi = (phases * coeffs[:, None, :]) @ evecs.swapaxes(1, 2)
    # tau = 0 must anchor the drift-free value exactly, round-off free
    anchor = taus == 0.0
    chi[:, anchor] = psi_vec
    devs = np.sum(np.abs(chi - psi_vec) ** 2, axis=-1)
    r3s = _r3_psi_chi(psi_vec, chi)
    r3s[:, anchor] = drift_free

    tau_list = taus.tolist()
    records = [
        SweepRecord(s, tau, dev, r3, k)
        for s, dev_row, r3_row in zip(seeds, devs.tolist(), r3s.tolist())
        for tau, dev, r3 in zip(tau_list, dev_row, r3_row)
    ]
    below = r3s < threshold
    first = below.argmax(axis=1)
    crossings = [
        (s, float(devs[i, first[i]]) if below[i, first[i]] else None)
        for i, s in enumerate(seeds)
    ]

    edges = np.linspace(0.0, bin_max, n_bins + 1)
    devs, r3s = devs.ravel(), r3s.ravel()
    idx = np.digitize(devs, edges) - 1
    mean = np.full(n_bins, np.nan)
    std = np.full(n_bins, np.nan)
    count = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = idx == b
        count[b] = int(sel.sum())
        if count[b]:
            mean[b] = r3s[sel].mean()
            std[b] = r3s[sel].std()
    return ToleranceSweep(
        k=k, master_seed=int(seed), threshold=threshold, drift_free_r3=drift_free,
        tau_grid=taus, records=records, bin_edges=edges, bin_mean=mean,
        bin_std=std, bin_count=count, crossings=crossings,
    )


SWEEP_CSV_HEADER = ("seed", "tau", "D", "r3")


def sweep_csv_rows(sweep: ToleranceSweep):
    """One ``SWEEP_CSV_HEADER`` row per record, floats at full precision."""
    return ((r.seed, repr(r.tau), repr(r.deviation), repr(r.r3)) for r in sweep.records)


def write_sweep_csv(sweep: ToleranceSweep, path) -> None:
    """Record rows as ``seed,tau,D,r3`` for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        writer.writerows(sweep_csv_rows(sweep))


def sweep_summary(sweep: ToleranceSweep) -> dict:
    """JSON-ready binned statistics and crossing figures."""
    crossed = [c for _, c in sweep.crossings if c is not None]
    return {
        "k": sweep.k,
        "seed": sweep.master_seed,
        "threshold": sweep.threshold,
        "drift_free_r3": sweep.drift_free_r3,
        "n_samples": len(sweep.crossings),
        "n_records": len(sweep.records),
        "bin_edges": [float(x) for x in sweep.bin_edges],
        "bin_mean": [None if np.isnan(x) else float(x) for x in sweep.bin_mean],
        "bin_std": [None if np.isnan(x) else float(x) for x in sweep.bin_std],
        "bin_count": [int(x) for x in sweep.bin_count],
        "crossings_found": len(crossed),
        "median_crossing_deviation": float(np.median(crossed)) if crossed else None,
        "crossing_deviation_quartiles": (
            [float(q) for q in np.percentile(crossed, [25, 50, 75])] if crossed else None
        ),
    }
