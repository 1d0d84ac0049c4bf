import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohcert import (
    OptimizationConfig,
    PureState,
    drifted_projection,
    maximize_rn_over_ck,
    measurement_deviation,
    psi_star,
    sample_gue,
    sweep_summary,
    tolerance_sweep,
    w_state,
)
from cohcert import robustness
from cohcert.bounds import certifies, certify_r3
from cohcert.cli import main
from conftest import rand_pure


def test_sample_gue_deterministic():
    a = sample_gue(4, 123)
    b = sample_gue(4, 123)
    assert np.array_equal(a, b)
    c = sample_gue(4, 124)
    assert not np.array_equal(a, c)


def test_sample_gue_hermitian():
    for seed in range(5):
        h = sample_gue(6, seed)
        assert np.abs(h - h.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        sample_gue(1, 0)


def test_gue_ensemble_mean_zero():
    d, n = 3, 2000
    acc = np.zeros((d, d), dtype=complex)
    for seed in range(n):
        acc += sample_gue(d, seed)
    mean = acc / n
    # entry std is <= 1, so the mean of 2000 draws stays within ~4 sigma
    assert np.abs(mean).max() < 4 / np.sqrt(n)


def test_gue_spectrum_semicircular_support():
    d, extremes = 16, []
    for seed in range(200):
        evals = np.linalg.eigvalsh(sample_gue(d, seed))
        extremes.append(np.abs(evals).max())
    extremes = np.array(extremes)
    # coarse check of the variance convention: edge near 2 sqrt(d)
    assert extremes.max() < 2.6 * np.sqrt(d)
    assert extremes.mean() > 1.5 * np.sqrt(d)


def test_drifted_projection_identity_at_zero():
    rng = np.random.default_rng(1)
    psi = rand_pure(rng, 4)
    h = sample_gue(4, 7)
    out = drifted_projection(psi, h, 0.0)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_drifted_projection_unitary_and_reversible():
    rng = np.random.default_rng(2)
    psi = rand_pure(rng, 5)
    h = sample_gue(5, 8)
    for tau in (0.1, 0.9, 4.0):
        out = drifted_projection(psi, h, tau)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
        back = drifted_projection(out, h, -tau)
        assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-10


def test_drifted_projection_rejects_a_non_hermitian_h():
    # eigh reads one triangle only: this H would leave psi unchanged
    h = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        drifted_projection(psi_star(3), h, 0.5)
    # round-off far below the tolerance is accepted
    h = sample_gue(3, 4)
    h[0, 1] *= 1 + 1e-15
    drifted_projection(psi_star(3), h, 0.5)


def test_drifted_projection_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        drifted_projection(psi_star(3), sample_gue(4, 1), 0.5)


def test_drifted_projection_rejects_a_non_square_h():
    with pytest.raises(ValueError, match="square"):
        drifted_projection(psi_star(3), np.zeros((3, 4)), 0.5)
    with pytest.raises(ValueError, match="square"):
        drifted_projection(psi_star(3), np.zeros(3), 0.5)


def test_drifted_projection_rejects_a_non_finite_h_or_tau():
    h = sample_gue(3, 2)
    h[1, 1] = np.nan
    with pytest.raises(ValueError, match="H must be finite"):
        drifted_projection(psi_star(3), h, 0.5)
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            drifted_projection(psi_star(3), sample_gue(3, 2), tau)


def test_measurement_deviation():
    psi = w_state(2)
    assert measurement_deviation(psi, psi) == 0.0
    e0 = PureState([1.0, 0.0])
    e1 = PureState([0.0, 1.0])
    assert measurement_deviation(e0, e1) == pytest.approx(2.0)
    theta = 0.7
    rotated = PureState(np.exp(1j * theta) * psi.amplitudes)
    assert measurement_deviation(rotated, psi) == pytest.approx(2 - 2 * np.cos(theta))
    with pytest.raises(ValueError):
        measurement_deviation(w_state(2), w_state(3))


def test_tolerance_sweep_reproducible():
    a = tolerance_sweep(3, 10, seed=5)
    b = tolerance_sweep(3, 10, seed=5)
    assert np.array_equal(a.records, b.records)
    assert np.array_equal(a.crossing, b.crossing, equal_nan=True)
    c = tolerance_sweep(3, 10, seed=6)
    assert not np.array_equal(c.records, a.records)


def test_tolerance_sweep_zero_drift_anchor():
    sweep = tolerance_sweep(4, 8, seed=1)
    zero_recs = [r for r in sweep.records if r.tau == 0.0]
    assert len(zero_recs) == 8
    for r in zero_recs:
        assert r.D == 0.0
        assert r.r3 == sweep.drift_free_r3
    assert sweep.drift_free_r3 == pytest.approx(2.3211, abs=1e-3)


def test_tolerance_sweep_never_exceeds_class_maximum():
    sweep = tolerance_sweep(3, 30, seed=2)
    cap = maximize_rn_over_ck(3, 3, OptimizationConfig(restarts=6)).value
    assert max(r.r3 for r in sweep.records) <= cap + 1e-9


def test_small_drift_keeps_certifying_k3():
    # 3-coherence has a wide tolerance region: at small deviations the
    # ensemble mean stays above the 5/4 threshold
    sweep = tolerance_sweep(3, 50, seed=4)
    small = [m for m, c in zip(sweep.bin_mean[:3], sweep.bin_count[:3]) if c > 0]
    assert small and all(m > 1.25 for m in small)


def test_tolerance_sweep_validation():
    with pytest.raises(ValueError):
        tolerance_sweep(5, 10)
    with pytest.raises(ValueError):
        tolerance_sweep(3, 0)


def test_sweep_csv_and_summary(tmp_path):
    sweep = tolerance_sweep(3, 5, seed=9)
    path = tmp_path / "sweep.csv"
    main(["gue-sweep", "--k", "3", "--samples", "5", "--seed", "9", "--format", "csv",
          "--out", str(path)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(row for row in fh if not row.startswith("#")))
    assert rows[0] == ["seed", "tau", "D", "r3"]
    assert len(rows) - 1 == len(sweep.records)
    summary = sweep_summary(sweep)
    assert summary["n_samples"] == 5
    assert summary["threshold"] == pytest.approx(5 / 4)
    assert summary["drift_free_r3"] == pytest.approx(1.7731, abs=1e-3)
    assert len(summary["bin_mean"]) == len(summary["bin_edges"]) - 1


def test_sweep_records_are_one_read_only_array():
    sweep = tolerance_sweep(3, 40, seed=2)
    recs = sweep.records
    assert recs.dtype.names == ("seed", "tau", "D", "r3")
    assert len(recs) == 40 * robustness.TAU_GRID.size
    with pytest.raises(ValueError):
        recs.r3[0] = 0.0
    # sample-major: each seed repeats over the whole tau grid
    by_sample = recs.reshape(40, robustness.TAU_GRID.size)
    assert (by_sample.seed == by_sample.seed[:, :1]).all()
    assert len(set(by_sample.seed[:, 0].tolist())) == 40
    assert (by_sample.tau == robustness.TAU_GRID).all()
    # NaN exactly for the samples that certify at every tau
    kept = certifies(by_sample.r3, sweep.threshold).all(axis=1)
    assert 0 < kept.sum() < 40
    assert (np.isnan(sweep.crossing) == kept).all()


def test_sweep_hamiltonians_equal_sample_gue(monkeypatch):
    hamiltonians = []
    drift = robustness._drift
    monkeypatch.setattr(robustness, "_drift", lambda h, *a: hamiltonians.append(h) or drift(h, *a))
    for k in (3, 4):
        sweep = tolerance_sweep(k, 7, seed=k)
        seeds = sweep.records.seed[::robustness.TAU_GRID.size]
        h = hamiltonians.pop()
        assert h.shape == (7, k, k)
        for s, hs in zip(seeds.tolist(), h):
            assert hs.tobytes() == sample_gue(k, s).tobytes()


@pytest.mark.parametrize("k, n_samples, seed", [(3, 40, 11), (4, 40, 12), (3, 3, 1), (4, 100, 0)])
def test_sweep_bins_equal_the_mask_loop(k, n_samples, seed):
    """The sorted-slice bins against one boolean mask per bin, bit for bit."""
    sweep = tolerance_sweep(k, n_samples, seed=seed)
    idx = np.digitize(sweep.records.D, sweep.bin_edges) - 1
    mean = np.full(robustness.N_BINS, np.nan)
    std = np.full(robustness.N_BINS, np.nan)
    count = np.zeros(robustness.N_BINS, dtype=int)
    for b in range(robustness.N_BINS):
        sel = idx == b
        count[b] = int(sel.sum())
        if count[b]:
            mean[b] = sweep.records.r3[sel].mean()
            std[b] = sweep.records.r3[sel].std()
    assert sweep.bin_count.tolist() == count.tolist()
    assert mean.tobytes() == sweep.bin_mean.tobytes()
    assert std.tobytes() == sweep.bin_std.tobytes()
    # the cases include records beyond the binned window, and (3, 3, 1) an empty bin
    assert count.sum() < len(sweep.records)


def test_sweep_crossing_uses_the_certification_rule(monkeypatch):
    # R_3 a few ulps above 5/4 does not certify 3-coherence, so every sample
    # has lost certification already at the drift-free point
    on_threshold = 1.25 * (1 + 4e-14)
    assert certify_r3(on_threshold).certified_level == 2
    monkeypatch.setattr(robustness, "_r3_psi_chi",
                        lambda psi, chi: np.full(chi.shape[:-1], on_threshold))
    sweep = tolerance_sweep(3, 4, seed=0)
    assert (sweep.crossing == 0.0).all() and sweep.crossing.size == 4


@st.composite
def crossing_samples(draw):
    """1-59 values across decades, drawn from a pool so that some tie."""
    value = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-12, 12))
    pool = draw(st.lists(value, min_size=1, max_size=59))
    n = draw(st.integers(1, 59))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(crossing_samples())
@example(np.array([0.3]))
@example(np.array([0.1, 0.7]))
@example(np.array([0.2, 0.2, 0.5, 0.5]))
@example(np.array([1e-9, 3e-3, 0.25, 0.25, 7.0]))
def test_median_and_quartiles_match_numpy(values):
    median, quartiles = robustness._median_and_quartiles(values)
    assert median == float(np.median(values))
    assert quartiles == [float(q) for q in np.percentile(values, [25, 50, 75])]
