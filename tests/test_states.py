import numpy as np
import pytest

from cohcert import (
    DensityMatrix,
    PureState,
    WernerParams,
    coherence_support,
    psi_star,
    w_state,
    werner_state,
)
from conftest import rand_pure


def test_pure_state_norm_enforced():
    PureState([1.0, 0.0])
    with pytest.raises(ValueError):
        PureState([1.0, 0.5])
    psi = PureState.normalized([1.0, 1.0])
    assert np.allclose(psi.amplitudes, [1 / np.sqrt(2)] * 2)
    with pytest.raises(ValueError):
        PureState.normalized([0.0, 0.0])


@pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 0.0], [np.nan, 0.0]])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # NaN compares false with the norm tolerance, so the norm check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        PureState(bad)
    with pytest.raises(ValueError, match="finite"):
        PureState.normalized(bad)


def test_pure_state_immutable():
    psi = w_state(2)
    with pytest.raises(AttributeError):
        psi.amplitudes = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_matrix_validation():
    DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_matrix_psd_floor_tolerates_roundoff():
    DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))


def test_werner_params_validation():
    WernerParams(3, 0.5)
    with pytest.raises(ValueError):
        WernerParams(0, 0.5)
    with pytest.raises(ValueError):
        WernerParams(3, 1.2)
    with pytest.raises(TypeError):
        WernerParams(2.5, 0.5)


def test_coherence_support_examples():
    assert coherence_support(PureState([1, 0, 0])) == 1
    assert coherence_support(w_state(3)) == 3
    assert coherence_support(psi_star(3)) == 3


def test_coherence_support_tolerance():
    psi = PureState.normalized([1.0, 1e-11, 0.0])
    assert coherence_support(psi) == 1
    assert coherence_support(psi, tol=1e-12) == 2
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError):
            coherence_support(psi, tol=bad)


def test_coherence_support_permutation_covariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = rand_pure(rng, 6)
        count = coherence_support(psi)
        perm = rng.permutation(6)
        assert coherence_support(PureState(psi.amplitudes[perm])) == count


def test_werner_state_limits():
    k = 3
    pure = werner_state(WernerParams(k, 0.0))
    w = w_state(k)
    assert np.allclose(pure.matrix, np.outer(w.amplitudes, w.amplitudes.conj()), atol=1e-14)
    mixed = werner_state(WernerParams(k, 1.0))
    assert np.allclose(mixed.matrix, np.eye(k) / k, atol=1e-14)


def test_werner_state_entries():
    rho = werner_state(WernerParams(3, 0.18)).matrix
    off = (1 - 0.18) / 3
    assert np.allclose(np.diagonal(rho), 1 / 3)
    assert abs(rho[0, 1] - off) < 1e-15 and abs(rho[0, 2] - off) < 1e-15


def test_w_state_profile():
    assert np.allclose(np.abs(w_state(2).amplitudes) ** 2, [0.5, 0.5])


def test_psi_star_profiles():
    assert np.allclose(np.abs(psi_star(3).amplitudes) ** 2, [0.31, 0.38, 0.31], atol=1e-12)
    # rows whose printed entries do not sum to 1 exactly are renormalized
    got = np.abs(psi_star(5).amplitudes) ** 2
    want = np.array([0.17, 0.21, 0.23, 0.21, 0.17])
    assert abs(got.sum() - 1.0) < 1e-12
    assert np.allclose(got, want / want.sum(), atol=1e-12)
    assert np.abs(got - want).max() < 0.005
    r55 = np.abs(psi_star(5, order=5).amplitudes) ** 2
    assert abs(r55.sum() - 1.0) < 1e-12
    assert np.allclose(r55, np.array([0.19, 0.21, 0.21, 0.21, 0.19]) / 1.01, atol=1e-12)


def test_psi_star_unavailable():
    with pytest.raises(ValueError):
        psi_star(6)
    with pytest.raises(ValueError):
        psi_star(3, order=6)


def test_constructors_pass_own_invariants():
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        psi = PureState.normalized(v)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
        rho = psi.density()
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-12


def test_library_built_states_equal_their_validated_matrices():
    # PureState.density and werner_state skip validation: the validating
    # constructor accepts each of their matrices and stores the same bits
    rng = np.random.default_rng(12)
    built = [rand_pure(rng, d).density() for d in range(1, 9)]
    built += [PureState.normalized(rng.standard_normal(d)).density() for d in range(1, 9)]
    built += [w_state(k).density() for k in range(1, 9)]
    built += [psi_star(k, n).density() for n in (3, 4, 5) for k in range(2, 6)]
    built += [werner_state(WernerParams(k, lam)) for k in range(1, 9)
              for lam in (0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0)]
    for rho in built:
        assert type(rho) is DensityMatrix
        assert not rho.matrix.flags.writeable
        checked = DensityMatrix(rho.matrix)
        assert checked.matrix.dtype == rho.matrix.dtype
        assert checked.matrix.tobytes() == rho.matrix.tobytes()
        with pytest.raises(AttributeError):
            rho.matrix = checked.matrix
