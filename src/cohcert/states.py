"""States over the equally spaced (harmonic) energy basis.

Levels are 0-indexed, level n carrying energy n, so the dynamics is
2*pi-periodic.  Everything here is immutable after construction and all
operations are pure functions, safe for concurrent use.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .reference import PUBLISHED_TABLE2

__all__ = _EXPORTS["states"]

NORM_TOL = 1e-12
PSD_FLOOR = -1e-10


def _readonly(arr):
    arr.setflags(write=False)
    return arr


class PureState:
    """A normalized state vector over the harmonic basis.

    Amplitudes must be finite and their Euclidean norm must equal 1 within
    1e-12; use :meth:`normalized` to build a state from an unnormalized
    amplitude vector.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d vector")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @classmethod
    def normalized(cls, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(amps)
        if not 0 < nrm < np.inf and np.isfinite(amps).all() and amps.any():
            # the sum of squares under- or overflowed: scale the largest part to 1 first,
            # dividing the parts as reals (a complex division overflows on subnormals)
            scale = max(np.abs(amps.real).max(), np.abs(amps.imag).max())
            amps = amps.real / scale + 1j * (amps.imag / scale)
            nrm = np.linalg.norm(amps)
        if not np.isfinite(nrm):
            raise ValueError("amplitudes must be finite")
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / nrm)

    @property
    def dim(self):
        return self.amplitudes.size

    def density(self):
        """Rank-1 density matrix |psi><psi|: Hermitian and PSD by construction,
        with unit trace within twice the 1e-12 norm tolerance, so it skips
        validation."""
        a = self.amplitudes
        return DensityMatrix._trusted(np.outer(a, a.conj()))

    def __repr__(self):
        return f"PureState({np.array2string(self.amplitudes, precision=4)})"


class DensityMatrix:
    """A density operator: Hermitian, unit trace, positive semidefinite.

    The constructor validates a supplied matrix: Hermiticity and trace are
    enforced within 1e-12, and eigenvalues (one ``eigvalsh``) may dip to
    -1e-10 to tolerate round-off in externally supplied matrices.  The
    library's own builds that hold these properties by construction,
    :meth:`PureState.density` and :func:`werner_state`, go through
    ``_trusted`` and skip the checks.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("density matrix must be square and non-empty")
        if np.abs(mat - mat.conj().T).max() > NORM_TOL:
            raise ValueError("density matrix not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1 within 1e-12")
        evals = np.linalg.eigvalsh(mat)
        if evals.min() < PSD_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {evals.min():.3e} < -1e-10")
        object.__setattr__(self, "matrix", _readonly(mat))

    @classmethod
    def _trusted(cls, mat):
        """Wrap a complex matrix that is a density operator by construction,
        without validation or a copy; the matrix becomes read-only."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", _readonly(mat))
        return rho

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class WernerParams:
    """Mixing parameters of the Werner-like state on ``k`` levels."""

    k: int
    lam: float

    def __post_init__(self):
        if operator.index(self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")


def coherence_support(psi: PureState, tol: float = 1e-10) -> int:
    """Number of amplitudes with modulus above ``tol``.

    A pure state with support q is exactly q-coherent in this basis.  The
    tolerance is exposed because experimentally reconstructed states carry
    noise; there is no canonical cutoff.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    return int(np.count_nonzero(np.abs(psi.amplitudes) > tol))


def w_state(k: int) -> PureState:
    """Equal superposition of ``k`` levels."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return PureState(np.full(k, 1.0 / np.sqrt(k), dtype=complex))


def psi_star(k: int, order: int = 3) -> PureState:
    """Best-known state maximizing the order-``order`` certifier over k levels.

    Built-in profiles are the published Table-2 amplitude-squared profiles,
    covering order in {3, 4, 5} and k in {2..5}; they are renormalized (two
    of the published rows sum to 1.01 after rounding).
    For larger k run the numeric optimizer instead.
    """
    if k == 1:
        return w_state(1)
    key = (order, k)
    if key not in PUBLISHED_TABLE2:
        raise ValueError(
            f"no built-in profile for (order={order}, k={k}); "
            "use cohcert.optimize.maximize_rn_over_ck"
        )
    prof = np.array(PUBLISHED_TABLE2[key][2], dtype=float)
    return PureState(np.sqrt(prof / prof.sum()))


def werner_state(params: WernerParams) -> DensityMatrix:
    """(1-lam)|W_k><W_k| + (lam/k) I_k: real symmetric, unit trace and PSD
    for the validated ``params``, so it skips validation."""
    k, lam = params.k, params.lam
    mat = np.full((k, k), (1.0 - lam) / k, dtype=complex)
    mat[np.diag_indices(k)] = 1.0 / k
    return DensityMatrix._trusted(mat)
