"""Analytic certification thresholds and closed-form results.

The third-moment certifier R_3 admits proven maxima over k-coherent states:
1 for k=1, 5/4 for k=2 and 179/96 for k=3 (any Hamiltonian, any projection),
plus 39/16 for 4 adjacent levels.  Exceeding a maximum certifies at least
(k+1)-coherence.  The bounds come from a frequency-grouped reparametrization
D_n = sum_p a_{p+n} a_p in which R_3 is convex on a linear-constraint
polytope, so only polytope vertices need checking; each published vertex
family attains its maximum at a rational end point of its D_0 range, so the
maxima are evaluated exactly in Fraction arithmetic.
"""

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from . import _EXPORTS
from .patterns import PatternCoefficients, moments, overlap_coefficients, ratio_from_moments

__all__ = _EXPORTS["bounds"]
# certifies, the rule certify_r3 applies, is shared with the drift sweep and approx's
# peak test, not public API.

# Proven maxima of R_3 over C_k, exact rationals; index = k - 1.
R3_CERTIFICATION_THRESHOLDS = (Fraction(1), Fraction(5, 4), Fraction(179, 96))
# Relative margin a value must clear above a threshold: a few hundred ulps,
# above the round-off of the moment engine, so that a state sitting exactly
# at a threshold (R_3(W_2) = 5/4) is never certified by float error alone.
ROUNDOFF_MARGIN = 5e-14
# certify_pattern rejects a pattern leaving [-RANGE_SLACK, 1 + RANGE_SLACK]: counts or percent
# data, not a probability.  Noisy probability fringes stray a few 1e-3 outside [0, 1].
RANGE_SLACK = 0.1
# Slack on the vertex-family constraint inequalities, which are evaluated in floats.
CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Verdict of a certifier on its ladder of proven maxima.

    ``certified_level`` is the largest k whose threshold the value exceeds
    by more than the relative round-off margin, plus one; ``threshold_used``
    is that exceeded threshold (0.0 when nothing is exceeded and only
    1-coherence is claimed).  The certificate: ``threshold_exact`` is the
    exceeded threshold as an exact rational and ``margin_used`` =
    value / threshold - 1 (both None at level 1); ``next_threshold_exact``
    and ``margin_to_next`` are the same for the next threshold up, which the
    value does not clear (both None at the top level).
    """

    value: float
    certified_level: int
    threshold_used: float
    threshold_exact: Fraction | None
    margin_used: float | None
    next_threshold_exact: Fraction | None
    margin_to_next: float | None


def certifies(value, threshold):
    """The certification rule, elementwise: value > threshold * (1 + ROUNDOFF_MARGIN)."""
    return value > float(threshold) * (1.0 + ROUNDOFF_MARGIN)


def certify_r3(value: float) -> Verdict:
    """Classify an R_3 value against the proven thresholds 1, 5/4, 179/96.

    Level k+1 is certified when ``certifies(value, thr)`` holds for thr, the
    proven maximum over k-coherent states.
    """
    value = float(value)
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"R_3 must be finite and nonnegative, got {value}")
    level = 1 + sum(certifies(value, thr) for thr in R3_CERTIFICATION_THRESHOLDS)
    used, nxt = (None, *R3_CERTIFICATION_THRESHOLDS, None)[level - 1:level + 1]
    used_margin, next_margin = (None if t is None else value / float(t) - 1.0 for t in (used, nxt))
    return Verdict(value=value, certified_level=level,
                   threshold_used=0.0 if used is None else float(used),
                   threshold_exact=used, margin_used=used_margin,
                   next_threshold_exact=nxt, margin_to_next=next_margin)


def certify_pattern(pattern: PatternCoefficients) -> tuple[np.ndarray, Verdict]:
    """The moments M_1..M_5 of a probability pattern and the R_3 verdict on it.

    The proven maxima bound R_3 of patterns with values in [0, 1] only, and
    R_3(c p) = c R_3(p), so a pattern that is not a probability raises
    ValueError: one leaving [-RANGE_SLACK, 1 + RANGE_SLACK] on the
    ``is_physical`` grid (counts or percent data), a dark one (M_1 <= 0),
    and one with R_3 < 0 (a fit that dips below 0 where it is dark).
    Patterns of validated states pass every check.
    """
    if not pattern.is_physical(tol=RANGE_SLACK):
        raise ValueError(f"fitted p(t) leaves [{-RANGE_SLACK}, {1 + RANGE_SLACK}]; "
                         "p must be a probability")
    ms = moments(pattern, 5)
    if ms[0] <= 0.0:
        raise ValueError("dark pattern: M_1 = 0, ratios undefined")
    r3 = float(ratio_from_moments(ms, 3))
    if r3 < 0.0:
        raise ValueError(f"fitted p(t) has R_3 = {r3} < 0; p must be a probability")
    return ms, certify_r3(r3)


class DVector:
    """Frequency-grouped variables: D_0 = sum a_p^2 and Dtilde_i = D_i / D_0.

    ``dtilde[i]`` holds the frequency-(i+1) entry.  When derived from a
    normalized overlap vector these satisfy D_0 (1 + 2 sum Dtilde_i) = 1;
    that identity is not enforced here because vertex parametrizations are
    outer approximations that may sit off the physical manifold.
    """

    __slots__ = ("d0", "dtilde")

    def __init__(self, d0, dtilde):
        d0 = float(d0)
        dt = np.array(dtilde, dtype=float)
        if dt.ndim != 1:
            raise ValueError("dtilde must be a 1-d vector")
        d = dt.size + 1
        if not (1.0 / d - 1e-12 <= d0 <= 1.0 + 1e-12):
            raise ValueError(f"D_0 = {d0} outside [1/{d}, 1]")
        if not np.isfinite(dt).all():
            raise ValueError("Dtilde entries must be finite")
        if dt.size and dt.min() < -1e-12:
            raise ValueError("Dtilde entries must be nonnegative")
        if dt.size and dt.max() > (d - 1) / 2 + 1e-12:
            raise ValueError(f"Dtilde entries exceed the bound (d-1)/2 = {(d - 1) / 2}")
        dt.setflags(write=False)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "dtilde", dt)

    def __setattr__(self, name, value):
        raise AttributeError("DVector is immutable")

    def at_frequency(self, freq: int) -> float:
        """Dtilde at an absolute frequency, 0 outside the stored range."""
        if 1 <= freq <= self.dtilde.size:
            return float(self.dtilde[freq - 1])
        return 0.0


def d_from_alpha(alpha) -> DVector:
    """Group a normalized overlap vector by frequency: D_n = sum_p a_{p+n} a_p."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("alpha must be a non-empty 1-d vector")
    if a.min() < 0:
        raise ValueError("alpha entries must be nonnegative")
    if abs(a.sum() - 1.0) > 1e-12:
        raise ValueError(f"alpha must sum to 1 within 1e-12, got {a.sum()!r}")
    dn = overlap_coefficients(a)
    return DVector(dn[0], dn[1:] / dn[0])


def _r3(d0, dtilde):
    """R_3 of D_0 and the sequence Dt_1..Dt_nf in the arithmetic of its
    arguments: floats give floats, Fractions the exact value."""
    nf = len(dtilde)
    total = sum(x * x for x in dtilde)
    for i in range(1, nf):
        # ordered pairs (i, j) with j = 1..nf-i land on frequency i+j
        for j in range(1, nf - i + 1):
            total += dtilde[i - 1] * dtilde[j - 1] * dtilde[i + j - 1]
    return d0 + 6 * d0 * total


def r3_from_d(dv: DVector) -> float:
    """R_3 = 6 D_0 (1/6 + sum_i Dt_i^2 + sum_{i+j=k} Dt_i Dt_j Dt_k).

    The triple sum runs over ordered pairs (i, j) with i + j = k; this
    convention reproduces R_3(W_2) = 5/4 and R_3(W_3) = 47/27 exactly and
    matches the moment engine on random states.
    """
    return float(_r3(dv.d0, dv.dtilde.tolist()))


def r3_w_closed_form(k: int) -> float:
    """Exact R_3 of the equal superposition of k adjacent levels.

    (4 + 5 k^2 + 11 k^4) / (20 k^3); grows asymptotically linearly in k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(Fraction(4 + 5 * k**2 + 11 * k**4, 20 * k**3))


def lambda_dec(k: int, q: int) -> float:
    """Mixing parameter above which the k-level Werner-like state is only q-coherent.

    Under the optimal projection onto W_k it is also the value above which
    the Werner pattern is reproducible by q-coherent mixtures: a single
    pattern then resolves q-coherence fully.
    """
    if operator.index(k) < 2:
        raise ValueError("k must be >= 2")
    if not 1 <= operator.index(q) <= k:
        raise ValueError(f"q must lie in 1..{k}, got {q}")
    return (k - q) / (k - 1)


# ---------------------------------------------------------------------------
# Vertex tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexRecord:
    """One polytope vertex family: coordinates as functions of D_0.

    ``coords`` maps absolute frequency -> expression of D_0, exact for a
    Fraction argument.  ``r3_max`` is the maximum of R_3 over ``d0_range``,
    an exact Fraction attained at the end point ``d0_argmax``: R_3 has no
    interior critical point above its end-point values on any published
    family (the test suite proves this symbolically).
    """

    case: str
    d0_range: tuple[Fraction, Fraction]
    coords: Mapping[int, Callable] = field(repr=False)

    def _dtilde(self, d0) -> list:
        """Dt_1..Dt_nf at ``d0``, in the arithmetic of ``d0``."""
        return [self.coords[f](d0) if f in self.coords else 0
                for f in range(1, max(self.coords) + 1)]

    def dvector(self, d0: float) -> DVector:
        lo, hi = self.d0_range
        if not lo - 1e-12 <= d0 <= hi + 1e-12:
            raise ValueError(f"D_0 = {d0} outside vertex range [{lo}, {hi}]")
        return DVector(d0, self._dtilde(d0))

    def r3_at(self, d0):
        """R_3 of the family at ``d0``; exact for a Fraction ``d0``."""
        return _r3(d0, self._dtilde(d0))

    @property
    def d0_argmax(self) -> Fraction:
        return max(self.d0_range, key=self.r3_at)

    @property
    def r3_max(self) -> Fraction:
        return self.r3_at(self.d0_argmax)

    def constraints_satisfied(self, d0: float) -> bool:
        vals = {f: expr(d0) for f, expr in self.coords.items()}
        return _case_constraints_ok(self.case, d0, vals)


def _case_constraints_ok(case: str, d0: float, vals: dict) -> bool:
    """Inequality families bounding each case's region.

    The normalization plane D_0 (1 + 2 sum Dt) = 1 is not required: vertex
    records generally sit on it, but one published k=d=4 family does not
    and is kept verbatim.
    """
    tol = CONSTRAINT_TOL
    lower2 = max(0.0, (1 - 2 * d0) / (4 * d0))
    if case == "k3d3":
        d1, d2 = vals[1], vals[2]
        return (
            1 / 3 - tol <= d0 <= 1 + tol
            and lower2 - tol <= d2 <= 0.5 + tol
            and -tol <= d1 <= 1 + tol
            and 1 - 2 * d1 + 2 * d2 >= -tol
        )
    if case in ("k3_general_generic", "k3_general_ratio12"):
        vs = list(vals.values())
        return (
            1 / 3 - tol <= d0 <= 1 + tol
            and all(lower2 - tol <= v <= 0.5 + tol for v in vs)
        )
    if case == "k4d4":
        d1, d2, d3 = vals[1], vals[2], vals[3]
        lower3 = max(0.0, (1 - 3 * d0) / (6 * d0))
        return (
            1 / 4 - tol <= d0 <= 1 + tol
            and lower2 - tol <= d2 <= 0.5 + tol
            and lower3 - tol <= d3 <= 0.5 + tol
            and -tol <= d1 <= 1 + tol
            and d1 + d3 <= 1 + tol
            and 1 - 2 * d1 + 2 * d2 - 2 * d3 >= -tol
        )
    raise ValueError(f"unknown case {case!r}")


_QUARTER, _THIRD, _HALF, _ONE = Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)


def _low2(x):
    return (1 - 2 * x) / (4 * x)


# Published vertex families.  For the 3-populated-level general-placement
# cases every vertex value is evaluated on the fully resonant frequency
# triple (1, 2, 3): extra resonances only add nonnegative terms, so this
# upper-bounds every admissible level placement.  The assignment of the
# coordinate 1/2 to frequency 2 (generic column) respectively frequency 1
# (1:2-ratio column) is fixed by matching the published maxima 61/48 and
# 4/3 (printed as 1.27 and 1.33).
_VERTEX_DEFS = {
    "k3d3": [
        ((_HALF, _ONE), {1: lambda x: (1 - x) / (2 * x), 2: lambda x: 0}),
        ((_THIRD, _HALF), {1: lambda x: (1 - 2 * x) / (2 * x), 2: lambda x: _HALF}),
        ((_THIRD, _HALF), {1: lambda x: 1 / (4 * x), 2: _low2}),
    ],
    "k3_general_generic": [
        ((_HALF, _ONE), {1: lambda x: 0, 2: lambda x: 0, 3: lambda x: (1 - x) / (2 * x)}),
        ((_THIRD, _HALF), {1: _low2, 2: lambda x: _HALF, 3: _low2}),
    ],
    "k3_general_ratio12": [
        ((_HALF, _ONE), {1: lambda x: (1 - x) / (2 * x), 2: lambda x: 0, 3: lambda x: 0}),
        ((_THIRD, _HALF), {1: lambda x: _HALF, 2: _low2, 3: _low2}),
    ],
    "k4d4": [
        ((_HALF, _ONE), {1: lambda x: (1 - x) / (4 * x), 2: lambda x: 0, 3: lambda x: 0}),
        ((_THIRD, _HALF), {1: lambda x: (1 - 2 * x) / (2 * x), 2: lambda x: _HALF,
                           3: lambda x: 0}),
        ((_THIRD, _HALF), {1: _low2, 2: _low2, 3: lambda x: _HALF}),
        ((_THIRD, _HALF), {1: lambda x: 1 / (4 * x), 2: _low2, 3: lambda x: 0}),
        ((_QUARTER, _THIRD), {1: lambda x: (1 - 3 * x) / (2 * x), 2: lambda x: _HALF,
                              3: lambda x: _HALF}),
        ((_QUARTER, _THIRD), {1: lambda x: (2 - 3 * x) / (6 * x), 2: lambda x: _HALF,
                              3: lambda x: (1 - 3 * x) / (6 * x)}),
        ((_QUARTER, _THIRD), {1: _low2, 2: _low2, 3: lambda x: _HALF}),
    ],
}

VERTEX_CASES = tuple(_VERTEX_DEFS)


def vertex_table(case: str) -> list[VertexRecord]:
    """Vertex families of a case with their exact R_3 maxima over D_0.

    The k=d=3 maxima {5/4, 19/12, 179/96} and the k=d=4 overall maximum
    39/16 are the certification-relevant bounds; the 3-level general
    placement families give {5/4, 61/48} (generic) and {5/4, 4/3} (1:2
    frequency ratio).
    """
    if case not in _VERTEX_DEFS:
        raise ValueError(f"unknown case {case!r}; choose from {VERTEX_CASES}")
    return [VertexRecord(case=case, d0_range=d0_range, coords=coords)
            for d0_range, coords in _VERTEX_DEFS[case]]


# Frequencies carrying the variables of each case's Hessian.  The general
# 3-level placement uses the canonical generic gaps (1, 4, 5); the 1:2 ratio
# uses (1, 2, 3).
_HESSIAN_FREQS = {
    "k3d3": (1, 2),
    "k3_general_generic": (1, 4, 5),
    "k3_general_ratio12": (1, 2, 3),
    "k4d4": (1, 2, 3),
}


def hessian_principal_minors(dv: DVector, case: str) -> np.ndarray:
    """Leading principal minors of the R_3 Hessian (scaled by 1/(12 D_0)).

    H_aa = 1 + Dt_{2a}, H_ab = Dt_{a+b} + Dt_{|a-b|} over the case's active
    frequencies.  All minors must be positive inside the constraint region,
    which is what confines the maxima to the polytope vertices.
    """
    if case not in _HESSIAN_FREQS:
        raise ValueError(f"unknown case {case!r}; choose from {VERTEX_CASES}")
    freqs = _HESSIAN_FREQS[case]
    vals = {f: dv.at_frequency(f) for f in freqs}
    if not _case_constraints_ok(case, dv.d0, vals):
        raise ValueError(f"DVector lies outside the {case} constraint polytope")
    n = len(freqs)
    h = np.empty((n, n))
    for i, a in enumerate(freqs):
        for j, b in enumerate(freqs):
            if i == j:
                h[i, j] = 1.0 + dv.at_frequency(2 * a)
            else:
                h[i, j] = dv.at_frequency(a + b) + dv.at_frequency(abs(a - b))
    return np.array([np.linalg.det(h[: m + 1, : m + 1]) for m in range(n)])
