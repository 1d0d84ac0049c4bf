"""Certification of multi-level coherence from interference-pattern moments.

The certifier R_n = M_n / M_1^{n-1} of an interference pattern is convex in
both the state and the measurement, so imperfect measurements can only
under-report coherence: exceeding a proven k-coherent maximum certifies at
least (k+1) coherently superposed levels, measurement errors included.
"""

from .approx import (
    MixtureApprox,
    ReproducibilityVerdict,
    best_q_approximation,
    pattern_distance,
    reproducibility_verdict,
)
from .bounds import (
    R3_CERTIFICATION_THRESHOLDS,
    CertifierResult,
    DVector,
    VertexRecord,
    certify_r3,
    d_from_alpha,
    hessian_principal_minors,
    lambda_dec,
    pattern_peak_bound,
    r3_from_d,
    r3_w_closed_form,
    vertex_table,
    w_resonance_counts,
)
from .optimize import (
    GrowthScan,
    OptimizationConfig,
    OptimizeResult,
    ThresholdRecord,
    decoherence_threshold_table,
    growth_scan,
    lambda_threshold,
    maximize_rn_over_ck,
    rn_of_alpha,
    werner_rn,
)
from .patterns import (
    OverlapVector,
    PatternCoefficients,
    PatternFit,
    fit_pattern_from_samples,
    moment,
    moment_by_sampling,
    moments,
    pattern_from_overlaps,
    pattern_from_states,
    ratio,
)
from .robustness import (
    ToleranceSweep,
    drifted_projection,
    measurement_deviation,
    sample_gue,
    sweep_summary,
    tolerance_sweep,
)
from .states import (
    DensityMatrix,
    PureState,
    WernerParams,
    coherence_support,
    l1_norm,
    psi_star,
    w_state,
    werner_state,
)

__version__ = "0.1.0"
