"""Certification of multi-level coherence from interference-pattern moments.

The certifier R_n = M_n / M_1^{n-1} of an interference pattern is convex in
both the state and the measurement, so imperfect measurements can only
under-report coherence: exceeding a proven k-coherent maximum certifies at
least (k+1) coherently superposed levels, measurement errors included.

Names resolve on first use: ``import cohcert`` loads no submodule, and the
first lookup of a public name (``cohcert.certify_r3``) or of a submodule
(``cohcert.approx``) imports the module that defines it.  A command line
tool therefore loads only the modules its command runs.
"""

# Each public name, listed under the submodule that defines it; that
# submodule's __all__ is its entry here.
_EXPORTS = {
    "approx": (
        "MixtureApprox",
        "ReproducibilityVerdict",
        "best_q_approximation",
        "reproducibility_verdict",
    ),
    "bounds": (
        "R3_CERTIFICATION_THRESHOLDS",
        "DVector",
        "Verdict",
        "VertexRecord",
        "certify_pattern",
        "certify_r3",
        "d_from_alpha",
        "hessian_principal_minors",
        "lambda_dec",
        "r3_from_d",
        "r3_w_closed_form",
        "vertex_table",
    ),
    "optimize": (
        "GrowthScan",
        "OptimizationConfig",
        "OptimizeResult",
        "ThresholdRecord",
        "decoherence_threshold_table",
        "growth_scan",
        "lambda_threshold",
        "maximize_rn_over_ck",
        "rn_of_alpha",
        "table_scans",
        "werner_rn",
    ),
    "patterns": (
        "PatternCoefficients",
        "PatternFit",
        "fit_pattern_from_samples",
        "moment_by_sampling",
        "moments",
        "pattern_from_states",
        "ratio",
    ),
    "robustness": (
        "ToleranceSweep",
        "drifted_projection",
        "measurement_deviation",
        "sample_gue",
        "sweep_summary",
        "tolerance_sweep",
    ),
    "states": (
        "DensityMatrix",
        "PureState",
        "WernerParams",
        "coherence_support",
        "psi_star",
        "w_state",
        "werner_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "reference"))

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule ``name``, or the one defining the public ``name``."""
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports (importlib.import_module's
    # is not); the import binds the submodule in this namespace
    __import__(f"{__name__}.{module}")
    return globals()[module] if module == name else getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
