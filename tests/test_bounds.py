from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohcert import (
    DVector,
    certify_pattern,
    certify_r3,
    d_from_alpha,
    fit_pattern_from_samples,
    hessian_principal_minors,
    lambda_dec,
    moments,
    pattern_from_states,
    r3_from_d,
    r3_w_closed_form,
    rn_of_alpha,
    vertex_table,
)
from cohcert.bounds import R3_CERTIFICATION_THRESHOLDS, ROUNDOFF_MARGIN, VERTEX_CASES, certifies
from conftest import rand_density, rand_pure, rand_simplex, w_resonance_counts


def test_thresholds_are_exact_rationals():
    assert R3_CERTIFICATION_THRESHOLDS == (Fraction(1), Fraction(5, 4), Fraction(179, 96))


def test_certify_examples():
    assert certify_r3(1.9).certified_level == 4
    assert certify_r3(1.25).certified_level == 2  # not strictly above 5/4
    assert certify_r3(0.7).certified_level == 1
    assert certify_r3(1.9).threshold_used == pytest.approx(179 / 96)
    with pytest.raises(ValueError):
        certify_r3(-0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_certify_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="finite"):
        certify_r3(value)


def test_certify_strictness_at_thresholds():
    assert certify_r3(1.0).certified_level == 1
    assert certify_r3(1.0 + 1e-12).certified_level == 2
    assert certify_r3(179 / 96).certified_level == 3
    assert certify_r3(179 / 96 + 1e-9).certified_level == 4


def test_certifies_is_the_rule_of_certify_r3():
    # the rule is strict: a value on thr * (1 + ROUNDOFF_MARGIN) does not certify
    margins = np.array([-1e-15, 0.0, 1e-14, 4e-14, ROUNDOFF_MARGIN, 6e-14, 1e-12])
    for k, thr in enumerate(R3_CERTIFICATION_THRESHOLDS, start=1):
        values = float(thr) * (1 + margins)
        got = certifies(values, thr).tolist()
        assert got == [False] * 5 + [True] * 2
        assert got == [certify_r3(v).certified_level > k for v in values]


def test_certify_monotone():
    grid = np.linspace(0, 3, 301)
    levels = [certify_r3(v).certified_level for v in grid]
    assert all(a <= b for a, b in zip(levels, levels[1:]))


def test_d_from_alpha_examples():
    dv = d_from_alpha([0.5, 0.5])
    assert dv.d0 == pytest.approx(0.5) and dv.dtilde[0] == pytest.approx(0.5)
    dv = d_from_alpha([1.0, 0.0, 0.0])
    assert dv.d0 == pytest.approx(1.0) and np.abs(dv.dtilde).max() == 0
    dv = d_from_alpha([1 / 3] * 3)
    assert dv.d0 == pytest.approx(1 / 3)
    assert np.allclose(dv.dtilde, [2 / 3, 1 / 3])
    with pytest.raises(ValueError):
        d_from_alpha([0.5, 0.4])
    with pytest.raises(ValueError):
        d_from_alpha([1.5, -0.5])


def test_d_from_alpha_normalization_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dv = d_from_alpha(rand_simplex(rng, int(rng.integers(2, 8))))
        assert dv.d0 * (1 + 2 * dv.dtilde.sum()) == pytest.approx(1.0, abs=1e-12)


def test_r3_from_d_examples():
    assert r3_from_d(d_from_alpha([0.5, 0.5])) == pytest.approx(1.25, abs=1e-14)
    assert r3_from_d(d_from_alpha([1 / 3] * 3)) == pytest.approx(940 / 540, abs=1e-14)
    assert r3_from_d(DVector(1.0, [0.0, 0.0])) == pytest.approx(1.0)


def test_r3_from_d_matches_moment_engine():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        alpha = rand_simplex(rng, int(rng.integers(2, 7)))
        assert abs(r3_from_d(d_from_alpha(alpha)) - rn_of_alpha(alpha, 3)) < 1e-10


def test_closed_form_examples():
    assert r3_w_closed_form(1) == 1.0
    assert r3_w_closed_form(2) == 1.25
    assert r3_w_closed_form(4) == 2.265625


def test_closed_form_matches_engine():
    for k in range(1, 31):
        assert abs(r3_w_closed_form(k) - rn_of_alpha(np.full(k, 1 / k), 3)) < 1e-12


def test_resonance_counts_reproduce_closed_form():
    for k in range(1, 31):
        a, b = w_resonance_counts(k)
        assert 1 / k + 6 * a / k**3 + 2 * b / k**4 == pytest.approx(
            r3_w_closed_form(k), abs=1e-12
        )
    assert w_resonance_counts(3) == (5, 12)


def test_vertex_table_k3d3():
    maxima = [rec.r3_max for rec in vertex_table("k3d3")]
    assert maxima == [Fraction(5, 4), Fraction(19, 12), Fraction(179, 96)]


def test_vertex_table_k3_general():
    generic = [rec.r3_max for rec in vertex_table("k3_general_generic")]
    assert generic == [Fraction(5, 4), Fraction(61, 48)]
    ratio12 = [rec.r3_max for rec in vertex_table("k3_general_ratio12")]
    assert ratio12 == [Fraction(5, 4), Fraction(4, 3)]


def test_vertex_table_k4d4_overall():
    recs = vertex_table("k4d4")
    assert [r.r3_max for r in recs] == [
        Fraction(1), Fraction(19, 12), Fraction(5, 4), Fraction(179, 96),
        Fraction(31, 16), Fraction(39, 16), Fraction(31, 16)]
    best = max(recs, key=lambda r: r.r3_max)
    assert best.d0_argmax == Fraction(1, 4)
    dv = best.dvector(0.25)
    assert dv.dtilde[1] == pytest.approx(0.5)


def test_vertex_maxima_sit_at_range_end_points():
    # R_3 along each family is a rational function of D_0 with no pole on
    # the closed range, so its maximum lies at an end point or at a zero of
    # the derivative's numerator; every interior zero falls short
    import sympy

    x = sympy.Symbol("x")
    for case in VERTEX_CASES:
        for rec in vertex_table(case):
            lo, hi = (sympy.Rational(v) for v in rec.d0_range)
            r3 = sympy.cancel(sympy.sympify(rec.r3_at(x)))
            assert r3.subs(x, rec.d0_argmax) == rec.r3_max == max(r3.subs(x, lo), r3.subs(x, hi))
            num, den = sympy.fraction(sympy.cancel(sympy.diff(r3, x)))
            assert not any(lo <= z <= hi for z in sympy.real_roots(sympy.Poly(den, x)))
            if num == 0:
                continue
            for z in sympy.real_roots(sympy.Poly(num, x)):
                if lo < z < hi:
                    assert r3.subs(x, z) < rec.r3_max, (case, rec.d0_range, z)


def test_vertex_table_unknown_case():
    with pytest.raises(ValueError):
        vertex_table("k5d5")


def test_vertex_records_satisfy_constraints():
    for case in VERTEX_CASES:
        for rec in vertex_table(case):
            lo, hi = rec.d0_range
            for d0 in np.linspace(lo, hi, 50):
                assert rec.constraints_satisfied(float(d0)), (case, rec.d0_range, d0)


def test_no_feasible_alpha_beats_case_maximum():
    rng = np.random.default_rng(8)
    cases = {
        # support pattern (occupied levels) -> applicable vertex case
        (0, 1, 2): ("k3d3", 179 / 96),
        (0, 1, 3): ("k3_general_ratio12", 4 / 3),
        (0, 1, 5): ("k3_general_generic", 61 / 48),
        (0, 2, 7): ("k3_general_generic", 61 / 48),
        (0, 1, 2, 3): ("k4d4", 39 / 16),
    }
    for support, (_, bound) in cases.items():
        d = max(support) + 1
        for _ in range(2000):
            alpha = np.zeros(d)
            alpha[list(support)] = rand_simplex(rng, len(support))
            assert rn_of_alpha(alpha, 3) <= bound + 1e-9


def test_hessian_examples():
    minors = hessian_principal_minors(DVector(1.0, [0.0, 0.0]), "k3d3")
    assert minors == pytest.approx([1.0, 1.0])
    minors = hessian_principal_minors(DVector(1 / 3, [0.5, 0.5]), "k3d3")
    assert minors == pytest.approx([1.5, 1.25])


def test_hessian_positive_inside_k4d4():
    rng = np.random.default_rng(21)
    found = 0
    while found < 50:
        d0 = rng.uniform(0.25, 1.0)
        lo2 = max(0.0, (1 - 2 * d0) / (4 * d0))
        lo3 = max(0.0, (1 - 3 * d0) / (6 * d0))
        d2 = rng.uniform(lo2, 0.5)
        d3 = rng.uniform(lo3, 0.5)
        d1 = (1 - d0) / (2 * d0) - d2 - d3
        if not 0 <= d1 <= 1 or 1 - 2 * d1 + 2 * d2 - 2 * d3 < 0 or d1 + d3 > 1:
            continue
        minors = hessian_principal_minors(DVector(d0, [d1, d2, d3]), "k4d4")
        assert np.all(minors > 0)
        found += 1


def test_hessian_positive_inside_generic_cube():
    rng = np.random.default_rng(22)
    for _ in range(50):
        d0 = rng.uniform(1 / 3, 1.0)
        lo = max(0.0, (1 - 2 * d0) / (4 * d0))
        dt = np.zeros(5)
        dt[[0, 3, 4]] = rng.uniform(lo, 0.5, size=3)  # frequencies 1, 4, 5
        minors = hessian_principal_minors(DVector(d0, dt), "k3_general_generic")
        assert np.all(minors > 0)


def test_hessian_outside_domain_raises():
    with pytest.raises(ValueError):
        hessian_principal_minors(DVector(1.0, [0.0, 0.7]), "k3d3")  # Dt_2 > 1/2
    with pytest.raises(ValueError):
        hessian_principal_minors(DVector(1.0, [0.0, 0.0]), "nope")


def test_lambda_dec_examples():
    assert lambda_dec(3, 2) == pytest.approx(0.5)
    assert lambda_dec(5, 5) == 0.0
    assert lambda_dec(10, 9) == pytest.approx(1 / 9)
    with pytest.raises(ValueError):
        lambda_dec(1, 1)
    with pytest.raises(ValueError):
        lambda_dec(3, 4)
    with pytest.raises(TypeError):
        lambda_dec(3, 1.5)
    with pytest.raises(TypeError):
        lambda_dec(3.0, 2)


def test_dvector_validation():
    with pytest.raises(ValueError):
        DVector(0.1, [0.2, 0.2])  # d0 below 1/d
    with pytest.raises(ValueError):
        DVector(0.5, [-0.2])
    with pytest.raises(ValueError):
        DVector(0.5, [1.6])  # above (d-1)/2 = 1/2
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DVector(0.5, [0.1, bad])
    dv = DVector(0.5, [0.25, 0.25])
    assert dv.at_frequency(1) == 0.25 and dv.at_frequency(7) == 0.0


def fitted(func, n, dim=3):
    """The library fit of ``func`` sampled at n evenly spaced times."""
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return fit_pattern_from_samples(np.column_stack([t, func(t)]), dim).pattern


LEAVES_RANGE = r"^fitted p\(t\) leaves \[-0\.1, 1\.1\]; p must be a probability$"


@pytest.mark.parametrize("func, n, match", [
    (lambda t: 100 * (1 + np.cos(t)) / 2, 64, LEAVES_RANGE),
    (lambda t: np.full(t.shape, 2.0), 64, LEAVES_RANGE),
    (lambda t: 3 * (1 + np.cos(t)) / 2, 64, LEAVES_RANGE),
    # stays inside [-0.1, 1.1] but dips below 0 far enough that M_3 < 0
    (lambda t: 0.002 + 0.06 * np.cos(t) - 0.035 * np.cos(2 * t), 400,
     r"^fitted p\(t\) has R_3 = -20\.0\d* < 0; p must be a probability$"),
    (np.zeros_like, 64, r"^dark pattern: M_1 = 0, ratios undefined$"),
], ids=["percent-w2", "constant-2", "3x-w2", "negative-m3", "dark"])
def test_certify_pattern_refuses_what_certify_refuses(func, n, match):
    # the percent fringe has R_3 = 125: through ratio and certify_r3 alone it claims 4 levels
    with pytest.raises(ValueError, match=match):
        certify_pattern(fitted(func, n))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), rank=st.integers(1, 6))
def test_certify_pattern_passes_validated_states(seed, d, rank):
    rng = np.random.default_rng(seed)
    pat = pattern_from_states(rand_density(rng, d, min(rank, d)), rand_pure(rng, d))
    assume(pat.c0 > 1e-12)  # a dark pair has no ratios
    ms, verdict = certify_pattern(pat)
    assert np.array_equal(ms, moments(pat, 5))
    assert verdict == certify_r3(ms[2] / ms[0] ** 2)
