"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (the 12-cell optimizer table, the 100-sample GUE sweep) are
computed once and shared between criteria through a module cache, so each
criterion's stated runtime budget covers its own work.
"""

import time

import numpy as np

import cohcert as cc
from cohcert.cli import PUBLISHED_TABLE2, PUBLISHED_TABLE3, main as cli_main
from conftest import pattern_from_overlaps, rand_density, rand_pure, rand_simplex

_cache = {}


def table2_results():
    if "table2" not in _cache:
        cfg = cc.OptimizationConfig()  # 32 restarts, seed 0
        _cache["table2"] = {
            (n, k): cc.maximize_rn_over_ck(n, k, cfg)
            for n in (3, 4, 5) for k in (2, 3, 4, 5)
        }
    return _cache["table2"]


def gue_sweep_100():
    if "gue" not in _cache:
        _cache["gue"] = cc.tolerance_sweep(4, 100, seed=0)
    return _cache["gue"]


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_closed_form_agreement():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 31):
        engine = cc.rn_of_alpha(np.full(k, 1.0 / k), 3)
        worst = max(worst, abs(cc.r3_w_closed_form(k) - engine))
    spots = (
        cc.r3_w_closed_form(2) == 1.25
        and cc.r3_w_closed_form(3) == 940 / 540
        and cc.r3_w_closed_form(4) == 2.265625
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and spots and elapsed < 1.0
    report(1, "closed-form agreement",
           ok, f"max |closed - engine| = {worst:.2e} over k=1..30, "
               f"spot values exact: {spots}, elapsed {elapsed:.2f}s < 1s")


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    results = table2_results()
    worst_val, worst_prof = 0.0, 0.0
    for (n, k), res in results.items():
        pub_max, _, pub_prof = PUBLISHED_TABLE2[(n, k)]
        worst_val = max(worst_val, abs(res.value - pub_max))
        worst_prof = max(worst_prof, float(np.abs(res.alpha - np.array(pub_prof)).max()))
    elapsed = time.perf_counter() - start
    ok = worst_val <= 0.01 and worst_prof <= 0.01 and elapsed < 120.0
    report(2, "numeric maxima table",
           ok, f"12 cells: max value diff {worst_val:.4f} <= 0.01, "
               f"max profile entry diff {worst_prof:.4f} <= 0.01, "
               f"elapsed {elapsed:.1f}s < 120s")


def test_criterion_3_vertex_tables_and_thresholds():
    start = time.perf_counter()
    k3d3 = [r.r3_max for r in cc.vertex_table("k3d3")]
    gen = [r.r3_max for r in cc.vertex_table("k3_general_generic")]
    rat = [r.r3_max for r in cc.vertex_table("k3_general_ratio12")]
    k4 = max(r.r3_max for r in cc.vertex_table("k4d4"))
    diffs = (
        [abs(a - b) for a, b in zip(k3d3, (1.25, 1.58, 1.86))]
        + [abs(a - b) for a, b in zip(gen, (1.25, 1.27))]
        + [abs(a - b) for a, b in zip(rat, (1.25, 1.33))]
        + [abs(k4 - 2.44)]
    )
    from fractions import Fraction
    exact = cc.R3_CERTIFICATION_THRESHOLDS == (Fraction(1), Fraction(5, 4), Fraction(179, 96))
    strict = (cc.certify_r3(1.25).certified_level == 2
              and cc.certify_r3(179 / 96).certified_level == 3)
    elapsed = time.perf_counter() - start
    ok = max(diffs) <= 0.01 and exact and strict and elapsed < 10.0
    report(3, "analytic vertex bounds",
           ok, f"max |vertex - published| = {max(diffs):.4f} <= 0.01, "
               f"exact rational thresholds: {exact}, strict inequalities: {strict}, "
               f"elapsed {elapsed:.1f}s < 10s")


def test_criterion_4_decoherence_thresholds():
    start = time.perf_counter()
    records = cc.decoherence_threshold_table()
    worst = 0.0
    by_cell = {}
    for rec in records:
        published = PUBLISHED_TABLE3[rec.n][rec.k - 3]
        worst = max(worst, abs(rec.lambda_thr - published))
        by_cell[(rec.n, rec.k)] = rec.lambda_thr
        assert rec.reachable
        assert 0.0 < rec.lambda_thr <= cc.lambda_dec(rec.k, rec.k - 1)
    dec_exact = all(cc.lambda_dec(k, k - 1) == 1 / (k - 1) for k in range(3, 11))
    ordered_n = all(by_cell[(3, k)] < by_cell[(4, k)] < by_cell[(5, k)] for k in range(3, 11))
    ordered_k = all(by_cell[(n, k + 1)] < by_cell[(n, k)]
                    for n in (3, 4, 5) for k in range(3, 10))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and dec_exact and ordered_n and ordered_k and elapsed < 60.0
    report(4, "decoherence threshold table",
           ok, f"24 cells: max |lambda_thr - published| = {worst:.4f} <= 0.01, "
               f"lambda_dec exact: {dec_exact}, rows ordered: {ordered_n and ordered_k}, "
               f"elapsed {elapsed:.1f}s < 60s")


def test_criterion_5_pattern_regimes():
    start = time.perf_counter()
    chi = cc.w_state(3).density()

    def werner_pattern(lam):
        return cc.pattern_from_states(cc.werner_state(cc.WernerParams(3, lam)), chi)

    r054 = cc.best_q_approximation(werner_pattern(0.54), chi, 2).residual
    r018 = cc.best_q_approximation(werner_pattern(0.18), chi, 2).residual
    r036 = cc.best_q_approximation(werner_pattern(0.36), chi, 2).residual
    r3_opt = cc.werner_rn(3, 0.18, 3, projection="optimize",
                          cfg=cc.OptimizationConfig(restarts=12))
    elapsed = time.perf_counter() - start
    ok = (r054 < 1e-8 and r018 > 1e-6 and r036 > 1e-6
          and abs(r3_opt - 1.26) <= 0.01 and elapsed < 60.0)
    report(5, "approximation regimes",
           ok, f"residuals: lam=0.54 {r054:.2e} < 1e-8, lam=0.18 {r018:.2e} > 1e-6, "
               f"lam=0.36 {r036:.2e} > 1e-6; max-over-chi R_3(0.18) = {r3_opt:.4f} "
               f"within 0.01 of 1.26; elapsed {elapsed:.1f}s < 60s")


def test_criterion_6_measurement_tolerance_envelope():
    start = time.perf_counter()
    sweep = gue_sweep_100()
    zero = [r.r3 for r in sweep.records if r.tau == 0.0]
    anchored = all(v == sweep.drift_free_r3 for v in zero)
    anchor_ok = abs(sweep.drift_free_r3 - 2.32) <= 0.01
    means = [m for m in sweep.bin_mean if not np.isnan(m)]
    violations = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
    median = float(np.nanmedian(sweep.crossing))
    elapsed = time.perf_counter() - start
    ok = (anchored and anchor_ok and violations <= 1
          and 0.1 <= median <= 0.6 and elapsed < 120.0)
    report(6, "faulty-measurement envelope",
           ok, f"k=4, 100 samples: R_3(D=0) = {sweep.drift_free_r3:.4f} (2.32 +- 0.01), "
               f"binned-mean increases: {violations} <= 1, median crossing D = {median:.3f} "
               f"in [0.1, 0.6], elapsed {elapsed:.1f}s < 120s")


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # (a) convexity in both arguments, 10^3 instances each
    worst_a = -np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        rho1, rho2, sigma = (rand_density(rng, d) for _ in range(3))
        lam = rng.random()
        n = int(rng.integers(2, 6))
        mix = cc.DensityMatrix(lam * rho1.matrix + (1 - lam) * rho2.matrix)
        lhs = cc.ratio(cc.pattern_from_states(mix, sigma), n)
        rhs = lam * cc.ratio(cc.pattern_from_states(rho1, sigma), n) \
            + (1 - lam) * cc.ratio(cc.pattern_from_states(rho2, sigma), n)
        worst_a = max(worst_a, lhs - rhs)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        rho = rand_density(rng, d)
        chis = [rand_pure(rng, d) for _ in range(3)]
        q = rand_simplex(rng, 3)
        sigma = cc.DensityMatrix(sum(w * c.density().matrix for w, c in zip(q, chis)))
        n = int(rng.integers(2, 6))
        lhs = cc.ratio(cc.pattern_from_states(rho, sigma), n)
        rhs = sum(w * cc.ratio(cc.pattern_from_states(rho, c.density()), n)
                  for w, c in zip(q, chis))
        worst_a = max(worst_a, lhs - rhs)
    conv_ok = worst_a <= 1e-9

    # (b) triple-oracle moment equivalence on 10^3 random patterns
    worst_b = 0.0
    tgrid = np.arange(10_000) * (2 * np.pi / 10_000)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        pat = cc.pattern_from_states(rho, sigma)
        n = int(rng.integers(1, 6))
        exact = cc.moments(pat, n)[n - 1]
        sampled = cc.moment_by_sampling(pat, n, 2 * n * (d - 1) + 1)
        # dense quadrature straight from the matrices, no shared coefficients
        phases = np.exp(-1j * np.outer(tgrid, np.arange(d)))
        w = rho.matrix * sigma.matrix.T
        p_t = ((phases @ w) * phases.conj()).sum(axis=1).real
        quad = float(np.mean(p_t**n))
        worst_b = max(worst_b, abs(exact - sampled), abs(exact - quad), abs(sampled - quad))
    oracle_ok = worst_b <= 1e-8

    # (c) no drifted measurement beats the class maximum
    sweep = gue_sweep_100()
    cap = table2_results()[(3, 4)].value
    worst_c = max(r.r3 for r in sweep.records) - cap
    no_false_positive = worst_c <= 1e-9

    # (d) zero-phase dominance on 10^3 overlap/phase pairs
    worst_d = -np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        alpha = rand_simplex(rng, d) * rng.uniform(0.2, 1.0)
        phi = rng.uniform(0, 2 * np.pi, d)
        n = int(rng.integers(3, 6))
        flat = cc.ratio(pattern_from_overlaps(alpha), n)
        phased = cc.ratio(pattern_from_overlaps(alpha, phi), n)
        worst_d = max(worst_d, phased - flat)
    dominance_ok = worst_d <= 1e-9

    elapsed = time.perf_counter() - start
    ok = conv_ok and oracle_ok and no_false_positive and dominance_ok and elapsed < 180.0
    report(7, "property suites",
           ok, f"(a) convexity margin {worst_a:.2e} <= 1e-9; "
               f"(b) triple-oracle spread {worst_b:.2e} <= 1e-8; "
               f"(c) drifted R_3 excess {worst_c:.2e} <= 1e-9; "
               f"(d) phase dominance margin {worst_d:.2e} <= 1e-9; "
               f"elapsed {elapsed:.1f}s < 180s")


def test_criterion_8_seeded_determinism(tmp_path):
    commands = {
        "gue": ["gue-sweep", "--k", "3", "--samples", "10", "--seed", "9",
                "--format", "csv"],
        "optimize": ["optimize", "--n", "3", "--k", "4", "--restarts", "6", "--seed", "5"],
        "approx": ["approx", "--target", "werner:3:0.54", "--q", "2",
                   "--restarts", "4", "--seed", "3"],
        "werner": ["werner-sweep", "--k", "4", "--points", "21", "--format", "csv"],
    }
    identical = {}
    for name, argv in commands.items():
        outs = []
        for run in (1, 2):
            path = tmp_path / f"{name}_{run}"
            rc = cli_main(argv + ["--out", str(path)])
            assert rc in (0, 1)
            outs.append(path.read_bytes())
        identical[name] = outs[0] == outs[1]
    ok = all(identical.values())
    report(8, "seeded determinism",
           ok, f"byte-identical reruns: {identical}")
