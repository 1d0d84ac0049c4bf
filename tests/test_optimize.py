import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohcert import (
    OptimizationConfig,
    PureState,
    WernerParams,
    decoherence_threshold_table,
    growth_scan,
    lambda_threshold,
    maximize_rn_over_ck,
    pattern_from_states,
    r3_w_closed_form,
    ratio,
    rn_of_alpha,
    w_state,
    werner_rn,
    werner_state,
)
from cohcert import optimize
from cohcert.optimize import _neg_rn_of_orders, _neg_rn_over_simplex, _neg_werner_rn
from conftest import w_resonance_counts

FAST = OptimizationConfig(restarts=6, seed=0)


def test_maximize_k2():
    res = maximize_rn_over_ck(3, 2, FAST)
    assert res.value == pytest.approx(1.25, abs=1e-8)
    assert np.allclose(res.alpha, [0.5, 0.5], atol=1e-4)


def test_maximize_k3():
    res = maximize_rn_over_ck(3, 3, FAST)
    assert res.value == pytest.approx(1.7732, abs=1e-3)
    assert np.allclose(np.sort(res.alpha), [0.309, 0.309, 0.382], atol=2e-3)


def test_maximize_validation():
    with pytest.raises(ValueError):
        maximize_rn_over_ck(2, 3)
    with pytest.raises(ValueError):
        maximize_rn_over_ck(3, 1)
    with pytest.raises(ValueError):
        OptimizationConfig(restarts=0)
    with pytest.raises(TypeError):
        OptimizationConfig(restarts=2.5)
    with pytest.raises(TypeError):
        OptimizationConfig(seed=1.5)
    with pytest.raises(ValueError, match="seed"):
        OptimizationConfig(seed=-1)


def test_maximize_beats_uniform_state():
    cfg = OptimizationConfig(restarts=2, seed=1)
    for k in range(2, 7):
        res = maximize_rn_over_ck(3, k, cfg)
        assert res.value >= r3_w_closed_form(k) - 1e-10


def test_maximize_respects_analytic_bounds():
    cfg = OptimizationConfig(restarts=8, seed=2)
    assert maximize_rn_over_ck(3, 2, cfg).value <= 5 / 4 + 1e-6
    assert maximize_rn_over_ck(3, 3, cfg).value <= 179 / 96 + 1e-6
    assert maximize_rn_over_ck(3, 4, cfg).value <= 39 / 16 + 1e-6


def test_optimal_profile_palindromic():
    for n in (3, 4):
        for k in (3, 4):
            res = maximize_rn_over_ck(n, k, FAST)
            assert np.abs(res.alpha - res.alpha[::-1]).max() < 1e-3


def test_maximize_deterministic():
    a = maximize_rn_over_ck(3, 4, OptimizationConfig(restarts=5, seed=11))
    b = maximize_rn_over_ck(3, 4, OptimizationConfig(restarts=5, seed=11))
    assert a.value == b.value
    assert np.array_equal(a.alpha, b.alpha)


def test_growth_scan_small():
    scan = growth_scan(5, cfg=FAST)
    assert scan.values == pytest.approx([1.25, 1.773, 2.321, 2.877], abs=5e-3)
    diffs = np.diff(scan.values)
    assert diffs == pytest.approx([0.52, 0.55, 0.56], abs=0.02)
    assert np.all(diffs > 0)


def test_growth_scan_needs_three_points():
    # k = 2..2 is one maximum, through which no line is determined
    with pytest.raises(ValueError, match="k_max"):
        growth_scan(2, cfg=FAST)
    assert len(growth_scan(3, cfg=FAST).values) == 2


def test_growth_linear_extrapolation_to_k10():
    cfg = OptimizationConfig(restarts=4, seed=3)
    scan = growth_scan(5, cfg=cfg)
    res10 = maximize_rn_over_ck(3, 10, cfg)
    extrapolated = scan.slope * 10 + scan.intercept
    assert abs(res10.value - extrapolated) / extrapolated < 0.05


def test_werner_rn_closed_cubic():
    # under the W_k projection the Werner certifier is an exact cubic in 1-lam
    for k in (3, 5, 8):
        a, b = w_resonance_counts(k)
        for lam in (0.0, 0.18, 0.5, 0.9, 1.0):
            mu = 1 - lam
            expected = 1 / k + 6 * a * mu**2 / k**3 + 2 * b * mu**3 / k**4
            assert werner_rn(k, lam, 3) == pytest.approx(expected, abs=1e-12)


def test_werner_rn_monotone_decreasing():
    for k, n in ((3, 3), (4, 3), (5, 3), (3, 4), (3, 5)):
        vals = [werner_rn(k, lam, n) for lam in np.linspace(0, 1, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_werner_rn_projection_modes():
    direct = werner_rn(3, 0.18, 3, projection="w")
    assert direct == pytest.approx(1.24381, abs=1e-4)
    opt = werner_rn(3, 0.18, 3, projection="optimize", cfg=OptimizationConfig(restarts=6))
    assert opt >= direct - 1e-12
    assert opt == pytest.approx(1.2587, abs=2e-3)
    with pytest.raises(ValueError):
        werner_rn(3, 0.18, 3, projection="bogus")


@pytest.mark.parametrize("n", [1, 0, -1])
def test_orders_below_two_rejected(n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        werner_rn(3, 0.5, n)
    with pytest.raises(ValueError, match="n must be >= 2"):
        rn_of_alpha(np.full(3, 1 / 3), n)
    with pytest.raises(ValueError, match="n must be >= 2"):
        lambda_threshold(n, 3, 1.0)


# werner_rn(k, lam, n, projection="optimize") for n = 2, 3, 4, 5 at the default
# configuration, from the search this simplex search replaced: projected Newton
# over real unit projections of either sign, on a central-difference Hessian
SIGNED_SEARCH_WERNER = {
    (2, 0.0): (0.7500000000000001, 1.2500000000000002, 2.1875, 3.9375),
    (2, 0.18): (0.6681000000000002, 1.0043000000000002, 1.5933728300000003, 2.604864150000001),
    (2, 0.5): (0.5625000000000001, 0.6875, 0.88671875, 1.1835937500000004),
    (2, 0.9): (0.5025000000000001, 0.5075000000000001, 0.5150187500000001, 0.5250937500000001),
    (3, 0.0): (0.7142857142857144, 1.7614116445040697, 4.595907989075369, 12.366415391231834),
    (3, 0.18): (0.5894857142857145, 1.2586636750929174, 2.876471928570354, 6.797775528951144),
    (3, 0.5): (0.42857142857142866, 0.6544265588152313, 1.0988399305268708, 1.9392717375209931),
    (3, 0.9): (0.3371428571428572, 0.34504251968514177, 0.3573973101946927, 0.37466844627385076),
    (4, 0.0): (0.7022100413685993, 2.300881595696182, 7.992159059912638, 28.646336899098557),
    (4, 0.18): (0.5540660318162461, 1.5443812530502488, 4.622324502047767, 14.30957444185271),
    (4, 0.5): (0.36305251034214986, 0.6754835048314287, 1.414828581626305, 3.1266297943962367),
    (4, 0.9): (0.2545221004136861, 0.26425190359299544, 0.2801012680146681, 0.30326502067068756),
    (5, 0.0): (0.6966900438894092, 2.8496299434919354, 12.364622797960923, 55.37600097764749),
    (5, 0.18): (0.5339743855112388, 1.8405397835969703, 6.814864891237833, 26.094626345847466),
    (5, 0.5): (0.32417251097235233, 0.7168879025822252, 1.8071619575077145, 4.804364128830699),
    (5, 0.9): (0.20496690043889418, 0.21604817638662335, 0.2348468735060336, 0.26358052136176624),
    (6, 0.0): (0.6937094305275463, 3.402645624275015, 17.710860208160874, 95.16345238617198),
    (6, 0.18): (0.5210502210867226, 2.141446286175125, 9.450083741033952, 43.11767274170836),
    (6, 0.5): (0.2984273576318866, 0.7681481653605916, 2.267661022373958, 7.0475616344140075),
    (6, 0.9): (0.17193709430527548, 0.18411772943188182, 0.2056251245853443, 0.2399964412564884),
}


def test_werner_projection_search_matches_signed_search():
    for (k, lam), previous in SIGNED_SEARCH_WERNER.items():
        for n, value in enumerate(previous, start=2):
            assert werner_rn(k, lam, n, projection="optimize") == pytest.approx(value, rel=1e-12)


def test_lambda_threshold_k3():
    rec = lambda_threshold(3, 3, 5 / 4)
    assert rec.reachable
    assert rec.lambda_thr == pytest.approx(0.1777, abs=1e-3)
    # the root solves the defining equation
    assert werner_rn(3, rec.lambda_thr, 3) == pytest.approx(5 / 4, abs=1e-5)


def test_lambda_threshold_unreachable():
    rec = lambda_threshold(3, 3, 100.0)
    assert not rec.reachable and rec.lambda_thr == 0.0
    rec = lambda_threshold(3, 3, 1e-9)
    assert not rec.reachable and rec.lambda_thr == 1.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            lambda_threshold(3, 3, bad)


def test_lambda_threshold_orderings():
    thr = {n: rn_of_alpha(np.full(2, 0.5), n) for n in (3, 4, 5)}
    by_n = [lambda_threshold(n, 3, thr[n]).lambda_thr for n in (3, 4, 5)]
    assert by_n[0] < by_n[1] < by_n[2]
    lam33 = lambda_threshold(3, 3, rn_of_alpha(np.full(2, 0.5), 3)).lambda_thr
    lam34 = lambda_threshold(3, 4, rn_of_alpha(np.full(3, 1 / 3), 3)).lambda_thr
    assert lam34 < lam33


def test_decoherence_thresholds_solve_defining_equation():
    # R_n evaluated through the density matrix, independent of the polynomial
    records = decoherence_threshold_table()
    assert len(records) == 24
    for rec in records:
        rho = werner_state(WernerParams(rec.k, rec.lambda_thr))
        value = ratio(pattern_from_states(rho, w_state(rec.k).density()), rec.n)
        assert value == pytest.approx(rec.threshold, rel=1e-12), (rec.n, rec.k)


def test_lambda_threshold_k2_is_the_bracketed_root():
    # the odd moments of the centred W_2 pattern cos(t) / 2 vanish, so the
    # computed leading coefficients at n = 3 and 5 are round-off
    rec = lambda_threshold(3, 2, 1.0)
    assert rec.reachable and rec.lambda_thr == pytest.approx(1 - np.sqrt(2 / 3), abs=1e-14)
    for n in (3, 4, 5):
        rec = lambda_threshold(n, 2, 1.0)
        assert rec.reachable and 0.0 < rec.lambda_thr < 1.0
        rho = werner_state(WernerParams(2, rec.lambda_thr))
        assert ratio(pattern_from_states(rho, w_state(2).density()), n) == pytest.approx(1.0, abs=1e-12)
    assert [r.k for r in decoherence_threshold_table(k_values=(2,))] == [2, 2, 2]


@pytest.mark.parametrize("k", [1, 0, -1])
def test_thresholds_reject_level_counts_below_two(k):
    with pytest.raises(ValueError, match="k must be >= 2"):
        lambda_threshold(3, k, 1.0)
    with pytest.raises(ValueError, match="k must be >= 2"):
        decoherence_threshold_table(k_values=(3, k))


def test_lambda_thr_is_a_python_float():
    records = decoherence_threshold_table() + [
        lambda_threshold(3, 3, 100.0), lambda_threshold(3, 3, 1e-9), lambda_threshold(4, 5, 2.0)]
    assert {type(rec.lambda_thr) for rec in records} == {float}
    assert {type(rec.threshold) for rec in records} == {float}


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 12), n=st.sampled_from([3, 4, 5]), s=st.floats(1e-6, 1.0 - 1e-6))
def test_reachable_thresholds_solve_their_equation(k, n, s):
    # a threshold strictly between R_n at lam = 1 (1/k) and at lam = 0
    low, high = werner_rn(k, 1.0, n), werner_rn(k, 0.0, n)
    threshold = low + s * (high - low)
    rec = lambda_threshold(n, k, threshold)
    assert rec.reachable and 0.0 <= rec.lambda_thr <= 1.0
    rho = werner_state(WernerParams(k, rec.lambda_thr))
    value = ratio(pattern_from_states(rho, w_state(k).density()), n)
    assert value == pytest.approx(threshold, rel=1e-12)


def test_increasing_root_bisects_where_newton_leaves_the_bracket():
    # P(u) = 1 - (1 - u)^5 is increasing but concave: P'(1) = 0, and Newton
    # steps from the right of the root overshoot below 0
    c = [0.0, 5.0, -10.0, 10.0, -5.0, 1.0]
    for target in (1e-6, 0.3, 0.9, 0.99):
        root = optimize._increasing_root(c, target)
        assert root == pytest.approx(-np.expm1(np.log1p(-target) / 5), rel=1e-12), target


def test_threshold_table_matches_single_thresholds():
    # one moment pass for every k gives the thresholds of one lambda_threshold
    # call per cell, on R_n of the uniform (k-1)-profile
    for rec in decoherence_threshold_table(k_values=(2, 3, 7, 12)):
        assert rec.threshold == pytest.approx(rn_of_alpha(np.full(rec.k - 1, 1 / (rec.k - 1)), rec.n),
                                              rel=1e-14)
        alone = lambda_threshold(rec.n, rec.k, rec.threshold)
        assert rec.lambda_thr == pytest.approx(alone.lambda_thr, rel=1e-13), (rec.n, rec.k)


def stacks(min_rows=1):
    """(rows, k) arrays of interior points, 2 <= k <= 8."""
    return st.integers(2, 8).flatmap(lambda k: hnp.arrays(
        float, st.tuples(st.integers(min_rows, 5), st.just(k)), elements=st.floats(0.05, 1.0)))


def central_differences(f, x, h=1e-6):
    """d f / d x of a function of a (rows, k) array, one (rows, k) block per
    entry of x: entry [i, j] is the derivative of f(x)[i] in x[:, j]."""
    steps = h * np.eye(x.shape[-1])
    return np.stack([(f(x + e) - f(x - e)) / (2 * h) for e in steps], axis=-1)


def neg_rn_rows(a, n):
    """-R_n of each row of ``a``, one rn_of_alpha call per row."""
    return np.array([-rn_of_alpha(row, n) for row in a])


@settings(max_examples=40, deadline=None)
@given(x=stacks(), n=st.sampled_from([2, 3, 4, 5]))
def test_stacked_value_is_sum_of_row_values(x, n):
    values = _neg_rn_over_simplex(x, n)[0]
    np.testing.assert_allclose(values, neg_rn_rows(x, n), rtol=1e-12)
    assert values.sum() == pytest.approx(neg_rn_rows(x, n).sum(), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=stacks(), n=st.sampled_from([2, 3, 4, 5]))
def test_simplex_gradient_matches_central_differences(x, n):
    _, grad, _ = _neg_rn_over_simplex(x, n)
    num = central_differences(lambda y: neg_rn_rows(y, n), x)
    np.testing.assert_allclose(grad, num, rtol=0, atol=1e-6 * max(1.0, np.abs(num).max()))


def werner_rn_rows(x, lam, n):
    """R_n of werner(k, lam) under each row of ``x``, normalized to a projection,
    through the density-matrix kernel."""
    rho = werner_state(WernerParams(x.shape[1], lam))
    return np.array([ratio(pattern_from_states(rho, PureState.normalized(row)), n) for row in x])


@settings(max_examples=40, deadline=None)
@given(x=stacks(), n=st.sampled_from([2, 3, 4, 5]), lam=st.floats(0.0, 1.0))
def test_werner_objective_matches_kernel_and_central_differences(x, n, lam):
    values, grad, _ = _neg_werner_rn(x, None, x.shape[1], lam, n)
    np.testing.assert_allclose(values, -werner_rn_rows(x, lam, n), rtol=1e-12)
    num = central_differences(lambda y: -werner_rn_rows(y, lam, n), x)
    np.testing.assert_allclose(grad, num, rtol=0, atol=1e-6 * max(1.0, np.abs(num).max()))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 8), n=st.sampled_from([2, 3, 4, 5]), lam=st.floats(0.0, 1.0),
       data=st.data())
def test_nonnegative_projection_not_worse_on_werner(k, n, lam, data):
    # the first step of werner_rn's proof: R_n(|chi|) >= R_n(chi) for real chi
    chi = data.draw(hnp.arrays(float, k, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) >= 1e-3))
    signed, folded = werner_rn_rows(np.array([chi, np.abs(chi)]), lam, n)
    assert folded >= signed * (1 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(x=stacks(), n=st.sampled_from([2, 3, 4, 5]), lam=st.floats(0.0, 1.0))
def test_hessians_match_central_differences_of_exact_gradients(x, n, lam):
    for derivatives in (lambda y: _neg_rn_over_simplex(y, n),
                        lambda y: _neg_werner_rn(y, None, x.shape[1], lam, n)):
        hess = derivatives(x)[2]
        num = central_differences(lambda y: derivatives(y)[1], x, h=1e-5)
        np.testing.assert_allclose(hess, num, rtol=0, atol=1e-6 * max(1.0, np.abs(num).max()))


@settings(max_examples=40, deadline=None)
@given(x=stacks(min_rows=2), n=st.sampled_from([3, 4, 5]), data=st.data())
def test_changing_one_row_leaves_other_gradient_blocks_unchanged(x, n, data):
    i = data.draw(st.integers(0, len(x) - 1))
    y = x.copy()
    y[i] = data.draw(hnp.arrays(float, x.shape[1], elements=st.floats(0.05, 1.0)))
    others = np.arange(len(x)) != i
    for fun, args in ((_neg_rn_over_simplex, (n,)), (_neg_werner_rn, (None, x.shape[1], 0.3, n))):
        blocks = [fun(z, *args) for z in (x, y)]
        for before, after in zip(*blocks):
            assert np.array_equal(before[others], after[others])


def test_one_minimize_call_per_search(monkeypatch):
    calls, starts, minimize = [], [], optimize.minimize

    def counted(fun, x0, *args, **kwargs):
        calls.append(fun)
        starts.append(x0)
        return minimize(fun, x0, *args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", counted)
    maximize_rn_over_ck(3, 4, FAST)
    werner_rn(4, 0.18, 3, projection="optimize", cfg=FAST)
    assert calls == [_neg_rn_of_orders, _neg_werner_rn]
    # both searches start from the same rows for the same (k, cfg)
    assert np.array_equal(starts[0], starts[1])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 12), r=st.integers(1, 8), more=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_start_rows_are_uniform_row_then_a_prefix_of_more_restarts(k, r, more, seed):
    few = optimize._start_points(k, OptimizationConfig(restarts=r, seed=seed))
    many = optimize._start_points(k, OptimizationConfig(restarts=r + more, seed=seed))
    assert few.shape == (r, k) and many.shape == (r + more, k)
    assert np.all(many > 0.0) and np.allclose(many.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(many[0], np.full(k, 1.0 / k))
    assert np.array_equal(few, many[:r])


@pytest.mark.parametrize("n, k", [(3, 3), (3, 5), (4, 4), (5, 3)])
def test_more_restarts_never_lower_the_maximum(n, k):
    # the rows of r restarts are the leading rows of R > r, and minimize moves
    # each row on its own; batched BLAS may still move the last bits
    for seed in (0, 7):
        values = [maximize_rn_over_ck(n, k, OptimizationConfig(restarts=r, seed=seed)).value
                  for r in (1, 2, 5, 12)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:])), (seed, values)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), ks=st.lists(st.integers(2, 8), min_size=1, max_size=7, unique=True),
       restarts=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_padded_cells_match_single_cell_searches(n, ks, restarts, seed):
    # every k of one search is padded with zeros to max(ks); each cell must come
    # out as its own unpadded search does, up to the round-off of a larger grid
    cfg = OptimizationConfig(restarts=restarts, seed=seed)
    for k, res in zip(ks, optimize._maximize([(n, k) for k in ks], cfg)):
        ref = maximize_rn_over_ck(n, k, cfg)
        assert (res.nit, res.n_agree, res.converged) == (ref.nit, ref.n_agree, ref.converged)
        assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        assert len(res.alpha) == k


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.tuples(st.sampled_from([3, 4, 5]), st.integers(2, 8)), min_size=1,
                      max_size=8, unique=True),
       restarts=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_cells_of_mixed_orders_match_single_cell_searches(cells, restarts, seed):
    # one search over cells of several orders: each row is evaluated at its own
    # order, so each cell comes out as its own search does
    cfg = OptimizationConfig(restarts=restarts, seed=seed)
    for (n, k), res in zip(cells, optimize._maximize(cells, cfg)):
        ref = maximize_rn_over_ck(n, k, cfg)
        assert (res.nit, res.n_agree, res.converged) == (ref.nit, ref.n_agree, ref.converged)
        assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        assert len(res.alpha) == k


def test_table_scans_match_growth_scans():
    # tables searches every order at k = 2..5 at once; its n = 4 and 5 rows are
    # evaluated on their own, so their cells are those of growth_scan bit for bit
    cfg = OptimizationConfig(restarts=8, seed=5)
    scans = optimize.table_scans(cfg)
    assert {n: list(scan.ks) for n, scan in scans.items()} == {
        3: list(range(2, 9)), 4: list(range(2, 6)), 5: list(range(2, 6))}
    for n in (4, 5):
        ref = growth_scan(5, n=n, cfg=cfg)
        for res, one in zip(scans[n].results, ref.results):
            assert res.value == one.value and np.array_equal(res.alpha, one.alpha)
            assert (res.nit, res.n_agree, res.converged, res.spread, res.kkt_gradient,
                    res.kkt_curvature) == (one.nit, one.n_agree, one.converged, one.spread,
                                           one.kkt_gradient, one.kkt_curvature)
        assert (scans[n].slope, scans[n].intercept) == (ref.slope, ref.intercept)
    ref = growth_scan(8, cfg=cfg)
    for res, one in zip(scans[3].results, ref.results):
        assert (res.nit, res.n_agree, res.converged) == (one.nit, one.n_agree, one.converged)
        assert res.value == pytest.approx(one.value, rel=1e-12, abs=0.0)


def test_growth_scan_beyond_table_range_needs_no_warm_start():
    scan = growth_scan(12, cfg=OptimizationConfig(restarts=4, seed=3))
    assert scan.converged
    assert np.all(np.diff(scan.values) > 0.0)


def lbfgsb_maximum(n, k, cfg):
    """The former search, kept as a reference: one scipy L-BFGS-B call over the
    stacked restarts, with a = x^2 / sum x^2 and the chain-rule gradient
    g_x = (2 x / S)(g_a - a . g_a)."""
    from scipy.optimize import minimize

    x0 = np.sqrt(optimize._start_points(k, cfg))

    def neg_sum(flat):
        x = flat.reshape(x0.shape)
        s = np.sum(x * x, axis=-1, keepdims=True)
        a = x * x / s
        values, ga, _ = _neg_rn_over_simplex(a, n)
        return values.sum(), (2.0 / s * x * (ga - np.sum(a * ga, axis=-1, keepdims=True))).ravel()

    res = minimize(neg_sum, x0.ravel(), jac=True, method="L-BFGS-B",
                   options=dict(ftol=optimize.TOL / len(x0), gtol=optimize.TOL, maxiter=2000))
    x = res.x.reshape(x0.shape)
    return max(rn_of_alpha(row * row / (row @ row), n) for row in x)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_newton_maximum_not_below_lbfgsb(n, k, seed):
    cfg = OptimizationConfig(seed=seed)
    assert maximize_rn_over_ck(n, k, cfg).value >= lbfgsb_maximum(n, k, cfg) - 1e-12


def test_kkt_certificates_of_table2_and_fig1():
    # the cells of tables: Fig. 1's scan holds n = 3, k = 2..8, and Table 2 adds
    # n = 4, 5 for k = 2..5
    cells = {(n, int(k)): res for n, scan in optimize.table_scans().items()
             for k, res in zip(scan.ks, scan.results)}
    for (n, k), res in cells.items():
        assert res.kkt_gradient <= 1e-9 * max(1.0, res.value), (n, k)
        assert res.kkt_curvature < 0.0, (n, k)


# maxima of the derivative-free Nelder-Mead search this maximizer replaced,
# at the default configuration (32 restarts, seed 0)
NELDER_MEAD_TABLE2 = {
    (3, 2): 1.2500000000000004, (3, 3): 1.7731757562901076,
    (3, 4): 2.3211587502792486, (3, 5): 2.877424150737198,
    (4, 2): 2.1875000000000018, (4, 3): 4.610242731688358,
    (4, 4): 8.02448509049689, (4, 5): 12.419597625897474,
    (5, 2): 3.9375000000000027, (5, 3): 12.38865052208671,
    (5, 4): 28.71276102403669, (5, 5): 55.51686801550089,
}


def test_table2_maxima_not_below_derivative_free_search():
    for (n, k), previous in NELDER_MEAD_TABLE2.items():
        assert maximize_rn_over_ck(n, k).value >= previous - 1e-12, (n, k)


def test_restart_diagnostics():
    cfg = OptimizationConfig(restarts=7, seed=4)
    for n, k in ((3, 2), (3, 3), (4, 5)):
        res = maximize_rn_over_ck(n, k, cfg)
        assert 1 <= res.n_agree <= cfg.restarts
        assert res.spread >= 0.0
    # at (3, 3) some restarts end on a local maximum about 0.52 lower
    res = maximize_rn_over_ck(3, 3)
    assert res.n_agree < 32 and res.spread == pytest.approx(0.5232, abs=1e-3)
    scan = growth_scan(4, cfg=cfg)
    assert [r.value for r in scan.results] == list(scan.values)
    assert scan.converged == all(r.converged for r in scan.results)


def test_row_without_descent_stops_at_its_start():
    # f = |x - c|^2 / 2 on the simplex, but where x_0 > 0.9 the reported gradient
    # points uphill: that row's Newton trials all fail the Armijo test, so its
    # step shrinks below MIN_STEP while the other rows converge in one step
    c = np.array([0.5, 0.5])

    def fun(x, rows):
        sign = np.where(x[:, :1] > 0.9, -1.0, 1.0)
        return 0.5 * ((x - c) ** 2).sum(axis=-1), sign * (x - c), np.tile(np.eye(2), (len(x), 1, 1))

    x0 = np.array([[0.6, 0.4], [0.95, 0.05], [0.3, 0.7]])
    res = optimize.minimize(fun, x0)
    assert np.array_equal(res.x[1], x0[1]) and res.values[1] == pytest.approx(0.2025)
    assert np.allclose(res.x[[0, 2]], c) and np.allclose(res.values[[0, 2]], 0.0)
    assert not res.success and res.nit < optimize.MAX_ITERS
    # each row reports its own stop: the converged rows after their one step
    assert res.stops.tolist() == [1, res.nit, 1] and res.converged.tolist() == [True, False, True]
    assert res.nfev == res.nit + 1 and res.fun == res.values.sum()


def test_zero_start_coordinate_stays_zero():
    # f = -x_2 favours the last level, but the first row starts without it and
    # keeps it at exactly 0; the second row starts with it and moves there
    def fun(x, rows):
        return -x[:, 2], np.tile([0.0, 0.0, -1.0], (len(x), 1)), np.zeros((len(x), 3, 3))

    res = optimize.minimize(fun, np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
    assert res.success and res.x[0].tolist() == [0.5, 0.5, 0.0] and res.stops[0] == 0
    assert np.array_equal(res.x[1], [0.0, 0.0, 1.0]) and res.values[1] == -1.0


def test_objective_reads_the_start_indices_of_its_rows():
    # f = |x - c_i|^2 / 2 with a target c_i of its own for each start row i,
    # looked up by the indices minimize passes; row 0 starts at its target and
    # stops at once, so the one Newton step evaluates rows 1 and 2 alone
    targets = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
    seen = []

    def fun(x, rows):
        seen.append(rows.tolist())
        d = x - targets[rows]
        return 0.5 * (d * d).sum(axis=-1), d, np.tile(np.eye(2), (len(x), 1, 1))

    res = optimize.minimize(fun, np.array([[0.5, 0.5], [0.3, 0.7], [0.6, 0.4]]))
    assert res.success and np.allclose(res.x, targets, rtol=0, atol=1e-15)
    assert seen == [[0, 1, 2], [1, 2]]


def test_each_row_stops_as_it_would_alone():
    # rows of one call move independently: a row's stop iteration and flag are
    # those of a call on that row alone, and nit is the last row's stop
    starts = optimize._start_points(5, OptimizationConfig(restarts=8, seed=1))
    res = optimize.minimize(_neg_rn_of_orders, starts, args=(np.full(len(starts), 4),))
    alone = [optimize.minimize(_neg_rn_of_orders, row[None], args=(np.full(1, 4),))
             for row in starts]
    assert res.stops.tolist() == [r.nit for r in alone]
    assert res.converged.tolist() == [r.success for r in alone]
    assert res.nit == res.stops.max() > res.stops.min()


def test_zero_face_hessian_takes_a_shifted_step():
    # f = -x_0 with a zero Hessian: every face Hessian is singular and its
    # Gershgorin bound is 0, so the Newton step needs a positive shift
    def fun(x, rows):
        return -x[:, 0], np.tile([-1.0, 0.0, 0.0], (len(x), 1)), np.zeros((len(x), 3, 3))

    res = optimize.minimize(fun, np.array([[0.2, 0.3, 0.5]]))
    assert res.success and np.array_equal(res.x[0], [1.0, 0.0, 0.0]) and res.values[0] == -1.0


def test_non_finite_trial_shrinks_and_stops():
    # f = -x_0 is NaN past x_0 = 0.7: every trial across that edge fails and
    # shrinks by 1/10, so the row creeps up to the edge and stops by MIN_STEP
    # instead of carrying a NaN step length to MAX_ITERS
    def fun(x, rows):
        f = np.where(x[:, 0] > 0.7, np.nan, -x[:, 0])
        return f, np.tile([-1.0, 0.0], (len(x), 1)), np.tile(np.eye(2), (len(x), 1, 1))

    res = optimize.minimize(fun, np.array([[0.69, 0.31]]))
    assert not res.success and res.nit < 20
    assert 0.7 - 1e-5 <= res.x[0, 0] <= 0.7 and res.values[0] == -res.x[0, 0]


def test_iteration_cap_stops_every_row(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITERS", 2)
    starts = optimize._start_points(6, FAST)
    res = optimize.minimize(_neg_rn_of_orders, starts, args=(np.full(len(starts), 3),))
    assert res.nit == 2 and res.nfev == 3 and not res.success
    assert res.x.shape == starts.shape and np.allclose(res.x.sum(axis=-1), 1.0)


def test_face_basis_is_cached_and_read_only():
    for size in range(1, 9):
        basis = optimize._face_basis(size)
        assert basis is optimize._face_basis(size) and not basis.flags.writeable
        assert basis.shape == (size, size - 1)
        assert np.allclose(basis.T @ basis, np.eye(size - 1)) and np.allclose(basis.sum(axis=0), 0.0)
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), count=st.integers(1, 6))
def test_positive_definite_agrees_with_eigenvalues(seed, size, count):
    # the private cholesky gufunc leaves NaN in the factor of a matrix that is
    # not positive definite; a numpy release that changes that fails here
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(count, size, size)))[0]
    scale = 10.0 ** rng.uniform(-3, 3, size=(count, 1))
    eig = rng.uniform(0.01, 1.0, size=(count, size)) * scale
    # about half the matrices get one eigenvalue below -1e-8 of their norm
    flip = rng.random(count) < 0.5
    eig[flip, 0] = -(10.0 ** rng.uniform(-7, 0, size=flip.sum())) * scale[flip, 0]
    h = (q * eig[:, None, :]) @ np.swapaxes(q, 1, 2)
    h = (h + np.swapaxes(h, 1, 2)) / 2
    eigenvalues = np.linalg.eigvalsh(h)
    lowest, norm = eigenvalues.min(axis=-1), np.abs(eigenvalues).max(axis=-1)
    assert np.all((lowest > 1e-8 * norm) | (lowest < -1e-8 * norm))
    assert optimize._positive_definite(h).tolist() == (lowest > 0.0).tolist()


def reference_newton_step(x, g, h, free):
    """The Newton direction through the face basis Z (columns e_i - e_j for
    the moving coordinates i, with j the pivot) and the products Z^T H Z."""
    rows, k = x.shape
    eye = np.eye(k)
    pivot = np.argmax(x, axis=-1)
    moves = free.copy()
    moves[np.arange(rows), pivot] = False
    z = (eye - eye[pivot, :, None]) * moves[:, None, :]
    grad = (g[:, None, :] @ z)[:, 0]
    reduced = np.swapaxes(z, 1, 2) @ h @ z + eye * ~moves[:, None, :]
    bad = ~optimize._positive_definite(reduced)
    on_diag = np.diagonal(reduced, axis1=1, axis2=2)
    lowest = np.min(on_diag + np.abs(on_diag) - np.abs(reduced).sum(axis=-1), axis=-1)
    shift = np.where(lowest < 0.0, -1.5 * lowest, np.linalg.norm(grad, axis=-1))
    reduced[:, np.arange(k), np.arange(k)] += np.where(bad, shift, 0.0)[:, None] * moves
    return (z @ np.linalg.solve(reduced, -grad[..., None]))[..., 0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8), rows=st.integers(1, 6))
def test_newton_step_equals_the_face_basis_products(seed, k, rows):
    rng = np.random.default_rng(seed)
    x = rng.random((rows, k)) * (rng.random((rows, k)) < 0.8)
    x[:, rng.integers(k)] += 0.1
    x /= x.sum(axis=-1, keepdims=True)
    free = (x > 0.0) | (rng.random((rows, k)) < 0.3)
    g = rng.normal(size=(rows, k))
    h = rng.normal(size=(rows, k, k))
    h = h + np.swapaxes(h, 1, 2)
    h[rng.random(rows) < 0.5] *= -1.0  # some faces need a shift
    step = optimize._newton_step(x, g, h, free)
    expected = reference_newton_step(x, g, h, free)
    assert np.allclose(step, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    assert np.allclose(step.sum(axis=-1), 0.0, atol=1e-12 * max(1.0, np.abs(step).max()))
    assert np.all(step[~free] == 0.0)
