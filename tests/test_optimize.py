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
from cohcert.optimize import _neg_rn_over_simplex, _neg_werner_rn

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
    res10 = maximize_rn_over_ck(3, 10, cfg, extra_starts=(np.full(10, 0.1),))
    extrapolated = scan.slope * 10 + scan.intercept
    assert abs(res10.value - extrapolated) / extrapolated < 0.05


def test_werner_rn_closed_cubic():
    # under the W_k projection the Werner certifier is an exact cubic in 1-lam
    from cohcert.bounds import w_resonance_counts

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
    values, grad, _ = _neg_werner_rn(x, x.shape[1], lam, n)
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
                        lambda y: _neg_werner_rn(y, x.shape[1], lam, n)):
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
    for fun, args in ((_neg_rn_over_simplex, (n,)), (_neg_werner_rn, (x.shape[1], 0.3, n))):
        blocks = [fun(z, *args) for z in (x, y)]
        for before, after in zip(*blocks):
            assert np.array_equal(before[others], after[others])


def test_one_minimize_call_per_search(monkeypatch):
    calls, minimize = [], optimize.minimize

    def counted(fun, *args, **kwargs):
        calls.append(fun)
        return minimize(fun, *args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", counted)
    maximize_rn_over_ck(3, 4, FAST)
    werner_rn(3, 0.18, 3, projection="optimize", cfg=FAST)
    assert calls == [_neg_rn_over_simplex, _neg_werner_rn]


def lbfgsb_maximum(n, k, cfg):
    """The former search, kept as a reference: one scipy L-BFGS-B call over the
    stacked restarts, with a = x^2 / sum x^2 and the chain-rule gradient
    g_x = (2 x / S)(g_a - a . g_a)."""
    from scipy.optimize import minimize

    x0 = np.sqrt(optimize._start_points(n, k, cfg))

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
    # the cells of tables: Fig. 1's scan holds n = 3, k = 2..8, and Table 2 adds n = 4, 5
    scan = growth_scan(8)
    cells = {(3, int(k)): res for k, res in zip(scan.ks, scan.results)}
    cells.update({(n, k): maximize_rn_over_ck(n, k) for n in (4, 5) for k in (2, 3, 4, 5)})
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

    def fun(x):
        sign = np.where(x[:, :1] > 0.9, -1.0, 1.0)
        return 0.5 * ((x - c) ** 2).sum(axis=-1), sign * (x - c), np.tile(np.eye(2), (len(x), 1, 1))

    x0 = np.array([[0.6, 0.4], [0.95, 0.05], [0.3, 0.7]])
    res = optimize.minimize(fun, x0)
    assert np.array_equal(res.x[1], x0[1]) and res.values[1] == pytest.approx(0.2025)
    assert np.allclose(res.x[[0, 2]], c) and np.allclose(res.values[[0, 2]], 0.0)
    assert not res.success and res.nit < optimize.MAX_ITERS
    assert res.nfev == res.nit + 1 and res.fun == res.values.sum()


def test_non_finite_trial_shrinks_and_stops():
    # f = -x_0 is NaN past x_0 = 0.7: every trial across that edge fails and
    # shrinks by 1/10, so the row creeps up to the edge and stops by MIN_STEP
    # instead of carrying a NaN step length to MAX_ITERS
    def fun(x):
        f = np.where(x[:, 0] > 0.7, np.nan, -x[:, 0])
        return f, np.tile([-1.0, 0.0], (len(x), 1)), np.tile(np.eye(2), (len(x), 1, 1))

    res = optimize.minimize(fun, np.array([[0.69, 0.31]]))
    assert not res.success and res.nit < 20
    assert 0.7 - 1e-5 <= res.x[0, 0] <= 0.7 and res.values[0] == -res.x[0, 0]


def test_iteration_cap_stops_every_row(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITERS", 2)
    starts = optimize._start_points(3, 6, FAST)
    res = optimize.minimize(_neg_rn_over_simplex, starts, args=(3,))
    assert res.nit == 2 and res.nfev == 3 and not res.success
    assert res.x.shape == starts.shape and np.allclose(res.x.sum(axis=-1), 1.0)
