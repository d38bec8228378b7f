import math
import tracemalloc

import numpy as np
import pytest

from tunnelshock import characteristics, density, expr, regularize, roots, symbol


@pytest.fixture(scope="module")
def m_burgers():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="module")
def m_jump():
    return symbol.make_symbol(jumps=((1.0, "1"),))


@pytest.fixture(scope="module")
def tanh_flow(m_burgers):
    # u0 = -tanh(2x) with A = 0.5 focuses at t* = 0.5, x0* = 0
    params = regularize.RegularizationParams(1e-2, 1e-1)
    return regularize.blended_fan(m_burgers, "0-tanh(2*x)", params, 1.0,
                                  0.0, 0.5)


def test_params_validation():
    with pytest.raises(regularize.RegularizeError):
        regularize.RegularizationParams(0.0, 0.1)
    with pytest.raises(regularize.RegularizeError):
        regularize.RegularizationParams(1e-2, -0.1)
    with pytest.raises(regularize.RegularizeError):
        regularize.RegularizationParams(1e-2, 0.05)  # eps > beta**2


def _softplus(y):
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def test_blend_profiles_ramp():
    eps, t_star = 1e-2, 0.3
    # the closed-form window integral has derivative 1 - B with the blend
    # B(z) = (1 + tanh z)/2
    W = regularize._window_integral(eps, t_star)
    t = np.linspace(0.0, 1.0, 201)
    h = 1e-6
    dW = (W(t + h) - W(t - h)) / (2.0 * h)
    assert abs(float(W(0.0))) < 1e-15
    B = 0.5 * (1.0 + np.tanh((t - t_star) / eps))
    assert np.max(np.abs(dW - (1.0 - B))) < 1e-6
    # B is also the logistic curve 1/(1 + exp(-2z)): the ramp integral
    # equals the logistic form z - softplus(2z)/2 + log(2)/2
    z = np.linspace(-40.0, 40.0, 2001)
    logistic = z - 0.5 * _softplus(2.0 * z) + 0.5 * math.log(2.0)
    assert np.max(np.abs(regularize._ramp_integral(z) - logistic)) < 1e-14


def test_insertion_linear_data_focuses_exactly(m_burgers):
    ins = regularize.build_insertion(m_burgers, "0-x", 0.0, 0.1)
    assert abs(ins.K - 1.0) < 1e-12
    assert abs(ins.b) < 1e-12
    # matched speeds at the collar edges, linear in between
    assert abs(ins.speed(-0.1) - 0.1) < 1e-12
    assert abs(float(ins.u1(0.05)) + 0.05) < 1e-10


def test_insertion_chord_slope_tanh(m_burgers):
    beta = 0.1
    ins = regularize.build_insertion(m_burgers, "0-tanh(2*x)", 0.0, beta)
    assert abs(ins.K - np.tanh(2 * beta) / beta) < 1e-12
    # the chord is flatter than the steepest tangent (slope 2): the collar
    # focuses at 1/K, after the fold at t = 0.5
    assert ins.K < 2.0


def test_insertion_jump_symbol_roundtrip_and_range_error(m_jump):
    ins = regularize.build_insertion(m_jump, "0-x", 0.0, 0.1)
    assert abs(ins.K - np.sinh(0.1) / 0.1) < 1e-12
    for x0 in (-0.08, 0.0, 0.05):
        p1 = float(ins.u1(x0))
        assert abs(np.exp(p1) - ins.speed(x0)) < 1e-9
    with pytest.raises(regularize.RegularizeError):
        ins.u1(1.5)  # target speed drops below the symbol's range


def _old_u1(ins, x0):
    # the per-label safeguarded Newton loop Insertion.u1 ran before it
    # called symbol.legendre_batch
    out = []
    for v in np.atleast_1d(ins.speed(x0)):
        a, c = symbol.P_BOX
        p = 0.5 * (ins.p_l0 + ins.p_r0)
        for _ in range(80):
            f = float(symbol.eval_dP_dp(ins.symbol, ins.x0_star, p)) - v
            if f > 0.0:
                c = p
            else:
                a = p
            h = float(symbol.eval_hess(ins.symbol, ins.x0_star, p))
            p_new = p - (f / h if h > 0.0 else math.inf)
            if not (a < p_new < c):
                p_new = 0.5 * (a + c)
            if abs(p_new - p) < 1e-14 * (1.0 + abs(p)):
                p = p_new
                break
            p = p_new
        out.append(p)
    return np.array(out)


@pytest.mark.parametrize("sym", [dict(A="0.5"), dict(jumps=((1.0, "1"),)),
                                 dict(A="0.3", jumps=((1.0, "0.5"),
                                                      (-1.0, "0.2")))])
def test_insertion_u1_matches_old_newton_loop(sym):
    m = symbol.make_symbol(**sym)
    ins = regularize.build_insertion(m, "0-tanh(2*x)", 0.1, 0.2)
    x0 = np.linspace(-0.1, 0.3, 41)
    new = ins.u1(x0)
    assert new.shape == x0.shape
    assert np.max(np.abs(new - _old_u1(ins, x0))) < 1e-13
    assert np.ndim(ins.u1(0.05)) == 0


def test_insertion_rejects_inhomogeneous_symbol():
    m = symbol.make_symbol(A="0.5", V="0.1*x^2")
    with pytest.raises(regularize.RegularizeError):
        regularize.build_insertion(m, "0-x", 0.0, 0.1)


def test_jump_speed_pairs(m_burgers, m_jump):
    assert abs(symbol.jump_speed(m_burgers, 0, 1.0, -1.0)) < 1e-14
    assert abs(symbol.jump_speed(m_burgers, 0, 2.0, 0.0) - 1.0) < 1e-14
    c = symbol.jump_speed(m_jump, 0, 1.0, 0.0)
    assert abs(c - (np.e - 1.0)) < 1e-14
    # vectorized over jumps, either orientation
    c = symbol.jump_speed(m_burgers, 0.0, np.array([1.0, 0.0, 2.0]),
                          np.array([-1.0, 2.0, 0.0]))
    assert np.max(np.abs(c - np.array([0.0, 1.0, 1.0]))) < 1e-14


def test_limit_study_focal_point_is_first_shock_birth(tanh_limit_study):
    ls = tanh_limit_study
    m = symbol.make_symbol(A="0.5")
    fan = characteristics.integrate_fan(
        m, "log(sech(2*x))/2", np.linspace(-3.0, 3.0, 2401), T=1.0,
        h_t=2.5e-3, store_every=2, S0_prime="0-tanh(2*x)")
    first = density.build_density(fan, rho0="1").shocks[0]
    assert ls.t_star == first.t_birth
    assert ls.x0_star == first.x0_birth
    assert abs(ls.t_star - 0.5) < 1e-12
    assert abs(ls.x0_star) < 1e-12


@pytest.mark.parametrize("u0, x0_star", [
    ("0-x*exp(0-x^2)", 0.9),  # u0' > 0 on the collar [0.8, 1.0]: K < 0
    ("0-x^2", 0.0),           # equal momenta at the collar edges: K = 0
])
def test_blended_fan_rejects_a_collar_that_does_not_compress(m_burgers, u0,
                                                             x0_star):
    params = regularize.RegularizationParams(1e-2, 1e-1)
    with pytest.raises(regularize.RegularizeError, match="do not compress"):
        regularize.blended_fan(m_burgers, u0, params, 1.0, x0_star, 0.5)


def test_plateau_mass_is_the_exact_label_integral(tanh_flow):
    rho0 = expr.as_expression("exp(0-x^2)")
    for t in (0.3, 0.6, 1.0):
        m_l, m_r = regularize._cluster_labels(tanh_flow, t)
        exact = 0.5 * math.sqrt(math.pi) * (math.erf(m_r) - math.erf(m_l))
        got = regularize._plateau_mass(tanh_flow, rho0, t)
        assert abs(got - exact) < 1e-12


def test_blended_flow_matches_straight_insertion_before_window(tanh_flow):
    bf = tanh_flow
    eps = bf.params.epsilon
    t = bf.t_star - 12.0 * eps
    pos = bf.positions(t)
    lab = bf.x0[bf.inside]
    straight = lab + t * bf.insertion.speed(lab)
    assert np.max(np.abs(pos[bf.inside] - straight)) < 1e-8
    out = ~bf.inside
    assert np.max(np.abs(pos[out] - (bf.x0[out] + t * bf.v[out]))) < 1e-12


def test_blended_flow_outside_rows_match_plain_fan(m_burgers, tanh_flow):
    bf = tanh_flow
    fan = characteristics.integrate_fan(
        m_burgers, "log(sech(2*x))/2", bf.x0, T=0.4, h_t=2.5e-3,
        store_every=4, S0_prime="0-tanh(2*x)")
    st = fan.state_at(0.38)
    out = ~bf.inside
    assert np.max(np.abs(bf.positions(0.38)[out] - st["x"][out])) < 1e-9


def test_blended_flow_rides_at_jump_speed_after_window(tanh_flow):
    bf = tanh_flow
    eps = bf.params.epsilon
    t1, t2 = bf.t_star + 12.0 * eps, bf.T
    vel = (bf.positions(t2)[bf.inside] - bf.positions(t1)[bf.inside]) \
        / (t2 - t1)
    assert np.max(np.abs(vel - bf.c)) < 1e-6


def test_blended_flow_jacobian_floor(m_burgers):
    # wider front: focus at t*=1, run past it
    params = regularize.RegularizationParams(1e-2, 1e-1)
    bf = regularize.blended_fan(m_burgers, "0-tanh(x)", params, 1.5,
                                0.0, 1.0)
    ratio = bf.min_inside_J_after / params.epsilon
    assert 0.03 < ratio < 30.0
    # the interior Jacobian is the window integral: decreasing to its floor
    js = [bf.inside_jacobian(t) for t in np.linspace(0.0, 1.5, 31)]
    assert js[0] == 1.0
    assert np.all(np.diff(js) < 1e-15)
    assert abs(js[-1] - bf.min_inside_J_after) < 1e-12


def test_blended_flow_map_strictly_increasing(m_burgers):
    params = regularize.RegularizationParams(2.5e-3, 5e-2)
    bf = regularize.blended_fan(m_burgers, "0-tanh(2*x)", params, 1.0,
                                0.0, 0.5)
    for t in np.concatenate([np.linspace(0.0, 1.0, 9),
                             bf.t_star + params.epsilon
                             * np.array([-3.0, 0.0, 3.0])]):
        act = bf.active(t)
        x = bf.positions(float(t))[act]
        assert np.all(np.diff(x) > 0.0)


@pytest.mark.parametrize("u0, x0_star, t_star, T, message", [
    # the second front folds at t = 0.5 outside the collar around -1.5
    ("0-tanh(2*(x+1.5))-tanh(2*(x-1.5))", -1.5, 0.5, 1.0,
     "one-to-one at t=0.5"),
    # the collar focuses at 1/K < t*: its Jacobian falls to about -2.95
    ("0-tanh(2*x)", 0.0, 2.0, 2.5,
     r"falls to -2\.95 after the focal time t\*=2;"),
])
def test_blended_fan_says_where_the_flow_stops_being_one_to_one(
        m_burgers, u0, x0_star, t_star, T, message):
    params = regularize.RegularizationParams(1e-2, 1e-1)
    with pytest.raises(regularize.RegularizeError, match=message):
        regularize.blended_fan(m_burgers, u0, params, T, x0_star, t_star)


def test_limit_study_shrinking_window(tanh_limit_study):
    ls = tanh_limit_study
    assert ls.shocked
    assert abs(ls.t_star - 0.5) < 1e-12
    rows = ls.rows()
    assert len(rows) == 3
    sup = [r[2] for r in rows]
    amp = [r[3] for r in rows]
    assert sup[0] > sup[1] > sup[2]
    assert amp[0] > amp[1] > amp[2]
    assert amp[-1] <= 5e-3
    assert ls.monotone_R and ls.monotone_e
    assert min(r[4] for r in rows) > 0.5  # Jacobian floor in units of eps


def test_limit_study_rarefaction_passthrough(m_burgers):
    ls = regularize.limit_study(m_burgers, "x^2/2", "1", (1e-2, 2.5e-3),
                                T=1.0, S0_prime="x")
    assert not ls.shocked
    assert math.isinf(ls.t_star)
    for row in ls.rows():
        assert row[2] <= 1e-8
        assert row[3] == 0.0
        assert row[4] > 0.0


def test_limit_study_logs_distances_that_do_not_shrink(m_burgers, caplog,
                                                       monkeypatch):
    monkeypatch.setattr(regularize, "_strictly_decreasing",
                        lambda vals: False)
    with caplog.at_level("WARNING", logger="tunnelshock"):
        ls = regularize.limit_study(m_burgers, "x^2/2", "1",
                                    (1e-2, 2.5e-3), T=1.0, S0_prime="x")
    assert not (ls.monotone_R or ls.monotone_e)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
        == [("tunnelshock", "WARNING", f"{what} distances do not shrink "
             "strictly along the schedule") for what in ("field", "amplitude")]


def test_limit_study_riemann_mass_rate(m_burgers):
    T = 1.0
    ls = regularize.limit_study(
        m_burgers, "0.05*log(sech(x/0.05))", "1", (1e-2, 2.5e-3), T=T,
        S0_prime="0-tanh(x/0.05)")
    assert abs(ls.e_ref_T - 2.0 * T) < 1e-6  # unit jump eats mass at rate 2
    errs = [r[3] for r in ls.rows()]
    assert errs[0] > errs[1]
    assert errs[1] <= 5e-2
    assert ls.monotone_e


def test_limit_study_rejects_bad_schedule(m_burgers, monkeypatch):
    with pytest.raises(regularize.RegularizeError):
        regularize.limit_study(m_burgers, "x^2/2", "1", (1e-3, 1e-2), T=1.0)
    with pytest.raises(regularize.RegularizeError):
        regularize.limit_study(m_burgers, "x^2/2", "1", (1e-2, 2.5e-3),
                               T=1.0, betas=(0.05,))

    # epsilon > beta**2 is refused before any fan is integrated, whether
    # or not the data ever shock
    def no_fan(*args, **kwargs):
        raise AssertionError("the fan was integrated")

    monkeypatch.setattr(characteristics, "integrate_fan", no_fan)
    for S0, S0_prime in (("x^2/2", None),
                         ("log(sech(2*x))/2", "0-tanh(2*x)")):
        with pytest.raises(regularize.RegularizeError, match="beta"):
            regularize.limit_study(m_burgers, S0, "1", (1e-2,), T=1.0,
                                   S0_prime=S0_prime, betas=(0.05,))


def _old_first_crossing(labs, vs, edge_fn, sign, T):
    # the one-array formula _first_crossing used before it took its rows in
    # blocks: the whole (rows, 2049) table at once
    t_abs = np.full(labs.shape, np.inf)
    if labs.size == 0:
        return t_abs
    tg = np.linspace(0.0, T, 2049)
    D = tg[None, :] * vs[:, None]
    D += labs[:, None]
    D -= edge_fn(tg)[None, :]
    D *= sign
    hit = D >= 0.0
    rows = np.where(hit.any(axis=1))[0]
    if rows.size == 0:
        return t_abs
    k = np.argmax(hit[rows], axis=1)
    immediate = k == 0
    t_abs[rows[immediate]] = 0.0
    solve = rows[~immediate]
    k = k[~immediate]
    lv, vv = labs[solve], vs[solve]
    lo, hi = roots.bisect(
        lambda t: sign * (lv + t * vv - edge_fn(t)) < 0.0,
        tg[k - 1], tg[k], 48)
    t_abs[solve] = 0.5 * (lo + hi)
    return t_abs


@pytest.fixture(scope="module")
def crossing_calls(m_burgers):
    # the arguments of every _first_crossing call the blended flows of the
    # limit_study.ini schedule make at the bench draws' 1201 rows: both
    # sides, so both signs, per window width
    calls = []
    real = regularize._first_crossing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularize, "_first_crossing",
                   lambda *a: calls.append(a) or real(*a))
        for eps in (1e-2, 2.5e-3, 6.25e-4):
            params = regularize.RegularizationParams(eps, math.sqrt(eps))
            regularize.blended_fan(m_burgers, "0-tanh(2*x)", params, 1.0,
                                   0.0, 0.5, n_rows=1201)
    return calls


def test_first_crossing_in_blocks_matches_one_array(crossing_calls):
    assert sorted({a[3] for a in crossing_calls}) == [-1.0, 1.0]
    for labs, vs, edge_fn, sign, T in crossing_calls:
        assert labs.size > regularize.CROSSING_BLOCK
        new = regularize._first_crossing(labs, vs, edge_fn, sign, T)
        assert np.array_equal(new, _old_first_crossing(labs, vs, edge_fn,
                                                       sign, T))
        assert np.isfinite(new).any()
    # one block of rows that never cross, one row already across at t = 0,
    # then the left side's rows; and no rows at all
    _, _, edge_fn, sign, T = next(a for a in crossing_calls if a[3] > 0)
    block = regularize.CROSSING_BLOCK
    x_e = float(edge_fn(0.0))
    labs = np.concatenate([np.linspace(-3.0, -2.5, block), [x_e + 0.1],
                           np.linspace(-3.0, x_e - 0.01, 200)])
    vs = np.concatenate([np.full(block, -1.0), [0.0],
                         -np.tanh(2.0 * labs[block + 1:])])
    new = regularize._first_crossing(labs, vs, edge_fn, sign, T)
    assert np.array_equal(new, _old_first_crossing(labs, vs, edge_fn,
                                                   sign, T))
    assert np.all(np.isinf(new[:block])) and new[block] == 0.0
    assert np.isfinite(new[block + 1:]).any()
    empty = np.array([])
    assert regularize._first_crossing(empty, empty, edge_fn, sign, T).size == 0


def test_first_crossing_memory_is_one_block(crossing_calls):
    # 1,200 rows of the left side's data: the one-array formula traced about
    # 23 MB here, a block of 64 rows about 1 MB
    _, _, edge_fn, sign, T = next(a for a in crossing_calls if a[3] > 0)
    labs = np.linspace(-3.0, float(edge_fn(0.0)) - 0.01, 1200)
    vs = -np.tanh(2.0 * labs)
    tracemalloc.start()
    try:
        new = regularize._first_crossing(labs, vs, edge_fn, sign, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert np.array_equal(new, _old_first_crossing(labs, vs, edge_fn,
                                                   sign, T))
