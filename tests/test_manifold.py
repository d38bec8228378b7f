import dataclasses

import numpy as np
import pytest

from tunnelshock import characteristics, manifold, symbol


@pytest.fixture(scope="module")
def burgers():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="module")
def tanh_fan(burgers):
    # v0 = -tanh(x): first fold at t=1, x=0
    x0 = np.linspace(-3.0, 3.0, 1201)
    return characteristics.integrate_fan(
        burgers, "log(sech(x))", x0, T=1.5, h_t=2.5e-3, store_every=2,
        S0_prime="0-tanh(x)", S0_second="0-sech(x)^2")


@pytest.fixture(scope="module")
def drift_fan(burgers):
    # v0 = 0.5 - tanh(x): same fold in a frame moving at speed 1/2
    x0 = np.linspace(-3.0, 3.0, 1201)
    return characteristics.integrate_fan(
        burgers, "log(sech(x)) + 0.5*x", x0, T=1.5, h_t=2.5e-3, store_every=2,
        S0_prime="0.5-tanh(x)", S0_second="0-sech(x)^2")


def test_branches_pre_fold_single(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 0.5)
    assert len(curve.branches) == 1
    assert curve.branches[0].sign == 1.0
    assert curve.folds == []


def test_branches_post_fold_three(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 1.5)
    signs = [b.sign for b in curve.branches]
    assert signs == [1.0, -1.0, 1.0]
    assert len(curve.folds) == 2
    # fold projections straddle the crossing and connect adjacent branches
    f0, f1 = curve.folds
    assert f0.left_branch == 0 and f0.right_branch == 1
    assert f1.left_branch == 1 and f1.right_branch == 2
    # x = x0 - 1.5*tanh(x0) has turning points where sech^2 = 1/1.5;
    # the fold at positive label projects across the crossing to x < 0
    x0_turn = np.arccosh(np.sqrt(1.5))
    x_turn = x0_turn - 1.5 * np.tanh(x0_turn)
    assert x_turn < 0
    assert abs(f1.x0 - x0_turn) < 5e-3
    assert abs(f1.x - x_turn) < 5e-3


def test_first_singularity_location(tanh_fan):
    ev = manifold.first_singularity(tanh_fan)
    assert ev is not None
    assert abs(ev.t - 1.0) < 1e-5
    assert abs(ev.x) < 1e-5
    assert abs(ev.x0) < 5e-3


def test_no_singularity_for_expanding_flow(burgers):
    x0 = np.linspace(-2.0, 2.0, 201)
    fan = characteristics.integrate_fan(
        burgers, "x^2/2", x0, T=1.0, h_t=0.01, S0_prime="x", S0_second="x*0+1")
    assert manifold.first_singularity(fan) is None
    assert manifold.find_singularities(fan) == []


def test_essential_pre_fold_matches_slice(tanh_fan, burgers):
    curve = manifold.slice_fan(tanh_fan, 0.5)
    xq = curve.x[100:-100:50]
    ess = manifold.essential(curve, xq)
    assert np.allclose(ess.S, curve.S[100:-100:50], atol=1e-9)
    assert np.allclose(ess.p, curve.p[100:-100:50], atol=1e-9)
    # velocity for a quadratic symbol with A=1/2 equals the momentum
    assert np.allclose(ess.u, ess.p, atol=1e-12)
    assert np.all(ess.branch_id == 0)


def test_essential_post_fold_picks_minimum(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 1.5)
    xq = np.linspace(-1.2, 1.2, 241)
    ess = manifold.essential(curve, xq)
    # minimum over every covering branch, done by hand
    brute = np.full_like(xq, np.inf)
    for b in curve.branches:
        mask = b.covers(xq)
        brute[mask] = np.minimum(brute[mask], b.interp("S", xq[mask]))
    assert np.allclose(ess.S, brute, atol=1e-12)
    # odd data make the action even and the velocity odd with a jump at 0
    mid = np.searchsorted(xq, 0.0)
    assert ess.u[mid - 1] > 0.4
    assert ess.u[mid + 1] < -0.4


def test_essential_tie_rules(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 1.5)
    # at x=0 both outer branches carry equal action and equal |p|;
    # the tie goes to the smaller branch index
    ess = manifold.essential(curve, np.array([0.0]))
    assert ess.branch_id[0] == 0


def test_essential_uncovered_raises(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 0.5)
    with pytest.raises(manifold.UncoveredPointError):
        manifold.essential(curve, np.array([50.0]))


def test_stationary_shock_path(tanh_fan):
    recs = manifold.track_shocks(tanh_fan)
    assert len(recs) == 1
    rec = recs[0]
    assert abs(rec.t_birth - 1.0) < 1e-5
    assert abs(rec.x_birth) < 1e-5
    assert rec.times[0] >= rec.t_birth - 1e-9
    assert rec.times[-1] == pytest.approx(1.5)
    # odd data pin the shock at the origin with zero speed
    assert np.max(np.abs(rec.x_s)) < 1e-8
    assert np.max(np.abs(rec.c)) < 1e-6
    assert np.max(np.abs(rec.u_l + rec.u_r)) < 1e-8
    # one-sided momenta bracket zero once the jump is resolved
    late = rec.times > 1.1
    assert np.all(rec.p_l[late] > 0.1)
    assert np.all(rec.p_r[late] < -0.1)
    # one-sided labels are the pre-images of the shock from either side
    assert np.all(rec.x0_l[late] < -0.1)
    assert np.all(rec.x0_r[late] > 0.1)
    assert np.all(rec.J_l[late] > 0)
    assert np.all(rec.J_r[late] > 0)


def test_moving_shock_galilean(drift_fan):
    recs = manifold.track_shocks(drift_fan)
    assert len(recs) == 1
    rec = recs[0]
    assert abs(rec.t_birth - 1.0) < 1e-4
    assert abs(rec.x_birth - 0.5) < 1e-4
    late = rec.times > 1.05
    # shifting the data by +1/2 moves the whole picture at speed 1/2
    assert np.max(np.abs(rec.x_s[late] - 0.5 * rec.times[late])) < 1e-6
    assert np.max(np.abs(rec.c[late] - 0.5)) < 1e-4
    assert np.all(rec.u_l[late] > 0.5)
    assert np.all(rec.u_r[late] < 0.5)
    # jump quotient of the flux equals the path speed
    dev = manifold.check_speed_consistency(rec, drift_fan.symbol)
    assert dev < 1e-4


def test_shock_action_continuity(tanh_fan):
    # the essential action is continuous across the shock: both one-sided
    # branch actions agree at the tracked position
    recs = manifold.track_shocks(tanh_fan)
    rec = recs[0]
    k = np.searchsorted(rec.times, 1.3)
    curve = manifold.slice_fan(tanh_fan, rec.times[k])
    ess = manifold.essential(curve, np.array([rec.x_s[k] - 1e-4,
                                              rec.x_s[k] + 1e-4]))
    assert abs(ess.S[0] - ess.S[1]) < 1e-6


def test_two_shocks_merge(burgers):
    d = 0.1
    x0 = np.linspace(-4.0, 4.0, 4001)
    s0 = "0.1*(log(sech((x+1)/0.1)) + log(sech((x-1)/0.1)))"
    s0p = "0-tanh((x+1)/0.1)-tanh((x-1)/0.1)"
    fan = characteristics.integrate_fan(
        burgers, s0, x0, T=1.4, h_t=2.5e-3, store_every=4, S0_prime=s0p)
    events = sorted(manifold.find_singularities(fan), key=lambda e: e.x)
    assert len(events) == 2
    assert abs(events[0].t - d) < 5e-3 and abs(events[1].t - d) < 5e-3
    assert abs(events[0].x + (1 - d)) < 5e-3  # born at -1 + t*.u(-1), u=1
    assert abs(events[1].x - (1 - d)) < 5e-3

    recs = manifold.track_shocks(fan)
    assert len(recs) == 3
    child = next(r for r in recs if r.parents)
    a, b = sorted((r for r in recs if not r.parents), key=lambda r: r.x_birth)
    assert a.merged_into == child.id and b.merged_into == child.id
    assert child.parents == (a.id, b.id)
    assert abs(child.t_birth - 1.0) < 0.1
    assert abs(child.x_birth) < 0.01
    # between strengthening and interaction the left path rides x = t - 1
    mid = (a.times > 0.4) & (a.times < 0.8)
    assert np.max(np.abs(a.x_s[mid] - (a.times[mid] - 1.0))) < 1e-3
    assert np.max(np.abs(a.c[mid] - 1.0)) < 1e-3
    # the merged shock is stationary at the origin between the far states
    assert np.max(np.abs(child.x_s)) < 1e-6
    tail = child.times > child.times[0] + 0.2
    assert np.all(np.abs(child.u_l[tail] - 2.0) < 1e-2)
    assert np.all(np.abs(child.u_r[tail] + 2.0) < 1e-2)
    # parents stop at the crossing, the child picks up there
    assert a.times[-1] <= child.times[0] + 1e-12
    assert abs(a.x_s[-1] - b.x_s[-1]) < 0.05


def test_record_interpolation(tanh_fan):
    rec = manifold.track_shocks(tanh_fan)[0]
    vals = rec.at(1.3)
    assert abs(vals["x_s"]) < 1e-8
    assert "p_l" in vals and vals["p_l"] > 0


def test_shock_tracking_deterministic(tanh_fan):
    r1 = manifold.track_shocks(tanh_fan)[0]
    r2 = manifold.track_shocks(tanh_fan)[0]
    assert np.array_equal(r1.x_s, r2.x_s)
    assert np.array_equal(r1.p_l, r2.p_l)


# ---------------------------------------------------------------------------
# slice layer: multi-column interpolants and the vectorized decomposition


def _one_branch(x, cols):
    """A branch over all of x carrying the _CURVE_FIELDS columns cols."""
    return manifold.Branch(index=0, rows=slice(0, x.size), sign=1.0,
                           x_lo=float(np.min(x)), x_hi=float(np.max(x)),
                           data=(x,) + tuple(cols))


@pytest.mark.parametrize("order", ["increasing", "reversed"])
def test_multi_column_pchip_matches_per_column(order):
    # PCHIP slopes are column-local, so one stacked build must reproduce
    # single-field builds bit for bit
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 40, 801):
        x = np.cumsum(rng.uniform(1e-3, 1.0, n))
        cols = [rng.normal(size=n) for _ in manifold._CURVE_FIELDS]
        cols[0] = np.cumsum(np.abs(cols[0]))  # one monotone column
        if order == "reversed":
            x, cols = x[::-1], [c[::-1] for c in cols]
        b = _one_branch(x, cols)
        q = np.concatenate([rng.uniform(b.x_lo - 0.5, b.x_hi + 0.5, 300),
                            x, [b.x_lo, b.x_hi]])
        vals = b.values(q)
        assert vals.shape == (q.size, len(manifold._CURVE_FIELDS))
        xs = x if order == "increasing" else x[::-1]
        for k, name in enumerate(manifold._CURVE_FIELDS):
            c = cols[k] if order == "increasing" else cols[k][::-1]
            ref = PchipInterpolator(xs, c, extrapolate=False)(q)
            assert np.array_equal(vals[:, k], ref, equal_nan=True)
            assert np.array_equal(b.interp(name, q), ref, equal_nan=True)
            assert b.interp(name, float(x[1])) == ref[300 + 1]


def test_single_sample_branch_is_constant():
    cols = [np.array([v]) for v in (0.5, -1.0, 2.0, 0.25, 3.0)]
    b = _one_branch(np.array([1.0]), cols)
    q = np.array([-5.0, 1.0, 7.0])
    vals = b.values(q)
    assert vals.shape == (3, 5)
    assert np.array_equal(vals, np.tile([0.5, -1.0, 2.0, 0.25, 3.0], (3, 1)))
    assert np.array_equal(b.values(2.0), [0.5, -1.0, 2.0, 0.25, 3.0])
    assert b.interp("J", 2.0) == 2.0


def _decompose_loop(J, x, x0):
    """Reference: the per-sample loop the vectorized _decompose replaced."""
    n = J.size
    signs = np.sign(J)
    branches = []
    i = 0
    while i < n:
        if signs[i] == 0:
            i += 1
            continue
        s = signs[i]
        j = i
        while j + 1 < n and signs[j + 1] == s:
            if (x[j + 1] - x[j]) * s <= 0:
                break
            j += 1
        if j > i:
            branches.append((slice(i, j + 1), float(s), float(min(x[i], x[j])),
                             float(max(x[i], x[j]))))
        i = j + 1
    folds = []
    for k in range(n - 1):
        if signs[k] != 0 and signs[k + 1] != 0 and signs[k] != signs[k + 1]:
            w = J[k] / (J[k] - J[k + 1])
            x0z = x0[k] + w * (x0[k + 1] - x0[k])
            xz = x[k] + w * (x[k + 1] - x[k])
            bl = br = -1
            for idx, (rows, *_) in enumerate(branches):
                if rows.stop - 1 == k:
                    bl = idx
                if rows.start == k + 1:
                    br = idx
            folds.append((float(x0z), float(xz), bl, br))
    return branches, folds


def _decompose_cases():
    J_zero = np.array([1.0, 2.0, 0.0, 0.0, 1.0, 3.0, -1.0, -2.0, 0.0, 1.0])
    J_alt = np.array([1.0, -1.0, 2.0, -2.0, 1.0, 1.0, -1.0, 1.0])
    J_pos = np.ones(8)
    x_bent = np.array([0.0, 1.0, 2.0, 1.5, 3.0, 4.0, 4.0, 5.0])
    J_ones = np.array([1.0, -1.0, -1.0, 1.0, 0.0, -1.0, 1.0])
    cases = [
        (J_zero, np.cumsum(np.sign(J_zero) + 0.5)),      # zero-J samples
        (J_alt, np.linspace(0.0, 1.0, J_alt.size)),       # adjacent folds
        (J_pos, x_bent),                                   # non-monotone x
        (J_ones, np.array([0.0, 1.0, 0.5, 0.0, 0.0, -1.0, 2.0])),  # 1-sample runs
        (np.array([2.0]), np.array([0.0])),
        (np.array([1.0, 1.0]), np.array([0.0, 0.0])),
    ]
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        J = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0], n) * rng.uniform(0.5, 1.5, n)
        x = np.cumsum(rng.choice([-1.0, 0.0, 1.0, 1.0, 1.0], n))
        cases.append((J, x))
    return cases


def test_vectorized_decompose_matches_loop():
    for J, x in _decompose_cases():
        x0 = np.linspace(-1.0, 1.0, J.size)
        curve = manifold.LagrangianCurve(
            t=0.0, symbol=None, x0=x0, x=x, p=np.zeros_like(x),
            S=np.zeros_like(x), J=J, a_int=np.zeros_like(x))
        manifold._decompose(curve)
        branches, folds = _decompose_loop(J, x, x0)
        got = [(b.rows, b.sign, b.x_lo, b.x_hi) for b in curve.branches]
        assert got == branches
        assert [b.index for b in curve.branches] == list(range(len(got)))
        assert [(f.x0, f.x, f.left_branch, f.right_branch)
                for f in curve.folds] == folds


def _old_find_singularities(fan):
    # the per-label loop find_singularities ran before the vectorized
    # first-crossing index
    def row_cross_step(row):
        neg = np.nonzero(fan.J[:, row] <= 0.0)[0]
        return int(neg[0]) if neg.size else None

    first = np.array([np.inf if row_cross_step(r) is None
                      else row_cross_step(r) for r in range(fan.n_rows)])
    folding = np.isfinite(first)
    if not np.any(folding):
        return []
    (idx,) = np.nonzero(folding)
    bounds, start = [], idx[0]
    for a, b in zip(idx[:-1], idx[1:]):
        if b != a + 1:
            bounds.append((start, a))
            start = b
    bounds.append((start, idx[-1]))
    events = []
    for lo, hi in bounds:
        rows = np.arange(lo, hi + 1)
        steps = first[rows]
        kmin = int(np.min(steps))
        tied = rows[steps == kmin]
        t_tied = manifold._cross_times_rows(fan, tied, kmin)
        j = int(np.argmin(t_tied))
        r_best, t_best = int(tied[j]), float(t_tied[j])
        cand, ts = [r_best], [t_best]
        for r in (r_best - 1, r_best + 1):
            if lo <= r <= hi and first[r] < np.inf:
                if r in tied:
                    ts.append(float(t_tied[list(tied).index(r)]))
                else:
                    ts.append(float(manifold._cross_times_rows(
                        fan, [r], int(first[r]))[0]))
                cand.append(r)
        order = np.argsort([fan.x0[c] for c in cand])
        cand = [cand[i] for i in order]
        ts = [ts[i] for i in order]
        x0_star = t_star = None
        if len(cand) == 3:
            xs0 = fan.x0[cand]
            c2 = np.polyfit(xs0, ts, 2)
            if c2[0] > 0:
                x0_star = float(-c2[1] / (2 * c2[0]))
                x0_star = float(np.clip(x0_star, xs0[0], xs0[-1]))
                t_star = float(np.polyval(c2, x0_star))
        if x0_star is None:
            j = int(np.argmin(ts))
            x0_star, t_star = float(fan.x0[cand[j]]), float(ts[j])
        state = fan.state_at(min(t_star, float(fan.times[-1])))
        x_star = float(np.interp(x0_star, fan.x0, state["x"]))
        events.append(manifold.SingularPoint(t=t_star, x=x_star, x0=x0_star,
                                             rows=(int(lo), int(hi))))
    events.sort(key=lambda e: e.t)
    return events


@pytest.mark.parametrize("s0, s0p", [
    ("log(sech(x))", "0-tanh(x)"),                       # one centred fold
    ("log(sech(x)) + 0.5*x", "0.5-tanh(x)"),             # moving fold
    ("0.1*(log(sech((x+1)/0.1)) + log(sech((x-1)/0.1)))",
     "0-tanh((x+1)/0.1)-tanh((x-1)/0.1)"),               # two clusters
    ("0.3*log(sech((x+1)/0.3)) + 0.05*log(sech((x-1.2)/0.05))",
     "0-tanh((x+1)/0.3)-tanh((x-1.2)/0.05)"),            # unequal clusters
])
def test_vectorized_singularities_match_loop(burgers, s0, s0p):
    fan = characteristics.integrate_fan(
        burgers, s0, np.linspace(-3.0, 3.0, 601), T=1.2, h_t=5e-3,
        store_every=2, S0_prime=s0p)
    new = manifold.find_singularities(fan)
    assert new
    assert new == _old_find_singularities(fan)


@pytest.mark.parametrize("gap", [1, 2])
def test_vectorized_singularities_split_clusters(tanh_fan, gap):
    # rows that never fold cut the folding cluster into pieces
    J = tanh_fan.J.copy()
    mid = tanh_fan.n_rows // 2
    J[:, mid:mid + gap] = 1.0
    J[:, mid + 40:mid + 40 + gap] = 1.0
    fan = dataclasses.replace(tanh_fan, J=J)
    new = manifold.find_singularities(fan)
    assert len(new) == 3
    assert new == _old_find_singularities(fan)


@pytest.mark.parametrize("toward", [1.0, 0.0, 0.1])
def test_coincident_folds_are_ordered_left_to_right(toward):
    # folds whose times differ in the last bit only keep the label order
    left = manifold.SingularPoint(t=float(np.nextafter(0.1, toward)), x=-0.9,
                                  x0=-1.0, rows=(0, 9))
    right = manifold.SingularPoint(t=0.1, x=0.9, x0=1.0, rows=(20, 29))
    later = manifold.SingularPoint(t=0.1 + 1e-6, x=-3.0, x0=-3.0,
                                   rows=(40, 49))
    for events in ([right, later, left], [later, left, right]):
        assert manifold._time_order(events) == [left, right, later]


def test_symmetric_fronts_get_stable_shock_ids(burgers):
    fan = characteristics.integrate_fan(
        burgers, "0.1*(log(sech((x+1)/0.1)) + log(sech((x-1)/0.1)))",
        np.linspace(-3.0, 3.0, 601), T=0.4, h_t=5e-3, store_every=2,
        S0_prime="0-tanh((x+1)/0.1)-tanh((x-1)/0.1)")
    events = manifold.find_singularities(fan)
    assert len(events) == 2 and events[0].x0 < 0.0 < events[1].x0
    recs = manifold.track_shocks(fan)
    assert [r.id for r in recs] == [0, 1]
    assert recs[0].x_birth < 0.0 < recs[1].x_birth
