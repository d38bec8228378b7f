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
        S0_prime="0-tanh(x)")


@pytest.fixture(scope="module")
def drift_fan(burgers):
    # v0 = 0.5 - tanh(x): same fold in a frame moving at speed 1/2
    x0 = np.linspace(-3.0, 3.0, 1201)
    return characteristics.integrate_fan(
        burgers, "log(sech(x)) + 0.5*x", x0, T=1.5, h_t=2.5e-3, store_every=2,
        S0_prime="0.5-tanh(x)")


def test_branches_pre_fold_single(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 0.5)
    assert len(curve.branches) == 1
    assert curve.branches[0].sign == 1.0


def test_branches_post_fold_three(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 1.5)
    signs = [b.sign for b in curve.branches]
    assert signs == [1.0, -1.0, 1.0]
    # adjacent branches meet at the folds, between neighbouring labels
    b0, b1, b2 = curve.branches
    assert b0.rows.stop == b1.rows.start and b1.rows.stop == b2.rows.start
    # x = x0 - 1.5*tanh(x0) has turning points where sech^2 = 1/1.5;
    # the fold at positive label projects across the crossing to x < 0
    x0_turn = np.arccosh(np.sqrt(1.5))
    x_turn = x0_turn - 1.5 * np.tanh(x0_turn)
    assert x_turn < 0
    for k in (b1.rows.stop - 1, b2.rows.start):  # the rows around the fold
        assert abs(curve.x0[k] - x0_turn) < 5e-3
        assert abs(curve.x[k] - x_turn) < 5e-3


def test_first_singularity_location(tanh_fan):
    ev = manifold.first_singularity(tanh_fan)
    assert ev is not None
    assert abs(ev.t - 1.0) < 1e-5
    assert abs(ev.x) < 1e-5
    assert abs(ev.x0) < 5e-3


def test_no_singularity_for_expanding_flow(burgers):
    x0 = np.linspace(-2.0, 2.0, 201)
    fan = characteristics.integrate_fan(
        burgers, "x^2/2", x0, T=1.0, h_t=0.01, S0_prime="x")
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
        brute[mask] = np.minimum(brute[mask], b.values(xq[mask])[1])
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


@pytest.mark.parametrize("preset, t, x_span", [
    ("tanh_fan", 1.5, 1.4), ("kirchhoff_gd", 1.0, 1.9)])
def test_essential_answers_each_point_as_if_alone(preset, t, x_span, request):
    # one batch locates every (branch, point) pair of the slice, and each
    # entry stops on its own test: a pooled query equals one-point queries
    # bit for bit, after the fold and next to the merge alike
    fan = request.getfixturevalue(preset)
    curve = manifold.slice_fan(getattr(fan, "fan", fan), t)
    assert len(curve.branches) >= 3
    xq = np.linspace(-x_span, x_span, 151)
    pooled = manifold.essential(curve, xq)
    names = ("S", "p", "u", "x0", "J", "a_int", "branch_id")
    for i in range(xq.size):
        alone = manifold.essential(curve, xq[i:i + 1])
        for name in names:
            assert np.array_equal(getattr(alone, name),
                                  getattr(pooled, name)[i:i + 1]), (i, name)


def test_essential_uncovered_raises(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 0.5)
    with pytest.raises(manifold.UncoveredPointError):
        manifold.essential(curve, np.array([50.0]))


def test_essential_branches_near_uncovered_raises(tanh_fan):
    curve = manifold.slice_fan(tanh_fan, 1.5)
    x_hi = max(b.x_hi for b in curve.branches)
    # a probe beyond every branch gets no stand-in branch
    with pytest.raises(manifold.UncoveredPointError, match="no branch covers"):
        manifold._essential_branches_near(curve, x_hi + 1.0, 0.01)


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


def _old_speed_deviation(rec, m, p_gap=1e-4):
    # the per-sample loop check_speed_consistency ran before it called the
    # vectorized symbol.jump_speed
    worst = 0.0
    for k in range(rec.times.size):
        dp = rec.p_l[k] - rec.p_r[k]
        if abs(dp) < p_gap:
            continue
        Pl = float(symbol.eval_P(m, rec.x_s[k], rec.p_l[k]))
        Pr = float(symbol.eval_P(m, rec.x_s[k], rec.p_r[k]))
        rh = (Pl - Pr) / dp
        dev = abs(rec.c[k] - rh) / (1.0 + abs(rec.c[k]))
        worst = max(worst, dev)
    return worst


@pytest.mark.parametrize("preset", ["riemann_gd", "kirchhoff_gd"])
def test_speed_consistency_matches_old_loop(preset, request):
    gd = request.getfixturevalue(preset)
    m = gd.fan.symbol
    for rec in gd.shocks:
        new = manifold.check_speed_consistency(rec, m)
        assert new == _old_speed_deviation(rec, m)
    assert any(manifold.check_speed_consistency(rec, m) > 0.0
               for rec in gd.shocks)


@pytest.mark.parametrize("t", [1.2, 1.5])
def test_equal_action_root_closes_the_action_gap(drift_fan, t):
    # Newton on the two one-sided labels: the returned rows are the
    # branches' values at the root, their actions agree, and a plain
    # bisection of the same gap finds the same point
    curve = manifold.slice_fan(drift_fan, t)
    x, bl, br, row_l, row_r = manifold._equal_action_root(
        curve, 0.5 * t + 0.02, 0.01)
    assert bl.index != br.index
    np.testing.assert_allclose(row_l, bl.values(x), rtol=0, atol=1e-14)
    np.testing.assert_allclose(row_r, br.values(x), rtol=0, atol=1e-14)
    assert abs(row_l[1] - row_r[1]) <= 1e-13
    assert row_l[2] > row_r[2]  # the momentum jumps down across the shock
    lo, hi = max(bl.x_lo, br.x_lo) + 1e-9, min(bl.x_hi, br.x_hi) - 1e-9
    g_lo = bl.values(lo)[1] - br.values(lo)[1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (bl.values(mid)[1] - br.values(mid)[1] > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    assert abs(x - 0.5 * (lo + hi)) <= 1e-12
    assert abs(x - 0.5 * t) < 1e-6


@pytest.mark.parametrize("preset", ["riemann_gd", "kirchhoff_gd"])
def test_equal_action_root_closes_the_action_gap_at_every_sample(
        preset, request):
    # the label-space Newton leaves both one-sided labels on the shock:
    # read back through Branch.values at x_s, each branch returns its
    # recorded label, and the two actions agree
    gd = request.getfixturevalue(preset)
    for rec in gd.shocks:
        for k, t in enumerate(rec.times):
            curve = manifold.slice_fan(gd.fan, t)
            labels = (rec.x0_l[k], rec.x0_r[k])
            bl, br = (next(b for b in curve.branches
                           if curve.x0[b.rows.start] <= lab
                           <= curve.x0[b.rows.stop - 1]) for lab in labels)
            rows = bl.values(rec.x_s[k]), br.values(rec.x_s[k])
            for row, lab in zip(rows, labels):
                assert abs(row[0] - lab) <= 1e-13 * (1 + abs(lab))
            assert abs(rows[0][1] - rows[1][1]) <= 1e-13


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


def _two_front_fan(A, c, w):
    # a bench front2-merge draw: two fronts of width w centred at -c and c
    # whose merged shock takes in the whole label box [-3, 3] before T = 1
    s0 = f"{w}*log(sech((x+{c})/{w})) + {w}*log(sech((x-{c})/{w}))"
    s0p = f"0-tanh((x+{c})/{w})-tanh((x-{c})/{w})"
    return characteristics.integrate_fan(
        symbol.make_symbol(A=A), s0, np.linspace(-3.0, 3.0, 801), T=1.0,
        h_t=5e-3, store_every=2, S0_prime=s0p)


@pytest.mark.parametrize("A, c, w, lost", [
    ("0.89478", "1.146178", "0.396803", "t=0.84; last one-sided labels "
     "-2.97, 2.97"),
    # the last root, at t = 0.83, pairs the right edge's label on the left
    # with the left edge's on the right: crossed labels are no root
    ("0.89998", "1.140226", "0.41345", "t=0.83; last one-sided labels "
     "-2.95, 2.95"),
])
def test_merged_shock_that_takes_in_the_label_box_raises(A, c, w, lost):
    # past the last equal-action root the one-sided states would start
    # outside the label box: no sample is placed there, the tracker raises
    with pytest.raises(manifold.ManifoldError) as info:
        manifold.track_shocks(_two_front_fan(A, c, w))
    msg = str(info.value)
    assert msg.startswith(f"shock 2: no equal-action root at {lost} in the "
                          "label box [-3, 3]")
    assert msg.endswith("widen [x_min, x_max]")


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
# slice layer: label-space interpolants and the vectorized decomposition


def _label_curve(n, sign):
    """One-branch slice of a closed-form Burgers fan at t = 0.5 on n
    non-uniform labels; sign = -1 mirrors x (and p) into a decreasing
    branch.  Returns the curve and the exact x and _CURVE_FIELDS as
    functions of the label."""
    t = 0.5
    u = np.linspace(-1.0, 1.0, n)
    x0 = u + 0.15 * np.sin(3 * u)

    def exact(y):
        v, dv = 0.3 * np.sin(2 * y), 0.6 * np.cos(2 * y)
        return (sign * (y + t * v), y, -0.15 * np.cos(2 * y) + t * v * v / 2,
                sign * v, sign * (1 + t * dv), t * np.cos(y))

    x, _, S, p, J, a_int = exact(x0)
    curve = manifold._decompose(manifold.LagrangianCurve(
        t=t, symbol=None, x0=x0, x=x, p=p, S=S, J=J,
        dp=sign * 0.6 * np.cos(2 * x0), a_int=a_int))
    assert [b.sign for b in curve.branches] == [sign]
    return curve, exact


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_label_interpolant(sign):
    curve, exact = _label_curve(81, sign)
    b = curve.branches[0]
    # a query at a row returns the stored row bit for bit
    rows = np.stack([getattr(curve, f) for f in manifold._CURVE_FIELDS])
    assert np.array_equal(b.values(curve.x), rows)
    assert np.array_equal(b.values(curve.x[7]), rows[:, 7])
    # x(x0(x)) round-trips through the inversion
    q = np.random.default_rng(3).uniform(b.x_lo, b.x_hi, 500)
    H, lab, _ = b.at(*b.locate(q))
    assert np.all(np.abs(H[0] - q) <= 1e-13 * (1 + np.abs(q)))
    assert np.array_equal(b.values(q)[0], lab)
    # outside [x_lo, x_hi] every field is NaN
    out = b.values(np.array([b.x_lo - 1e-9, b.x_hi + 1e-9, np.nan]))
    assert np.all(np.isnan(out))
    # the slope rule (exact slopes for x, S and p, fourth-order label
    # differences for J and a_int) keeps every field fourth order on
    # non-uniform labels: query the exact image of each row midpoint
    errs = []
    for n in (41, 81):
        curve, exact = _label_curve(n, sign)
        mid = 0.5 * (curve.x0[:-1] + curve.x0[1:])
        x, *fields = exact(mid)
        got = curve.branches[0].values(x)
        errs.append(np.max(np.abs(got - np.stack(fields)), axis=1))
    assert np.all(np.log2(errs[0] / errs[1]) > 3.5), errs


def _decompose_loop(J, x):
    """Reference: the per-sample loop the vectorized _decompose replaced,
    with a row that is a run of its own joined to the runs on both of its
    sides where x stays monotone."""
    n = J.size
    signs = np.sign(J)
    runs = []
    i = 0
    while i < n:
        s = signs[i]
        j = i
        while s != 0 and j + 1 < n and signs[j + 1] == s:
            if (x[j + 1] - x[j]) * s <= 0:
                break
            j += 1
        runs.append((i, j, s))
        i = j + 1
    lone = [i for i, j, _ in runs if i == j]
    branches = []
    for i, j, s in runs:
        if j == i or s == 0:
            continue
        if i - 1 in lone and (x[i] - x[i - 1]) * s > 0:
            i -= 1
        if j + 1 in lone and (x[j + 1] - x[j]) * s > 0:
            j += 1
        branches.append((slice(i, j + 1), float(s), float(min(x[i], x[j])),
                         float(max(x[i], x[j]))))
    return branches


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
            S=np.zeros_like(x), J=J, dp=np.zeros_like(x),
            a_int=np.zeros_like(x))
        manifold._decompose(curve)
        got = [(b.rows, b.sign, b.x_lo, b.x_hi) for b in curve.branches]
        assert got == _decompose_loop(J, x)
        assert [b.index for b in curve.branches] == list(range(len(got)))


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
