import contextlib
import os
import re

import numpy as np
import pytest

from tunnelshock import characteristics as ch
from tunnelshock import cli, expr, symbol
from tunnelshock.textio import write_csv
from tunnelshock.symbol import make_symbol


BURGERS = make_symbol(A="0.5")


def test_window_rides_the_end_labels():
    # S0 = 2x under P = p^2/2 carries every label at speed 2: the window at
    # a stored t is the image of the box, and over all stored times the
    # images of [-0.5, 0.5] at t = 0 and t = 0.4 leave [-0.5 + 0.8, 0.5]
    fan = ch.integrate_fan(BURGERS, "2*x", np.linspace(-0.5, 0.5, 11),
                           T=0.4, h_t=0.1, S0_prime="2")
    assert fan.window(0.2) == (fan.x[2, 0], fan.x[2, -1])
    assert np.allclose(fan.window(0.2), (-0.1, 0.9), atol=1e-12)
    assert np.allclose(fan.window(), (0.3, 0.5), atol=1e-12)
    with pytest.raises(ch.CharacteristicsError, match="not on the stored"):
        fan.window(0.25)


def test_focusing_closed_form():
    # S0 = -x^2/2 under P = p^2/2: x = x0(1-t), p = -x0, J = 1-t,
    # S = -x0^2 (1-t)/2, a = 0
    x0 = np.linspace(-2, 2, 41)
    fan = ch.integrate_fan(BURGERS, "-x^2/2", x0, T=0.8, h_t=0.01,
                           S0_prime="-x")
    for i, t in enumerate(fan.times):
        assert np.allclose(fan.x[i], x0 * (1 - t), atol=1e-12)
        assert np.allclose(fan.p[i], -x0, atol=1e-12)
        assert np.allclose(fan.J[i], 1 - t, atol=1e-12)
        assert np.allclose(fan.S[i], -(x0**2) * (1 - t) / 2, atol=1e-12)
        assert np.allclose(fan.a_int[i], 0.0, atol=1e-14)


def test_rarefaction_closed_form():
    x0 = np.linspace(-2, 2, 21)
    fan = ch.integrate_fan(BURGERS, "x^2/2", x0, T=1.0, h_t=0.01,
                           S0_prime="x")
    t = fan.times[-1]
    assert np.allclose(fan.x[-1], x0 * (1 + t), atol=1e-12)
    assert np.allclose(fan.J[-1], 1 + t, atol=1e-12)
    x = fan.x[-1]
    assert np.allclose(fan.S[-1], x**2 / (2 * (1 + t)), atol=1e-12)


def test_jump_symbol_translation():
    # P = e^p - 1 with linear S0 = c x: uniform translation at speed e^c
    m = make_symbol(jumps=[(1.0, "1")])
    c = -0.3
    x0 = np.linspace(-1, 1, 11)
    fan = ch.integrate_fan(m, f"{c}*x", x0, T=0.5, h_t=0.005)
    t = fan.times[-1]
    assert np.allclose(fan.x[-1], x0 + t * np.exp(c), atol=1e-9)
    assert np.allclose(fan.p[-1], c, atol=1e-9)
    assert np.allclose(fan.J[-1], 1.0, atol=1e-9)
    want_S = c * fan.x[-1] - t * (np.exp(c) - 1.0)
    assert np.allclose(fan.S[-1], want_S, atol=1e-9)


def test_numeric_initial_momenta_match_exact():
    # no S0_prime provided: exact symbolic derivatives give S0' and S0''
    x0 = np.linspace(-1.5, 1.5, 31)
    fan = ch.integrate_fan(BURGERS, "log(sech(x))", x0, T=0.5, h_t=0.01)
    assert np.allclose(fan.p[0], -np.tanh(x0), rtol=0, atol=1e-15)
    assert np.allclose(fan.dp[0], -1.0 / np.cosh(x0) ** 2, rtol=0, atol=1e-15)
    # a given S0' still has its S0'' from the exact derivative
    given = ch.integrate_fan(BURGERS, "log(sech(x))", x0, T=0.5, h_t=0.01,
                             S0_prime="-tanh(x)")
    assert np.allclose(given.dp[0], -1.0 / np.cosh(x0) ** 2, rtol=0,
                       atol=1e-15)
    assert np.allclose(fan.x[-1], given.x[-1], atol=1e-12)
    assert np.allclose(fan.J[-1], given.J[-1], atol=1e-12)


def test_auto_a_field_for_x_dependent_diffusion():
    # P = A(x) p^2 with A = (1+0.5 sin x)/2: a = -dA/dx * 2p = -cos(x) p
    m = make_symbol(A="0.5*(1+0.5*sin(x))")
    x0 = np.array([0.4])
    fan = ch.integrate_fan(m, "0.3*x", x0, T=0.2, h_t=0.002,
                           S0_prime="0.3")
    # integrate the closed-form coefficient along the computed path
    ts = fan.times
    vals = -0.5 * np.cos(fan.x[:, 0]) * fan.p[:, 0]
    ref = np.trapezoid(vals, ts)
    assert abs(fan.a_int[-1, 0] - ref) < 1e-6


def test_jacobian_check_linear_flow_exact():
    x0 = np.linspace(-2, 2, 41)
    fan = ch.integrate_fan(BURGERS, "-x^2/2", x0, T=0.9, h_t=0.01,
                           S0_prime="-x")
    assert ch.jacobian_check(fan) < 1e-11


def test_jacobian_check_needs_rows():
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.array([0.0, 0.5]), T=0.1, h_t=0.01)
    with pytest.raises(ch.CharacteristicsError):
        ch.jacobian_check(fan)


def test_step_doubling_rejects_coarse_step():
    stiff = make_symbol(A="0.5", V="20*cos(10*x)")
    msg = "local error 5.455e+00 exceeds 1.0e-08 at t=0; reduce h_t"
    with pytest.raises(ch.StepSizeError, match=re.escape(msg)):
        ch.integrate_fan(stiff, "-x^2/2", np.linspace(-1, 1, 5), T=1.0, h_t=0.25)


def _old_rk4_step(rhs, y, h):
    # the step before the state became one array, on {field: row} dicts
    def f_of(y):
        return dict(zip(ch._FIELDS, rhs(np.stack([y[f] for f in ch._FIELDS]))))

    k1 = f_of(y)
    y2 = {f: y[f] + 0.5 * h * k1[f] for f in y}
    k2 = f_of(y2)
    y3 = {f: y[f] + 0.5 * h * k2[f] for f in y}
    k3 = f_of(y3)
    y4 = {f: y[f] + h * k3[f] for f in y}
    k4 = f_of(y4)
    return {f: y[f] + (h / 6.0) * (k1[f] + 2 * k2[f] + 2 * k3[f] + k4[f])
            for f in y}


def test_monitored_step_is_full_half_half_in_8_rhs_calls():
    # x-dependent diffusion, potential and jump rate: every RHS term is live
    m = make_symbol(A="0.3*(1+0.2*sin(x))", V="0.5*x^2",
                    jumps=[(1.0, "1+0.5*cos(x)"), (-0.5, "0.7")])
    fan = ch.integrate_fan(m, "log(sech(x))", np.linspace(-1.5, 1.5, 13),
                           T=0.1, h_t=0.01)
    y = np.stack([getattr(fan, f)[-1] for f in ch._FIELDS])
    h, n = 0.01, y.shape[1]
    calls, base = [], ch.hamiltonian_rhs(m)

    def rhs(y):
        calls.append(y.shape)
        return base(y)

    full = ch.rk4_step(rhs, y, h)
    half = ch.rk4_step(rhs, y, 0.5 * h)
    two = ch.rk4_step(rhs, half, 0.5 * h)
    assert len(calls) == 12
    # the array step does per field what the dict-per-field step did
    old = _old_rk4_step(rhs, dict(zip(ch._FIELDS, y)), h)
    assert np.array_equal(np.stack([old[f] for f in ch._FIELDS]), full)
    # the packed step: full and first half step side by side, one k1
    k1 = rhs(y)
    # the RHS's transport row is damping() to the bit, signed zeros included
    assert k1[5].tobytes() == ch.damping(m, y[0], y[1]).tobytes()
    both = ch.rk4_step(rhs, np.hstack((y, y)), np.repeat((h, 0.5 * h), n),
                       np.hstack((k1, k1)))
    assert np.array_equal(both, np.hstack((full, half)))
    calls.clear()
    out = ch.monitored_step(rhs, 0.1, y, h)
    assert np.array_equal(out, two)
    assert calls == [(6, n)] + [(6, 2 * n)] * 3 + [(6, n)] * 4
    assert not np.array_equal(full, two)  # the error estimate is not void


def _six_call_rhs(m):
    # the RHS before the one pass: six symbol calls, each evaluating its
    # coefficient fields, guarding p and forming exp(p*nu) again
    def rhs(y):
        x, p, _, J, dp, _ = y
        Pp = symbol.eval_dP_dp(m, x, p)
        Px = symbol.eval_dP_dx(m, x, p)
        Ppp = symbol.eval_hess(m, x, p)
        Pxp = symbol.eval_d2P_dxdp(m, x, p)
        Pxx = symbol.eval_d2P_dx2(m, x, p)
        P = symbol.eval_P(m, x, p)
        return np.array((Pp, -Px, p * Pp - P, Pxp * J + Ppp * dp,
                         -Pxx * J - Pxp * dp, -Pxp + np.zeros_like(x)))

    return rhs


def _alloc_rk4_step(rhs, y, h, k1=None):
    # the RK4 step before its work arrays: every stage a new array
    if k1 is None:
        k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _alloc_monitored_step(rhs, t, y, h):
    n = y.shape[1]
    k1 = rhs(y)
    both = _alloc_rk4_step(rhs, np.hstack((y, y)),
                           np.repeat((h, 0.5 * h), n), np.hstack((k1, k1)))
    two = _alloc_rk4_step(rhs, both[:, n:], 0.5 * h)
    dev = np.max(np.abs(both[:, :n] - two) / (1.0 + np.abs(two)), axis=1)
    err = max([0.0] + dev.tolist())
    if err > ch.STEP_TOL:
        raise ch.StepSizeError(f"local error {err:.3e} exceeds "
                               f"{ch.STEP_TOL:.1e} at t={t:.6g}; reduce h_t")
    return two


def _alloc_fan_states(m, S0, x0, T, h):
    # the state after every step, from the six-call RHS and the allocating
    # step; a failing step ends the list with its exception
    S0 = expr.parse(S0)
    dS0 = expr.diff(S0)
    y = np.stack((x0, expr.evaluate_at(dS0, x0), expr.evaluate_at(S0, x0),
                  np.ones_like(x0), expr.evaluate_at(expr.diff(dS0), x0),
                  np.zeros_like(x0)))
    states, rhs = [y], _six_call_rhs(m)
    for k in range(int(round(T / h))):
        try:
            states.append(_alloc_monitored_step(rhs, k * h, states[-1], h))
        except ValueError as ex:
            return states + [ex]
    return states


_ONE_PASS_SYMBOLS = {
    "x-dependent A": ("0.3*(1+0.2*sin(x))", "0", ()),
    "potential": ("0.5", "0.5*x^2", ()),
    "two jumps": ("0.2", "0.1*cos(x)", ((1.0, "1+0.5*cos(x)"), (-0.5, "0.7"))),
    "zero potential": ("0.5", "0*x^2", ()),
}


@pytest.mark.parametrize("kind", list(_ONE_PASS_SYMBOLS))
def test_one_pass_rhs_is_the_six_call_rhs(monkeypatch, kind):
    A, V, jumps = _ONE_PASS_SYMBOLS[kind]
    m = make_symbol(A=A, V=V, jumps=jumps)
    rng = np.random.default_rng(7)
    n = 64
    y = rng.uniform(-2.0, 2.0, size=(6, n))
    y[1, :4] = (0.0, -0.0, 0.0, -0.0)  # p on both signed zeros
    y[3, 4:8] = -0.0
    y[4, 8:12] = 0.0
    want = _six_call_rhs(m)(y)
    evaluated, exps = [], []
    evaluate, exp = expr.evaluate, np.exp

    def counted_evaluate(e, x=None):
        evaluated.append(e.source)
        return evaluate(e, x=x)

    def counted_exp(a):
        exps.append(a.shape)
        return exp(a)

    monkeypatch.setattr(expr, "evaluate", counted_evaluate)
    monkeypatch.setattr(np, "exp", counted_exp)
    got = ch.hamiltonian_rhs(m)(y)
    monkeypatch.undo()
    for f, w, g in zip(ch._FIELDS, want, got):
        assert g.tobytes() == w.tobytes(), f
    # each field, d/dx and d2/dx2 evaluated at most once, one exp per jump
    assert evaluated and max(evaluated.count(s) for s in evaluated) == 1
    assert exps == [(n,)] * len(jumps)


@pytest.mark.parametrize("m, S0, x0, T, h, error", [
    # A's log is not finite once a characteristic crosses x = 0
    (make_symbol(A="0.5 + 0*log(x)"), "-x", np.linspace(0.1, 0.5, 9), 0.5,
     0.01, "non-finite value from log()"),
    # a rate's log fails before V's power: rates come first in the RHS
    (make_symbol(A="0.5", V="0.5*x^2 + 0*x^0.5",
                 jumps=[(1.0, "0.3 + 0*log(x)")]),
     "-x", np.linspace(0.1, 0.5, 9), 0.5, 0.01, "non-finite value from log()"),
    # p driven past the exp guard, on the first jump and on the second
    (make_symbol(A="0.5", V="-10*x", jumps=[(1.0, "0.5")]), "699.5*x",
     np.linspace(-0.5, 0.5, 9), 0.1, 1e-3, "for nu=1"),
    (make_symbol(A="0.5", V="10*x", jumps=[(1.0, "0.5"), (-2.0, "0.2")]),
     "-349.75*x", np.linspace(-0.5, 0.5, 9), 0.1, 1e-3, "for nu=-2"),
])
def test_failing_fan_raises_the_six_call_error_at_its_step(monkeypatch, m, S0,
                                                           x0, T, h, error):
    # the one pass evaluates the fields in the order the six calls first
    # reached them, so a fan fails with the same error at the same step
    *states, want = _alloc_fan_states(m, S0, x0, T, h)
    assert isinstance(want, (expr.EvalDomainError, symbol.RangeError))
    assert error in str(want) and 1 < len(states) < round(T / h)
    steps = []
    step = ch.monitored_step

    def counted_step(rhs, t, y, h):
        steps.append(y)
        return step(rhs, t, y, h)

    monkeypatch.setattr(ch, "monitored_step", counted_step)
    with pytest.raises(type(want)) as got:
        ch.integrate_fan(m, S0, x0, T=T, h_t=h)
    assert str(got.value) == str(want)
    assert len(steps) == len(states)
    assert steps[-1].tobytes() == states[-1].tobytes()


def test_step_work_arrays_never_leak_into_states():
    # x-dependent diffusion, potential and jump rate: every RHS term is live
    m = make_symbol(A="0.3*(1+0.2*sin(x))", V="0.5*x^2",
                    jumps=[(1.0, "1+0.5*cos(x)"), (-0.5, "0.7")])
    x0, T, h = np.linspace(-1.5, 1.5, 41), 0.2, 0.01
    want = _alloc_fan_states(m, "log(sech(x))", x0, T, h)
    # every returned state kept: none may be a work array a later step
    # overwrites
    rhs, states = ch.hamiltonian_rhs(m), [want[0]]
    for k in range(len(want) - 1):
        states.append(ch.monitored_step(rhs, k * h, states[-1], h))
    for w, g in zip(want, states):
        assert g.tobytes() == w.tobytes()
    fan = ch.integrate_fan(m, "log(sech(x))", x0, T=T, h_t=h, store_every=1)
    for i, f in enumerate(ch._FIELDS):
        assert getattr(fan, f).tobytes() \
            == np.stack([w[i] for w in want]).tobytes(), f

    # fans of another width and of the same width integrated between two
    # steps of the first leave all three as they are alone
    def run(x0, on_store=None):
        return ch.integrate_fan(m, "log(sech(x))", x0, T=T, h_t=h,
                                store_every=2, on_store=on_store)

    inner = []

    def nested(i):
        if i == 3:
            inner.extend((run(np.linspace(-1.0, 1.0, 17)), run(x0)))

    outer = run(x0, nested)
    for got, alone in zip((outer, *inner),
                          (run(x0), run(np.linspace(-1.0, 1.0, 17)), run(x0))):
        for f in ch._FIELDS:
            assert getattr(got, f).tobytes() == getattr(alone, f).tobytes()


# x-free symbols as (A, V, jumps), each with the field that gets "+ x*0"
_X_FREE = {
    "diffusion": (("0.5", "0", ()), "A"),
    "one jump": (("0", "0", ((1.0, "0.7"),)), "lam"),
    "two jumps": (("0", "0", ((1.0, "0.6"), (-1.0, "0.4"))), "lam"),
    "potential": (("0.5", "0.3", ()), "V"),
}


@pytest.mark.parametrize("S0", ["log(sech(x))", "0.05*log(sech(x/0.05))",
                                "x^2/2", "-0.3*x"])
@pytest.mark.parametrize("kind", list(_X_FREE))
def test_x_free_fan_is_its_x_times_zero_twin(monkeypatch, kind, S0):
    # the x-free symbol takes the constant-increment path, its twin with
    # "+ x*0" in one field the monitored one: the same fan to the bit,
    # signed zeros included, from one RHS call
    (A, V, jumps), twin = _X_FREE[kind]
    free = make_symbol(A=A, V=V, jumps=jumps)
    named = make_symbol(A=A + " + x*0" * (twin == "A"),
                        V=V + " + x*0" * (twin == "V"),
                        jumps=[(nu, lam + " + x*0" * (twin == "lam"))
                               for nu, lam in jumps])
    assert free.spatially_homogeneous and not named.spatially_homogeneous
    x0 = np.linspace(-2.0, 2.0, 101)
    slow = ch.integrate_fan(named, S0, x0, T=0.5, h_t=5e-3, store_every=25)
    calls = []
    make_rhs = ch.hamiltonian_rhs

    def counted_rhs(m):
        rhs = make_rhs(m)

        def counted(y):
            calls.append(y.shape)
            return rhs(y)

        return counted

    monkeypatch.setattr(ch, "hamiltonian_rhs", counted_rhs)
    fast = ch.integrate_fan(free, S0, x0, T=0.5, h_t=5e-3, store_every=25)
    assert calls == [(6, x0.size)]
    for f in ch._FIELDS:
        assert getattr(fast, f).tobytes() == getattr(slow, f).tobytes(), f


def test_dense_output_matches_closed_form():
    x0 = np.linspace(-1, 1, 9)
    fan = ch.integrate_fan(BURGERS, "x^2/2", x0, T=1.0, h_t=0.01,
                           store_every=10, S0_prime="x")
    for t in (0.133, 0.5051, 0.989):
        y = fan.state_at(t)
        assert np.allclose(y["x"], x0 * (1 + t), atol=1e-9)
        assert np.allclose(y["J"], 1 + t, atol=1e-9)
        assert np.allclose(y["S"], x0**2 * (1 + t) / 2, atol=1e-9)


def test_store_every_grid():
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.linspace(-1, 1, 5),
                           T=1.0, h_t=0.001, store_every=100)
    assert fan.times.size == 11
    assert np.isclose(fan.times[1] - fan.times[0], 0.1)
    with pytest.raises(ch.CharacteristicsError):
        ch.integrate_fan(BURGERS, "x^2/2", np.linspace(-1, 1, 5),
                         T=1.0, h_t=0.001, store_every=7)


def test_time_index_lookup():
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.linspace(-1, 1, 5), T=0.5, h_t=0.01)
    assert fan.index_of_time(0.25) == 25
    with pytest.raises(ch.CharacteristicsError):
        fan.index_of_time(0.2531)


def test_integration_deterministic():
    x0 = np.linspace(-1, 1, 21)
    a = ch.integrate_fan(BURGERS, "log(sech(x))", x0, T=0.5, h_t=0.01)
    b = ch.integrate_fan(BURGERS, "log(sech(x))", x0, T=0.5, h_t=0.01)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.S, b.S)


def test_fan_csv_dump(tmp_path):
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.linspace(-1, 1, 3), T=0.1, h_t=0.05)
    path = tmp_path / "fan.csv"
    ch.fan_to_csv(fan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x,p,S,J,a_int"
    assert len(lines) == 1 + 3 * 3
    val = float(lines[1].split(",")[1])
    assert val == -1.0


@pytest.mark.parametrize("n_t, n", [(3, 4), (1, 4), (3, 1), (1, 1)])
def test_fan_csv_matches_write_csv(tmp_path, n_t, n):
    # signed zeros, exponent forms and integer-valued floats in every column
    x0 = np.array([-1.5, -0.0, 1e-5, 7.0])[:n]
    times = np.array([-0.0, 1e-5, 2.0])[:n_t]
    pool = np.array([-0.0, 0.0, 1e-5, 1e17, -3.0, 2.0, 0.1, -1 / 3, 6e-300])
    cols = {f: np.resize(np.roll(pool, -2 * k), (n_t, n))
            for k, f in enumerate(ch._FIELDS)}
    fan = ch.Fan(symbol=None, x0=x0, times=times, h_t=0.5, **cols)
    ch.fan_to_csv(fan, tmp_path / "fan.csv")
    rows = [(t, x0[j]) + tuple(cols[f][i, j]
                               for f in ("x", "p", "S", "J", "a_int"))
            for i, t in enumerate(times) for j in range(n)]
    write_csv(tmp_path / "ref.csv", ("t", "x0", "x", "p", "S", "J", "a_int"),
              rows)
    got = (tmp_path / "fan.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    # the streamed writer of evolve writes each stored time as its byte
    # arrives; a pipe that ends early leaves the earlier file as it was
    for told in (n_t, n_t - 1):
        r, w = os.pipe()
        os.write(w, b"\1" * told)
        os.close(w)
        with open(r, "rb"), (pytest.raises(EOFError) if told < n_t
                             else contextlib.nullcontext()):
            ch.fan_to_csv(fan, tmp_path / "streamed.csv",
                          cli._stored_indices(r, n_t))
        assert (tmp_path / "streamed.csv").read_bytes() == got
        assert sorted(os.listdir(tmp_path)) == ["fan.csv", "ref.csv",
                                                "streamed.csv"]
    assert got.splitlines()[1] == (
        b"-0,-1.5,-0,1.0000000000000001e-05,-3,0.10000000000000001,0")
    assert (b"1e+17" in got) == (n_t * n > 1)


def _old_state_at_blend(s, h, ya, yb, fa, fb):
    # the formula Fan.state_at used before the shared helper
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (h00 * ya + h10 * h * fa + h01 * yb + h11 * h * fb)


def _old_cross_times_blend(tm, t0, h, Ja, Jb, fa, fb):
    # the formula manifold._cross_times_rows used before the shared helper
    s = (tm - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * Ja + h10 * h * fa + h01 * Jb + h11 * h * fb


def test_cubic_hermite_matches_old_formulas():
    rng = np.random.default_rng(11)
    ya, yb, fa, fb = rng.normal(size=(4, 257))
    t0, h = 0.3125, 2.5e-3
    for s in (0.0, 1e-3, 0.25, 0.5, 0.7, 1.0):
        assert np.array_equal(ch._cubic_hermite(s, h, ya, yb, fa, fb),
                              _old_state_at_blend(s, h, ya, yb, fa, fb))
    # per-row fractions, as in the bisection of J(t) = 0
    tm = t0 + h * rng.uniform(size=257)
    new = ch._cubic_hermite((tm - t0) / h, h, ya, yb, fa, fb)
    assert np.array_equal(new, _old_cross_times_blend(tm, t0, h, ya, yb,
                                                      fa, fb))


def test_dense_output_uses_stored_nodes():
    fan = ch.integrate_fan(BURGERS, "log(sech(x))", np.linspace(-2, 2, 81),
                           T=0.5, h_t=0.01, store_every=5)
    k = 3
    ya = {f: getattr(fan, f)[k] for f in ch._FIELDS}
    yb = {f: getattr(fan, f)[k + 1] for f in ch._FIELDS}
    fa, fb = fan.node_rhs(k), fan.node_rhs(k + 1)
    ta, tb = fan.times[k], fan.times[k + 1]
    t = ta + 0.37 * (tb - ta)
    st = fan.state_at(t)
    for f in ch._FIELDS:
        old = _old_state_at_blend((t - ta) / (tb - ta), tb - ta, ya[f], yb[f],
                                  fa[f], fb[f])
        assert np.array_equal(st[f], old)
