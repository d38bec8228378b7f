import numpy as np
import pytest

from tunnelshock import characteristics as ch
from tunnelshock.symbol import make_symbol


BURGERS = make_symbol(A="0.5")


def test_focusing_closed_form():
    # S0 = -x^2/2 under P = p^2/2: x = x0(1-t), p = -x0, J = 1-t,
    # S = -x0^2 (1-t)/2, a = 0
    x0 = np.linspace(-2, 2, 41)
    fan = ch.integrate_fan(BURGERS, "-x^2/2", x0, T=0.8, h_t=0.01,
                           S0_prime="-x", S0_second="-1")
    for i, t in enumerate(fan.times):
        assert np.allclose(fan.x[i], x0 * (1 - t), atol=1e-12)
        assert np.allclose(fan.p[i], -x0, atol=1e-12)
        assert np.allclose(fan.J[i], 1 - t, atol=1e-12)
        assert np.allclose(fan.S[i], -(x0**2) * (1 - t) / 2, atol=1e-12)
        assert np.allclose(fan.a_int[i], 0.0, atol=1e-14)


def test_rarefaction_closed_form():
    x0 = np.linspace(-2, 2, 21)
    fan = ch.integrate_fan(BURGERS, "x^2/2", x0, T=1.0, h_t=0.01,
                           S0_prime="x", S0_second="1")
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
    # no S0_prime/S0_second provided: exact symbolic derivatives supply them
    x0 = np.linspace(-1.5, 1.5, 31)
    fan = ch.integrate_fan(BURGERS, "log(sech(x))", x0, T=0.5, h_t=0.01)
    assert np.allclose(fan.p[0], -np.tanh(x0), atol=1e-9)
    fan_exact = ch.integrate_fan(BURGERS, "log(sech(x))", x0, T=0.5, h_t=0.01,
                                 S0_prime="-tanh(x)", S0_second="-sech(x)^2")
    assert np.allclose(fan.x[-1], fan_exact.x[-1], atol=1e-7)
    assert np.allclose(fan.J[-1], fan_exact.J[-1], atol=1e-6)


def test_explicit_a_field_accumulates():
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.linspace(-1, 1, 5),
                           T=0.75, h_t=0.01, a_mode="x*0+1")
    assert np.allclose(fan.a_int[-1], 0.75, atol=1e-12)


def test_auto_a_field_for_x_dependent_diffusion():
    # P = A(x) p^2 with A = (1+0.5 sin x)/2: a = -dA/dx * 2p = -cos(x) p
    m = make_symbol(A="0.5*(1+0.5*sin(x))")
    x0 = np.array([0.4])
    fan = ch.integrate_fan(m, "0.3*x", x0, T=0.2, h_t=0.002,
                           S0_prime="0.3", S0_second="0")
    # integrate the closed-form coefficient along the computed path
    ts = fan.times
    vals = -0.5 * np.cos(fan.x[:, 0]) * fan.p[:, 0]
    ref = np.trapezoid(vals, ts)
    assert abs(fan.a_int[-1, 0] - ref) < 1e-6


def test_jacobian_check_linear_flow_exact():
    x0 = np.linspace(-2, 2, 41)
    fan = ch.integrate_fan(BURGERS, "-x^2/2", x0, T=0.9, h_t=0.01,
                           S0_prime="-x", S0_second="-1")
    assert ch.jacobian_check(fan) < 1e-11


def test_jacobian_check_needs_rows():
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.array([0.0, 0.5]), T=0.1, h_t=0.01)
    with pytest.raises(ch.CharacteristicsError):
        ch.jacobian_check(fan)


def test_step_doubling_rejects_coarse_step():
    stiff = make_symbol(A="0.5", V="20*cos(10*x)")
    with pytest.raises(ch.StepSizeError):
        ch.integrate_fan(stiff, "-x^2/2", np.linspace(-1, 1, 5), T=1.0, h_t=0.25)


def test_working_box_escape_freezes_rows():
    fan = ch.integrate_fan(BURGERS, "x^2/2", np.linspace(-3, 3, 7), T=1.0,
                           h_t=0.01, working_box=(-4.0, 4.0))
    # outermost rarefaction rows leave |x|<4 before t=1 (x = x0(1+t))
    assert np.isfinite(fan.escape_time[0]) and np.isfinite(fan.escape_time[-1])
    assert not np.isfinite(fan.escape_time[3])
    i_esc = np.searchsorted(fan.times, fan.escape_time[-1])
    # frozen afterwards
    assert fan.x[-1, -1] == fan.x[i_esc, -1]
    assert abs(fan.x[-1, -1]) <= 4.0 + 0.05


def test_dense_output_matches_closed_form():
    x0 = np.linspace(-1, 1, 9)
    fan = ch.integrate_fan(BURGERS, "x^2/2", x0, T=1.0, h_t=0.01,
                           store_every=10, S0_prime="x", S0_second="1")
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
