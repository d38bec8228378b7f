import dataclasses

import numpy as np
import pytest

from tunnelshock import characteristics, density, expr, manifold, symbol


@pytest.fixture(scope="module")
def burgers():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="module")
def rarefaction_damped(burgers):
    # v0 = x expands, unit friction damps: R = exp(-t) / (1 + t)
    x0 = np.linspace(-2.0, 2.0, 401)
    return characteristics.integrate_fan(
        burgers, "x^2/2", x0, T=1.0, h_t=0.01, a_mode="x*0+1",
        S0_prime="x", S0_second="x*0+1")


def test_transport_rows_closed_form(rarefaction_damped):
    R = density.transport_density(rarefaction_damped, rho0="1")
    t = rarefaction_damped.times
    expect = np.exp(-t) / (1.0 + t)
    assert np.allclose(R, expect[:, None], rtol=1e-9)


def test_regular_eval_closed_form(rarefaction_damped):
    gd = density.build_density(rarefaction_damped, rho0="exp(-x^2)")
    xs = np.array([-0.8, -0.1, 0.3, 1.1])
    R = gd.regular(0.5, xs)
    # labels invert as x/(1+t); rho0 rides along, divided by J = 1+t
    x0 = xs / 1.5
    expect = np.exp(-x0 ** 2) * np.exp(-0.5) / 1.5
    assert np.allclose(R, expect, rtol=1e-7)


def test_fold_contact_raises(burgers):
    x0 = np.linspace(-1.0, 1.0, 41)
    fan = characteristics.integrate_fan(
        burgers, "0-x^2/2", x0, T=1.0, h_t=0.01,
        S0_prime="0-x", S0_second="x*0-1")
    gd = density.GeneralizedDensity(fan=fan, rho0=expr.as_expression("1"))
    with pytest.raises(density.DensityError):
        gd.regular(1.0 - 1e-13, np.array([0.0]))
    # skip_folds gives NaN densities there (the whole fan is on the fold)
    # and keeps the other fields; a time off the fold is unaffected
    xs = np.array([-4e-15, 0.0, 4e-15])
    f = gd.fields(1.0 - 1e-13, xs, skip_folds=True)
    assert np.all(np.isnan(f["R"]))
    assert np.all(np.isfinite(f["S"])) and np.all(np.isfinite(f["u"]))
    xs = np.array([-0.25, 0.0, 0.25])
    np.testing.assert_array_equal(gd.fields(0.5, xs, skip_folds=True)["R"],
                                  gd.regular(0.5, xs))


def test_stationary_shock_mass_rate(riemann_gd):
    assert len(riemann_gd.shocks) == 1
    rec = riemann_gd.shocks[0]
    assert abs(rec.t_birth - 0.05) < 2e-3
    assert np.max(np.abs(rec.c)) < 2e-3
    # by t=1 the absorbed-label width approaches 2 and so does the mass
    e_final = rec.e[-1]
    assert abs(e_final - 2.0) < 2e-2
    # one-sided densities settle to the flat initial density
    late = rec.times > 0.5
    assert np.allclose(rec.R_l[late], 1.0, atol=1e-3)
    assert np.allclose(rec.R_r[late], 1.0, atol=1e-3)


def test_amplitude_matches_absorbed_labels(riemann_gd):
    # independent route: for frictionless flat data the point mass equals
    # the initial mass between the one-sided pre-images
    rec = riemann_gd.shocks[0]
    sel = rec.times > 0.2
    width = rec.x0_r[sel] - rec.x0_l[sel]
    assert np.max(np.abs(rec.e[sel] - width)) < 2e-3


def test_shock_masses_listing(riemann_gd):
    masses = riemann_gd.shock_masses(0.5)
    assert len(masses) == 1
    x_s, e = masses[0]
    assert abs(x_s) < 1e-6
    assert 0 < e < 2
    assert riemann_gd.shock_masses(0.01) == []


def test_mass_balance_tanh(tanh_mass_gd):
    gd = tanh_mass_gd
    for t in (0.5, 1.5, 3.0):
        reg, shock, init, rel = density.mass_balance(gd, t)
        assert rel < 1e-5, f"t={t}: {rel:.2e}"
    # before the fold all mass is regular, afterwards the shock share grows
    reg0, shock0, _, _ = density.mass_balance(gd, 0.5)
    reg1, shock1, _, _ = density.mass_balance(gd, 3.0)
    assert shock0 == 0.0
    assert shock1 > 1.0
    assert reg1 < reg0


def test_merge_adds_amplitudes(kirchhoff_gd):
    gd = kirchhoff_gd
    child = next(r for r in gd.shocks if r.parents)
    pa, pb = (next(r for r in gd.shocks if r.id == i) for i in child.parents)
    # additivity at the handoff instant
    seed = density.merge_amplitude(pa, pb)
    assert abs(child.e[0] - seed) < 1e-6 * (1 + seed)
    assert abs(seed - (pa.e_end + pb.e_end)) == 0.0
    # each parent has eaten close to its incoming stream by then
    assert abs(pa.e_end - 2.0) < 0.05
    assert abs(pb.e_end - 2.0) < 0.05
    # afterwards the 2/-2 jump swallows both far streams: rate close to 4
    k1 = np.searchsorted(child.times, 1.1)
    k2 = np.searchsorted(child.times, 1.3)
    rate = (child.e[k2] - child.e[k1]) / (child.times[k2] - child.times[k1])
    assert abs(rate - 4.0) < 4e-2


def test_transport_pde_residual(rarefaction_damped):
    # independent route: the constructed density satisfies the conservation
    # law in the smooth region, checked by centered differences
    gd = density.build_density(rarefaction_damped, rho0="1")
    m = rarefaction_damped.symbol
    t0, dx, dt = 0.5, 1e-3, 1e-3
    xs = np.array([-0.7, -0.2, 0.4, 0.9])

    def uR(t, x):
        curve = gd.curve_at(t)
        ess = manifold.essential(curve, x)
        return gd.regular(t, x), ess.u

    R_p, _ = uR(t0 + dt, xs)
    R_m, _ = uR(t0 - dt, xs)
    dR_dt = (R_p - R_m) / (2 * dt)
    R_xp, u_xp = uR(t0, xs + dx)
    R_xm, u_xm = uR(t0, xs - dx)
    dflux = (R_xp * u_xp - R_xm * u_xm) / (2 * dx)
    R0, _ = uR(t0, xs)
    resid = dR_dt + dflux + 1.0 * R0
    assert np.max(np.abs(resid)) < 1e-5


def _old_friction_at_shock(fan, x_s, p_l, p_r, c):
    # the damping term of point masses before it reused the bulk one; its
    # callers added np.zeros_like(x_s)
    a_mode = fan.a_mode
    if a_mode == "auto":
        p_bar = 0.5 * (np.asarray(p_l) + np.asarray(p_r))
        return -symbol.eval_d2P_dxdp(fan.symbol, x_s, p_bar) + 0.0 * p_bar
    if isinstance(a_mode, str):
        a_mode = expr.parse(a_mode, allowed_names=("x", "u"))
    return expr.evaluate(a_mode, x=np.asarray(x_s), u=np.asarray(c)) \
        + 0.0 * np.asarray(x_s)


@pytest.mark.parametrize("a_mode", [None, "auto", "x*0+1", "0.3*x - u^2",
                                    "0*x"])
def test_friction_matches_old_formula(a_mode):
    # x-dependent diffusion plus a jump, so auto mode has a nonzero a
    m = symbol.make_symbol(A="0.5*(1+0.5*sin(x))",
                           jumps=((1.0, "0.2*exp(0-x^2)"),))
    fan = characteristics.integrate_fan(
        m, "0-x^2/2", np.linspace(-1.0, 1.0, 11), T=0.1, h_t=0.01,
        S0_prime="0-x", S0_second="x*0-1")
    rng = np.random.default_rng(5)
    x_s = np.concatenate([rng.uniform(-1, 1, 40), [0.0, -0.0]])
    p_l = np.concatenate([rng.uniform(-1, 1, 40), [0.0, 0.0]])
    p_r = np.concatenate([rng.uniform(-1, 1, 40), [0.0, -0.0]])
    c = np.concatenate([rng.uniform(-1, 1, 40), [0.0, -0.0]])
    if a_mode is not None:
        fan = dataclasses.replace(fan, a_mode=a_mode)
    new = density._friction_at_shock(fan, x_s, p_l, p_r, c)
    old = _old_friction_at_shock(fan, x_s, p_l, p_r, c) + np.zeros_like(x_s)
    assert new.shape == x_s.shape
    # bit for bit, signs of zeros included
    assert np.array_equal(new.view(np.int64), old.view(np.int64))
