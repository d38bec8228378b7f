import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tunnelshock
from tunnelshock import characteristics, density, expr, manifold, symbol, verify


@pytest.fixture(scope="module")
def burgers():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="module")
def rarefaction_damped():
    # P = e^x (e^p - 1) with p = 0: x' = e^x, so e^(-x) = e^(-x0) - t and
    # J = 1/(1 - t e^x0); the damping a = -e^x integrates to
    # a_int = log(1 - t e^x0), so R = rho0(x0) and rho0 = e^(-x) gives
    # R(x, t) = e^(-x) + t
    m = symbol.make_symbol(jumps=((1.0, "exp(x)"),))
    x0 = np.linspace(-3.0, -0.5, 401)
    return characteristics.integrate_fan(m, "x*0", x0, T=0.5, h_t=0.005)


def test_transport_rows_closed_form(rarefaction_damped):
    fan = rarefaction_damped
    t = fan.times[:, None]
    assert np.all(fan.p == 0.0)
    np.testing.assert_allclose(fan.a_int, np.log(1.0 - t * np.exp(fan.x0)),
                               rtol=0, atol=1e-12)
    # the regular density at the stored rows of the last slice
    R = density.build_density(fan, rho0="exp(0-x)").regular(0.5, fan.x[-1])
    np.testing.assert_allclose(R, np.exp(-fan.x[-1]) + 0.5, rtol=1e-12)


def test_regular_eval_closed_form(rarefaction_damped):
    gd = density.build_density(rarefaction_damped, rho0="exp(-x^2)")
    xs = np.array([-2.5, -1.6, -0.9, -0.4])
    R = gd.regular(0.5, xs)
    # labels invert as x0 = -log(e^(-x) + t), and R = rho0(x0)
    x0 = -np.log(np.exp(-xs) + 0.5)
    assert np.allclose(R, np.exp(-x0 ** 2), rtol=1e-7)


def test_fold_contact_raises(burgers):
    x0 = np.linspace(-1.0, 1.0, 41)
    fan = characteristics.integrate_fan(
        burgers, "0-x^2/2", x0, T=1.0, h_t=0.01,
        S0_prime="0-x")
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


def _old_extended_path(gd, rec):
    """The whole-life path verify's line term read before shock records
    knew their own ends, kept as the reference for `ShockRecord.knots`."""
    by_id = {r.id: r for r in gd.shocks}
    rows = [(rec.times, rec.x_s, rec.c, rec.e, rec.p_l, rec.p_r)]
    if rec.t_birth < float(rec.times[0]) - 1e-15:
        e0 = sum(by_id[i].e_end for i in rec.parents) if rec.parents else 0.0
        rows.insert(0, (rec.t_birth, rec.x_birth, rec.c[0], e0,
                        rec.p_l[0], rec.p_r[0]))
    if rec.merged_into >= 0 and rec.t_end > float(rec.times[-1]) + 1e-15:
        rows.append((rec.t_end, by_id[rec.merged_into].x_birth, rec.c[-1],
                     rec.e_end, rec.p_l[-1], rec.p_r[-1]))
    return {k: np.concatenate([np.atleast_1d(np.asarray(r[i], dtype=float))
                               for r in rows])
            for i, k in enumerate(("t", "x_s", "c", "e", "p_l", "p_r"))}


@pytest.mark.parametrize("gd_name", ["riemann_gd", "kirchhoff_gd"])
def test_shock_life_from_birth_to_handoff(gd_name, request):
    gd = request.getfixturevalue(gd_name)
    by_id = {rec.id: rec for rec in gd.shocks}
    for rec in gd.shocks:
        # born at the fold with no mass, or at a merge with the parents' sum;
        # a birth within 1e-15 of the first sample is that sample
        born = rec.at(rec.t_birth)
        first = (rec.x_birth, rec.e_birth) if rec.life[0] < rec.times[0] \
            else (rec.x_s[0], rec.e[0])
        assert (born["x_s"], born["e"]) == first
        assert rec.e_birth == sum(by_id[i].e_end for i in rec.parents)
        if rec.merged_into >= 0:  # handed off at the child's birth point
            end = rec.at(rec.t_end)
            assert rec.t_end == by_id[rec.merged_into].t_birth
            assert (end["x_s"], end["e"]) == (by_id[rec.merged_into].x_birth,
                                              rec.e_end)
        # a query inside the liveness tolerance before birth holds e = 0
        assert all(e >= 0 for _, e in gd.shock_masses(rec.t_birth - 5e-13))
        ref = _old_extended_path(gd, rec)
        knots = rec.knots()
        assert set(knots) == set(ref)
        for name in ref:
            np.testing.assert_array_equal(knots[name], ref[name])
        for t in rec.times:
            assert (np.interp(t, ref["t"], ref["x_s"]),
                    np.interp(t, ref["t"], ref["e"])) in gd.shock_masses(t)


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


def test_mass_balance_at_the_fold_instant(tanh_mass_gd):
    # criterion 06's fold instant: J vanishes at label 0, so x(x0) has a
    # cusp at x = 0 that an x-space rule on the interpolant cannot
    # integrate; the regular mass must still be the integral of
    # rho0*exp(-a_int) over the labels no shock has absorbed (all of them,
    # the shock is just born)
    gd = tanh_mass_gd
    assert abs(gd.shocks[0].t_birth - 1.0) < 1e-9
    fan = gd.fan
    i = fan.index_of_time(1.0)
    assert np.min(np.abs(fan.J[i])) < density.J_CONTACT_TOL
    reg, shock, init, _ = density.mass_balance(gd, 1.0)
    assert abs(shock) < 1e-12
    label = np.trapezoid(np.exp(-fan.a_int[i]), fan.x0)  # rho0 = 1
    assert abs(reg - label) <= 1e-6 * init


def test_cusp_zone_density_matches_label_mass(tanh_mass_gd):
    # at the fold instant x(x0) has a cusp at label 0, where J ~ x0^2, and
    # no field is smooth in x there; the density in x must still carry each
    # row interval's label mass in the 2nd to 6th row intervals either side
    gd = tanh_mass_gd
    fan = gd.fan
    i = fan.index_of_time(1.0)
    c = int(np.argmin(np.abs(fan.J[i])))
    assert abs(fan.J[i, c]) < density.J_CONTACT_TOL
    assert np.all(fan.a_int == 0.0)  # no damping: the label mass is the width
    u, w = np.polynomial.legendre.leggauss(8)
    for d in range(2, 7):
        for r in (c + d - 1, c - d):
            xa, xb = fan.x[i, r], fan.x[i, r + 1]
            R = gd.fields(1.0, 0.5 * (xa + xb) + 0.5 * (xb - xa) * u)["R"]
            width = fan.x0[r + 1] - fan.x0[r]
            mass = 0.5 * (xb - xa) * np.sum(R * w)
            assert abs(mass - width) <= 1e-5 * width


def test_mass_balance_flags_inconsistent_jacobian(tanh_mass_gd):
    # J scaled at one stored time: the x-space density drops by 1% while
    # the label-space mass does not see J, so the two disagree
    gd = tanh_mass_gd
    J = gd.fan.J.copy()
    J[gd.fan.index_of_time(1.5)] *= 1.01
    bad = dataclasses.replace(gd, fan=dataclasses.replace(gd.fan, J=J))
    with pytest.raises(density.DensityError, match="x-space.*label-space"):
        density.mass_balance(bad, 1.5)
    assert density.mass_balance(bad, 3.0)[3] < 1e-5


def test_mass_balance_matches_knotwise_quad():
    # x-dependent diffusion damps each label differently (a_int spans 0.77
    # at t = 0.5), and nothing folds: the fixed rule must reproduce an
    # adaptive quadrature of the same density run knot interval by knot
    # interval (one over the whole window stalls at 1e-8 on the knot kinks)
    from scipy.integrate import quad
    m = symbol.make_symbol(A="0.5*(1+0.5*sin(x))")
    fan = characteristics.integrate_fan(
        m, "x^2/2", np.linspace(-2.0, 2.0, 201), T=0.5, h_t=0.01,
        store_every=25)
    gd = density.build_density(fan, rho0="exp(0-x^2)")
    assert not gd.shocks and np.ptp(fan.a_int[-1]) > 0.5
    knots = fan.x[-1]
    ref = sum(quad(lambda s: float(gd.regular(0.5, s)[0]), a, b,
                   epsabs=1e-15, epsrel=1e-13)[0]
              for a, b in zip(knots[:-1], knots[1:]))
    reg, shock, init, _ = density.mass_balance(gd, 0.5)
    assert shock == 0
    assert abs(reg - ref) < 1e-12 * init


def _fresh_import_check(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        tunnelshock.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_integrate_out():
    # cli imports the whole pipeline
    _fresh_import_check("import tunnelshock.cli, sys; "
                        "assert 'scipy.integrate' not in sys.modules")


def test_expression_layer_imports_no_scipy():
    # the package imports no submodule, so expr and symbol come alone
    _fresh_import_check(
        "import sys; from tunnelshock import expr, symbol; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")


def test_pipeline_runs_without_scipy(tmp_path):
    # a fresh interpreter where importing scipy fails runs evolve, the
    # whole slice/density pipeline, and loads no scipy module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from tunnelshock import cli\n"
        "code = cli.main(['evolve', '--scenario', sys.argv[1], "
        "'--out', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "assert not [m for m, v in sys.modules.items() "
        "if m.split('.')[0] == 'scipy' and v is not None]\n")
    _fresh_import_check(
        code, os.path.join(root, "scenarios", "steep_front.ini"),
        str(tmp_path))
    assert (tmp_path / "density.csv").is_file()


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


def test_merge_on_a_stored_time_counts_once(kirchhoff_gd):
    # the child is born on the stored time t = 1.0, where both parents
    # hand off: only the child's mass counts there, so the balance closes
    gd = kirchhoff_gd
    child = next(r for r in gd.shocks if r.parents)
    assert child.t_birth == 1.0
    vals = child.at(1.0)
    assert gd.shock_masses(1.0) == [(vals["x_s"], vals["e"])]
    assert density.mass_balance(gd, 1.0)[3] <= 1e-9


def test_transport_pde_residual(rarefaction_damped):
    # independent route: the constructed density satisfies the damped
    # conservation law R_t + (R u)_x + a R = 0, a = -e^x, in the smooth
    # region, checked by centered differences
    gd = density.build_density(rarefaction_damped, rho0="exp(0-x)")
    t0, dx, dt = 0.25, 1e-3, 1e-3
    xs = np.array([-2.5, -1.6, -0.9, -0.4])

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
    resid = dR_dt + dflux - np.exp(xs) * R0
    assert np.max(np.abs(resid)) < 1e-5


def _old_friction_at_shock(fan, x_s, p_l, p_r):
    # the damping term of point masses before it reused the bulk one; its
    # callers added np.zeros_like(x_s)
    p_bar = 0.5 * (np.asarray(p_l) + np.asarray(p_r))
    return -symbol.eval_d2P_dxdp(fan.symbol, x_s, p_bar) + 0.0 * p_bar


_FRICTION_SYMBOLS = {
    # flat coefficients: the symbol has no damping, so the term is all zeros
    None: dict(A="0.5", jumps=((1.0, "0.2"),)),
    # x-dependent diffusion plus a jump, so the damping is nonzero
    "auto": dict(A="0.5*(1+0.5*sin(x))", jumps=((1.0, "0.2*exp(0-x^2)"),)),
}


@pytest.mark.parametrize("damping", list(_FRICTION_SYMBOLS))
def test_friction_matches_old_formula(damping):
    m = symbol.make_symbol(**_FRICTION_SYMBOLS[damping])
    fan = characteristics.integrate_fan(
        m, "0-x^2/2", np.linspace(-1.0, 1.0, 11), T=0.1, h_t=0.01,
        S0_prime="0-x")
    rng = np.random.default_rng(5)
    x_s = np.concatenate([rng.uniform(-1, 1, 40), [0.0, -0.0]])
    p_l = np.concatenate([rng.uniform(-1, 1, 40), [0.0, 0.0]])
    p_r = np.concatenate([rng.uniform(-1, 1, 40), [0.0, -0.0]])
    new = density._friction_at_shock(fan, x_s, p_l, p_r)
    old = _old_friction_at_shock(fan, x_s, p_l, p_r) + np.zeros_like(x_s)
    assert new.shape == x_s.shape
    assert np.any(new != 0.0) == (damping is not None)
    # bit for bit, signs of zeros included
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def test_fan_working_set_stays_bounded(riemann_gd):
    # a copy of riemann_gd's fan, its arrays allocated under tracemalloc and
    # its caches empty: tracking its shocks keeps about the fan's own bytes
    # live (the uncapped slice cache took 2.6 times as much again), and
    # neither that walk nor an identity suite outgrows the caches' caps
    tracemalloc.start()
    try:
        fan = dataclasses.replace(riemann_gd.fan, **{
            f: getattr(riemann_gd.fan, f).copy()
            for f in characteristics._FIELDS})
        fan_bytes = sum(getattr(fan, f).nbytes
                        for f in characteristics._FIELDS)
        gd = density.build_density(fan, rho0="1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - fan_bytes < 0.5 * fan_bytes
    assert len(fan._slice_cache) == manifold.SLICES_KEPT
    assert len(gd.shocks) == len(riemann_gd.shocks)
    verify.identity_suite(gd, count=2, seed=1, threads=1)
    assert len(fan._slice_cache) == manifold.SLICES_KEPT
    assert len(fan._node_rhs_cache) == characteristics.NODE_RHS_KEPT
