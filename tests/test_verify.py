import numpy as np
import pytest

from tunnelshock import characteristics, density, manifold, oracle, symbol, verify


@pytest.fixture(scope="module")
def m_burgers():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="module")
def m_jump():
    return symbol.make_symbol(jumps=((1.0, "1"),))


@pytest.fixture(scope="module")
def rarefaction_gd():
    # P = e^x (e^p - 1) with p = 0: an expanding fan damped by a = -e^x,
    # with the exact smooth generalized solution R = e^(-x) + t
    m = symbol.make_symbol(jumps=((1.0, "exp(x)"),))
    fan = characteristics.integrate_fan(
        m, "x*0", np.linspace(-3.0, -0.5, 401), T=0.5, h_t=0.005)
    return density.build_density(fan, rho0="exp(0-x)")


def test_bump_rejects_bad_support():
    with pytest.raises(verify.VerifyError):
        verify.BumpTestFunction(0.0, 0.2, 0.5, 0.3)  # dips below t=0
    with pytest.raises(verify.VerifyError):
        verify.BumpTestFunction(0.0, 0.5, -0.1, 0.2)


def test_bump_derivatives_match_finite_differences():
    z = verify.BumpTestFunction(0.3, 0.7, 0.4, 0.25)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.05, 0.65, 20)
    t = rng.uniform(0.5, 0.9, 20)
    d = 1e-5
    dx_fd = (z.value(x + d, t) - z.value(x - d, t)) / (2 * d)
    dt_fd = (z.value(x, t + d) - z.value(x, t - d)) / (2 * d)
    assert np.max(np.abs(dx_fd - z.d_x(x, t))) < 1e-7
    assert np.max(np.abs(dt_fd - z.d_t(x, t))) < 1e-7
    # vanishes (with derivatives) outside the support box
    assert z.value(0.75, 0.7) == 0.0
    assert z.d_x(0.75, 0.7) == 0.0
    assert z.d_t(0.3, 0.97) == 0.0
    assert abs(z.value(0.7, 0.7)) < 1e-30


def test_rarefaction_residual_decays(rarefaction_gd):
    z = verify.BumpTestFunction(-1.7, 0.25, 0.8, 0.2)
    res = [verify.identity_residual(rarefaction_gd, z, lev)
           for lev in (5, 6, 7)]
    assert np.log2(res[0] / res[1]) >= 2.0
    assert np.log2(res[1] / res[2]) >= 2.0


def test_riemann_correct_amplitude(riemann_gd):
    # stationary jump eating two unit streams; sup|zeta| = 1
    z = verify.BumpTestFunction(0.0, 0.6, 0.5, 0.35)
    res = verify.identity_residual(riemann_gd, z, 7)
    assert res <= 1e-4
    broken = verify.identity_residual(riemann_gd, z, 7, e_scale=1.1)
    assert broken >= 10 * res


def test_residual_monotone_in_amplitude_error(riemann_gd):
    z = verify.BumpTestFunction(0.0, 0.6, 0.5, 0.35)
    res = [verify.identity_residual(riemann_gd, z, 6, e_scale=1.0 + d)
           for d in (0.05, 0.10, 0.20)]
    assert res[0] < res[1] < res[2]


def test_merge_bump_requires_additivity(kirchhoff_gd):
    child = next(r for r in kirchhoff_gd.shocks if r.parents)
    z = verify.BumpTestFunction(child.x_birth, child.t_birth, 0.55, 0.3)
    res = verify.identity_residual(kirchhoff_gd, z, 7)
    assert res < 1e-3
    # child seeded with 10% more than the parents hand over
    broken = verify.identity_residual(kirchhoff_gd, z, 7, e_scale=1.1,
                                      e_scale_ids={child.id})
    assert broken > 10 * res


def test_suite_count_must_be_positive(rarefaction_gd):
    with pytest.raises(verify.VerifyError):
        verify.identity_suite(rarefaction_gd, 0, seed=1)


def test_suite_needs_a_common_window(m_burgers):
    # every label moves right at speed 2, so by t = 1 the box's image has
    # left the box: no x is inside the label-tracked window at every time
    fan = characteristics.integrate_fan(
        m_burgers, "2*x", np.linspace(-0.5, 0.5, 11), T=1.0, h_t=0.1,
        S0_prime="2")
    with pytest.raises(verify.VerifyError, match="no commonly covered"):
        verify.identity_suite(density.build_density(fan, "1"), 1, 0)


def test_suite_deterministic(rarefaction_gd):
    r1 = verify.identity_suite(rarefaction_gd, 2, seed=11)
    r2 = verify.identity_suite(rarefaction_gd, 2, seed=11)
    assert r1.bumps == r2.bumps
    assert r1.kinds == r2.kinds
    assert np.array_equal(r1.residuals, r2.residuals)
    assert repr(r1.to_rows()) == repr(r2.to_rows())
    assert len(r1.bumps) == 2 and set(r1.kinds) == {"random"}


def test_suite_covers_shocks_and_merges(kirchhoff_gd):
    rep = verify.identity_suite(kirchhoff_gd, 1, seed=4, levels=(5, 6))
    assert rep.kinds.count("shock") == 3
    assert rep.kinds.count("merge") == 1
    assert rep.kinds.count("random") == 1
    assert np.all(np.isfinite(rep.residuals))
    assert np.max(rep.residuals[:, -1]) < 5e-4
    # quadrature order is visible unless the residual sits at the noise floor
    for res, order in zip(rep.residuals, rep.orders):
        assert res[-1] < 1e-8 or order[1] > 1.8
    rows = rep.to_rows()
    assert len(rows) == len(rep.bumps) * 2
    assert rows[0][3] == 5 and rows[1][3] == 6


def test_hj_defect_closed_form(m_burgers):
    ts = np.linspace(0.5, 1.5, 400)
    xs = np.linspace(-1.0, 1.0, 400)
    slices = [manifold.EssentialSolution(
        t=float(t), x=xs, S=xs ** 2 / (2 * (1 + t)), p=xs / (1 + t),
        u=xs / (1 + t), branch_id=np.zeros(xs.size, dtype=int))
        for t in ts]
    assert verify.hj_residual(slices, m_burgers) <= 1e-5


def test_hj_defect_constant_action(m_jump):
    ts = np.linspace(0.2, 0.4, 5)
    xs = np.linspace(-1.0, 1.0, 11)
    zero = np.zeros(xs.size)
    slices = [manifold.EssentialSolution(
        t=float(t), x=xs, S=zero, p=zero, u=zero,
        branch_id=np.zeros(xs.size, dtype=int)) for t in ts]
    assert verify.hj_residual(slices, m_jump) == 0.0


def test_hj_defect_jump_fan_matches_dual_oracle(m_jump):
    fan = characteristics.integrate_fan(
        m_jump, "log(sech(x))", np.linspace(-4.0, 4.0, 1601), T=0.5,
        h_t=2.5e-3, store_every=2, S0_prime="0-tanh(x)")
    ts = np.linspace(0.1, 0.5, 81)
    xs = np.linspace(-2.0, 2.0, 201)
    slices = verify.essential_series(fan, ts, xs)
    assert verify.hj_residual(slices, m_jump) <= 1e-3
    for x_probe, t_probe in ((0.5, 0.3), (-1.0, 0.5), (0.0, 0.2)):
        i = int(round((t_probe - 0.1) / 0.005))
        j = int(round((x_probe + 2.0) / 0.02))
        dual = oracle.hopf_lax_grid(m_jump, "log(sech(x))", [x_probe],
                                    t_probe)[0]
        assert abs(float(slices[i].S[j]) - dual) <= 1e-3


def test_hj_defect_all_masked_errors(m_burgers):
    ts = np.linspace(0.5, 0.7, 3)
    xs = np.linspace(-0.5, 0.5, 5)
    slices = [manifold.EssentialSolution(
        t=float(t), x=xs, S=xs * 0.0, p=xs * 0.0, u=xs * 0.0,
        branch_id=np.zeros(xs.size, dtype=int)) for t in ts]
    rec = manifold.ShockRecord(
        id=0, t_birth=0.0, x_birth=0.0, times=np.array([0.0, 1.0]),
        x_s=np.zeros(2), c=np.zeros(2))
    with pytest.raises(verify.VerifyError):
        verify.hj_residual(slices, m_burgers, shocks=(rec,), collar=50)


@pytest.mark.parametrize("gd_name", ["riemann_gd", "kirchhoff_gd"])
def test_suite_rows_match_single_level_residuals(gd_name, request):
    # the suite shares slices between levels; each row must still equal a
    # separate single-level call bit for bit
    gd = request.getfixturevalue(gd_name)
    rep = verify.identity_suite(gd, 1, seed=9)
    for i, zeta in enumerate(rep.bumps):
        for j, lev in enumerate(rep.levels):
            assert rep.residuals[i, j] == verify.identity_residual(gd, zeta, lev)
