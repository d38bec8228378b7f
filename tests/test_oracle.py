import numpy as np
import pytest

from tunnelshock import characteristics, manifold, oracle, symbol

GAUSS_H = 0.05


@pytest.fixture(scope="module")
def m_burgers():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="module")
def m_jump():
    return symbol.make_symbol(jumps=((1.0, "1"),))


@pytest.fixture(scope="module")
def tanh_fan(m_burgers):
    return characteristics.integrate_fan(
        m_burgers, "log(sech(x))", np.linspace(-4.0, 4.0, 1601),
        T=2.0, h_t=2.5e-3, store_every=8)


# ----------------------------------------------------------- action search


def test_action_quadratic_data(m_burgers):
    val = oracle.hopf_lax_grid(m_burgers, "x^2/2", [1.0], 1.0)[0]
    assert abs(val - 0.25) < 1e-9


def test_action_short_time_limit(m_burgers):
    # plain limit where the time drift t*P(x, S0') is below the tolerance
    want = float(np.log(1.0 / np.cosh(0.1)))
    got = oracle.hopf_lax_grid(m_burgers, "log(sech(x))", [0.1], 1e-4)[0]
    assert abs(got - want) < 1e-6
    # first-order structure: S(x, t) = S0(x) - t*P(x, S0'(x)) + O(t^2)
    s0 = float(np.log(1.0 / np.cosh(0.7)))
    drift = 0.5 * np.tanh(0.7) ** 2
    got = oracle.hopf_lax_grid(m_burgers, "log(sech(x))", [0.7], 1e-4)[0]
    assert abs(got - (s0 - 1e-4 * drift)) < 1e-8


def test_action_box_edge_error(m_burgers, m_jump):
    with pytest.raises(oracle.OracleError):
        oracle.hopf_lax_grid(m_burgers, "x^2/2", [5.0], 1.0,
                             y_box=(-0.5, 0.5))
    # the minimizer of y^2/2 + (x-y)^2/2 is y = x/2: x = 2, -4 and 3 leave
    # the box, and the error names the first of them in grid order
    with pytest.raises(oracle.OracleError) as err:
        oracle.hopf_lax_grid(m_burgers, "x^2/2", [0.0, 0.3, 2.0, -4.0, 3.0],
                             1.0, y_box=(-0.5, 0.5))
    assert str(err.value) == ("action minimizer for x=2, t=1 sits on the "
                              "y-box edge; enlarge y_box")
    # on the pure jump the minimizing momentum of -25*x is -25, beyond the
    # momentum box: the search ends on the box edge, and names that box
    with pytest.raises(oracle.OracleError) as err:
        oracle.hopf_lax_grid(m_jump, "-25*x", [0.0], 0.5)
    assert str(err.value) == ("action minimizer for x=0, t=0.5 sits on the "
                              "momentum box edge p=-20; no y_box can help")
    # a symbol with no p-dependence: every line has velocity 0, the ends
    # clamp to the momentum box and all nodes tie at the first
    flat = symbol.make_symbol(V="0.3")
    with pytest.raises(oracle.OracleError) as err:
        oracle.hopf_lax_grid(flat, "x^2/2", [0.5], 1.0)
    assert str(err.value) == ("action minimizer for x=0.5, t=1 sits on the "
                              "momentum box edge p=-20; no y_box can help")


def test_action_grid_does_not_depend_on_the_block_size(monkeypatch):
    m = symbol.make_symbol(jumps=((1.0, "0.7"),))
    xs = np.linspace(-3.0, 3.0, 241)
    blocked = oracle.hopf_lax_grid(m, "log(sech(x))", xs, 1.0)
    monkeypatch.setattr(oracle, "_BLOCK_NODES", 1)
    by_row = oracle.hopf_lax_grid(m, "log(sech(x))", xs, 1.0)
    assert np.array_equal(blocked, by_row)


def test_action_matches_characteristics(tanh_fan, m_burgers):
    curve = manifold.slice_fan(tanh_fan, 2.0)
    ess = manifold.essential(curve, np.array([0.0]))
    val = oracle.hopf_lax_grid(m_burgers, "log(sech(x))", [0.0], 2.0)[0]
    assert abs(val - ess.S[0]) <= 1e-3


def test_action_jump_symbol_flat_data(m_jump):
    # affine data a*x keeps its momentum a, so S = a*x - t*(e^a - 1); zero
    # initial action stays zero: the conjugate vanishes at the drift speed
    for a in (0.0, 0.5, -1.0):
        val = oracle.hopf_lax_grid(m_jump, f"{a!r}*x", [0.3], 0.7)[0]
        assert abs(val - (a * 0.3 - 0.7 * np.expm1(a))) < 1e-12


def test_action_grid_solves_two_velocities_per_x(m_jump, monkeypatch):
    # the grid nodes are momenta: only the two ends of each x's momentum
    # range are solved from velocities
    solved = []
    solve = symbol.legendre_batch

    def counted(m, x, v):
        solved.append(np.size(v))
        return solve(m, x, v)

    monkeypatch.setattr(symbol, "legendre_batch", counted)
    xs = np.linspace(-1.0, 1.0, 41)
    oracle.hopf_lax_grid(m_jump, "log(sech(x))", xs, 0.5)
    assert sum(solved) == 2 * xs.size


# ----------------------------------------------------------- finite volume


def _interface(sol, t):
    """The steepest-descent interface at time t: the cell edge of the
    largest drop in the cell averages."""
    return sol.x[np.argmin(np.diff(sol.at(t)))] + sol.dx / 2


def test_godunov_stationary_riemann(m_burgers):
    sol = oracle.godunov(m_burgers, lambda x: np.where(x < 0, 1.0, -1.0),
                         (-2.0, 2.0), 1000, T=1.0)
    assert abs(_interface(sol, 1.0)) <= 2 * sol.dx
    v = sol.at(1.0)
    assert np.all(np.abs(v[sol.x < -0.2] - 1.0) < 1e-9)
    assert np.all(np.abs(v[sol.x > 0.2] + 1.0) < 1e-9)


def test_godunov_shock_speed(m_burgers):
    sol = oracle.godunov(m_burgers, lambda x: np.where(x < 0, 2.0, 0.0),
                         (-1.5, 2.5), 2000, T=1.0)
    assert abs(_interface(sol, 1.0) - 1.0) <= 2 * sol.dx


def test_godunov_rarefaction_l1(m_burgers):
    sol = oracle.godunov(m_burgers, lambda x: np.where(x < 0, -1.0, 1.0),
                         (-3.0, 3.0), 2000, T=1.0)
    exact = np.clip(sol.x / 1.0, -1.0, 1.0)
    err = float(np.sum(np.abs(sol.at(1.0) - exact)) * sol.dx)
    assert err <= 5e-2


def test_godunov_cfl_violation(m_burgers):
    with pytest.raises(oracle.StabilityError):
        oracle.godunov(m_burgers, lambda x: np.where(x < 0, 1.0, -1.0),
                       (-2.0, 2.0), 1000, T=0.5, dt=1.0)


def test_godunov_solves_the_sonic_point_once(monkeypatch):
    # the flux is autonomous: its sonic point is solved before the time loop
    m = symbol.make_symbol(A="0.4", V="0.2", jumps=((1.0, "0.5"),))
    calls = []
    solve = symbol.clamped_momentum

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(symbol, "clamped_momentum", counted)
    sol = oracle.godunov(m, lambda x: np.where(x < 0, -1.0, 1.2),
                         (-2.0, 2.0), 400, T=0.5, store_times=(0.25, 0.5))
    assert sol.times.size == 2
    assert len(calls) == 1


def test_godunov_velocity_matches_characteristics(tanh_fan, m_burgers):
    sol = oracle.godunov(m_burgers, lambda x: -np.tanh(x),
                         (-4.0, 4.0), 2000, T=1.5)
    keep = np.abs(sol.x) <= 2.0
    curve = manifold.slice_fan(tanh_fan, 1.5)
    ess = manifold.essential(curve, sol.x[keep])
    err = float(np.sum(np.abs(sol.at(1.5)[keep] - ess.u)) * sol.dx)
    assert err <= 5e-2


def _bisection_sonic_point(m):
    # the 90-step bisection godunov used before the shared Newton solve
    lo, hi = symbol.P_BOX
    if symbol.eval_dP_dp(m, 0.0, lo) >= 0.0:
        return lo
    if symbol.eval_dP_dp(m, 0.0, hi) <= 0.0:
        return hi
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if symbol.eval_dP_dp(m, 0.0, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


SONIC_SYMBOLS = {
    "constant_A": dict(A="0.6"),
    "A_plus_V": dict(A="0.5", V="0.3"),
    "jump_up": dict(jumps=((1.0, "0.7"),)),        # dP/dp > 0: lower edge
    "jump_down": dict(jumps=((-1.0, "0.7"),)),     # dP/dp < 0: upper edge
    "mixed": dict(A="0.4", V="0.2", jumps=((1.0, "0.5"), (-1.0, "0.3"))),
}


@pytest.mark.parametrize("name", sorted(SONIC_SYMBOLS))
def test_sonic_point_matches_bisection(name, monkeypatch):
    m = symbol.make_symbol(**SONIC_SYMBOLS[name])
    new, old = oracle._sonic_point(m), _bisection_sonic_point(m)
    if old in symbol.P_BOX:
        assert new == old  # box-edge clipping
    else:
        assert abs(new - old) < 1e-14
        assert abs(float(symbol.eval_dP_dp(m, 0.0, new))) < 1e-13

    def run():
        return oracle.godunov(m, lambda x: np.where(x < 0, -1.0, 1.2),
                              (-2.0, 2.0), 400, T=0.5,
                              store_times=(0.25, 0.5))

    sol = run()
    monkeypatch.setattr(oracle, "_sonic_point", _bisection_sonic_point)
    ref = run()
    assert np.array_equal(sol.v, ref.v)
    for t in (0.25, 0.5):
        assert _interface(sol, t) == _interface(ref, t)


# ----------------------------------------------------------------- lattice


def test_lattice_pointwise_decay():
    m = symbol.make_symbol(A="0", V="-1")
    f0 = oracle.make_lattice("exp(-200*x^2)", h=0.1, x_box=(-2.0, 2.0),
                             dx=0.01)
    out = oracle.kf_lattice(m, f0, T=0.05, dt=1e-5)
    assert np.allclose(out.values, f0.values * np.exp(-0.5), rtol=1e-4)
    assert out.t == pytest.approx(0.05)


def test_lattice_gaussian_closed_form(gaussian_lattice_fields):
    f = gaussian_lattice_fields[2e-3]
    keep = np.abs(f.x) <= 1.0
    exact = np.exp(-f.x[keep] ** 2 / (2 * GAUSS_H * 2.0)) / np.sqrt(2.0)
    rel = np.max(np.abs(f.values[keep] - exact) / exact)
    assert rel <= 1e-3


def test_lattice_space_refinement(gaussian_lattice_fields):
    errs = {}
    for dx, f in gaussian_lattice_fields.items():
        keep = np.abs(f.x) <= 1.0
        exact = np.exp(-f.x[keep] ** 2 / (2 * GAUSS_H * 2.0)) / np.sqrt(2.0)
        errs[dx] = np.max(np.abs(f.values[keep] - exact) / exact)
    assert errs[4e-3] / errs[2e-3] >= 3.5


def test_lattice_jump_positivity(m_jump):
    f0 = oracle.make_lattice("exp(-200*x^2)", h=0.05, x_box=(-1.5, 2.5),
                             dx=0.0125)
    out = oracle.kf_lattice(m_jump, f0, T=0.5)
    assert float(np.min(out.values)) >= 0.0
    assert float(np.max(out.values)) > 0.0


def test_lattice_shift_snap_error(m_jump):
    f0 = oracle.make_lattice("exp(-200*x^2)", h=0.053, x_box=(-1.0, 1.0),
                             dx=0.01)
    with pytest.raises(oracle.OracleError):
        oracle.kf_lattice(m_jump, f0, T=0.1)


def test_lattice_stability_error():
    m = symbol.make_symbol(A="0.5")
    f0 = oracle.make_lattice("exp(-10*x^2)", h=0.05, x_box=(-1.0, 1.0),
                             dx=0.01)
    with pytest.raises(oracle.StabilityError):
        oracle.kf_lattice(m, f0, T=0.1, dt=1e-3)


def test_lattice_boundary_contact():
    m = symbol.make_symbol(A="0.5")
    f0 = oracle.make_lattice("exp(-x^2/8)", h=0.05, x_box=(-1.0, 1.0),
                             dx=0.01)
    with pytest.raises(oracle.BoundaryContactError):
        oracle.kf_lattice(m, f0, T=0.01)


# -------------------------------------------------------------- comparator


def test_tunnel_compare_gaussian(gaussian_lattice_fields, gaussian_gd):
    f = gaussian_lattice_fields[2e-3]
    table = oracle.tunnel_compare([f], gaussian_gd, x_window=(-1.0, 1.0))
    inside = (f.x >= -1.0) & (f.x <= 1.0)
    mask = oracle.comparison_mask(gaussian_gd, f.t, f.x, f.dx, f.h)
    assert np.count_nonzero(inside & mask) > 500
    assert table.E_rel[0] <= 1e-3


def test_tunnel_compare_empty_set(gaussian_lattice_fields, gaussian_gd):
    f = gaussian_lattice_fields[4e-3]
    with pytest.raises(oracle.OracleError):
        oracle.tunnel_compare([f], gaussian_gd, x_window=(5.0, 6.0))
