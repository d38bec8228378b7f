import numpy as np
import pytest

from tunnelshock import oracle, symbol
from tunnelshock.symbol import (
    NoRootError,
    RangeError,
    SymbolError,
    eval_P,
    eval_d2P_dxdp,
    eval_dP_dp,
    eval_dP_dx,
    eval_hess,
    legendre,
    make_symbol,
)


def burgers(a=0.5):
    return make_symbol(A=repr(a))


def pure_jump(lam="1", nu=1.0):
    return make_symbol(jumps=[(nu, lam)])


def test_eval_P_burgers_and_jump():
    m = burgers()
    assert eval_P(m, 0.0, 2.0) == 2.0  # p^2/2
    mj = pure_jump()
    assert np.isclose(eval_P(mj, 0.0, 1.0), np.e - 1.0, rtol=1e-15)
    # mixture with x-dependent rate
    mix = make_symbol(A="0.5", V="0.1*x^2", jumps=[(2.0, "exp(-x^2)")])
    x, p = 0.7, -0.3
    want = 0.5 * p**2 + 0.1 * x**2 + np.exp(-(x**2)) * (np.exp(2 * p) - 1)
    assert np.isclose(eval_P(mix, x, p), want, rtol=1e-14)


def test_momentum_derivatives_analytic():
    mix = make_symbol(A="0.5", V="cos(x)", jumps=[(1.5, "2"), (-0.5, "0.3")])
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        p = rng.uniform(-3, 3)
        h = 1e-6
        num1 = (eval_P(mix, x, p + h) - eval_P(mix, x, p - h)) / (2 * h)
        scale = 1.0 + abs(eval_P(mix, x, p))
        assert abs(num1 - eval_dP_dp(mix, x, p)) < 1e-7 * scale
        h2 = 1e-4  # second differences need a wider step to beat roundoff
        num2 = (eval_P(mix, x, p + h2) - 2 * eval_P(mix, x, p) + eval_P(mix, x, p - h2)) / h2**2
        assert abs(num2 - eval_hess(mix, x, p)) < 1e-4 * scale


def test_space_derivatives_match_closed_forms():
    mix = make_symbol(A="0.5", V="0.1*x^2", jumps=[(1.0, "exp(-x^2)")])
    for x in np.linspace(-1.5, 1.5, 9):
        for p in (-1.0, 0.5, 2.0):
            want = 0.2 * x - 2 * x * np.exp(-(x**2)) * (np.exp(p) - 1)
            assert abs(eval_dP_dx(mix, x, p) - want) < 1e-8
            want_mixed = -2 * x * np.exp(-(x**2)) * np.exp(p)
            assert abs(eval_d2P_dxdp(mix, x, p) - want_mixed) < 1e-8


def test_exponent_guard():
    mj = pure_jump(nu=50.0)
    with pytest.raises(RangeError):
        eval_P(mj, 0.0, 15.0)


def test_time_dependence_gate():
    # coefficient fields name x only: the symbol is autonomous
    with pytest.raises(SymbolError):
        make_symbol(A="0.5*(1+t)")
    with pytest.raises(SymbolError):
        make_symbol(jumps=((1.0, "exp(0-y^2)"),))


def test_spatially_homogeneous_reads_the_parsed_trees():
    # x in A only, in V only, or in one jump rate only
    for m in (make_symbol(A="0.5*(1 + x^2)"), make_symbol(A="0.5", V="x"),
              make_symbol(A="0.5", jumps=[(1.0, "1"), (-1.0, "exp(x)")])):
        assert not m.spatially_homogeneous
    # constants written as arithmetic or as calls
    m = make_symbol(A="0.5*2", V="exp(1)", jumps=[(1.0, "exp(1)")])
    assert m.spatially_homogeneous
    # the tree of x*0 still names x, whatever its value
    assert not make_symbol(A="0.5", V="x*0").spatially_homogeneous
    with pytest.raises(oracle.OracleError, match="x-independent"):
        oracle.hopf_lax_grid(pure_jump(lam="1 + x^2"), "x^2/2", [0.0], 1.0)


def test_legendre_burgers_closed_form():
    # P = p^2/2: p* = v, L = v^2/2
    m = burgers()
    rng = np.random.default_rng(42)
    for _ in range(200):
        v = rng.uniform(-10, 10)
        p, L = legendre(m, 0.0, v)
        assert abs(p - v) < 1e-12
        assert abs(L - v * v / 2) < 1e-10
        # duality and root residuals
        assert abs(eval_P(m, 0.0, p) + L - p * v) < 1e-10
        assert abs(eval_dP_dp(m, 0.0, p) - v) < 1e-10


def test_legendre_jump_symbol():
    # P = e^p - 1: p* = log v, L = v log v - v + 1; from p = 0 the first
    # Newton step for v = 21 lands exactly on the box edge 20
    m = pure_jump()
    for v in (0.2, 1.0, 3.0, 21.0, 40.0):
        p, L = legendre(m, 0.0, v)
        assert abs(p - np.log(v)) < 1e-11
        assert abs(L - (v * np.log(v) - v + 1.0)) < 1e-10


def test_legendre_duality_random_mixtures():
    rng = np.random.default_rng(3)
    m = make_symbol(A="0.3", V="0", jumps=[(1.0, "0.5"), (-2.0, "0.1")])
    count = 0
    for _ in range(200):
        x = rng.uniform(-2, 2)
        v = rng.uniform(-4, 4)
        try:
            p, L = legendre(m, x, v)
        except NoRootError:
            continue
        assert abs(eval_P(m, x, p) + L - p * v) < 1e-10
        assert abs(eval_dP_dp(m, x, p) - v) < 1e-9
        count += 1
    assert count > 150


def test_legendre_batch_solves_each_entry_as_if_alone():
    # every entry stops on its own Newton test, so sharing a batch with
    # slower velocities leaves its iterate unchanged; the velocities of the
    # feet of a 2001-node y grid into x = 0.3 at t = 0.5 on the jump symbol,
    # unattainable velocities included
    m = make_symbol(jumps=((1.0, "0.7"),))
    v = (0.3 - np.linspace(-30.0, 30.0, 2001)) / 0.5
    p, L = symbol.legendre_batch(m, 0.0, v)
    alone = [symbol.legendre_batch(m, 0.0, v[i:i + 1]) for i in range(v.size)]
    assert np.array_equal(p, np.concatenate([a[0] for a in alone]),
                          equal_nan=True)
    assert np.array_equal(L, np.concatenate([a[1] for a in alone]),
                          equal_nan=True)
    assert np.any(np.isnan(p)) and np.any(np.isfinite(p))


def test_legendre_no_root_and_clamped():
    m = pure_jump()  # dP/dp = e^p > 0
    with pytest.raises(NoRootError):
        legendre(m, 0.0, -1.0)
    # clamped momentum: v = 0 lies below every slope, so the lower box edge
    assert symbol.clamped_momentum(m, 0.0, 0.0) == symbol.P_BOX[0]
