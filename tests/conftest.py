"""Session fixtures for presets shared across test modules.

The heavy artifacts (characteristic fans, lattice runs) are built once per
session; tests must not mutate them.
"""

import numpy as np
import pytest

from tunnelshock import characteristics, density, oracle, regularize, symbol

GAUSS_H = 0.05


@pytest.fixture(scope="session")
def tanh_limit_study():
    """Window-shrinking family for the centered steep front."""
    m = symbol.make_symbol(A="0.5")
    return regularize.limit_study(
        m, "log(sech(2*x))/2", "1", (1e-2, 2.5e-3, 6.25e-4), T=1.0,
        S0_prime="0-tanh(2*x)")


@pytest.fixture(scope="session")
def burgers_symbol():
    return symbol.make_symbol(A="0.5")


@pytest.fixture(scope="session")
def riemann_gd(burgers_symbol):
    """Smoothed step from +1 to -1: stationary shock eating mass at rate 2."""
    x0 = np.linspace(-3.0, 3.0, 2401)
    fan = characteristics.integrate_fan(
        burgers_symbol, "0.05*log(sech(x/0.05))", x0, T=1.0, h_t=2.5e-3,
        store_every=2, S0_prime="0-tanh(x/0.05)")
    return density.build_density(fan, rho0="1")


@pytest.fixture(scope="session")
def kirchhoff_gd(burgers_symbol):
    """Two smoothed steps riding toward each other; shocks merge near t=1."""
    x0 = np.linspace(-4.0, 4.0, 4001)
    s0 = "0.1*(log(sech((x+1)/0.1)) + log(sech((x-1)/0.1)))"
    s0p = "0-tanh((x+1)/0.1)-tanh((x-1)/0.1)"
    fan = characteristics.integrate_fan(
        burgers_symbol, s0, x0, T=1.4, h_t=2.5e-3, store_every=4,
        S0_prime=s0p)
    return density.build_density(fan, rho0="1")


@pytest.fixture(scope="session")
def tanh_mass_gd(burgers_symbol):
    """Decelerating front with a centered shock born at t=1; runs to T=3."""
    x0 = np.linspace(-6.0, 6.0, 2401)
    fan = characteristics.integrate_fan(
        burgers_symbol, "log(sech(x))", x0, T=3.0, h_t=5e-3, store_every=5,
        S0_prime="0-tanh(x)")
    return density.build_density(fan, rho0="1")


@pytest.fixture(scope="session")
def gaussian_gd():
    """Pure-diffusion preset: A=1/2, quadratic action, unit density."""
    m = symbol.make_symbol(A="0.5")
    fan = characteristics.integrate_fan(
        m, "x^2/2", np.linspace(-3.0, 3.0, 1201), T=1.0, h_t=5e-3,
        store_every=10)
    return density.build_density(fan, "1")


@pytest.fixture(scope="session")
def gaussian_lattice_fields():
    """Lattice runs of the pure-diffusion preset at two resolutions."""
    m = symbol.make_symbol(A="0.5")
    out = {}
    for dx in (4e-3, 2e-3):
        f0 = oracle.make_lattice(f"exp(-x^2/(2*{GAUSS_H}))", h=GAUSS_H,
                                 x_box=(-2.5, 2.5), dx=dx)
        out[dx] = oracle.kf_lattice(m, f0, T=1.0, safety=0.1)
    return out
