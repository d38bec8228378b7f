import numpy as np

from tunnelshock import roots

# a residual of +-2^-63 against a slope of 2^-17 is a Newton step of 2^-46,
# which 0.5 and 0.5 + 2^-46 take exactly onto each other
NOISE, SLOPE = 2.0 ** -63, 2.0 ** -17
CYCLE_ROOT = 0.5 + 2.0 ** -47


def _cubic_or_noise(s, c, noisy):
    """s^3 - c, or for a noisy entry only the sign of s - c at rounding
    level."""
    F = np.where(noisy, np.where(s < c, -NOISE, NOISE), s ** 3 - c)
    return F, np.where(noisy, SLOPE, 3.0 * s * s)


def _solve(c, noisy, calls):
    def f(s, c, noisy):
        calls.append(s.size)
        return _cubic_or_noise(s, c, noisy)

    c, noisy = np.asarray(c, dtype=float), np.asarray(noisy)
    return roots.newton(f, np.full(c.size, 0.5), 0.0, 1.0, (c, noisy), 60)


def test_newton_bisects_a_rounding_level_cycle_shut():
    c = [0.1, CYCLE_ROOT, 0.3, 0.7]
    noisy = [False, True, False, False]
    calls = []
    s = _solve(c, noisy, calls)
    # the noisy entry maps 0.5 and 0.5 + 2^-46 onto each other; it must
    # stop on its bracket instead of running to the cap
    assert len(calls) < 60
    assert 0.5 <= s[1] <= 0.5 + 2.0 ** -46
    for i in (0, 2, 3):
        alone = _solve(c[i:i + 1], noisy[i:i + 1], [])
        assert s[i] == alone[0]
        assert abs(s[i] ** 3 - c[i]) < 1e-15

