"""Exact symbolic d/dx (expr.diff) and the layers that rely on it."""

import numpy as np
import pytest

from tunnelshock import characteristics as ch
from tunnelshock import expr, symbol
from tunnelshock.expr import EvalDomainError, UnknownNameError, diff, parse

X = np.linspace(-1.3, 1.7, 25)


def d_at(src, x=X, order=1):
    e = parse(src)
    for _ in range(order):
        e = diff(e)
    return expr.evaluate_at(e, x)


def sech(v):
    return 1.0 / np.cosh(v)


@pytest.mark.parametrize("src, want", [
    ("x + 3*x", lambda x: 4.0 + 0 * x),
    ("x^2 - x", lambda x: 2 * x - 1),
    ("x*sin(x)", lambda x: np.sin(x) + x * np.cos(x)),
    ("x/(1 + x^2)", lambda x: (1 - x**2) / (1 + x**2) ** 2),
    ("-x^3", lambda x: -3 * x**2),
    ("(x + 2)^x", lambda x: (x + 2) ** x * (np.log(x + 2) + x / (x + 2))),
    ("2^x", lambda x: 2.0**x * np.log(2.0)),
    ("x^-2", lambda x: -2 * x ** -3.0),
])
def test_operators_match_closed_form(src, want):
    x = X[np.abs(X) > 0.1]
    np.testing.assert_allclose(d_at(src, x), want(x), rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("src, want", [
    ("exp(2*x)", lambda x: 2 * np.exp(2 * x)),
    ("log(1 + x^2)", lambda x: 2 * x / (1 + x**2)),
    ("sin(3*x)", lambda x: 3 * np.cos(3 * x)),
    ("cos(x^2)", lambda x: -2 * x * np.sin(x**2)),
    ("tanh(x/0.3)", lambda x: sech(x / 0.3) ** 2 / 0.3),
    ("sech(x)", lambda x: -sech(x) * np.tanh(x)),
    ("abs(x - 0.25)", lambda x: np.sign(x - 0.25)),
    ("min(x, 1 - x)", lambda x: np.where(x < 0.5, 1.0, -1.0)),
    ("max(x, 0.5, x^2)",
     lambda x: np.where(x**2 > np.maximum(x, 0.5), 2 * x,
                        np.where(x > 0.5, 1.0, 0.0))),
])
def test_functions_match_closed_form(src, want):
    np.testing.assert_allclose(d_at(src), want(X), rtol=1e-13, atol=1e-14)


def test_second_derivatives_match_closed_form():
    np.testing.assert_allclose(d_at("tanh(x)", order=2),
                               -2 * sech(X) ** 2 * np.tanh(X), rtol=1e-13)
    np.testing.assert_allclose(d_at("log(sech(x))", order=2), -sech(X) ** 2,
                               rtol=1e-13)
    np.testing.assert_allclose(d_at("0.5*x^3", order=2), 3 * X,
                               rtol=1e-15)


def _calls(node):
    """Names of the functions a tree calls."""
    if node[0] == "neg":
        return _calls(node[1])
    if node[0] == "bin":
        return _calls(node[2]) | _calls(node[3])
    if node[0] == "call":
        return {node[1]}.union(*(_calls(a) for a in node[2]))
    return set()


def test_power_rule_for_constant_exponent_at_zero():
    d = diff(parse("x^2"))
    assert "log" not in _calls(d.ast)
    assert "log" in _calls(diff(parse("x^x")).ast)
    assert expr.evaluate(d, x=0.0) == 0.0
    assert expr.evaluate(diff(parse("(x - 1)^3")), x=1.0) == 0.0
    # an x-dependent exponent goes through log and keeps its domain check
    with pytest.raises(EvalDomainError):
        expr.evaluate(diff(parse("x^x")), x=0.0)


def test_kinks_take_the_central_difference_limit():
    assert expr.evaluate(diff(parse("abs(x)")), x=0.0) == 0.0
    assert expr.evaluate(diff(parse("3*abs(x - 1)")), x=1.0) == 0.0
    # a tie takes the mean of both derivatives
    assert expr.evaluate(diff(parse("min(x, 2*x)")), x=0.0) == 1.5
    assert expr.evaluate(diff(parse("max(x, 0 - x)")), x=0.0) == 0.0
    assert expr.evaluate(diff(parse("max(2*x, 1)")), x=0.5) == 1.0


def test_constant_folding_and_cache():
    for src in ("0.5", "x*0 + 1", "3*x", "x^2/2 + 7"):
        dd = diff(diff(parse(src)))
        assert expr.constant_value(dd) is not None
    assert expr.constant_value(diff(diff(parse("x^2/2 + 7")))) == 1.0
    assert expr.constant_value(diff(parse("x^2"))) is None
    e = parse("sin(x)*2")
    assert diff(e) is diff(e)
    assert diff(e).has_x and diff(e).source == "d/dx(sin(x)*2)"
    assert not diff(parse("3*x")).has_x
    # the helper function of kink derivatives is not part of the grammar
    with pytest.raises(UnknownNameError):
        parse("sign(x)")


def test_constant_diffusion_skips_evaluation(monkeypatch):
    calls = []
    real = expr.evaluate

    def counting(e, **env):
        calls.append(e.source)
        return real(e, **env)

    monkeypatch.setattr(expr, "evaluate", counting)
    m = symbol.make_symbol(A="0.5")
    x = np.linspace(-1.0, 1.0, 5)
    for fn in (symbol.eval_dP_dx, symbol.eval_d2P_dxdp, symbol.eval_d2P_dx2):
        out = fn(m, x, 0.7)
        assert isinstance(out, float) and out == 0.0
    assert calls == []


def test_symbol_x_derivatives_match_closed_form():
    m = symbol.make_symbol(A="0.5*(1 + 0.5*sin(x))", V="0.2*x^2",
                           jumps=[(1.0, "exp(0 - x^2)")])
    x, p = X, 0.4
    lam = np.exp(-x**2)
    dA, dV, dlam = 0.25 * np.cos(x), 0.4 * x, -2 * x * lam
    d2A, d2V, d2lam = -0.25 * np.sin(x), 0.4, (4 * x**2 - 2) * lam
    e = np.exp(p)
    np.testing.assert_allclose(symbol.eval_dP_dx(m, x, p),
                               dA * p * p + dV + dlam * (e - 1), rtol=1e-13)
    np.testing.assert_allclose(symbol.eval_d2P_dxdp(m, x, p),
                               2 * dA * p + dlam * e, rtol=1e-13)
    np.testing.assert_allclose(symbol.eval_d2P_dx2(m, x, p),
                               d2A * p * p + d2V + d2lam * (e - 1),
                               rtol=1e-13, atol=1e-15)


def test_fan_defaults_match_explicit_exact_derivatives():
    m = symbol.make_symbol(A="0.5*(1 + 0.2*tanh(x))", V="0.1*x^2")
    x0 = np.linspace(-1.5, 1.5, 31)
    fan = ch.integrate_fan(m, "log(sech(x))", x0, T=0.5, h_t=0.01)
    exact = ch.integrate_fan(m, "log(sech(x))", x0, T=0.5, h_t=0.01,
                             S0_prime="0-tanh(x)")
    # S0'' is the exact derivative of S0' either way
    sech2 = 1.0 / np.cosh(x0) ** 2
    np.testing.assert_allclose(fan.dp[0], -sech2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(exact.dp[0], -sech2, rtol=0, atol=1e-15)
    for f in ("x", "p", "S", "J", "dp", "a_int"):
        np.testing.assert_allclose(getattr(fan, f), getattr(exact, f),
                                   rtol=0, atol=1e-12)
