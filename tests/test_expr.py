import numpy as np
import pytest

from tunnelshock import expr
from tunnelshock.expr import (
    EvalDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownNameError,
    evaluate,
    parse,
)


def ev(src, x=None):
    return evaluate(parse(src), x)


def test_literals_and_arithmetic():
    assert ev("1+2*3") == 7.0
    assert ev("2*3+1") == 7.0
    assert ev("10/4") == 2.5
    assert ev("1 - 2 - 3") == -4.0  # left assoc
    assert ev("2^3^2") == 512.0  # right assoc
    assert ev("1.5e2") == 150.0
    assert ev(".5 + 0.25") == 0.75


def test_unary_minus_precedence():
    # '^' binds tighter than unary minus; exponent itself may be signed
    assert ev("-2^2") == -4.0
    assert ev("2^-2") == 0.25
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("(-x)^2", x=3.0) == 9.0
    assert ev("--2") == 2.0
    assert ev("2*-3") == -6.0


def test_functions():
    assert ev("tanh(0)") == 0.0
    assert ev("sech(0)") == 1.0
    assert ev("exp(0)") == 1.0
    assert ev("abs(-3)") == 3.0
    assert ev("min(4, 2, 3)") == 2.0
    assert ev("max(4, 2, 3)") == 4.0
    assert np.isclose(ev("sin(1)^2 + cos(1)^2"), 1.0, rtol=0, atol=1e-15)
    assert np.isclose(ev("log(exp(2))"), 2.0, rtol=0, atol=1e-14)
    assert np.isclose(ev("sech(2)"), 1.0 / np.cosh(2.0), rtol=1e-15)


def test_variables_and_arrays():
    e = parse("x^2 + 1")
    assert evaluate(e, x=3.0) == 10.0
    xs = np.linspace(-1, 1, 11)
    out = evaluate(e, x=xs)
    assert np.allclose(out, xs**2 + 1.0)
    assert e.has_x and not parse("2*3").has_x
    # an expression in x needs a value for x
    with pytest.raises(ExpressionError, match="missing binding for x"):
        evaluate(e)


def test_as_expression_and_evaluate_at():
    e = expr.as_expression("0*x - 1")
    assert expr.as_expression(e) is e
    with pytest.raises(UnknownNameError):
        expr.as_expression("x + t")
    xs = np.array([-2.0, 0.0, 3.0])
    out = expr.evaluate_at(expr.as_expression("2"), xs)  # broadcast constant
    assert out.shape == xs.shape and np.all(out == 2.0)
    # 0*x is -0.0 at negative x; the broadcast zeros turn it into +0.0
    zero = expr.evaluate_at(expr.as_expression("0*x"), xs)
    assert not np.any(np.signbit(zero))
    assert expr.evaluate_at(e, 1.5) == -1.0


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("x+")
    assert info.value.offset == 2
    assert "number" in info.value.expected

    with pytest.raises(ExpressionSyntaxError) as info:
        parse("(1+2")
    assert info.value.offset == 4

    with pytest.raises(ExpressionSyntaxError) as info:
        parse("1 2")
    assert info.value.offset == 2

    with pytest.raises(ExpressionSyntaxError):
        parse("min(1)")


def test_unknown_identifiers():
    with pytest.raises(UnknownNameError):
        parse("y + 1")
    with pytest.raises(UnknownNameError):
        parse("foo(3)")
    # x is the one variable: a time variable is unknown too
    with pytest.raises(UnknownNameError) as info:
        parse("x*t")
    assert (info.value.name, info.value.offset) == ("t", 2)


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        ev("1/x", x=0.0)
    with pytest.raises(EvalDomainError):
        ev("log(x)", x=-1.0)
    with pytest.raises(EvalDomainError):
        ev("exp(x)", x=1e4)
    # an intermediate non-finite is caught even if later ops would mask it
    with pytest.raises(EvalDomainError):
        ev("min(1, 1/x)", x=0.0)
    # arrays: one bad entry poisons the evaluation
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), x=np.array([1.0, 0.0]))


def test_numeric_derivatives_match_closed_forms():
    # central differences on parsed sources vs hand closed forms
    cases = [
        ("tanh(x)", lambda x: 1.0 / np.cosh(x) ** 2),
        ("exp(-x^2)", lambda x: -2.0 * x * np.exp(-(x**2))),
        ("x^3 - 2*x", lambda x: 3.0 * x**2 - 2.0),
        ("log(cosh_sub(x))", None),  # placeholder replaced below
        ("sin(2*x)", lambda x: 2.0 * np.cos(2.0 * x)),
    ]
    cases[3] = ("-log(exp(x) + exp(-x)) + log(2)", lambda x: -np.tanh(x))
    h = 1e-5
    for src, dfn in cases:
        e = parse(src)
        for x in np.linspace(-1.5, 1.5, 7):
            num = (evaluate(e, x=x + h) - evaluate(e, x=x - h)) / (2 * h)
            assert abs(num - dfn(x)) < 1e-8


def test_evaluation_deterministic():
    e = parse("sin(x)*exp(0.987654321) - x/(0.987654321+2)")
    a = evaluate(e, x=0.123456789)
    b = evaluate(e, x=0.123456789)
    assert a == b
