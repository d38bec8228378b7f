"""Momentum-space symbol of the evolution generator.

A model is P(x, p) = A(x) p^2 + V(x) + sum_k lambda_k(x) (e^{p nu_k} - 1),
with coefficient fields given as parsed expressions in x.  Derivatives in p
are analytic; derivatives in x are exact too, taken symbolically from the
coefficient expressions (``expr.diff``).  Every derivative comes from one
formula over evaluated coefficients (`_p_derivative`): the ``eval_*``
functions give one derivative each, and `derivatives` all six from one
evaluation of each field, as a fan's RHS needs them.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expr, roots

P_BOX = (-20.0, 20.0)  # momentum working box for root solves
EXP_GUARD = 700.0  # |p*nu| beyond this would overflow exp


class SymbolError(ValueError):
    pass


class RangeError(SymbolError):
    """Momentum argument outside the safe evaluation range."""


class NoRootError(SymbolError):
    """Velocity not attained by dP/dp inside the momentum box."""


@dataclass
class JumpTerm:
    nu: float
    lam: expr.Expression  # rate field lambda_k(x)


@dataclass
class SymbolModel:
    A: expr.Expression
    V: expr.Expression
    jumps: list = field(default_factory=list)

    @property
    def spatially_homogeneous(self):
        """No coefficient field's parsed tree references x.  The test is
        syntactic (``0*x`` names x): `characteristics.integrate_fan` takes
        its constant-increment path on it, and `oracle.hopf_lax_grid`,
        `oracle.godunov` and `regularize` require it."""
        return not (self.A.has_x or self.V.has_x
                    or any(j.lam.has_x for j in self.jumps))


def _parse_field(src):
    """Parse a coefficient field in x."""
    try:
        return expr.parse(src)
    except expr.UnknownNameError as ex:
        raise SymbolError(f"coefficient {src!r}: {ex}") from None


def make_symbol(A="0", V="0", jumps=()):
    """Convenience constructor from source strings; jumps as (nu, lam_src) pairs."""
    terms = [JumpTerm(float(nu), _parse_field(src)) for nu, src in jumps]
    return SymbolModel(_parse_field(A), _parse_field(V), terms)


def _coef(e, x):
    """A coefficient field at x; a field that is a number is returned
    without an evaluation."""
    value = expr.constant_value(e)
    if value is not None:
        return value
    return expr.evaluate(e, x=x)


def _guarded_exps(m, p):
    """exp(p*nu_k) for every jump, once |p*nu_k| <= EXP_GUARD holds for
    each."""
    pnu = [p * j.nu for j in m.jumps]
    for j, a in zip(m.jumps, pnu):
        if (np.abs(a) > EXP_GUARD).any():
            raise RangeError(f"|p*nu| exceeds {EXP_GUARD:g} for nu={j.nu:g}")
    return [np.exp(a) for a in pnu]


def _dx(e, x):
    """Exact d/dx of a coefficient field at x."""
    return _coef(expr.diff(e), x)


def _dxx(e, x):
    return _dx(expr.diff(e), x)


def _p_derivative(m, p, a, v, lams, exps, order):
    """d^order P / dp^order (order 0, 1 or 2) from evaluated coefficients:
    ``a``, ``v`` and the rates ``lams`` are A, V and lambda_k or the same
    x-derivative of each (``v`` is read at order 0 only), and ``exps`` the
    values exp(p*nu_k)."""
    if order == 0:
        out = a * p * p + v
    elif order == 1:
        out = 2.0 * a * p
    else:
        out = 2.0 * a
    for j, w, e in zip(m.jumps, lams, exps):
        for _ in range(order):
            w = w * j.nu
        out = out + w * (e - 1.0 if order == 0 else e)
    return out


def _derivative(m, x, p, coef, order):
    """d^order P / dp^order with every coefficient field mapped through
    ``coef(e, x)``: its value or one of its x-derivatives.  V is evaluated
    only at order 0."""
    exps = _guarded_exps(m, p)
    a = coef(m.A, x)
    v = coef(m.V, x) if order == 0 else None
    lams = [coef(j.lam, x) for j in m.jumps]
    return _p_derivative(m, p, a, v, lams, exps, order)


def eval_P(m, x, p):
    return _derivative(m, x, p, _coef, 0)


def eval_dP_dp(m, x, p):
    return _derivative(m, x, p, _coef, 1)


def eval_hess(m, x, p):
    """d2P/dp2: analytic, strictly positive when A>0 or any rate is active.

    Result shape follows numpy broadcasting; a constant diffusion with no
    jumps yields a scalar even for array arguments.
    """
    return _derivative(m, x, p, _coef, 2)


def eval_dP_dx(m, x, p):
    return _derivative(m, x, p, _dx, 0)


def eval_d2P_dxdp(m, x, p):
    """Mixed derivative; its negative is the zero-order transport coefficient."""
    return _derivative(m, x, p, _dx, 1)


def eval_d2P_dx2(m, x, p):
    return _derivative(m, x, p, _dxx, 0)


def derivatives(m, x, p):
    """(P_p, P_x, P_pp, P_xp, P_xx, P) at (x, p) in one pass: the values
    of the six ``eval_*`` calls, bit for bit, with p guarded once, each
    exp(p*nu_k) formed once and each coefficient field, its d/dx and its
    d2/dx2 evaluated once.  The fields are evaluated in the order the six
    calls first reach them (A, lambda_k; A', V', lambda_k'; A'', V'',
    lambda_k''; V), so a field that cannot be evaluated raises the same
    first error."""
    exps = _guarded_exps(m, p)
    a = _coef(m.A, x)
    lams = [_coef(j.lam, x) for j in m.jumps]
    da, dv = _dx(m.A, x), _dx(m.V, x)
    dlams = [_dx(j.lam, x) for j in m.jumps]
    dda, ddv = _dxx(m.A, x), _dxx(m.V, x)
    ddlams = [_dxx(j.lam, x) for j in m.jumps]
    v = _coef(m.V, x)
    return (_p_derivative(m, p, a, None, lams, exps, 1),
            _p_derivative(m, p, da, dv, dlams, exps, 0),
            _p_derivative(m, p, a, None, lams, exps, 2),
            _p_derivative(m, p, da, None, dlams, exps, 1),
            _p_derivative(m, p, dda, ddv, ddlams, exps, 0),
            _p_derivative(m, p, a, v, lams, exps, 0))


def jump_speed(m, x, p_l, p_r):
    """Rankine-Hugoniot quotient [P]/[p] of a jump from p_l to p_r at x;
    the caller keeps p_l and p_r apart."""
    return (eval_P(m, x, p_l) - eval_P(m, x, p_r)) / (p_l - p_r)


# ---------------------------------------------------------------------------
# velocity inversion (Legendre data)


def legendre_batch(m, x, v):
    """Solve dP/dp = v on the momentum box for every entry, each as if
    alone (`roots.newton`).

    Returns (p_star, L) with L = v*p_star - P(x, p_star).  Entries whose
    velocity is not attained on the box are returned as NaN in both outputs;
    scalar callers turn that into NoRootError.
    """
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v).astype(float)
    x_arr = np.broadcast_to(np.asarray(x, dtype=float), v.shape).copy()

    g_lo = eval_dP_dp(m, x_arr, np.full_like(v, P_BOX[0])) - v
    g_hi = eval_dP_dp(m, x_arr, np.full_like(v, P_BOX[1])) - v
    ok = (g_lo <= 0.0) & (g_hi >= 0.0)

    def residual(p, x, v):
        return eval_dP_dp(m, x, p) - v, eval_hess(m, x, p)

    p = np.full(v.size, np.nan)
    act = np.flatnonzero(ok)
    p[act] = roots.newton(residual, np.full(act.size, sum(P_BOX) / 2), *P_BOX,
                          (x_arr.ravel()[act], v.ravel()[act]), 110)
    p = p.reshape(v.shape)
    L = np.where(ok, v * p - eval_P(m, x_arr, np.where(ok, p, 0.0)), np.nan)
    if scalar:
        return float(p[0]), float(L[0])
    return p, L


def legendre(m, x, v):
    """Solve dP/dp(x, p) = v and return (p_star, L(x, v))."""
    p, L = legendre_batch(m, x, v)
    if not np.isfinite(p):
        raise NoRootError(f"velocity {v:g} not attained by dP/dp on {P_BOX}")
    return p, L


def clamped_momentum(m, x, v):
    """Root of dP/dp(x, p) = v on the momentum box; a velocity the box does
    not attain gets the nearer box edge."""
    p, _ = legendre_batch(m, x, v)
    below = v < eval_dP_dp(m, x, P_BOX[0])
    return np.where(np.isnan(p), np.where(below, *P_BOX), p)
