"""Momentum-space symbol of the evolution generator.

A model is P(x, p) = A(x) p^2 + V(x) + sum_k lambda_k(x) (e^{p nu_k} - 1),
with coefficient fields given as parsed expressions (optionally time
dependent).  Derivatives in p are analytic; derivatives in x are exact too,
taken symbolically from the coefficient expressions (``expr.diff``).
"""

from dataclasses import dataclass, field

import numpy as np

from . import expr

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
    lam: expr.Expression  # rate field lambda_k(x) [, t]


@dataclass
class SymbolModel:
    A: expr.Expression
    V: expr.Expression
    jumps: list = field(default_factory=list)
    time_dependent: bool = False

    def __post_init__(self):
        if "t" in self.names and not self.time_dependent:
            raise SymbolError("coefficients reference t but time_dependent is false")

    @property
    def names(self):
        """Variables referenced by any coefficient field."""
        return self.A.names.union(self.V.names,
                                  *(j.lam.names for j in self.jumps))

    @property
    def spatially_homogeneous(self):
        return "x" not in self.names


def make_symbol(A="0", V="0", jumps=(), time_dependent=False):
    """Convenience constructor from source strings; jumps as (nu, lam_src) pairs."""
    terms = [JumpTerm(float(nu), expr.parse(src)) for nu, src in jumps]
    return SymbolModel(expr.parse(A), expr.parse(V), terms, time_dependent)


def _coef(e, x, t):
    return expr.evaluate(e, x=x, t=t)


def _guard_p(m, p):
    for j in m.jumps:
        if np.any(np.abs(p * j.nu) > EXP_GUARD):
            raise RangeError(f"|p*nu| exceeds {EXP_GUARD:g} for nu={j.nu:g}")


def _dx(e, x, t):
    """Exact d/dx of a coefficient field; a derivative that folds to a
    number is returned without an evaluation."""
    d = expr.diff(e)
    value = expr.constant_value(d)
    if value is not None:
        return value
    return expr.evaluate(d, x=x, t=t)


def _dxx(e, x, t):
    return _dx(expr.diff(e), x, t)


def _p_derivative(m, x, p, t, coef, order):
    """d^order P / dp^order (order 0, 1 or 2) with every coefficient field
    mapped through ``coef(e, x, t)``: its value or one of its x-derivatives."""
    _guard_p(m, p)
    if order == 0:
        out = coef(m.A, x, t) * p * p + coef(m.V, x, t)
    elif order == 1:
        out = 2.0 * coef(m.A, x, t) * p
    else:
        out = 2.0 * coef(m.A, x, t)
    for j in m.jumps:
        w = coef(j.lam, x, t)
        for _ in range(order):
            w = w * j.nu
        e = np.exp(p * j.nu)
        out = out + w * (e - 1.0 if order == 0 else e)
    return out


def eval_P(m, x, p, t=0.0):
    return _p_derivative(m, x, p, t, _coef, 0)


def eval_dP_dp(m, x, p, t=0.0):
    return _p_derivative(m, x, p, t, _coef, 1)


def eval_hess(m, x, p, t=0.0):
    """d2P/dp2: analytic, strictly positive when A>0 or any rate is active.

    Result shape follows numpy broadcasting; a constant diffusion with no
    jumps yields a scalar even for array arguments.
    """
    return _p_derivative(m, x, p, t, _coef, 2)


def eval_dP_dx(m, x, p, t=0.0):
    return _p_derivative(m, x, p, t, _dx, 0)


def eval_d2P_dxdp(m, x, p, t=0.0):
    """Mixed derivative; its negative is the zero-order transport coefficient."""
    return _p_derivative(m, x, p, t, _dx, 1)


def eval_d2P_dx2(m, x, p, t=0.0):
    return _p_derivative(m, x, p, t, _dxx, 0)


# ---------------------------------------------------------------------------
# velocity inversion (Legendre data)


def legendre_batch(m, x, v, t=0.0):
    """Vectorized safeguarded Newton for dP/dp = v on the momentum box.

    Returns (p_star, L) with L = v*p_star - P(x, p_star).  Entries whose
    velocity is not attained on the box are returned as NaN in both outputs;
    scalar callers turn that into NoRootError.
    """
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v).astype(float)
    x_arr = np.broadcast_to(np.asarray(x, dtype=float), v.shape).copy()

    lo = np.full_like(v, P_BOX[0])
    hi = np.full_like(v, P_BOX[1])
    g_lo = eval_dP_dp(m, x_arr, lo, t) - v
    g_hi = eval_dP_dp(m, x_arr, hi, t) - v
    ok = (g_lo <= 0.0) & (g_hi >= 0.0)

    p = np.where(ok, 0.5 * (lo + hi), np.nan)
    # Newton with bisection fallback; dP/dp is increasing so the bracket shrinks
    for _ in range(110):
        with np.errstate(all="ignore"):
            g = eval_dP_dp(m, x_arr, np.where(ok, p, 0.0), t) - v
            hess = eval_hess(m, x_arr, np.where(ok, p, 0.0), t)
            lo = np.where(ok & (g < 0), p, lo)
            hi = np.where(ok & (g > 0), p, hi)
            step = np.where(hess > 0, g / np.where(hess > 0, hess, 1.0), np.inf)
            cand = p - step
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            cand = np.where(bad, 0.5 * (lo + hi), cand)
            p_new = np.where(ok, cand, np.nan)
        if np.all(~ok | (np.abs(p_new - p) < 1e-15) | (hi - lo < 1e-15)):
            p = p_new
            break
        p = p_new
    L = np.where(ok, v * p - eval_P(m, x_arr, np.where(ok, p, 0.0), t), np.nan)
    if scalar:
        return float(p[0]), float(L[0])
    return p, L


def legendre(m, x, v, t=0.0):
    """Solve dP/dp(x, p) = v and return (p_star, L(x, v))."""
    p, L = legendre_batch(m, x, v, t)
    if not np.isfinite(p):
        raise NoRootError(f"velocity {v:g} not attained by dP/dp on {P_BOX}")
    return p, L


def legendre_clamped(m, x, v, t=0.0):
    """Box-restricted conjugate: out-of-range velocities get the box-edge
    affine value v*p_edge - P(x, p_edge) (exact sup over the box)."""
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v1 = np.atleast_1d(v).astype(float)
    x_arr = np.broadcast_to(np.asarray(x, dtype=float), v1.shape)
    p, L = legendre_batch(m, x_arr, v1, t)
    miss = ~np.isfinite(p)
    if np.any(miss):
        g_lo = eval_dP_dp(m, x_arr, np.full_like(v1, P_BOX[0]), t)
        use_lo = miss & (v1 < g_lo)
        for edge, mask in ((P_BOX[0], use_lo), (P_BOX[1], miss & ~use_lo)):
            if np.any(mask):
                Pe = eval_P(m, x_arr[mask], edge, t)
                L[mask] = v1[mask] * edge - Pe
                p[mask] = edge
    if scalar:
        return float(p[0]), float(L[0])
    return p, L


def certify_convexity(m, x_box, t=0.0, n=41):
    """Probe d2P/dp2 > 0 over a lattice of the working boxes; returns min value."""
    xs = np.linspace(x_box[0], x_box[1], n)
    ps = np.linspace(P_BOX[0], P_BOX[1], n)
    worst = np.inf
    for p in ps:
        try:
            h = eval_hess(m, xs, p, t)
        except RangeError:
            continue
        worst = min(worst, float(np.min(h)))
    return worst
