"""Bijective smoothing of the focusing flow near its first fold.

Just ahead of the first fold the label fan is modified on a thin collar:
collar trajectories are restarted on a straight-line velocity profile that
focuses them at a common point, and the focusing is blended, over a time
window of width ``epsilon``, into rigid transport at the jump speed.  For
every positive ``epsilon`` the flow map stays strictly increasing while its
Jacobian bottoms out at O(epsilon) instead of vanishing; rows outside the
collar run plainly until they land on the moving cluster and are absorbed
by it.  The module also provides the reverse operation: cutting the
jump-connected curve out of a folded fan and flowing it backward into
fresh single-valued data.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import characteristics
from . import density
from . import expr
from . import manifold
from . import symbol
# bench/tracing.py wraps these by-name imports; eval_hess is unused here
from .symbol import (eval_P, eval_dP_dp, eval_dP_dx, eval_hess,  # noqa: F401
                     P_BOX)


SHIFT_SCAN = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)
MONO_FLOOR = 1e-7      # error level under which schedule decrease is moot
DETECT_GRID = 4001


class RegularizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# blend profiles


def _log_cosh(z):
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0)


def _softplus(y):
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def _tanh_blend(z):
    return 0.5 * (1.0 + np.tanh(z))


def _tanh_ramp_integral(z):
    # antiderivative of 1 - B, vanishing at z = 0
    return 0.5 * (z - _log_cosh(z))


def _logistic_blend(z):
    return 1.0 / (1.0 + np.exp(-2.0 * np.clip(z, -350.0, 350.0)))


def _logistic_ramp_integral(z):
    return z - 0.5 * _softplus(2.0 * z) + 0.5 * math.log(2.0)


PROFILES = {"tanh": _tanh_blend, "logistic": _logistic_blend}
_RAMP_INTEGRALS = {"tanh": _tanh_ramp_integral,
                   "logistic": _logistic_ramp_integral}


@dataclass(frozen=True)
class RegularizationParams:
    """Window width, collar half-width, trajectory shift and blend shape."""
    epsilon: float
    beta: float
    A_shift: float = None       # None -> auto-tuned when the flow is built
    B_profile: object = "tanh"

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise RegularizeError("epsilon must be positive")
        if not (self.beta > 0.0):
            raise RegularizeError("beta must be positive")
        if self.epsilon > self.beta ** 2 * (1.0 + 1e-12):
            raise RegularizeError(
                "window width must satisfy epsilon <= beta**2")
        _validate_blend(self.blend)

    @property
    def blend(self):
        if isinstance(self.B_profile, str):
            try:
                return PROFILES[self.B_profile]
            except KeyError:
                raise RegularizeError(
                    f"unknown blend profile {self.B_profile!r}; "
                    f"choose from {sorted(PROFILES)}")
        if callable(self.B_profile):
            return self.B_profile
        raise RegularizeError("B_profile must be a name or a callable")


def _validate_blend(B):
    z = np.linspace(-60.0, 60.0, 481)
    vals = np.asarray(B(z), dtype=float)
    if vals.shape != z.shape or not np.all(np.isfinite(vals)):
        raise RegularizeError("blend profile must map reals to finite reals")
    if vals[0] > 1e-9 or vals[-1] < 1.0 - 1e-9:
        raise RegularizeError("blend profile must ramp from 0 to 1")
    if np.any(np.diff(vals) < -1e-12):
        raise RegularizeError("blend profile must be monotone")


# ---------------------------------------------------------------------------
# straight-line insertion


def _as_x_fn(f, what="profile"):
    """Coerce an expression in x, or a callable, into a vectorized function."""
    f = expr.as_expression(f, ("x",))
    if isinstance(f, expr.Expression):
        return functools.partial(expr.evaluate_at, f)
    if callable(f):
        g = f

        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.asarray(g(x), dtype=float) + np.zeros_like(x)

        return fn
    raise RegularizeError(f"{what} must be an expression in x or a callable")


def data_singularity(m, u0, x_box, n=DETECT_GRID):
    """First focusing time and label of the plain flow for gradient data u0.

    Returns (inf, argmax label) when the data never compresses.
    """
    u0 = _as_x_fn(u0, "u0")
    xs = np.linspace(float(x_box[0]), float(x_box[1]), int(n))
    v = eval_dP_dp(m, xs, u0(xs)) + np.zeros_like(xs)
    comp = -np.gradient(v, xs)
    i = int(np.argmax(comp))
    x_star, c_star = xs[i], comp[i]
    if 0 < i < xs.size - 1:
        denom = comp[i - 1] - 2.0 * comp[i] + comp[i + 1]
        if denom < -1e-300:
            h = xs[1] - xs[0]
            shift = 0.5 * (comp[i - 1] - comp[i + 1]) / denom
            x_star = xs[i] + shift * h
            c_star = comp[i] - 0.125 * (comp[i - 1] - comp[i + 1]) ** 2 / denom
    if c_star <= 0.0:
        return math.inf, float(x_star)
    return 1.0 / float(c_star), float(x_star)


@dataclass
class Insertion:
    """Straight-line velocity profile matching the data at a collar's edges.

    The profile assigns trajectory speed -K*x0 + b to the label x0, so that
    the whole collar focuses at one point at time 1/K; the slope and offset
    are fixed by continuity with the outer data at x0_star -+ beta.
    """
    symbol: object
    x0_star: float
    beta: float
    p_l0: float
    p_r0: float

    def K(self, t=0.0):
        v_l = float(eval_dP_dp(self.symbol, self.x0_star, self.p_l0, t))
        v_r = float(eval_dP_dp(self.symbol, self.x0_star, self.p_r0, t))
        return (v_l - v_r) / (2.0 * self.beta)

    def b(self, t=0.0):
        v_l = float(eval_dP_dp(self.symbol, self.x0_star, self.p_l0, t))
        return v_l + self.K(t) * (self.x0_star - self.beta)

    def speed(self, x0, t=0.0):
        x0 = np.asarray(x0, dtype=float)
        return -self.K(t) * x0 + self.b(t)

    def collapse_time(self, t=0.0):
        k = self.K(t)
        return 1.0 / k if k > 0.0 else math.inf

    def u1(self, x0, t=0.0):
        """Gradient data generating the straight-line speeds (root solve)."""
        x0 = np.asarray(x0, dtype=float)
        target = np.atleast_1d(self.speed(x0, t))
        v_lo, v_hi = (float(eval_dP_dp(self.symbol, self.x0_star, p, t))
                      for p in P_BOX)
        for v in target:
            if not (v_lo < v < v_hi):
                raise RegularizeError(
                    f"target speed {v:.6g} is outside the symbol's range "
                    f"({v_lo:.6g}, {v_hi:.6g}) on the momentum box")
        out, _ = symbol.legendre_batch(self.symbol, self.x0_star, target, t)
        return out[0] if x0.ndim == 0 else out


def build_insertion(m, u0, x0_star, beta, T=0.0):
    """Fit the focusing straight-line profile across (x0*-beta, x0*+beta)."""
    if not m.spatially_homogeneous:
        raise RegularizeError(
            "the insertion profile needs a spatially homogeneous symbol")
    if not (beta > 0.0):
        raise RegularizeError("beta must be positive")
    u0 = _as_x_fn(u0, "u0")
    x0_star = float(x0_star)
    p_l0 = float(u0(x0_star - beta))
    p_r0 = float(u0(x0_star + beta))
    ins = Insertion(m, x0_star, float(beta), p_l0, p_r0)
    ins.u1(np.array([x0_star - beta, x0_star, x0_star + beta]))  # solvable
    return ins


def plateau_speed(m, x_l, p_l, x_r, p_r, t=0.0):
    """Jump speed from the symbol mismatch across the plateau endpoints."""
    dp = float(p_r) - float(p_l)
    if abs(dp) <= 1e-12:
        warnings.warn("degenerate jump: momenta coincide; "
                      "falling back to the one-sided group speed",
                      RuntimeWarning, stacklevel=2)
        return float(eval_dP_dp(m, x_l, p_l, t))
    num = float(eval_P(m, x_r, p_r, t)) - float(eval_P(m, x_l, p_l, t))
    return num / dp


# ---------------------------------------------------------------------------
# blended flow


def _window_integral(params, t_star, T):
    """W(t) = integral_0^t (1 - B((s - t*)/eps)) ds as a vectorized callable."""
    eps = params.epsilon
    if isinstance(params.B_profile, str) and params.B_profile in _RAMP_INTEGRALS:
        G = _RAMP_INTEGRALS[params.B_profile]
        g0 = G((0.0 - t_star) / eps)

        def W(t):
            return eps * (G((np.asarray(t, dtype=float) - t_star) / eps) - g0)

        return W
    B = params.blend
    h = min(eps / 256.0, T / 1024.0)
    n = min(int(np.ceil(T / h)), 2_000_000)
    tf = np.linspace(0.0, T, n + 1)
    g = 1.0 - B((tf - t_star) / eps)
    Wf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(tf))])
    return lambda t: np.interp(t, tf, Wf)


def _first_crossing(labs, vs, edge_fn, sign, T):
    """Earliest t in [0, T] with sign*(lab + t*v - edge(t)) >= 0, else inf."""
    t_abs = np.full(labs.shape, np.inf)
    if labs.size == 0:
        return t_abs
    tg = np.linspace(0.0, T, 2049)
    D = sign * (labs[:, None] + tg[None, :] * vs[:, None] - edge_fn(tg)[None, :])
    hit = D >= 0.0
    rows = np.where(hit.any(axis=1))[0]
    if rows.size == 0:
        return t_abs
    k = np.argmax(hit[rows], axis=1)
    immediate = k == 0
    t_abs[rows[immediate]] = 0.0
    solve = rows[~immediate]
    k = k[~immediate]
    lo, hi = tg[k - 1], tg[k]
    lv, vv = labs[solve], vs[solve]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        above = sign * (lv + mid * vv - edge_fn(mid)) >= 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    t_abs[solve] = 0.5 * (lo + hi)
    return t_abs


@dataclass
class BlendedFlow:
    """Closed-form trajectory family of the blended system on a label grid."""
    symbol: object
    insertion: Insertion
    params: RegularizationParams
    t_star: float
    T: float
    c: float
    A_shift: float
    x0: np.ndarray
    inside: np.ndarray
    p0: np.ndarray
    v: np.ndarray
    vprime: np.ndarray
    t_abs: np.ndarray
    monotone: bool
    min_inside_J_after: float
    window: object = field(repr=False, default=None)

    def _collar_positions(self, t, lab):
        """Collar labels riding the insertion, blended into the plateau."""
        w = float(self.window(t))
        return lab + self.A_shift * self.params.epsilon \
            + w * self.insertion.speed(lab) + (t - w) * self.c

    def positions(self, t):
        t = float(t)
        x = self.x0 + t * self.v
        x[self.inside] = self._collar_positions(t, self.x0[self.inside])
        x_el, x_er = self.edge_positions(t)
        gone = ~self.inside & (t >= self.t_abs)
        x[gone & (self.x0 < self.insertion.x0_star)] = x_el
        x[gone & (self.x0 > self.insertion.x0_star)] = x_er
        return x

    def edge_positions(self, t):
        ins = self.insertion
        pos = self._collar_positions(t, np.array([ins.x0_star - ins.beta,
                                                  ins.x0_star + ins.beta]))
        return float(pos[0]), float(pos[1])

    def inside_jacobian(self, t):
        return 1.0 - self.insertion.K() * float(self.window(t))

    def jacobians(self, t):
        t = float(t)
        J = 1.0 + t * self.vprime
        J[self.inside] = self.inside_jacobian(t)
        return J

    def active(self, t):
        return self.inside | (float(t) < self.t_abs)


def blended_fan(m, u0, params, T, x0_star=None, t_star=None,
                x_box=(-3.0, 3.0), n_rows=2401):
    """Build the blended trajectory family over [0, T].

    Collar rows follow the straight-line insertion until the window around
    the focusing time opens, then ride at the plateau speed; outer rows run
    plainly and freeze onto the collar's edge when they reach it.  The
    initial collar shift is auto-tuned (smallest value in [0, 100] keeping
    the flow map strictly increasing) unless params.A_shift pins it.
    """
    if m.time_dependent:
        raise RegularizeError("the blended flow needs a time-frozen symbol")
    if not m.spatially_homogeneous:
        raise RegularizeError(
            "the blended flow needs a spatially homogeneous symbol")
    u0 = _as_x_fn(u0, "u0")
    if t_star is None or x0_star is None:
        t_det, x_det = data_singularity(m, u0, x_box)
        t_star = t_det if t_star is None else float(t_star)
        x0_star = x_det if x0_star is None else float(x0_star)
    t_star, x0_star = float(t_star), float(x0_star)
    if not math.isfinite(t_star):
        raise RegularizeError("the data never focuses; nothing to blend")
    eps, beta = params.epsilon, params.beta
    edge_l, edge_r = x0_star - beta, x0_star + beta
    if edge_l <= x_box[0] or edge_r >= x_box[1]:
        raise RegularizeError("collar sticks out of the label box")

    ins = build_insertion(m, u0, x0_star, beta)
    lab = np.linspace(float(x_box[0]), float(x_box[1]), int(n_rows))
    for e in (edge_l, edge_r):
        lab[int(np.argmin(np.abs(lab - e)))] = e
    if np.any(np.diff(lab) <= 0.0):
        raise RegularizeError("label grid too coarse for the collar")
    inside = np.abs(lab - x0_star) <= beta * (1.0 + 1e-12)
    p0 = u0(lab)
    v = eval_dP_dp(m, lab, p0) + np.zeros_like(lab)
    vprime = np.gradient(v, lab)
    c = plateau_speed(m, edge_l, ins.p_l0, edge_r, ins.p_r0)
    W = _window_integral(params, t_star, T)
    K = ins.K()
    s_l = float(ins.speed(edge_l))
    s_r = float(ins.speed(edge_r))
    j_after = min(1.0 - K * float(W(t_star)), 1.0 - K * float(W(T)))

    left = ~inside & (lab < x0_star)
    right = ~inside & (lab > x0_star)
    s_in = ins.speed(lab[inside])

    # crossings are solved past T so the absorbed-set boundary can be
    # interpolated in time at T instead of clamping onto the label grid
    t_det = 1.5 * float(T) + 20.0 * eps

    def absorption(A):
        def edge_path(edge, s_e):  # as BlendedFlow.edge_positions, over t
            def x_e(t):
                w = W(t)
                return edge + A * eps + w * s_e + (t - w) * c
            return x_e

        t_abs = np.full(lab.shape, np.inf)
        for rows, edge, s_e, sign in ((left, edge_l, s_l, +1.0),
                                      (right, edge_r, s_r, -1.0)):
            t_abs[rows] = _first_crossing(lab[rows], v[rows],
                                          edge_path(edge, s_e), sign, t_det)
        return t_abs

    chk = np.unique(np.clip(np.concatenate([
        np.linspace(0.0, T, 129),
        t_star + eps * np.linspace(-20.0, 20.0, 81)]), 0.0, T))

    def is_monotone(A, t_abs):
        off = A * eps
        for t in chk:
            w = float(W(t))
            x = lab + t * v
            x[inside] = lab[inside] + off + w * s_in + (t - w) * c
            keep = inside | (t < t_abs)
            if np.any(np.diff(x[keep]) <= 0.0):
                return False
        return True

    if params.A_shift is not None:
        A = float(params.A_shift)
        t_abs = absorption(A)
        mono = is_monotone(A, t_abs) and j_after > 0.0
    else:
        A, t_abs, mono = None, None, False
        prev_bad = 0.0
        if j_after > 0.0:
            for cand in SHIFT_SCAN:
                ta = absorption(cand)
                if is_monotone(cand, ta):
                    A, t_abs, mono = cand, ta, True
                    break
                prev_bad = cand
        if A is None:
            raise RegularizeError(
                "no collar shift in [0, 100] keeps the blended flow "
                "one-to-one with a positive Jacobian")
        if A > 0.0:
            lo, hi = prev_bad, A
            for _ in range(20):
                mid = 0.5 * (lo + hi)
                ta = absorption(mid)
                if is_monotone(mid, ta):
                    hi, A, t_abs = mid, mid, ta
                else:
                    lo = mid
    return BlendedFlow(
        symbol=m, insertion=ins, params=params, t_star=t_star, T=float(T),
        c=c, A_shift=A, x0=lab, inside=inside, p0=p0, v=v, vprime=vprime,
        t_abs=t_abs, monotone=mono, min_inside_J_after=j_after, window=W)


# ---------------------------------------------------------------------------
# vanishing-window limit study


def _boundary_label(t_abs, labs, edge, t):
    """Absorbed-set boundary label at time t."""
    fin = np.isfinite(t_abs)
    if not np.any(fin):
        return float(edge)
    order = np.argsort(t_abs[fin])
    ta = t_abs[fin][order]
    lb = labs[fin][order]
    return float(np.interp(t, np.concatenate([[ta[0] - 1e-12], ta]),
                           np.concatenate([[edge], lb])))


def _plateau_mass(flow, cum, t):
    """Mass carried by the cluster: collar labels plus everything absorbed."""
    ins = flow.insertion
    edge_l, edge_r = ins.x0_star - ins.beta, ins.x0_star + ins.beta
    outs = ~flow.inside
    left = outs & (flow.x0 < ins.x0_star)
    right = outs & (flow.x0 > ins.x0_star)
    m_l = _boundary_label(flow.t_abs[left], flow.x0[left], edge_l, t)
    m_r = _boundary_label(flow.t_abs[right], flow.x0[right], edge_r, t)
    return float(cum(m_r) - cum(m_l))


def _strictly_decreasing(vals, floor=MONO_FLOOR):
    return all(b < a or b <= floor for a, b in zip(vals, vals[1:]))


@dataclass
class LimitStudy:
    """Window-shrinking family compared against the generalized solution."""
    epsilons: tuple
    betas: tuple
    sup_R_errors: tuple
    e_errors: tuple
    j_floors: tuple
    t_star: float
    x0_star: float
    e_ref_T: float
    shocked: bool
    monotone_R: bool
    monotone_e: bool

    def rows(self):
        return [(e, b, r, a, j) for e, b, r, a, j in zip(
            self.epsilons, self.betas, self.sup_R_errors,
            self.e_errors, self.j_floors)]


def limit_study(m, S0, rho0, eps_schedule, T, S0_prime=None, betas=None,
                A_shift=None, B_profile="tanh",
                x_box=(-3.0, 3.0), n_rows=2401, h_t=2.5e-3, store_every=2,
                collar_halfwidth=0.25, collar_lead=0.1,
                times=None, n_x=241):
    """Compare blended flows across a shrinking window schedule.

    For each epsilon the blended density is sampled on a fixed space-time
    grid and measured against the generalized solution away from a collar
    around the jump path; the cluster mass at T is measured against the
    jump amplitude.  Distances that fail to shrink strictly along the
    schedule are flagged with a warning.
    """
    eps = tuple(float(e) for e in eps_schedule)
    if len(eps) < 1 or any(e <= 0 for e in eps):
        raise RegularizeError("eps_schedule must hold positive widths")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise RegularizeError("eps_schedule must decrease strictly")
    betas = tuple(math.sqrt(e) for e in eps) if betas is None \
        else tuple(float(b) for b in betas)
    if len(betas) != len(eps):
        raise RegularizeError("betas must match the schedule length")
    rho_fn = _as_x_fn(rho0, "rho0")
    if S0_prime is None:
        u0_fn = functools.partial(expr.evaluate_at,
                                  expr.diff(expr.as_expression(S0)), t=0.0)
    else:
        u0_fn = _as_x_fn(S0_prime, "S0_prime")

    lab = np.linspace(float(x_box[0]), float(x_box[1]), int(n_rows))
    fan = characteristics.integrate_fan(
        m, S0, lab, T, h_t, store_every=store_every, S0_prime=S0_prime)
    gd = density.build_density(fan, rho0=rho0)
    t_star, x0_star = data_singularity(m, u0_fn, x_box)
    shocked = math.isfinite(t_star) and t_star < T

    cov_lo = float(fan.x[:, 0].max())
    cov_hi = float(fan.x[:, -1].min())
    pad = 0.02 * (cov_hi - cov_lo)
    xs = np.linspace(cov_lo + pad, cov_hi - pad, int(n_x))
    ts = np.linspace(T / 10.0, T, 10) if times is None \
        else np.asarray(times, dtype=float)
    # the reference density is sampled outside the collar only: at a fold
    # instant the collar may hold a point where J vanishes exactly
    R_ref, outer = [], []
    for t in ts:
        mask = np.ones(xs.shape, dtype=bool)
        if shocked and t >= t_star - collar_lead:
            for rec in gd.shocks:
                x_c = float(np.interp(t, rec.times, rec.x_s))
                mask &= np.abs(xs - x_c) > collar_halfwidth
        outer.append(xs[mask])
        R_ref.append(gd.fields(float(t), xs[mask])["R"])

    e_ref_T = sum(e for _, e in gd.shock_masses(T)) if shocked else 0.0
    xm = np.linspace(float(x_box[0]), float(x_box[1]), 40001)
    dens = rho_fn(xm)
    cum_tab = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xm))])

    def cum(x):
        return float(np.interp(x, xm, cum_tab))

    if not shocked:
        # the unshocked flow does not depend on epsilon: measure it once
        rho_lab = rho_fn(lab)
        sup = 0.0
        j_min = math.inf
        for t, R_t, x_out in zip(ts, R_ref, outer):
            st = fan.state_at(float(t))
            R_eps = np.interp(x_out, st["x"], rho_lab / np.abs(st["J"]))
            sup = max(sup, float(np.max(np.abs(R_eps - R_t))))
            j_min = min(j_min, float(st["J"].min()))
        sup_errs = [sup] * len(eps)
        e_errs = [0.0] * len(eps)
        j_floors = [j_min / e_i for e_i in eps]
    else:
        sup_errs, e_errs, j_floors = [], [], []
        for e_i, b_i in zip(eps, betas):
            params = RegularizationParams(e_i, b_i, A_shift, B_profile)
            flow = blended_fan(m, u0_fn, params, T, x0_star, t_star,
                               x_box, n_rows)
            if not flow.monotone:
                warnings.warn(
                    f"blended flow map not one-to-one at eps={e_i:g}",
                    RuntimeWarning, stacklevel=2)
            sup = 0.0
            for t, R_t, x_out in zip(ts, R_ref, outer):
                act = flow.active(t)
                x_act = flow.positions(float(t))[act]
                R_act = rho_fn(flow.x0[act]) / np.abs(flow.jacobians(t)[act])
                R_eps = np.interp(x_out, x_act, R_act)
                sup = max(sup, float(np.max(np.abs(R_eps - R_t))))
            sup_errs.append(sup)
            e_errs.append(abs(_plateau_mass(flow, cum, T) - e_ref_T))
            j_floors.append(flow.min_inside_J_after / e_i)

    mono_R = _strictly_decreasing(sup_errs)
    mono_e = _strictly_decreasing(e_errs)
    if len(eps) > 1 and not mono_R:
        warnings.warn("field distances do not shrink strictly along the "
                      "schedule", RuntimeWarning, stacklevel=2)
    if len(eps) > 1 and not mono_e:
        warnings.warn("amplitude distances do not shrink strictly along the "
                      "schedule", RuntimeWarning, stacklevel=2)
    return LimitStudy(
        epsilons=eps, betas=betas, sup_R_errors=tuple(sup_errs),
        e_errors=tuple(e_errs), j_floors=tuple(j_floors), t_star=t_star,
        x0_star=x0_star, e_ref_T=float(e_ref_T), shocked=shocked,
        monotone_R=mono_R, monotone_e=mono_e)


# ---------------------------------------------------------------------------
# backward-flow surgery


def flow_samples(m, x, p, S, t_start, duration, h_t=2.5e-3):
    """RK4 transport of (x, p, S) samples; duration may be negative."""
    y = {"x": np.array(x, dtype=float), "p": np.array(p, dtype=float),
         "S": np.array(S, dtype=float)}
    steps = max(1, int(math.ceil(abs(duration) / h_t)))
    h = duration / steps

    def rhs(t, y):
        xx, pp = y["x"], y["p"]
        dx = eval_dP_dp(m, xx, pp, t) + np.zeros_like(xx)
        return {"x": dx,
                "p": -(eval_dP_dx(m, xx, pp, t) + np.zeros_like(xx)),
                "S": pp * dx - (eval_P(m, xx, pp, t) + np.zeros_like(xx))}

    t = float(t_start)
    for _ in range(steps):
        y = characteristics.rk4_step(rhs, t, y, h)
        t += h
    if not all(np.all(np.isfinite(a)) for a in y.values()):
        raise RegularizeError("transported samples left the working range")
    return y["x"], y["p"], y["S"]


@dataclass
class SurgeryCurve:
    """Single-valued (x, p, S) data recovered by pulling a cut curve back."""
    t0: float
    t_cut: float
    x: np.ndarray
    p: np.ndarray
    S: np.ndarray
    a1: float
    a2: float
    x_cut: float
    n_left: int
    n_segment: int


def surgery(m, fan, t_star, beta, t1, n_segment=65, h_t=2.5e-3,
            records=None):
    """Cut the jump-connected curve at t*+beta and flow it back by t1.

    The curve consists of the one-sided branches on either side of the jump
    joined by a vertical momentum segment at the equal-action point; pulled
    back, it must be single-valued in x (otherwise t1 is too large).  The
    junction pre-images a1 < a2 mark where the recovered data loses
    smoothness.
    """
    if not (beta > 0.0 and t1 > 0.0):
        raise RegularizeError("beta and t1 must be positive")
    if n_segment < 3:
        raise RegularizeError("n_segment must be at least 3")
    t_cut = float(t_star) + float(beta)
    if t_cut > float(fan.times[-1]) + 1e-9:
        raise RegularizeError("fan ends before the cut time t*+beta")
    recs = manifold.track_shocks(fan) if records is None else records
    live = [r for r in recs
            if r.times is not None and r.times.size >= 2
            and r.t_birth <= t_cut + 1e-12
            and (r.t_end is None or r.t_end >= t_cut - 1e-12)]
    if not live:
        raise RegularizeError("no jump is alive at the cut time")
    cut = min(live, key=lambda r: r.t_birth).at(t_cut)
    x_cut = cut["x_s"]

    st = fan.state_at(t_cut)
    li = fan.x0 <= cut["x0_l"] - 1e-12
    ri = fan.x0 >= cut["x0_r"] + 1e-12
    xl, pl, Sl = st["x"][li], st["p"][li], st["S"][li]
    xr, pr, Sr = st["x"][ri], st["p"][ri], st["S"][ri]
    kl = xl < x_cut - 1e-9
    kr = xr > x_cut + 1e-9
    xl, pl, Sl = xl[kl], pl[kl], Sl[kl]
    xr, pr, Sr = xr[kr], pr[kr], Sr[kr]
    if xl.size < 2 or xr.size < 2:
        raise RegularizeError("cut curve has no room on one side of the jump")
    if np.any(np.diff(xl) <= 0.0) or np.any(np.diff(xr) <= 0.0):
        raise RegularizeError("one-sided branch is not single-valued "
                              "at the cut time")
    seg_p = np.linspace(cut["p_l"], cut["p_r"], int(n_segment))
    X = np.concatenate([xl, np.full(seg_p.shape, x_cut), xr])
    P = np.concatenate([pl, seg_p, pr])
    S = np.concatenate([Sl, np.full(seg_p.shape, cut["S_s"]), Sr])
    n_left = int(xl.size)

    xb, pb, Sb = flow_samples(m, X, P, S, t_cut, -float(t1), h_t)
    if np.any(np.diff(xb) <= 0.0):
        raise RegularizeError("t1 too large: the pulled-back curve folds over")
    a1 = float(xb[n_left])
    a2 = float(xb[n_left + int(n_segment) - 1])
    return SurgeryCurve(
        t0=t_cut - float(t1), t_cut=t_cut, x=xb, p=pb, S=Sb,
        a1=a1, a2=a2, x_cut=x_cut, n_left=n_left, n_segment=int(n_segment))


def restart_fan(m, curve, T, h_t, store_every=1, a_mode="auto", **kw):
    """Launch a fresh fan from a pulled-back curve (labels = positions)."""
    initial = {
        "x": curve.x.copy(),
        "p": curve.p.copy(),
        "S": curve.S.copy(),
        "J": np.ones_like(curve.x),
        "dp": np.gradient(curve.p, curve.x),
        "a_int": np.zeros_like(curve.x),
    }
    return characteristics.integrate_fan(
        m, None, curve.x, T, h_t, a_mode=a_mode, store_every=store_every,
        t0=curve.t0, initial=initial, **kw)
