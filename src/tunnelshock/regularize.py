"""Bijective smoothing of the focusing flow near its first fold.

Just ahead of the first fold the label fan is modified on a thin collar:
collar trajectories are restarted on a straight-line velocity profile that
focuses them at a common point, and the focusing is blended, over a time
window of width ``epsilon``, into rigid transport at the jump speed.  The
flow map then stays strictly increasing while its Jacobian bottoms out at
O(epsilon) instead of vanishing; ``blended_fan`` checks both and raises a
RegularizeError where either fails.  Rows outside the collar run plainly
until they land on the moving cluster and are absorbed by it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import characteristics
from . import density
from . import expr
from . import roots
from . import symbol
# bench/tracing.py wraps these by-name imports; eval_P and eval_dP_dx are
# unused here
from .symbol import (eval_P, eval_dP_dp, eval_dP_dx, eval_hess,  # noqa: F401
                     P_BOX)


MONO_FLOOR = 1e-7      # error level under which schedule decrease is moot
# the reference density is compared on N_X points at N_TIMES instants in
# (0, T], outside a collar of half-width COLLAR_HALFWIDTH around each shock
# from COLLAR_LEAD before the focal time on
N_X = 241
N_TIMES = 10
COLLAR_HALFWIDTH = 0.25
COLLAR_LEAD = 0.1
# label rows per block of _first_crossing's (rows, 2049) crossing table:
# about 1 MB, where a limit-study draw's side at once took about 10 MB
CROSSING_BLOCK = 64


class RegularizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# blend profile B(z) = (1 + tanh z)/2, the logistic curve 1/(1 + exp(-2z))


def _log_cosh(z):
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0)


def _ramp_integral(z):
    # antiderivative of 1 - B, vanishing at z = 0
    return 0.5 * (z - _log_cosh(z))


@dataclass(frozen=True)
class RegularizationParams:
    """Window width and collar half-width."""
    epsilon: float
    beta: float

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise RegularizeError("epsilon must be positive")
        if not (self.beta > 0.0):
            raise RegularizeError("beta must be positive")
        if self.epsilon > self.beta ** 2 * (1.0 + 1e-12):
            raise RegularizeError(
                "window width must satisfy epsilon <= beta**2")


# ---------------------------------------------------------------------------
# straight-line insertion


def _x_expression(f, what):
    """Parse text in x; an Expression passes through."""
    f = expr.as_expression(f)
    if not isinstance(f, expr.Expression):
        raise RegularizeError(f"{what} must be an expression in x")
    return f


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
    K: float
    b: float

    def speed(self, x0):
        x0 = np.asarray(x0, dtype=float)
        return -self.K * x0 + self.b

    def u1(self, x0):
        """Gradient data generating the straight-line speeds (root solve)."""
        x0 = np.asarray(x0, dtype=float)
        target = np.atleast_1d(self.speed(x0))
        v_lo, v_hi = (float(eval_dP_dp(self.symbol, self.x0_star, p))
                      for p in P_BOX)
        for v in target:
            if not (v_lo < v < v_hi):
                raise RegularizeError(
                    f"target speed {v:.6g} is outside the symbol's range "
                    f"({v_lo:.6g}, {v_hi:.6g}) on the momentum box")
        out, _ = symbol.legendre_batch(self.symbol, self.x0_star, target)
        return out[0] if x0.ndim == 0 else out


def build_insertion(m, u0, x0_star, beta):
    """Fit the focusing straight-line profile across (x0*-beta, x0*+beta)."""
    if not m.spatially_homogeneous:
        raise RegularizeError(
            "the insertion profile needs a spatially homogeneous symbol")
    if not (beta > 0.0):
        raise RegularizeError("beta must be positive")
    u0 = _x_expression(u0, "u0")
    x0_star, beta = float(x0_star), float(beta)
    p_l0 = float(expr.evaluate_at(u0, x0_star - beta))
    p_r0 = float(expr.evaluate_at(u0, x0_star + beta))
    v_l = float(eval_dP_dp(m, x0_star, p_l0))
    v_r = float(eval_dP_dp(m, x0_star, p_r0))
    K = (v_l - v_r) / (2.0 * beta)
    b = v_l + K * (x0_star - beta)
    ins = Insertion(m, x0_star, beta, p_l0, p_r0, K, b)
    ins.u1(np.array([x0_star - beta, x0_star, x0_star + beta]))  # solvable
    return ins


# ---------------------------------------------------------------------------
# blended flow


def _window_integral(eps, t_star):
    """W(t) = integral_0^t (1 - B((s - t*)/eps)) ds as a vectorized callable,
    from the closed-form ramp integral."""
    g0 = _ramp_integral((0.0 - t_star) / eps)

    def W(t):
        return eps * (_ramp_integral((np.asarray(t, dtype=float) - t_star)
                                     / eps) - g0)

    return W


def _collar_x(lab, speed, t, w, c):
    """Collar trajectory: insertion speed over the window integral w = W(t),
    plateau speed c for the rest of the time."""
    return lab + w * speed + (t - w) * c


def _first_crossing(labs, vs, edge_fn, sign, T):
    """Earliest t in [0, T] with sign*(lab + t*v - edge(t)) >= 0, else inf."""
    t_abs = np.full(labs.shape, np.inf)
    if labs.size == 0:
        return t_abs
    tg = np.linspace(0.0, T, 2049)
    edge = edge_fn(tg)
    # first grid node with a hit per row, -1 for none; rows are independent,
    # so each block of them is built in place in one buffer
    first = np.empty(labs.shape, dtype=int)
    buf = np.empty((min(labs.size, CROSSING_BLOCK), tg.size))
    for r in range(0, labs.size, CROSSING_BLOCK):
        blk = slice(r, r + CROSSING_BLOCK)
        D = buf[:labs[blk].size]
        np.multiply(tg[None, :], vs[blk, None], out=D)
        D += labs[blk, None]
        D -= edge[None, :]
        D *= sign
        hit = D >= 0.0
        first[blk] = np.where(hit.any(axis=1), np.argmax(hit, axis=1), -1)
    rows = np.where(first >= 0)[0]
    if rows.size == 0:
        return t_abs
    k = first[rows]
    immediate = k == 0
    t_abs[rows[immediate]] = 0.0
    solve = rows[~immediate]
    k = k[~immediate]
    lv, vv = labs[solve], vs[solve]
    lo, hi = roots.bisect(lambda t: sign * (lv + t * vv - edge_fn(t)) < 0.0,
                          tg[k - 1], tg[k], 48)
    t_abs[solve] = 0.5 * (lo + hi)
    return t_abs


@dataclass
class BlendedFlow:
    """Closed-form trajectory family of the blended system on a label grid."""
    insertion: Insertion
    params: RegularizationParams
    t_star: float
    T: float
    c: float
    x0: np.ndarray
    inside: np.ndarray
    v: np.ndarray
    vprime: np.ndarray
    t_abs: np.ndarray
    min_inside_J_after: float
    window: object = field(repr=False, default=None)

    def _collar_positions(self, t, lab):
        """Collar labels riding the insertion, blended into the plateau."""
        return _collar_x(lab, self.insertion.speed(lab), t,
                         float(self.window(t)), self.c)

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
        return 1.0 - self.insertion.K * float(self.window(t))

    def jacobians(self, t):
        t = float(t)
        J = 1.0 + t * self.vprime
        J[self.inside] = self.inside_jacobian(t)
        return J

    def active(self, t):
        return self.inside | (float(t) < self.t_abs)


def blended_fan(m, u0, params, T, x0_star, t_star,
                x_box=(-3.0, 3.0), n_rows=2401):
    """Build the blended trajectory family over [0, T] around the focal
    point (t_star, x0_star).

    Collar rows follow the straight-line insertion until the window around
    the focusing time opens, then ride at the plateau speed; outer rows run
    plainly and freeze onto the collar's edge when they reach it.  Where
    this flow stops being one-to-one, a RegularizeError says where: the
    collar Jacobian after t_star is not positive, or two active rows meet
    at a check time.
    """
    if not m.spatially_homogeneous:
        raise RegularizeError(
            "the blended flow needs a spatially homogeneous symbol")
    u0 = _x_expression(u0, "u0")
    t_star, x0_star = float(t_star), float(x0_star)
    if not math.isfinite(t_star):
        raise RegularizeError("the data never focuses; nothing to blend")
    eps, beta = params.epsilon, params.beta
    edge_l, edge_r = x0_star - beta, x0_star + beta
    if edge_l <= x_box[0] or edge_r >= x_box[1]:
        raise RegularizeError("collar sticks out of the label box")

    ins = build_insertion(m, u0, x0_star, beta)
    K = ins.K
    if not K > 0.0:
        raise RegularizeError(
            f"the data do not compress across the collar around "
            f"x0*={x0_star:g} (focusing rate {K:.6g}); nothing to blend")
    lab = np.linspace(float(x_box[0]), float(x_box[1]), int(n_rows))
    for e in (edge_l, edge_r):
        lab[int(np.argmin(np.abs(lab - e)))] = e
    if np.any(np.diff(lab) <= 0.0):
        raise RegularizeError("label grid too coarse for the collar")
    inside = np.abs(lab - x0_star) <= beta * (1.0 + 1e-12)
    p0 = expr.evaluate_at(u0, lab)
    v = eval_dP_dp(m, lab, p0) + np.zeros_like(lab)
    # dv/dx0 = P_pp * u0' for a spatially homogeneous symbol
    vprime = eval_hess(m, lab, p0) * expr.evaluate_at(expr.diff(u0), lab)
    c = float(symbol.jump_speed(m, x0_star, ins.p_l0, ins.p_r0))
    W = _window_integral(eps, t_star)
    j_after = min(1.0 - K * float(W(t_star)), 1.0 - K * float(W(T)))
    if not j_after > 0.0:
        raise RegularizeError(
            f"the collar Jacobian falls to {j_after:.3g} after the focal "
            f"time t*={t_star:g}; the blended flow folds")

    # crossings are solved past T so the absorbed-set boundary can be
    # interpolated in time at T instead of clamping onto the label grid
    t_det = 1.5 * float(T) + 20.0 * eps
    t_abs = np.full(lab.shape, np.inf)
    for rows, edge, sign in ((~inside & (lab < x0_star), edge_l, +1.0),
                             (~inside & (lab > x0_star), edge_r, -1.0)):
        s_e = float(ins.speed(edge))
        # the edge's path over t, as in BlendedFlow.edge_positions
        t_abs[rows] = _first_crossing(
            lab[rows], v[rows], lambda t: _collar_x(edge, s_e, t, W(t), c),
            sign, t_det)
    flow = BlendedFlow(
        insertion=ins, params=params, t_star=t_star, T=float(T), c=c,
        x0=lab, inside=inside, v=v, vprime=vprime, t_abs=t_abs,
        min_inside_J_after=j_after, window=W)

    chk = np.unique(np.clip(np.concatenate([
        np.linspace(0.0, T, 129),
        t_star + eps * np.linspace(-20.0, 20.0, 81)]), 0.0, T))
    for t in chk:
        if np.any(np.diff(flow.positions(t)[flow.active(t)]) <= 0.0):
            raise RegularizeError(
                f"the blended flow stops being one-to-one at t={t:g}")
    return flow


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


def _cluster_labels(flow, t):
    """Label interval [m_l, m_r] carried by the cluster at time t: the
    collar plus everything absorbed."""
    ins = flow.insertion
    edge_l, edge_r = ins.x0_star - ins.beta, ins.x0_star + ins.beta
    outs = ~flow.inside
    left = outs & (flow.x0 < ins.x0_star)
    right = outs & (flow.x0 > ins.x0_star)
    m_l = _boundary_label(flow.t_abs[left], flow.x0[left], edge_l, t)
    m_r = _boundary_label(flow.t_abs[right], flow.x0[right], edge_r, t)
    return m_l, m_r


def _plateau_mass(flow, rho0, t):
    """Mass of rho0 over the cluster's labels, by the label rule of
    `GeneralizedDensity.initial_mass` on the label knots inside them."""
    m_l, m_r = _cluster_labels(flow, t)
    lab = flow.x0[(flow.x0 > m_l) & (flow.x0 < m_r)]
    knots = np.concatenate([[m_l], lab, [m_r]])
    nodes, w = density._gauss(knots[:-1], knots[1:],
                              2 * density.GAUSS_POINTS)
    return float(np.sum(expr.evaluate_at(rho0, nodes) * w))


def _warn(message):
    # logging is imported on first use: loading it adds about 5 ms to every
    # start-up, and only a schedule whose distances do not shrink needs it
    import logging
    logging.getLogger("tunnelshock").warning(message)


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
                x_box=(-3.0, 3.0), n_rows=2401, h_t=2.5e-3, store_every=2):
    """Compare blended flows across a shrinking window schedule.

    The focal point is the birth of the fan's first shock.  For each
    epsilon the blended density is sampled on a fixed space-time grid and
    measured against the generalized solution away from a collar around
    the jump path; the cluster mass at T is measured against the jump
    amplitude.  Distances that fail to shrink strictly along the schedule
    are flagged with a warning on the ``tunnelshock`` logger.
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
    # every (epsilon, beta) pair is checked before any fan is integrated
    schedule = [RegularizationParams(e, b) for e, b in zip(eps, betas)]
    rho0 = _x_expression(rho0, "rho0")
    u0 = expr.diff(expr.as_expression(S0)) if S0_prime is None \
        else _x_expression(S0_prime, "S0_prime")

    lab = np.linspace(float(x_box[0]), float(x_box[1]), int(n_rows))
    fan = characteristics.integrate_fan(
        m, S0, lab, T, h_t, store_every=store_every, S0_prime=S0_prime)
    gd = density.build_density(fan, rho0=rho0)
    # shock 0 is born at the earliest fold
    t_star, x0_star = (gd.shocks[0].t_birth, gd.shocks[0].x0_birth) \
        if gd.shocks else (math.inf, math.nan)
    shocked = math.isfinite(t_star) and t_star < T

    cov_lo, cov_hi = fan.window()
    pad = 0.02 * (cov_hi - cov_lo)
    xs = np.linspace(cov_lo + pad, cov_hi - pad, N_X)
    ts = np.linspace(T / N_TIMES, T, N_TIMES)
    # the reference density is sampled outside the collar only: at a fold
    # instant the collar may hold a point where J vanishes exactly
    R_ref, outer = [], []
    for t in ts:
        mask = np.ones(xs.shape, dtype=bool)
        if shocked and t >= t_star - COLLAR_LEAD:
            for rec in gd.shocks:
                # a shock with no sample yet sits at its birth point
                x_c = rec.at(t)["x_s"] if rec.sampled else rec.x_birth
                mask &= np.abs(xs - x_c) > COLLAR_HALFWIDTH
        outer.append(xs[mask])
        R_ref.append(gd.fields(float(t), xs[mask])["R"])

    e_ref_T = sum(e for _, e in gd.shock_masses(T)) if shocked else 0.0

    if not shocked:
        # the unshocked flow does not depend on epsilon: measure it once
        rho_lab = expr.evaluate_at(rho0, lab)
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
        for params in schedule:
            flow = blended_fan(m, u0, params, T, x0_star, t_star,
                               x_box, n_rows)
            sup = 0.0
            for t, R_t, x_out in zip(ts, R_ref, outer):
                act = flow.active(t)
                x_act = flow.positions(float(t))[act]
                R_act = expr.evaluate_at(rho0, flow.x0[act]) \
                    / np.abs(flow.jacobians(t)[act])
                R_eps = np.interp(x_out, x_act, R_act)
                sup = max(sup, float(np.max(np.abs(R_eps - R_t))))
            sup_errs.append(sup)
            e_errs.append(abs(_plateau_mass(flow, rho0, T) - e_ref_T))
            j_floors.append(flow.min_inside_J_after / params.epsilon)

    mono_R = _strictly_decreasing(sup_errs)
    mono_e = _strictly_decreasing(e_errs)
    if len(eps) > 1 and not mono_R:
        _warn("field distances do not shrink strictly along the schedule")
    if len(eps) > 1 and not mono_e:
        _warn("amplitude distances do not shrink strictly along the "
              "schedule")
    return LimitStudy(
        epsilons=eps, betas=betas, sup_R_errors=tuple(sup_errs),
        e_errors=tuple(e_errs), j_floors=tuple(j_floors), t_star=t_star,
        x0_star=x0_star, e_ref_T=float(e_ref_T), shocked=shocked,
        monotone_R=mono_R, monotone_e=mono_e)
