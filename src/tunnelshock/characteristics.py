"""Characteristic fans for the momentum-space symbol.

Integrates, per initial label x0:

    x' = dP/dp        p' = -dP/dx        S' = p dP/dp - P
    (dx)' = P_px dx + P_pp dp            (dp)' = -P_xx dx - P_xp dp

with J = dx the projected Jacobian, plus the running integral of the
zero-order transport coefficient a (either -d2P/dxdp along the path or an
explicit field f(x, u) with u = dP/dp).  Classic fourth-order Runge-Kutta
with a fixed step and a step-doubling local error monitor.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expr, symbol

STEP_TOL = 1e-8  # per-step local error bound (step-doubling estimate)

_FIELDS = ("x", "p", "S", "J", "dp", "a_int")


class CharacteristicsError(ValueError):
    pass


class StepSizeError(CharacteristicsError):
    """Local error estimate exceeded the per-step tolerance; reduce h_t."""


@dataclass
class Fan:
    symbol: object
    x0: np.ndarray
    times: np.ndarray
    x: np.ndarray      # (n_times, n_rows)
    p: np.ndarray
    S: np.ndarray
    J: np.ndarray
    dp: np.ndarray     # variational partner of J
    a_int: np.ndarray
    escape_time: np.ndarray
    h_t: float
    a_mode: object = "auto"
    working_box: tuple = None
    rhs: object = field(default=None, repr=False)

    @property
    def n_rows(self):
        return self.x0.size

    def index_of_time(self, t, tol=1e-9):
        idx = int(round((t - self.times[0]) / (self.times[1] - self.times[0])))
        if idx < 0 or idx >= self.times.size or abs(self.times[idx] - t) > tol:
            raise CharacteristicsError(f"time {t!r} is not on the stored grid")
        return idx

    def state(self, i_t):
        return {f: getattr(self, f)[i_t].copy() for f in _FIELDS}

    def node_rhs(self, k):
        """Time derivatives of the stored state at node k (cached)."""
        cache = getattr(self, "_node_rhs_cache", None)
        if cache is None:
            cache = {}
            self._node_rhs_cache = cache
        if k not in cache:
            cache[k] = self.rhs(float(self.times[k]), self.state(k))
        return cache[k]

    def state_at(self, t):
        """Cubic-Hermite dense output between stored nodes."""
        t = float(t)
        t0, t1 = self.times[0], self.times[-1]
        if not (min(t0, t1) - 1e-12 <= t <= max(t0, t1) + 1e-12):
            raise CharacteristicsError(f"time {t!r} outside the fan range")
        dt = self.times[1] - self.times[0]
        k = int(np.clip(np.floor((t - t0) / dt), 0, self.times.size - 2))
        ta, tb = self.times[k], self.times[k + 1]
        ya, yb = self.state(k), self.state(k + 1)
        fa = self.node_rhs(k)
        fb = self.node_rhs(k + 1)
        s = (t - ta) / (tb - ta)
        return {f: _cubic_hermite(s, tb - ta, ya[f], yb[f], fa[f], fb[f])
                for f in _FIELDS}


def _cubic_hermite(s, h, ya, yb, fa, fb):
    """Cubic Hermite interpolant at fraction s of a step of length h, from
    the end values ya, yb and the end slopes fa, fb."""
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * ya + h10 * h * fa + h01 * yb + h11 * h * fb


def _make_a_eval(m, a_mode):
    """Damping a(x, p, u, t), broadcast to the shape of x: -d2P/dxdp along
    the path for "auto", else an expression in (x, u)."""
    if a_mode == "auto":
        def a_eval(x, p, u, t):
            return -symbol.eval_d2P_dxdp(m, x, p, t) + np.zeros_like(x)
        return a_eval
    a_mode = expr.as_expression(a_mode, ("x", "u"))
    if isinstance(a_mode, expr.Expression):
        def a_eval(x, p, u, t):
            return expr.evaluate_at(a_mode, x, u=u)
        return a_eval
    raise CharacteristicsError(f"bad a_mode {a_mode!r}")


def hamiltonian_rhs(m, a_mode="auto"):
    """RHS closure for the characteristic + variational + transport system."""
    a_eval = _make_a_eval(m, a_mode)

    def rhs(t, y):
        x, p = y["x"], y["p"]
        Pp = symbol.eval_dP_dp(m, x, p, t)
        Px = symbol.eval_dP_dx(m, x, p, t)
        Ppp = symbol.eval_hess(m, x, p, t)
        Pxp = symbol.eval_d2P_dxdp(m, x, p, t)
        Pxx = symbol.eval_d2P_dx2(m, x, p, t)
        P = symbol.eval_P(m, x, p, t)
        return {
            "x": Pp,
            "p": -Px,
            "S": p * Pp - P,
            "J": Pxp * y["J"] + Ppp * y["dp"],
            "dp": -Pxx * y["J"] - Pxp * y["dp"],
            "a_int": a_eval(x, p, Pp, t),
        }

    return rhs


def rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    y2 = {f: y[f] + 0.5 * h * k1[f] for f in y}
    k2 = rhs(t + 0.5 * h, y2)
    y3 = {f: y[f] + 0.5 * h * k2[f] for f in y}
    k3 = rhs(t + 0.5 * h, y3)
    y4 = {f: y[f] + h * k3[f] for f in y}
    k4 = rhs(t + h, y4)
    return {f: y[f] + (h / 6.0) * (k1[f] + 2 * k2[f] + 2 * k3[f] + k4[f]) for f in y}


def monitored_step(rhs, t, y, h, tol=STEP_TOL):
    """One RK4 step advanced as two half steps, rejected if the step-doubling
    estimate against the single full step exceeds ``tol``."""
    full = rk4_step(rhs, t, y, h)
    half = rk4_step(rhs, t, y, 0.5 * h)
    two = rk4_step(rhs, t + 0.5 * h, half, 0.5 * h)
    err = 0.0
    for f in y:
        scale = 1.0 + np.abs(two[f])
        err = max(err, float(np.max(np.abs(full[f] - two[f]) / scale)))
    if err > tol:
        raise StepSizeError(
            f"local error {err:.3e} exceeds {tol:.1e} at t={t:.6g}; reduce h_t")
    return two


def integrate_fan(m, S0, x0, T, h_t, a_mode="auto", store_every=1,
                  working_box=None, S0_prime=None, S0_second=None,
                  t0=0.0, initial=None, step_tol=STEP_TOL):
    """Integrate a fan of characteristics from t0 to t0+T.

    Args:
        m: SymbolModel.
        S0: initial action Expression (ignored when ``initial`` is given).
        x0: increasing array of initial labels.
        T, h_t: horizon and integration step; every ``store_every``-th state
            is stored, and T/h_t must be a whole multiple of store_every.
        a_mode: "auto" for -d2P/dxdp along paths, or an expression in (x, u).
        working_box: optional (lo, hi); rows leaving it freeze with their
            escape time recorded instead of aborting the fan.
        S0_prime, S0_second: optional overrides for S0' and S0''; by
            default they are the exact derivatives of S0 and of S0_prime.
        initial: optional dict of starting fields (x, p, S, J, dp, a_int)
            for fans launched from a prepared curve rather than S0.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise CharacteristicsError("x0 must be a 1-d array of labels")
    if np.any(np.diff(x0) <= 0):
        raise CharacteristicsError("x0 labels must increase strictly")
    n_steps = int(round(T / h_t))
    if abs(n_steps * h_t - T) > 1e-9 * max(1.0, abs(T)):
        raise CharacteristicsError("T must be a whole number of h_t steps")
    if n_steps % store_every != 0:
        raise CharacteristicsError("store_every must divide the step count")

    if initial is None:
        S0 = expr.as_expression(S0)
        S0_prime = (expr.diff(S0) if S0_prime is None
                    else expr.as_expression(S0_prime))
        S0_second = (expr.diff(S0_prime) if S0_second is None
                     else expr.as_expression(S0_second))
        y = {
            "x": x0.copy(),
            "p": expr.evaluate_at(S0_prime, x0, t=0.0),
            "S": expr.evaluate_at(S0, x0, t=0.0),
            "J": np.ones_like(x0),
            "dp": expr.evaluate_at(S0_second, x0, t=0.0),
            "a_int": np.zeros_like(x0),
        }
    else:
        y = {f: np.asarray(initial[f], dtype=float).copy() for f in _FIELDS}

    rhs = hamiltonian_rhs(m, a_mode)
    n_stored = n_steps // store_every + 1
    store = {f: np.empty((n_stored, x0.size)) for f in _FIELDS}
    for f in _FIELDS:
        store[f][0] = y[f]
    times = t0 + h_t * store_every * np.arange(n_stored)

    escape_time = np.full(x0.size, np.inf)
    active = np.ones(x0.size, dtype=bool)

    for k in range(n_steps):
        t = t0 + k * h_t
        y_new = monitored_step(rhs, t, y, h_t, tol=step_tol)
        if working_box is not None:
            lo, hi = working_box
            out = active & ((y_new["x"] < lo) | (y_new["x"] > hi))
            if np.any(out):
                escape_time[out] = t + h_t
                active = active & ~out
        if working_box is not None and not np.all(active):
            for f in _FIELDS:
                y[f] = np.where(active, y_new[f], y[f])
        else:
            y = y_new
        if (k + 1) % store_every == 0:
            i = (k + 1) // store_every
            for f in _FIELDS:
                store[f][i] = y[f]

    return Fan(symbol=m, x0=x0, times=times, escape_time=escape_time,
               h_t=h_t, a_mode=a_mode, working_box=working_box, rhs=rhs,
               **store)


def jacobian_check(fan, i_t=None):
    """Max relative deviation between variational J and the centered
    divided difference of x over neighboring labels."""
    if fan.n_rows < 3:
        raise CharacteristicsError("fan too small for a Jacobian check (<3 rows)")
    idx = range(fan.times.size) if i_t is None else [i_t]
    worst = 0.0
    for i in idx:
        x = fan.x[i]
        fd = (x[2:] - x[:-2]) / (fan.x0[2:] - fan.x0[:-2])
        jv = fan.J[i][1:-1]
        dev = np.abs(jv - fd) / np.maximum(np.abs(fd), 1e-12)
        worst = max(worst, float(np.max(dev)))
    return worst


def fan_to_csv(fan, path):
    """Dump (t, x0, x, p, S, J, a_int) rows, time-major then label order,
    with the 17-digit float text of ``textio.format_float``."""
    n_t = fan.times.size
    table = np.column_stack(
        (np.repeat(fan.times, fan.n_rows), np.tile(fan.x0, n_t))
        + tuple(getattr(fan, f).ravel() for f in ("x", "p", "S", "J", "a_int")))
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header="t,x0,x,p,S,J,a_int", comments="")
