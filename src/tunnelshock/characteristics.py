"""Characteristic fans for the momentum-space symbol.

Integrates, per initial label x0:

    x' = dP/dp        p' = -dP/dx        S' = p dP/dp - P
    (dx)' = P_px dx + P_pp dp            (dp)' = -P_xx dx - P_xp dp

with J = dx the projected Jacobian, plus the running integral of the
symbol's zero-order transport coefficient a = -d2P/dxdp along the path.
Classic fourth-order Runge-Kutta with a fixed step and a step-doubling
local error monitor.  A symbol whose coefficients do not name x (not even
as ``0*x^2``) has straight characteristics: one RHS evaluation and a
constant increment per step give its fan, bit for bit.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import expr, symbol
from .textio import format_float

STEP_TOL = 1e-8  # per-step local error bound (step-doubling estimate)
# node derivatives a fan keeps: state_at reads nodes k and k+1, and a
# time-ordered sweep (identity_residuals' sorted nodes) moves on by one
NODE_RHS_KEPT = 4

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
    h_t: float
    rhs: object = field(default=None, repr=False)
    # caches of the last few nodes and slices asked for; init=False gives
    # a `dataclasses.replace` copy empty ones
    _node_rhs_cache: dict = field(default_factory=dict, init=False, repr=False)
    _slice_cache: dict = field(default_factory=dict, init=False, repr=False)
    _label_stencil: tuple = field(default=None, init=False, repr=False)

    @property
    def n_rows(self):
        return self.x0.size

    def index_of_time(self, t, tol=1e-9):
        idx = int(round((t - self.times[0]) / (self.times[1] - self.times[0])))
        if idx < 0 or idx >= self.times.size or abs(self.times[idx] - t) > tol:
            raise CharacteristicsError(f"time {t!r} is not on the stored grid")
        return idx

    def window(self, t=None):
        """The label-tracked window [x(t; x0[0]), x(t; x0[-1])] at the
        stored time t, or its intersection over every stored time.  Its
        ends ride the first and last characteristic; outside it only
        branches that folded back cover a point, and the true minimizer
        there may start from a label outside the box."""
        if t is None:
            return float(self.x[:, 0].max()), float(self.x[:, -1].min())
        i_t = self.index_of_time(t)
        return float(self.x[i_t, 0]), float(self.x[i_t, -1])

    def state(self, i_t):
        return {f: getattr(self, f)[i_t].copy() for f in _FIELDS}

    def node_rhs(self, k):
        """Time derivatives of the stored state at node k; the last
        NODE_RHS_KEPT nodes asked for are kept, the oldest evicted first."""
        cache = self._node_rhs_cache
        if k not in cache:
            y = np.stack([getattr(self, f)[k] for f in _FIELDS])
            cache[k] = dict(zip(_FIELDS, self.rhs(y)))
            if len(cache) > NODE_RHS_KEPT:
                del cache[next(iter(cache))]
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


def damping(m, x, p):
    """The symbol's zero-order transport coefficient a = -d2P/dxdp at
    (x, p), broadcast to the shape of x."""
    return -symbol.eval_d2P_dxdp(m, x, p) + np.zeros_like(x)


def hamiltonian_rhs(m):
    """RHS closure for the characteristic + variational + transport system
    on a state array with one row per field of ``_FIELDS``; the symbol is
    autonomous and every operation is label-local, so the closure takes no
    time and the columns need not be one fan's labels.  Each call takes
    the symbol's six derivatives in one pass (`symbol.derivatives`)."""

    def rhs(y):
        x, p, _, J, dp, _ = y
        Pp, Px, Ppp, Pxp, Pxx, P = symbol.derivatives(m, x, p)
        # rows Pp, -Px, p*Pp - P, Pxp*J + Ppp*dp, -Pxx*J - Pxp*dp and
        # damping(m, x, p) with Pxp reused, each written in place
        out = np.empty(y.shape)
        out[0] = Pp
        np.negative(Px, out=out[1])
        np.subtract(np.multiply(p, Pp, out=out[2]), P, out=out[2])
        np.add(np.multiply(Pxp, J, out=out[3]), Ppp * dp, out=out[3])
        np.subtract(np.multiply(np.negative(Pxx), J, out=out[4]), Pxp * dp,
                    out=out[4])
        np.add(np.negative(Pxp), 0.0, out=out[5])
        return out

    return rhs


def _rk4(rhs, y, steps, k1, stage, acc, out):
    """The RK4 step of `rk4_step` from y with first stage k1, written to
    ``out``; ``steps`` holds h/2, h and h/6, numbers or arrays that
    broadcast against y, and ``stage`` and ``acc`` are work arrays shaped
    like y."""
    hh, h, h6 = steps
    np.add(y, np.multiply(hh, k1, out=stage), out=stage)
    k2 = rhs(stage)
    np.add(y, np.multiply(hh, k2, out=stage), out=stage)
    k3 = rhs(stage)
    np.add(y, np.multiply(h, k3, out=stage), out=stage)
    k4 = rhs(stage)
    np.add(k1, np.multiply(2, k2, out=acc), out=acc)
    np.add(acc, np.multiply(2, k3, out=stage), out=acc)
    np.add(acc, k4, out=acc)
    return np.add(y, np.multiply(h6, acc, out=acc), out=out)


def rk4_step(rhs, y, h, k1=None):
    """One classic RK4 step of the autonomous system; ``h`` is a number or
    one step per column, and ``k1`` may be given as ``rhs(y)``."""
    if k1 is None:
        k1 = rhs(y)
    return _rk4(rhs, y, (0.5 * h, h, h / 6.0), k1, np.empty(y.shape),
                np.empty(y.shape), np.empty(y.shape))


# work arrays of the last width `monitored_step` ran at; a call takes them
# out while it runs, so a nested or concurrent step never shares them
_STEP_WORK = {}


def monitored_step(rhs, t, y, h):
    """One RK4 step advanced as two half steps, rejected if the step-doubling
    estimate against the single full step exceeds ``STEP_TOL``.  The full
    step and the first half step share k1 and run side by side as one step
    over the columns twice over: 8 RHS calls instead of 12.  Stage states,
    step factors and sums go to work arrays kept across the steps of one
    width; the state returned is a new array."""
    n = y.shape[1]
    w = _STEP_WORK.pop(n, None)
    if w is None:
        w = (np.empty((8, y.shape[0], 2 * n)), np.empty((3,) + y.shape))
    y2, k12, stage2, acc2, both, *steps = w[0]
    stage, acc, dev = w[1]
    k1 = rhs(y)
    y2[:, :n] = y2[:, n:] = y
    k12[:, :n] = k12[:, n:] = k1
    # h/2, h and h/6 of the full step on the first n columns, of the half
    # step on the last n
    halved = (0.5 * (0.5 * h), 0.5 * h, (0.5 * h) / 6.0)
    for step, f, g in zip(steps, (0.5 * h, h, h / 6.0), halved):
        step[:, :n], step[:, n:] = f, g
    _rk4(rhs, y2, steps, k12, stage2, acc2, both)
    half = both[:, n:]
    two = _rk4(rhs, half, halved, rhs(half), stage, acc, np.empty(y.shape))
    np.abs(np.subtract(both[:, :n], two, out=dev), out=dev)
    np.divide(dev, np.add(1.0, np.abs(two, out=acc), out=acc), out=dev)
    # worst field; a NaN one is skipped
    err = max([0.0] + dev.max(axis=1).tolist())
    if err > STEP_TOL:
        raise StepSizeError(f"local error {err:.3e} exceeds {STEP_TOL:.1e} "
                            f"at t={t:.6g}; reduce h_t")
    _STEP_WORK.clear()
    _STEP_WORK[n] = w
    return two


def stored_times(T, h_t, store_every):
    """Stored instants of a fan from 0 to T: 0 and each store_every-th step."""
    n_steps = int(round(T / h_t))
    if abs(n_steps * h_t - T) > 1e-9 * max(1.0, abs(T)):
        raise CharacteristicsError("T must be a whole number of h_t steps")
    if n_steps % store_every != 0:
        raise CharacteristicsError("store_every must divide the step count")
    return h_t * store_every * np.arange(n_steps // store_every + 1)


def integrate_fan(m, S0, x0, T, h_t, store_every=1, S0_prime=None,
                  store=None, on_store=None):
    """Integrate a fan of characteristics from 0 to T.

    Args:
        m: SymbolModel.
        S0: initial action, an expression in x.
        x0: increasing array of initial labels.
        T, h_t: horizon and integration step; every ``store_every``-th state
            is stored, and T/h_t must be a whole multiple of store_every.
        S0_prime: optional override for S0', an expression in x; by default
            the exact derivative of S0.  S0'' is the exact derivative of S0'.
        store, on_store: optional (field, time, label) array to fill, fields
            in ``_FIELDS`` order, and a callable given each index stored.

    If no coefficient field names x (``m.spatially_homogeneous``), P_x,
    P_xp and P_xx fold to zeros and every stage of every step sees the same
    RHS f.  It is evaluated once, where the first `monitored_step` would,
    and each step adds d = (h/2)/6*(f + 2f + 2f + f) twice, the arithmetic
    of the two half steps: the same fan, bit for bit.  The full step
    differs from them only by rounding, so the step-doubling estimate has
    no truncation error to find and is not taken.  A field written with x,
    even ``0*x^2`` or ``0*log(x)`` (not finite for x <= 0), keeps the
    monitored path, which evaluates it along every line.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise CharacteristicsError("x0 must be a 1-d array of labels")
    if np.any(np.diff(x0) <= 0):
        raise CharacteristicsError("x0 labels must increase strictly")
    times = stored_times(T, h_t, store_every)

    S0 = expr.as_expression(S0)
    S0_prime = (expr.diff(S0) if S0_prime is None
                else expr.as_expression(S0_prime))
    y = np.stack((x0, expr.evaluate_at(S0_prime, x0), expr.evaluate_at(S0, x0),
                  np.ones_like(x0), expr.evaluate_at(expr.diff(S0_prime), x0),
                  np.zeros_like(x0)))  # rows in _FIELDS order

    rhs = hamiltonian_rhs(m)
    straight = m.spatially_homogeneous
    d = None  # a straight fan's half-step increment, once evaluated
    if store is None:
        store = np.empty((len(_FIELDS), times.size, x0.size))
    for i in range(times.size):
        for k in range(max(i - 1, 0) * store_every, i * store_every):
            if not straight:
                y = monitored_step(rhs, k * h_t, y, h_t)
                continue
            if d is None:
                f = rhs(y)
                d = ((0.5 * h_t) / 6.0) * (((f + 2 * f) + 2 * f) + f)
            y = (y + d) + d
        store[:, i] = y
        if on_store is not None:
            on_store(i)

    return Fan(symbol=m, x0=x0, times=times, h_t=h_t, rhs=rhs,
               **dict(zip(_FIELDS, store)))


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


def fan_to_csv(fan, path, indices=None):
    """Dump (t, x0, x, p, S, J, a_int) rows, time-major then label order, in
    ``textio.format_float``'s 17-digit text: every stored time, or each index
    ``indices`` yields, as it yields it, to a partial file that replaces
    ``path`` after the last or is removed if the writing raises.  Labels and
    times are formatted once; a time's rows are one ``%`` call over a
    template whose five varying columns are ``%.17g``."""
    tails = [f",{format_float(v)}" + ",%.17g" * 5 + "\n" for v in fan.x0]
    part = f"{path}.part"
    f = open(part, "w")
    try:
        with f:
            f.write("t,x0,x,p,S,J,a_int\n")
            for i in range(fan.times.size) if indices is None else indices:
                t = format_float(fan.times[i])
                cols = np.column_stack(
                    (fan.x[i], fan.p[i], fan.S[i], fan.J[i], fan.a_int[i]))
                f.write((t + t.join(tails)) % tuple(cols.ravel().tolist()))
    except BaseException:
        os.unlink(part)
        raise
    os.replace(part, path)
