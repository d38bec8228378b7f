"""Generalized densities: transported regular part plus shock point masses.

The regular part rides the characteristic fan with the divided-Jacobian
formula (initial density over |J|, damped by the accumulated friction
integral).  Each fold-seeded shock carries a point mass whose amplitude obeys
a balance law driven by the one-sided influx, and amplitudes add when shock
paths merge.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import characteristics, expr, manifold

J_CONTACT_TOL = 1e-12
# Gauss-Legendre points per knot interval of the mass rules; the refined
# rule, which gives the value and the error estimate, has twice as many
GAUSS_POINTS = 4
# Near a fold x(x0) has a cusp, and a branch's interpolant in x is off over
# several row intervals, not only the one at the fold.  At criterion 06's
# fold contact (J ~ x0^2) the 2nd to 6th row intervals out lose 1.4e-2,
# 3.1e-3, 8.4e-4, 3.1e-4 and 1.4e-4 of their mass, and |J| grows across them
# by 4, 2.25, 1.78, 1.56 and 1.44.  The mass rules take a row interval whose
# |J| changes by more than this factor in label space instead.
CUSP_J_RATIO = 1.5


class DensityError(ValueError):
    pass


def transport_density(fan, rho0="1"):
    """Regular density over the stored fan grid (rows may be fold-crossed)."""
    vals = expr.evaluate_at(expr.as_expression(rho0, ("x",)), fan.x0)
    with np.errstate(divide="ignore"):
        return vals[None, :] * np.exp(-fan.a_int) / np.abs(fan.J)


def _friction_at_shock(fan, x_s, p_l, p_r):
    """Damping felt by a point mass on the path, matching the bulk transport:
    the symbol's damping at the mean momentum."""
    p_bar = 0.5 * (np.asarray(p_l) + np.asarray(p_r))
    return characteristics.damping(fan.symbol, np.asarray(x_s), p_bar)


def _aint_on_label(fan, t, x0_star):
    """Accumulated friction integral of the label x0_star at time t."""
    t = min(max(float(t), float(fan.times[0])), float(fan.times[-1]))
    st = fan.state_at(t)
    return float(np.interp(x0_star, fan.x0, st["a_int"]))


@dataclass
class GeneralizedDensity:
    fan: object
    rho0: object
    shocks: list = field(default_factory=list)

    @functools.cached_property
    def initial_mass(self):
        """Mass of rho0 over the label box, by the rule of `_label_mass`."""
        x0 = self.fan.x0
        return float(_label_mass(self.rho0, x0, np.zeros_like(x0),
                                 x0[-1:])[0])

    def curve_at(self, t):
        return manifold.slice_dense(self.fan, t)

    def regular(self, t, x):
        """Regular density at points x: essential-branch divided Jacobian."""
        return self.fields(t, x)["R"]

    def fields(self, t, x, skip_folds=False):
        """Essential-branch data at points x in one slice pass.

        Returns a dict with R, S, p, u, x0 and branch_id arrays; everything is
        taken from the same minimizing branch so the entries are consistent
        pointwise.  At a point on a fold (|J| < J_CONTACT_TOL) the regular
        density is unbounded: that raises DensityError, or with skip_folds
        gives R = NaN there and leaves the other entries as they are.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ess = manifold.essential(self.curve_at(t), x)
        on_fold = np.abs(ess.J) < J_CONTACT_TOL
        if np.any(on_fold) and not skip_folds:
            raise DensityError(
                f"evaluation touches a fold(|J| < {J_CONTACT_TOL:g}) "
                f"at t={float(t):g}")
        with np.errstate(divide="ignore", invalid="ignore"):
            R = (expr.evaluate_at(self.rho0, ess.x0)
                 * np.exp(-ess.a_int) / np.abs(ess.J))
        R[on_fold] = np.nan
        return {"R": R, "S": ess.S, "p": ess.p, "u": ess.u, "x0": ess.x0,
                "branch_id": ess.branch_id}

    def shock_masses(self, t):
        """(position, amplitude) of every shock alive at time t."""
        out = []
        for rec in self.shocks:
            t_end = rec.t_end if rec.t_end is not None else rec.times[-1]
            if rec.t_birth - 1e-12 <= t <= t_end + 1e-12 and rec.e is not None:
                vals = rec.at(min(t, rec.times[-1]))
                x_s, e = vals["x_s"], vals["e"]
                if rec.t_end is not None and t > rec.times[-1]:
                    e = rec.e_end
                elif t < rec.times[0] and not rec.parents:
                    # before the first tracked sample the amplitude ramps
                    # from zero at the fold instant, so scale the clamped
                    # value instead of holding it flat across the gap
                    gap = float(rec.times[0]) - rec.t_birth
                    frac = (t - rec.t_birth) / gap if gap > 0 else 1.0
                    e = e * frac
                    x_s = rec.x_birth + (x_s - rec.x_birth) * frac
                out.append((x_s, float(e)))
        return out


def _label_rate(times, labels):
    """Discrete drift of a preimage endpoint at the last stored sample."""
    if times.size < 2:
        return 0.0
    return float((labels[-1] - labels[-2]) / (times[-1] - times[-2]))


def merge_amplitude(parent_a, parent_b):
    """Amplitude carried into a child shock: the parents' masses add."""
    if parent_a.e_end is None or parent_b.e_end is None:
        raise DensityError("parents lack amplitudes at the merge instant")
    return parent_a.e_end + parent_b.e_end


def attach_amplitudes(gd):
    """Fill R_l, R_r, e along every shock record (parents before children).

    The influx terms R (u - c) dt are integrated in label space, where the
    chain rule turns them into smooth moving-endpoint integrals of the
    undivided density: this resolves the inverse-square-root influx ramp
    right after birth exactly instead of sampling it on the path grid.
    """
    by_id = {rec.id: rec for rec in gd.shocks}
    rho0 = functools.partial(expr.evaluate_at, gd.rho0)
    for rec in sorted(gd.shocks, key=lambda r: r.id):
        if rec.times.size == 0:
            continue
        rho_l = rho0(rec.x0_l) * np.exp(-rec.aint_l)
        rho_r = rho0(rec.x0_r) * np.exp(-rec.aint_r)
        rec.R_l = rho_l / np.abs(rec.J_l)
        rec.R_r = rho_r / np.abs(rec.J_r)
        f = _friction_at_shock(gd.fan, rec.x_s, rec.p_l, rec.p_r)
        sl = np.sign(rec.J_l)
        sr = np.sign(rec.J_r)
        if rec.parents:
            pa, pb = (by_id[i] for i in rec.parents)
            e_prev = merge_amplitude(pa, pb)
            # the parents' e_end already extrapolates their influx up to the
            # merge instant, so the child's sweep must start from the stream
            # preimages advanced to that instant (not the last stored ones)
            x0l_prev = float(pa.x0_l[-1]
                             + (rec.t_birth - float(pa.times[-1]))
                             * _label_rate(pa.times, pa.x0_l))
            x0r_prev = float(pb.x0_r[-1]
                             + (rec.t_birth - float(pb.times[-1]))
                             * _label_rate(pb.times, pb.x0_r))
            rhol_prev = float(rho0(x0l_prev) * np.exp(-pa.aint_l[-1]))
            rhor_prev = float(rho0(x0r_prev) * np.exp(-pb.aint_r[-1]))
        else:
            e_prev = 0.0
            aint0 = _aint_on_label(gd.fan, rec.t_birth, rec.x0_birth)
            rho_star = float(rho0(rec.x0_birth) * np.exp(-aint0))
            x0l_prev = x0r_prev = float(rec.x0_birth)
            rhol_prev = rhor_prev = rho_star
        e = np.empty(rec.times.size)
        t_prev, f_prev = rec.t_birth, float(f[0])
        for k in range(rec.times.size):
            dt = float(rec.times[k]) - t_prev
            infl = (-sl[k] * 0.5 * (rhol_prev + rho_l[k])
                    * (rec.x0_l[k] - x0l_prev)
                    + sr[k] * 0.5 * (rhor_prev + rho_r[k])
                    * (rec.x0_r[k] - x0r_prev))
            e_prev = ((e_prev * (1 - 0.5 * dt * f_prev) + infl)
                      / (1 + 0.5 * dt * f[k]))
            e[k] = e_prev
            t_prev, f_prev = float(rec.times[k]), float(f[k])
            x0l_prev, x0r_prev = float(rec.x0_l[k]), float(rec.x0_r[k])
            rhol_prev, rhor_prev = float(rho_l[k]), float(rho_r[k])
        rec.e = e
        if rec.merged_into >= 0:
            t_m = float(by_id[rec.merged_into].t_birth)
            g_end = (rec.R_l[-1] * (rec.u_l[-1] - rec.c[-1])
                     - rec.R_r[-1] * (rec.u_r[-1] - rec.c[-1]))
            dt = t_m - float(rec.times[-1])
            rec.t_end = t_m
            rec.e_end = float(rec.e[-1] + dt * (g_end - f[-1] * rec.e[-1]))
        else:
            rec.t_end, rec.e_end = float(rec.times[-1]), float(rec.e[-1])
    return gd


def build_density(fan, rho0="1", shocks=None):
    """Track shocks (unless given) and assemble the generalized density."""
    gd = GeneralizedDensity(fan=fan, rho0=expr.as_expression(rho0, ("x",)))
    gd.shocks = manifold.track_shocks(fan) if shocks is None else list(shocks)
    return attach_amplitudes(gd)


def _gauss(lo, hi, n):
    """Nodes and weights, each of shape (len(lo), n), of the n-point
    Gauss-Legendre rule on every interval [lo_i, hi_i]."""
    u, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (hi + lo)[:, None] + half * u, half * w


def _label_mass(rho0, x0, a_int, y):
    """Integral of rho0 * exp(-a_int) over the labels from x0[0] to each y.

    The integrand is smooth in the label across folds.  rho0 is evaluated
    exactly; a_int is a cubic Hermite between the rows, with slopes from
    centred differences.  Every row interval gets the refined rule.
    """
    n = x0.size - 1
    r = np.clip(np.searchsorted(x0, y, side="right") - 1, 0, n - 1)
    rows = np.concatenate((np.arange(n), r))
    lo = x0[rows]
    nodes, w = _gauss(lo, np.concatenate((x0[1:], y)), 2 * GAUSS_POINTS)
    h = (x0[rows + 1] - lo)[:, None]
    slope = np.gradient(a_int, x0)
    a = characteristics._cubic_hermite(
        (nodes - lo[:, None]) / h, h, a_int[rows, None], a_int[rows + 1, None],
        slope[rows, None], slope[rows + 1, None])
    parts = np.sum(expr.evaluate_at(rho0, nodes) * np.exp(-a) * w, axis=1)
    return np.concatenate(([0.0], np.cumsum(parts[:n])))[r] + parts[n:]


def _cusp_intervals(J):
    """Row intervals in the cusp zone of a fold: J changes sign across
    them, or |J| changes by more than a factor CUSP_J_RATIO (which takes in
    every fold contact, |J| < J_CONTACT_TOL next to a regular row)."""
    a, b = np.abs(J[:-1]), np.abs(J[1:])
    return ((np.sign(J[:-1]) != np.sign(J[1:]))
            | (np.maximum(a, b) > CUSP_J_RATIO * np.minimum(a, b)))


def mass_balance(gd, t):
    """Regular mass + shock masses over the label-tracked window at time t.

    The window boundaries ride the first and last characteristic, so no mass
    crosses them and the total must match the initial mass.  Returns
    (regular, shock_total, initial, relative_deviation).

    The regular mass is integrated in x over the knot intervals of the
    slice (the positions of its rows, and the shock cuts), by Gauss-Legendre
    rules of GAUSS_POINTS and of twice as many points, all through one
    density query.  Where the essential labels of an interval lie in the
    cusp zone of a fold (`_cusp_intervals`) the interpolant in x is not
    smooth; there the change of variables x = x(x0), dx = |J| dx0, turns
    the interval into the smooth label integral of rho0 * exp(-a_int).

    Raises DensityError when the refined rule's error estimate exceeds
    1e-5 * max(1, initial mass), or when the x-space mass misses the
    label-space mass of the unabsorbed labels (every interval taken in
    label space) by more than that.
    """
    fan = gd.fan
    i_t = fan.index_of_time(t)
    curve = gd.curve_at(t)
    X_l = float(fan.x[i_t, 0])
    X_r = float(fan.x[i_t, -1])
    masses = gd.shock_masses(t)
    cuts = [x for x, _ in masses if X_l < x < X_r]
    inner = curve.x[(curve.x > X_l) & (curve.x < X_r)]
    knots = np.unique(np.concatenate(([X_l, X_r], cuts, inner)))
    lo, hi = knots[:-1], knots[1:]
    m = lo.size
    coarse, w_c = _gauss(lo, hi, GAUSS_POINTS)
    fine, w_f = _gauss(lo, hi, 2 * GAUSS_POINTS)
    f = gd.fields(t, np.concatenate((coarse.ravel(), fine.ravel())),
                  skip_folds=True)
    n_c = coarse.size
    q_c = np.sum(f["R"][:n_c].reshape(coarse.shape) * w_c, axis=1)
    q_f = np.sum(f["R"][n_c:].reshape(fine.shape) * w_f, axis=1)
    # the knots hold every row, so each interval lies inside one row
    # interval of the branch essential on it; its first refined node names
    # both
    head = slice(n_c, None, 2 * GAUSS_POINTS)
    bid = f["branch_id"][head]
    r = np.clip(np.searchsorted(fan.x0, f["x0"][head], side="right") - 1,
                0, fan.x0.size - 2)
    cusp = _cusp_intervals(curve.J)[r]
    # the labels at both ends of each interval on that branch
    ends = np.empty((m, 2))
    sign = np.empty(m)
    for b in curve.branches:
        sel = bid == b.index
        if np.any(sel):
            ends[sel] = b.interp("x0", np.clip(np.column_stack(
                (lo[sel], hi[sel])), b.x_lo, b.x_hi))
            sign[sel] = b.sign
    G = _label_mass(gd.rho0, fan.x0, curve.a_int, ends.ravel()).reshape(m, 2)
    label = sign * (G[:, 1] - G[:, 0])
    total = float(np.sum(np.where(cusp, label, q_f)))
    label_total = float(np.sum(label))
    err = float(np.sum(np.abs(q_f - q_c)[~cusp]))
    shock_total = sum(e for _, e in masses)
    init = gd.initial_mass
    tol = 1e-5 * max(1.0, abs(init))
    if not err <= tol:
        raise DensityError(
            f"regular-mass quadrature error estimate {err:.3e} too "
            f"large for a mass of {init:.6g} at t={t!r}")
    if not abs(total - label_total) <= tol:
        raise DensityError(
            f"x-space regular mass {total:.9g} disagrees with the "
            f"label-space mass {label_total:.9g} of the unabsorbed labels "
            f"by {abs(total - label_total):.3e} at t={t!r}")
    rel = abs(total + shock_total - init) / max(abs(init), 1e-300)
    return total, shock_total, init, rel
