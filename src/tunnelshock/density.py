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


class DensityError(ValueError):
    pass


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
        """Mass of rho0 over the label box, by the refined rule of
        `mass_balance` on every row interval."""
        x0 = self.fan.x0
        nodes, w = _gauss(x0[:-1], x0[1:], 2 * GAUSS_POINTS)
        return float(np.sum(expr.evaluate_at(self.rho0, nodes) * w))

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
        """(position, amplitude) of every shock alive at time t.  A merged
        parent stops counting at its handoff, where its child, born with
        the parents' sum, takes over."""
        out = []
        for rec in self.shocks:
            handed = rec.merged_into >= 0 and t >= rec.t_end - 1e-12
            if rec.e is not None and rec.alive(t) and not handed:
                vals = rec.at(t)
                out.append((vals["x_s"], vals["e"]))
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
    """Fill R_l, R_r, e, e_birth and e_end along every shock record
    (parents before children).

    The influx terms R (u - c) dt are integrated in label space, where the
    chain rule turns them into smooth moving-endpoint integrals of the
    undivided density: this resolves the inverse-square-root influx ramp
    right after birth exactly instead of sampling it on the path grid.
    """
    by_id = {rec.id: rec for rec in gd.shocks}
    rho0 = functools.partial(expr.evaluate_at, gd.rho0)
    for rec in sorted(gd.shocks, key=lambda r: r.id):
        if not rec.sampled:
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
            e_prev = rec.e_birth = merge_amplitude(pa, pb)
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
            e_prev = rec.e_birth = 0.0
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
        rec.e, rec.e_end = e, float(e[-1])
        if rec.merged_into >= 0:
            # the balance carried on from the last sample to the handoff
            g_end = (rec.R_l[-1] * (rec.u_l[-1] - rec.c[-1])
                     - rec.R_r[-1] * (rec.u_r[-1] - rec.c[-1]))
            dt = rec.t_end - float(rec.times[-1])
            rec.e_end = float(e[-1] + dt * (g_end - f[-1] * e[-1]))
    return gd


def build_density(fan, rho0="1", shocks=None):
    """Track shocks (unless given) and assemble the generalized density."""
    gd = GeneralizedDensity(fan=fan, rho0=expr.as_expression(rho0))
    gd.shocks = manifold.track_shocks(fan) if shocks is None else list(shocks)
    return attach_amplitudes(gd)


def _gauss(lo, hi, n):
    """Nodes and weights, each of shape (len(lo), n), of the n-point
    Gauss-Legendre rule on every interval [lo_i, hi_i]."""
    u, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (hi + lo)[:, None] + half * u, half * w


def mass_balance(gd, t):
    """Regular mass + shock masses over the label-tracked window at time t.

    The window boundaries ride the first and last characteristic, so no mass
    crosses them and the total must match the initial mass.  Returns
    (regular, shock_total, initial, relative_deviation).

    Between two knots (the rows of the slice and the shock cuts) one branch
    is essential, and its labels span part of one row interval, where the
    fields are cubics in the label.  There x = x(x0) turns R dx into
    rho0 * exp(-a_int) * |dx/dx0| / |J| dx0, which Gauss-Legendre rules of
    GAUSS_POINTS and of twice as many points integrate.

    Raises DensityError when the refined rule's error estimate exceeds
    1e-5 * max(1, initial mass), or when that mass misses the label integral
    of rho0 * exp(-a_int), which does not see J, by more than that.
    """
    fan = gd.fan
    X_l, X_r = fan.window(t)
    curve = gd.curve_at(t)
    masses = gd.shock_masses(t)
    cuts = [x for x, _ in masses if X_l < x < X_r]
    inner = curve.x[(curve.x > X_l) & (curve.x < X_r)]
    knots = np.unique(np.concatenate(([X_l, X_r], cuts, inner)))
    ends = np.column_stack((knots[:-1], 0.5 * (knots[:-1] + knots[1:]),
                            knots[1:]))
    bid = manifold.essential(curve, ends[:, 1]).branch_id
    parts = np.empty((3, bid.size))  # x-space by both rules, label-space
    for b in curve.branches:
        sel = bid == b.index
        if not np.any(sel):
            continue
        k, s = b.locate(np.clip(ends[sel], b.x_lo, b.x_hi))
        lab = np.sort(b.at(k, s)[1][:, ::2], axis=1)
        k = k[:, 1:2]  # the row interval of the midpoint
        h = fan.x0[k + 1] - fan.x0[k]
        for j, n in enumerate((GAUSS_POINTS, 2 * GAUSS_POINTS)):
            nodes, w = _gauss(lab[:, 0], lab[:, 1], n)
            H, _, dx = b.at(k, (nodes - fan.x0[k]) / h)
            dm = expr.evaluate_at(gd.rho0, nodes) * np.exp(-H[4]) * w
            parts[j, sel] = np.sum(dm * np.abs(dx / H[3]), axis=1)
        parts[2, sel] = np.sum(dm, axis=1)
    total, label_total = (float(v) for v in np.sum(parts[1:], axis=1))
    err = float(np.sum(np.abs(parts[1] - parts[0])))
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
