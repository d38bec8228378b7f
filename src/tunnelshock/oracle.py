"""Independent ground-truth solvers used to cross-check the pipeline.

Three routes that never touch the characteristic machinery:

* a brute-force variational minimizer for the action of spatially
  homogeneous symbols, searched over the momentum of the straight lines
  into each point,
* a first-order finite-volume scheme with exact Riemann fluxes for the
  gradient conservation law,
* an explicit lattice integrator for the generator equation
  ``h u_t = A(x) h^2 u_xx + V(x) u + sum_k lambda_k(x) (u(x - h nu_k) - u(x))``,

plus the comparator that measures how well the product-form field
``exp(-S/h) sqrt(R)`` reproduces the lattice solution.
"""

from dataclasses import dataclass

import numpy as np

from . import expr, symbol

EXP_CLIP = 700.0  # exponent guard when rescaling lattice values by e^{S/h}
CFL = 0.8  # godunov's automatic step, as a fraction of the CFL bound
# kf_lattice aborts once |u| at the window edge exceeds this share of max |u|
SUPPORT_TOL = 1e-10
LOG_FLOOR = 1e-300  # underflow floor of LatticeField.minus_h_log
# shock collar of the tunnel comparison: lattice cells plus smearing widths
# h/|p_l - p_r|
COLLAR_CELLS = 5
COLLAR_SMEAR = 3.0
# momentum nodes per row block of hopf_lax_grid (16 rows of 2001): peak
# memory grows with the block (all 241 rows of the CLI grid at once on
# riemann.ini: 60 MB of peak RSS against 36 MB)
_BLOCK_NODES = 1 << 15


class OracleError(ValueError):
    pass


class StabilityError(OracleError):
    """Requested time step exceeds the recorded stability bound."""


class BoundaryContactError(OracleError):
    """Lattice support reached the edge of the computational window."""


def _field_values(data, xs):
    """Initial data given as expression source, Expression or callable."""
    if isinstance(data, (str, expr.Expression)):
        return expr.evaluate_at(expr.as_expression(data), xs)
    return np.asarray(data(xs), dtype=float) + np.zeros_like(xs)


# ---------------------------------------------------------------------------
# brute-force variational action


def hopf_lax_grid(m, S0, xs, t, y_box=(-30.0, 30.0), n=2001):
    """Minimum over straight lines into x of S0(y) + t*L((x-y)/t), by grid
    search over their momentum p with one refinement.

    The line of momentum p has velocity P'(p), foot y = x - t*P'(p) and
    action t*(p*P'(p) - P(p)), the conjugate L at that velocity, so no
    Legendre solve is needed at the grid nodes.  Each x searches the
    momenta of the feet in y_box; an end whose velocity the momentum box
    does not attain is clamped to the box edge.  The refined minimum is
    polished with a three-point parabola vertex.  A minimizer on the first
    or last node raises and names the box too small for (x, t): y_box, or
    the momentum box when that node is an end clamped to its edge.  Rows
    of x are searched in blocks to bound memory.
    """
    if not m.spatially_homogeneous:
        raise OracleError("variational minimizer needs an x-independent symbol")
    if not t > 0.0:
        raise OracleError("t must be positive")
    S0 = expr.as_expression(S0)
    xs = np.asarray(xs, dtype=float)
    t = float(t)

    def total(x, p):
        v = symbol.eval_dP_dp(m, 0.0, p)
        y = np.clip(x - t * v, *y_box)
        return expr.evaluate_at(S0, y) + t * (p * v - symbol.eval_P(m, 0.0, p))

    rows = max(1, _BLOCK_NODES // n)
    out = np.empty(xs.shape)
    for b in range(0, xs.size, rows):
        x = xs[b:b + rows, None]
        # the velocity P'(p) grows with p: the far foot y_box[1] is the
        # slowest line, y_box[0] the fastest
        ends = symbol.clamped_momentum(m, 0.0, (x - np.array(y_box[::-1])) / t)
        ps = np.linspace(ends[:, 0], ends[:, 1], n, axis=1)
        k = np.argmin(total(x, ps), axis=1)
        edge = (k == 0) | (k == n - 1)
        if np.any(edge):
            i = np.argmax(edge)
            # an end clamped to the momentum box: no y_box reaches further
            p_end = float(ps[i, k[i]])
            where = (f"momentum box edge p={p_end:g}; no y_box can help"
                     if p_end in symbol.P_BOX else "y-box edge; enlarge y_box")
            raise OracleError(f"action minimizer for x={float(x[i, 0]):g}, "
                              f"t={t:g} sits on the {where}")

        r = np.arange(x.shape[0])
        pr = np.linspace(ps[r, k - 1], ps[r, k + 1], n, axis=1)
        vr = total(x, pr)
        j = np.argmin(vr, axis=1)
        best = vr[r, j]
        jm, jp = np.maximum(j - 1, 0), np.minimum(j + 1, n - 1)
        d2 = vr[r, jm] - 2.0 * best + vr[r, jp]
        vertex = (0 < j) & (j < n - 1) & np.isfinite(d2) & (d2 > 0.0)
        if np.any(vertex):
            i = np.flatnonzero(vertex)
            step = pr[i, 1] - pr[i, 0]
            p_v = pr[i, j[i]] - 0.5 * step * (vr[i, jp[i]] - vr[i, jm[i]]) / d2[i]
            cand = total(x[i, 0], p_v)
            best[i] = np.where(cand < best[i], cand, best[i])
        out[b:b + rows] = best
    return out


# ---------------------------------------------------------------------------
# finite-volume conservation law for the gradient variable


@dataclass
class FiniteVolumeSolution:
    x: np.ndarray        # cell centers
    dx: float
    times: np.ndarray    # stored instants
    v: np.ndarray        # one row of cell averages per stored instant

    def at(self, t):
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[k]) - t) > 1e-9 * (1.0 + abs(t)):
            raise OracleError(f"time {t!r} was not stored")
        return self.v[k]


def _sonic_point(m):
    """Zero of the nondecreasing dP/dp, clipped to the momentum box."""
    return float(symbol.clamped_momentum(m, 0.0, 0.0))


def godunov(m, v0, x_box, n_cells, T, store_times=None, dt=None):
    """First-order finite-volume solution of v_t + (P(v))_x = 0.

    The interface flux is the exact Riemann flux of a convex flux function:
    the minimum of P over [v_l, v_r] (attained at the clipped sonic point)
    when v_l <= v_r, the maximum of the endpoint values otherwise.  Outflow
    ghost cells close the ends.  A caller-supplied dt that exceeds the CFL
    bound at any step raises.
    """
    if not m.spatially_homogeneous:
        raise OracleError("the flux P(v) must not depend on x")
    lo, hi = float(x_box[0]), float(x_box[1])
    dx = (hi - lo) / n_cells
    xs = lo + dx * (0.5 + np.arange(n_cells))
    v = _field_values(v0, xs)

    if store_times is None:
        store_times = (T,)
    marks = sorted(set(float(s) for s in store_times))
    if any(not 0.0 < s <= T + 1e-12 for s in marks):
        raise OracleError("store_times must lie in (0, T]")

    # the flux does not depend on time, so neither does its sonic point
    s_star = _sonic_point(m)
    out_v, out_t = [], []
    t = 0.0
    mark_i = 0
    while mark_i < len(marks):
        speeds = np.abs(symbol.eval_dP_dp(m, 0.0, v)) + np.zeros_like(v)
        smax = float(np.max(speeds))
        limit = dx / max(smax, 1e-300)
        if dt is not None:
            if dt > limit * (1.0 + 1e-12):
                raise StabilityError(
                    f"dt={dt:g} violates the CFL bound {limit:g} at t={t:g}")
            step = dt
        else:
            step = CFL * limit
        step = min(step, marks[mark_i] - t)

        vl = np.concatenate(([v[0]], v))
        vr = np.concatenate((v, [v[-1]]))
        with np.errstate(all="ignore"):
            f_min = symbol.eval_P(m, 0.0, np.clip(s_star, vl, vr))
            f_max = np.maximum(symbol.eval_P(m, 0.0, vl),
                               symbol.eval_P(m, 0.0, vr))
        flux = np.where(vl <= vr, f_min, f_max)
        v = v - (step / dx) * (flux[1:] - flux[:-1])
        t += step

        if t >= marks[mark_i] - 1e-13:
            out_t.append(marks[mark_i])
            out_v.append(v.copy())
            mark_i += 1

    return FiniteVolumeSolution(x=xs, dx=dx, times=np.asarray(out_t),
                                v=np.asarray(out_v))


# ---------------------------------------------------------------------------
# explicit lattice integrator for the generator equation


@dataclass
class LatticeField:
    x: np.ndarray
    values: np.ndarray
    h: float
    u0: expr.Expression  # initial data, reused for frozen ghosts
    t: float = 0.0
    dt: float = 0.0      # step used by the last run, 0 before any run
    reach: int = 0       # stencil half-width in cells

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    def minus_h_log(self):
        """Action-scale reading -h*log(values) with an underflow floor."""
        return -self.h * np.log(np.maximum(self.values, LOG_FLOOR))


def make_lattice(u0, h, x_box, dx):
    lo, hi = float(x_box[0]), float(x_box[1])
    n = int(round((hi - lo) / dx))
    if abs(lo + n * dx - hi) > 1e-9 * max(1.0, abs(hi - lo)):
        raise OracleError("dx must tile the lattice window exactly")
    xs = lo + dx * np.arange(n + 1)
    u0e = expr.as_expression(u0)
    return LatticeField(x=xs, values=_field_values(u0e, xs), h=float(h),
                        u0=u0e)


def _lattice_shifts(m, h, dx):
    shifts = []
    for j in m.jumps:
        s_exact = j.nu * h / dx
        s = int(round(s_exact))
        if abs(s_exact - s) > 1e-9 * (1.0 + abs(s_exact)):
            raise OracleError(
                f"jump displacement h*nu={h * j.nu:g} is {s_exact:g} cells; "
                "it must be a whole number of lattice cells")
        shifts.append(s)
    return shifts


def kf_lattice(m, field, T, safety=0.4, dt=None):
    """Advance a lattice field by T under the generator equation.

    Explicit stepping; the jump terms are exact grid shifts (displacements
    snapped to whole cells at configuration).  Ghost nodes hold the initial
    data, frozen in time; the run aborts if the solution support touches
    them.  The recorded stability bound is
    0.4*min(dx^2/(2 max A h), dx/max|dP/dp(.,0)|, 1/max sum lambda); the
    automatic step also respects the sharper positivity caps of the jump and
    potential terms.
    """
    xs = field.x
    dx = field.dx
    n = xs.size
    h = field.h
    if abs(np.max(np.abs(np.diff(xs))) - dx) > 1e-9 * dx:
        raise OracleError("lattice grid must be uniform")
    if not 0.0 < safety <= 0.4:
        raise OracleError("safety must lie in (0, 0.4]")

    shifts = _lattice_shifts(m, h, dx)
    reach = max([1] + [abs(s) for s in shifts])

    A = expr.evaluate_at(m.A, xs)
    V = expr.evaluate_at(m.V, xs)
    lams = [expr.evaluate_at(j.lam, xs) for j in m.jumps]
    max_A = float(np.max(A))
    lam_sum = float(np.max(sum(lams))) if lams else 0.0
    speed = float(np.max(np.abs(symbol.eval_dP_dp(m, xs, 0.0)
                                + np.zeros_like(xs))))
    terms = [
        dx * dx / (2.0 * max_A * h) if max_A > 0 else np.inf,
        dx / speed if speed > 0 else np.inf,
        1.0 / lam_sum if lam_sum > 0 else np.inf,
    ]
    bound = 0.4 * min(terms)
    cap = min(
        0.9 * h / lam_sum if lam_sum > 0 else np.inf,
        0.5 * h / abs(float(np.min(V))) if float(np.min(V)) < 0 else np.inf,
    )
    if dt is not None:
        if dt > bound * (1.0 + 1e-12):
            raise StabilityError(
                f"dt={dt:g} exceeds the stability bound {bound:g}")
        step0 = float(dt)
    else:
        step0 = min((safety / 0.4) * bound, cap)
        if not np.isfinite(step0):
            step0 = T  # free evolution: nothing restricts the step
    n_steps = max(1, int(np.ceil(T / step0 - 1e-12)))
    step0 = T / n_steps

    u = np.empty(n + 2 * reach)
    u[reach:reach + n] = field.values
    ghost_x = np.concatenate((xs[0] + dx * np.arange(-reach, 0),
                              xs[-1] + dx * np.arange(1, reach + 1)))
    ghost_vals = _field_values(field.u0, ghost_x)
    u[:reach] = ghost_vals[:reach]
    u[reach + n:] = ghost_vals[reach:]

    def contact_check(vals):
        scale = float(np.max(np.abs(vals)))
        edge = max(float(np.max(np.abs(vals[:1 + reach]))),
                   float(np.max(np.abs(vals[-1 - reach:]))))
        if edge > SUPPORT_TOL * max(scale, 1e-300):
            raise BoundaryContactError(
                f"lattice support reached the window edge "
                f"(edge magnitude {edge:g} vs scale {scale:g})")

    contact_check(field.values)

    core = slice(reach, reach + n)
    check_every = max(1, n_steps // 32)
    dt_h = step0 / h

    # weights of one explicit step: centre, neighbours, jump shifts
    c_lap = A * h * step0 / (dx * dx)
    diag = 1.0 + dt_h * (V - sum(lams) if lams else V) - 2.0 * c_lap
    c_jump = [dt_h * lv for lv in lams]
    for k in range(n_steps):
        cur = u[core]
        new = diag * cur
        new += c_lap * (u[reach + 1:reach + n + 1] + u[reach - 1:reach + n - 1])
        for s, cj in zip(shifts, c_jump):
            new += cj * u[reach - s:reach - s + n]
        u[core] = new
        if (k + 1) % check_every == 0 or k == n_steps - 1:
            contact_check(u[core])

    return LatticeField(x=xs, values=u[core].copy(), h=h, t=field.t + T,
                        dt=step0, reach=reach, u0=field.u0)


# ---------------------------------------------------------------------------
# product-form asymptotics comparator


@dataclass
class TunnelComparison:
    h: np.ndarray
    E: np.ndarray          # max |u e^{S/h} - sqrt(R)| on the comparison set
    E_rel: np.ndarray      # same, relative to sqrt(R)
    fitted_order: float

    def rows(self):
        return [(float(self.h[i]), float(self.E[i]), self.fitted_order)
                for i in range(self.h.size)]


def comparison_mask(gd, t, xs, dx, h):
    """Points where the asymptotic comparison is meaningful.

    Keeps points covered by exactly one branch (bijective projection) and
    outside every shock collar; the collar is COLLAR_CELLS lattice cells
    plus COLLAR_SMEAR smearing widths h/|p_l - p_r|.
    """
    xs = np.asarray(xs, dtype=float)
    curve = gd.curve_at(t)
    counts = np.zeros(xs.shape, dtype=int)
    for b in curve.branches:
        counts += b.covers(xs)
    keep = counts == 1
    for rec in gd.shocks:
        if not rec.sampled or not rec.alive(t):
            continue
        vals = rec.at(t)
        gap = abs(vals["p_l"] - vals["p_r"])
        width = COLLAR_CELLS * dx + COLLAR_SMEAR * h / max(gap, 1e-12)
        keep &= np.abs(xs - vals["x_s"]) > width
    return keep


def tunnel_compare(fields, gd, x_window):
    """Error table of the product-form asymptotics against lattice runs.

    Every field must hold the solution at one common time.  For each field
    the pipeline action S and regular density R are evaluated on the field's
    own comparison points, and E(h) = max |u e^{S/h} - sqrt(R)| is recorded
    together with its relative variant; the order is fitted by regression of
    log E on log h.
    """
    if not fields:
        raise OracleError("no lattice fields supplied")
    t = float(fields[0].t)
    if any(abs(f.t - t) > 1e-9 * (1.0 + abs(t)) for f in fields):
        raise OracleError("lattice fields are not at a common time")

    hs, errs, rel_errs = [], [], []
    for f in fields:
        inside = (f.x >= x_window[0]) & (f.x <= x_window[1])
        keep = inside & comparison_mask(gd, t, f.x, f.dx, f.h)
        if not np.any(keep):
            raise OracleError(
                f"comparison set is empty for h={f.h:g} at t={t:g}")
        xs = f.x[keep]
        data = gd.fields(t, xs)
        amp = np.sqrt(data["R"])
        scaled = f.values[keep] * np.exp(np.clip(data["S"] / f.h,
                                                 -EXP_CLIP, EXP_CLIP))
        diff = np.abs(scaled - amp)
        hs.append(f.h)
        errs.append(float(np.max(diff)))
        rel_errs.append(float(np.max(diff / amp)))

    hs = np.asarray(hs)
    errs = np.asarray(errs)
    if hs.size >= 2 and np.all(errs > 0):
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    else:
        order = float("nan")
    return TunnelComparison(h=hs, E=errs, E_rel=np.asarray(rel_errs),
                            fitted_order=order)
