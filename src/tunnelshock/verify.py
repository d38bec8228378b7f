"""Certification of generalized densities against weak-form identities.

A candidate (regular density, shock point masses) is accepted when, for
compactly supported test functions vanishing at t=0, the bulk pairing of the
regular density with the transport operator cancels the line pairing of the
shock amplitudes along their paths.  Exact solutions leave pure quadrature
error, which decays at a measurable order under dyadic refinement; amplitude
defects leave an O(1) plateau instead.  A pointwise Hamilton-Jacobi defect
table over the action complements the weak-form check on regular regions.
"""

from dataclasses import dataclass

import numpy as np

from . import characteristics, density, forkmap, manifold, symbol

SUITE_LEVELS = (5, 6, 7)


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class BumpTestFunction:
    """C^2 polynomial bump ((1-s_x^2)(1-s_t^2))^3 on a centered box.

    Support is |x-x_c| <= r_x, |t-t_c| <= r_t, kept strictly inside t>0 so
    the candidate's initial slice never enters the pairing.
    """

    x_c: float
    t_c: float
    r_x: float
    r_t: float

    def __post_init__(self):
        if not (self.r_x > 0 and self.r_t > 0):
            raise VerifyError("bump radii must be positive")
        if not self.t_c - self.r_t > 0:
            raise VerifyError("bump support must sit strictly inside t > 0")

    def _scaled(self, x, t):
        sx = (np.asarray(x, dtype=float) - self.x_c) / self.r_x
        st = (np.asarray(t, dtype=float) - self.t_c) / self.r_t
        qx = np.maximum(1.0 - sx * sx, 0.0)
        qt = np.maximum(1.0 - st * st, 0.0)
        return sx, st, qx, qt

    def value(self, x, t):
        sx, st, qx, qt = self._scaled(x, t)
        return (qx * qt) ** 3

    def d_t(self, x, t):
        sx, st, qx, qt = self._scaled(x, t)
        return -6.0 * st * qx ** 3 * qt ** 2 / self.r_t

    def d_x(self, x, t):
        sx, st, qx, qt = self._scaled(x, t)
        return -6.0 * sx * qx ** 2 * qt ** 3 / self.r_x


def _simpson_weights(panels, length):
    """Composite Simpson weights on panels+1 equispaced nodes."""
    if panels < 2 or panels % 2:
        raise VerifyError("quadrature needs an even panel count >= 2")
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (length / (3.0 * panels))


def _tracked(gd):
    """The shock records that carry path samples, each with amplitudes."""
    live = [rec for rec in gd.shocks if rec.sampled]
    for rec in live:
        if rec.e is None:
            raise VerifyError(f"shock {rec.id} carries no amplitude samples")
    return live


def _segment_grid(edges, panels, nudge):
    """Simpson nodes, weights and field query points over the x-segments.

    Segment k spans edges[2k]..edges[2k+1]; a query end that sits on a cut
    is nudged into its own segment.
    """
    nodes = []
    weights = []
    queries = []
    for k in range(0, len(edges), 2):
        seg = np.linspace(edges[k], edges[k + 1], panels + 1)
        q = seg.copy()
        if k > 0:
            q[0] += nudge
        if k + 2 < len(edges):
            q[-1] -= nudge
        nodes.append(seg)
        queries.append(q)
        weights.append(_simpson_weights(panels, edges[k + 1] - edges[k]))
    return (np.concatenate(nodes), np.concatenate(weights),
            np.concatenate(queries))


def identity_residual(gd, zeta, level, e_scale=1.0, e_scale_ids=None):
    """Absolute value of the weak-form pairing for one test function.

    The single-level case of `identity_residuals`, which documents the
    arguments.
    """
    return identity_residuals(gd, zeta, (level,), e_scale, e_scale_ids)[0]


def identity_residuals(gd, zeta, levels, e_scale=1.0, e_scale_ids=None):
    """Absolute weak-form pairings for one test function, one per level.

    The bulk term pairs the regular density R against
    zeta_t + u zeta_x - a zeta over the support, with the x-integral split
    at shock positions so each Simpson segment sees smooth fields; the line
    term rides each shock path pairing the amplitude against the same
    operator along the path.  Both use composite Simpson at 2^level panels
    per axis.  The levels share one pass over their time nodes: a node common
    to several levels takes one field query, split afterwards, and each
    level still sums its own terms in time order.  The velocity field and
    damping are the candidate's own; e_scale (optionally restricted to the
    ids in e_scale_ids) perturbs amplitudes to measure sensitivity.
    """
    fan = gd.fan
    t_lo, t_hi = zeta.t_c - zeta.r_t, zeta.t_c + zeta.r_t
    x_lo, x_hi = zeta.x_c - zeta.r_x, zeta.x_c + zeta.r_x
    if t_lo < -1e-15 or t_hi > float(fan.times[-1]) + 1e-9:
        raise VerifyError(
            f"bump support [{t_lo:g}, {t_hi:g}] clips the computed time "
            f"range [0, {float(fan.times[-1]):g}]")
    live = _tracked(gd)
    scale_all = e_scale_ids is None
    panels = [2 ** int(level) for level in levels]

    totals = [0.0] * len(panels)
    at_t = {}  # time node -> (level slot, Simpson weight) of every level on it
    for j, n in enumerate(panels):
        for t, wt in zip(np.linspace(t_lo, t_hi, n + 1),
                         _simpson_weights(n, t_hi - t_lo)):
            at_t.setdefault(t, []).append((j, wt))
    # the segment endpoints sit exactly on the cuts; only the field queries
    # are nudged one-sidedly, past the equal-action tie window in which the
    # minimal-action selection would pick the wrong side of the jump
    nudge = 1e-6 * max(1.0, abs(x_lo), abs(x_hi))
    nodes = np.array(sorted(at_t))
    paths = [(rec.alive(nodes), rec.at(nodes)["x_s"]) for rec in live]
    for i, t in enumerate(nodes):
        cuts = [x[i] for alive, x in paths if alive[i]
                and x_lo + 2 * nudge < x[i] < x_hi - 2 * nudge]
        edges = [x_lo]
        for cut in sorted(cuts):
            if cut - edges[-1] > 4 * nudge:  # coincident cuts (merge instant)
                edges.extend([cut, cut])
        edges.append(x_hi)
        grids = [(j, wt, *_segment_grid(edges, panels[j], nudge))
                 for j, wt in at_t[t]]
        try:
            f = gd.fields(t, np.concatenate([q for *_, q in grids]))
        except manifold.UncoveredPointError as exc:
            raise VerifyError(f"bump support clips the covered region: {exc}")
        stop = 0
        for j, wt, x_all, w_all, _ in grids:
            part = slice(stop, stop + x_all.size)
            stop = part.stop
            u = f["u"][part]
            a = characteristics.damping(fan.symbol, x_all, f["p"][part])
            integrand = f["R"][part] * (zeta.d_t(x_all, t)
                                        + u * zeta.d_x(x_all, t)
                                        - a * zeta.value(x_all, t))
            totals[j] += wt * float(np.dot(w_all, integrand))

    for j, n in enumerate(panels):
        for rec in live:
            lo, hi = rec.life
            s_lo, s_hi = max(t_lo, lo), min(t_hi, hi)
            if s_hi - s_lo <= 1e-14:
                continue
            tt = np.linspace(s_lo, s_hi, n + 1)
            ww = _simpson_weights(n, s_hi - s_lo)
            path = rec.at(tt)
            x_s, e = path["x_s"], path["e"]
            if e_scale != 1.0 and (scale_all or rec.id in set(e_scale_ids)):
                e = e * e_scale
            fr = density._friction_at_shock(fan, x_s, path["p_l"], path["p_r"])
            integrand = e * (zeta.d_t(x_s, tt) + path["c"] * zeta.d_x(x_s, tt)
                             - fr * zeta.value(x_s, tt))
            totals[j] += float(np.dot(ww, integrand))
    return [abs(total) for total in totals]


@dataclass
class IdentityReport:
    bumps: tuple          # BumpTestFunction per row
    kinds: tuple          # "shock" | "merge" | "random" per row
    levels: tuple
    residuals: np.ndarray  # (n_bumps, n_levels)
    orders: np.ndarray     # decay order vs previous level; first is NaN

    def to_rows(self):
        rows = []
        for i, b in enumerate(self.bumps):
            for j, lev in enumerate(self.levels):
                rows.append((i, b.x_c, b.t_c, int(lev),
                             float(self.residuals[i, j]),
                             float(self.orders[i, j])))
        return rows


def _path_excursion(rec, t_lo, t_hi, x_ref):
    lo, hi = rec.life
    tt = np.linspace(max(t_lo, lo), min(t_hi, hi), 65)
    if tt[-1] <= tt[0]:
        return 0.0
    return float(np.max(np.abs(rec.at(tt)["x_s"] - x_ref)))


def _bump_radius_x(x_c, excursion, x_lo, x_hi):
    room = min(x_c - x_lo, x_hi - x_c)
    r_x = min(1.25 * excursion + 0.05 * (x_hi - x_lo), 0.95 * room)
    if r_x <= excursion or r_x <= 0:
        raise VerifyError(
            f"no room to straddle the path near x={x_c:g} inside "
            f"[{x_lo:g}, {x_hi:g}]")
    return r_x


def identity_suite(gd, count, seed, levels=SUITE_LEVELS, threads=1):
    """Residual table over seeded bumps plus one per shock and per merge.

    Placement is deterministic for a given seed: every shock gets a bump
    straddling the middle of its life, every merge point gets one centered
    on it, and `count` additional bumps are drawn uniformly inside the
    covered window, rejecting supports that contain a shock birth (the
    density ramp right after a fold would mask the quadrature order there).
    The bumps' residual tables are dealt over up to `threads` processes
    (`forkmap.fork_map`); the report does not depend on how many.
    """
    if int(count) < 1:
        raise VerifyError("count must be >= 1")
    fan = gd.fan
    t_hi_dom = float(fan.times[-1])
    x_lo, x_hi = fan.window()
    if not x_hi > x_lo:
        raise VerifyError("fan rows leave no commonly covered x-window")
    span = x_hi - x_lo
    live = sorted(_tracked(gd), key=lambda r: r.id)

    bumps, kinds = [], []
    for rec in live:
        life = rec.life[1] - rec.t_birth
        if life <= 0:
            continue
        t_c = rec.t_birth + 0.6 * life
        r_t = 0.3 * life
        x_c = rec.at(t_c)["x_s"]
        exc = _path_excursion(rec, t_c - r_t, t_c + r_t, x_c)
        bumps.append(BumpTestFunction(
            x_c, t_c, _bump_radius_x(x_c, exc, x_lo, x_hi), r_t))
        kinds.append("shock")
    for rec in live:
        if not rec.parents:
            continue
        t_m, x_m = float(rec.t_birth), float(rec.x_birth)
        r_t = 0.8 * min(t_m, t_hi_dom - t_m)
        if r_t <= 0:
            raise VerifyError(
                f"merge at t={t_m:g} leaves no straddling room in "
                f"[0, {t_hi_dom:g}]")
        exc = 0.0
        for other in live:
            if other.id == rec.id or other.id in rec.parents:
                exc = max(exc, _path_excursion(other, t_m - r_t, t_m + r_t,
                                               x_m))
        bumps.append(BumpTestFunction(
            x_m, t_m, _bump_radius_x(x_m, exc, x_lo, x_hi), r_t))
        kinds.append("merge")

    rng = np.random.default_rng(int(seed))
    births = [(rec.t_birth, rec.x_birth) for rec in live]
    placed = 0
    attempts = 0
    while placed < int(count):
        attempts += 1
        if attempts > 200 * int(count):
            raise VerifyError("could not place bumps away from shock births")
        t_c = rng.uniform(0.3 * t_hi_dom, 0.9 * t_hi_dom)
        r_t = min(rng.uniform(0.1, 0.25) * t_hi_dom, 0.9 * t_c,
                  t_hi_dom - t_c)
        x_c = rng.uniform(x_lo + 0.2 * span, x_hi - 0.2 * span)
        r_x = min(rng.uniform(0.08, 0.18) * span,
                  0.95 * (x_c - x_lo), 0.95 * (x_hi - x_c))
        near_birth = any(abs(tb - t_c) < r_t + 0.05 * t_hi_dom
                         and abs(xb - x_c) < r_x + 0.05 * span
                         for tb, xb in births)
        if near_birth or r_t <= 0 or r_x <= 0:
            continue
        bumps.append(BumpTestFunction(x_c, t_c, r_x, r_t))
        kinds.append("random")
        placed += 1

    residuals = np.array(forkmap.fork_map(
        lambda zeta: identity_residuals(gd, zeta, levels), bumps, threads))
    if not np.all(np.isfinite(residuals)):
        raise VerifyError("non-finite identity residual")
    orders = np.full_like(residuals, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders[:, 1:] = np.log2(residuals[:, :-1] / residuals[:, 1:])
    return IdentityReport(bumps=tuple(bumps), kinds=tuple(kinds),
                          levels=tuple(int(v) for v in levels),
                          residuals=residuals, orders=orders)


def essential_series(fan, times, x_grid):
    """Minimal-action slices on a fixed x-grid, for the defect table."""
    x_grid = np.asarray(x_grid, dtype=float)
    return [manifold.essential(manifold.slice_fan(fan, float(t)), x_grid)
            for t in times]


def hj_residual(slices, m, shocks=(), collar=3):
    """Max pointwise defect |S_t + P(x, S_x)| over a space-time action table.

    slices: minimal-action solutions sharing one uniform x-grid at
    equispaced times.  Central differences in both directions; nodes within
    `collar` widths of an alive shock path are masked, the action not being
    differentiable across a path.
    """
    if len(slices) < 3:
        raise VerifyError("need at least three time slices")
    ts = np.array([s.t for s in slices], dtype=float)
    dts = np.diff(ts)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(abs(dts[0]), 1e-300):
        raise VerifyError("time slices must be equispaced")
    x = np.asarray(slices[0].x, dtype=float)
    if x.size < 3:
        raise VerifyError("need at least three x nodes")
    for s in slices[1:]:
        if np.asarray(s.x).shape != x.shape or np.any(np.asarray(s.x) != x):
            raise VerifyError("slices must share one x grid")
    dxs = np.diff(x)
    if np.max(np.abs(dxs - dxs[0])) > 1e-9 * abs(dxs[0]):
        raise VerifyError("x grid must be uniform")
    dt, h = float(dts[0]), float(dxs[0])
    S = np.stack([np.asarray(s.S, dtype=float) for s in slices])
    S_t = (S[2:, 1:-1] - S[:-2, 1:-1]) / (2.0 * dt)
    S_x = (S[1:-1, 2:] - S[1:-1, :-2]) / (2.0 * h)
    xx = np.broadcast_to(x[None, 1:-1], S_x.shape)
    defect = np.abs(S_t + symbol.eval_P(m, xx, S_x))
    keep = np.ones(defect.shape, dtype=bool)
    for rec in shocks:
        if not rec.sampled:
            continue
        path = rec.at(ts[1:-1])
        w = collar * (h + (1.0 + np.abs(path["c"])) * dt)
        keep &= ~rec.alive(ts[1:-1], dt)[:, None] | (
            np.abs(x[1:-1] - path["x_s"][:, None]) > w[:, None])
    if not np.any(keep):
        raise VerifyError("every interior node is masked by shock collars")
    return float(np.max(defect[keep]))
