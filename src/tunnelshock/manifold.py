"""Projected curve geometry: branches, essential action, folds, shock paths.

A time slice of a fan is a curve (x(x0), p(x0), S(x0), ...).  Where the
projected Jacobian J keeps one sign the projection is invertible and the
slice decomposes into monotone branches; the essential action at x is the
branchwise minimum.  Folds (J = 0) seed equal-action shock paths tracked by
bracketed root solves between the adjacent essential branches.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from . import characteristics, symbol

TIE_TOL = 1e-9  # action ties resolved toward smaller |p|, then branch index


class ManifoldError(ValueError):
    pass


class UncoveredPointError(ManifoldError):
    def __init__(self, points):
        self.points = np.atleast_1d(points)
        head = ", ".join(f"{p:.6g}" for p in self.points[:4])
        super().__init__(f"no branch covers x in [{head}{'...' if self.points.size > 4 else ''}]")


class AdmissibilityError(ManifoldError):
    pass


# columns of a branch interpolant, in order
_CURVE_FIELDS = ("S", "p", "J", "a_int", "x0")


@dataclass
class Branch:
    index: int
    rows: slice            # contiguous row range in the parent curve arrays
    sign: float            # sign of J on the branch
    x_lo: float
    x_hi: float
    # the parent curve's x and _CURVE_FIELDS arrays; holding them rather than
    # the curve keeps curve and branches free of a reference cycle, so a
    # dense slice is freed as soon as its last user drops it
    data: tuple = field(repr=False)
    _fn: object = field(default=None, repr=False)

    def covers(self, x):
        return (x >= self.x_lo) & (x <= self.x_hi)

    def values(self, x):
        """Monotone piecewise-cubic interpolation of every curve field over x.

        One multi-column interpolant per branch; the last axis of the result
        follows _CURVE_FIELDS.  PCHIP slopes are taken column by column, so
        each column equals a single-field build bit for bit.
        """
        if self._fn is None:
            xs, *cols = (a[self.rows] for a in self.data)
            vals = np.stack(cols, axis=-1)
            if xs[0] > xs[-1]:
                xs, vals = xs[::-1], vals[::-1]
            if xs.size >= 2:
                self._fn = PchipInterpolator(xs, vals, axis=0,
                                             extrapolate=False)
            else:  # degenerate stump; constant
                c = vals[0]
                self._fn = lambda q: np.tile(c, np.shape(q) + (1,))
        return self._fn(x)

    def interp(self, name, x):
        """One curve field at x (see `values`)."""
        return self.values(x)[..., _CURVE_FIELDS.index(name)]


@dataclass
class FoldPoint:
    x0: float
    x: float
    left_branch: int
    right_branch: int


@dataclass
class LagrangianCurve:
    t: float
    symbol: object
    x0: np.ndarray
    x: np.ndarray
    p: np.ndarray
    S: np.ndarray
    J: np.ndarray
    a_int: np.ndarray
    branches: list = field(default_factory=list)
    folds: list = field(default_factory=list)

    def branch_pairs_around(self, x):
        """Branches covering x, ordered by branch index."""
        return [b for b in self.branches if b.x_lo <= x <= b.x_hi]


def _decompose(curve):
    J = curve.J
    x = curve.x
    signs = np.sign(J)
    s0, s1 = signs[:-1], signs[1:]
    # a branch run continues while J keeps its sign and the projection stays
    # monotone in the sign direction (a NaN step does not break it); zero-J
    # samples never join a run
    cont = (s1 == s0) & ~((x[1:] - x[:-1]) * s0 <= 0)
    starts = np.flatnonzero(np.concatenate(([True], ~cont)))
    stops = np.append(starts[1:], J.size)
    keep = (stops - starts >= 2) & (signs[starts] != 0)  # at least 2 samples
    data = (x,) + tuple(getattr(curve, name) for name in _CURVE_FIELDS)
    branches = []
    for i, j in zip(starts[keep].tolist(), (stops[keep] - 1).tolist()):
        branches.append(Branch(index=len(branches), rows=slice(i, j + 1),
                               sign=float(signs[i]),
                               x_lo=float(min(x[i], x[j])),
                               x_hi=float(max(x[i], x[j])), data=data))
    # fold points: sign changes between adjacent samples
    k = np.flatnonzero((s0 != 0) & (s1 != 0) & (s0 != s1))
    w = J[k] / (J[k] - J[k + 1])
    x0z = curve.x0[k] + w * (curve.x0[k + 1] - curve.x0[k])
    xz = x[k] + w * (x[k + 1] - x[k])
    ends_at = {b.rows.stop - 1: b.index for b in branches}
    starts_at = {b.rows.start: b.index for b in branches}
    curve.branches = branches
    curve.folds = [FoldPoint(float(a), float(b), ends_at.get(kk, -1),
                             starts_at.get(kk + 1, -1))
                   for a, b, kk in zip(x0z, xz, k.tolist())]
    return curve


def _curve_from_state(fan, t, state):
    keep = fan.escape_time > t
    if not np.all(keep):
        (idx,) = np.nonzero(keep)
        if idx.size == 0:
            raise ManifoldError(f"all rows escaped before t={t:g}")
        sel = slice(idx[0], idx[-1] + 1)
    else:
        sel = slice(None)
    curve = LagrangianCurve(
        t=float(t), symbol=fan.symbol, x0=fan.x0[sel],
        x=state["x"][sel], p=state["p"][sel], S=state["S"][sel],
        J=state["J"][sel], a_int=state["a_int"][sel])
    return _decompose(curve)


def slice_fan(fan, t):
    """Curve at a stored time node (cached on the fan)."""
    i = fan.index_of_time(t)
    cache = getattr(fan, "_slice_cache", None)
    if cache is None:
        cache = {}
        fan._slice_cache = cache
    if i not in cache:
        cache[i] = _curve_from_state(fan, fan.times[i], fan.state(i))
    return cache[i]


def slice_dense(fan, t):
    """Curve at an arbitrary time via Hermite dense output (not cached)."""
    try:
        return slice_fan(fan, t)
    except characteristics.CharacteristicsError:
        return _curve_from_state(fan, t, fan.state_at(t))


@dataclass
class EssentialSolution:
    t: float
    x: np.ndarray
    S: np.ndarray
    p: np.ndarray
    u: np.ndarray
    branch_id: np.ndarray
    J: np.ndarray = None      # the minimizing branch's J, a_int and label
    a_int: np.ndarray = None
    x0: np.ndarray = None


def essential(curve, x_grid):
    """Branchwise minimal action over x_grid with deterministic tie rules."""
    x = np.asarray(x_grid, dtype=float)
    best = np.full((len(_CURVE_FIELDS),) + x.shape, np.nan)  # field rows
    best[0] = np.inf
    best_b = np.full(x.shape, -1, dtype=int)
    for b in curve.branches:
        mask = b.covers(x)
        if not np.any(mask):
            continue
        vals = b.values(x[mask]).T
        S_b, p_b = vals[0], vals[1]
        cur_S = best[0, mask]
        cur_p = best[1, mask]
        tol = TIE_TOL * (1.0 + np.abs(S_b))
        better = S_b < cur_S - tol
        tie = np.abs(S_b - cur_S) <= tol
        with np.errstate(invalid="ignore"):
            better |= tie & (np.abs(p_b) < np.abs(cur_p) - TIE_TOL)
        if np.any(better):
            idx = np.nonzero(mask)[0][better]
            best[:, idx] = vals[:, better]
            best_b[idx] = b.index
    missing = best_b < 0
    if np.any(missing):
        raise UncoveredPointError(x[missing])
    S, p, J, a_int, x0 = best
    u = symbol.eval_dP_dp(curve.symbol, x, p, curve.t)
    return EssentialSolution(t=curve.t, x=x, S=S, p=p,
                             u=np.asarray(u, dtype=float) + np.zeros_like(x),
                             branch_id=best_b, J=J, a_int=a_int, x0=x0)


# ---------------------------------------------------------------------------
# singularities


@dataclass
class SingularPoint:
    t: float
    x: float
    x0: float
    rows: tuple  # contiguous label-index range (lo, hi) that folds


def _cross_times_rows(fan, rows, k):
    """Bisect the Hermite dense J(t) = 0 inside (times[k-1], times[k]).

    Vectorized over rows whose first nonpositive stored J is at node k.
    """
    rows = np.asarray(rows, dtype=int)
    t0, t1 = float(fan.times[k - 1]), float(fan.times[k])
    h = t1 - t0
    Ja = fan.J[k - 1, rows]
    Jb = fan.J[k, rows]
    fa = fan.node_rhs(k - 1)["J"][rows]
    fb = fan.node_rhs(k)["J"][rows]
    ta = np.full(rows.size, t0)
    tb = np.full(rows.size, t1)
    for _ in range(60):
        tm = 0.5 * (ta + tb)
        Jm = characteristics._cubic_hermite((tm - t0) / h, h, Ja, Jb, fa, fb)
        pos = Jm > 0
        ta = np.where(pos, tm, ta)
        tb = np.where(pos, tb, tm)
    out = 0.5 * (ta + tb)
    out[Ja <= 0] = t0
    return out


def find_singularities(fan):
    """All first-fold events, one per contiguous folding label cluster."""
    neg = fan.J <= 0.0
    first = np.argmax(neg, axis=0)  # first index with J <= 0, if any
    (idx,) = np.nonzero(neg.any(axis=0))
    if not idx.size:
        return []
    events = []
    # contiguous clusters of folding rows
    gaps = np.flatnonzero(np.diff(idx) > 1)
    for lo, hi in zip(idx[np.append(0, gaps + 1)], idx[np.append(gaps, -1)]):
        rows = np.arange(lo, hi + 1)
        steps = first[rows]
        kmin = int(np.min(steps))
        if kmin == 0:
            raise ManifoldError("fan begins at or past a fold; shrink h_t or data")
        # many rows can share the earliest stored crossing interval: refine
        # them all, then fit a parabola around the refined minimum
        tied = rows[steps == kmin]
        t_tied = _cross_times_rows(fan, tied, kmin)
        r_best = int(tied[np.argmin(t_tied)])
        # the earliest row and its neighbours in the cluster, in label order
        cand = [r for r in (r_best - 1, r_best, r_best + 1) if lo <= r <= hi]
        ts = [float(t_tied[tied == r][0]) if first[r] == kmin
              else float(_cross_times_rows(fan, [r], int(first[r]))[0])
              for r in cand]
        xs0 = fan.x0[cand]
        c2 = np.polyfit(xs0, ts, 2) if len(cand) == 3 else None
        if c2 is not None and c2[0] > 0:
            x0_star = float(np.clip(-c2[1] / (2 * c2[0]), xs0[0], xs0[-1]))
            t_star = float(np.polyval(c2, x0_star))
        else:
            j = int(np.argmin(ts))
            x0_star, t_star = float(xs0[j]), float(ts[j])
        state = fan.state_at(min(t_star, float(fan.times[-1])))
        x_star = float(np.interp(x0_star, fan.x0, state["x"]))
        events.append(SingularPoint(t=t_star, x=x_star, x0=x0_star,
                                    rows=(int(lo), int(hi))))
    return _time_order(events)


def _time_order(events, tol=1e-12):
    """Events by fold time; folds that coincide within ``tol`` (relative)
    are ordered left to right, so symmetric folds, whose times differ in the
    last bits only, always get the same shock ids."""
    events = sorted(events, key=lambda e: e.t)
    out = []
    while events:
        t0 = events[0].t
        n = sum(1 for e in events if e.t - t0 <= tol * (1.0 + abs(t0)))
        out.extend(sorted(events[:n], key=lambda e: e.x0))
        events = events[n:]
    return out


def first_singularity(fan):
    """Earliest fold event, or None when J stays positive throughout."""
    events = find_singularities(fan)
    return events[0] if events else None


# ---------------------------------------------------------------------------
# shock paths


@dataclass
class ShockRecord:
    id: int
    t_birth: float
    x_birth: float
    x0_birth: float = None  # critical label (None for merge children)
    parents: tuple = ()
    times: np.ndarray = None
    x_s: np.ndarray = None
    c: np.ndarray = None
    p_l: np.ndarray = None
    p_r: np.ndarray = None
    u_l: np.ndarray = None
    u_r: np.ndarray = None
    S_s: np.ndarray = None
    x0_l: np.ndarray = None
    x0_r: np.ndarray = None
    J_l: np.ndarray = None
    J_r: np.ndarray = None
    aint_l: np.ndarray = None
    aint_r: np.ndarray = None
    R_l: np.ndarray = None
    R_r: np.ndarray = None
    e: np.ndarray = None
    merged_into: int = -1
    t_end: float = None   # instant the record hands off (merge) or stops
    e_end: float = None   # amplitude carried to t_end

    def at(self, t):
        """Linear interpolation of path quantities at time t."""
        out = {}
        for name in ("x_s", "c", "p_l", "p_r", "u_l", "u_r", "S_s", "x0_l",
                     "x0_r", "R_l", "R_r", "e"):
            arr = getattr(self, name)
            if arr is not None:
                out[name] = float(np.interp(t, self.times, arr))
        return out


def _essential_branch_near(curve, x, side, w):
    """Branch with minimal action at x -/+ w (the one-sided essential branch)."""
    probe = x - w if side == "l" else x + w
    cands = curve.branch_pairs_around(probe)
    if not cands:
        # fall back to nearest covering branch edge
        cands = sorted(curve.branches,
                       key=lambda b: min(abs(b.x_lo - probe), abs(b.x_hi - probe)))[:1]
        if not cands:
            raise ManifoldError(f"no branches near x={probe:g} at t={curve.t:g}")
        return cands[0]
    vals = [float(b.interp("S", probe)) for b in cands]
    return cands[int(np.argmin(vals))]


def _equal_action_root(curve, x_guess, w0):
    """Solve S_left(x) = S_right(x) near x_guess; None if no transversal root."""
    for w in (w0, 2 * w0, 4 * w0, 8 * w0):
        try:
            bl = _essential_branch_near(curve, x_guess, "l", w)
            br = _essential_branch_near(curve, x_guess, "r", w)
        except ManifoldError:
            continue
        if bl.index == br.index:
            continue
        lo = max(bl.x_lo, br.x_lo)
        hi = min(bl.x_hi, br.x_hi)
        if not (lo < hi):
            continue
        pad = 1e-12 * (1 + abs(hi - lo))
        lo, hi = lo + pad, hi - pad

        def g(x):
            return float(bl.interp("S", x) - br.interp("S", x))

        glo, ghi = g(lo), g(hi)
        if not np.isfinite(glo) or not np.isfinite(ghi):
            continue
        if glo == 0.0:
            return lo, bl, br
        if ghi == 0.0:
            return hi, bl, br
        if glo * ghi > 0:
            continue
        root = brentq(g, lo, hi, xtol=1e-13, rtol=1e-14)
        return float(root), bl, br
    return None


def _fold_midpoint(curve, x_guess):
    if not curve.folds:
        return None
    xs = np.array([f.x for f in curve.folds])
    order = np.argsort(np.abs(xs - x_guess))
    if xs.size >= 2:
        a, b = xs[order[0]], xs[order[1]]
        return 0.5 * (a + b)
    return float(xs[order[0]])


def _one_sided(branch, x):
    return {name: float(v) for name, v in zip(_CURVE_FIELDS, branch.values(x))}


class _Tracker:
    def __init__(self, shock_id, t_birth, x_birth, parents=(), x0_birth=None):
        self.id = shock_id
        self.t_birth = t_birth
        self.x_birth = x_birth
        self.x0_birth = x0_birth
        self.parents = tuple(parents)
        self.samples = []
        self.x_prev = x_birth
        self.root_mode = False
        self.merged_into = -1

    def step(self, fan, curve):
        m = fan.symbol
        w0 = 3 * np.median(np.abs(np.diff(curve.x))) + 1e-9
        hit = _equal_action_root(curve, self.x_prev, w0)
        if hit is not None:
            x_s, bl, br = hit
            sl = _one_sided(bl, x_s)
            sr = _one_sided(br, x_s)
            if abs(sl["p"] - sr["p"]) > 1e-8 * (1 + abs(sl["p"])):
                self.root_mode = True
        if hit is None or (not self.root_mode):
            x_mid = _fold_midpoint(curve, self.x_prev)
            if x_mid is None:
                if hit is None:
                    # birth so close to a grid node that the fold is not yet
                    # numerically resolved; skip until it opens up
                    dt_store = float(fan.times[1] - fan.times[0]) if fan.times.size > 1 else fan.h_t
                    if self.samples or curve.t - self.t_birth > 5 * dt_store:
                        raise ManifoldError(
                            f"shock {self.id}: no fold and no equal-action "
                            f"root at t={curve.t:g}")
                    return False
                x_mid = x_s  # keep the (degenerate) root
            x_s = x_mid
            bl = _essential_branch_near(curve, x_s, "l", w0)
            br = _essential_branch_near(curve, x_s, "r", w0)
            sl = _one_sided(bl, np.clip(x_s, bl.x_lo, bl.x_hi))
            sr = _one_sided(br, np.clip(x_s, br.x_lo, br.x_hi))
        u_l = float(symbol.eval_dP_dp(m, x_s, sl["p"], curve.t))
        u_r = float(symbol.eval_dP_dp(m, x_s, sr["p"], curve.t))
        self.samples.append(dict(t=curve.t, x_s=x_s, p_l=sl["p"], p_r=sr["p"],
                                 u_l=u_l, u_r=u_r, S_s=0.5 * (sl["S"] + sr["S"]),
                                 x0_l=sl["x0"], x0_r=sr["x0"],
                                 J_l=sl["J"], J_r=sr["J"],
                                 aint_l=sl["a_int"], aint_r=sr["a_int"]))
        self.x_prev = x_s

    def to_record(self):
        t = np.array([s["t"] for s in self.samples])
        rec = ShockRecord(id=self.id, t_birth=self.t_birth, x_birth=self.x_birth,
                          x0_birth=self.x0_birth, parents=self.parents, times=t,
                          merged_into=self.merged_into)
        for name in ("x_s", "p_l", "p_r", "u_l", "u_r", "S_s", "x0_l", "x0_r",
                     "J_l", "J_r", "aint_l", "aint_r"):
            setattr(rec, name, np.array([s[name] for s in self.samples]))
        if t.size >= 2:
            rec.c = np.gradient(rec.x_s, t)
        else:
            rec.c = np.zeros_like(rec.x_s)
        return rec


def check_admissibility(rec, tol=1e-10, p_gap=1e-4):
    """Lax inequalities u_l >= c >= u_r at every path sample.

    Strict (tolerance tol) where the momentum jump is resolved; right at
    birth the one-sided states coincide and the discrete path speed only
    carries first-order accuracy, so unresolved samples get a slack tied to
    the jump magnitude instead.
    """
    resolved = np.abs(rec.p_l - rec.p_r) > p_gap
    slack = np.where(resolved, tol, tol + 1e-2 * (1.0 + np.abs(rec.c)))
    bad = (rec.u_l - rec.c < -slack) | (rec.c - rec.u_r < -slack)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise AdmissibilityError(
            f"shock {rec.id}: Lax inequalities fail at t={rec.times[k]:.6g} "
            f"(u_l={rec.u_l[k]:.6g}, c={rec.c[k]:.6g}, u_r={rec.u_r[k]:.6g})")


def check_speed_consistency(rec, m, tol=1e-3, p_gap=1e-4):
    """|c - [P]/[p]| <= tol*(1+|c|) wherever the momentum jump is resolved."""
    worst = 0.0
    for k in range(rec.times.size):
        dp = rec.p_l[k] - rec.p_r[k]
        if abs(dp) < p_gap:
            continue
        t = float(rec.times[k])
        Pl = float(symbol.eval_P(m, rec.x_s[k], rec.p_l[k], t))
        Pr = float(symbol.eval_P(m, rec.x_s[k], rec.p_r[k], t))
        rh = (Pl - Pr) / dp
        dev = abs(rec.c[k] - rh) / (1.0 + abs(rec.c[k]))
        worst = max(worst, dev)
    if worst > tol:
        raise ManifoldError(f"shock {rec.id}: speed deviates from the jump "
                            f"quotient by {worst:.3e} (> {tol:g})")
    return worst


def track_shocks(fan, t_stop=None, check=True):
    """Track every fold-seeded shock on the stored grid, merging crossers.

    Returns ShockRecords ordered by id; merged parents carry merged_into.
    """
    events = find_singularities(fan)
    if not events:
        return []
    t_end = float(fan.times[-1]) if t_stop is None else float(t_stop)
    trackers = []
    done = []
    next_id = 0
    for ev in events:
        trackers.append(_Tracker(next_id, ev.t, ev.x, (), x0_birth=ev.x0))
        next_id += 1
    for i, t in enumerate(fan.times):
        t = float(t)
        if t > t_end + 1e-12:
            break
        live = [tr for tr in trackers if tr.t_birth <= t + 1e-12 and tr.merged_into < 0]
        if not live:
            continue
        curve = slice_fan(fan, t)
        for tr in live:
            tr.step(fan, curve)
        # merge detection: a pair ordered by the previous sample whose gap
        # has closed (or crossed) after this step
        merged_any = True
        while merged_any:
            merged_any = False
            for i in range(len(live)):
                for j in range(i + 1, len(live)):
                    a, b = live[i], live[j]
                    if len(a.samples) < 2 or len(b.samples) < 2:
                        continue
                    if a.samples[-2]["x_s"] > b.samples[-2]["x_s"]:
                        a, b = b, a
                    g0 = b.samples[-2]["x_s"] - a.samples[-2]["x_s"]
                    g1 = b.samples[-1]["x_s"] - a.samples[-1]["x_s"]
                    if g0 <= 1e-12 or g1 > 1e-12:
                        continue
                    ta, tb = a.samples[-2]["t"], a.samples[-1]["t"]
                    frac = g0 / (g0 - g1) if g0 != g1 else 1.0
                    frac = min(max(frac, 0.0), 1.0)
                    t_m = ta + frac * (tb - ta)
                    xa0, xa1 = a.samples[-2]["x_s"], a.samples[-1]["x_s"]
                    x_m = xa0 + frac * (xa1 - xa0)
                    child = _Tracker(next_id, float(t_m), float(x_m),
                                     parents=(a.id, b.id))
                    next_id += 1
                    a.merged_into = child.id
                    b.merged_into = child.id
                    # drop the post-merge sample from the parents
                    a.samples.pop()
                    b.samples.pop()
                    child.x_prev = float(x_m)
                    child.step(fan, curve)
                    trackers.append(child)
                    live = [tr for tr in trackers
                            if tr.t_birth <= t + 1e-12 and tr.merged_into < 0]
                    merged_any = True
                    break
                if merged_any:
                    break
    records = [tr.to_record() for tr in sorted(trackers, key=lambda tr: tr.id)]
    if check:
        for rec in records:
            if rec.times.size:
                check_admissibility(rec)
                check_speed_consistency(rec, fan.symbol)
    return records
