"""Projected curve geometry: branches, essential action, folds, shock paths.

A time slice of a fan is a curve (x(x0), p(x0), S(x0), ...).  Where the
projected Jacobian J keeps one sign the projection is invertible and the
slice decomposes into monotone branches; the essential action at x is the
branchwise minimum.  Every field is smooth in the label x0, also across a
fold where it is not in x, so a branch interpolates in x0 and inverts
x(x0) for a query at x.  Folds (J = 0) seed equal-action shock paths
tracked by bracketed Newton solves between the adjacent essential branches.
"""

from dataclasses import dataclass, field

import numpy as np

from . import characteristics, roots, symbol

TIE_TOL = 1e-9  # action ties resolved toward smaller |p|, then branch index
P_GAP = 1e-4  # a momentum jump |p_l - p_r| above this is resolved
LAX_TOL = 1e-10  # Lax inequalities where the jump is resolved
SPEED_TOL = 1e-3  # path speed against the jump quotient, relative
# a lost root blames the label box when a last one-sided label lies within
# this many label spacings of its edge
EDGE_SPACINGS = 10
# slices a fan keeps: track_shocks walks the stored times once, in order,
# and evolve asks for one slice time's fields, then its mass balance
SLICES_KEPT = 2


class ManifoldError(ValueError):
    pass


class UncoveredPointError(ManifoldError):
    def __init__(self, points):
        self.points = np.atleast_1d(points)
        head = ", ".join(f"{p:.6g}" for p in self.points[:4])
        super().__init__(f"no branch covers x in [{head}{'...' if self.points.size > 4 else ''}]")


class AdmissibilityError(ManifoldError):
    pass


# rows of `Branch.values`, in order: the label, then the fields the branch
# interpolates in it
_CURVE_FIELDS = ("x0", "S", "p", "J", "a_int")


def _label_stencil(x0):
    """Rows and weights, each of shape (m, n), of d/dx0 at every label: the
    derivative of the polynomial through m = 5 consecutive rows (fewer on
    a shorter curve), centred where they fit and one-sided at the ends, so
    fourth order on any increasing labels."""
    m = min(5, x0.size)
    idx = np.clip(np.arange(x0.size) - m // 2, 0, x0.size - m)
    idx = idx + np.arange(m)[:, None]
    z = (x0[idx] - x0).T  # stencil offsets from the row
    # weights that differentiate every polynomial of degree < m exactly
    V = np.swapaxes(z[..., None] ** np.arange(m), 1, 2)
    e1 = np.broadcast_to(np.arange(m) == 1, z.shape)[..., None]
    return idx, np.linalg.solve(V, 1.0 * e1)[..., 0].T.copy()


@dataclass
class Branch:
    index: int
    rows: slice            # contiguous row range in the parent curve arrays
    sign: float            # sign of J on the branch
    x_lo: float
    x_hi: float
    # the parent curve's labels, its rows (x, S, p, J, a_int) and their label
    # slopes; holding them rather than the curve keeps curve and branches
    # free of a reference cycle, so a dense slice is freed with its last user
    data: tuple = field(repr=False)

    def covers(self, x):
        return (x >= self.x_lo) & (x <= self.x_hi)

    def at(self, k, s):
        """(x, S, p, J, a_int) on a first axis, the label and dx/dx0 at
        fraction s of row interval k: cubic Hermites in x0 between the rows,
        with the slopes of `_decompose`.  It reads only the curve arrays
        that every branch of the curve shares, so k may span branches."""
        x0, Y, D = self.data
        a, b = x0[k], x0[k + 1]
        ya, yb, fa, fb = (A.take(i, 1) for A in (Y, D) for i in (k, k + 1))
        H = characteristics._cubic_hermite(s, b - a, ya, yb, fa, fb)
        dx = (6 * s * (1 - s) * (yb[0] - ya[0]) / (b - a)
              + (1 - s) * (1 - 3 * s) * fa[0] + s * (3 * s - 2) * fb[0])
        return H, (1 - s) * a + s * b, dx

    def locate(self, x):
        """Row interval k and fraction s of the label whose image is x, in
        the shape of x (see `_locate`)."""
        k, s = _locate([(self, x)])
        return k.reshape(np.shape(x)), s.reshape(np.shape(x))

    def values(self, x):
        """Every curve field at the points x, on a first axis that follows
        _CURVE_FIELDS; a point outside [x_lo, x_hi] gives NaN."""
        return _values([(self, x)]).reshape((-1,) + np.shape(x))


def _locate(queries):
    """Row interval k and fraction s of the label whose image is x, for
    every point x of every (branch, points) pair of `queries`, flat and in
    pair order; the branches belong to one curve.

    Safeguarded Newton (`roots.newton`) on each branch's monotone x(x0),
    inside the row interval that brackets x.  A row's own x gives s = 0 (1
    at the last row) exactly; s is NaN outside the branch's [x_lo, x_hi]."""
    x0, Y, D = queries[0][0].data
    parts = []
    for b, x in queries:
        q = b.sign * np.ravel(x).astype(float)
        xs = b.sign * Y[0, b.rows]  # increasing
        inside = (q >= xs[0]) & (q <= xs[-1])
        q = np.where(inside, q, xs[0])
        k = b.rows.start + np.minimum(
            np.searchsorted(xs, q, side="right") - 1, xs.size - 2)
        parts.append((q, k, inside, np.full(q.size, b.sign)))
    q, k, inside, sign = (np.concatenate(a) for a in zip(*parts))
    # sign * x - q on the row interval, a cubic c0 + ... + c3 s^3
    ya, yb = sign * Y[0, k], sign * Y[0, k + 1]
    h = sign * (x0[k + 1] - x0[k])
    c0, c1, fb, d = ya - q, h * D[0, k], h * D[0, k + 1], yb - ya
    c2 = 3 * d - 2 * c1 - fb
    c3 = d - c1 - c2
    with np.errstate(divide="ignore", invalid="ignore"):
        # start from the Hermite of the inverse (reciprocal end slopes)
        r = -c0 / d
        s = np.minimum(np.maximum(r + r * (1 - r) * (
            (1 - r) * (d / c1 - 1) - r * (d / fb - 1)), 0.0), 1.0)

    def cubic(s, c0, c1, c2, c3):
        return (((c3 * s + c2) * s + c1) * s + c0,
                (3 * c3 * s + 2 * c2) * s + c1)

    out = roots.newton(cubic, s, 0.0, 1.0, (c0, c1, c2, c3), 60)
    return k, np.where(inside, np.where(q == yb, 1.0, out), np.nan)


def _values(queries):
    """Every curve field, on a first axis that follows _CURVE_FIELDS, at
    every point of every (branch, points) pair of `queries` (branches of one
    curve), flat and in pair order: one `_locate` and one Hermite call."""
    H, lab, _ = queries[0][0].at(*_locate(queries))
    H[0] = lab
    return H


@dataclass
class LagrangianCurve:
    t: float
    symbol: object
    x0: np.ndarray
    x: np.ndarray
    p: np.ndarray
    S: np.ndarray
    J: np.ndarray
    dp: np.ndarray
    a_int: np.ndarray
    branches: list = field(default_factory=list)


def _decompose(curve, stencil=None):
    J = curve.J
    x = curve.x
    signs = np.sign(J)
    s0, s1 = signs[:-1], signs[1:]
    # a branch run continues while J keeps its sign and the projection stays
    # monotone in the sign direction (a NaN step does not break it)
    cont = (s1 == s0) & ~((x[1:] - x[:-1]) * s0 <= 0)
    starts = np.flatnonzero(np.concatenate(([True], ~cont)))
    stops = np.append(starts[1:], J.size)
    keep = (stops - starts >= 2) & (signs[starts] != 0)  # at least 2 samples
    # a row that is a run of its own (J about 0 at a fold, of either sign)
    # also ends the runs on both of its sides where x stays monotone, so
    # both branches cover its x
    lone = set(starts[stops - starts == 1].tolist())
    # label slopes: exact from the fan where it carries them (dx = J dx0,
    # dS = p dx, and dp), fourth-order differences for J and a_int
    idx, w = _label_stencil(curve.x0) if stencil is None else stencil
    Y = np.stack((x, curve.S, curve.p, J, curve.a_int))
    D = np.vstack((J, curve.p * J, curve.dp,
                   np.einsum("jn,kjn->kn", w, Y[3:].take(idx, axis=1))))
    branches = []
    for i, j in zip(starts[keep].tolist(), (stops[keep] - 1).tolist()):
        sign = float(signs[i])
        if i - 1 in lone and (x[i] - x[i - 1]) * sign > 0:
            i -= 1
        if j + 1 in lone and (x[j + 1] - x[j]) * sign > 0:
            j += 1
        branches.append(Branch(index=len(branches), rows=slice(i, j + 1),
                               sign=sign,
                               x_lo=float(min(x[i], x[j])),
                               x_hi=float(max(x[i], x[j])),
                               data=(curve.x0, Y, D)))
    curve.branches = branches
    return curve


def _curve_from_state(fan, t, state):
    curve = LagrangianCurve(
        t=float(t), symbol=fan.symbol, x0=fan.x0, x=state["x"], p=state["p"],
        S=state["S"], J=state["J"], dp=state["dp"], a_int=state["a_int"])
    # every slice of a fan shares its labels, so the stencil is cached
    if fan._label_stencil is None:
        fan._label_stencil = _label_stencil(fan.x0)
    return _decompose(curve, fan._label_stencil)


def slice_fan(fan, t):
    """Curve at a stored time node; the fan keeps the last SLICES_KEPT
    slices asked for, the oldest evicted first."""
    i = fan.index_of_time(t)
    cache = fan._slice_cache
    if i not in cache:
        cache[i] = _curve_from_state(fan, fan.times[i], fan.state(i))
        if len(cache) > SLICES_KEPT:
            del cache[next(iter(cache))]
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
    """Branchwise minimal action over x_grid with deterministic tie rules.

    Every (branch, point) pair that a branch covers is located and
    evaluated in one batch; the branches then compete in index order."""
    x = np.asarray(x_grid, dtype=float)
    best = np.full((len(_CURVE_FIELDS),) + x.shape, np.nan)  # field rows
    best[1] = np.inf
    best_b = np.full(x.shape, -1, dtype=int)
    covering = [(b, m) for b in curve.branches if np.any(m := b.covers(x))]
    sizes = np.cumsum([np.count_nonzero(m) for _, m in covering])
    pooled = np.split(_values([(b, x[m]) for b, m in covering]), sizes[:-1],
                      axis=1) if covering else []
    for (b, mask), vals in zip(covering, pooled):
        S_b, p_b = vals[1], vals[2]
        cur_S = best[1, mask]
        cur_p = best[2, mask]
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
    x0, S, p, J, a_int = best
    u = symbol.eval_dP_dp(curve.symbol, x, p)
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
    ta, tb = roots.bisect(lambda t: characteristics._cubic_hermite(
        (t - t0) / h, h, Ja, Jb, fa, fb) > 0, np.full(rows.size, t0), t1, 60)
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


# fields of a record that `ShockRecord.at` interpolates over its whole life
_PATH_FIELDS = ("x_s", "c", "p_l", "p_r", "e")


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
    x_end: float = None   # handoff point: the merge child's x_birth
    e_birth: float = None  # amplitude at t_birth: 0, or the parents' sum
    e_end: float = None   # amplitude carried to t_end

    @property
    def sampled(self):
        """Whether the tracker found an equal-action root on a stored time.
        A shock born in the last store intervals before T, or a merge child
        that finds no root before T, has none: its path arrays are empty,
        e stays None and it has no life, so every reader of the path skips
        it."""
        return self.times is not None and self.times.size > 0

    @property
    def life(self):
        """First and last knot time: the birth and the handoff, where they
        lie more than 1e-15 outside the stored samples, else the samples'
        own ends."""
        t0, t1 = float(self.times[0]), float(self.times[-1])
        lo = self.t_birth if self.t_birth < t0 - 1e-15 else t0
        hand = self.merged_into >= 0 and self.t_end > t1 + 1e-15
        return lo, (self.t_end if hand else t1)

    def alive(self, t, tol=1e-12):
        """Whether t (a number or an array) lies in the life, widened by
        tol at both ends."""
        lo, hi = self.life
        return (lo - tol <= t) & (t <= hi + tol)

    def knots(self):
        """The stored samples with the birth row (x_birth, e_birth) and the
        handoff row (x_end, e_end) added at the ends of `life`; c and the
        momenta hold their nearest sample there.  Fields the record does
        not carry are left out."""
        lo, hi = self.life
        head, tail = bool(lo < self.times[0]), bool(hi > self.times[-1])
        out = {"t": np.concatenate(([lo] * head, self.times, [hi] * tail))}
        ends = {"x_s": (self.x_birth, self.x_end),
                "e": (self.e_birth, self.e_end)}
        for name in _PATH_FIELDS:
            arr = getattr(self, name)
            if arr is not None:
                a, b = ends.get(name, (arr[0], arr[-1]))
                out[name] = np.concatenate(([a] * head, arr, [b] * tail))
        return out

    def at(self, t):
        """Path fields at time t (a number or an array): linear in t between
        the knots, held at the birth and handoff values outside the life."""
        knots = self.knots()
        t_k = knots.pop("t")
        out = {name: np.interp(t, t_k, arr) for name, arr in knots.items()}
        return {k: float(v) for k, v in out.items()} if np.ndim(t) == 0 \
            else out


def _essential_branches_near(curve, x, w):
    """Branches with minimal action at x - w and at x + w (the one-sided
    essential branches); a point that no branch covers raises
    UncoveredPointError.  The candidates are queried at both points in
    one batch."""
    if not curve.branches:
        raise ManifoldError(f"no branches near x={x:g} at t={curve.t:g}")
    probes = np.array([x - w, x + w])
    cands = [[b for b in curve.branches if b.x_lo <= p <= b.x_hi]
             for p in probes]
    if not all(cands):
        raise UncoveredPointError(probes[[not c for c in cands]])
    need = list({b.index: b for c in cands if len(c) > 1 for b in c}.values())
    S = dict(zip((b.index for b in need), _values(
        [(b, probes) for b in need])[1].reshape(-1, 2))) if need else {}
    return tuple(c[0] if len(c) == 1 else min(c, key=lambda b: S[b.index][j])
                 for j, c in enumerate(cands))


def _equal_action_root(curve, x_guess, w0):
    """Solve S_left(x) = S_right(x) near x_guess; None if no transversal root.

    Newton's method on the labels (a, b) of the two branches, for
    x(a) = x(b) and S(a) = S(b): the Jacobian is exact through dx/dx0 = J
    and dS/dx0 = p J, and each step is one Hermite call for both labels.
    A step that leaves either branch's labels or the x-bracket, and every
    step after the first 20, is a bisection of the bracket instead.
    Returns the root, both branches and their `values` rows there."""
    if not curve.branches:
        return None
    x0 = curve.x0
    for w in (w0, 2 * w0, 4 * w0, 8 * w0):
        bl, br = _essential_branches_near(curve, x_guess, w)
        if bl.index == br.index:
            continue
        lo, hi = max(bl.x_lo, br.x_lo), min(bl.x_hi, br.x_hi)
        if not (lo < hi):
            continue
        pad = 1e-12 * (1 + abs(hi - lo))
        lo, hi = lo + pad, hi - pad
        xs = np.array([lo, hi, min(max(x_guess, lo), hi)])
        v = _values([(bl, xs), (br, xs)])
        g = v[1, :3] - v[1, 3:]
        if not np.all(np.isfinite(g[:2])) or g[0] * g[1] > 0:
            continue
        j = 2 if g[0] * g[1] else int(g[1] == 0.0)  # an end can be the root
        x, rows = float(xs[j]), v[:, [j, j + 3]]
        X = np.array([x, x])  # the image of each label
        last = np.array([bl.rows.stop, br.rows.stop]) - 1
        first = x0[[bl.rows.start, br.rows.start]]
        tries = 20
        while not (rows[1, 0] == rows[1, 1] and X[0] == X[1]):
            # with both rows at x, the sign of the gap splits the bracket
            if X[0] == X[1]:
                lo, hi = ((x, hi) if (rows[1, 0] > rows[1, 1]) == (g[0] > 0)
                          else (lo, x))
            (xa, xb), (Sa, Sb), (pa, pb) = X, rows[1], rows[2]
            with np.errstate(divide="ignore", invalid="ignore"):
                # the common image of the Newton step, then each label
                new = xa - (Sa - Sb - pb * (xa - xb)) / (pa - pb)
                lab = rows[0] + (new - X) / rows[3]
            tol = 1e-14 * (1 + abs(x))
            if np.all(np.abs(new - X) <= tol):
                break
            if tries and lo < new < hi and np.all((lab >= first)
                                                  & (lab <= x0[last])):
                tries -= 1
                k = np.minimum(np.searchsorted(x0, lab, side="right") - 1,
                               last - 1)
                rows = bl.at(k, (lab - x0[k]) / (x0[k + 1] - x0[k]))[0]
                X, rows[0] = rows[0].copy(), lab
            else:
                new = 0.5 * (lo + hi)
                if np.all(np.abs(new - X) <= tol):
                    break
                rows = _values([(bl, new), (br, new)])
                X = np.array([new, new])
            x = float(0.5 * (X[0] + X[1]))
        return x, bl, br, rows[:, 0], rows[:, 1]
    return None


class _Tracker:
    def __init__(self, shock_id, t_birth, x_birth, parents=(), x0_birth=None):
        self.id = shock_id
        self.t_birth = t_birth
        self.x_birth = x_birth
        self.x0_birth = x0_birth
        self.parents = tuple(parents)
        self.samples = []
        self.x_prev = x_birth
        self.merged_into = -1

    def step(self, fan, curve, w0):
        """Add the sample of this slice, at the equal-action root of its
        one-sided branches; w0 is the slice's probe width.  A root whose
        left label does not lie below its right one is no root."""
        hit = _equal_action_root(curve, self.x_prev, w0)
        if hit is not None:
            x_s, _, _, *rows = hit
            sl, sr = (dict(zip(_CURVE_FIELDS, v.tolist())) for v in rows)
        if hit is None or not sl["x0"] < sr["x0"]:
            if self.samples:
                last = self.samples[-1]
                lost = (f"shock {self.id}: no equal-action root at "
                        f"t={curve.t:g}; last one-sided labels "
                        f"{last['x0_l']:.3g}, {last['x0_r']:.3g}")
                lo, hi = fan.x0[0], fan.x0[-1]
                edge = EDGE_SPACINGS * (hi - lo) / (fan.x0.size - 1)
                if min(min(x - lo, hi - x) for x in
                       (last["x0_l"], last["x0_r"])) <= edge:
                    # the shock has taken in a label box edge: the one-sided
                    # states now start outside the box
                    raise ManifoldError(
                        f"{lost} in the label box [{lo:g}, {hi:g}]; widen "
                        "[x_min, x_max]")
                raise ManifoldError(
                    f"{lost}, more than {EDGE_SPACINGS} label spacings inside "
                    "the label box: the root was lost away from its edges")
            # birth so close to a grid node that the fold is not yet
            # numerically resolved; skip until it opens up
            dt_store = float(fan.times[1] - fan.times[0]) if fan.times.size > 1 else fan.h_t
            if curve.t - self.t_birth > 5 * dt_store:
                raise ManifoldError(
                    f"shock {self.id}: no equal-action root within 5 store "
                    f"intervals of its birth, at t={curve.t:g}")
            return
        self.samples.append(dict(t=curve.t, x_s=x_s, p_l=sl["p"], p_r=sr["p"],
                                 x0_l=sl["x0"], x0_r=sr["x0"],
                                 J_l=sl["J"], J_r=sr["J"],
                                 aint_l=sl["a_int"], aint_r=sr["a_int"]))
        self.x_prev = x_s

    def to_record(self, m):
        t = np.array([s["t"] for s in self.samples])
        rec = ShockRecord(id=self.id, t_birth=self.t_birth, x_birth=self.x_birth,
                          x0_birth=self.x0_birth, parents=self.parents, times=t,
                          merged_into=self.merged_into)
        for name in ("x_s", "p_l", "p_r", "x0_l", "x0_r",
                     "J_l", "J_r", "aint_l", "aint_r"):
            setattr(rec, name, np.array([s[name] for s in self.samples]))
        rec.u_l = symbol.eval_dP_dp(m, rec.x_s, rec.p_l)
        rec.u_r = symbol.eval_dP_dp(m, rec.x_s, rec.p_r)
        if t.size >= 2:
            rec.c = np.gradient(rec.x_s, t)
        else:
            rec.c = np.zeros_like(rec.x_s)
        return rec


def check_admissibility(rec):
    """Lax inequalities u_l >= c >= u_r at every path sample.

    Strict (tolerance LAX_TOL) where the momentum jump is resolved; a
    sample with |p_l - p_r| <= P_GAP gets a slack tied to the path speed
    instead.  Every sample sits at an equal-action root with ordered labels,
    and no such sample has been measured unresolved.
    """
    resolved = np.abs(rec.p_l - rec.p_r) > P_GAP
    slack = np.where(resolved, LAX_TOL, LAX_TOL + 1e-2 * (1.0 + np.abs(rec.c)))
    bad = (rec.u_l - rec.c < -slack) | (rec.c - rec.u_r < -slack)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise AdmissibilityError(
            f"shock {rec.id}: Lax inequalities fail at t={rec.times[k]:.6g} "
            f"(u_l={rec.u_l[k]:.6g}, c={rec.c[k]:.6g}, u_r={rec.u_r[k]:.6g})")


def check_speed_consistency(rec, m):
    """|c - [P]/[p]| <= SPEED_TOL*(1+|c|) where the jump is resolved."""
    k = np.abs(rec.p_l - rec.p_r) > P_GAP
    rh = symbol.jump_speed(m, rec.x_s[k], rec.p_l[k], rec.p_r[k])
    c = rec.c[k]
    worst = float(np.max(np.abs(c - rh) / (1.0 + np.abs(c)), initial=0.0))
    if worst > SPEED_TOL:
        raise ManifoldError(f"shock {rec.id}: speed deviates from the jump "
                            f"quotient by {worst:.3e} (> {SPEED_TOL:g})")
    return worst


def track_shocks(fan):
    """Track every fold-seeded shock on the stored grid, merging crossers.

    Returns ShockRecords ordered by id; merged parents carry merged_into.
    """
    events = find_singularities(fan)
    if not events:
        return []
    trackers = []
    next_id = 0
    for ev in events:
        trackers.append(_Tracker(next_id, ev.t, ev.x, (), x0_birth=ev.x0))
        next_id += 1
    for t in fan.times:
        t = float(t)
        live = [tr for tr in trackers if tr.t_birth <= t + 1e-12 and tr.merged_into < 0]
        if not live:
            continue
        curve = slice_fan(fan, t)
        w0 = 3 * np.median(np.abs(np.diff(curve.x))) + 1e-9  # probe width
        for tr in live:
            tr.step(fan, curve, w0)
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
                    child.step(fan, curve, w0)
                    trackers.append(child)
                    live = [tr for tr in trackers
                            if tr.t_birth <= t + 1e-12 and tr.merged_into < 0]
                    merged_any = True
                    break
                if merged_any:
                    break
    records = [tr.to_record(fan.symbol)
               for tr in sorted(trackers, key=lambda tr: tr.id)]
    for rec in records:
        if rec.sampled:
            check_admissibility(rec)
            check_speed_consistency(rec, fan.symbol)
            rec.t_end = float(rec.times[-1])
        if rec.merged_into >= 0:
            child = records[rec.merged_into]
            rec.t_end, rec.x_end = child.t_birth, child.x_birth
    return records
