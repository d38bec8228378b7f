"""Batched one-dimensional root finders.  Each entry of a batch keeps its
own bracket and stop test, so its result does not depend on the batch."""

import numpy as np

STOP = 1e-15  # an entry stops on a step or a bracket this small


def newton(f, s, lo, hi, args, iters):
    """Safeguarded Newton for roots of functions that increase in s, from s.

    ``f(s, *args)`` returns ``(F, dF)`` on the entries still iterating, with
    ``args`` cut to them.  Each evaluation narrows the bracket [lo, hi]; a
    step is taken when it lands strictly inside it or is exactly zero, else
    the bracket is bisected, so iterates that cycle at rounding level bisect
    it shut.  Returns the last iterate of every entry."""
    out = np.array(s, dtype=float)
    s, act = out.copy(), np.arange(out.size)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            if not act.size:
                break
            F, dF = f(s, *args)
            lo = np.where(F < 0, s, lo)
            hi = np.where(F > 0, s, hi)
            new = s - F / dF
            new = np.where(((lo < new) & (new < hi)) | (new == s), new,
                           0.5 * (lo + hi))
            out[act] = new
            keep = ~((np.abs(new - s) <= STOP) | (hi - lo <= STOP))
            act, s, lo, hi = act[keep], new[keep], lo[keep], hi[keep]
            args = tuple(a[keep] for a in args)
    return out


def bisect(above, lo, hi, iters):
    """Bisect every bracket [lo, hi] ``iters`` times; ``above(mid)`` is True
    where the root lies above mid.  Returns the final (lo, hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return lo, hi
