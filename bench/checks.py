"""Output checks, run after the timed cases, plus CSV digests.

Each subcommand's output is checked against the identity or independent
route that the acceptance suite pairs with it:

* ``masses.csv`` (evolve): smooth plus singular mass equals the initial
  mass to 1e-5 relative at every listed time (criterion 06).
* ``verify.csv`` (verify): at least the requested number of bumps, each
  with positive finite residuals at levels 5, 6 and 7, and every bump the
  suite centres on a shock or a merge decays at order >= 1.8 from level 5
  to 7 (criterion 05, whose bump sits on a shock in mid-life).  The order
  of the random bumps is recorded, not gated: criterion 05 does not place
  them, and one that crosses a shock off its centre levels off at the
  fan's interpolation error at any label count a case can afford.
* ``hopf_lax.csv``: the minimal action of the characteristic pipeline,
  ``manifold.essential`` on a fan with labels wide enough to cover the
  grid, matches the brute-force minimizer to 1e-3 (criterion 02).
* ``godunov.csv``: the finite-volume gradient ``v = S_x`` matches the
  essential-branch momentum ``p`` in L1 on |x| <= 2 to 5e-2 (the oracle
  suite's cross-check).
* ``compare.csv``: the fitted order of the product-form error over the
  ``h`` schedule is at least 0.8 (criterion 08).
* ``limit_study.csv``: three rows, both distances shrink strictly along
  the schedule and the Jacobian floor stays >= 0.5 window widths
  (criterion 07).
"""

import csv
import hashlib
import math
import os

import numpy as np
from scipy.integrate import quad

from tunnelshock import characteristics, cli, expr, manifold, scenario


class CheckFailed(Exception):
    """An output disagrees with its paired identity or oracle."""

    def __init__(self, layer, message):
        super().__init__(message)
        self.layer = layer


def digests(out_dir):
    """sha256 of every CSV a case wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _columns(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    head, body = rows[0], rows[1:]
    return {h: np.array([float(r[i]) for r in body]) for i, h in
            enumerate(head)}


def _require(ok, layer, message):
    if not ok:
        raise CheckFailed(layer, message)


def _masses(sc, out_dir, info):
    cols = _columns(os.path.join(out_dir, "masses.csv"))
    rho0 = expr.parse(sc.rho0)
    init, _ = quad(lambda s: float(expr.evaluate(rho0, x=s)),
                   sc.x_min, sc.x_max, epsabs=1e-13, epsrel=1e-12, limit=200)
    rel = np.abs(cols["total"] - init) / abs(init)
    info["mass_rel_dev"] = float(rel.max())
    _require(rel.max() <= 1e-5, "density",
             f"masses.csv total deviates from the initial mass by "
             f"{rel.max():.3e} relative (> 1e-5)")


def _verify(sc, out_dir, info):
    cols = _columns(os.path.join(out_dir, "verify.csv"))
    bumps = np.unique(cols["bump_id"])
    _require(bumps.size >= sc.bumps, "verify",
             f"verify.csv holds {bumps.size} bumps, fewer than the "
             f"{sc.bumps} requested")
    # identity_suite writes the bumps it places on shocks and merges first,
    # then the sc.bumps random ones
    placed = bumps.size - sc.bumps
    orders = []
    for b in bumps:
        sel = cols["bump_id"] == b
        by_level = dict(zip(cols["level"][sel], cols["residual"][sel]))
        res = [by_level.get(lev, math.nan) for lev in (5.0, 6.0, 7.0)]
        _require(all(math.isfinite(r) and r > 0 for r in res), "verify",
                 f"verify.csv bump {int(b)} lacks positive finite "
                 f"residuals at levels 5-7")
        orders.append(0.5 * math.log2(res[0] / res[2]))
    info["verify_shock_orders"] = orders[:placed]
    info["verify_min_random_order"] = min(orders[placed:], default=None)
    for b, order in zip(bumps[:placed], orders[:placed]):
        _require(order >= 1.8, "verify",
                 f"verify.csv bump {int(b)} on a shock or merge decays at "
                 f"order {order:.3g} from level 5 to 7 (< 1.8)")


def _hopf_lax(sc, out_dir, info):
    cols = _columns(os.path.join(out_dir, "hopf_lax.csv"))
    labels = np.linspace(sc.x_min - 10.0, sc.x_max + 10.0, 1201)
    fan = characteristics.integrate_fan(
        sc.m, sc.S0, labels, T=sc.T, h_t=sc.h_t, store_every=sc.store_every,
        S0_prime=sc.S0_prime)
    worst = 0.0
    for t in np.unique(cols["t"]):
        sel = cols["t"] == t
        ess = manifold.essential(manifold.slice_fan(fan, float(t)),
                                 cols["x"][sel])
        worst = max(worst, float(np.max(np.abs(ess.S - cols["S"][sel]))))
    info["hopf_lax_sup_dev"] = worst
    _require(worst < 1e-3, "oracle",
             f"hopf_lax.csv deviates from manifold.essential by "
             f"{worst:.3e} (>= 1e-3)")


def _godunov(sc, out_dir, info):
    cols = _columns(os.path.join(out_dir, "godunov.csv"))
    fan = cli._build_fan(sc)
    worst = 0.0
    for t in np.unique(cols["t"]):
        sel = (cols["t"] == t) & (np.abs(cols["x"]) <= 2.0)
        x = cols["x"][sel]
        ess = manifold.essential(manifold.slice_fan(fan, float(t)), x)
        err = float(np.sum(np.abs(cols["u"][sel] - ess.p)) * (x[1] - x[0]))
        worst = max(worst, err)
    info["godunov_l1_dev"] = worst
    _require(worst <= 5e-2, "oracle",
             f"godunov.csv L1 distance to the essential momentum "
             f"{worst:.3e} (> 5e-2)")


def _compare(sc, out_dir, info):
    cols = _columns(os.path.join(out_dir, "compare.csv"))
    order = float(cols["fitted_order"][0])
    info["tunnel_fitted_order"] = order
    _require(order >= 0.8, "oracle",
             f"compare.csv fitted order {order:.4g} (< 0.8)")


def _limit_study(sc, out_dir, info):
    cols = _columns(os.path.join(out_dir, "limit_study.csv"))
    sup_R, e_err = cols["sup_R_error"], cols["e_error_at_T"]
    _require(sup_R.size == 3, "regularize",
             f"limit_study.csv holds {sup_R.size} rows, expected 3")
    _require(bool(np.all(np.diff(sup_R) < 0)), "regularize",
             "limit_study.csv sup_R_error does not shrink strictly")
    _require(bool(np.all(np.diff(e_err) < 0)), "regularize",
             "limit_study.csv e_error_at_T does not shrink strictly")
    j_floor = float(cols["minJ_over_eps"].min())
    info["limit_j_floor"] = j_floor
    _require(j_floor >= 0.5, "regularize",
             f"limit_study.csv Jacobian floor {j_floor:.4g} (< 0.5)")


# output file -> check; a case is checked on every file it wrote
_CHECKS = {
    "masses.csv": _masses,
    "verify.csv": _verify,
    "hopf_lax.csv": _hopf_lax,
    "godunov.csv": _godunov,
    "compare.csv": _compare,
    "limit_study.csv": _limit_study,
}


def check_case(scenario_path, out_dir):
    """Run every applicable check; returns (info, digests).

    Raises CheckFailed on the first check that fails.
    """
    sc = scenario.load(scenario_path)
    info = {}
    written = set(os.listdir(out_dir))
    _require(any(name in written for name in _CHECKS), "cli",
             f"no checked output among {sorted(written)}")
    for name, check in _CHECKS.items():
        if name in written:
            check(sc, out_dir, info)
    return info, digests(out_dir)
