"""Seeded scenario generator for the benchmark workloads.

The program under test only ever sees the INI files written here; the seed
stays on the benchmark side.  Generation uses `random.Random` seeded with a
string, whose stream is fixed across Python versions, and writes every
number with a fixed format, so one seed gives byte-identical files.

Families (`evolve` and `verify` share them; these are the seeded-sweep
families of the project roadmap):

* data: one or two smoothed tanh fronts,
  ``u0 = -sum_k tanh((x - c_k)/w)``, ``S0 = sum_k w log sech((x - c_k)/w)``,
  one at ``c`` or two at ``c = -d, +d``.  The width is set through the
  focal time of a front's centre, ``t_f``.  Most slots use steep fronts,
  ``t_f`` near 0.06, so the shock lives over most of ``[0, T]`` as in
  criterion 05's Riemann preset; a bump centred on it then has room on
  both sides, and with the shock born at 0.06 a fold never sits near an
  ``evolve`` slice time (0, 0.12, 0.25, ...).
* diffusion ``A`` in [0.2, 1]; the slots sit at values from 0.27 to 0.91.
* potential ``V = k x^2`` with ``k`` in {0, 0.05, 0.2}: constant, weakly and
  strongly x-dependent coefficients (the x-derivative path of `symbol`).
* optional jump ``nu = 1`` with rate ``lambda`` in [0.2, 1]: the jump-term
  symbol.

Each workload runs its cases in rounds.  A round holds one case per slot.
A slot is a point of the family ranges: it fixes the front count, the
potential and the jump, and the seed draws ``A``, ``t_f`` and ``d`` from a
narrow band around the slot's values (the jump rate over its whole range).
Narrow bands keep the work and the outcome of a slot the same on every
seed: with bands as wide as the family ranges the median case time of a
run moved by 20 % from seed to seed, and a slot that fails on some draws
only would change the mix from run to run.

Where the outcome near a point of the ranges changes from draw to draw,
the slot is a fixed point (zero-width bands).  ``front1-off`` is one: an
off-centre front in the weak potential, whose moving shock passes the
``track_shocks`` speed check at (A, t_f, c) = (0.5, 0.06, 0.5) but failed
it at 1.1e-3 against a limit of 1e-3 on a draw with c = 0.47.

Some slots end in a failure today, on every seed.  They stay in and count
as failed cases, so a fix shows as a higher completed share:

* ``front1-jump``: the jump term breaks the symmetry, the shock moves and
  ``track_shocks`` aborts on its speed check (ManifoldError, exit 3).
* ``front1-drift`` (fixed point): an off-centre front in the strong
  potential, diffusion only; its moving shock fails the same speed check
  at 1.4e-3 against a limit of 1e-3.
* ``front2-merge``: two fronts whose shocks meet before ``T``; the Lax
  check on the merged shock fails (AdmissibilityError, exit 3).
* ``front2-apart`` (fixed point): two fronts whose shocks do not meet;
  ``evolve`` completes, ``verify`` raises VerifyError "no room to
  straddle the path" (exit 3).
* ``front1-fold`` (fixed point): the fold falls 5e-4 before the slice at
  0.25; ``evolve`` completes but ``masses.csv`` misses criterion 06's 1e-5
  mass balance by 20x, and the shock bump of ``verify`` decays at order
  1.3 against criterion 05's 1.8.

Grid sizes are fixed per workload (not drawn), so the amount of work in a
case does not depend on the seed.
"""

import math
import os
import random
from dataclasses import dataclass

# fixed case sizes: small enough that a run holds a full round of every slot
EVOLVE_GRID = dict(x_min=-3, x_max=3, n_x0=801, T=1, h_t="5e-3",
                   store_every=2)
VERIFY_BUMPS = 1

# (name, fronts, V coefficient, A band, jump-rate band or None, focal-time
#  band, band of the centre c of one front or half-distance d of two)
STEEP = (0.055, 0.065)
SWEEP_SLOTS = (
    ("front1-v0", 1, "0", (0.265, 0.285), None, STEEP, (0.0, 0.0)),
    ("front1-v05", 1, "0.05", (0.415, 0.435), None, STEEP, (0.0, 0.0)),
    ("front1-v2", 1, "0.2", (0.34, 0.36), None, STEEP, (0.0, 0.0)),
    ("front1-jump", 1, "0", (0.69, 0.71), (0.2, 1.0), STEEP, (0.0, 0.0)),
    ("front2-merge", 2, "0", (0.89, 0.91), None, (0.22, 0.23), (1.14, 1.16)),
    # fixed points (zero-width bands), see the module docstring
    ("front1-off", 1, "0.05", (0.5, 0.5), None, (0.06, 0.06), (0.5, 0.5)),
    ("front1-drift", 1, "0.2", (0.451, 0.451), None, (0.36, 0.36),
     (0.901, 0.901)),
    ("front2-apart", 2, "0", (0.6, 0.6), None, (0.06, 0.06), (1.5, 1.5)),
    ("front1-fold", 1, "0", (0.5, 0.5), None, (0.2495, 0.2495), (0.0, 0.0)),
)


@dataclass(frozen=True)
class Case:
    """One benchmark case: a CLI argument list around one scenario file."""
    name: str
    argv: tuple          # subcommand words, without --scenario/--out
    scenario: str        # path of the generated INI file
    params: dict         # drawn parameters, echoed into the run record


def _num(v):
    return f"{v:.6f}"


def _fronts_ini(fronts, c, w):
    centers = (c,) if fronts == 1 else (-c, c)
    ws = _num(w)
    S0 = " + ".join(f"{ws}*log(sech((x-({_num(ck)}))/{ws}))"
                    for ck in centers)
    S0p = "0" + "".join(f"-tanh((x-({_num(ck)}))/{ws})" for ck in centers)
    return S0, S0p


def _ini(sections):
    out = []
    for name, items in sections:
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in items)
        out.append("")
    return "\n".join(out)


def sweep_case(rng, slot):
    """Draw one scenario of a sweep slot; returns (params, ini text)."""
    name, fronts, V, A_range, lam_range, tf_range, c_range = slot
    A = rng.uniform(*A_range)
    c = rng.uniform(*c_range)
    t_f = rng.uniform(*tf_range)
    # width whose centre characteristics focus at t_f: x'' = -4Ak x turns
    # the free-flight focal time w/(2A) into atan(w*om/(2A))/om
    om = 2.0 * math.sqrt(A * float(V))
    w = 2.0 * A * (math.tan(om * t_f) / om if om > 0 else t_f)
    lam = rng.uniform(*lam_range) if lam_range else None
    S0, S0p = _fronts_ini(fronts, c, w)
    sym = [("A", _num(A)), ("V", f"{V}*x^2")]
    if lam is not None:
        sym.append(("jumps", f"1: {_num(lam)}"))
    text = _ini([
        ("symbol", sym),
        ("initial", [("S0", S0), ("S0_prime", S0p), ("rho0", "1")]),
        ("domain", [(k, str(v)) for k, v in EVOLVE_GRID.items()]),
        ("verify", [("bumps", str(VERIFY_BUMPS))]),
    ])
    params = {"slot": name, "fronts": fronts, "A": round(A, 6), "V": V,
              "c": round(c, 6), "w": round(w, 6),
              "jump_rate": None if lam is None else round(lam, 6)}
    return params, text


# reference mix: brute-force oracles and the regularized family.  The bands
# are narrow for the reason the sweep slots' are.  The diffusion hopf-lax,
# tunnel-compare and limit-study cases take comparable times (1.5-2.5 s),
# and the round holds two draws of each, so the run's median case is the
# middle of six samples spread over the run; see REFERENCE_SLOTS.
def _hopf_lax_diffusion(rng):
    A = rng.uniform(0.58, 0.62)
    return {"A": round(A, 6)}, _ini([
        ("symbol", [("A", _num(A))]),
        ("initial", [("S0", "log(sech(x))"), ("S0_prime", "0-tanh(x)")]),
        ("domain", [("x_min", "-3"), ("x_max", "3"), ("n_x0", "801"),
                    ("T", "2"), ("h_t", "5e-3"), ("store_every", "10")]),
    ])


def _hopf_lax_jump(rng):
    lam = rng.uniform(0.6, 1.0)
    return {"jump_rate": round(lam, 6)}, _ini([
        ("symbol", [("jumps", f"1: {_num(lam)}")]),
        ("initial", [("S0", "log(sech(x))"), ("S0_prime", "0-tanh(x)")]),
        ("domain", [("x_min", "-3"), ("x_max", "3"), ("n_x0", "801"),
                    ("T", "2"), ("h_t", "5e-3"), ("store_every", "10")]),
    ])


def _tunnel_compare(rng):
    A = rng.uniform(0.49, 0.51)
    k = rng.uniform(0.095, 0.105)
    return {"A": round(A, 6), "V": round(k, 6)}, _ini([
        ("symbol", [("A", _num(A)), ("V", f"{_num(k)}*x^2")]),
        ("initial", [("S0", "x^2/2"), ("rho0", "exp(0-x^2/2)")]),
        # the box keeps the spreading lattice tails off the frozen window
        # edge; the lattice's step count grows with A
        ("domain", [("x_min", "-6"), ("x_max", "6"), ("n_x0", "1441"),
                    ("T", "1"), ("h_t", "5e-3"), ("store_every", "10")]),
        ("tunnel", [("h", "0.2, 0.1, 0.05"), ("dx", "4e-3"),
                    ("w_min", "-1"), ("w_max", "1")]),
    ])


def _godunov(rng):
    A = rng.uniform(0.58, 0.62)
    w = rng.uniform(0.7, 0.8)
    S0, S0p = _fronts_ini(1, 0.0, w)
    return {"A": round(A, 6), "w": round(w, 6)}, _ini([
        ("symbol", [("A", _num(A))]),
        ("initial", [("S0", S0), ("S0_prime", S0p)]),
        ("domain", [("x_min", "-6"), ("x_max", "6"), ("n_x0", "601"),
                    ("T", "1.5"), ("h_t", "5e-3"), ("store_every", "10")]),
    ])


def _limit_study(rng):
    A = rng.uniform(0.49, 0.51)
    w = rng.uniform(0.49, 0.51)
    S0, S0p = _fronts_ini(1, 0.0, w)
    return {"A": round(A, 6), "w": round(w, 6)}, _ini([
        ("symbol", [("A", _num(A))]),
        ("initial", [("S0", S0), ("S0_prime", S0p), ("rho0", "1")]),
        ("domain", [("x_min", "-3"), ("x_max", "3"), ("n_x0", "1201"),
                    ("T", "1"), ("h_t", "2.5e-3"), ("store_every", "2")]),
        ("regularization", [("epsilon", "1e-2, 2.5e-3, 6.25e-4"),
                            ("B_profile", "tanh")]),
    ])


# One round of the fixed mix.  The jump-term hopf-lax case takes 15-20 s
# (its grid is fixed by the CLI), far above the others, so it runs once; the
# three mid-sized slots run twice each, before and after it, and godunov
# (0.2 s) once.  Over ten seeds the spread of case_s was 0.10 with two
# draws and 0.11 with three, close to that of the whole-run cases_per_min:
# changes in machine speed from run to run dominate it, so a third draw,
# 7 s a run, does not pay.
_MIDDLE = (
    ("hopf-lax-diffusion", ("oracle", "hopf-lax"), _hopf_lax_diffusion),
    ("tunnel-compare", ("oracle", "tunnel-compare"), _tunnel_compare),
    ("limit-study", ("limit-study",), _limit_study),
)


def _draws(k):
    return tuple((f"{name}-{k}", argv, make) for name, argv, make in _MIDDLE)


REFERENCE_SLOTS = (
    *_draws(1),
    ("hopf-lax-jump", ("oracle", "hopf-lax"), _hopf_lax_jump),
    *_draws(2),
    ("godunov", ("oracle", "godunov"), _godunov),
)

WORKLOADS = ("evolve", "verify", "reference")


def slot_count(workload):
    return len(REFERENCE_SLOTS if workload == "reference" else SWEEP_SLOTS)


def generate(workload, seed, rounds, out_dir):
    """Write the scenario files of ``rounds`` rounds; return their Cases.

    The stream depends only on (workload, seed), and round r of a longer
    list equals round r of a shorter one, so the cases a run reaches do not
    depend on how many rounds were generated.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"tunnelshock-bench:{workload}:{int(seed)}")
    os.makedirs(out_dir, exist_ok=True)
    cases = []
    for r in range(rounds):
        if workload == "reference":
            drawn = [(name, argv, *make(rng))
                     for name, argv, make in REFERENCE_SLOTS]
        else:
            drawn = [(slot[0], (workload,), *sweep_case(rng, slot))
                     for slot in SWEEP_SLOTS]
        for name, argv, params, text in drawn:
            if workload == "verify":
                # identity_suite bump placement seed, derived from the run seed
                argv = argv + ("--seed", str(rng.randrange(2 ** 32)))
            path = os.path.join(out_dir, f"r{r}-{name}.ini")
            with open(path, "w", newline="\n") as f:
                f.write(text)
            cases.append(Case(f"r{r}-{name}", argv, path, params))
    return cases
