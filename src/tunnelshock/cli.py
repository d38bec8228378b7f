"""Command line front end: scenario file in, CSV artifacts + manifest out.

Exit codes: 0 success, 2 scenario/flag validation error, 3 numerical
failure inside the pipeline, 64 unknown subcommand, 66 missing file.
"""

import contextlib
import json
import mmap
import os
import sys

import numpy as np

from . import (characteristics, density, expr, forkmap, manifold, oracle,
               regularize, scenario, symbol, verify)
from .textio import write_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_NOFILE = 66

ORACLES = ("hopf-lax", "godunov", "kf-lattice", "tunnel-compare")

_USAGE = """\
usage: tunnelshock <subcommand> --scenario <path> [--out <dir>]
                   [--threads <n>] [--seed <u64>]

subcommands:
  evolve        characteristic fan, minimal-action slices, density slices
  singularity   focal points of the fan (first fold per label cluster)
  shock         jump tracking: paths, amplitudes, merge events
  verify        weak-form identity residual suite over seeded test bumps
  oracle <kind> ground-truth runs: hopf-lax | godunov | kf-lattice
                | tunnel-compare
  limit-study   window-shrinking family vs the generalized solution

--threads (or TUNNELSHOCK_THREADS) is the number of processes a run may
use, by default the CPUs this process may run on.  At 2 or more, evolve
forks a child that writes fan.csv while the fan is integrated; verify
deals its test bumps, oracle hopf-lax its four times, oracle kf-lattice
its lattice runs (one per h) and oracle tunnel-compare its lattice runs
and its fan over that many processes.  At 1 nothing forks.  Outputs,
messages and exit codes are byte-identical at any value.
"""

_NUMERICAL_ERRORS = (symbol.SymbolError, characteristics.CharacteristicsError,
                     manifold.ManifoldError, density.DensityError,
                     oracle.OracleError, regularize.RegularizeError,
                     verify.VerifyError, FloatingPointError)


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _labels(sc):
    return np.linspace(sc.x_min, sc.x_max, sc.n_x0)


def _build_fan(sc, store=None, on_store=None):
    return characteristics.integrate_fan(
        sc.m, sc.S0, _labels(sc), T=sc.T, h_t=sc.h_t, S0_prime=sc.S0_prime,
        store_every=sc.store_every, store=store, on_store=on_store)


def _slice_times(fan, count=9):
    """Evenly spread stored instants, first and last included."""
    idx = np.unique(np.linspace(0, fan.times.size - 1,
                                min(count, fan.times.size)).round()
                    .astype(int))
    return [float(fan.times[i]) for i in idx]


def _slice_grid(gd, t, n=241):
    """Query positions strictly inside the label-tracked window at time t
    (`Fan.window`), the span `density.mass_balance` integrates."""
    lo, hi = gd.fan.window(t)
    pad = 1e-9 * (1.0 + hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


def _amplitude_rows(shocks):
    rows = []
    for rec in shocks:
        if not rec.sampled:
            continue
        for t, e in zip(rec.times, rec.e):
            rows.append((t, rec.id, e))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def _stored_indices(fd, n):
    """Yield range(n) as bytes arrive on fd; EOFError if it ends first."""
    for i in range(n):
        if not os.read(fd, 1):
            raise EOFError(f"the fan stopped before stored time {i}")
        yield i


# ---------------------------------------------------------------------------
# subcommand runners: each takes the scenario, output directory, seed and
# process count, and returns the list of CSV files it wrote

def _run_evolve(sc, out, seed, threads):
    path = os.path.join(out, "fan.csv")
    if threads == 1 or not hasattr(os, "fork"):
        fan = _build_fan(sc)
        characteristics.fan_to_csv(fan, path)
        return _evolve_slices(sc, out, fan)
    # formatting fan.csv holds the GIL: a forked child formats each stored
    # time once this process has integrated it into shared memory
    times = characteristics.stored_times(sc.T, sc.h_t, sc.store_every)
    shape = (len(characteristics._FIELDS), times.size, sc.n_x0)
    store = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))
    r, w = os.pipe()

    def write():
        os.close(w)
        with contextlib.suppress(EOFError):  # a failed integration
            characteristics.fan_to_csv(characteristics.Fan(
                symbol=sc.m, x0=_labels(sc), times=times, h_t=sc.h_t,
                **dict(zip(characteristics._FIELDS, store))), path,
                _stored_indices(r, times.size))

    pid, fd = forkmap.spawn(write)
    os.close(r)

    def report(i):
        with contextlib.suppress(BrokenPipeError):  # the writer died early
            pipe.write(b"\1")

    fan = None
    try:
        with open(w, "wb", buffering=0) as pipe:
            fan = _build_fan(sc, store, report)
        return _evolve_slices(sc, out, fan)
    finally:
        # a writer that failed or died is re-run here, before a failure of
        # the slices surfaces: at one process fan.csv is written first.  An
        # integration failure wins, as it does at one process, and takes
        # the partial file a killed writer could not remove
        if forkmap.reap(pid, fd)[1] != 0:
            if fan is not None:
                characteristics.fan_to_csv(fan, path)
            else:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path + ".part")


def _evolve_slices(sc, out, fan):
    gd = density.build_density(fan, rho0=sc.rho0)
    ess_rows, den_rows, mass_rows = [], [], []
    for t in _slice_times(fan):
        xs = _slice_grid(gd, t)
        # a grid point on a fold has no finite density: it keeps its
        # essential.csv row and is left out of density.csv
        data = gd.fields(t, xs, skip_folds=True)
        for i, x in enumerate(xs):
            ess_rows.append((t, x, data["S"][i], data["u"][i],
                             float(data["branch_id"][i])))
            if not np.isnan(data["R"][i]):
                den_rows.append((t, x, data["R"][i]))
        regular, singular, _, _ = density.mass_balance(gd, t)
        mass_rows.append((t, regular, singular, regular + singular))
    write_csv(os.path.join(out, "essential.csv"),
              ("t", "x", "S", "u", "branch_id"), ess_rows)
    write_csv(os.path.join(out, "density.csv"), ("t", "x", "R"), den_rows)
    write_csv(os.path.join(out, "amplitudes.csv"), ("t", "shock_id", "e"),
              _amplitude_rows(gd.shocks))
    write_csv(os.path.join(out, "masses.csv"),
              ("t", "smooth_mass", "singular_mass", "total"), mass_rows)
    return ["fan.csv", "essential.csv", "density.csv", "amplitudes.csv",
            "masses.csv"]


def _run_singularity(sc, out, seed, threads):
    fan = _build_fan(sc)
    events = manifold.find_singularities(fan)
    rows = [(ev.t, ev.x, ev.x0) for ev in events]
    write_csv(os.path.join(out, "singularities.csv"),
              ("t_star", "x_star", "x0_star"), rows)
    return ["singularities.csv"]


def _run_shock(sc, out, seed, threads):
    fan = _build_fan(sc)
    gd = density.build_density(fan, rho0=sc.rho0)
    path_rows = []
    for rec in sorted(gd.shocks, key=lambda r: r.id):
        for k, t in enumerate(rec.times):
            path_rows.append((t, rec.id, rec.x_s[k], rec.c[k], rec.p_l[k],
                              rec.p_r[k], rec.R_l[k], rec.R_r[k], rec.e[k]))
    write_csv(os.path.join(out, "shock_path.csv"),
              ("t", "shock_id", "x_s", "c", "p_l", "p_r", "R_l", "R_r", "e"),
              path_rows)
    write_csv(os.path.join(out, "amplitudes.csv"), ("t", "shock_id", "e"),
              _amplitude_rows(gd.shocks))
    merge_rows = []
    by_id = {rec.id: rec for rec in gd.shocks}
    for rec in sorted(gd.shocks, key=lambda r: r.id):
        if len(rec.parents) == 2 and rec.sampled:
            pa, pb = (by_id[i] for i in rec.parents)
            merge_rows.append((rec.t_birth, rec.x_birth, float(rec.id),
                               float(pa.id), float(pb.id), pa.e_end, pb.e_end,
                               rec.e[0]))
    write_csv(os.path.join(out, "merges.csv"),
              ("t", "x", "child_id", "parent_a", "parent_b",
               "e_a", "e_b", "e_child"), merge_rows)
    return ["shock_path.csv", "amplitudes.csv", "merges.csv"]


def _run_verify(sc, out, seed, threads):
    fan = _build_fan(sc)
    gd = density.build_density(fan, rho0=sc.rho0)
    report = verify.identity_suite(gd, count=sc.bumps, seed=seed,
                                   threads=threads)
    write_csv(os.path.join(out, "verify.csv"),
              ("bump_id", "x_c", "t_c", "level", "residual", "order"),
              report.to_rows())
    return ["verify.csv"]


def _run_limit_study(sc, out, seed, threads):
    if not sc.eps_schedule:
        raise scenario.ScenarioError(
            "[regularization] epsilon: required for limit-study")
    study = regularize.limit_study(
        sc.m, sc.S0, sc.rho0, sc.eps_schedule, T=sc.T,
        S0_prime=sc.S0_prime, betas=sc.betas, x_box=(sc.x_min, sc.x_max),
        n_rows=sc.n_x0, h_t=sc.h_t, store_every=sc.store_every)
    write_csv(os.path.join(out, "limit_study.csv"),
              ("epsilon", "beta", "sup_R_error", "e_error_at_T",
               "minJ_over_eps"), study.rows())
    return ["limit_study.csv"]


def _run_oracle_hopf_lax(sc, out, seed, threads):
    xs = np.linspace(sc.x_min, sc.x_max, 241)
    ts = [frac * sc.T for frac in (0.25, 0.5, 0.75, 1.0)]
    rows = []
    for t, S in zip(ts, forkmap.fork_map(
            lambda t: oracle.hopf_lax_grid(sc.m, sc.S0, xs, t), ts, threads)):
        rows.extend((t, x, s) for x, s in zip(xs, S))
    write_csv(os.path.join(out, "hopf_lax.csv"), ("t", "x", "S"), rows)
    return ["hopf_lax.csv"]


def _run_oracle_godunov(sc, out, seed, threads):
    if sc.S0_prime is None:
        raise scenario.ScenarioError(
            "[initial] S0_prime: required for the godunov oracle")
    store = tuple(f * sc.T for f in (0.5, 1.0))
    sol = oracle.godunov(sc.m, sc.S0_prime, (sc.x_min, sc.x_max),
                         n_cells=2000, T=sc.T, store_times=store)
    rows = []
    for t in store:
        v = sol.at(t)
        rows.extend((t, x, u) for x, u in zip(sol.x, v))
    write_csv(os.path.join(out, "godunov.csv"), ("t", "x", "u"), rows)
    return ["godunov.csv"]


def _lattice_u0(sc, h):
    return f"exp(0-({sc.S0})/{h!r})*({sc.phi0})"


def _lattice(sc, h):
    f0 = oracle.make_lattice(_lattice_u0(sc, h), h=h,
                             x_box=(sc.x_min, sc.x_max), dx=sc.lattice_dx)
    return oracle.kf_lattice(sc.m, f0, T=sc.T)


def _h_schedule(sc):
    if not sc.h_schedule:
        raise scenario.ScenarioError(
            "[tunnel] h: required for lattice oracles")
    return sc.h_schedule


def _run_oracle_kf_lattice(sc, out, seed, threads):
    hs = _h_schedule(sc)
    rows = []
    for f in forkmap.fork_map(lambda h: _lattice(sc, h), hs, threads):
        logs = f.minus_h_log()
        for x, u, s in zip(f.x, f.values, logs):
            rows.append((f.h, f.t, x, u, s))
    write_csv(os.path.join(out, "lattice.csv"),
              ("h", "t", "x", "u", "minus_h_log_u"), rows)
    return ["lattice.csv"]


def _run_oracle_tunnel_compare(sc, out, seed, threads):
    hs = _h_schedule(sc)

    def run(i):  # item 0 is the density, which stays in this process
        if i == 0:
            return density.build_density(_build_fan(sc), rho0=sc.rho0)
        return _lattice(sc, hs[i - 1])

    # in process the lattices run first: a lattice failure wins
    n = len(hs)
    gd, *fields = forkmap.fork_map(run, range(n + 1), threads,
                                   order=[*range(1, n + 1), 0])
    comparison = oracle.tunnel_compare(fields, gd, sc.window)
    write_csv(os.path.join(out, "compare.csv"),
              ("h", "E_of_h", "fitted_order"), comparison.rows())
    return ["compare.csv"]


_COMMANDS = {
    "evolve": _run_evolve,
    "singularity": _run_singularity,
    "shock": _run_shock,
    "verify": _run_verify,
    "limit-study": _run_limit_study,
}

_ORACLE_RUNNERS = {
    "hopf-lax": _run_oracle_hopf_lax,
    "godunov": _run_oracle_godunov,
    "kf-lattice": _run_oracle_kf_lattice,
    "tunnel-compare": _run_oracle_tunnel_compare,
}


# ---------------------------------------------------------------------------
# argument handling

def _parse_flags(args):
    """Flag handling without argparse so exit codes stay ours."""
    flags = {"scenario": None, "out": None, "threads": None, "seed": None}
    i = 0
    while i < len(args):
        name = args[i]
        if not name.startswith("--") or name[2:] not in flags:
            raise scenario.ScenarioError(f"unknown flag {name!r}")
        if i + 1 >= len(args):
            raise scenario.ScenarioError(f"flag {name!r} needs a value")
        flags[name[2:]] = args[i + 1]
        i += 2
    if flags["scenario"] is None:
        raise scenario.ScenarioError("--scenario <path> is required")
    if flags["seed"] is not None:
        try:
            flags["seed"] = int(flags["seed"], 0)
        except ValueError:
            raise scenario.ScenarioError("--seed must be an integer")
        if not 0 <= flags["seed"] < 2 ** 64:
            raise scenario.ScenarioError("--seed must fit an unsigned "
                                         "64-bit value")
    threads = flags["threads"]
    if threads is None:
        threads = os.environ.get("TUNNELSHOCK_THREADS")
    if threads is not None:
        try:
            threads = int(threads)
        except ValueError:
            raise scenario.ScenarioError("thread count must be an integer")
        if threads < 1:
            raise scenario.ScenarioError("thread count must be positive")
    elif hasattr(os, "sched_getaffinity"):
        threads = len(os.sched_getaffinity(0))
    else:
        threads = os.cpu_count() or 1
    flags["threads"] = threads
    return flags


def _write_manifest(out, command, which, sc, seed, files):
    """Run record: inputs echoed, versions, seed.  Deliberately free of
    timestamps and thread counts so reruns stay byte-identical."""
    from . import __version__
    doc = {
        "command": command if which is None else f"{command} {which}",
        "scenario": sc.sections,
        "scenario_sha256": sc.sha256,
        "seed": seed,
        "outputs": sorted(files),
        "versions": {
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
            "tunnelshock": __version__,
        },
    }
    path = os.path.join(out, "manifest.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        stream = sys.stdout if args else sys.stderr
        stream.write(_USAGE)
        return EXIT_OK if args else EXIT_USAGE

    command, rest = args[0], args[1:]
    which = None
    if command == "oracle":
        if not rest or rest[0].startswith("-") or rest[0] not in ORACLES:
            got = rest[0] if rest and not rest[0].startswith("-") else None
            sys.stderr.write(
                f"unknown oracle {got!r}; expected one of "
                f"{', '.join(ORACLES)}\n" if got else
                "oracle needs a kind: " + ", ".join(ORACLES) + "\n")
            return EXIT_USAGE
        which, rest = rest[0], rest[1:]
        runner = _ORACLE_RUNNERS[which]
    elif command in _COMMANDS:
        runner = _COMMANDS[command]
    else:
        sys.stderr.write(f"unknown subcommand {command!r}\n{_USAGE}")
        return EXIT_USAGE

    try:
        flags = _parse_flags(rest)
    except scenario.ScenarioError as ex:
        sys.stderr.write(f"invalid arguments: {ex}\n")
        return EXIT_VALIDATION

    if not os.path.isfile(flags["scenario"]):
        sys.stderr.write(f"scenario file not found: {flags['scenario']}\n")
        return EXIT_NOFILE
    try:
        sc = scenario.load(flags["scenario"])
    except scenario.ScenarioError as ex:
        sys.stderr.write(f"invalid scenario: {ex}\n")
        return EXIT_VALIDATION

    out = flags["out"] or sc.out_dir or "out"
    os.makedirs(out, exist_ok=True)
    seed = flags["seed"] if flags["seed"] is not None else sc.seed

    try:
        files = runner(sc, out, seed, flags["threads"])
    except (scenario.ScenarioError, expr.ExpressionError) as ex:
        sys.stderr.write(f"invalid scenario: {ex}\n")
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as ex:
        sys.stderr.write(f"numerical failure: {ex}\n")
        return EXIT_NUMERICAL

    _write_manifest(out, command, which, sc, seed, files)
    return EXIT_OK
