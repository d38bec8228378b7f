"""Benchmark of the tunnelshock pipeline, driven in-process through cli.main.

    python3 bench/run.py --workload evolve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads (closed loop, one client, cases run one after another):

* ``evolve``: ``tunnelshock evolve`` on seeded sweep scenarios.  Fan
  integration and ``fan.csv`` emission dominate; slices are stored-node and
  cached, and ``mass_balance`` makes scalar ``quad`` queries.
* ``verify``: ``tunnelshock verify`` on scenarios from the same generator.
  The identity suite's uncached dense-time slices and vector
  ``density.fields`` queries dominate: the same manifold/density layer as
  ``evolve``, used differently.
* ``reference``: a fixed mix of ``oracle hopf-lax`` (a diffusion and a
  jump-term symbol), ``oracle tunnel-compare``, ``oracle godunov`` and
  ``limit-study``: the brute-force oracles and the regularized family, the
  only place ``symbol.legendre_batch`` runs its long Newton loop.

A run generates its scenarios from the seed (see scenarios.py), runs whole
rounds of cases while the next round still fits in ``--seconds`` (at most
19 cases), then checks every completed case's outputs outside the timed
region (checks.py).  A case fails when it exits non-zero or fails its
output check; the result's ``correct`` is false only when a case crashed,
exited with a code other than the CLI's typed numerical failure, or left
output the checks could not read.  With ``--trace 0`` the last stdout
line holds the end-to-end metrics; with ``--trace 1`` the wrappers of
tracing.py are installed and it holds the per-layer metrics.
``--workload all`` runs every workload untraced and traced in fresh
processes and prints a table.
A run record (machine facts, per-case times, failures, digests) goes to
``bench/runs/``.

Exit status: 0 with a result line; 2 on bad arguments or when the
pipeline sources are missing next to this directory.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "tunnelshock")
RUNS = os.path.join(HERE, "runs")

MAX_CASES = 19  # fewer than 20 cases a run, so no per-case tail percentile
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# completed_ratio is 1 - fail_ratio: a metric that is never 0, since the
# reference mix completes every case today
END_TO_END = (("case_s", "s"), ("cases_per_min", "1/min"),
              ("completed_ratio", "fraction"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """One BLAS/OpenMP thread, whatever the environment says; must run
    before numpy loads.  The pipeline runs single-threaded, so extra pool
    threads would only compete with it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_pipeline():
    """Import tunnelshock from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import tunnelshock
    if os.path.dirname(os.path.realpath(tunnelshock.__file__)) != \
            os.path.realpath(PKG):
        sys.exit(f"bench: imported tunnelshock from {tunnelshock.__file__}")
    return tunnelshock


def rounds_for(workload):
    import scenarios
    return MAX_CASES // scenarios.slot_count(workload)


def run_dir(workload, seed, trace):
    return os.path.join(RUNS, f"{workload}-s{seed}-t{trace}")


# ---------------------------------------------------------------------------
# set-up time: fresh interpreter -> first case ready

def setup_probe(workload, seed, out_dir):
    """Child side: import, generate, load the first case; print the clock."""
    import_pipeline()
    import scenarios
    from tunnelshock import scenario
    cases = scenarios.generate(workload, seed, rounds_for(workload), out_dir)
    scenario.load(cases[0].scenario)
    print(repr(time.perf_counter()))


def measure_setup(workload, seed, base):
    """Median over fresh interpreters; CLOCK_MONOTONIC spans processes."""
    samples = []
    for k in range(SETUP_PROBES):
        out_dir = os.path.join(base, f"setup-probe-{k}")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--out", out_dir],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


# ---------------------------------------------------------------------------
# running cases

def error_layer(ex):
    """Module whose typed error ended a case: the class's own module, or
    the innermost pipeline frame for errors of other origin."""
    mod = type(ex).__module__
    if mod.startswith("tunnelshock."):
        return mod.split(".", 1)[1]
    layer = "cli"
    tb = ex.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if os.path.dirname(os.path.realpath(path)) == os.path.realpath(PKG):
            layer = os.path.splitext(os.path.basename(path))[0]
        tb = tb.tb_next
    return layer


@contextlib.contextmanager
def capture_errors(cli, sink):
    """Record the exception that ends a subcommand before cli turns it
    into an exit code; one wrapper per case, in traced and untraced runs."""
    tables = (cli._COMMANDS, cli._ORACLE_RUNNERS)
    saved = [dict(t) for t in tables]

    def catching(runner):
        def run(*args):
            try:
                return runner(*args)
            except BaseException as ex:
                sink.append(ex)
                raise
        return run

    for table in tables:
        for key in table:
            table[key] = catching(table[key])
    try:
        yield
    finally:
        for table, old in zip(tables, saved):
            table.update(old)


def run_cases(cases, per_round, seconds, main, tracer):
    """Run whole rounds while the next one fits the budget; returns the
    case records in run order."""
    from tunnelshock import cli
    records = []
    caught = []
    t_start = time.perf_counter()
    last_round = 0.0
    with capture_errors(cli, caught):
        for r in range(0, len(cases), per_round):
            elapsed = time.perf_counter() - t_start
            if r and elapsed + last_round > seconds:
                break
            t_round = time.perf_counter()
            for case in cases[r:r + per_round]:
                out = os.path.join(os.path.dirname(case.scenario),
                                   "out", case.name)
                argv = [*case.argv, "--scenario", case.scenario,
                        "--out", out]
                if tracer is not None:
                    tracer.case_id = len(records)
                caught.clear()
                err = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stderr(err):
                    rc = main(argv)
                dt = time.perf_counter() - t0
                rec = {"case": case.name, "argv": case.argv,
                       "params": case.params, "rc": rc, "s": dt, "out": out,
                       "scenario": case.scenario}
                if rc != 0:
                    ex = caught[-1] if caught else None
                    rec["failure"] = {
                        "kind": "exit",
                        "layer": error_layer(ex) if ex else "cli",
                        "error": type(ex).__name__ if ex else None,
                        "message": err.getvalue().strip()}
                records.append(rec)
            last_round = time.perf_counter() - t_round
    return records


def check_outputs(records):
    """Output checks and digests, after the timed region."""
    import checks
    for rec in records:
        if rec["rc"] == 0:
            try:
                rec["check"], rec["sha256"] = checks.check_case(
                    rec["scenario"], rec["out"])
            except checks.CheckFailed as ex:
                rec["failure"] = {"kind": "check", "layer": ex.layer,
                                  "error": "CheckFailed", "message": str(ex)}
            except (OSError, KeyError, IndexError, ValueError,
                    ArithmeticError) as ex:
                rec["failure"] = {"kind": "unreadable",
                                  "layer": error_layer(ex),
                                  "error": type(ex).__name__,
                                  "message": str(ex)}
        if "sha256" not in rec:
            rec["sha256"] = checks.digests(rec["out"]) \
                if os.path.isdir(rec["out"]) else {}


def machine_facts(threads_env, threads_flag):
    import numpy
    import scipy
    lines = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as f:
                lines[name[:-3]] = sum(1 for _ in f)
    return {
        "nproc": nproc(), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "thread_env": threads_env,
        # accepted for symmetry with the CLI, which ignores it too
        "threads_flag_ignored": threads_flag,
        "src_lines": lines, "src_lines_total": sum(lines.values()),
    }


def run_workload(args, threads_env):
    base = run_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    setup = None
    if not args.trace:
        setup = measure_setup(args.workload, args.seed, base)

    import_pipeline()
    import scenarios
    from tunnelshock import cli
    cases = scenarios.generate(args.workload, args.seed,
                               rounds_for(args.workload),
                               os.path.join(base, "scenarios"))
    per_round = scenarios.slot_count(args.workload)

    tracer = None
    main = cli.main
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.case_span(cli.main)
    try:
        records = run_cases(cases, per_round, args.seconds, main, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = sum(r["s"] for r in records)
    check_outputs(records)

    ok = [r for r in records if "failure" not in r]
    failed = [r for r in records if "failure" in r]
    if not ok:
        sys.exit("bench: no case completed; case_s is undefined")
    case_s = statistics.median(r["s"] for r in ok)
    by_layer = {}
    for r in failed:
        layer = r["failure"]["layer"]
        by_layer[layer] = by_layer.get(layer, 0) + 1
    # a failed check is a failed case, like a typed exit: both count in
    # `failed` and lower completed_ratio.  The run itself is correct when
    # every case ended in one of the two; a crash, an untyped exit code or
    # an output the checks could not read makes it incorrect.
    correct = all(r["failure"]["kind"] == "check"
                  or r["rc"] == cli.EXIT_NUMERICAL for r in failed)

    if args.trace:
        values = tracer.metrics(by_layer, case_s)
        units = dict(tracing.PER_LAYER)
        tracer.save(os.path.join(base, "spans.npz"))
        extra = {"self_share": tracer.self_share()}
    else:
        values = {"case_s": case_s,
                  "cases_per_min": len(ok) / (wall / 60.0),
                  "completed_ratio": len(ok) / len(records),
                  "setup_s": setup[0], "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        extra = {"setup_samples": setup[1],
                 "fail_ratio": len(failed) / len(records)}
    result = {"correct": correct, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(threads_env, args.threads),
              "completed": len(ok), "failures_by_layer": by_layer,
              "cases": [{k: v for k, v in r.items() if k != "out"}
                        for r in records],
              "result": result, **extra}
    with open(os.path.join(base, "record.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    shutil.rmtree(os.path.join(base, "scenarios", "out"), ignore_errors=True)

    for r in failed:
        f = r["failure"]
        print(f"failed {r['case']}: {f['layer']}.case_failures "
              f"{f['error']}: {f['message']}")
    print(f"{args.workload}: {len(ok)}/{len(records)} cases completed; "
          f"record {os.path.relpath(base, ROOT)}/record.json")
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# all workloads, untraced and traced

def run_all(args):
    import scenarios
    rows = []
    for workload in scenarios.WORKLOADS:
        res = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"bench: {workload} --trace {trace} exited "
                         f"{proc.returncode}")
            sys.stdout.write("".join(
                line + "\n" for line in proc.stdout.splitlines()[:-1]))
            res[trace] = json.loads(proc.stdout.splitlines()[-1])
        rows.append((workload, res))
    for workload, res in rows:
        plain, traced = res[0], res[1]
        n_ok = plain["attempted"] - plain["failed"]
        print(f"\n== {workload}: {plain['attempted']} cases attempted, "
              f"{n_ok} completed (fail_ratio "
              f"{plain['failed'] / plain['attempted']:.4g}), "
              f"correct={plain['correct']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        overhead = traced["metrics"]["trace.case_s"]["value"] \
            - plain["metrics"]["case_s"]["value"]
        print(f"  -- traced run ({traced['attempted']} cases); tracing "
              f"overhead on case_s {overhead:+.4g} s")
        for name, m in traced["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        with open(os.path.join(run_dir(workload, args.seed, 1),
                               "record.json")) as f:
            share = json.load(f)["self_share"]
        print("  self-time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(share.items(),
                                              key=lambda kv: -kv[1])))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("evolve", "verify", "reference", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None,
                    help="accepted and ignored, like the CLI's flag")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        sys.exit(f"bench: no tunnelshock sources at {PKG}")
    threads_env = pin_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.out)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args, threads_env)


if __name__ == "__main__":
    main()
