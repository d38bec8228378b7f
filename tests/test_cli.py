import dataclasses
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from tunnelshock import cli, density, forkmap, manifold, oracle, scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def preset(name):
    return os.path.join(SCENARIOS, name)


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def write_ini(tmp_path, text, name="case.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL = """\
[symbol]
A = 0.5

[initial]
S0 = x^2/2
S0_prime = x

[domain]
x_min = -2
x_max = 2
n_x0 = 401
T = 0.5
h_t = 2.5e-3
store_every = 20
"""
# the same fan, to the bit, by monitored steps: a coefficient that names x
# keeps integrate_fan off its constant-increment path
MINIMAL_MONITORED = MINIMAL.replace("A = 0.5\n", "A = 0.5\nV = x*0\n")


@pytest.fixture(autouse=True)
def no_child_left():
    # every child a test's run forked has been reaped
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evolve_rarefaction_density(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--scenario", preset("rarefaction.ini"),
                   "--out", str(out)])
    assert rc == 0
    den = read_csv(out / "density.csv")
    late = np.abs(den["t"] - 1.0) < 1e-12
    assert np.any(late)
    assert np.max(np.abs(den["R"][late] - 0.5)) < 1e-6
    masses = read_csv(out / "masses.csv")
    assert np.max(np.abs(masses["total"] - masses["total"][0])) \
        < 1e-8 * masses["total"][0]
    assert (out / "manifest.json").exists()
    assert (out / "fan.csv").exists()


def test_evolve_leaves_fold_points_out_of_density(tmp_path):
    # the front folds label 0 exactly at the stored t = 0.5, where the slice
    # grid holds x = 0: that point keeps its essential row but has no density
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--scenario", preset("limit_study.ini"),
                   "--out", str(out)])
    assert rc == 0
    ess = read_csv(out / "essential.csv")
    den = read_csv(out / "density.csv")
    assert np.all(np.isfinite(den["R"]))
    fold = np.abs(ess["t"] - 0.5) < 1e-12
    assert np.count_nonzero(fold) == 241
    assert np.count_nonzero(np.abs(den["t"] - 0.5) < 1e-12) == 240
    assert den["t"].size == ess["t"].size - 1
    assert np.min(np.abs(den["x"][np.abs(den["t"] - 0.5) < 1e-12])) > 1e-3


def test_evolve_rows_stay_in_the_label_window(tmp_path, monkeypatch):
    # merging_fronts folds back past the images of its first and last label
    # (at t = 1.4 the curve spans [-1.55, 1.55], the window [-1.2, 1.2]);
    # no essential.csv or density.csv row may come from outside the window
    fans = []
    build_fan = cli._build_fan

    def build(sc, *fill):
        fans.append(build_fan(sc, *fill))
        return fans[-1]

    monkeypatch.setattr(cli, "_build_fan", build)
    # fan.csv is not under test
    monkeypatch.setattr(cli.characteristics, "fan_to_csv",
                        lambda fan, path, indices=None: None)
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--scenario", preset("merging_fronts.ini"),
                   "--out", str(out)])
    assert rc == 0
    fan, = fans
    for name in ("essential.csv", "density.csv"):
        tab = read_csv(out / name)
        ts = np.unique(tab["t"])
        assert ts.size == 9
        for t in ts:
            i = fan.index_of_time(t)
            x = tab["x"][tab["t"] == t]
            assert np.all((x > fan.x[i, 0]) & (x < fan.x[i, -1])), (name, t)


def test_evolve_slices_match_a_wider_box():
    # the same merging_fronts slices from a fan on a box 2 wider on each
    # side, at the same label spacing so the shared labels coincide: inside
    # the label-tracked window no label from outside the box can reach, so
    # the rows evolve writes agree to rounding.  Outside it they do not: at
    # t = 1.4, x = 1.4 only folded-back branches of the narrow fan remain.
    sc = scenario.load(preset("merging_fronts.ini"))
    spacing = (sc.x_max - sc.x_min) / (sc.n_x0 - 1)
    wide = dataclasses.replace(sc, x_min=sc.x_min - 2, x_max=sc.x_max + 2,
                               n_x0=sc.n_x0 + int(round(4 / spacing)))
    gd, gd_wide = (density.build_density(cli._build_fan(s), s.rho0,
                                         shocks=()) for s in (sc, wide))
    fan = gd.fan
    for t in cli._slice_times(fan):
        i = fan.index_of_time(t)
        xs = cli._slice_grid(gd, t)
        assert np.all((xs > fan.x[i, 0]) & (xs < fan.x[i, -1])), t
        got = gd.fields(t, xs, skip_folds=True)
        ref = gd_wide.fields(t, xs, skip_folds=True)
        for f in ("S", "p", "u", "x0", "R"):
            np.testing.assert_allclose(got[f], ref[f], rtol=0, atol=1e-12,
                                       equal_nan=True, err_msg=f"{f} t={t}")
    outside = [g.fields(1.4, [1.4])["S"][0] for g in (gd, gd_wide)]
    assert abs(outside[0] - outside[1]) > 1.0


def test_singularity_front(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["singularity", "--scenario", preset("steep_front.ini"),
                   "--out", str(out)])
    assert rc == 0
    tab = read_csv(out / "singularities.csv")
    assert tab["t_star"].size >= 1
    assert abs(tab["t_star"][0] - 1.0) < 1e-3
    assert abs(tab["x_star"][0]) < 1e-3


def test_shock_path_front(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["shock", "--scenario", preset("steep_front.ini"),
                   "--out", str(out)])
    assert rc == 0
    path = read_csv(out / "shock_path.csv")
    assert np.all(path["shock_id"] == 0)  # single centered jump
    assert np.max(np.abs(path["x_s"])) < 1e-6
    assert np.max(np.abs(path["c"])) < 1e-8
    assert np.all(np.diff(path["e"]) > 0)  # mass only accumulates
    amp = read_csv(out / "amplitudes.csv")
    assert np.array_equal(amp["e"], path["e"])
    with open(out / "merges.csv") as f:
        assert len(f.readlines()) == 1  # header only: nothing merges


FRONT2_MERGE = """\
[symbol]
A = 0.89478

[initial]
S0 = 0.396803*log(sech((x+1.146178)/0.396803)) + 0.396803*log(sech((x-1.146178)/0.396803))
S0_prime = 0-tanh((x+1.146178)/0.396803)-tanh((x-1.146178)/0.396803)
rho0 = 1

[domain]
x_min = -3
x_max = 3
n_x0 = 801
T = 1
h_t = 5e-3
store_every = 2
"""


def test_shock_that_takes_in_the_label_box_exits_3(tmp_path, capsys):
    # the merged shock of two fronts loses its equal-action root once it
    # has taken in both edges of the label box: a typed failure that names
    # the box, and no shock_path.csv
    out = tmp_path / "run"
    rc = cli.main(["shock", "--scenario", write_ini(tmp_path, FRONT2_MERGE),
                   "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no equal-action root" in err and "[-3, 3]" in err
    assert "widen [x_min, x_max]" in err
    assert not (out / "shock_path.csv").exists()


def test_shock_that_loses_its_root_inside_the_label_box_exits_3(tmp_path,
                                                                  capsys):
    # A < 0 is no Kolmogorov-Feller symbol: the shock's root is lost with
    # its last labels at -0.854 and 0.854, far inside [-3, 3], so the
    # message does not blame the label box
    ini = write_ini(tmp_path, """\
[symbol]
A = -0.5

[initial]
S0 = 0-0.3*log(sech(x/0.3))
S0_prime = tanh(x/0.3)

[domain]
x_min = -3
x_max = 3
n_x0 = 401
T = 1
h_t = 5e-3
store_every = 1
""")
    rc = cli.main(["shock", "--scenario", ini, "--out", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no equal-action root at t=0.865" in err
    assert "-0.854, 0.854" in err and "widen" not in err


def test_shock_born_in_the_last_store_interval_has_no_samples(tmp_path):
    # riemann's fold falls on the stored time t = 0.05: stopped there, its
    # shock has no equal-action root yet.  The record keeps its birth but no
    # samples, and every writer leaves it out instead of failing on it
    with open(preset("riemann.ini")) as f:
        ini = write_ini(tmp_path, f.read().replace("T = 1.0", "T = 0.05"))
    out = tmp_path / "run"
    assert cli.main(["shock", "--scenario", ini, "--out", str(out)]) == 0
    for name in ("shock_path.csv", "amplitudes.csv", "merges.csv"):
        assert len((out / name).read_text().splitlines()) == 1  # header only
    assert cli.main(["limit-study", "--scenario", ini,
                     "--out", str(tmp_path / "limit")]) == 0
    # evolve's slice grid holds the fold point x = 0 itself at t = 0.05:
    # the two branches that meet there cover it, and it is left out of
    # density.csv only
    out = tmp_path / "evolve"
    assert cli.main(["evolve", "--scenario", ini, "--threads", "1",
                     "--out", str(out)]) == 0
    ess, den = (read_csv(out / name) for name in ("essential.csv",
                                                  "density.csv"))
    assert len(den["t"]) == len(ess["t"]) - 1
    assert set(zip(ess["t"], ess["x"])) - set(zip(den["t"], den["x"])) \
        == {(0.05, 0.0)}
    sc = scenario.load(ini)
    gd = density.build_density(cli._build_fan(sc), rho0=sc.rho0)
    rec, = gd.shocks
    assert abs(rec.t_birth - 0.05) < 1e-9
    assert not rec.sampled and rec.e is None
    assert gd.shock_masses(sc.T) == []


def test_verify_seeded_and_byte_identical(tmp_path, monkeypatch):
    sc = write_ini(tmp_path, MINIMAL + "\n[verify]\nbumps = 4\n")
    monkeypatch.setenv("TUNNELSHOCK_THREADS", "5")
    rc = cli.main(["verify", "--scenario", sc, "--seed", "42",
                   "--out", str(tmp_path / "a")])
    assert rc == 0
    monkeypatch.delenv("TUNNELSHOCK_THREADS")
    rc = cli.main(["verify", "--scenario", sc, "--seed", "42",
                   "--threads", "2", "--out", str(tmp_path / "b")])
    assert rc == 0
    for name in ("verify.csv", "manifest.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    tab = read_csv(tmp_path / "a" / "verify.csv")
    assert np.all(np.isfinite(tab["residual"]))
    assert np.max(tab["residual"]) < 1e-4  # smooth flow: identity holds


def test_threads_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("TUNNELSHOCK_THREADS", raising=False)
    flags = cli._parse_flags(["--scenario", "case.ini"])
    assert flags["threads"] == len(os.sched_getaffinity(0))
    monkeypatch.setenv("TUNNELSHOCK_THREADS", "3")
    assert cli._parse_flags(["--scenario", "case.ini"])["threads"] == 3
    flags = cli._parse_flags(["--scenario", "case.ini", "--threads", "1"])
    assert flags["threads"] == 1


def test_evolve_at_one_thread_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked at one thread")

    monkeypatch.setattr(os, "fork", no_fork)
    sc = write_ini(tmp_path, MINIMAL)
    assert cli.main(["evolve", "--scenario", sc, "--threads", "1",
                     "--out", str(tmp_path / "flag")]) == 0
    monkeypatch.setenv("TUNNELSHOCK_THREADS", "1")
    assert cli.main(["evolve", "--scenario", sc,
                     "--out", str(tmp_path / "env")]) == 0


def test_evolve_forked_writer_bytes_and_typed_failure(tmp_path, monkeypatch):
    # the forked writer leaves the bytes of the in-process one, also when
    # the parent ends in a typed failure after the fork
    sc = write_ini(tmp_path, MINIMAL)
    outs = {tag: tmp_path / tag for tag in ("one", "two", "fail")}
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    for tag, threads in (("one", "1"), ("two", "2")):
        assert cli.main(["evolve", "--scenario", sc, "--threads", threads,
                         "--out", str(outs[tag])]) == 0
    assert forks == [1]
    names = sorted(os.listdir(outs["one"]))
    assert names == sorted(os.listdir(outs["two"]))
    for name in names:
        assert (outs["one"] / name).read_bytes() \
            == (outs["two"] / name).read_bytes(), name

    def fail(*args, **kwargs):
        raise manifold.ManifoldError("no density after the fork")

    monkeypatch.setattr(density, "build_density", fail)
    assert cli.main(["evolve", "--scenario", sc, "--threads", "2",
                     "--out", str(outs["fail"])]) == 3
    assert forks == [1, 1]
    assert (outs["fail"] / "fan.csv").read_bytes() \
        == (outs["one"] / "fan.csv").read_bytes()


def _no_space(fan, path, indices=None):
    raise OSError(28, "No space left on device")


def _evolve_error(tmp_path, capfd, threads):
    """The exception evolve on MINIMAL raises at `threads` processes, as
    (type, errno, message), and what the run wrote to stdout and stderr."""
    sc = write_ini(tmp_path, MINIMAL)
    capfd.readouterr()
    with pytest.raises(Exception) as info:
        cli.main(["evolve", "--scenario", sc, "--threads", threads,
                  "--out", str(tmp_path / f"run-{threads}")])
    ex = info.value
    return (type(ex), getattr(ex, "errno", None), str(ex)), capfd.readouterr()


def test_evolve_writer_failure_raises_in_the_parent(tmp_path, monkeypatch,
                                                    capfd):
    # the failed writer is re-run in process, which raises its error as at
    # one process, with nothing said on stderr
    monkeypatch.setattr(cli.characteristics, "fan_to_csv", _no_space)
    one = _evolve_error(tmp_path, capfd, "1")
    assert one == ((OSError, 28, "[Errno 28] No space left on device"),
                   ("", ""))
    assert _evolve_error(tmp_path, capfd, "2") == one


def test_evolve_writer_and_density_failures_raise_the_writers(tmp_path,
                                                              monkeypatch,
                                                              capfd):
    # at one process fan.csv is written before the density is built
    def no_density(*args, **kwargs):
        raise manifold.ManifoldError("forced density failure")

    monkeypatch.setattr(cli.characteristics, "fan_to_csv", _no_space)
    monkeypatch.setattr(density, "build_density", no_density)
    one = _evolve_error(tmp_path, capfd, "1")
    assert one[0] == (OSError, 28, "[Errno 28] No space left on device")
    assert _evolve_error(tmp_path, capfd, "2") == one


def test_evolve_writer_dead_before_the_first_store(tmp_path, monkeypatch,
                                                   capfd):
    # the writer has exited before the integrator reports a stored time, so
    # every report meets a closed pipe: the integration still completes, and
    # the writer's own error is raised, not BrokenPipeError
    build_fan = cli._build_fan
    fans = []

    def build_after_the_writer_exits(sc, *fill):
        if fill:  # WNOWAIT leaves the writer for the parent to reap
            deadline = time.monotonic() + 20
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT
                            | os.WNOHANG) is None:
                assert time.monotonic() < deadline, "the writer did not exit"
                time.sleep(0.01)
        fans.append(build_fan(sc, *fill))
        return fans[-1]

    monkeypatch.setattr(cli.characteristics, "fan_to_csv", _no_space)
    monkeypatch.setattr(cli, "_build_fan", build_after_the_writer_exits)
    one = _evolve_error(tmp_path, capfd, "1")
    assert one == ((OSError, 28, "[Errno 28] No space left on device"),
                   ("", ""))
    assert _evolve_error(tmp_path, capfd, "2") == one
    assert len(fans) == 2


def test_evolve_killed_writer_is_rerun_in_process(tmp_path, monkeypatch):
    # a writer killed after two stored times leaves a partial file; the
    # parent writes fan.csv again, whole and as at one process
    fan_to_csv = cli.characteristics.fan_to_csv
    parent = os.getpid()

    def killed_after_two(fan, path, indices=None):
        def die():
            for i in indices:
                if i == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield i

        if os.getpid() != parent:
            return fan_to_csv(fan, path, die())
        return fan_to_csv(fan, path, indices)

    monkeypatch.setattr(cli.characteristics, "fan_to_csv", killed_after_two)
    sc = write_ini(tmp_path, MINIMAL_MONITORED)
    for threads in ("1", "2"):
        assert cli.main(["evolve", "--scenario", sc, "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
    assert sorted(os.listdir(tmp_path / "2")) \
        == sorted(os.listdir(tmp_path / "1"))
    assert (tmp_path / "2" / "fan.csv").read_bytes() \
        == (tmp_path / "1" / "fan.csv").read_bytes()

    # the same writer killed, and then a failed integration: exit 3, and
    # the parent removes the partial file the writer could not
    step = cli.characteristics.monitored_step
    calls = []

    def failing_step(rhs, t, y, h):
        calls.append(t)
        if len(calls) == 150:  # stored times 0 to 7 are reported by now
            deadline = time.monotonic() + 20
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT
                            | os.WNOHANG) is None:
                assert time.monotonic() < deadline, "the writer did not die"
                time.sleep(0.01)
            raise cli.characteristics.StepSizeError("forced at step 150")
        return step(rhs, t, y, h)

    monkeypatch.setattr(cli.characteristics, "monitored_step", failing_step)
    out = tmp_path / "failed"
    assert cli.main(["evolve", "--scenario", sc, "--threads", "2",
                     "--out", str(out)]) == 3
    assert os.listdir(out) == []


def test_evolve_integration_failure_leaves_the_old_fan_csv(tmp_path,
                                                           monkeypatch,
                                                           capfd):
    # a typed failure after the writer has written some stored times: exit
    # 3, the old fan.csv untouched and no partial file left behind
    out = tmp_path / "run"
    out.mkdir()
    (out / "fan.csv").write_bytes(b"t,x0,x,p,S,J,a_int\nold\n")
    step = cli.characteristics.monitored_step
    calls = []

    def failing_step(rhs, t, y, h):
        calls.append(t)
        if len(calls) == 100:  # stored times 0 to 4 are reported by now
            part = out / "fan.csv.part"
            deadline = time.monotonic() + 20
            while not (part.exists() and part.stat().st_size > 0):
                assert time.monotonic() < deadline, "the writer wrote nothing"
                time.sleep(0.01)
            raise cli.characteristics.StepSizeError("forced at step 100")
        return step(rhs, t, y, h)

    monkeypatch.setattr(cli.characteristics, "monitored_step", failing_step)
    sc = write_ini(tmp_path, MINIMAL_MONITORED)
    assert cli.main(["evolve", "--scenario", sc, "--threads", "2",
                     "--out", str(out)]) == 3
    assert "numerical failure: forced at step 100" in capfd.readouterr().err
    assert os.listdir(out) == ["fan.csv"]
    assert (out / "fan.csv").read_bytes() == b"t,x0,x,p,S,J,a_int\nold\n"


def test_evolve_forks_before_the_first_stored_time(tmp_path, monkeypatch):
    # the writer formats while the fan is integrated, so it must exist
    # before the integrator stores its first state
    events = []
    fork = os.fork
    build_fan = cli._build_fan

    def logged_fork():
        events.append("fork")
        return fork()

    def build(sc, store, on_store):
        def logged(i):
            events.append(i)
            on_store(i)
        return build_fan(sc, store, logged)

    monkeypatch.setattr(os, "fork", logged_fork)
    monkeypatch.setattr(cli, "_build_fan", build)
    sc = write_ini(tmp_path, MINIMAL)
    assert cli.main(["evolve", "--scenario", sc, "--threads", "2",
                     "--out", str(tmp_path / "run")]) == 0
    assert events == ["fork"] + list(range(11))  # T / (h_t * store_every)


TUNNEL = MINIMAL.replace("x_min = -2\nx_max = 2", "x_min = -3\nx_max = 3") + """
[tunnel]
h = 0.1, 0.05, 0.025
dx = 0.01
w_min = -1
w_max = 1
"""

FORKED = [
    (["verify", "--seed", "7"], MINIMAL + "\n[verify]\nbumps = 3\n"),
    (["oracle", "hopf-lax"], MINIMAL),
    (["oracle", "kf-lattice"], TUNNEL),
    (["oracle", "tunnel-compare"], TUNNEL),
]


def _run_at(tmp_path, capfd, argv, ini, threads, tag):
    out = tmp_path / tag
    capfd.readouterr()
    rc = cli.main([*argv, "--scenario", ini, "--threads", threads,
                   "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} \
        if out.exists() else {}
    return rc, capfd.readouterr(), files


@pytest.mark.parametrize("argv, text", FORKED,
                         ids=[" ".join(a[:2]) for a, _ in FORKED])
def test_fork_map_commands_match_one_process(tmp_path, monkeypatch, capfd,
                                             argv, text):
    # the same bytes at one process, where nothing forks, and at two
    ini = write_ini(tmp_path, text)
    fork = os.fork
    forks = []

    def no_fork():
        raise AssertionError("forked at one thread")

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", no_fork)
    one = _run_at(tmp_path, capfd, argv, ini, "1", "one")
    monkeypatch.setattr(os, "fork", counted_fork)
    two = _run_at(tmp_path, capfd, argv, ini, "2", "two")
    assert forks == [1]
    assert one[0] == 0 and one == two


@pytest.mark.parametrize("failing, argv", [
    # at two processes this one takes h = 0.1 and 0.025, the child 0.05
    ({0.05}, ["oracle", "kf-lattice"]),
    # 0.05 fails in the child, 0.025 in this process: in process 0.05
    # comes first
    ({0.05, 0.025}, ["oracle", "kf-lattice"]),
    # this process takes the density (item 0), which fails, and 0.05; the
    # child takes 0.1 and 0.025, which fails.  In process the lattices run
    # before the density, so the child's lattice failure wins
    ({0.025}, ["oracle", "tunnel-compare"]),
])
def test_fork_map_failure_matches_one_process(tmp_path, monkeypatch, capfd,
                                              failing, argv):
    ini = write_ini(tmp_path, TUNNEL)
    failing = set(failing)
    kf_lattice = oracle.kf_lattice

    def failing_lattice(m, field, **kwargs):
        if field.h in failing:
            raise oracle.BoundaryContactError(f"forced at h={field.h:g}")
        return kf_lattice(m, field, **kwargs)

    def no_density(*args, **kwargs):
        raise manifold.ManifoldError("forced density failure")

    monkeypatch.setattr(oracle, "kf_lattice", failing_lattice)
    monkeypatch.setattr(density, "build_density", no_density)
    one = _run_at(tmp_path, capfd, argv, ini, "1", "one")
    two = _run_at(tmp_path, capfd, argv, ini, "2", "two")
    assert one[0] == 3 and one == two
    # the schedule runs from large h to small
    first = max(failing)
    assert one[1].err == f"numerical failure: forced at h={first:g}\n"
    if argv[1] == "tunnel-compare":
        # with every lattice through, the density's own failure is reported
        failing.clear()
        one = _run_at(tmp_path, capfd, argv, ini, "1", "one-density")
        two = _run_at(tmp_path, capfd, argv, ini, "2", "two-density")
        assert one[0] == 3 and one == two
        assert one[1].err == "numerical failure: forced density failure\n"


def test_fork_map_reads_results_larger_than_the_pipe_buffer():
    # each child result is 800 kB, over ten times a pipe buffer
    got = forkmap.fork_map(lambda i: np.full(100_000, i + 0.5), range(5), 3)
    assert [float(a[0]) for a in got] == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert all(a.shape == (100_000,) for a in got)


def test_fork_map_reruns_a_child_that_died():
    # a child killed before it sent anything: its items run in process
    def item(i):
        if i == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return [i, 2.0 * i]

    parent = os.getpid()
    got = forkmap.fork_map(item, range(4), 2)
    assert got == [[0, 0], [1, 2], [2, 4], [3, 6]]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_fork_map_returns_what_fn_returns(threads):
    def item(i):
        return (i, (i, i / 2), [float(i)] * 2)[i % 3]

    got = forkmap.fork_map(item, range(7), threads)
    want = [item(i) for i in range(7)]
    assert got == want
    assert [type(r) for r in got] == [type(r) for r in want]


def test_fork_map_returns_lattice_fields(tmp_path):
    sc = scenario.load(write_ini(tmp_path, TUNNEL))
    hs = sc.h_schedule
    got = forkmap.fork_map(lambda h: cli._lattice(sc, h), hs, 2)
    for h, f in zip(hs, got):
        want = cli._lattice(sc, h)
        assert type(f) is oracle.LatticeField
        assert (f.h, f.t, f.dt, f.reach, f.u0.source) \
            == (want.h, want.t, want.dt, want.reach, want.u0.source)
        assert np.array_equal(f.x, want.x)
        assert np.array_equal(f.values, want.values)


def test_exit_codes(tmp_path, capsys):
    bad_expr = write_ini(tmp_path, MINIMAL.replace("S0 = x^2/2", "S0 = x^2/"))
    assert cli.main(["evolve", "--scenario", bad_expr]) == 2
    err = capsys.readouterr().err
    assert "S0" in err and "offset" in err

    assert cli.main(["frobnicate", "--scenario", bad_expr]) == 64
    assert cli.main(["oracle", "warp", "--scenario", bad_expr]) == 64
    assert cli.main(["oracle"]) == 64
    assert cli.main(["evolve", "--scenario",
                     str(tmp_path / "missing.ini")]) == 66
    assert cli.main(["evolve"]) == 2                       # no scenario flag
    assert cli.main(["evolve", "--scenario", bad_expr, "--oops", "1"]) == 2
    # [symbol] coefficients are functions of x only
    with_t = write_ini(tmp_path, MINIMAL.replace("A = 0.5", "A = 0.5 + 0*t"),
                       "with_t.ini")
    assert cli.main(["evolve", "--scenario", with_t]) == 2
    assert "[symbol] A: unknown identifier 't'" in capsys.readouterr().err
    good = write_ini(tmp_path, MINIMAL, "good.ini")
    assert cli.main(["evolve", "--scenario", good, "--threads", "zero"]) == 2
    assert cli.main(["evolve", "--scenario", good, "--seed", "-3"]) == 2
    # [regularization] and [verify] values are checked on load, whether or
    # not the front shocks
    for name, extra, key in (
            ("profile", "epsilon = 1e-2\nB_profile = cubic", "B_profile"),
            ("beta_sign", "epsilon = 1e-2\nbeta = -0.1", "beta"),
            ("beta_small", "epsilon = 1e-2\nbeta = 0.05", "beta"),
            ("shift", "epsilon = 1e-2\nA_shift = 0", "A_shift")):
        bad = write_ini(tmp_path, MINIMAL + "\n[regularization]\n" + extra,
                        f"{name}.ini")
        assert cli.main(["limit-study", "--scenario", bad]) == 2
        assert f"[regularization] {key}:" in capsys.readouterr().err
    no_bumps = write_ini(tmp_path, MINIMAL + "\n[verify]\nbumps = 0\n",
                         "no_bumps.ini")
    assert cli.main(["verify", "--scenario", no_bumps]) == 2
    assert "[verify] bumps:" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SCENARIOS) if f.endswith(".ini")))
def test_shipped_scenarios_load_and_run(name, tmp_path):
    scenario.load(preset(name))
    out = tmp_path / "run"
    assert cli.main(["singularity", "--scenario", preset(name),
                     "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_scenario_validation(tmp_path):
    bad_key = MINIMAL + "\n[domain]\n"  # duplicate section
    with pytest.raises(scenario.ScenarioError):
        scenario.load(write_ini(tmp_path, bad_key, "dup.ini"))
    with pytest.raises(scenario.ScenarioError, match="unknown key"):
        scenario.load(write_ini(tmp_path, MINIMAL + "typo = 1\n", "a.ini"))
    with pytest.raises(scenario.ScenarioError, match="divide"):
        scenario.load(write_ini(
            tmp_path, MINIMAL.replace("h_t = 2.5e-3", "h_t = 3e-3"),
            "b.ini"))
    with pytest.raises(scenario.ScenarioError, match="not both"):
        scenario.load(write_ini(
            tmp_path,
            MINIMAL.replace("S0_prime = x", "S0_prime = x\nphi0 = 1\nrho0 = 1"),
            "c.ini"))
    with pytest.raises(scenario.ScenarioError, match="required"):
        scenario.load(write_ini(
            tmp_path, MINIMAL.replace("T = 0.5\n", ""), "d.ini"))
    sc = scenario.load(write_ini(
        tmp_path,
        MINIMAL.replace("A = 0.5", "A = 0.5\njumps = 1.0: 2*exp(0-x^2)"),
        "e.ini"))
    assert len(sc.m.jumps) == 1
    assert sc.rho0 == "1"


def test_oracle_hopf_lax_rarefaction(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["oracle", "hopf-lax", "--scenario",
                   preset("rarefaction.ini"), "--out", str(out)])
    assert rc == 0
    tab = read_csv(out / "hopf_lax.csv")
    exact = tab["x"] ** 2 / (2.0 * (1.0 + tab["t"]))
    assert np.max(np.abs(tab["S"] - exact)) < 1e-6


def test_oracle_godunov_front(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["oracle", "godunov", "--scenario",
                   preset("steep_front.ini"), "--out", str(out)])
    assert rc == 0
    tab = read_csv(out / "godunov.csv")
    late = tab["t"] == tab["t"].max()
    x, u = tab["x"][late], tab["u"][late]
    assert np.max(np.abs(u)) <= 1.0 + 1e-9
    assert np.all(u[x < -2.5] > 0.9)
    assert np.all(u[x > 2.5] < -0.9)


def test_oracle_lattice_schema(tmp_path):
    sc = write_ini(tmp_path, """\
[symbol]
A = 0.5

[initial]
S0 = x^2/2

[domain]
x_min = -3
x_max = 3
n_x0 = 401
T = 0.5
h_t = 5e-3
store_every = 10

[tunnel]
h = 0.1
dx = 0.01
""")
    out = tmp_path / "run"
    rc = cli.main(["oracle", "kf-lattice", "--scenario", sc,
                   "--out", str(out)])
    assert rc == 0
    tab = read_csv(out / "lattice.csv")
    assert set(tab) == {"h", "t", "x", "u", "minus_h_log_u"}
    assert np.all(tab["u"] > 0)  # positivity under the explicit scheme
    # exponential-scale readout reproduces the evolved action at the center
    mid = np.argmin(np.abs(tab["x"]))
    assert abs(tab["minus_h_log_u"][mid]
               - 0.1 * np.log(1.5) / 2.0) < 5e-3


def test_oracle_tunnel_compare(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["oracle", "tunnel-compare", "--scenario",
                   preset("gaussian_tunnel.ini"), "--out", str(out)])
    assert rc == 0
    tab = read_csv(out / "compare.csv")
    assert tab["h"].size == 1
    assert tab["E_of_h"][0] < 1e-3


def test_limit_study_cli(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["limit-study", "--scenario", preset("riemann.ini"),
                   "--out", str(out)])
    assert rc == 0
    tab = read_csv(out / "limit_study.csv")
    assert tab["epsilon"].size == 2
    assert tab["e_error_at_T"][0] > tab["e_error_at_T"][1]
    assert np.all(tab["minJ_over_eps"] > 0)
    # a scenario without a schedule cannot run this subcommand
    sc = write_ini(tmp_path, MINIMAL)
    assert cli.main(["limit-study", "--scenario", sc,
                     "--out", str(tmp_path / "x")]) == 2
    # blended around the first fold of two fronts, the flow folds where
    # the second front does, outside the collar: a numerical failure
    with open(preset("merging_fronts.ini")) as f:
        text = f.read().replace("n_x0 = 4001", "n_x0 = 801")
    merging = write_ini(tmp_path, text + "\n[regularization]\n"
                        "epsilon = 1e-2, 2.5e-3\n", "merging.ini")
    capsys.readouterr()
    assert cli.main(["limit-study", "--scenario", merging,
                     "--out", str(tmp_path / "merging")]) == 3
    assert "one-to-one at t=0.105" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    proc = subprocess.run([sys.executable, "-m", "tunnelshock"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 64
    proc = subprocess.run([sys.executable, "-m", "tunnelshock", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "subcommands" in proc.stdout