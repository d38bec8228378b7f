import os
import subprocess
import sys

import numpy as np
import pytest

from tunnelshock import cli, scenario

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

    def build(sc):
        fans.append(build_fan(sc))
        return fans[-1]

    monkeypatch.setattr(cli, "_build_fan", build)
    # fan.csv is not under test and takes a third of the run
    monkeypatch.setattr(cli.characteristics, "fan_to_csv",
                        lambda fan, path: None)
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
            ("beta_small", "epsilon = 1e-2\nbeta = 0.05", "beta")):
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


def test_limit_study_cli(tmp_path):
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


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    proc = subprocess.run([sys.executable, "-m", "tunnelshock"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 64
    proc = subprocess.run([sys.executable, "-m", "tunnelshock", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "subcommands" in proc.stdout