"""Tests of the benchmark itself: generator, span arithmetic, counters.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from tunnelshock import cli, expr, scenario  # noqa: E402


def _files(d):
    return {name: open(os.path.join(d, name), "rb").read()
            for name in sorted(os.listdir(d))}


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = scenarios.generate(workload, 7, 2, str(tmp_path / "a"))
    b = scenarios.generate(workload, 7, 2, str(tmp_path / "b"))
    c = scenarios.generate(workload, 8, 2, str(tmp_path / "c"))
    assert [x.argv for x in a] == [x.argv for x in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # a shorter list is a prefix of a longer one
    d = scenarios.generate(workload, 7, 1, str(tmp_path / "d"))
    assert _files(tmp_path / "d") == {k: v for k, v in
                                      _files(tmp_path / "a").items()
                                      if k.startswith("r0-")}
    for case in a:
        scenario.load(case.scenario)


def test_self_time_of_nested_spans():
    # root [0, 10] holds A [1, 4] and B [5, 6]; A holds G [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert np.allclose(tracing.self_times(start, end, parent),
                       [6.0, 2.0, 1.0, 1.0])
    names = np.array([0, 1, 2, 2])
    assert list(tracing.under(names, parent, 1)) == [False, False, True,
                                                     False]


def test_tracer_self_times_add_up_to_the_root():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(2000)))

    def middle():
        return inner() + inner()

    outer = tr.wrap("outer", lambda: tr.wrap("middle", middle)())
    outer()
    names, start, end, parent, _ = tr.arrays()
    assert list(parent) == [-1, 0, 1, 1]
    selft = tracing.self_times(start, end, parent)
    assert np.all(selft >= 0)
    assert selft.sum() == pytest.approx(end[0] - start[0], rel=1e-9)


SMALL = """\
[symbol]
A = 0.5

[initial]
S0 = 0.4*log(sech(x/0.4))
S0_prime = 0-tanh(x/0.4)
rho0 = 1

[domain]
x_min = -3
x_max = 3
n_x0 = 201
T = 0.5
h_t = 5e-3
store_every = 2

[verify]
bumps = 1
"""


def _traced_counts(tmp_path, tag):
    path = tmp_path / f"{tag}.ini"
    path.write_text(SMALL)
    cases = [scenarios.Case("verify", ("verify", "--seed", "3"), str(path),
                            {}),
             scenarios.Case("hopf-lax", ("oracle", "hopf-lax"), str(path),
                            {})]
    tr = tracing.Tracer()
    tr.install()
    try:
        records = bench_run.run_cases(cases, len(cases), 1e9,
                                      tr.case_span(cli.main), tr)
    finally:
        tr.uninstall()
    assert [r["rc"] for r in records] == [0, 0]
    units = dict(tracing.PER_LAYER)
    return {k: v for k, v in tr.metrics({}, 0.0).items()
            if units[k] == "count"}


def test_count_metrics_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first == second
    for name in ("expr.evaluate.calls", "characteristics.rhs.calls",
                 "manifold.slice_fan.misses", "manifold.slice_dense.calls",
                 "manifold.essential.points", "density.fields.calls",
                 "verify.identity_residual.calls",
                 "symbol.legendre.newton_iters",
                 "oracle.hopf_lax_grid.points"):
        assert first[name] > 0, name
    # wrappers come off again
    assert cli.main.__module__ == "tunnelshock.cli"
    assert not hasattr(expr.evaluate, "__wrapped__")


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(scenarios.WORKLOADS)
