"""Outside-in tracing: spans and counts recorded around public functions.

Wrappers are installed on the module and class attributes through which
the pipeline reaches its layers, so nothing under ``src/`` changes.  A
span is (name, start, end, parent span, case id); spans are kept in
memory in flat arrays and written out once, when the run ends.  Per-layer
figures are derived from the spans after the run:

* ``*.s``: summed span durations (inclusive time);
* ``*.self_s``: summed self time, a span's duration minus the time its
  child spans cover;
* ``*.calls``: span counts;
* other counts (points, misses, shocks, bytes written) come from the same
  wrappers, through small hooks that read the call's arguments or result.
"""

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

# name of each traced span -> (module, attribute path); the metric groups
# below sum spans by these names
TRACED = {
    "expr.evaluate": ("expr", "evaluate"),
    "symbol.eval_P": ("symbol", "eval_P"),
    "symbol.eval_dP_dp": ("symbol", "eval_dP_dp"),
    "symbol.eval_hess": ("symbol", "eval_hess"),
    "symbol.eval_dP_dx": ("symbol", "eval_dP_dx"),
    "symbol.eval_d2P_dxdp": ("symbol", "eval_d2P_dxdp"),
    "symbol.eval_d2P_dx2": ("symbol", "eval_d2P_dx2"),
    "symbol.legendre_batch": ("symbol", "legendre_batch"),
    "characteristics.integrate_fan": ("characteristics", "integrate_fan"),
    "characteristics.fan_to_csv": ("characteristics", "fan_to_csv"),
    "manifold.slice_fan": ("manifold", "slice_fan"),
    "manifold.slice_dense": ("manifold", "slice_dense"),
    "manifold.essential": ("manifold", "essential"),
    "manifold.track_shocks": ("manifold", "track_shocks"),
    "manifold.find_singularities": ("manifold", "find_singularities"),
    "density.fields": ("density", "GeneralizedDensity.fields"),
    "density.regular": ("density", "GeneralizedDensity.regular"),
    "density.mass_balance": ("density", "mass_balance"),
    "density.attach_amplitudes": ("density", "attach_amplitudes"),
    "verify.identity_suite": ("verify", "identity_suite"),
    "verify.identity_residual": ("verify", "identity_residual"),
    "oracle.hopf_lax_grid": ("oracle", "hopf_lax_grid"),
    "oracle.kf_lattice": ("oracle", "kf_lattice"),
    "oracle.godunov": ("oracle", "godunov"),
    "oracle.tunnel_compare": ("oracle", "tunnel_compare"),
    "regularize.limit_study": ("regularize", "limit_study"),
    "regularize.blended_fan": ("regularize", "blended_fan"),
    "scenario.load": ("scenario", "load"),
    # cli imports write_csv by name, so its calls are reached through cli
    "cli.write_csv": ("cli", "write_csv"),
}
# regularize imports these symbol functions by name; wrap its copies too
BY_NAME_IMPORTS = {"regularize": ("eval_P", "eval_dP_dp", "eval_dP_dx",
                                  "eval_hess")}
RHS_SPAN = "characteristics.rhs"
CASE_SPAN = "cli"

SYMBOL_DX = ("symbol.eval_dP_dx", "symbol.eval_d2P_dxdp",
             "symbol.eval_d2P_dx2")
SYMBOL_P = ("symbol.eval_P", "symbol.eval_dP_dp", "symbol.eval_hess")
MODULES = ("expr", "symbol", "characteristics", "manifold", "density",
           "verify", "oracle", "regularize")

# every per-layer metric, with its unit; BENCHMARK.json lists the same set
PER_LAYER = (
    ("expr.evaluate.calls", "count"), ("expr.evaluate.self_s", "s"),
    ("symbol.dx.calls", "count"), ("symbol.dx.self_s", "s"),
    ("symbol.p.calls", "count"), ("symbol.p.self_s", "s"),
    ("symbol.legendre.calls", "count"),
    ("symbol.legendre.newton_iters", "count"),
    ("symbol.legendre.self_s", "s"),
    ("characteristics.integrate_fan.s", "s"),
    ("characteristics.integrate_fan.self_s", "s"),
    ("characteristics.rhs.calls", "count"),
    ("characteristics.label_steps_per_s", "1/s"),
    ("characteristics.fan_to_csv.s", "s"),
    ("characteristics.fan_to_csv.mb", "MB"),
    ("manifold.slice_fan.calls", "count"),
    ("manifold.slice_fan.misses", "count"),
    ("manifold.slice_fan.self_s", "s"),
    ("manifold.slice_dense.calls", "count"),
    ("manifold.slice_dense.distinct_t_ratio", "fraction"),
    ("manifold.slice_dense.self_s", "s"),
    ("manifold.essential.calls", "count"),
    ("manifold.essential.points", "count"),
    ("manifold.essential.self_s", "s"),
    ("manifold.track_shocks.self_s", "s"),
    ("manifold.shocks", "count"), ("manifold.merges", "count"),
    ("manifold.find_singularities.s", "s"),
    ("density.fields.calls", "count"),
    ("density.fields.points_per_call", "points/call"),
    ("density.fields.self_s", "s"),
    ("density.regular.calls", "count"), ("density.mass_balance.s", "s"),
    ("density.attach_amplitudes.s", "s"),
    ("verify.identity_suite.s", "s"),
    ("verify.identity_residual.calls", "count"),
    ("verify.identity_residual.self_s", "s"),
    ("oracle.hopf_lax_grid.s", "s"), ("oracle.hopf_lax_grid.points", "count"),
    ("oracle.kf_lattice.s", "s"), ("oracle.godunov.s", "s"),
    ("oracle.tunnel_compare.s", "s"),
    ("regularize.limit_study.self_s", "s"),
    ("regularize.blended_fan.calls", "count"),
    ("regularize.blended_fan.s", "s"),
    ("scenario.load.s", "s"),
    ("cli.write_csv.s", "s"), ("cli.write_csv.mb", "MB"),
    ("cli.self_s", "s"),
    ("trace.case_s", "s"),
) + tuple((f"{m}.case_failures", "count") for m in MODULES)


def self_times(start, end, parent):
    """Duration minus the time covered by direct children, per span.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of it and their durations add.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def under(names, parent, ancestor_id):
    """Flag spans that have a span named ``ancestor_id`` above them."""
    names = np.asarray(names)
    parent = np.asarray(parent)
    flag = np.zeros(names.size, dtype=bool)
    if names.size == 0:
        return flag
    idx = np.where(parent >= 0, parent, 0)
    top = parent < 0
    # each pass lifts the flag one generation; stop when nothing changes
    while True:
        new = ~top & ((names[idx] == ancestor_id) | flag[idx])
        if np.array_equal(new, flag):
            return flag
        flag = new


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.case_id = -1
        self.counts = Counter()
        self._dense_t = set()
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        name_ix, parent, case = self.name_ix, self.parent, self.case
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            case.append(self.case_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as ex:
                end[i] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(ex, args, kwargs)
                raise
            end[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return traced

    # -- hooks that turn arguments and results into counts --------------
    def _hooks(self, modules):
        counts = self.counts
        CharErr = modules["characteristics"].CharacteristicsError
        fan_sig = inspect.signature(modules["characteristics"].integrate_fan)

        def fan_steps(out, args, kwargs):
            b = fan_sig.bind(*args, **kwargs)
            n_steps = int(round(b.arguments["T"] / b.arguments["h_t"]))
            counts["label_steps"] += np.size(b.arguments["x0"]) * n_steps

        def add(key, value_of):
            def hook(out, args, kwargs):
                counts[key] += value_of(out, args, kwargs)
            return hook

        def file_bytes(key, pos):
            return add(key, lambda out, a, k: os.path.getsize(a[pos]))

        def slice_miss(ex, args, kwargs):
            # the stored-node lookup failing is the dense-time fallback
            if isinstance(ex, CharErr):
                counts["slice_fan.misses"] += 1

        def dense_t(out, args, kwargs):
            self._dense_t.add((self.case_id, float(args[1])))

        def shocks(out, args, kwargs):
            counts["shocks"] += len(out)
            counts["merges"] += sum(len(r.parents) == 2 for r in out)

        return {
            "characteristics.integrate_fan": (fan_steps, None),
            "characteristics.fan_to_csv": (file_bytes("fan_csv.bytes", 1),
                                           None),
            "cli.write_csv": (file_bytes("write_csv.bytes", 0), None),
            "manifold.slice_fan": (None, slice_miss),
            "manifold.slice_dense": (dense_t, None),
            "manifold.essential": (
                add("essential.points", lambda o, a, k: np.size(a[1])), None),
            "manifold.track_shocks": (shocks, None),
            "density.fields": (
                add("fields.points",
                    lambda o, a, k: np.size(a[2] if len(a) > 2 else k["x"])),
                None),
            "oracle.hopf_lax_grid": (
                add("hopf_lax.points", lambda o, a, k: np.size(a[2])), None),
        }

    def install(self):
        """Wrap every traced attribute of tunnelshock; undo with
        `uninstall`."""
        modules = {name: importlib.import_module(f"tunnelshock.{name}")
                   for name in MODULES + ("scenario", "cli")}
        hooks = self._hooks(modules)
        for name, (mod, attr) in TRACED.items():
            owner = modules[mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            on_result, on_error = hooks.get(name, (None, None))
            self._patch(owner, attr, self.wrap(
                name, getattr(owner, attr), on_result, on_error))
        for mod, attrs in BY_NAME_IMPORTS.items():
            for attr in attrs:
                self._patch(modules[mod], attr,
                            self.wrap(f"symbol.{attr}",
                                      getattr(modules[mod], attr)))
        chars = modules["characteristics"]
        make_rhs = chars.hamiltonian_rhs

        def hamiltonian_rhs(*args, **kwargs):
            return self.wrap(RHS_SPAN, make_rhs(*args, **kwargs))

        self._patch(chars, "hamiltonian_rhs", hamiltonian_rhs)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def case_span(self, fn):
        return self.wrap(CASE_SPAN, fn)

    # -- results ---------------------------------------------------------
    def arrays(self):
        return (np.frombuffer(self.name_ix, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.case, dtype=np.int32))

    def save(self, path):
        """Write the spans (npz) and their name table (json header)."""
        names, start, end, parent, case = self.arrays()
        np.savez_compressed(path, name=names, start=start, end=end,
                            parent=parent, case=case,
                            names=np.array(json.dumps(self.names)))

    def metrics(self, failures_by_layer, traced_case_s):
        """Per-layer metrics as {name: value}, in the PER_LAYER order."""
        names, start, end, parent, case = self.arrays()
        dur = end - start
        selft = self_times(start, end, parent)
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        incl = np.bincount(names, weights=dur, minlength=n)
        slf = np.bincount(names, weights=selft, minlength=n)

        def pick(arr, *span_names):
            return float(sum(arr[self._ids[s]] for s in span_names
                             if s in self._ids))

        legendre = self._ids.get("symbol.legendre_batch", -1)
        hess = self._ids.get("symbol.eval_hess", -1)
        newton = int(np.sum((names == hess) & under(names, parent, legendre)))
        c = self.counts
        fan_s = pick(incl, "characteristics.integrate_fan")
        dense_calls = pick(calls, "manifold.slice_dense")
        fields_calls = pick(calls, "density.fields")
        m = {
            "expr.evaluate.calls": pick(calls, "expr.evaluate"),
            "expr.evaluate.self_s": pick(slf, "expr.evaluate"),
            "symbol.dx.calls": pick(calls, *SYMBOL_DX),
            "symbol.dx.self_s": pick(slf, *SYMBOL_DX),
            "symbol.p.calls": pick(calls, *SYMBOL_P),
            "symbol.p.self_s": pick(slf, *SYMBOL_P),
            "symbol.legendre.calls": pick(calls, "symbol.legendre_batch"),
            "symbol.legendre.newton_iters": newton,
            "symbol.legendre.self_s": pick(slf, "symbol.legendre_batch"),
            "characteristics.integrate_fan.s": fan_s,
            "characteristics.integrate_fan.self_s":
                pick(slf, "characteristics.integrate_fan"),
            "characteristics.rhs.calls": pick(calls, RHS_SPAN),
            "characteristics.label_steps_per_s":
                c["label_steps"] / fan_s if fan_s > 0 else 0.0,
            "characteristics.fan_to_csv.s":
                pick(incl, "characteristics.fan_to_csv"),
            "characteristics.fan_to_csv.mb": c["fan_csv.bytes"] / 1e6,
            "manifold.slice_fan.calls": pick(calls, "manifold.slice_fan"),
            "manifold.slice_fan.misses": c["slice_fan.misses"],
            "manifold.slice_fan.self_s": pick(slf, "manifold.slice_fan"),
            "manifold.slice_dense.calls": dense_calls,
            "manifold.slice_dense.distinct_t_ratio":
                len(self._dense_t) / dense_calls if dense_calls else 0.0,
            "manifold.slice_dense.self_s": pick(slf, "manifold.slice_dense"),
            "manifold.essential.calls": pick(calls, "manifold.essential"),
            "manifold.essential.points": c["essential.points"],
            "manifold.essential.self_s": pick(slf, "manifold.essential"),
            "manifold.track_shocks.self_s":
                pick(slf, "manifold.track_shocks"),
            "manifold.shocks": c["shocks"],
            "manifold.merges": c["merges"],
            "manifold.find_singularities.s":
                pick(incl, "manifold.find_singularities"),
            "density.fields.calls": fields_calls,
            "density.fields.points_per_call":
                c["fields.points"] / fields_calls if fields_calls else 0.0,
            "density.fields.self_s": pick(slf, "density.fields"),
            "density.regular.calls": pick(calls, "density.regular"),
            "density.mass_balance.s": pick(incl, "density.mass_balance"),
            "density.attach_amplitudes.s":
                pick(incl, "density.attach_amplitudes"),
            "verify.identity_suite.s": pick(incl, "verify.identity_suite"),
            "verify.identity_residual.calls":
                pick(calls, "verify.identity_residual"),
            "verify.identity_residual.self_s":
                pick(slf, "verify.identity_residual"),
            "oracle.hopf_lax_grid.s": pick(incl, "oracle.hopf_lax_grid"),
            "oracle.hopf_lax_grid.points": c["hopf_lax.points"],
            "oracle.kf_lattice.s": pick(incl, "oracle.kf_lattice"),
            "oracle.godunov.s": pick(incl, "oracle.godunov"),
            "oracle.tunnel_compare.s": pick(incl, "oracle.tunnel_compare"),
            "regularize.limit_study.self_s":
                pick(slf, "regularize.limit_study"),
            "regularize.blended_fan.calls":
                pick(calls, "regularize.blended_fan"),
            "regularize.blended_fan.s": pick(incl, "regularize.blended_fan"),
            "scenario.load.s": pick(incl, "scenario.load"),
            "cli.write_csv.s": pick(incl, "cli.write_csv"),
            "cli.write_csv.mb": c["write_csv.bytes"] / 1e6,
            "cli.self_s": pick(slf, CASE_SPAN),
            "trace.case_s": traced_case_s,
        }
        for mod in MODULES:
            m[f"{mod}.case_failures"] = failures_by_layer.get(mod, 0)
        return {k: int(m[k]) if unit == "count" else m[k]
                for k, unit in PER_LAYER}

    def self_share(self):
        """Share of all traced self time per module (cli included)."""
        names, start, end, parent, _ = self.arrays()
        slf = np.bincount(names, weights=self_times(start, end, parent),
                          minlength=len(self.names))
        by_mod = Counter()
        for i, name in enumerate(self.names):
            by_mod[name.split(".")[0]] += float(slf[i])
        total = sum(by_mod.values()) or 1.0
        return {k: v / total for k, v in sorted(by_mod.items())}
