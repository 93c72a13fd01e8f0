"""Span tracing from outside the program.

`Tracer.install()` replaces every public function and every public method of
the measured modules with a wrapper that opens a span on entry and closes it
on exit; `uninstall()` puts the originals back, so untraced rounds run the
program unchanged.  A span is named `<module>.<function>` (methods drop the
class name, so `boundaries.base_capacity` covers every boundary kind).  A
call made while a span of the same name is open, such as a `super()` chain
or a value object delegating to its base, belongs to the open span and opens
none.

Closed spans are folded into per-name totals as they close: call count,
inclusive time, self time and, per parent, the calls and time spent under
that parent.  Self time is the span minus its children, each child counted
from its wrapper's entry to its exit, so the tracer's own bookkeeping is not
charged to the parent.  A verification round opens millions of spans, so the
individual records are not kept.  Hooks, called as hook(tracer, args,
result, duration_ns), attach size counters (path steps, root points,
quadrature arguments) to the names.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MEASURED_MODULES = ("paths", "outcomes", "boundaries", "values", "verify", "mc")
PACKAGE = "duopoly_invest"


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.stats: dict = defaultdict(Stat)
        self.edges: dict = defaultdict(lambda: [0, 0])   # (parent, child) -> [calls, ns]
        self.counters: dict = defaultdict(int)
        self.timers: dict = defaultdict(int)      # name -> ns, for time a hook attributes
        self.sets: dict = defaultdict(set)
        self._stack: list = []
        self._originals: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            enter = clock()
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                dur = clock() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame[1]
                edge = edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += dur
                if returned and hook is not None:
                    hook(self, args, result, dur)
                if parent is not None:
                    # The whole wrapper, bookkeeping and hook included, is
                    # child time to the parent, so tracing costs stay out
                    # of the parent's self time.
                    parent[1] += clock() - enter
            return result

        return traced

    def install(self, callers=()):
        """Wrap the public functions and methods of the measured modules and
        rebind the references that the package's modules, and the modules in
        `callers`, hold to them."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        package_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and n.split(".")[0] == PACKAGE] + list(callers)
        replaced = {}
        for short in MEASURED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        wrapped = self._wrap(f"{short}.{meth}", fn)
                        setattr(obj, meth, wrapped)
                        self._originals.append((obj, meth, fn))
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._originals.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._stack.clear()

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals and per-edge totals, JSON-ready."""
        return {
            "spans": {k: {"calls": s.calls, "total_s": s.total_ns * 1e-9,
                          "self_s": s.self_ns * 1e-9}
                      for k, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": v[0], "total_s": v[1] * 1e-9}
                      for (p, c), v in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "counters": dict(sorted(self.counters.items())),
            "timers_s": {k: v * 1e-9 for k, v in sorted(self.timers.items())},
            "distinct": {k: len(v) for k, v in sorted(self.sets.items())},
        }


# ---------------------------------------------------------------------------
# The program's layers: size counters and the per-layer metrics
# ---------------------------------------------------------------------------

def _path_steps(tr, args, result, dur):
    tr.counters["paths.generate_path.steps"] += result.n_steps


def _payoff_steps(tr, args, result, dur):
    tr.counters["outcomes.payoff.steps"] += len(args[1].Q1) - 1


def _array_roots(tr, args, result, dur):
    # Points that go through a root solve: the dynamic trigger with a premium.
    boundary = args[0]
    if getattr(boundary, "kind", "") == "dynamic_c" and boundary.c > 0.0:
        tr.counters["boundaries.array_roots"] += int(np.size(args[1]))
        tr.timers["boundaries.array_roots"] += dur


def _b_args(tr, args, result, dur):
    tr.sets["values.B"].add((args[0].c, float(args[1]), float(args[2])))


HOOKS = {
    "paths.generate_path": _path_steps,
    "outcomes.payoff": _payoff_steps,
    "boundaries.base_capacity_array": _array_roots,
    "boundaries.symmetric_base_capacity": _array_roots,
    "values.B": _b_args,
}

VERIFY_CHECKS = ("check_pde", "check_smooth_fit", "check_derivative_propagation",
                 "check_transversality", "check_opponent_increment_derivative")

# (name, unit), in the order of BENCHMARK.json's per_layer list.  Counts are
# those of one round; times are totals over the traced rounds divided by the
# work they did (steps, paths, calls, points) or, for self times, by rounds.
LAYER_METRICS = [
    ("paths.generate_path.calls", "count"),
    ("paths.generate_path.ns_per_step", "ns"),
    ("outcomes.build_abstain_outcome.us_per_path", "us"),
    ("outcomes.payoff.ns_per_step", "ns"),
    ("mc.estimate_payoff.self_s", "s"),
    ("outcomes.build_symmetric_outcome.us_per_path", "us"),
    ("outcomes.catch_up_report.us_per_call", "us"),
    ("outcomes.check_consistency.us_per_call", "us"),
    ("boundaries.array_roots", "count"),
    ("boundaries.array_roots.us_per_point", "us"),
    ("boundaries.base_capacity.calls", "count"),
    ("boundaries.base_capacity.us_per_call", "us"),
    ("values.B.calls", "count"),
    ("values.B.distinct_args", "count"),
    ("values.B.self_s", "s"),
    ("values.partials.calls", "count"),
    ("values.partials.us_per_call", "us"),
    ("values.value.calls", "count"),
    *[(f"verify.{name}.self_s", "s") for name in VERIFY_CHECKS],
    ("trace.overhead", "ratio"),
    ("mc_mse_time", "s.payoff2"),
]


def round_counts(tracer: Tracer) -> dict:
    """The counts a traced round left in the tracer."""
    return {"calls": {k: s.calls for k, s in tracer.stats.items()},
            "counters": dict(tracer.counters),
            "distinct": {k: len(v) for k, v in tracer.sets.items()}}


def layer_metrics(tracer: Tracer, first: dict, n_rounds: int) -> dict:
    """Per-layer values from the traced rounds; `first` holds the counts of
    the first traced round.  Layers a workload never enters read 0."""
    stats, counters = tracer.stats, tracer.counters

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    def total(name):
        return stats[name].total_ns if name in stats else 0

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return ratio(stats[name].self_ns if name in stats else 0, n_rounds, 1e-9)

    first_calls = first["calls"]
    out = {
        "paths.generate_path.calls": first_calls.get("paths.generate_path", 0),
        "paths.generate_path.ns_per_step": ratio(
            total("paths.generate_path"), counters.get("paths.generate_path.steps", 0), 1.0),
        "outcomes.build_abstain_outcome.us_per_path": ratio(
            total("outcomes.build_abstain_outcome"), calls("outcomes.build_abstain_outcome"), 1e-3),
        "outcomes.payoff.ns_per_step": ratio(
            total("outcomes.payoff"), counters.get("outcomes.payoff.steps", 0), 1.0),
        "mc.estimate_payoff.self_s": self_s("mc.estimate_payoff"),
        "outcomes.build_symmetric_outcome.us_per_path": ratio(
            total("outcomes.build_symmetric_outcome"), calls("outcomes.build_symmetric_outcome"), 1e-3),
        "outcomes.catch_up_report.us_per_call": ratio(
            total("outcomes.catch_up_report"), calls("outcomes.catch_up_report"), 1e-3),
        "outcomes.check_consistency.us_per_call": ratio(
            total("outcomes.check_consistency"), calls("outcomes.check_consistency"), 1e-3),
        "boundaries.array_roots": first["counters"].get("boundaries.array_roots", 0),
        "boundaries.array_roots.us_per_point": ratio(
            tracer.timers.get("boundaries.array_roots", 0),
            counters.get("boundaries.array_roots", 0), 1e-3),
        "boundaries.base_capacity.calls": first_calls.get("boundaries.base_capacity", 0),
        "boundaries.base_capacity.us_per_call": ratio(
            total("boundaries.base_capacity"), calls("boundaries.base_capacity"), 1e-3),
        "values.B.calls": first_calls.get("values.B", 0),
        "values.B.distinct_args": first["distinct"].get("values.B", 0),
        "values.B.self_s": self_s("values.B"),
        "values.partials.calls": first_calls.get("values.partials", 0),
        "values.partials.us_per_call": ratio(
            total("values.partials"), calls("values.partials"), 1e-3),
        "values.value.calls": first_calls.get("values.value", 0),
    }
    for name in VERIFY_CHECKS:
        out[f"verify.{name}.self_s"] = self_s(f"verify.{name}")
    return out
