"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions and methods of the `timegolog` modules
from the outside, at every name a call site looks up: a function imported
with `from .temporal import time_successors` is patched in the importing
module too, and methods are patched on their class.  The package itself
carries no instrumentation.

Spans (name, start, end, parent, instance) are kept in flat arrays while
the traced pass runs and saved when it ends.  A span's self time is its
duration minus the durations of its child spans; the self times of all
spans, plus the self time of the per-instance root spans (time spent in no
wrapped layer), add up to the traced wall time.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPAN, OUTER, COUNT = "span", "outer", "count"

# (module, attribute, kind, metric group).  SPAN records every call; OUTER
# records only calls not nested in another call of the same target, for
# functions that recurse through their module global; COUNT counts
# outermost calls and truthy results without timing them.
TARGETS = (
    ("temporal", "time_successors", SPAN, "temporal.time_successors"),
    ("temporal", "canonical_value_map", SPAN, "temporal.canonical_value_map"),
    ("temporal", "mono_dom_leq", SPAN, "temporal.mono_dom_leq"),
    ("temporal", "canonical_word", COUNT, "temporal.canonical_word"),
    ("ata", "symbol_step", SPAN, "ata.symbol_step"),
    ("ata", "time_step", SPAN, "ata.time_step"),
    ("ata", "ata_from_mtl", SPAN, "ata.ata_from_mtl"),
    ("golog", "progress", SPAN, "golog.progress"),
    ("golog", "program_steps", OUTER, "golog.program_steps"),
    ("golog", "holds", OUTER, "golog.holds"),
    ("golog", "is_final", COUNT, "golog.is_final"),
    ("synthesis", "build_graph", SPAN, "synthesis.build_graph"),
    ("synthesis", "det_successors_exact", SPAN, "synthesis.det_successors_exact"),
    ("synthesis", "canonicalize", SPAN, "synthesis.canonicalize"),
    ("synthesis", "det_leq", SPAN, "synthesis.det_leq"),
    ("synthesis", "replay_path", SPAN, "synthesis.replay_path"),
    ("synthesis", "label_graph", SPAN, "synthesis.label_graph"),
    ("synthesis", "extract_controller", SPAN, "synthesis.extract_controller"),
    ("synthesis", "simulate_controller", SPAN, "synthesis.simulate_controller"),
    ("synthesis", "Problem.progress_fluents", SPAN, "synthesis.Problem"),
    ("synthesis", "Problem.program_steps", SPAN, "synthesis.Problem"),
    ("synthesis", "Problem.is_final", SPAN, "synthesis.Problem"),
    ("synthesis", "Problem.symbol_step", SPAN, "synthesis.Problem"),
    ("synthesis", "Problem.poss", SPAN, "synthesis.Problem"),
    ("mtl", "satisfies", OUTER, "mtl.satisfies"),
    ("timed_automata", "zone_reach", SPAN, "timed_automata.zone_reach"),
    ("timed_automata", "parallel_compose", SPAN, "timed_automata.parallel_compose"),
    ("timed_automata", "Zone.canonicalized", SPAN, "timed_automata.Zone.canonicalized"),
    ("timed_automata", "Zone.extrapolate", SPAN, "timed_automata.Zone.extrapolate"),
    ("timed_automata", "Zone.includes", COUNT, "timed_automata.Zone.includes"),
    ("plantrans", "build_encoding", SPAN, "plantrans.build_encoding"),
    ("plantrans", "enforce_chain", SPAN, "plantrans.enforce_chain"),
    ("plantrans", "validate_transformed", SPAN, "plantrans.validate_transformed"),
    ("parsing", "load_bat", SPAN, "parsing.load"),
    ("parsing", "load_program", SPAN, "parsing.load"),
    ("parsing", "parse_mtl", SPAN, "parsing.load"),
    ("parsing", "load_ta", SPAN, "parsing.load"),
    ("plantrans", "constraints_from_json", SPAN, "parsing.load"),
)

ROOT = "instance"

# Problem cache methods and the call each makes on a miss.
CACHES = {
    "progress": ("synthesis.Problem.progress_fluents", "golog.progress"),
    "steps": ("synthesis.Problem.program_steps", "golog.program_steps"),
    "final": ("synthesis.Problem.is_final", "golog.is_final"),
    "symbol": ("synthesis.Problem.symbol_step", "ata.symbol_step"),
    "poss": ("synthesis.Problem.poss", "golog.holds"),
}

GAUGES = (
    ("synthesis.nodes", "count"),
    ("synthesis.explored", "count"),
    ("synthesis.nodes_bad", "count"),
    ("synthesis.nodes_successful", "count"),
    ("synthesis.nodes_dead", "count"),
    ("synthesis.nodes_inner", "count"),
    ("synthesis.controller_edges", "count"),
    ("synthesis.controller_locations", "count"),
    ("synthesis.sim_trials", "count"),
    ("synthesis.sim_completed", "count"),
    ("timed_automata.dbm_dim_max", "count"),
    ("plantrans.encoding_locations", "count"),
    ("plantrans.encoding_switches", "count"),
    ("plantrans.encoding_clocks", "count"),
)

TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


def _groups(kinds):
    seen = []
    for _, _, kind, group in TARGETS:
        if kind in kinds and group not in seen:
            seen.append(group)
    return seen


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for group in _groups((SPAN, OUTER, COUNT)):
        units[f"{group}.calls"] = "count"
    for group in _groups((SPAN, OUTER)):
        units[f"{group}.self_s"] = "s"
    units["synthesis.det_leq.true_frac"] = "frac"
    units["timed_automata.Zone.includes.true_frac"] = "frac"
    for cache in CACHES:
        units[f"synthesis.cache_hit_frac.{cache}"] = "frac"
    units["synthesis.sim_completed_frac"] = "frac"
    units.update(dict(GAUGES))
    units.update(dict(TRACE_METRICS))
    return units


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers on enter, restores every original on exit."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, package included
        self.names: list = [ROOT]
        self.name_ids = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.instance = -1
        self.counts = Counter()  # (name, parent name) -> outermost calls
        self.truthy = Counter()
        self.gauges = Counter()
        self.patched: list = []  # (owner, attribute, original)

    # --- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.current)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self.current = idx
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self.current = self.span_parent[idx]

    @contextmanager
    def root(self, instance: int):
        """The root span of one instance's decision."""
        self.instance = instance
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _parent_name(self) -> str:
        return self.names[self.span_name[self.current]] if self.current >= 0 else ""

    def _wrap(self, fn, name: str, kind: str, post):
        tracer = self
        nid = self._name_id(name)
        depth = [0]

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                tracer.counts[name, tracer._parent_name()] += 1
                if result:
                    tracer.truthy[name] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                if kind == OUTER and depth[0]:
                    return fn(*args, **kwargs)
                depth[0] += 1
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    depth[0] -= 1
                if result is True:
                    tracer.truthy[name] += 1
                if post is not None:
                    post(tracer.gauges, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            for module, path, kind, _ in TARGETS:
                owner, attr = _resolve(self.modules[module], path)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, f"{module}.{path}", kind, POST.get(path))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                # every module attribute bound to this function object
                for other in self.modules.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------------

    def spans(self) -> dict:
        def copy(values, dtype):
            return np.frombuffer(values, dtype=dtype).copy()

        return {
            "names": np.array(self.names),
            "name": copy(self.span_name, np.int32),
            "parent": copy(self.span_parent, np.int64),
            "instance": copy(self.span_instance, np.int32),
            "start": copy(self.span_start, np.float64),
            "end": copy(self.span_end, np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, **self.spans())

    def metrics(self, untraced_wall_s: float) -> dict:
        spans = self.spans()
        self_s = self_times(spans["parent"], spans["start"], spans["end"])
        names = spans["name"]
        dur = spans["end"] - spans["start"]
        n_names = len(self.names)
        calls_by_name = np.bincount(names, minlength=n_names)
        self_by_name = np.bincount(names, weights=self_s, minlength=n_names)
        out = {name: 0 if unit == "count" else 0.0 for name, unit in metric_units().items()}
        for module, path, kind, group in TARGETS:
            name = f"{module}.{path}"
            if kind == COUNT:
                out[f"{group}.calls"] += sum(
                    n for (callee, _), n in self.counts.items() if callee == name
                )
                continue
            nid = self.name_ids[name]
            out[f"{group}.calls"] += int(calls_by_name[nid])
            out[f"{group}.self_s"] += float(self_by_name[nid])

        def frac(part, whole):
            return part / whole if whole else 0.0

        out["synthesis.det_leq.true_frac"] = frac(
            self.truthy["synthesis.det_leq"], out["synthesis.det_leq.calls"])
        out["timed_automata.Zone.includes.true_frac"] = frac(
            self.truthy["timed_automata.Zone.includes"], out["timed_automata.Zone.includes.calls"])
        parent_names = np.where(spans["parent"] >= 0, names[spans["parent"]], -1)
        for cache, (method, callee) in CACHES.items():
            method_id = self.name_ids[method]
            calls = int(calls_by_name[method_id])
            misses = self.counts[callee, method] + int(np.count_nonzero(
                (names == self.name_ids[callee]) & (parent_names == method_id)))
            out[f"synthesis.cache_hit_frac.{cache}"] = frac(calls - misses, calls)
        for gauge, value in self.gauges.items():
            out[gauge] = value
        out["synthesis.sim_completed_frac"] = frac(
            self.gauges["synthesis.sim_completed"], self.gauges["synthesis.sim_trials"])
        roots = names == 0
        wall = float(dur[roots].sum())
        out["trace.wall_s"] = wall
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall - untraced_wall_s
        out["trace.unattributed_s"] = float(self_s[roots].sum())
        out["trace.spans"] = len(names)
        return out


def self_times(parent, start, end):
    """Duration of each span minus the durations of its direct children
    (spans of one thread nest, so children never overlap)."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def attributed_total(metrics: dict) -> float:
    """Sum of every layer's self time plus the unattributed remainder;
    equals trace.wall_s up to rounding."""
    return sum(v for k, v in metrics.items() if k.endswith(".self_s")) + metrics["trace.unattributed_s"]


# --- result hooks: sizes read off return values -------------------------------------


def _graph(gauges, args, graph):
    gauges["synthesis.nodes"] += len(graph.nodes)
    gauges["synthesis.explored"] += graph.explored
    for node in graph.nodes:
        gauges[f"synthesis.nodes_{node.status}"] += 1


def _controller(gauges, args, controller):
    gauges["synthesis.controller_edges"] += len(controller.edges)
    gauges["synthesis.controller_locations"] += len(controller.locations)


def _simulation(gauges, args, report):
    gauges["synthesis.sim_trials"] += report.trials
    gauges["synthesis.sim_completed"] += report.completed


def _zone_reach(gauges, args, run):
    dim = len(args[0].clocks) + 1
    gauges["timed_automata.dbm_dim_max"] = max(gauges["timed_automata.dbm_dim_max"], dim)


def _encoding(gauges, args, ta):
    gauges["plantrans.encoding_locations"] += len(ta.locations)
    gauges["plantrans.encoding_switches"] += len(ta.switches)
    gauges["plantrans.encoding_clocks"] = max(gauges["plantrans.encoding_clocks"], len(ta.clocks))


POST = {
    "build_graph": _graph,
    "extract_controller": _controller,
    "simulate_controller": _simulation,
    "zone_reach": _zone_reach,
    "build_encoding": _encoding,
}
