"""Spans around calls into fluidq's public functions, recorded from outside.

``Tracer.install`` replaces each listed module attribute with a wrapper
that records a span (name, parent, wall and process-CPU start and end,
plus counts read off the call) and calls the original.  Module code
looks those names up at call time, so the program's own calls go through
the wrappers without any edit to it.  Spans stay in memory until
``Tracer.dump``; ``layer_metrics`` turns a dump into per-layer metrics.
Spans nest on one call stack, so every traced call must run on the main
thread; run.py drops FLUIDQ_THREADS so that compare does not fan out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _count_path_counts(args, result):
    _, diag = result
    return {"windows": len(diag.windows), "picard_iterations": diag.total_iterations}


def _trajectory_counts(args, traj):
    return {"events": len(traj.events), "retained": len(traj.events) + len(traj.records)}


def _prohorov_counts(args, result):
    return {"atoms": max(len(args[0]), len(args[1]))}


# span name -> the (module, attribute) pairs whose calls it records, and the
# counts to read off each call from its positional arguments and result
TRACED = {
    "fluid.solve": ((("fluidq.fluid", "solve"), ("fluidq.cli", "solve")), None),
    "fluid.solve_count_path": ((("fluidq.fluid", "solve_count_path"),), _count_path_counts),
    "fluid.fixed_point_defect": ((("fluidq.fluid", "fixed_point_defect"),), None),
    "fluid.tail_on_grid": ((("fluidq.fluid", "tail_on_grid"),), None),
    "fluid.serialize": ((("fluidq.cli", "solution_to_text"), ("fluidq.cli", "surface_to_text")), None),
    "harness.convergence_experiment": ((("fluidq.cli", "convergence_experiment"),), None),
    "harness.run_scenario_once": (
        (("fluidq.harness", "run_scenario_once"), ("fluidq.cli", "run_scenario_once")),
        _trajectory_counts),
    "harness.discretize_fluid_measure": ((("fluidq.harness", "discretize_fluid_measure"),), None),
    "measures.prohorov": ((("fluidq.harness", "prohorov"), ("fluidq.measures", "prohorov")), _prohorov_counts),
    "simulate.serialize": ((("fluidq.cli", "trajectory_to_text"), ("fluidq.cli", "atomic_to_text")), None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, fn, *args, counts=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span and return its result."""
        stack = self._stack
        record = {"id": len(self.spans), "parent": stack[-1]["id"] if stack else None,
                  "name": name, "counts": {}}
        self.spans.append(record)
        stack.append(record)
        record["cpu0"] = time.process_time()
        record["t0"] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["t1"] = time.monotonic()
            record["cpu1"] = time.process_time()
            stack.pop()
        if counts is not None:
            record["counts"] = counts(args, result)
        return result

    def install(self):
        wrappers = {}  # id of original -> its wrapper, shared by every alias
        for name, (attrs, counts) in TRACED.items():
            for module, attr in attrs:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                if id(original) not in wrappers:

                    def wrapper(*args, _name=name, _fn=original, _counts=counts, **kwargs):
                        return self.span(_name, _fn, *args, counts=_counts, **kwargs)

                    wrappers[id(original)] = functools.wraps(original)(wrapper)
                setattr(mod, attr, wrappers[id(original)])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans, root: str) -> dict:
    """Per-layer sums over the spans below the root span named ``root``."""
    by_id = {s["id"]: s for s in spans}
    roots = {s["id"] for s in spans if s["name"] == root and s["parent"] is None}

    def under_root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["id"] in roots

    mine = [s for s in spans if under_root(s) and s["id"] not in roots]

    def total(name, key="wall"):
        picked = [s for s in mine if s["name"] == name]
        if key == "wall":
            return sum(s["t1"] - s["t0"] for s in picked)
        if key == "cpu":
            return sum(s["cpu1"] - s["cpu0"] for s in picked)
        return sum(s["counts"][key] for s in picked)

    children = {}
    for s in mine:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    compare_self = sum(
        (s["t1"] - s["t0"]) - _covered(children.get(s["id"], []))
        for s in mine if s["name"] == "harness.convergence_experiment"
    )
    run_s = total("harness.run_scenario_once")
    events = total("harness.run_scenario_once", "events")
    prohorov_atoms = [s["counts"]["atoms"] for s in mine if s["name"] == "measures.prohorov"]
    return {
        "fluid.count_path_s": (total("fluid.solve_count_path"), "s"),
        "fluid.windows": (total("fluid.solve_count_path", "windows"), "count"),
        "fluid.picard_iterations": (total("fluid.solve_count_path", "picard_iterations"), "count"),
        "fluid.defect_s": (total("fluid.fixed_point_defect"), "s"),
        "fluid.tail_surface_s": (total("fluid.tail_on_grid"), "s"),
        "fluid.tail_surface_cpu_s": (total("fluid.tail_on_grid", "cpu"), "s"),
        "fluid.serialize_s": (total("fluid.serialize"), "s"),
        "simulate.run_s": (run_s, "s"),
        "simulate.events": (events, "count"),
        "simulate.events_per_s": (events / run_s if run_s > 0 else 0.0, "1/s"),
        "simulate.retained_log_entries": (total("harness.run_scenario_once", "retained"), "count"),
        "simulate.serialize_s": (total("simulate.serialize"), "s"),
        "measures.prohorov_s": (total("measures.prohorov"), "s"),
        "measures.prohorov_calls": (len(prohorov_atoms), "count"),
        "measures.prohorov_atoms_max": (max(prohorov_atoms, default=0), "count"),
        "harness.discretize_s": (total("harness.discretize_fluid_measure"), "s"),
        "harness.compare_self_s": (compare_self, "s"),
    }
