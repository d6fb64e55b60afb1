"""Spans around the public functions of each satsync layer, taken from outside.

Each wrapper is installed at the attribute its caller resolves at call time:
`PCache` resolves `scheduling.solve_scheduled_are`, the closed-loop field
resolves `protocols.epsilon_of_state`, and so on.  Wrapping only the
defining module would count nothing from callers that imported the name.

Spans are kept in memory as flat arrays (name, parent, start, end); a
layer's self time is its span's duration minus the durations of its direct
children, so nested work is charged once, to the innermost layer.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np


def _targets(satsync):
    """(owner, attribute, span name, post-hook) for every wrapped callable."""
    cli_io, graph, model, protocols = (
        satsync.cli_io, satsync.graph, satsync.model, satsync.protocols)
    riccati, scheduling, sim = satsync.riccati, satsync.scheduling, satsync.sim
    field = protocols.ClosedLoopField
    cache = scheduling.PCache

    def integrate_post(tracer, traj, args, kwargs):
        tracer.counters["sim.steps"] += traj.stats.n_steps
        tracer.counters["sim.rejected"] += traj.stats.n_rejected
        tracer.counters["sim.field_evals"] += traj.stats.n_field_evals

    def csv_post(tracer, _, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.counters["cli_io.csv.bytes"] += os.path.getsize(path)

    def select_post(tracer, report, args, kwargs):
        tracer.counters["scheduling.select.trials"] += len(report.trials)

    return [
        (scheduling, "solve_scheduled_are", "riccati.scheduled", None),
        (riccati, "solve_scheduled_are", "riccati.scheduled", None),
        (cli_io, "solve_scheduled_are", "riccati.scheduled", None),
        (riccati, "solve_lowgain_are", "riccati.lowgain", None),
        (cli_io, "solve_lowgain_are", "riccati.lowgain", None),
        (riccati, "design_observer_gain", "riccati.observer", None),
        (protocols, "design_observer_gain", "riccati.observer", None),
        (protocols, "epsilon_of_state", "scheduling.eps", None),
        (scheduling, "epsilon_of_state", "scheduling.eps", None),
        (cache, "__init__", "scheduling.cache_build", None),
        (cache, "solution", "scheduling.lookup", None),
        (cache, "g", "scheduling.g", None),
        (scheduling, "select_semiglobal_epsilon", "scheduling.select",
         select_post),
        (field, "__call__", "protocols.field", None),
        (field, "control_info", "protocols.control_info", None),
        (sim, "integrate", "sim.integrate", integrate_post),
        (sim, "sync_metrics", "sim.sync_metrics", None),
        (sim, "saturation_events", "sim.saturation_events", None),
        (cli_io, "main", "cli_io.main", None),
        (cli_io, "run_protocol", "cli_io.run_protocol", None),
        (cli_io, "write_trajectory_csv", "cli_io.csv", csv_post),
        (cli_io, "load_scenario", "cli_io.load", None),
        (cli_io, "bundled_scenario", "cli_io.load", None),
        (model, "check_assumption", "model.check_assumption", None),
        (riccati, "check_assumption", "model.check_assumption", None),
        (cli_io, "check_assumption", "model.check_assumption", None),
        (graph.Network, "__post_init__", "graph", None),
        (graph, "laplacian", "graph", None),
        (protocols, "laplacian", "graph", None),
        (graph, "expanded_laplacian", "graph", None),
        (cli_io, "expanded_laplacian", "graph", None),
        (graph, "in_rooted_family", "graph", None),
        (cli_io, "in_rooted_family", "graph", None),
        (graph, "random_rooted_network", "graph", None),
    ]


class Patched:
    """Context manager that swaps attributes for wrappers and restores them."""

    def __init__(self, replacements):
        self._replacements = replacements  # (owner, attr, new value)
        self._saved = []

    def __enter__(self):
        for owner, attr, new in self._replacements:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False


class Tracer:
    """In-memory spans of one traced pass, plus counts read from results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, post=None):
        nid = self._id(name)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[name + ".errors"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return wrapper

    def patches(self, satsync):
        """Patched() installing a span wrapper at every layer target."""
        reps = [
            (owner, attr, self.wrap(owner.__dict__[attr], name, post))
            for owner, attr, name, post in _targets(satsync)
        ]
        return Patched(reps)

    def task(self, fn):
        """Run fn() under a root span; spans of one task descend from it."""
        return self.wrap(fn, "task")()

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.uint16),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self):
        """Per span name: calls and self seconds; plus parent-name counts."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_tot = np.bincount(name, weights=self_s, minlength=k)
        out = {n: (int(calls[i]), float(self_tot[i]))
               for i, n in enumerate(self.names)}

        def under(child_name, parent_name):
            """Spans named child_name whose direct parent is parent_name."""
            if child_name not in self._ids or parent_name not in self._ids:
                return 0
            sel = (name == self._ids[child_name]) & has_parent
            return int(np.count_nonzero(
                name[parent[sel]] == self._ids[parent_name]))

        return out, under

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
