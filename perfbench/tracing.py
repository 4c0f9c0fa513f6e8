"""In-memory span tracing around flatwing's public callables.

A `Tracer` rebinds each traced function everywhere the flatwing modules
hold it (so `from .simulator import step` aliases are traced too), wraps
`PiecewiseTrajectory.eval` on the class, and restores every binding on
exit. Each call records one span: name, start, end, parent span and the
operation it belongs to. Counts taken from arguments and results (QP
iterations, problem sizes, replan outcomes) are recorded at the same
boundary, after the span has closed, so they do not inflate its time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# Module of flatwing, function name: the layer boundaries that get a span.
TRACED = {
    "mission": ("run_mission",),
    "simulator": ("step", "attitude_inner_loop", "aero_accels", "solve_alpha",
                  "wind_at"),
    "flatness": ("command_from_flat", "frame_from_flat", "euler_zyx"),
    "planner": ("replan", "plan", "assemble", "build_cost",
                "build_curvature_constraints", "build_derivative_bounds",
                "build_continuity_constraints"),
    "qp": ("solve_qp",),
    "cli": ("bench_planner",),
}
MODULES = ("bernstein", "qp", "planner", "flatness", "simulator", "mission", "cli")


def self_times(spans) -> list:
    """Per-span self time: its duration minus the durations of its children.

    `spans` is a list of (name, start, end, parent, op) tuples where parent
    is the index of the enclosing span or -1. Calls are sequential, so the
    children of a span never overlap and their durations simply add up.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Context manager that traces flatwing calls while it is active."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.op = 0
        self._stack: list = []
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observe_qp(self, args, sol):
        prob = args[0]
        c = self.counts
        c["qp.iterations.sum"] += sol.iterations
        c["qp.polished"] += bool(sol.polished)
        c["qp.not_solved"] += sol.status != "solved"
        mx = self.maxima
        mx["qp.iterations.max"] = max(mx["qp.iterations.max"], sol.iterations)
        if prob.n > mx["qp.n"]:
            mx["qp.n"] = prob.n
            mx["qp.m"] = prob.m
            mx["qp.A.nnz"] = float(np.count_nonzero(prob.A))

    def _observe_replan(self, args, res):
        self.counts["planner.replan.rejected"] += not res.ok

    def _observe_mission(self, args, res):
        self.counts["mission.run_mission.ticks"] += len(res.log.rows)

    # -- installing ----------------------------------------------------------

    def __enter__(self):
        mods = [importlib.import_module(f"flatwing.{m}") for m in MODULES]
        mods.append(importlib.import_module("flatwing"))
        observers = {
            "qp.solve_qp": self._observe_qp,
            "planner.replan": self._observe_replan,
            "mission.run_mission": self._observe_mission,
        }
        for module, names in TRACED.items():
            home = importlib.import_module(f"flatwing.{module}")
            for fname in names:
                orig = getattr(home, fname)
                name = f"{module}.{fname}"
                wrapped = self._wrap(name, orig, observers.get(name))
                # Rebind every alias of the same function object.
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        bern = importlib.import_module("flatwing.bernstein")
        cls = bern.PiecewiseTrajectory
        orig_eval = cls.__dict__["eval"]
        self._restore.append((cls, "eval", orig_eval))
        cls.eval = self._wrap("bernstein.eval", orig_eval)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    # -- reporting -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over all spans."""
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), own in zip(self.spans, self_times(self.spans)):
            tot = totals[name]
            tot[0] += 1
            tot[1] += end - start
            tot[2] += own
        return dict(totals)

    def write(self, path) -> None:
        """Write every span as CSV: op, index, parent, name, start/end in us."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op,index,parent,name,start_us,end_us\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{i},{parent},{name},"
                         f"{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f}\n")
