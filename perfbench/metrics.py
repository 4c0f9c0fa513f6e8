"""Metric names, units and the arithmetic that turns operations into metrics.

End-to-end metrics go to the JSON of an untraced run and are defined on
every workload. The fuller per-workload report (replan latency percentiles,
budget misses, per-size plan times, failure shares) is printed above the
JSON with its sample counts. Per-layer metrics come from a traced run and
are given per operation: `.s`/`.self_s` are inclusive/exclusive seconds per
operation, `.us` is self time per call, counts are per operation, and
`qp.n`/`qp.m`/`qp.A.*` describe the largest QP solved. The traced run also
measures `peak_alloc_mb`, the tracemalloc peak of one operation, in a pass
of its own because tracemalloc slows a mission about fivefold.
"""

from __future__ import annotations

import re
import statistics

from perfbench.reference import REF_NOMINAL_S

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

END_TO_END = {
    "wall_per_sim_s_adj": "s/s",
    "setup_s": "s",
}

_SIM = ("step", "attitude_inner_loop", "aero_accels", "solve_alpha", "wind_at")
_FLAT = ("command_from_flat", "frame_from_flat", "euler_zyx")
_BUILD = ("build_curvature_constraints", "build_cost", "build_derivative_bounds",
          "build_continuity_constraints")

PER_LAYER = {
    "mission.run_mission.s": "s",
    "mission.run_mission.self_s": "s",
    "mission.run_mission.ticks": "count",
    **{f"simulator.{f}.us": "us" for f in _SIM},
    **{f"flatness.{f}.us": "us" for f in _FLAT},
    "bernstein.eval.calls": "count",
    "bernstein.eval.us": "us",
    "planner.replan.calls": "count",
    "planner.replan.rejected": "count",
    "planner.plan.calls": "count",
    "planner.plan.self_s": "s",
    "planner.assemble.s": "s",
    **{f"planner.{f}.s": "s" for f in _BUILD},
    "qp.solve_qp.calls": "count",
    "qp.solve_qp.s": "s",
    "qp.iterations.sum": "count",
    "qp.iterations.max": "count",
    "qp.polished_frac": "fraction",
    "qp.not_solved": "count",
    "qp.n": "count",
    "qp.m": "count",
    "qp.A.nnz": "count",
    "qp.A_dense_mb": "MB",
    "cli.bench_planner.self_s": "s",
    "peak_alloc_mb": "MiB",
    "trace.overhead_frac": "fraction",
}

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)


def tail_percentile(n_samples: int, min_beyond: int = 10):
    """Highest ladder percentile with at least `min_beyond` samples above it.

    Returns None when even the median leaves fewer than that beyond it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if round(n_samples * (100.0 - p) / 100.0, 6) >= min_beyond:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def wall_per_sim_s(ops) -> float:
    """Median host seconds per second of flight simulated or planned."""
    return statistics.median(op.wall / op.flight_s for op in ops)


def wall_per_sim_s_adj(ops) -> float:
    """Median host seconds per flight second, scaled to one host speed.

    Each operation's time is multiplied by REF_NOMINAL_S over the mean
    reference kernel time sampled while it ran, which cancels the host's
    speed swings (reference.py).
    """
    return statistics.median(op.wall / op.flight_s * REF_NOMINAL_S / op.ref_s
                             for op in ops)


def end_to_end(ops, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    values = {"wall_per_sim_s_adj": wall_per_sim_s_adj(ops), "setup_s": setup_s}
    return {k: metric(values[k], u) for k, u in END_TO_END.items()}


def report(workload: str, ops, budget_s: float):
    """The workload's timed numbers besides setup_s: (name, value, unit, samples)."""
    rows = [
        ("wall_per_sim_s_adj", wall_per_sim_s_adj(ops), "s/s",
         f"median of {len(ops)} operations"),
        ("wall_per_sim_s", wall_per_sim_s(ops), "s/s", f"median of {len(ops)} operations"),
        ("reference_s", statistics.median(op.ref_s for op in ops), "s",
         f"median of {len(ops)} operations"),
    ]
    if workload != "plan_large":
        rows.append(("ticks", ops[0].ticks, "count", "per mission, exact"))
        rows.append(("replans", len(ops[0].replan_s), "count", "per mission, exact"))
    if workload == "survey":
        rows.append(("replan_qp_iterations_sum", ops[0].replan_iterations, "count",
                     "per mission over its replans, exact"))
        lat = [s * 1e3 for op in ops for s in op.replan_s]
        rows.append(("replan_ms_p50", percentile(lat, 50.0), "ms", f"n={len(lat)}"))
        # p97.5 needs 400 samples for 10 beyond it; fewer fall back lower.
        tail = min(tail_percentile(len(lat)) or 50.0, 97.5)
        if tail > 50.0:
            rows.append((f"replan_ms_p{tail:g}", percentile(lat, tail), "ms",
                         f"n={len(lat)}, >=10 beyond"))
        misses = sum(op.budget_misses for op in ops)
        rows.append(("replan_budget_miss_frac", misses / len(lat), "fraction",
                     f"{misses}/{len(lat)} over {budget_s * 1e3:g} ms or rejected"))
    if workload == "plan_large":
        for n in ops[0].plan_s:
            walls = [op.plan_s[n] for op in ops]
            rows.append((f"plan_s_n{n}", statistics.median(walls), "s",
                         f"median of {len(walls)}, best {min(walls):.6g} s"))
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    rows.append(("failed_frac", failed / attempted, "fraction",
                 f"{failed}/{attempted}"))
    return rows


def per_layer(totals: dict, counts: dict, maxima: dict, n_ops: int,
              overhead_frac: float, peak_mib: float) -> dict:
    """Per-layer metrics per operation from a tracer's totals and counts."""

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / n_ops

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / n_ops

    def self_us(name):
        c = calls(name)
        return totals[name][2] / c * 1e6 if c else 0.0

    n_solves = calls("qp.solve_qp")
    v = {
        "mission.run_mission.s": incl_s("mission.run_mission"),
        "mission.run_mission.self_s": self_s("mission.run_mission"),
        "mission.run_mission.ticks": counts.get("mission.run_mission.ticks", 0) / n_ops,
        **{f"simulator.{f}.us": self_us(f"simulator.{f}") for f in _SIM},
        **{f"flatness.{f}.us": self_us(f"flatness.{f}") for f in _FLAT},
        "bernstein.eval.calls": calls("bernstein.eval") / n_ops,
        "bernstein.eval.us": self_us("bernstein.eval"),
        "planner.replan.calls": calls("planner.replan") / n_ops,
        "planner.replan.rejected": counts.get("planner.replan.rejected", 0) / n_ops,
        "planner.plan.calls": calls("planner.plan") / n_ops,
        "planner.plan.self_s": self_s("planner.plan"),
        "planner.assemble.s": incl_s("planner.assemble"),
        **{f"planner.{f}.s": incl_s(f"planner.{f}") for f in _BUILD},
        "qp.solve_qp.calls": n_solves / n_ops,
        "qp.solve_qp.s": incl_s("qp.solve_qp"),
        "qp.iterations.sum": counts.get("qp.iterations.sum", 0) / n_ops,
        "qp.iterations.max": maxima.get("qp.iterations.max", 0),
        "qp.polished_frac": counts.get("qp.polished", 0) / n_solves if n_solves else 0.0,
        "qp.not_solved": counts.get("qp.not_solved", 0) / n_ops,
        "qp.n": maxima.get("qp.n", 0),
        "qp.m": maxima.get("qp.m", 0),
        "qp.A.nnz": maxima.get("qp.A.nnz", 0),
        # Computed, not measured: the dense float64 A of the largest solve.
        "qp.A_dense_mb": maxima.get("qp.n", 0) * maxima.get("qp.m", 0) * 8 / 1e6,
        "cli.bench_planner.self_s": self_s("cli.bench_planner"),
        "peak_alloc_mb": peak_mib,
        "trace.overhead_frac": overhead_frac,
    }
    return {k: metric(float(v[k]), u) for k, u in PER_LAYER.items()}
