"""Command-line front end: plan a leg, fly a mission, or benchmark the solver.

Exit codes: 0 on success, 1 when planning/simulation fails at runtime,
2 for unusable inputs (bad arguments or malformed files).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import mission as msn
from . import planner, qp
from .bernstein import write_trajectory
from .planner import BoundaryState, PlannerConfig, WaypointSequence
from .qp import dump_problem


# A plan's time and memory grow linearly with its waypoints: 2,048 take
# about 0.35 s on a 2-core Xeon (0.2 s once their shape is cached) and
# 89 MiB of traced allocations at their peak. A larger count is a typo
# that would exhaust memory, not a benchmark.
MAX_BENCH_WAYPOINTS = 4096
BENCH_CRUISE_SPEED = 14.0  # m/s, the benchmark field's boundary speed
# Plans that `flatwing bench` times at each size; it reports their median wall.
_BENCH_REPEATS = 5


def _load_mission(path: str) -> msn.MissionPlan:
    return msn.parse_mission(Path(path).read_text())


def _load_setup(args):
    if not getattr(args, "params", None):
        return msn.build_setup({})
    params = msn.parse_params(Path(args.params).read_text())
    try:
        return msn.build_setup(params)
    except ValueError as exc:  # a value out of its range, e.g. a negative mass
        raise msn.MissionFormatError(f"{args.params}: {exc}") from exc


def _cmd_plan(args) -> int:
    _, _, res = msn.plan_leg(_load_mission(args.mission), 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_qp:
        with open(out / "leg0_qp.txt", "w") as fh:
            dump_problem(res.problem, fh)
    print(res.summary())
    if not res.ok:
        return 1
    write_trajectory(res.trajectory, out / "leg0_trajectory.txt")
    print(f"trajectory written to {out / 'leg0_trajectory.txt'}")
    return 0


def _cmd_simulate(args) -> int:
    plan = _load_mission(args.mission)
    aero, wind, mcfg = _load_setup(args)
    result = msn.run_mission(plan, params=aero, wind=wind, mcfg=mcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    msn.write_csv(result.log, out / "mission_log.csv")
    if result.metrics:
        msn.write_summary(result.metrics, out / "summary.txt")
        for key, val in result.metrics.items():
            print(f"{key} {val:.9g}" if isinstance(val, float) else f"{key} {val}")
    if result.aborted:
        print(f"mission aborted: {result.abort_reason}", file=sys.stderr)
        return 1
    return 0


def waypoint_field(n_waypoints: int, seed: int = 0) -> np.ndarray:
    """Deterministic snaking waypoint field used for solver benchmarks."""
    if n_waypoints < 2:
        raise ValueError("need at least two waypoints")
    rng = np.random.default_rng(seed)
    i = np.arange(n_waypoints)
    pts = np.column_stack([
        60.0 * i,
        35.0 * np.sin(0.8 * i) + rng.uniform(-5.0, 5.0, n_waypoints),
        np.full(n_waypoints, 50.0),
    ])
    return pts


def bench_planner(sizes, seed: int = 0):
    """Solve the benchmark field at each size, entering and leaving it along
    its end chords; returns a list of PlanResults."""
    V = BENCH_CRUISE_SPEED
    pcfg = PlannerConfig(cruise_speed=V)
    results = []
    for n in sizes:
        pts = waypoint_field(n, seed)
        d0, d1 = pts[1] - pts[0], pts[-1] - pts[-2]
        v0, v1 = V * d0 / np.linalg.norm(d0), V * d1 / np.linalg.norm(d1)
        wps = WaypointSequence(pts, BoundaryState(pts[0], v0, np.zeros(3)),
                               BoundaryState(pts[-1], v1, np.zeros(3)))
        results.append(planner.plan(wps, pcfg))
    return results


def linear_fit_r2(x, y):
    """Least-squares line y ~ a*x + b and its coefficient of determination."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise msn.MissionFormatError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if any(s < 2 for s in sizes) or len(sizes) < 2:
        raise msn.MissionFormatError("bench needs at least two sizes, each >= 2")
    if max(sizes) > MAX_BENCH_WAYPOINTS:
        raise msn.MissionFormatError(
            f"--sizes must be at most {MAX_BENCH_WAYPOINTS} waypoints, got {max(sizes)}")
    if args.seed < 0:
        raise msn.MissionFormatError(f"--seed must be a non-negative integer, got {args.seed}")
    bench_planner(sizes[:1], seed=args.seed)  # untimed: pays the first solve's one-time costs
    lines = ["n_waypoints n_vars iterations solve_time status plan_time"]
    results, times = [], []
    for n in sizes:
        walls = []
        for _ in range(_BENCH_REPEATS):
            tic = time.perf_counter()
            (res,) = bench_planner([n], seed=args.seed)
            walls.append(time.perf_counter() - tic)
        results.append(res)
        times.append(float(np.median(walls)))
        lines.append(f"{n} {res.n_vars} {res.iterations} "
                     f"{res.solve_time:.6f} {res.status} {times[-1]:.6f}")
    a, b, r2 = linear_fit_r2(sizes, times)
    lines.append(f"fit_slope_s_per_wp {a:.6g}")
    lines.append(f"fit_intercept_s {b:.6g}")
    lines.append(f"fit_r2 {r2:.6f}")
    # Every solve pins the BLAS pools that qp found to one thread each.
    pools = len(qp._blas_pools())
    lines.append(f"blas_pinning {'active' if pools else 'inactive'} pools {pools}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.txt").write_text(text + "\n")
    return 0 if all(res.ok for res in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatwing",
        description="Bernstein-polynomial trajectory planning and "
                    "flatness-based tracking for fixed-wing aircraft.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan the first transit leg of a mission")
    p.add_argument("--mission", required=True, help="mission file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--dump-qp", action="store_true",
                   help="also write the assembled QP in text form")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="fly a mission closed-loop")
    p.add_argument("--mission", required=True, help="mission file")
    p.add_argument("--params", help="parameter file (airframe and wind)")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="time the planner across problem sizes")
    p.add_argument("--sizes", default="4,8,16,32,64",
                   help="comma-separated waypoint counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="optional output directory")
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (msn.MissionFormatError, OSError) as exc:
        # OSError: a path that is missing, a directory or unreadable.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except msn.MissionAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
