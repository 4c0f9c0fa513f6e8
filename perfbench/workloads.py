"""Seeded inputs, operations and correctness gates for each workload.

Workloads:
  survey      run_mission on the bundled two-loiter survey, replanning at 10 Hz.
  track       the same mission and wind with replanning switched off, so the
              100 Hz control loop and simulator do nearly all the work.
  plan_large  cold cli.bench_planner plans at 64 and 128 waypoints.

Seed 0 flies the bundled files unchanged. Seed k != 0 moves each interior
waypoint up to +-8 m horizontally and adds a 0.5 m/s gust seeded with k.

flatwing is imported from the checkout's src/ (run.py puts it on the path).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from flatwing import cli, planner, qp
from flatwing import mission as msn
from flatwing.planner import BoundaryState, WaypointSequence

WORKLOADS = ("survey", "track", "plan_large")
MISSION_FILE = "missions/two_loiter_survey.txt"
PARAMS_FILE = "missions/breezy_northeast.txt"
WAYPOINT_JITTER_M = 8.0
GUST_MPS = 0.5
# Far beyond the ~80 s mission, so the executive never reaches a replan tick.
TRACK_REPLAN_PERIOD_S = 1000.0
PLAN_SIZES = (64, 128)
BENCH_CRUISE = 14.0  # cli.bench_planner's default cruise speed
PLAN_TOL = 1e-3

# Tracking envelope of test_two_loiter_mission_tracks_through_wind.
RMSE_POS_MAX = 8.0
RMSE_VEL_MAX = 4.0
ROLL_MAX = 0.9
PATH_LENGTH_RANGE = (1000.0, 1250.0)


@dataclass
class Inputs:
    workload: str
    seed: int
    plan: object = None  # flatwing.mission.MissionPlan
    aero: object = None
    wind: object = None
    mcfg: object = None
    sizes: tuple = ()


@dataclass
class Op:
    """What one operation took and produced, minus the bulky outputs."""

    wall: float
    flight_s: float  # seconds of flight simulated (missions) or planned
    digest: str  # SHA-256 of the deterministic output
    failures: list
    attempted: int
    failed: int
    replan_s: list = field(default_factory=list)
    budget_misses: int = 0
    plan_s: dict = field(default_factory=dict)
    ticks: int = 0
    replan_iterations: int = 0
    ref_s: float = 0.0  # reference kernel time around the operation


def mission_texts(root: Path, seed: int):
    """The mission and parameter file contents for a seed."""
    mission = (root / MISSION_FILE).read_text()
    params = (root / PARAMS_FILE).read_text()
    if seed == 0:
        return mission, params
    rng = np.random.default_rng(seed)
    lines = []
    for raw in mission.splitlines():
        tok = raw.split("#", 1)[0].split()
        if tok and tok[0] == "waypoint":
            x, y, z = map(float, tok[1:])
            dx, dy = rng.uniform(-WAYPOINT_JITTER_M, WAYPOINT_JITTER_M, 2).tolist()
            raw = f"waypoint {x + dx!r} {y + dy!r} {z!r}"
        lines.append(raw)
    params += f"gust_amplitude {GUST_MPS!r}\nseed {seed}\n"
    return "\n".join(lines) + "\n", params


def generate(root: Path, workload: str, seed: int) -> Inputs:
    """Build a workload's inputs through flatwing's public parsers."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "plan_large":
        return Inputs(workload, seed, sizes=PLAN_SIZES)
    mission_text, params_text = mission_texts(root, seed)
    plan = msn.parse_mission(mission_text)
    aero, wind, mcfg = msn.build_setup(msn.parse_params(params_text))
    if workload == "track":
        mcfg = dataclasses.replace(mcfg, replan_period=TRACK_REPLAN_PERIOD_S)
    return Inputs(workload, seed, plan, aero, wind, mcfg)


# ---------------------------------------------------------------------------
# Operations: each returns (raw output, wall seconds).


def fly(inp: Inputs):
    tic = time.perf_counter()
    res = msn.run_mission(inp.plan, params=inp.aero, wind=inp.wind, mcfg=inp.mcfg)
    return res, time.perf_counter() - tic


def plan_cold(inp: Inputs):
    out = {}
    total = 0.0
    for n in inp.sizes:
        tic = time.perf_counter()
        (res,) = cli.bench_planner([n], inp.seed)
        wall = time.perf_counter() - tic
        out[n] = (res, wall)
        total += wall
    return out, total


def run_op(inp: Inputs):
    return plan_cold(inp) if inp.workload == "plan_large" else fly(inp)


# ---------------------------------------------------------------------------
# Gates.


def mission_gates(result, replanning: bool) -> list:
    """Violations of the tracking envelope and replan expectations."""
    bad = []
    if result.aborted:
        bad.append(f"mission aborted: {result.abort_reason}")
    m = result.metrics
    if not m:
        return bad + ["mission produced no metrics"]
    if m["rmse_pos"] > RMSE_POS_MAX:
        bad.append(f"rmse_pos {m['rmse_pos']:.4g} > {RMSE_POS_MAX}")
    if m["rmse_vel"] > RMSE_VEL_MAX:
        bad.append(f"rmse_vel {m['rmse_vel']:.4g} > {RMSE_VEL_MAX}")
    roll = max(abs(m["roll_min"]), abs(m["roll_max"]))
    if roll > ROLL_MAX:
        bad.append(f"|roll| {roll:.4g} > {ROLL_MAX}")
    lo, hi = PATH_LENGTH_RANGE
    if not lo <= m["path_length"] <= hi:
        bad.append(f"path_length {m['path_length']:.6g} outside [{lo}, {hi}]")
    rejected = sum(not e.accepted for e in result.events)
    if replanning and (not result.events or rejected):
        bad.append(f"{rejected} of {len(result.events)} replans not accepted")
    if not replanning and result.events:
        bad.append(f"{len(result.events)} replans with replanning switched off")
    return bad


def log_digest(result) -> str:
    buf = io.StringIO()
    msn.write_csv(result.log, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def mission_op(inp: Inputs, result, wall: float) -> Op:
    replanning = inp.workload == "survey"
    budget = inp.mcfg.handoff_budget
    events = result.events
    rejected = sum(not e.accepted for e in events)
    return Op(
        wall=wall,
        flight_s=float(result.metrics.get("t_final", 0.0)),
        digest=log_digest(result),
        failures=mission_gates(result, replanning),
        # survey: every replan plus the mission itself; track: the mission.
        attempted=len(events) + 1,
        failed=rejected + int(result.aborted),
        replan_s=[e.solve_time for e in events],
        budget_misses=sum((not e.accepted) or e.solve_time > budget for e in events),
        ticks=len(result.log.rows),
        replan_iterations=sum(e.iterations for e in events),
    )


def bench_sequence(n: int, seed: int):
    """The waypoint sequence bench_planner solves: field plus tangent boundaries."""
    pts = cli.waypoint_field(n, seed)
    d0 = pts[1] - pts[0]
    d1 = pts[-1] - pts[-2]
    return WaypointSequence(
        pts,
        BoundaryState(pts[0], BENCH_CRUISE * d0 / np.linalg.norm(d0), np.zeros(3)),
        BoundaryState(pts[-1], BENCH_CRUISE * d1 / np.linalg.norm(d1), np.zeros(3)),
    )


def _inf_norm(v) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def plan_gates(res, wps, residuals=True) -> list:
    """Status, KKT residuals against the solver's own tolerance, and waypoints."""
    n = len(wps.waypoints)
    if res.status != "solved" or res.trajectory is None:
        return [f"n={n}: status {res.status}"]
    bad = []
    if residuals:
        pcfg = planner.PlannerConfig(cruise_speed=BENCH_CRUISE)
        prob, _, _ = planner.assemble(wps, pcfg)
        sol = res.qp_solution
        prim, dual = qp.kkt_residuals(prob, sol.x, sol.y)
        s = qp.QpSettings()
        ax = prob.A @ sol.x
        eps_p = s.eps_abs + s.eps_rel * _inf_norm(ax)
        eps_d = s.eps_abs + s.eps_rel * max(_inf_norm(prob.Q @ sol.x),
                                            _inf_norm(prob.A.T @ sol.y), _inf_norm(prob.q))
        if prim > eps_p:
            bad.append(f"n={n}: primal residual {prim:.3g} > {eps_p:.3g}")
        if dual > eps_d:
            bad.append(f"n={n}: dual residual {dual:.3g} > {eps_d:.3g}")
    traj = res.trajectory
    times = traj.t_start + planner.allocate_times(wps, BENCH_CRUISE)
    for i, (t, wp) in enumerate(zip(times[:-1], wps.waypoints[1:-1]), start=1):
        err = float(np.abs(traj.eval(t)[0] - wp).max())
        if err > PLAN_TOL:
            bad.append(f"n={n}: waypoint {i} missed by {err:.3g} m")
    for t, b in ((traj.t_start, wps.boundary_start), (traj.t_end, wps.boundary_end)):
        got = traj.eval(t)[:3]
        want = (b.position, b.velocity, b.acceleration)
        err = max(float(np.abs(g - w).max()) for g, w in zip(got, want))
        if err > PLAN_TOL:
            bad.append(f"n={n}: boundary state at t={t:.3f} off by {err:.3g}")
    return bad


def plan_op(inp: Inputs, out: dict, wall: float, full_check: bool) -> Op:
    digest = hashlib.sha256()
    failures = []
    for n, (res, _) in out.items():
        if res.qp_solution is not None:
            digest.update(res.qp_solution.x.tobytes())
        failures += plan_gates(res, bench_sequence(n, inp.seed), full_check)
    flight = sum(r.trajectory.t_end - r.trajectory.t_start
                 for r, _ in out.values() if r.trajectory is not None)
    return Op(
        wall=wall,
        flight_s=flight,
        digest=digest.hexdigest(),
        failures=failures,
        attempted=len(out),
        failed=sum(r.status != "solved" for r, _ in out.values()),
        plan_s={n: w for n, (_, w) in out.items()},
    )


def summarize(inp: Inputs, out, wall: float, full_check: bool = True) -> Op:
    if inp.workload == "plan_large":
        return plan_op(inp, out, wall, full_check)
    return mission_op(inp, out, wall)
