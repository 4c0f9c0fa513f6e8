"""Mission executive: loiter circles stitched to planned transit legs.

A mission alternates loiter circles and waypoint legs. Legs start and end
on tangent points of the adjacent circles so the reference is C^2 across
every switch. The executive runs the control loop at a fixed rate,
replans active legs on a fixed cadence with a fixed handoff budget, and
logs a reproducible CSV: nothing in the loop depends on wall-clock time,
so two runs of the same mission produce byte-identical logs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import planner
from .bernstein import PiecewiseTrajectory
from .flatness import (
    ControlConfig,
    CommandState,
    FlatState,
    FlatnessSingularityError,
    V_EPS,
    command_from_flat,
    euler_zyx,
    flat_inputs,
    frame_from_flat,
)
from .planner import BoundaryState, PlannerConfig, WaypointSequence
from .qp import QpSettings
from .simulator import (
    AeroParams,
    AircraftState,
    IntegrationFault,
    WindField,
    aero_accels,
    attitude_inner_loop,
    coordinated_trim,
    input_accels,
    solve_alpha,
    step,
    wind_at,
)

CSV_HEADER = ("t,ref_x,ref_y,ref_z,ref_vx,ref_vy,ref_vz,"
              "act_x,act_y,act_z,act_vx,act_vy,act_vz,"
              "phi,theta,psi,a_T,leg_id,replan_flag,t_opt")


class MissionFormatError(ValueError):
    """Mission or parameter file rejected; message carries the line number."""


class MissionAbort(RuntimeError):
    """The executive cannot continue (planner failure or lost control)."""


@dataclass
class Loiter:
    center: np.ndarray
    radius: float
    ccw: bool = True
    laps: int = 0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius < 1.0:
            raise ValueError("loiter radius must be at least 1 m")
        if self.laps < 0:
            raise ValueError("laps must be non-negative")


@dataclass
class Leg:
    """Interior waypoints of a transit between two loiters (may be empty)."""

    waypoints: np.ndarray

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float).reshape(-1, 3)


@dataclass
class MissionPlan:
    cruise_speed: float
    loiters: list
    legs: list
    origin: np.ndarray | None = None

    def __post_init__(self):
        if self.cruise_speed <= 0:
            raise ValueError("cruise_speed must be positive")
        if len(self.loiters) < 2:
            raise ValueError("mission needs at least two loiters")
        if len(self.legs) != len(self.loiters) - 1:
            raise ValueError("mission must alternate loiters and legs")


@dataclass
class MissionConfig:
    dt: float = 0.01
    replan_period: float = 0.1
    handoff_budget: float = 0.05
    leg_freeze: float = 1.5  # no replans this close to the leg end
    wp_lead: float = 0.5  # drop waypoints closer than this (seconds) ahead
    tau_att: float = 0.1
    measure_solve_time: bool = False

    def __post_init__(self):
        if not 0.0 < self.dt <= 0.02:
            raise ValueError("dt must lie in (0, 0.02]")
        ticks = self.replan_period / self.dt
        if abs(ticks - round(ticks)) > 1e-9 or round(ticks) < 1:
            raise ValueError("replan_period must be a positive multiple of dt")
        ticks = self.handoff_budget / self.dt
        if abs(ticks - round(ticks)) > 1e-9 or round(ticks) < 1:
            raise ValueError("handoff_budget must be a positive multiple of dt")
        if self.handoff_budget >= self.leg_freeze:
            raise ValueError("handoff_budget must be below leg_freeze")


# ---------------------------------------------------------------------------
# Circle geometry.


@dataclass(frozen=True)
class TangentState:
    point: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    angle: float


def _angular_rate(loiter: Loiter, speed: float) -> float:
    w = speed / loiter.radius
    return w if loiter.ccw else -w


def loiter_reference(loiter: Loiter, speed: float, t: float,
                     phase0: float = 0.0) -> FlatState:
    """Flat reference on the circle, t seconds after passing phase0."""
    if speed <= 0:
        raise ValueError("loiter speed must be positive")
    w = _angular_rate(loiter, speed)
    th = phase0 + w * t
    c, s = math.cos(th), math.sin(th)
    r = loiter.radius
    pos = loiter.center + r * np.array([c, s, 0.0])
    vel = r * w * np.array([-s, c, 0.0])
    acc = -r * w * w * np.array([c, s, 0.0])
    jerk = r * w**3 * np.array([s, -c, 0.0])
    return FlatState(pos, vel, acc, jerk)


def _circle_state(loiter: Loiter, speed: float, angle: float) -> TangentState:
    w = _angular_rate(loiter, speed)
    c, s = math.cos(angle), math.sin(angle)
    r = loiter.radius
    point = loiter.center + r * np.array([c, s, 0.0])
    vel = r * w * np.array([-s, c, 0.0])
    acc = -r * w * w * np.array([c, s, 0.0])
    return TangentState(point, vel, acc, angle)


def tangent_handoff(loiter: Loiter, point, speed: float,
                    mode: str = "exit") -> TangentState:
    """Tangent point of the circle whose tangent line reaches `point`.

    mode 'exit' picks the tangent where travel continues from the circle
    toward the point; 'entry' the one where travel arrives from the point
    onto the circle, in each case respecting the loiter direction.
    """
    if mode not in ("exit", "entry"):
        raise ValueError(f"mode must be 'exit' or 'entry', got {mode!r}")
    d_vec = np.asarray(point, dtype=float)[:2] - loiter.center[:2]
    d = float(np.linalg.norm(d_vec))
    if d <= loiter.radius * (1.0 + 1e-9):
        raise ValueError(
            f"tangent target {d:.2f} m from center lies inside the "
            f"{loiter.radius:.2f} m loiter circle"
        )
    theta_w = math.atan2(d_vec[1], d_vec[0])
    gamma = math.acos(loiter.radius / d)
    if loiter.ccw:
        angle = theta_w - gamma if mode == "exit" else theta_w + gamma
    else:
        angle = theta_w + gamma if mode == "exit" else theta_w - gamma
    return _circle_state(loiter, speed, angle)


def _forward_sweep(delta: float, ccw: bool) -> float:
    """Angle swept travelling from 0 to delta in the loiter direction."""
    if not ccw:
        delta = -delta
    return delta % (2.0 * math.pi)


def loiter_duration(loiter: Loiter, speed: float, phase0: float,
                    exit_angle: float | None) -> float:
    """Time from phase0 to the exit angle, honouring the minimum lap count.

    A final loiter (no exit) flies max(1, laps) full circles.
    """
    w = abs(_angular_rate(loiter, speed))
    if exit_angle is None:
        return max(1, loiter.laps) * 2.0 * math.pi / w
    sweep = _forward_sweep(exit_angle - phase0, loiter.ccw)
    return (loiter.laps * 2.0 * math.pi + sweep) / w


# ---------------------------------------------------------------------------
# Mission and parameter files.


def _tokens(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def parse_mission(text: str) -> MissionPlan:
    """Parse the plain-text mission format (see the bundled example)."""
    cruise = None
    origin = None
    loiters: list = []
    legs: list = []
    pending_wps: list = []
    saw_version = False
    for i, tok in _tokens(text):
        key = tok[0]
        if not saw_version:
            if key != "version" or tok[1:] != ["1"]:
                raise MissionFormatError(f"line {i}: expected 'version 1' first")
            saw_version = True
            continue
        try:
            if key == "cruise_speed":
                (val,) = tok[1:]
                cruise = float(val)
            elif key == "origin":
                lat, lon, alt = map(float, tok[1:])
                origin = np.array([lat, lon, alt])
            elif key == "loiter":
                cx, cy, cz, r = map(float, tok[1:5])
                sense, laps = tok[5], int(tok[6])
                if sense not in ("ccw", "cw"):
                    raise MissionFormatError(
                        f"line {i}: loiter direction must be ccw or cw"
                    )
                if loiters:
                    legs.append(Leg(np.array(pending_wps).reshape(-1, 3)))
                    pending_wps = []
                loiters.append(Loiter(np.array([cx, cy, cz]), r, sense == "ccw", laps))
            elif key == "waypoint":
                x, y, z = map(float, tok[1:])
                if not loiters:
                    raise MissionFormatError(
                        f"line {i}: waypoint before the first loiter"
                    )
                pending_wps.append([x, y, z])
            else:
                raise MissionFormatError(f"line {i}: unknown directive {key!r}")
        except MissionFormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise MissionFormatError(f"line {i}: malformed {key} line ({exc})") from exc
    if not saw_version:
        raise MissionFormatError("line 1: empty mission file")
    if cruise is None:
        raise MissionFormatError("missing cruise_speed directive")
    if pending_wps:
        raise MissionFormatError("waypoints after the final loiter")
    try:
        return MissionPlan(cruise, loiters, legs, origin)
    except ValueError as exc:
        raise MissionFormatError(str(exc)) from exc


_PARAM_KEYS = {
    "mass", "wing_area", "c_l0", "c_l_alpha", "c_d0", "k_induced", "a_l0",
    "thrust_max", "phi_limit", "wind_east", "wind_north", "wind_up",
    "gust_amplitude", "gust_period", "seed", "tau_att",
}


def parse_params(text: str) -> dict:
    """Parse `key value` parameter lines into a dict of floats."""
    out: dict = {}
    for i, tok in _tokens(text):
        if len(tok) != 2:
            raise MissionFormatError(f"line {i}: expected 'key value'")
        key, val = tok
        if key not in _PARAM_KEYS:
            raise MissionFormatError(f"line {i}: unknown parameter {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise MissionFormatError(f"line {i}: bad number {val!r}") from exc
    return out


def build_setup(params: dict):
    """Split a parameter dict into airframe, wind, and attitude settings."""
    aero_keys = {"mass", "wing_area", "c_l0", "c_l_alpha", "c_d0",
                 "k_induced", "a_l0", "thrust_max", "phi_limit"}
    aero = AeroParams(**{k: v for k, v in params.items() if k in aero_keys})
    wind = WindField(
        mean=np.array([params.get("wind_east", 0.0),
                       params.get("wind_north", 0.0),
                       params.get("wind_up", 0.0)]),
        gust_amplitude=params.get("gust_amplitude", 0.0),
        gust_period=params.get("gust_period", 60.0),
        seed=int(params.get("seed", 0)),
    )
    mcfg = MissionConfig(tau_att=params.get("tau_att", 0.1))
    return aero, wind, mcfg


# ---------------------------------------------------------------------------
# Logging, metrics, serialization.


@dataclass
class ReplanEvent:
    t: float
    leg_id: int
    status: str
    iterations: int
    objective: float
    solve_time: float
    accepted: bool


@dataclass
class SimLog:
    rows: list = field(default_factory=list)

    def append(self, t, ref: FlatState, st: AircraftState, euler, a_T,
               leg_id, replan_flag, t_opt):
        self.rows.append((
            t, *ref.position, *ref.velocity, *st.x, *st.v,
            *euler, a_T, leg_id, replan_flag, t_opt,
        ))

    def columns(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)


@dataclass
class MissionResult:
    log: SimLog
    events: list
    metrics: dict
    aborted: bool = False
    abort_reason: str = ""


def write_csv(log: SimLog, dest) -> None:
    if not hasattr(dest, "write"):
        with open(dest, "w") as fh:
            write_csv(log, fh)
        return
    dest.write(CSV_HEADER + "\n")
    for row in log.rows:
        cells = ["%.17g" % v for v in row[:17]]
        cells.append("%d" % row[17])
        cells.append("%d" % row[18])
        cells.append("%.17g" % row[19])
        dest.write(",".join(cells) + "\n")


def metrics(log: SimLog, events=None, handoff_budget: float | None = None) -> dict:
    """Tracking and replanning summary statistics for a finished run.

    With a handoff budget, `n_replans_over_budget` counts the replans whose
    wall-clock solve time exceeded it.
    """
    data = log.columns()
    if data.size == 0:
        raise ValueError("empty log")
    t = data[:, 0]
    err = data[:, 1:4] - data[:, 7:10]
    verr = data[:, 4:7] - data[:, 10:13]
    enorm = np.linalg.norm(err, axis=1)
    speed = np.linalg.norm(data[:, 10:13], axis=1)
    seg = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t)
    out = {
        "t_final": float(t[-1]),
        "rmse_pos": float(np.sqrt(np.mean(enorm**2))),
        "max_pos_error": float(enorm.max()),
        "rmse_vel": float(np.sqrt(np.mean(np.sum(verr**2, axis=1)))),
        "roll_min": float(data[:, 13].min()),
        "roll_max": float(data[:, 13].max()),
        "path_length": float(seg.sum()),
    }
    if events is not None:
        acc = [e for e in events if e.accepted]
        out["n_replans"] = len(events)
        out["n_replans_accepted"] = len(acc)
        if handoff_budget is not None:
            out["n_replans_over_budget"] = sum(e.solve_time > handoff_budget
                                               for e in events)
        out["qp_iterations_max"] = max((e.iterations for e in events), default=0)
        if events:
            topt = [e.solve_time for e in events]
            out["t_opt_mean"] = float(np.mean(topt))
            out["t_opt_max"] = float(np.max(topt))
    return out


def write_summary(metrics_dict: dict, path) -> None:
    with open(path, "w") as fh:
        for key, val in metrics_dict.items():
            if isinstance(val, float):
                fh.write("%s %.9g\n" % (key, val))
            else:
                fh.write("%s %s\n" % (key, val))


# ---------------------------------------------------------------------------
# The executive.


@dataclass
class _LoiterSpan:
    index: int
    loiter: Loiter
    t0: float
    t1: float
    phase0: float


@dataclass
class _LegSpan:
    index: int
    traj: PiecewiseTrajectory
    entry: TangentState
    boundary_end: BoundaryState
    interior: np.ndarray
    wp_times: np.ndarray  # absolute nominal passage times of interior points
    last_qp: object = None
    pending: PiecewiseTrajectory | None = None
    pending_t: float = 0.0


def _leg_waypoints(exit_st: TangentState, interior: np.ndarray,
                   entry_st: TangentState) -> WaypointSequence:
    pts = np.vstack([exit_st.point[None, :], interior.reshape(-1, 3),
                     entry_st.point[None, :]])
    return WaypointSequence(
        pts,
        BoundaryState(exit_st.point, exit_st.velocity, exit_st.acceleration),
        BoundaryState(entry_st.point, entry_st.velocity, entry_st.acceleration),
    )


def run_mission(plan: MissionPlan, params: AeroParams | None = None,
                wind: WindField | None = None,
                ctrl: ControlConfig | None = None,
                pcfg: PlannerConfig | None = None,
                settings: QpSettings | None = None,
                mcfg: MissionConfig | None = None) -> MissionResult:
    """Fly the mission closed-loop and return the log, events, and metrics."""
    params = params or AeroParams()
    wind = wind or WindField()
    ctrl = ctrl or ControlConfig(phi_limit=params.phi_limit)
    pcfg = pcfg or PlannerConfig(cruise_speed=plan.cruise_speed)
    settings = settings or QpSettings()
    mcfg = mcfg or MissionConfig()
    if abs(pcfg.cruise_speed - plan.cruise_speed) > 1e-9:
        raise ValueError("planner cruise_speed disagrees with the mission")

    V = plan.cruise_speed
    dt = mcfg.dt
    replan_ticks = round(mcfg.replan_period / dt)
    n_legs = len(plan.legs)
    log = SimLog()
    events: list = []

    def make_loiter_span(i: int, t0: float, phase0: float):
        loiter = plan.loiters[i]
        if i < n_legs:
            interior = plan.legs[i].waypoints
            anchor = interior[0] if len(interior) else plan.loiters[i + 1].center
            exit_st = tangent_handoff(loiter, anchor, V, "exit")
            t1 = t0 + loiter_duration(loiter, V, phase0, exit_st.angle)
            return _LoiterSpan(i, loiter, t0, t1, phase0), exit_st
        t1 = t0 + loiter_duration(loiter, V, phase0, None)
        return _LoiterSpan(i, loiter, t0, t1, phase0), None

    def make_leg_span(i: int, t0: float, exit_st: TangentState) -> _LegSpan:
        interior = plan.legs[i].waypoints
        anchor = interior[-1] if len(interior) else exit_st.point
        entry_st = tangent_handoff(plan.loiters[i + 1], anchor, V, "entry")
        wps = _leg_waypoints(exit_st, interior, entry_st)
        res = planner.plan(wps, pcfg, t0=t0, settings=settings)
        if not res.ok:
            raise MissionAbort(f"leg {i} initial plan failed: {res.status}")
        times = t0 + planner.allocate_times(wps, V)
        return _LegSpan(i, res.trajectory, entry_st, wps.boundary_end,
                        interior, times[:-1], last_qp=res.qp_solution)

    # Phase bootstrap: mission starts on the first circle at angle zero.
    span, exit_st = make_loiter_span(0, 0.0, 0.0)
    phase: object = span

    def reference(t: float) -> FlatState:
        if isinstance(phase, _LoiterSpan):
            return loiter_reference(phase.loiter, V, t - phase.t0, phase.phase0)
        return FlatState(*phase.traj.eval(t))

    # Initial state: coordinated trim on the circle against the t=0 wind.
    ref0 = reference(0.0)
    w0 = wind_at(wind, 0.0)
    v_air0 = ref0.velocity - w0
    V_a0 = float(np.linalg.norm(v_air0))
    if V_a0 < V_EPS:
        return MissionResult(log, events, {}, True, "initial airspeed too low")
    frame0 = frame_from_flat(v_air0, ref0.acceleration)
    alpha0, _ = coordinated_trim(params, V_a0, -frame0.a_vz, float(ref0.position[2]))
    st = AircraftState(x=ref0.position.copy(), v=V_a0 * frame0.R[:, 0] + w0,
                       R=frame0.R.copy(), alpha=alpha0, V_a=V_a0)
    omega_vx0 = flat_inputs(ref0, frame0)[1]
    prev_omega = np.array([omega_vx0, frame0.omega_vy, frame0.omega_vz])
    prev_a_vx = frame0.a_vx
    cmd_state: CommandState | None = None

    aborted = False
    abort_reason = ""
    k = 0
    while True:
        t = k * dt

        # Advance phases past boundaries that t has crossed.
        while True:
            if isinstance(phase, _LoiterSpan):
                if t < phase.t1 - 1e-9:
                    break
                if phase.index >= n_legs:
                    # Final loiter finished: mission complete.
                    phase = None
                    break
                try:
                    phase = make_leg_span(phase.index, phase.t1, exit_st)
                except (MissionAbort, ValueError, FlatnessSingularityError) as exc:
                    aborted, abort_reason, phase = True, str(exc), None
                    break
            else:
                if t < phase.traj.t_end - 1e-9:
                    break
                nxt = phase.index + 1
                span, exit_st = make_loiter_span(nxt, phase.traj.t_end,
                                                 phase.entry.angle)
                phase = span
        if phase is None:
            break

        replan_flag = 0
        t_opt = 0.0
        if isinstance(phase, _LegSpan):
            if phase.pending is not None and t >= phase.pending_t - 1e-9:
                phase.traj = phase.pending
                phase.pending = None
            if (phase.pending is None and k % replan_ticks == 0
                    and phase.traj.t_end - t > mcfg.leg_freeze):
                keep = phase.wp_times > t + mcfg.handoff_budget + mcfg.wp_lead
                remaining = np.vstack([phase.interior[keep].reshape(-1, 3),
                                       phase.entry.point[None, :]])
                tic = time.perf_counter()
                res = planner.replan(phase.traj, t, mcfg.handoff_budget,
                                     remaining, pcfg,
                                     boundary_end=phase.boundary_end,
                                     settings=settings, warm=phase.last_qp)
                wall = time.perf_counter() - tic
                replan_flag = 1
                t_opt = wall if mcfg.measure_solve_time else mcfg.handoff_budget
                events.append(ReplanEvent(t, phase.index, res.status,
                                          res.iterations, res.objective,
                                          wall, res.ok))
                if res.ok:
                    phase.pending = res.trajectory
                    phase.pending_t = t + mcfg.handoff_budget
                    phase.last_qp = res.qp_solution

        try:
            ref = reference(t)
            w = wind_at(wind, t)
            # Acceleration estimate from the previously applied inputs.
            vdot = prev_a_vx + (-9.81) * st.R[2, 0]
            a_est = st.R @ np.array([vdot, st.V_a * prev_omega[2],
                                     -st.V_a * prev_omega[1]])
            a_L, a_D = aero_accels(st, params, w)
            cmd, cmd_state = command_from_flat(
                ref, st.x, st.v, a_est, ctrl, cmd_state, dt,
                drag_accel=a_D, alpha_est=st.alpha, a_T_max=params.a_T_max,
            )
            st.alpha = solve_alpha(params, st.V_a, float(st.x[2]), cmd.a_T,
                                   cmd_state.a_vz)
            omega_v = attitude_inner_loop(st, cmd, mcfg.tau_att, dt)
            a_L, a_D = aero_accels(st, params, w)
            a_vx_real, a_vz_real = input_accels(cmd.a_T, a_D, a_L, st.alpha)

            leg_id = phase.index if isinstance(phase, _LegSpan) else -1
            log.append(t, ref, st, euler_zyx(st.R), cmd.a_T, leg_id,
                       replan_flag, t_opt)

            st = step(st, omega_v, a_vx_real, a_vz_real, w, dt)
            prev_omega = omega_v
            prev_a_vx = a_vx_real
        except (FlatnessSingularityError, IntegrationFault, ValueError) as exc:
            aborted = True
            abort_reason = f"t={t:.2f}: {exc}"
            break
        k += 1

    mets = metrics(log, events, mcfg.handoff_budget) if log.rows else {}
    return MissionResult(log, events, mets, aborted, abort_reason)
