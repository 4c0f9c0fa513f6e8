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
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import planner
from .bernstein import PiecewiseTrajectory
from .flatness import (
    GRAVITY,
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
from .simulator import (
    ALTITUDE_RANGE,
    AeroParams,
    AircraftState,
    IntegrationFault,
    WindField,
    aero_accels,
    attitude_inner_loop,
    coordinated_trim,
    dynamic_accel,
    input_accels,
    solve_alpha,
    step,
    wind_at,
)

CSV_HEADER = ("t,ref_x,ref_y,ref_z,ref_vx,ref_vy,ref_vz,"
              "act_x,act_y,act_z,act_vx,act_vy,act_vz,"
              "phi,theta,psi,a_T,leg_id,replan_flag")
# A thousand laps of a 1 km loiter at 14 m/s is five days of flight; a
# larger count is a typo that would keep `simulate` running as long.
MAX_LOITER_LAPS = 1000


class MissionFormatError(ValueError):
    """Mission or parameter file rejected; message carries the line number."""


class MissionAbort(RuntimeError):
    """The executive cannot continue (planner failure or lost control)."""


@dataclass
class Loiter:
    center: tuple  # three floats
    radius: float
    ccw: bool = True
    laps: int = 0

    def __post_init__(self):
        self.center = tuple(map(float, self.center))
        if not 1.0 <= self.radius < math.inf:
            raise ValueError("loiter radius must be at least 1 m and finite")
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

    def __post_init__(self):
        if not 0.0 < self.cruise_speed < math.inf:
            raise ValueError("cruise_speed must be positive and finite")
        if len(self.loiters) < 2:
            raise ValueError("mission needs at least two loiters")
        if len(self.legs) != len(self.loiters) - 1:
            raise ValueError("mission must alternate loiters and legs")


@dataclass
class MissionConfig:
    """The replan cadence and the attitude time constant; the control
    tick, the handoff budget credited to every replan and the leg-end
    freeze are fixed."""

    dt: ClassVar[float] = 0.01
    handoff_budget: ClassVar[float] = 0.05
    leg_freeze: ClassVar[float] = 1.5  # no replans this close to the leg end
    replan_period: float = 0.1
    tau_att: float = 0.1

    def __post_init__(self):
        ticks = self.replan_period / self.dt
        if abs(ticks - round(ticks)) > 1e-9 or round(ticks) < 1:
            raise ValueError("replan_period must be a positive multiple of dt")
        if not self.tau_att > 0:
            raise ValueError("tau_att must be positive")


# ---------------------------------------------------------------------------
# Circle geometry.


def _angular_rate(loiter: Loiter, speed: float) -> float:
    w = speed / loiter.radius
    return w if loiter.ccw else -w


def loiter_reference(loiter: Loiter, speed: float, t: float,
                     phase0: float = 0.0) -> FlatState:
    """Flat reference on the circle, t seconds after passing phase0, as
    tuples of floats."""
    if speed <= 0:
        raise ValueError("loiter speed must be positive")
    w = _angular_rate(loiter, speed)
    th = phase0 + w * t
    c, s = math.cos(th), math.sin(th)
    r = loiter.radius
    cx, cy, cz = loiter.center
    rw, rww, rwww = r * w, -r * w * w, r * w**3
    return FlatState((cx + r * c, cy + r * s, cz), (rw * -s, rw * c, 0.0),
                     (rww * c, rww * s, 0.0), (rwww * s, rwww * -c, 0.0))


def tangent_handoff(loiter: Loiter, point, speed: float,
                    mode: str = "exit") -> tuple:
    """(angle, BoundaryState) of the circle's tangent point whose tangent
    line reaches `point`: its phase on the circle, and its position,
    velocity and acceleration flying the loiter at speed.

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
    on_circle = loiter_reference(loiter, speed, 0.0, angle)
    return angle, BoundaryState(on_circle.position, on_circle.velocity, on_circle.acceleration)


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


def _finite(text: str) -> float:
    """float(text), refusing nan and inf."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"non-finite number {text!r}")
    return val


def _tokens(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def parse_mission(text: str) -> MissionPlan:
    """Parse the plain-text mission format (see the bundled example)."""
    cruise = None
    loiters: list = []
    legs: list = []
    pending_wps: list = []
    first_wp_line = 0
    saw_version = False
    z_lo, z_hi = ALTITUDE_RANGE  # where the simulator's atmosphere holds
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
                cruise = _finite(val)
                if cruise <= 0:
                    raise MissionFormatError(f"line {i}: cruise_speed must be positive")
            elif key == "origin":
                # geodetic origin: checked, not used (coordinates are local)
                _, _, _ = map(_finite, tok[1:])
            elif key == "loiter":
                cx, cy, z, r, sense, laps = tok[1:]
                cx, cy, z, r = map(_finite, (cx, cy, z, r))
                laps = int(laps)
                if laps > MAX_LOITER_LAPS:
                    raise MissionFormatError(
                        f"line {i}: loiter laps must be at most {MAX_LOITER_LAPS}"
                    )
                if sense not in ("ccw", "cw"):
                    raise MissionFormatError(
                        f"line {i}: loiter direction must be ccw or cw"
                    )
                if loiters:
                    legs.append(Leg(pending_wps))
                    pending_wps = []
                loiters.append(Loiter((cx, cy, z), r, sense == "ccw", laps))
            elif key == "waypoint":
                x, y, z = map(_finite, tok[1:])
                if not loiters:
                    raise MissionFormatError(
                        f"line {i}: waypoint before the first loiter"
                    )
                if not pending_wps:
                    first_wp_line = i
                pending_wps.append([x, y, z])
            else:
                raise MissionFormatError(f"line {i}: unknown directive {key!r}")
            if key in ("loiter", "waypoint") and not z_lo <= z <= z_hi:
                raise MissionFormatError(f"line {i}: altitude {z:g} m outside supported "
                                         f"range [{z_lo:g}, {z_hi:g}]")
        except MissionFormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise MissionFormatError(f"line {i}: malformed {key} line ({exc})") from exc
    if not saw_version:
        raise MissionFormatError("line 1: empty mission file")
    if cruise is None:
        raise MissionFormatError("missing cruise_speed directive")
    if pending_wps:
        raise MissionFormatError(f"line {first_wp_line}: waypoints after the final loiter")
    try:
        return MissionPlan(cruise, loiters, legs)
    except ValueError as exc:
        raise MissionFormatError(str(exc)) from exc


_AERO_KEYS = {f.name for f in fields(AeroParams)}
_PARAM_KEYS = _AERO_KEYS | {"wind_east", "wind_north", "wind_up", "gust_amplitude",
                            "gust_period", "seed", "tau_att"}


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
            out[key] = _finite(val)
        except ValueError as exc:
            raise MissionFormatError(f"line {i}: bad number {val!r}") from exc
        if key == "seed" and not (out[key].is_integer() and out[key] >= 0):
            raise MissionFormatError(f"line {i}: seed must be a non-negative integer")
    return out


def build_setup(params: dict):
    """Split a parameter dict into airframe, wind, and attitude settings."""
    aero = AeroParams(**{k: v for k, v in params.items() if k in _AERO_KEYS})
    wind = WindField(
        mean=(params.get("wind_east", 0.0), params.get("wind_north", 0.0),
              params.get("wind_up", 0.0)),
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
               leg_id, replan_flag):
        self.rows.append((t, *ref.position, *ref.velocity, *st.x, *st.v, *euler,
                          a_T, leg_id, replan_flag))

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
        dest.write(",".join(cells) + "\n")


def metrics(log: SimLog, events: list, handoff_budget: float) -> dict:
    """Tracking and replanning summary statistics for a finished run.

    `n_replans_over_budget` counts the replans whose wall-clock solve time
    exceeded the handoff budget.
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
    out["n_replans"] = len(events)
    out["n_replans_accepted"] = sum(e.accepted for e in events)
    out["n_replans_over_budget"] = sum(e.solve_time > handoff_budget for e in events)
    out["qp_iterations_max"] = max((e.iterations for e in events), default=0)
    out["qp_iterations_sum"] = sum(e.iterations for e in events)
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
    wps: WaypointSequence  # as first planned; ends at the entry tangent point
    entry_angle: float  # where the leg joins the next loiter
    wp_times: np.ndarray  # first plan's passage times of interior points
    last_qp: object = None
    pending: PiecewiseTrajectory | None = None  # flown from its t_start


def _exit_state(plan: MissionPlan, i: int) -> tuple:
    """Where leg i leaves loiter i, as `tangent_handoff` gives it: the
    tangent toward its first waypoint."""
    interior = plan.legs[i].waypoints
    anchor = interior[0] if len(interior) else plan.loiters[i + 1].center
    return tangent_handoff(plan.loiters[i], anchor, plan.cruise_speed, "exit")


def plan_leg(plan: MissionPlan, i: int, t0: float = 0.0) -> tuple:
    """Leg i's first plan, from t0: (the angle where it joins loiter i+1,
    its WaypointSequence, the PlanResult). The sequence runs from loiter i's
    exit tangent point through the leg's waypoints to loiter i+1's entry
    tangent point, with the circles' tangent states as boundary states.

    Raises MissionAbort naming the cause for a sequence it cannot build, a
    tangent state beyond the planner's componentwise v_max or a_max (its end
    control points would be too: no plan is feasible, so no QP is built)
    and a leg that `planner.plan` rejects; a solver failure is the result.
    """
    pcfg = PlannerConfig(cruise_speed=plan.cruise_speed)
    try:
        (_, start), interior = _exit_state(plan, i), plan.legs[i].waypoints
        anchor = interior[-1] if len(interior) else start.position
        entry_angle, end = tangent_handoff(plan.loiters[i + 1], anchor, plan.cruise_speed, "entry")
        pts = np.vstack([start.position[None, :], interior, end.position[None, :]])
        wps = WaypointSequence(pts, start, end)
    except ValueError as exc:
        raise MissionAbort(str(exc)) from exc
    for j, bnd in ((i, start), (i + 1, end)):
        for what, vec, name, lim, unit in (
                ("velocity", bnd.velocity, "v_max", pcfg.v_max_vec(), "m/s"),
                ("acceleration", bnd.acceleration, "a_max", pcfg.a_max_vec(), "m/s²")):
            over = np.flatnonzero(np.abs(vec) > lim)
            if over.size:
                a = over[0]
                raise MissionAbort(f"loiter {j} tangent {what} {abs(vec[a]):.2f} {unit} "
                                   f"on {'xyz'[a]} exceeds {name} {lim[a]:g}")
    res = planner.plan(wps, pcfg, t0=t0)
    if res.status.startswith("rejected: "):
        raise MissionAbort(res.status.removeprefix("rejected: "))
    return entry_angle, wps, res


def run_mission(plan: MissionPlan, params: AeroParams | None = None,
                wind: WindField | None = None,
                mcfg: MissionConfig | None = None) -> MissionResult:
    """Fly the mission closed-loop and return the log, events, and metrics."""
    params = params or AeroParams()
    wind = wind or WindField()
    pcfg = PlannerConfig(cruise_speed=plan.cruise_speed)
    mcfg = mcfg or MissionConfig()

    V = plan.cruise_speed
    dt = mcfg.dt
    gz = GRAVITY[2]
    replan_ticks = round(mcfg.replan_period / dt)
    n_legs = len(plan.legs)
    log = SimLog()
    events: list = []

    def make_loiter_span(i: int, t0: float, phase0: float) -> _LoiterSpan:
        loiter = plan.loiters[i]
        try:
            exit_angle = _exit_state(plan, i)[0] if i < n_legs else None
        except ValueError as exc:
            raise MissionAbort(f"loiter {i} exit tangent failed: {exc}") from exc
        t1 = t0 + loiter_duration(loiter, V, phase0, exit_angle)
        return _LoiterSpan(i, loiter, t0, t1, phase0)

    def make_leg_span(i: int, t0: float) -> _LegSpan:
        try:
            entry_angle, wps, res = plan_leg(plan, i, t0)
            if not res.ok:
                raise MissionAbort(res.status)
        except MissionAbort as exc:
            raise MissionAbort(f"leg {i} initial plan failed: {exc}") from exc
        return _LegSpan(i, res.trajectory, wps, entry_angle,
                        res.trajectory.knots[1:-1], last_qp=res.qp_solution)

    # Phase bootstrap: mission starts on the first circle at angle zero.
    try:
        phase: object = make_loiter_span(0, 0.0, 0.0)
    except MissionAbort as exc:
        return MissionResult(log, events, {}, True, str(exc))

    def reference(t: float) -> FlatState:
        if isinstance(phase, _LoiterSpan):
            return loiter_reference(phase.loiter, V, t - phase.t0, phase.phase0)
        return FlatState(*phase.traj.eval(t))

    # Initial state: coordinated trim on the circle against the t=0 wind.
    try:
        ref0 = reference(0.0)
        w0 = wind_at(wind, 0.0)
        v_air0 = np.subtract(ref0.velocity, w0)
        V_a0 = float(np.linalg.norm(v_air0))
        if V_a0 < V_EPS:
            raise MissionAbort("initial airspeed too low")
        frame0 = frame_from_flat(v_air0, ref0.acceleration)
        alpha0, _ = coordinated_trim(params, V_a0, -frame0.a_vz, ref0.position[2])
        omega_vx0 = flat_inputs(ref0, frame0)[1]
    except (FlatnessSingularityError, ValueError, MissionAbort) as exc:
        return MissionResult(log, events, {}, True, f"t=0.00 (tick 0, loiter 0): {exc}")
    st = AircraftState(ref0.position, tuple((V_a0 * frame0.R[:, 0] + w0).tolist()),
                       tuple(frame0.R.ravel().tolist()), alpha0, V_a0)
    prev_omega = (omega_vx0, frame0.omega_vy, frame0.omega_vz)
    prev_a_vx = frame0.a_vx
    cmd_state: CommandState | None = None

    aborted = False
    abort_reason = ""
    k = 0
    while True:
        t = k * dt

        # Advance phases past boundaries that t has crossed.
        try:
            while phase is not None:
                if isinstance(phase, _LoiterSpan):
                    if t < phase.t1 - 1e-9:
                        break
                    # The end of the final loiter completes the mission.
                    phase = (make_leg_span(phase.index, phase.t1)
                             if phase.index < n_legs else None)
                elif t < phase.traj.t_end - 1e-9:
                    break
                else:
                    phase = make_loiter_span(phase.index + 1, phase.traj.t_end,
                                             phase.entry_angle)
        except MissionAbort as exc:
            aborted, abort_reason, phase = True, str(exc), None
        if phase is None:
            break

        replan_flag = 0
        if isinstance(phase, _LegSpan):
            if phase.pending is not None and t >= phase.pending.t_start - 1e-9:
                phase.traj = phase.pending
                phase.pending = None
            if (phase.pending is None and k % replan_ticks == 0
                    and phase.traj.t_end - t > mcfg.leg_freeze):
                keep = phase.wp_times > t + mcfg.handoff_budget + planner.WAYPOINT_LEAD
                remaining = np.vstack([phase.wps.waypoints[1:-1][keep],
                                       phase.wps.waypoints[-1:]])
                tic = time.perf_counter()
                # A failed replan comes back non-ok: the current reference stays.
                res = planner.replan(phase.traj, t, mcfg.handoff_budget, remaining, pcfg,
                                     boundary_end=phase.wps.boundary_end, warm=phase.last_qp)
                wall = time.perf_counter() - tic
                replan_flag = 1
                events.append(ReplanEvent(t, phase.index, res.status,
                                          res.iterations, res.objective,
                                          wall, res.ok))
                if res.ok:
                    phase.pending = res.trajectory
                    phase.last_qp = res.qp_solution

        try:
            ref = reference(t)
            w = wind_at(wind, t)
            # Acceleration estimate from the previously applied inputs:
            # R (V_a_dot, V_a*omega_z, -V_a*omega_y).
            R = st.R
            r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
            _, om_y, om_z = prev_omega
            b0, b1, b2 = prev_a_vx + gz * r20, st.V_a * om_z, -st.V_a * om_y
            a_est = [r00 * b0 + r01 * b1 + r02 * b2,
                     r10 * b0 + r11 * b1 + r12 * b2,
                     r20 * b0 + r21 * b1 + r22 * b2]
            # Airspeed and density, hence k_dyn, hold across the tick; only
            # alpha changes between the two lift/drag evaluations.
            k_dyn = dynamic_accel(params, st.v, w, st.x[2])
            _, a_D = aero_accels(params, k_dyn, st.alpha)
            cmd, cmd_state = command_from_flat(
                ref, st.x, st.v, a_est, params.phi_limit, cmd_state, dt,
                drag_accel=a_D, alpha_est=st.alpha, a_T_max=params.a_T_max,
            )
            st.alpha = solve_alpha(params, st.V_a, st.x[2], cmd.a_T, cmd_state.a_vz)
            euler = euler_zyx(R)
            omega_v = attitude_inner_loop(R, euler, st.alpha, st.V_a, cmd, mcfg.tau_att, dt)
            a_L, a_D = aero_accels(params, k_dyn, st.alpha)
            a_vx_real, _ = input_accels(cmd.a_T, a_D, a_L, st.alpha)

            leg_id = phase.index if isinstance(phase, _LegSpan) else -1
            log.append(t, ref, st, euler, cmd.a_T, leg_id, replan_flag)
            # The bank command is clamped at phi_limit, so a roll beyond it
            # means the attitude loop has lost control.
            if abs(euler[0]) > params.phi_limit:
                raise MissionAbort(f"roll {euler[0]:.3f} rad beyond phi_limit "
                                   f"{params.phi_limit:g} rad")

            st = step(st, omega_v, a_vx_real, w, dt)
            prev_omega = omega_v
            prev_a_vx = a_vx_real
        except (FlatnessSingularityError, IntegrationFault, ValueError,
                MissionAbort) as exc:
            aborted = True
            where = "leg" if isinstance(phase, _LegSpan) else "loiter"
            abort_reason = f"t={t:.2f} (tick {k}, {where} {phase.index}): {exc}"
            break
        k += 1

    mets = metrics(log, events, mcfg.handoff_budget) if log.rows else {}
    return MissionResult(log, events, mets, aborted, abort_reason)
