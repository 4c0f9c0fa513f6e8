"""Trajectory planning and flatness-based tracking for fixed-wing aircraft.

The pieces compose bottom-up: Bernstein-polynomial trajectories, an ADMM
quadratic-program solver (dense for small problems, CSR for large ones), a
minimum-jerk waypoint planner with linearized curvature bounds,
differential-flatness control maps for coordinated flight, a wind-perturbed
point-mass simulator, and a mission executive that ties them together
behind a small CLI.
"""

from .bernstein import (
    BernsteinSegment,
    DomainError,
    PiecewiseTrajectory,
    arc_length,
    basis_row,
    derivative_map,
    derivative_segment,
    eval_segment,
    gram_matrix,
    read_trajectory,
    write_trajectory,
)
from .qp import (
    IllPosedProblem,
    QpProblem,
    QpSettings,
    QpSolution,
    kkt_residuals,
    solve_qp,
)
from .flatness import (
    CommandedInput,
    ControlConfig,
    CoordinatedFrame,
    FlatState,
    FlatnessSingularityError,
    PathParamState,
    command_from_flat,
    euler_zyx,
    flat_inputs,
    forward_jerk,
    frame_from_flat,
    path_param_inputs,
    tracking_jerk,
)
from .simulator import (
    AeroParams,
    AircraftState,
    IntegrationFault,
    WindField,
    aero_accels,
    air_density,
    attitude_inner_loop,
    coordinated_trim,
    input_accels,
    solve_alpha,
    step,
    wind_at,
)
from .planner import (
    BoundaryState,
    PlanResult,
    PlannerConfig,
    WaypointSequence,
    allocate_times,
    build_cost,
    build_curvature_constraints,
    build_derivative_bounds,
    build_endpoint_constraints,
    build_continuity_constraints,
    curvature,
    plan,
    replan,
)
from .mission import (
    Leg,
    Loiter,
    MissionAbort,
    MissionFormatError,
    MissionPlan,
    MissionResult,
    loiter_reference,
    metrics,
    parse_mission,
    parse_params,
    run_mission,
    tangent_handoff,
    write_csv,
)

__version__ = "0.1.0"
