import io
import math

import numpy as np
import pytest

from flatwing import mission as ms
from flatwing import simulator as sim

V = 14.0

HAPPY_MISSION = """version 1
cruise_speed 14
loiter 0 0 60 45 ccw 0
loiter 200 0 60 45 ccw 0
"""


@pytest.fixture(scope="module")
def happy_run():
    plan = ms.parse_mission(HAPPY_MISSION)
    return ms.run_mission(plan)


# ---------------------------------------------------------------- parsing


def test_parse_mission_full_file():
    text = """\
# survey pattern
version 1
cruise_speed 14
origin 47.6 -122.3 0
loiter 0 0 60 45 ccw 0

waypoint 150 40 60
loiter 300 80 60 45 cw 2   # hold two laps
"""
    plan = ms.parse_mission(text)
    assert plan.cruise_speed == 14.0
    assert len(plan.loiters) == 2 and len(plan.legs) == 1
    assert plan.loiters[0].ccw and not plan.loiters[1].ccw
    assert plan.loiters[1].laps == 2
    assert np.allclose(plan.legs[0].waypoints, [[150.0, 40.0, 60.0]])
    assert np.allclose(plan.origin, [47.6, -122.3, 0.0])


def test_parse_mission_version_must_come_first():
    with pytest.raises(ms.MissionFormatError, match="line 1.*version 1"):
        ms.parse_mission("cruise_speed 14\nversion 1\n")
    with pytest.raises(ms.MissionFormatError, match="empty"):
        ms.parse_mission("# nothing but comments\n")


def test_parse_mission_rejects_bad_lines():
    head = "version 1\ncruise_speed 14\n"
    with pytest.raises(ms.MissionFormatError, match="line 3.*ccw or cw"):
        ms.parse_mission(head + "loiter 0 0 60 45 sideways 0\n")
    with pytest.raises(ms.MissionFormatError, match="line 3.*before the first loiter"):
        ms.parse_mission(head + "waypoint 1 2 3\n")
    with pytest.raises(ms.MissionFormatError, match="line 3.*unknown directive"):
        ms.parse_mission(head + "circle 0 0 60 45\n")
    with pytest.raises(ms.MissionFormatError, match="line 3.*malformed"):
        ms.parse_mission(head + "loiter 0 0 sixty 45 ccw 0\n")
    with pytest.raises(ms.MissionFormatError, match="after the final loiter"):
        ms.parse_mission(
            head + "loiter 0 0 60 45 ccw 0\nloiter 300 0 60 45 ccw 0\nwaypoint 1 2 3\n"
        )
    with pytest.raises(ms.MissionFormatError, match="cruise_speed"):
        ms.parse_mission("version 1\nloiter 0 0 60 45 ccw 0\nloiter 300 0 60 45 ccw 0\n")
    with pytest.raises(ms.MissionFormatError, match="two loiters"):
        ms.parse_mission(head + "loiter 0 0 60 45 ccw 0\n")


def test_plan_dataclass_validation():
    with pytest.raises(ValueError, match="radius"):
        ms.Loiter(np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="laps"):
        ms.Loiter(np.zeros(3), 45.0, laps=-1)
    loiters = [ms.Loiter(np.zeros(3), 45.0), ms.Loiter(np.array([300.0, 0, 0]), 45.0)]
    with pytest.raises(ValueError, match="alternate"):
        ms.MissionPlan(14.0, loiters, [])
    with pytest.raises(ValueError, match="cruise_speed"):
        ms.MissionPlan(0.0, loiters, [ms.Leg(np.zeros((0, 3)))])


def test_parse_params_whitelist():
    text = "mass 1.25\nwind_east 1.4142135623730951\nseed 7\n"
    out = ms.parse_params(text)
    assert out == {"mass": 1.25, "wind_east": 1.4142135623730951, "seed": 7.0}
    with pytest.raises(ms.MissionFormatError, match="line 1.*unknown parameter"):
        ms.parse_params("lift_slope 4.5\n")
    with pytest.raises(ms.MissionFormatError, match="key value"):
        ms.parse_params("mass 1.2 extra\n")
    with pytest.raises(ms.MissionFormatError, match="bad number"):
        ms.parse_params("mass heavy\n")


def test_build_setup_routes_parameters():
    aero, wind, mcfg = ms.build_setup(
        {"mass": 1.3, "wind_east": 2.0, "wind_north": -1.0, "gust_amplitude": 0.5,
         "seed": 3, "tau_att": 0.2}
    )
    assert aero.mass == 1.3
    assert aero.wing_area == sim.AeroParams().wing_area  # default preserved
    assert np.array_equal(wind.mean, [2.0, -1.0, 0.0])
    assert wind.gust_amplitude == 0.5 and wind.seed == 3
    assert mcfg.tau_att == 0.2


def test_mission_config_validation():
    with pytest.raises(ValueError):
        ms.MissionConfig(dt=0.05)
    with pytest.raises(ValueError):
        ms.MissionConfig(replan_period=0.013)
    with pytest.raises(ValueError):
        ms.MissionConfig(handoff_budget=0.017)
    with pytest.raises(ValueError):
        ms.MissionConfig(handoff_budget=2.0, leg_freeze=1.5)


# ---------------------------------------------------------------- geometry


def test_loiter_reference_stays_on_circle():
    lo = ms.Loiter(np.array([10.0, -5.0, 60.0]), 45.0)
    for t in np.linspace(0.0, 30.0, 50):
        ref = ms.loiter_reference(lo, V, t)
        assert np.hypot(*(ref.position[:2] - lo.center[:2])) == pytest.approx(
            45.0, abs=1e-12
        )
        assert ref.position[2] == 60.0
        assert np.linalg.norm(ref.velocity) == pytest.approx(V, abs=1e-12)
        assert np.linalg.norm(ref.acceleration) == pytest.approx(
            V**2 / 45.0, abs=1e-12
        )


def test_loiter_reference_quarter_turn():
    lo = ms.Loiter(np.zeros(3), 45.0, ccw=True)
    quarter = (math.pi / 2.0) / (V / 45.0)
    ref = ms.loiter_reference(lo, V, quarter)
    assert np.allclose(ref.position, [0.0, 45.0, 0.0], atol=1e-9)
    assert np.allclose(ref.velocity, [-V, 0.0, 0.0], atol=1e-9)
    cw = ms.loiter_reference(ms.Loiter(np.zeros(3), 45.0, ccw=False), V, 0.0)
    assert np.allclose(cw.velocity, [0.0, -V, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        ms.loiter_reference(lo, 0.0, 1.0)


def test_loiter_reference_derivative_consistency():
    lo = ms.Loiter(np.array([3.0, 4.0, 50.0]), 45.0, ccw=False)
    h = 1e-5
    for t in (0.7, 5.3, 11.0):
        plus = ms.loiter_reference(lo, V, t + h)
        minus = ms.loiter_reference(lo, V, t - h)
        mid = ms.loiter_reference(lo, V, t)
        assert np.abs((plus.position - minus.position) / (2 * h) - mid.velocity).max() <= 1e-6
        assert np.abs((plus.velocity - minus.velocity) / (2 * h) - mid.acceleration).max() <= 1e-6
        assert np.abs((plus.acceleration - minus.acceleration) / (2 * h) - mid.jerk).max() <= 1e-6


def test_tangent_handoff_angles_at_double_radius():
    lo = ms.Loiter(np.zeros(3), 45.0, ccw=True)
    target = np.array([90.0, 0.0, 0.0])
    exit_st = ms.tangent_handoff(lo, target, V, "exit")
    entry_st = ms.tangent_handoff(lo, target, V, "entry")
    assert exit_st.angle == pytest.approx(-math.pi / 3.0, abs=1e-12)
    assert entry_st.angle == pytest.approx(math.pi / 3.0, abs=1e-12)
    # clockwise mirror
    cw = ms.Loiter(np.zeros(3), 45.0, ccw=False)
    assert ms.tangent_handoff(cw, target, V, "exit").angle == pytest.approx(
        math.pi / 3.0, abs=1e-12
    )


def test_tangent_handoff_geometry_invariants():
    lo = ms.Loiter(np.array([20.0, -10.0, 60.0]), 45.0, ccw=True)
    target = np.array([180.0, 70.0, 60.0])
    for mode in ("exit", "entry"):
        st = ms.tangent_handoff(lo, target, V, mode)
        radial = st.point - lo.center
        assert np.hypot(*radial[:2]) == pytest.approx(45.0, abs=1e-9)
        assert abs(float(radial @ st.velocity)) <= 1e-9  # velocity is tangent
        assert np.allclose(st.acceleration, -((V / 45.0) ** 2) * radial, atol=1e-9)
        # the tangent line through the point passes through the target
        chord = target - st.point
        cross = chord[0] * st.velocity[1] - chord[1] * st.velocity[0]
        assert abs(cross) / np.linalg.norm(chord) <= 1e-9
        # travel direction: exit moves toward the target, entry arrives from it
        along = float(chord[:2] @ st.velocity[:2])
        assert along > 0 if mode == "exit" else along < 0


def test_tangent_handoff_rejects_interior_target():
    lo = ms.Loiter(np.zeros(3), 45.0)
    with pytest.raises(ValueError, match="inside"):
        ms.tangent_handoff(lo, np.array([10.0, 10.0, 0.0]), V)
    with pytest.raises(ValueError, match="mode"):
        ms.tangent_handoff(lo, np.array([90.0, 0.0, 0.0]), V, mode="depart")


def test_loiter_duration_sweep_and_laps():
    lo = ms.Loiter(np.zeros(3), 45.0, ccw=True)
    w = V / 45.0
    # ccw from angle 0 to -60 degrees sweeps 300 degrees forward
    sweep = ms.loiter_duration(lo, V, 0.0, -math.pi / 3.0)
    assert sweep == pytest.approx((5.0 * math.pi / 3.0) / w, rel=1e-12)
    lapped = ms.Loiter(np.zeros(3), 45.0, ccw=True, laps=2)
    assert ms.loiter_duration(lapped, V, 0.0, -math.pi / 3.0) == pytest.approx(
        sweep + 2 * 2 * math.pi / w, rel=1e-12
    )
    # final loiter with no exit: at least one full lap
    assert ms.loiter_duration(lo, V, 1.234, None) == pytest.approx(
        2 * math.pi / w, rel=1e-12
    )
    cw = ms.Loiter(np.zeros(3), 45.0, ccw=False)
    assert ms.loiter_duration(cw, V, 0.0, -math.pi / 3.0) == pytest.approx(
        (math.pi / 3.0) / w, rel=1e-12
    )


# ---------------------------------------------------------------- logging


def synthetic_log():
    from flatwing.flatness import FlatState

    log = ms.SimLog()
    R = np.eye(3)
    for k in range(11):
        t = 0.01 * k
        ref = FlatState(
            np.array([14.0 * t + 3.0, 4.0, 0.0]),
            np.array([14.0, 0.0, 2.0]),
            np.zeros(3),
            np.zeros(3),
        )
        st = sim.AircraftState(
            x=np.array([14.0 * t, 0.0, 0.0]), v=np.array([14.0, 0.0, 0.0]),
            R=R, alpha=0.0, V_a=14.0,
        )
        log.append(t, ref, st, (0.1 * k, 0.0, 1.57), 1.5, k % 2 - 1, k % 2, 0.05)
    return log


def test_csv_header_and_formatting():
    log = synthetic_log()
    buf = io.StringIO()
    ms.write_csv(log, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ms.CSV_HEADER
    assert len(lines) == 12
    cells = lines[1].split(",")
    assert len(cells) == 20
    assert cells[17] == "-1" and cells[18] == "0"  # integer columns
    # round-trip: every float survives the %.17g format exactly
    for row, line in zip(log.rows, lines[1:]):
        parsed = [float(c) for c in line.split(",")]
        assert parsed == [float(v) for v in row]


def test_csv_writes_to_path(tmp_path):
    log = synthetic_log()
    dest = tmp_path / "log.csv"
    ms.write_csv(log, dest)
    assert dest.read_text().splitlines()[0] == ms.CSV_HEADER


def test_metrics_on_synthetic_log():
    m = ms.metrics(synthetic_log())
    assert m["rmse_pos"] == pytest.approx(5.0, abs=1e-12)  # (3,4,0) offset
    assert m["max_pos_error"] == pytest.approx(5.0, abs=1e-12)
    assert m["rmse_vel"] == pytest.approx(2.0, abs=1e-12)
    assert m["path_length"] == pytest.approx(14.0 * 0.1, rel=1e-12)
    assert m["t_final"] == pytest.approx(0.1)
    assert m["roll_min"] == 0.0 and m["roll_max"] == pytest.approx(1.0)


def test_metrics_event_statistics():
    ev = [
        ms.ReplanEvent(0.1, 0, "solved", 50, 1.0, 0.01, True),
        ms.ReplanEvent(0.2, 0, "rejected", 0, 0.0, 0.03, False),
    ]
    m = ms.metrics(synthetic_log(), ev)
    assert m["n_replans"] == 2
    assert m["n_replans_accepted"] == 1
    assert m["qp_iterations_max"] == 50
    assert m["t_opt_mean"] == pytest.approx(0.02)
    assert m["t_opt_max"] == pytest.approx(0.03)
    with pytest.raises(ValueError):
        ms.metrics(ms.SimLog())


def test_metrics_count_replans_over_budget():
    ev = [
        ms.ReplanEvent(0.1, 0, "solved", 50, 1.0, 0.01, True),
        ms.ReplanEvent(0.2, 0, "solved", 80, 1.0, 0.05, True),  # at the budget
        ms.ReplanEvent(0.3, 0, "solved", 900, 1.0, 0.0501, True),
        ms.ReplanEvent(0.4, 0, "rejected", 0, 0.0, 0.2, False),
    ]
    m = ms.metrics(synthetic_log(), ev, handoff_budget=0.05)
    assert m["n_replans_over_budget"] == 2
    assert ms.metrics(synthetic_log(), ev[:2], 0.05)["n_replans_over_budget"] == 0
    assert ms.metrics(synthetic_log(), [], 0.05)["n_replans_over_budget"] == 0
    # without a budget the count is not reported
    assert "n_replans_over_budget" not in ms.metrics(synthetic_log(), ev)


def test_write_summary_round_trip(tmp_path):
    path = tmp_path / "summary.txt"
    ms.write_summary({"rmse_pos": 0.125, "n_replans": 7}, path)
    text = path.read_text()
    assert "rmse_pos 0.125" in text
    assert "n_replans 7" in text


# ---------------------------------------------------------------- executive


def test_mission_completes_without_abort(happy_run):
    assert not happy_run.aborted
    assert happy_run.abort_reason == ""
    assert happy_run.metrics["rmse_pos"] <= 0.5
    assert happy_run.metrics["rmse_vel"] <= 0.5


def test_mission_time_grid_is_uniform(happy_run):
    t = happy_run.log.columns()[:, 0]
    assert t[0] == 0.0
    assert np.allclose(np.diff(t), 0.01, atol=1e-12)


def test_mission_reference_starts_on_first_circle(happy_run):
    row = happy_run.log.columns()[0]
    assert np.allclose(row[1:4], [45.0, 0.0, 60.0], atol=1e-12)
    assert np.allclose(row[4:7], [0.0, 14.0, 0.0], atol=1e-12)


def test_mission_phases_alternate(happy_run):
    data = happy_run.log.columns()
    leg_id = data[:, 17].astype(int)
    assert set(np.unique(leg_id)) == {-1, 0}
    # loiter, then leg, then loiter again
    changes = np.flatnonzero(np.diff(leg_id))
    assert len(changes) == 2
    # replans only happen on the leg
    flags = data[:, 18].astype(int)
    assert flags.sum() == len(happy_run.events)
    assert np.all(leg_id[flags == 1] == 0)


def test_mission_replans_use_fixed_budget(happy_run):
    data = happy_run.log.columns()
    flags = data[:, 18].astype(int)
    t_opt = data[:, 19]
    assert np.all(t_opt[flags == 1] == ms.MissionConfig().handoff_budget)
    assert np.all(t_opt[flags == 0] == 0.0)
    assert all(e.accepted == (e.status == "solved") for e in happy_run.events)
    assert any(e.accepted for e in happy_run.events)


def test_mission_roll_stays_moderate(happy_run):
    m = happy_run.metrics
    assert -1.0 < m["roll_min"] < 0.0 < m["roll_max"] < 1.0


def test_mission_aborts_when_loiters_overlap_the_leg():
    text = "version 1\ncruise_speed 14\nloiter 0 0 60 45 ccw 0\nloiter 60 0 60 45 ccw 0\n"
    res = ms.run_mission(ms.parse_mission(text))
    assert res.aborted
    assert "inside" in res.abort_reason
    assert len(res.log.rows) > 0  # partial log survives
    assert res.metrics  # computed from the partial log


def test_mission_rejects_mismatched_planner_speed():
    from flatwing.planner import PlannerConfig

    plan = ms.parse_mission(HAPPY_MISSION)
    with pytest.raises(ValueError, match="cruise_speed"):
        ms.run_mission(plan, pcfg=PlannerConfig(cruise_speed=10.0))
