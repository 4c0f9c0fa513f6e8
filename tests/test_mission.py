import io
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from flatwing import flatness as fl
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
    assert isinstance(plan, ms.MissionPlan)  # the origin line is accepted and ignored


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
    with pytest.raises(ms.MissionFormatError, match="line 3.*malformed loiter"):
        ms.parse_mission(head + "loiter 0 0 60 45 ccw 0 7 junk\nloiter 300 0 60 45 ccw 0\n")
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            ms.Loiter(np.zeros(3), bad)
        with pytest.raises(ValueError, match="cruise_speed"):
            ms.MissionPlan(bad, loiters, [ms.Leg(np.zeros((0, 3)))])


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


MISSION_LINES = ["version 1", "cruise_speed 14", "origin 47.6 -122.3 0",
                 "loiter 0 0 60 45 ccw 0", "waypoint 150 40 60",
                 "loiter 300 80 60 45 cw 2"]


@pytest.mark.parametrize("line, new, message", [
    (1, "cruise_speed nan", "line 2: malformed cruise_speed line .*non-finite"),
    (1, "cruise_speed inf", "line 2: malformed cruise_speed line .*non-finite"),
    (1, "cruise_speed 0", "line 2: cruise_speed must be positive"),
    (1, "cruise_speed -3", "line 2: cruise_speed must be positive"),
    (2, "origin nan 0 0", "line 3: malformed origin line .*non-finite"),
    (3, "loiter 0 0 60 nan ccw 0", "line 4: malformed loiter line .*non-finite"),
    (3, "loiter 0 -inf 60 45 ccw 0", "line 4: malformed loiter line .*non-finite"),
    (3, "loiter 0 0 60 1e400 ccw 0", "line 4: malformed loiter line .*non-finite"),
    (3, "loiter 0 0 60 45 ccw 1.5", "line 4: malformed loiter line"),
    (3, "loiter 0 0 60 45 ccw 999999999999", "line 4: loiter laps must be at most 1000"),
    (4, "waypoint 150 nan 60", "line 5: malformed waypoint line .*non-finite"),
    (3, "loiter 0 0 20000 45 ccw 0",
     r"line 4: altitude 20000 m outside supported range \[-500, 10000\]"),
    (3, "loiter 0 0 10020 45 ccw 0", "line 4: altitude 10020 m outside"),
    (4, "waypoint 150 40 -600", "line 5: altitude -600 m outside"),
], ids=['cruise-nan', 'cruise-inf', 'cruise-zero', 'cruise-negative', 'origin-nan', 'radius-nan', 'center-inf', 'radius-overflow', 'laps-fraction', 'laps-huge', 'waypoint-nan',
        'loiter-altitude-high', 'loiter-altitude-just-high', 'waypoint-altitude-low'])
def test_parse_mission_rejects_non_finite_and_out_of_range_numbers(line, new, message):
    lines = list(MISSION_LINES)
    assert ms.parse_mission("\n".join(lines)).cruise_speed == 14.0
    lines[line] = new
    with pytest.raises(ms.MissionFormatError, match=message):
        ms.parse_mission("\n".join(lines))


def test_parse_mission_names_the_line_of_a_stray_waypoint():
    text = "\n".join(MISSION_LINES + ["", "waypoint 1 2 3", "waypoint 4 5 6"])
    with pytest.raises(ms.MissionFormatError, match="line 8: waypoints after the final"):
        ms.parse_mission(text)


@pytest.mark.parametrize("text, message", [
    ("mass nan\n", "line 1: bad number 'nan'"),
    ("wind_east 1\ngust_period inf\n", "line 2: bad number 'inf'"),
    ("tau_att -inf\n", "line 1: bad number '-inf'"),
    ("c_d0 1e999\n", "line 1: bad number '1e999'"),
    ("seed inf\n", "line 1: bad number 'inf'"),
    ("seed 1.5\n", "line 1: seed must be a non-negative integer"),
    ("mass 1\nseed -2\n", "line 2: seed must be a non-negative integer"),
], ids=['mass-nan', 'gust-period-inf', 'tau-att-inf', 'c-d0-overflow', 'seed-inf', 'seed-fraction', 'seed-negative'])
def test_parse_params_rejects_non_finite_numbers_and_bad_seeds(text, message):
    with pytest.raises(ms.MissionFormatError, match=message):
        ms.parse_params(text)


# Mission-wide errors that concern no single line.
WHOLE_FILE_ERRORS = ("missing cruise_speed directive", "mission needs at least two loiters")
FUZZ_KEYS = ["version", "cruise_speed", "origin", "loiter", "waypoint", "circle",
             "mass", "seed", "gust_period", "wind_east", "tau_att"]
FUZZ_VALUES = ["0", "1", "-1", "2", "14", "45", "300", "0.5", "1.5", "1e400", "-1e400",
               "nan", "inf", "-inf", "1_0", "9" * 30, "x", "ccw", "cw", "#"]


def _fuzz_text(data, base) -> str:
    """`base` with a few tokens or lines replaced, inserted or deleted."""
    lines = list(base)
    line = st.tuples(st.sampled_from(FUZZ_KEYS),
                     st.lists(st.sampled_from(FUZZ_VALUES), max_size=7))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(lines)))
        key, values = data.draw(line)
        op = data.draw(st.sampled_from(["token", "line", "insert", "delete"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, " ".join([key, *values]))
        elif op == "token":
            words = lines[i].split()
            words[data.draw(st.integers(0, len(words) - 1))] = values[0] if values else key
            lines[i] = " ".join(words)
        elif op == "line":
            lines[i] = " ".join([key, *values])
        else:
            del lines[i]
        if not lines:
            break
    return "\n".join(lines)


def _assert_names_a_line(exc, text):
    m = re.match(r"line (\d+): ", str(exc))
    if m is None:
        assert str(exc) in WHOLE_FILE_ERRORS, f"error names no line: {exc}"
    else:
        assert 1 <= int(m.group(1)) <= max(1, len(text.splitlines()))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_mission_fuzz_parses_or_names_a_line(data):
    text = _fuzz_text(data, MISSION_LINES)
    try:
        plan = ms.parse_mission(text)
    except ms.MissionFormatError as exc:
        _assert_names_a_line(exc, text)
    else:
        assert np.isfinite(plan.cruise_speed) and plan.cruise_speed > 0
        for lo in plan.loiters:
            assert np.isfinite(lo.center).all() and np.isfinite(lo.radius)
        for leg in plan.legs:
            assert np.isfinite(leg.waypoints).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_params_fuzz_parses_or_names_a_line(data):
    text = _fuzz_text(data, ["mass 1.25", "wind_east 2", "seed 7", "gust_period 60"])
    try:
        params = ms.parse_params(text)
    except ms.MissionFormatError as exc:
        _assert_names_a_line(exc, text)
    else:
        assert all(math.isfinite(v) for v in params.values())
        assert float(params.get("seed", 0)).is_integer()


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
        ms.MissionConfig(replan_period=0.013)
    with pytest.raises(ValueError, match="tau_att"):
        ms.MissionConfig(tau_att=-0.1)
    # The tick, the handoff budget and the leg-end freeze are fixed.
    for name in ("dt", "handoff_budget", "leg_freeze"):
        with pytest.raises(TypeError):
            ms.MissionConfig(**{name: 0.02})
    assert [f.name for f in fields(ms.MissionConfig)] == ["replan_period", "tau_att"]
    assert ms.MissionConfig().handoff_budget == 0.05


# ---------------------------------------------------------------- geometry


def test_loiter_reference_stays_on_circle():
    lo = ms.Loiter(np.array([10.0, -5.0, 60.0]), 45.0)
    for t in np.linspace(0.0, 30.0, 50):
        ref = ms.loiter_reference(lo, V, t)
        assert np.hypot(*np.subtract(ref.position[:2], lo.center[:2])) == pytest.approx(
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
        # Rows 0-3: position, velocity, acceleration, jerk.
        plus = np.array(ms.loiter_reference(lo, V, t + h))
        minus = np.array(ms.loiter_reference(lo, V, t - h))
        mid = np.array(ms.loiter_reference(lo, V, t))
        assert np.abs((plus[0] - minus[0]) / (2 * h) - mid[1]).max() <= 1e-6
        assert np.abs((plus[1] - minus[1]) / (2 * h) - mid[2]).max() <= 1e-6
        assert np.abs((plus[2] - minus[2]) / (2 * h) - mid[3]).max() <= 1e-6


def test_tangent_handoff_angles_at_double_radius():
    lo = ms.Loiter(np.zeros(3), 45.0, ccw=True)
    target = np.array([90.0, 0.0, 0.0])
    exit_angle, _ = ms.tangent_handoff(lo, target, V, "exit")
    entry_angle, _ = ms.tangent_handoff(lo, target, V, "entry")
    assert exit_angle == pytest.approx(-math.pi / 3.0, abs=1e-12)
    assert entry_angle == pytest.approx(math.pi / 3.0, abs=1e-12)
    # clockwise mirror
    cw = ms.Loiter(np.zeros(3), 45.0, ccw=False)
    assert ms.tangent_handoff(cw, target, V, "exit")[0] == pytest.approx(
        math.pi / 3.0, abs=1e-12
    )


def test_tangent_handoff_geometry_invariants():
    lo = ms.Loiter(np.array([20.0, -10.0, 60.0]), 45.0, ccw=True)
    target = np.array([180.0, 70.0, 60.0])
    for mode in ("exit", "entry"):
        _, st = ms.tangent_handoff(lo, target, V, mode)
        radial = st.position - lo.center
        assert np.hypot(*radial[:2]) == pytest.approx(45.0, abs=1e-9)
        assert abs(float(radial @ st.velocity)) <= 1e-9  # velocity is tangent
        assert np.allclose(st.acceleration, -((V / 45.0) ** 2) * radial, atol=1e-9)
        # the tangent line through the point passes through the target
        chord = target - st.position
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
        log.append(t, ref, st, (0.1 * k, 0.0, 1.57), 1.5, k % 2 - 1, k % 2)
    return log


def test_csv_header_and_formatting():
    log = synthetic_log()
    buf = io.StringIO()
    ms.write_csv(log, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ms.CSV_HEADER
    assert len(lines) == 12
    cells = lines[1].split(",")
    assert len(cells) == 19
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
    m = ms.metrics(synthetic_log(), [], 0.05)
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
    m = ms.metrics(synthetic_log(), ev, 0.05)
    assert m["n_replans"] == 2
    assert m["n_replans_accepted"] == 1
    assert m["qp_iterations_max"] == 50
    assert m["qp_iterations_sum"] == 50
    assert m["t_opt_mean"] == pytest.approx(0.02)
    assert m["t_opt_max"] == pytest.approx(0.03)
    with pytest.raises(ValueError):
        ms.metrics(ms.SimLog(), [], 0.05)


def test_metrics_count_replans_over_budget():
    ev = [
        ms.ReplanEvent(0.1, 0, "solved", 50, 1.0, 0.01, True),
        ms.ReplanEvent(0.2, 0, "solved", 80, 1.0, 0.05, True),  # at the budget
        ms.ReplanEvent(0.3, 0, "solved", 900, 1.0, 0.0501, True),
        ms.ReplanEvent(0.4, 0, "rejected", 0, 0.0, 0.2, False),
    ]
    m = ms.metrics(synthetic_log(), ev, 0.05)
    assert m["n_replans_over_budget"] == 2
    assert ms.metrics(synthetic_log(), ev[:2], 0.05)["n_replans_over_budget"] == 0
    assert ms.metrics(synthetic_log(), [], 0.05)["n_replans_over_budget"] == 0


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
    assert all(e.accepted == (e.status == "solved") for e in happy_run.events)
    assert any(e.accepted for e in happy_run.events)


def test_mission_roll_stays_moderate(happy_run):
    m = happy_run.metrics
    assert -1.0 < m["roll_min"] < 0.0 < m["roll_max"] < 1.0


def test_mission_aborts_when_loiters_overlap_the_leg():
    text = "version 1\ncruise_speed 14\nloiter 0 0 60 45 ccw 0\nloiter 60 0 60 45 ccw 0\n"
    res = ms.run_mission(ms.parse_mission(text))
    assert res.aborted
    assert res.abort_reason.startswith("leg 0 initial plan failed: ")
    assert "inside" in res.abort_reason
    assert len(res.log.rows) > 0  # partial log survives
    assert res.metrics  # computed from the partial log


def test_mission_aborts_on_a_loiter_whose_tangent_breaks_a_max():
    # 14 m/s on a 25 m circle needs V^2/r = 7.84 m/s^2, above a_max 6, so
    # leg 0 cannot end on loiter 1's tangent; the check names the loiter,
    # the axis and the bound before any QP is built.
    text = "version 1\ncruise_speed 14\nloiter 0 0 50 45 ccw 0\nloiter 300 0 50 25 ccw 0\n"
    plan = ms.parse_mission(text)
    exit_st = ms.tangent_handoff(plan.loiters[0], plan.loiters[1].center, V, "exit")[1]
    entry_st = ms.tangent_handoff(plan.loiters[1], exit_st.position, V, "entry")[1]
    assert np.linalg.norm(entry_st.acceleration) == pytest.approx(14.0**2 / 25.0)
    axis = int(np.flatnonzero(np.abs(entry_st.acceleration) > 6.0)[0])
    res = ms.run_mission(plan)
    assert res.aborted
    assert res.abort_reason == (
        f"leg 0 initial plan failed: loiter 1 tangent acceleration "
        f"{abs(entry_st.acceleration[axis]):.2f} m/s² on {'xyz'[axis]} exceeds a_max 6")
    assert len(res.log.rows) > 0  # loiter 0 flew


def test_bundled_survey_tangents_pass_the_boundary_check():
    survey = Path(__file__).resolve().parents[1] / "missions" / "two_loiter_survey.txt"
    plan = ms.parse_mission(survey.read_text())
    for i in range(len(plan.legs)):
        _, wps, res = ms.plan_leg(plan, i)  # raises on a violation
        for b in (wps.boundary_start, wps.boundary_end):
            assert np.linalg.norm(b.acceleration) == pytest.approx(14.0**2 / 45.0)
        assert res.status == "solved"


def test_a_legs_first_qp_does_not_depend_on_its_start_time():
    # A leg's first plan linearizes its curvature rows about its chords,
    # which no start time enters, so the executive (which plans a leg when
    # it reaches the exit tangent) and `flatwing plan` (from t0 = 0) solve
    # the same QP, bit for bit.
    plan = ms.parse_mission(SURVEY.read_text())
    for i in range(len(plan.legs)):
        first, *rest = (ms.plan_leg(plan, i, t0)[2].problem for t0 in (0.0, 37.3, 1234.567))
        for prob in rest:
            for name in ("Q", "q", "A", "l", "u"):
                got, want = getattr(prob, name), getattr(first, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (i, name)


def test_mission_aborts_before_the_first_tick_on_a_waypoint_inside_loiter_0():
    text = ("version 1\ncruise_speed 14\nloiter 0 0 50 45 ccw 0\nwaypoint 10 5 50\n"
            "loiter 300 0 50 45 ccw 0\n")
    res = ms.run_mission(ms.parse_mission(text))
    assert res.aborted
    assert res.abort_reason.startswith("loiter 0 ")
    assert "inside" in res.abort_reason
    assert res.log.rows == [] and res.metrics == {}


def test_mission_aborts_at_tick_0_on_an_altitude_out_of_range():
    # parse_mission refuses this altitude; a plan built directly reaches the
    # trim at t=0, which refuses it before the first tick is logged.
    plan = ms.MissionPlan(V, [ms.Loiter((0, 0, 20000), 45.0), ms.Loiter((300, 0, 20000), 45.0)],
                          [ms.Leg(np.empty((0, 3)))])
    res = ms.run_mission(plan)
    assert res.aborted
    assert res.abort_reason.startswith(
        "t=0.00 (tick 0, loiter 0): altitude 20000.0 m outside supported range")
    assert res.log.rows == [] and res.metrics == {}
    buf = io.StringIO()
    ms.write_csv(res.log, buf)
    assert buf.getvalue() == ms.CSV_HEADER + "\n"  # a header-only log


def test_mission_aborts_at_tick_0_on_an_airspeed_too_low_to_fly():
    # At 0.5 m/s in calm air the t=0 airspeed is below V_EPS, where the
    # flight-path frame is undefined.
    text = ("version 1\ncruise_speed 0.5\nloiter 0 0 50 45 ccw 0\n"
            "loiter 300 0 50 45 ccw 0\n")
    res = ms.run_mission(ms.parse_mission(text))
    assert res.aborted
    assert res.abort_reason == "t=0.00 (tick 0, loiter 0): initial airspeed too low"
    assert res.log.rows == [] and res.metrics == {}


def test_mission_aborts_after_a_leg_on_a_waypoint_inside_the_next_loiter():
    # Leg 0 flies; leg 1's first waypoint lies 11 m from loiter 1's center.
    text = ("version 1\ncruise_speed 14\nloiter 0 0 60 45 ccw 0\nloiter 185 0 60 45 ccw 0\n"
            "waypoint 190 10 60\nloiter 400 0 60 45 ccw 0\n")
    res = ms.run_mission(ms.parse_mission(text))
    assert res.aborted
    assert res.abort_reason.startswith("loiter 1 ")
    assert "inside" in res.abort_reason
    assert res.log.rows[-1][17] == 0  # the partial log ends on leg 0
    assert res.metrics


@pytest.mark.parametrize("error", [fl.FlatnessSingularityError, ValueError],
                         ids=["FlatnessSingularityError", "ValueError"])
def test_mission_flies_on_when_a_replan_raises(monkeypatch, error):
    # Every other replan's assembly raises one of the two errors that plan
    # turns into a rejection. Each becomes a rejected event naming the
    # failure, and the current reference is kept. A leg's first plan,
    # which has no previous trajectory, is left alone.
    calls = []
    assemble = ms.planner.assemble

    def flaky_assemble(*args, **kwargs):
        if args[2] is not None:  # plan passes prev_traj positionally
            calls.append(None)
            if len(calls) % 2:
                raise error("replan failed on purpose")
        return assemble(*args, **kwargs)

    monkeypatch.setattr(ms.planner, "assemble", flaky_assemble)
    res = ms.run_mission(ms.parse_mission(HAPPY_MISSION))
    assert not res.aborted
    assert len(res.events) == len(calls) > 2
    raised = res.events[::2]
    assert all(e.status == "rejected: replan failed on purpose" for e in raised)
    assert not any(e.accepted for e in raised)
    assert any(e.accepted for e in res.events[1::2])
    assert res.metrics["rmse_pos"] <= 0.5


@pytest.mark.parametrize("phase", ["leg", "loiter"])
def test_mission_abort_names_its_tick_and_phase(happy_run, monkeypatch, phase):
    leg_id = happy_run.log.columns()[:, 17].astype(int)
    # A tick 37 ticks into the leg, or 5 ticks into the first loiter.
    k = int(np.flatnonzero(leg_id == 0)[0]) + 37 if phase == "leg" else 5
    calls = []

    def failing_step(*args):
        calls.append(None)
        if len(calls) == k + 1:
            raise sim.IntegrationFault("non-finite state after integration step")
        return sim.step(*args)

    monkeypatch.setattr(ms, "step", failing_step)
    res = ms.run_mission(ms.parse_mission(HAPPY_MISSION))
    assert res.aborted
    assert res.abort_reason == (f"t={k * 0.01:.2f} (tick {k}, {phase} 0): "
                                "non-finite state after integration step")
    assert len(res.log.rows) == k + 1  # the failing tick was logged before its step
    assert res.log.rows[k][17] == (0 if phase == "leg" else -1)


def test_tick_is_public_kernels_on_floats(happy_run):
    """The first 300 ticks of HAPPY_MISSION, all on loiter 0, driven by hand
    through the public kernels: each row equals run_mission's bit for bit,
    and step returns x, v and R as Python floats."""
    plan = ms.parse_mission(HAPPY_MISSION)
    params, wind, mcfg, dt = sim.AeroParams(), sim.WindField(), ms.MissionConfig(), 0.01
    loiter, speed = plan.loiters[0], plan.cruise_speed
    ref0 = ms.loiter_reference(loiter, speed, 0.0)
    w0 = sim.wind_at(wind, 0.0)
    v_air0 = np.subtract(ref0.velocity, w0)
    V_a0 = float(np.linalg.norm(v_air0))
    frame0 = fl.frame_from_flat(v_air0, ref0.acceleration)
    alpha0, _ = sim.coordinated_trim(params, V_a0, -frame0.a_vz, ref0.position[2])
    st = sim.AircraftState(ref0.position, tuple((V_a0 * frame0.R[:, 0] + w0).tolist()),
                           tuple(frame0.R.ravel().tolist()), alpha0, V_a0)
    omega_v = (fl.flat_inputs(ref0, frame0)[1], frame0.omega_vy, frame0.omega_vz)
    a_vx, cmd_state = frame0.a_vx, None
    for k in range(300):
        t = k * dt
        ref = ms.loiter_reference(loiter, speed, t)
        w = sim.wind_at(wind, t)
        # Acceleration estimate R (V_a_dot, V_a*omega_z, -V_a*omega_y) from
        # the previous tick's inputs.
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = st.R
        b0, b1, b2 = a_vx - 9.81 * r20, st.V_a * omega_v[2], -st.V_a * omega_v[1]
        a_est = (r00 * b0 + r01 * b1 + r02 * b2, r10 * b0 + r11 * b1 + r12 * b2,
                 r20 * b0 + r21 * b1 + r22 * b2)
        k_dyn = sim.dynamic_accel(params, st.v, w, st.x[2])
        _, a_D = sim.aero_accels(params, k_dyn, st.alpha)
        cmd, cmd_state = fl.command_from_flat(
            ref, st.x, st.v, a_est, params.phi_limit, cmd_state, dt,
            drag_accel=a_D, alpha_est=st.alpha, a_T_max=params.a_T_max,
        )
        st.alpha = sim.solve_alpha(params, st.V_a, st.x[2], cmd.a_T, cmd_state.a_vz)
        euler = fl.euler_zyx(st.R)
        omega_v = sim.attitude_inner_loop(st.R, euler, st.alpha, st.V_a, cmd,
                                          mcfg.tau_att, dt)
        a_L, a_D = sim.aero_accels(params, k_dyn, st.alpha)
        a_vx, _ = sim.input_accels(cmd.a_T, a_D, a_L, st.alpha)
        row = (t, *ref.position, *ref.velocity, *st.x, *st.v, *euler, cmd.a_T, -1, 0)
        assert row == happy_run.log.rows[k], k
        st = sim.step(st, omega_v, a_vx, w, dt)
        assert (len(st.x), len(st.v), len(st.R)) == (3, 3, 9)
        assert all(type(c) is float for c in (*st.x, *st.v, *st.R, st.V_a)), k


@st.composite
def fuzzed_missions(draw):
    """Two small loiters (laps 0) in calm air, with up to two waypoints
    scattered about the chord between them."""
    def num(lo, hi):
        return draw(st.floats(lo, hi))

    heading, dist = num(-math.pi, math.pi), num(150.0, 250.0)
    end = np.array([dist * math.cos(heading), dist * math.sin(heading), num(40.0, 70.0)])
    lines = ["version 1", f"cruise_speed {num(10.0, 16.0):.3f}"]
    loiter = "loiter {:.3f} {:.3f} {:.3f} {:.3f} " + draw(st.sampled_from(["ccw", "cw"]))
    lines.append(loiter.format(0.0, 0.0, 50.0, num(35.0, 60.0)) + " 0")
    count = draw(st.integers(0, 2))
    normal = np.array([-math.sin(heading), math.cos(heading), 0.0])
    for k in range(count):
        p = (k + 1) / (count + 1) * end + num(-40.0, 40.0) * normal
        lines.append("waypoint {:.3f} {:.3f} {:.3f}".format(p[0], p[1], 50.0 + num(-10.0, 10.0)))
    lines.append(loiter.format(*end, num(35.0, 60.0)) + " 0")
    return "\n".join(lines) + "\n"


# Six missions drawn from fuzzed_missions, run as explicit examples only:
# Hypothesis also draws numeric literals from every imported module, so a
# seed alone gives other missions when other modules are loaded. One has
# no waypoints and five have one or two; three fly and three abort by name.
@example(mission="version 1\ncruise_speed 10.000\nloiter 0.000 0.000 50.000 35.000 ccw 0\n"
                 "loiter 150.000 0.000 40.000 35.000 ccw 0\n")
@example(mission="version 1\ncruise_speed 12.930\nloiter 0.000 0.000 50.000 46.650 cw 0\n"
                 "waypoint 16.847 61.954 53.898\nwaypoint -61.720 103.944 46.215\n"
                 "loiter -35.137 167.935 45.524 37.733 cw 0\n")
@example(mission="version 1\ncruise_speed 11.480\nloiter 0.000 0.000 50.000 49.918 ccw 0\n"
                 "waypoint -80.748 15.389 51.071\nloiter -134.587 77.504 55.461 56.031 ccw 0\n")
@example(mission="version 1\ncruise_speed 15.566\nloiter 0.000 0.000 50.000 50.000 cw 0\n"
                 "waypoint -47.213 -52.232 56.681\nwaypoint -92.839 -105.899 59.769\n"
                 "loiter -141.640 -156.696 40.843 60.000 cw 0\n")
@example(mission="version 1\ncruise_speed 12.000\nloiter 0.000 0.000 50.000 55.538 ccw 0\n"
                 "waypoint 82.758 0.000 50.000\nwaypoint 165.515 -0.000 58.319\n"
                 "loiter 248.273 0.000 55.813 47.381 ccw 0\n")
@example(mission="version 1\ncruise_speed 13.938\nloiter 0.000 0.000 50.000 44.599 ccw 0\n"
                 "waypoint -76.649 -0.000 58.581\nloiter -153.297 -0.000 50.000 35.000 ccw 0\n")
@settings(phases=[Phase.explicit], deadline=None)
@given(mission=fuzzed_missions())
def test_fuzzed_missions_return_and_name_every_abort(mission):
    # Whether the mission flies or aborts, run_mission returns, and an abort
    # names its leg, its loiter or its tick.
    res = ms.run_mission(ms.parse_mission(mission))
    if res.aborted:
        assert re.match(r"(leg \d+ |loiter \d+ |t=)", res.abort_reason), res.abort_reason
    else:  # a run that flies keeps its roll within the clamp on the command
        m = res.metrics
        assert max(-m["roll_min"], m["roll_max"]) <= sim.AeroParams().phi_limit


# A descending leg in calm air (its thrust sits at 0 and the aircraft falls
# behind), two loiters 37 m apart in height in calm air, and the bundled
# survey in steady winds along the breeze's north-east direction.
DESCENT_MISSION = ("version 1\ncruise_speed 10.138\nloiter 0 0 50 60 ccw 0\n"
                   "waypoint 1.002 90.202 41.323\nloiter -62.176 154.591 67.437 60 ccw 0\n")
DROP_MISSION = ("version 1\ncruise_speed 12.133\nloiter 98.55 110.60 77.33 73.85 cw 0\n"
                "loiter 268.37 220.07 40.50 51.87 cw 0\n")
SURVEY = Path(__file__).resolve().parents[1] / "missions" / "two_loiter_survey.txt"


@pytest.mark.parametrize("mission, wind, where", [
    (DESCENT_MISSION, 0.0, "t=13.87 (tick 1387, leg 0)"),
    (DROP_MISSION, 0.0, "t=43.69 (tick 4369, loiter 1)"),
    (None, 8.0, "t=71.13 (tick 7113, loiter 2)"),
    (None, 10.0, "t=18.69 (tick 1869, leg 0)"),
], ids=["descent", "drop", "survey-wind-8", "survey-wind-10"])
def test_mission_aborts_when_roll_leaves_phi_limit(mission, wind, where):
    aero, wind_field, mcfg = ms.build_setup({"wind_east": wind / math.sqrt(2.0),
                                             "wind_north": wind / math.sqrt(2.0)})
    plan = ms.parse_mission(mission or SURVEY.read_text())
    res = ms.run_mission(plan, params=aero, wind=wind_field, mcfg=mcfg)
    assert res.aborted
    assert re.fullmatch(re.escape(where) + r": roll -?1\.\d{3} rad beyond phi_limit 1 rad",
                        res.abort_reason), res.abort_reason
    rolls = np.abs(res.log.columns()[:, 13])
    assert rolls[-1] > aero.phi_limit >= rolls[:-1].max()  # the tick that lost it is logged
