import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flatwing import cli, planner, qp
from flatwing import mission as msn
from flatwing.bernstein import read_trajectory

MINI_MISSION = """version 1
cruise_speed 14
loiter 0 0 60 45 ccw 0
loiter 200 0 60 45 ccw 0
"""

ABORT_MISSION = """version 1
cruise_speed 14
loiter 0 0 60 45 ccw 0
loiter 60 0 60 45 ccw 0
"""

# The leg climbs straight up between its two waypoints: no planar speed.
VERTICAL_MISSION = """version 1
cruise_speed 14
loiter 0 0 60 45 ccw 0
waypoint 60 90 60
waypoint 60 90 80
loiter 185 265 60 45 ccw 0
"""


@pytest.fixture
def mission_file(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(MINI_MISSION)
    return path


# ---------------------------------------------------------------- plan


def test_plan_command_writes_trajectory(mission_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["plan", "--mission", str(mission_file), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "status=solved" in captured.out
    traj = read_trajectory(out / "leg0_trajectory.txt")
    assert traj.t_start == 0.0
    # the leg starts on the first loiter circle
    p, v, _, _ = traj.eval(traj.t_start)
    assert np.hypot(p[0], p[1]) == pytest.approx(45.0, abs=1e-6)
    assert np.linalg.norm(v) == pytest.approx(14.0, rel=1e-3)


def test_plan_command_dumps_qp(mission_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        ["plan", "--mission", str(mission_file), "--out", str(out), "--dump-qp"]
    )
    assert rc == 0
    lines = (out / "leg0_qp.txt").read_text().splitlines()
    assert lines[0] == "qp v2"
    assert lines[1] == "n 6"
    assert lines[2].startswith("m ")


@pytest.mark.parametrize("dump_qp", [False, True])
def test_plan_command_exits_1_on_a_leg_without_a_solution(tmp_path, capsys, dump_qp):
    # The leg turns 90 degrees onto a 30 m chord timed at cruise speed; no
    # trajectory within v_max and a_max makes that turn, the solver
    # certifies it, and no trajectory is written. The QP that was solved is
    # still dumped.
    path = tmp_path / "infeasible.txt"
    path.write_text("version 1\ncruise_speed 14\nloiter 0 0 50 45 ccw 0\n"
                    "waypoint 100 0 50\nwaypoint 100 30 50\nloiter 300 0 50 45 ccw 0\n")
    out = tmp_path / "o"
    argv = ["plan", "--mission", str(path), "--out", str(out)]
    assert cli.main(argv + ["--dump-qp"] * dump_qp) == 1
    assert capsys.readouterr().out.startswith("status=primal-infeasible-detected ")
    assert not (out / "leg0_trajectory.txt").exists()
    assert (out / "leg0_qp.txt").exists() == dump_qp
    if dump_qp:
        _, wps, _ = msn.plan_leg(msn.parse_mission(path.read_text()), 0)
        buf = io.StringIO()
        qp.dump_problem(planner.assemble(wps, planner.PlannerConfig(cruise_speed=14.0))[0], buf)
        assert (out / "leg0_qp.txt").read_text() == buf.getvalue()


@pytest.mark.parametrize("dump_qp", [False, True])
def test_plan_command_reports_a_singular_leg(tmp_path, capsys, dump_qp):
    path = tmp_path / "vertical.txt"
    path.write_text(VERTICAL_MISSION)
    argv = ["plan", "--mission", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--dump-qp"] * dump_qp) == 1
    assert capsys.readouterr().err == "error: planar speed 0.000 m/s below 1.0 m/s\n"
    assert not (tmp_path / "o").exists()  # the leg was rejected before any output


@pytest.mark.parametrize("dump_qp", [False, True])
def test_plan_command_names_the_tangent_bound_a_loiter_breaks(tmp_path, capsys, dump_qp):
    # 14 m/s on a 25 m circle needs V^2/r = 7.84 m/s^2; its y component at
    # leg 0's exit tangent is above a_max 6, so no plan of the leg exists.
    path = tmp_path / "tight.txt"
    path.write_text("version 1\ncruise_speed 14\nloiter 0 0 50 25 ccw 0\n"
                    "loiter 300 0 50 45 ccw 0\n")
    argv = ["plan", "--mission", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--dump-qp"] * dump_qp) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: loiter 0 tangent acceleration 7.81 m/s² on y "
                            "exceeds a_max 6\n")
    assert captured.out == ""  # no QP was built or solved
    assert not (tmp_path / "o").exists()


def test_plan_command_missing_file(tmp_path, capsys):
    rc = cli.main(["plan", "--mission", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_a_directory_for_an_input_file_is_an_unusable_input(mission_file, tmp_path, capsys):
    # Reading a directory raises IsADirectoryError, not FileNotFoundError.
    for argv in (["plan", "--mission", str(tmp_path)],
                 ["simulate", "--mission", str(mission_file), "--params", str(tmp_path)]):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
    assert not (tmp_path / "o").exists()


def test_plan_command_malformed_mission(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("loiter before version\n")
    rc = cli.main(["plan", "--mission", str(bad)])
    assert rc == 2
    assert "version" in capsys.readouterr().err


# ---------------------------------------------------------------- simulate


def test_simulate_command_writes_log_and_summary(mission_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--mission", str(mission_file), "--out", str(out)])
    assert rc == 0
    lines = (out / "mission_log.csv").read_text().splitlines()
    assert lines[0].startswith("t,ref_x,ref_y,ref_z")
    assert len(lines) > 1000
    summary = (out / "summary.txt").read_text()
    assert "rmse_pos" in summary
    assert "n_replans_over_budget" in summary
    printed = capsys.readouterr().out
    assert "rmse_pos" in printed
    assert "n_replans_over_budget" in printed


def test_simulate_command_aborted_mission(tmp_path, capsys):
    # The abort reason names the leg whose initial plan failed, and why.
    for mission, reason in ((ABORT_MISSION, "inside"),
                            (VERTICAL_MISSION, "planar speed 0.000 m/s below 1.0 m/s")):
        path = tmp_path / "abort.txt"
        path.write_text(mission)
        rc = cli.main(["simulate", "--mission", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("mission aborted: leg 0 initial plan failed: ")
        assert reason in err


def test_simulate_command_aborts_at_tick_0_on_an_altitude_out_of_range(tmp_path, capsys):
    # `plan` and `simulate` both refuse the file at parse time, naming the
    # first loiter's line, and write nothing. (`run_mission` on such a plan
    # built directly aborts at tick 0: see test_mission.)
    path = tmp_path / "high.txt"
    path.write_text("version 1\ncruise_speed 14\nloiter 0 0 20000 45 ccw 0\n"
                    "loiter 300 0 20000 45 ccw 0\n")
    for command in ("plan", "simulate"):
        rc = cli.main([command, "--mission", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 3: altitude 20000 m outside supported range [-500, 10000]\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mission, params, message", [
    (MINI_MISSION.replace("cruise_speed 14", "cruise_speed nan"), "", "line 2"),
    (MINI_MISSION.replace("45 ccw", "nan ccw", 1), "", "line 3"),
    (MINI_MISSION, "seed inf\n", "line 1"),
    (MINI_MISSION, "seed 1.5\n", "line 1: seed"),
    (MINI_MISSION, "mass -1\n", "mass must be strictly positive"),
    (MINI_MISSION, "gust_amplitude 1\ngust_period 0\n", "gust_period must be positive"),
    (MINI_MISSION, "tau_att -1\n", "tau_att must be positive"),
    (MINI_MISSION, "k_induced -0.05\n", "k_induced must be non-negative"),
    (MINI_MISSION, "c_d0 -0.5\n", "c_d0 must be non-negative"),
], ids=['cruise-nan', 'radius-nan', 'seed-inf', 'seed-fraction', 'mass-negative', 'gust-period-zero',
        'tau-att-negative', 'k-induced-negative', 'c-d0-negative'])
def test_simulate_command_rejects_malformed_inputs(tmp_path, capsys, mission, params,
                                                   message):
    mpath = tmp_path / "m.txt"
    mpath.write_text(mission)
    argv = ["simulate", "--mission", str(mpath), "--out", str(tmp_path / "o")]
    if params:
        ppath = tmp_path / "p.txt"
        ppath.write_text(params)
        argv += ["--params", str(ppath)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- bench


def test_bench_command_reports_fit(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--sizes", "4,6", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "n_waypoints n_vars iterations solve_time status" in text
    assert "fit_r2" in text
    pools = len(qp._blas_pools())
    assert f"blas_pinning {'active' if pools else 'inactive'} pools {pools}\n" in text
    assert (out / "bench.txt").read_text().strip().endswith(text.strip().splitlines()[-1])


def test_bench_times_no_first_call_cost(monkeypatch, capsys):
    # A cost that only the process's first solve pays, here a BLAS pool
    # lookup that sleeps, is paid before the timed plans: it would bend the
    # fit, as the first size's solve would take longer than the next's.
    calls = []

    def pools():
        if not calls:
            time.sleep(0.2)
        calls.append(1)
        return ()

    monkeypatch.setattr(qp, "_blas_pools", pools)
    assert cli.main(["bench", "--sizes", "4,6"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("4 ") and float(rows[1].split()[3]) < 0.2
    assert len(calls) > 2


def test_bench_command_rejects_single_size(capsys):
    rc = cli.main(["bench", "--sizes", "8"])
    assert rc == 2


def test_bench_command_rejects_a_size_that_is_not_an_integer(capsys):
    assert cli.main(["bench", "--sizes", "4,x"]) == 2
    assert capsys.readouterr().err == "error: --sizes must be comma-separated integers, got '4,x'\n"


def test_bench_command_rejects_a_negative_seed(capsys):
    assert cli.main(["bench", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"


def test_bench_command_rejects_a_size_above_the_cap(capsys):
    # 10**11 waypoints: were it not rejected, numpy would refuse the array.
    assert cli.main(["bench", "--sizes", "4,100000000000"]) == 2
    assert capsys.readouterr().err == (
        f"error: --sizes must be at most {cli.MAX_BENCH_WAYPOINTS} waypoints, got 100000000000\n")


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------- helpers


def test_waypoint_field_shape_and_determinism():
    a = cli.waypoint_field(8, seed=3)
    b = cli.waypoint_field(8, seed=3)
    c = cli.waypoint_field(8, seed=4)
    assert a.shape == (8, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a[:, 2] == 50.0)
    assert np.all(np.diff(a[:, 0]) == 60.0)
    with pytest.raises(ValueError):
        cli.waypoint_field(1)


def test_linear_fit_r2_recovers_exact_line():
    x = np.array([4.0, 8.0, 16.0, 32.0])
    a, b, r2 = cli.linear_fit_r2(x, 0.25 * x + 3.0)
    assert a == pytest.approx(0.25, rel=1e-12)
    assert b == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    _, _, r2_noisy = cli.linear_fit_r2(x, [1.0, 9.0, 2.0, 8.0])
    assert r2_noisy < 0.9


def test_cli_import_leaves_scipy_special_unloaded():
    # flatwing takes its binomials from math.comb; scipy.special is a
    # sizeable import that the CLI's start-up need not pay for.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, flatwing.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
