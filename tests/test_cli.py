import numpy as np
import pytest

from flatwing import cli
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
    assert lines[0] == "qp v1"
    assert lines[1] == "n 24"
    assert lines[2].startswith("m ")


def test_plan_command_missing_file(tmp_path, capsys):
    rc = cli.main(["plan", "--mission", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
    path = tmp_path / "abort.txt"
    path.write_text(ABORT_MISSION)
    rc = cli.main(["simulate", "--mission", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "mission aborted" in capsys.readouterr().err


# ---------------------------------------------------------------- bench


def test_bench_command_reports_fit(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--sizes", "4,6", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "n_waypoints n_vars iterations solve_time status" in text
    assert "fit_r2" in text
    assert (out / "bench.txt").read_text().strip().endswith(text.strip().splitlines()[-1])


def test_bench_command_rejects_single_size(capsys):
    rc = cli.main(["bench", "--sizes", "8"])
    assert rc == 2


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
