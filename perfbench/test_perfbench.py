"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from flatwing import mission as msn  # noqa: E402
from flatwing import planner, simulator  # noqa: E402
from perfbench import metrics, reference, tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, expected", [
    (10, None), (20, 50.0), (399, 95.0), (400, 97.5), (441, 97.5),
    (882, 97.5), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 6) >= 10


def test_percentile_matches_numpy():
    xs = np.random.default_rng(1).exponential(size=441)
    for p in (50.0, 97.5, 99.0):
        assert metrics.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("a", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_speed_sampler_samples_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.SpeedSampler(period=0.01) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.spent < 0.2
    assert sampler.mean_s() == pytest.approx(np.mean(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _small_sequence():
    pts = np.array([[0.0, 0.0, 50.0], [60.0, 10.0, 50.0], [120.0, 0.0, 50.0]])
    return planner.WaypointSequence(
        pts,
        planner.BoundaryState(pts[0], [14.0, 0.0, 0.0], np.zeros(3)),
        planner.BoundaryState(pts[-1], [14.0, 0.0, 0.0], np.zeros(3)),
    )


def test_tracer_nests_spans_and_restores_every_alias():
    originals = (msn.step, simulator.step, planner.plan, planner.qp.solve_qp,
                 planner.PiecewiseTrajectory.eval)
    with tracing.Tracer() as tr:
        assert msn.step is not originals[0] and simulator.step is msn.step
        res = planner.plan(_small_sequence(), planner.PlannerConfig())
    assert res.ok
    assert (msn.step, simulator.step, planner.plan, planner.qp.solve_qp,
            planner.PiecewiseTrajectory.eval) == originals

    names = [s[0] for s in tr.spans]
    plan_idx = names.index("planner.plan")
    parents = {names[s[3]] for s in tr.spans if s[0] in ("planner.assemble", "qp.solve_qp")}
    assert parents == {"planner.plan"}
    totals = tr.layer_totals()
    own = tracing.self_times(tr.spans)[plan_idx]
    assert own == pytest.approx(totals["planner.plan"][1] - totals["planner.assemble"][1]
                                - totals["qp.solve_qp"][1])
    assert tr.counts["qp.iterations.sum"] == res.iterations
    assert tr.maxima["qp.n"] == res.n_vars


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == metrics.PER_LAYER
    for name in [*metrics.END_TO_END, *metrics.PER_LAYER, *wl.WORKLOADS]:
        assert metrics.NAME_RE.fullmatch(name), name

    op = wl.Op(wall=2.0, flight_s=80.0, digest="x", failures=[], attempted=1, failed=0,
               ref_s=0.006)
    assert set(metrics.end_to_end([op], 0.5)) == set(metrics.END_TO_END)
    layers = metrics.per_layer({}, {}, {}, 1, 0.0, 1.0)
    assert set(layers) == set(metrics.PER_LAYER)


def _envelope_metrics():
    return {"t_final": 80.0, "rmse_pos": 0.1, "rmse_vel": 0.1, "roll_min": -0.4,
            "roll_max": 0.2, "path_length": 1100.0}


def test_aborted_mission_counts_as_failed_and_trips_its_gate():
    inp = wl.Inputs("track", 0, mcfg=msn.MissionConfig())
    ok = msn.MissionResult(msn.SimLog(), [], _envelope_metrics())
    assert wl.mission_op(inp, ok, 1.0).failures == []

    aborted = msn.MissionResult(msn.SimLog(), [], _envelope_metrics(), aborted=True,
                                abort_reason="t=12.34: integration fault")
    op = wl.mission_op(inp, aborted, 1.0)
    assert op.failed == 1 and op.attempted == 1
    assert any("aborted" in f for f in op.failures)


def test_rejected_replan_and_envelope_breach_trip_survey_gates():
    inp = wl.Inputs("survey", 0, mcfg=msn.MissionConfig())
    events = [msn.ReplanEvent(1.0, 0, "solved", 50, 0.0, 0.01, True),
              msn.ReplanEvent(1.1, 0, "max-iterations", 4000, 0.0, 0.2, False)]
    mets = dict(_envelope_metrics(), rmse_pos=9.0)
    op = wl.mission_op(inp, msn.MissionResult(msn.SimLog(), events, mets), 1.0)
    assert op.failed == 1 and op.attempted == 3 and op.budget_misses == 1
    assert any("replans not accepted" in f for f in op.failures)
    assert any("rmse_pos" in f for f in op.failures)


def test_plan_gates_accept_a_solved_plan_and_catch_a_moved_waypoint():
    wps = wl.bench_sequence(6, seed=3)
    res = planner.plan(wps, planner.PlannerConfig(cruise_speed=wl.BENCH_CRUISE))
    assert wl.plan_gates(res, wps) == []
    pts = wps.waypoints.copy()
    pts[2, 1] += 0.01
    moved = planner.WaypointSequence(pts, wps.boundary_start, wps.boundary_end)
    assert any("waypoint" in f for f in wl.plan_gates(res, moved, residuals=False))


def test_seeded_inputs_are_reproducible_and_bounded():
    base_mission, base_params = wl.mission_texts(ROOT, 0)
    assert base_mission == (ROOT / wl.MISSION_FILE).read_text()
    assert wl.mission_texts(ROOT, 7) == wl.mission_texts(ROOT, 7)
    assert wl.mission_texts(ROOT, 7) != wl.mission_texts(ROOT, 8)

    base = msn.parse_mission(base_mission)
    for seed in (1, 2, 3):
        inp = wl.generate(ROOT, "survey", seed)
        for leg, base_leg in zip(inp.plan.legs, base.legs):
            d = leg.waypoints - base_leg.waypoints
            assert np.all(np.abs(d[:, :2]) <= wl.WAYPOINT_JITTER_M)
            assert np.all(d[:, 2] == 0.0)
        assert inp.wind.gust_amplitude == wl.GUST_MPS and inp.wind.seed == seed
    track = wl.generate(ROOT, "track", 1)
    assert track.mcfg.replan_period == wl.TRACK_REPLAN_PERIOD_S
