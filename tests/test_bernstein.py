import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwing import bernstein as bz
from oracles import (
    bernstein_basis_direct,
    fd_derivative,
    fd_richardson,
    gram_by_quadrature,
)

DEGREES = list(range(3, 13))


def random_segment(rng, n, dims=3, t0=0.0, dur=1.0):
    return bz.BernsteinSegment(rng.normal(size=(n + 1, dims)), t0, t0 + dur)


# ---------------------------------------------------------------- basis


def test_basis_endpoint_and_midpoint_values():
    assert bz.basis_eval(3, 0, 0.0) == 1.0
    assert bz.basis_eval(3, 3, 1.0) == 1.0
    assert bz.basis_eval(3, 1, 0.5) == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("n", DEGREES)
def test_basis_matches_binomial_formula(n):
    u_grid = np.linspace(0.0, 1.0, 17)
    for i in range(n + 1):
        for u in u_grid:
            assert bz.basis_eval(n, i, u) == pytest.approx(
                bernstein_basis_direct(n, i, u), abs=1e-13
            )


@pytest.mark.parametrize("n", DEGREES)
def test_basis_row_agrees_with_basis_eval(n):
    for u in (0.0, 0.123, 0.5, 0.987, 1.0):
        row = bz.basis_row(n, u)
        assert row.shape == (n + 1,)
        for i in range(n + 1):
            assert row[i] == pytest.approx(bz.basis_eval(n, i, u), abs=1e-14)


@given(
    n=st.integers(min_value=3, max_value=12),
    u=st.floats(min_value=0.0, max_value=1.0),
)
def test_partition_of_unity(n, u):
    assert abs(bz.basis_row(n, u).sum() - 1.0) <= 1e-12


def test_basis_argument_validation():
    with pytest.raises(ValueError):
        bz.basis_eval(3, 4, 0.5)
    with pytest.raises(ValueError):
        bz.basis_eval(3, -1, 0.5)
    with pytest.raises(ValueError):
        bz.basis_eval(3, 1, 1.5)
    with pytest.raises(ValueError):
        bz.basis_eval(3, 1, -0.1)


# ---------------------------------------------------------------- evaluation


def test_linear_segment_midpoint():
    seg = bz.BernsteinSegment(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.0, 1.0)
    assert np.allclose(bz.eval_segment(seg, 0.0), [0, 0, 0])
    assert np.allclose(bz.eval_segment(seg, 0.5), [0.5, 0, 0])


def test_quadratic_segment_known_value():
    # scalar points [0, 1, 4] describe C(t) = 2t + 2t^2
    seg = bz.BernsteinSegment(np.array([[0.0], [1.0], [4.0]]), 0.0, 1.0)
    assert bz.eval_segment(seg, 0.5)[0] == pytest.approx(1.5, abs=1e-14)


def test_de_casteljau_matches_basis_expansion():
    rng = np.random.default_rng(3)
    for n in DEGREES:
        seg = random_segment(rng, n, dur=1.7)
        for t in np.linspace(0.0, 1.7, 11):
            u = t / 1.7
            direct = bz.basis_row(n, u) @ seg.control_points
            assert np.abs(bz.eval_segment(seg, t) - direct).max() < 1e-12


@settings(max_examples=60)
@given(data=st.data())
def test_convex_hull_property(data):
    n = data.draw(st.integers(min_value=3, max_value=12))
    pts = data.draw(
        st.lists(
            st.floats(min_value=-50, max_value=50),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    u = data.draw(st.floats(min_value=0.0, max_value=1.0))
    cps = np.array(pts).reshape(-1, 1)
    seg = bz.BernsteinSegment(cps, 0.0, 1.0)
    val = bz.eval_segment(seg, u)[0]
    assert cps.min() - 1e-12 <= val <= cps.max() + 1e-12


def test_endpoint_interpolation():
    rng = np.random.default_rng(4)
    for n in DEGREES:
        seg = random_segment(rng, n, t0=2.0, dur=3.0)
        assert np.abs(bz.eval_segment(seg, 2.0) - seg.control_points[0]).max() <= 1e-12
        assert np.abs(bz.eval_segment(seg, 5.0) - seg.control_points[-1]).max() <= 1e-12


def test_segment_domain_is_closed_no_extrapolation():
    seg = bz.BernsteinSegment(np.array([[0.0], [1.0]]), 1.0, 2.0)
    with pytest.raises(bz.DomainError):
        bz.eval_segment(seg, 0.999999)
    with pytest.raises(bz.DomainError):
        bz.eval_segment(seg, 2.000001)


def test_degenerate_duration_rejected():
    with pytest.raises(ValueError):
        bz.BernsteinSegment(np.array([[0.0], [1.0]]), 0.0, 1e-8)


# ---------------------------------------------------------------- derivatives


def test_difference_stencil_known_rows():
    d1 = bz.difference_stencil(3, 1)
    assert d1.shape == (3, 4)
    assert np.allclose(d1[0], [-1, 1, 0, 0])
    d2 = bz.difference_stencil(3, 2)
    assert np.allclose(d2[0], [1, -2, 1, 0])
    d3 = bz.difference_stencil(3, 3)
    assert np.allclose(d3[0], [-1, 3, -3, 1])


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_difference_stencil_rows_sum_to_zero(n, k):
    # derivative of a constant is zero
    assert np.abs(bz.difference_stencil(n, k).sum(axis=1)).max() <= 1e-12


def test_derivative_scale_value():
    # n!/(n-k)!/dur^k: n=5, k=2, dur=2 -> 20/4
    assert bz.derivative_scale(5, 2, 2.0) == pytest.approx(5.0, rel=1e-15)
    assert bz.derivative_scale(7, 3, 1.0) == pytest.approx(
        math.factorial(7) / math.factorial(4), rel=1e-15
    )


def test_derivative_of_quadratic_known_points():
    # C(t) = 2t + 2t^2 on [0,1] has C'(t) = 2 + 4t: degree-1 points [2, 6]
    seg = bz.BernsteinSegment(np.array([[0.0], [1.0], [4.0]]), 0.0, 1.0)
    d = bz.derivative_segment(seg, 1)
    assert d.degree == 1
    assert np.allclose(d.control_points.ravel(), [2.0, 6.0])


def test_derivative_of_constant_is_zero():
    seg = bz.BernsteinSegment(np.full((6, 3), 2.5), 0.0, 4.0)
    d = bz.derivative_segment(seg, 1)
    assert np.abs(d.control_points).max() == 0.0


def test_derivative_composition_first_twice_equals_second():
    rng = np.random.default_rng(5)
    for n in (5, 7, 9):
        seg = random_segment(rng, n, dur=2.3)
        twice = bz.derivative_segment(bz.derivative_segment(seg, 1), 1)
        once = bz.derivative_segment(seg, 2)
        assert np.abs(twice.control_points - once.control_points).max() <= 1e-12


def test_derivative_order_exceeding_degree_rejected():
    seg = bz.BernsteinSegment(np.zeros((3, 1)), 0.0, 1.0)
    with pytest.raises(ValueError):
        bz.derivative_segment(seg, 3)


# Step sizes per order: the k=3 stencil divides by 2h^3, so its h cannot be
# nearly as small as for k=1 before roundoff dominates (at h=1e-4 the k=3
# roundoff floor alone is ~1e-5 on unit-scale data).  The Richardson pass
# cancels the O(h^2) truncation term, which otherwise exceeds 1e-5 for
# degree-12 curves whose higher derivatives reach the thousands.
FD_STEPS = {1: 1e-4, 2: 1e-3, 3: 1e-3}


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivative_matches_finite_differences(n, k):
    rng = np.random.default_rng(100 + n)
    seg = bz.BernsteinSegment(0.3 * rng.normal(size=(n + 1, 1)), 0.0, 1.0)
    dseg = bz.derivative_segment(seg, k)
    h = FD_STEPS[k]
    for t in np.linspace(3 * h, 1.0 - 3 * h, 7):
        approx = fd_richardson(lambda s: bz.eval_segment(seg, s)[0], t, k, h)
        assert bz.eval_segment(dseg, t)[0] == pytest.approx(approx, abs=1e-5)


def test_derivative_map_matches_derivative_segment():
    rng = np.random.default_rng(6)
    seg = random_segment(rng, 7, dur=1.9)
    dm = bz.derivative_map(7, 2, 1.9)
    assert dm.order == 2
    expected = bz.derivative_segment(seg, 2).control_points
    assert np.abs(dm.matrix @ seg.control_points - expected).max() <= 1e-12


# ---------------------------------------------------------------- Gram matrix


def test_gram_known_entries():
    g1 = bz.gram_matrix(1, 1.0)
    assert g1[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert g1[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert np.allclose(bz.gram_matrix(0, 2.0), [[2.0]])


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("duration", [0.7, 1.0, 2.3])
def test_gram_matches_quadrature(n, duration):
    diff = bz.gram_matrix(n, duration) - gram_by_quadrature(n, duration)
    assert np.abs(diff).max() <= 1e-10


@pytest.mark.parametrize("n", DEGREES)
def test_gram_symmetric_positive_definite(n):
    G = bz.gram_matrix(n, 1.3)
    assert np.abs(G - G.T).max() == 0.0
    assert np.linalg.eigvalsh(G).min() > 0.0


def test_gram_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        bz.gram_matrix(3, 0.0)


def test_gram_quadratic_form_integrates_squared_curve():
    # p'Gp = integral of C(t)^2; for C(t)=2t+2t^2 on [0,1] that is 62/15
    p = np.array([0.0, 1.0, 4.0])
    val = p @ bz.gram_matrix(2, 1.0) @ p
    assert val == pytest.approx(62.0 / 15.0, rel=1e-14)


# ---------------------------------------------------------------- piecewise


def two_segment_trajectory():
    a = bz.BernsteinSegment(np.array([[0.0, 0, 0], [10.0, 0, 0]]), 0.0, 1.0)
    b = bz.BernsteinSegment(np.array([[10.0, 0, 0], [10.0, 5, 0]]), 1.0, 2.0)
    return bz.PiecewiseTrajectory([a, b])


def test_piecewise_junction_belongs_to_later_segment():
    # position is continuous (enforced at construction) but the velocity has
    # a kink, so the junction sample reveals which segment owns the instant
    a = bz.BernsteinSegment(np.array([[0.0], [10.0]]), 0.0, 1.0)  # slope +10
    b = bz.BernsteinSegment(np.array([[10.0], [6.0]]), 1.0, 2.0)  # slope -4
    traj = bz.PiecewiseTrajectory([a, b])
    pos, vel, _, _ = bz.eval_piecewise(traj, 1.0)
    assert pos[0] == 10.0
    assert vel[0] == -4.0


def test_piecewise_junction_times_include_final_time():
    traj = two_segment_trajectory()
    assert traj.junction_times == (1.0, 2.0)
    assert traj.t_start == 0.0 and traj.t_end == 2.0


def test_piecewise_requires_contiguous_segments():
    a = bz.BernsteinSegment(np.array([[0.0], [1.0]]), 0.0, 1.0)
    b = bz.BernsteinSegment(np.array([[1.0], [2.0]]), 1.5, 2.0)
    with pytest.raises(ValueError):
        bz.PiecewiseTrajectory([a, b])


def test_piecewise_constant_velocity_has_zero_higher_derivatives():
    traj = two_segment_trajectory()
    pos, vel, acc, jerk = bz.eval_piecewise(traj, 0.25)
    assert np.allclose(vel, [10, 0, 0])
    assert np.abs(acc).max() == 0.0
    assert np.abs(jerk).max() == 0.0


def test_piecewise_derivatives_match_analytic_cubic():
    # x(t) = t^3 on [0,2] via control points of the cubic Bernstein form
    dur = 2.0
    cps = np.array([[0.0], [0.0], [0.0], [dur**3]])
    # elevate: cubic Bezier of t^3 on [0,2] has points [0,0,0,8]
    traj = bz.PiecewiseTrajectory([bz.BernsteinSegment(cps, 0.0, dur)])
    t = 1.3
    pos, vel, acc, jerk = bz.eval_piecewise(traj, t)
    assert pos[0] == pytest.approx(t**3, rel=1e-13)
    assert vel[0] == pytest.approx(3 * t**2, rel=1e-13)
    assert acc[0] == pytest.approx(6 * t, rel=1e-13)
    assert jerk[0] == pytest.approx(6.0, rel=1e-13)


def test_piecewise_domain_error():
    traj = two_segment_trajectory()
    with pytest.raises(bz.DomainError):
        bz.eval_piecewise(traj, -0.01)
    with pytest.raises(bz.DomainError):
        bz.eval_piecewise(traj, 2.01)


def test_batched_velocity_acceleration_equals_eval_bit_for_bit():
    rng = np.random.default_rng(12)
    segs = []
    t = 0.5
    prev_end = rng.normal(size=3) * 50
    for n, dur in ((7, 2.0), (2, 0.7), (9, 3.1), (1, 1.3), (5, 0.25)):
        cps = rng.normal(size=(n + 1, 3)) * 50
        cps[0] = prev_end
        prev_end = cps[-1]
        segs.append(bz.BernsteinSegment(cps, t, t + dur))
        t += dur
    traj = bz.PiecewiseTrajectory(segs)
    ts = np.concatenate([
        rng.uniform(traj.t_start, traj.t_end, 240),
        [traj.t_start, traj.t_end, traj.t_end + 5e-10, traj.t_start - 5e-10],
        traj.junction_times,  # exact junctions belong to the later segment
    ])
    vel, acc = traj.velocity_acceleration(ts)
    assert vel.shape == acc.shape == (ts.size, 3)
    for t, v, a in zip(ts, vel, acc):
        _, v_ref, a_ref, _ = traj.eval(t)
        assert np.array_equal(v, v_ref) and np.array_equal(a, a_ref)
    with pytest.raises(bz.DomainError):
        traj.velocity_acceleration([traj.t_start, traj.t_end + 0.01])


def test_batched_velocity_acceleration_of_scalar_trajectory():
    traj = bz.PiecewiseTrajectory([
        bz.BernsteinSegment(np.array([0.0, 10.0]), 0.0, 1.0),
        bz.BernsteinSegment(np.array([10.0, 11.0, 6.0]), 1.0, 2.0),
    ])
    ts = np.linspace(0.0, 2.0, 9)
    vel, acc = traj.velocity_acceleration(ts)
    assert vel.shape == acc.shape == (9,)
    for t, v, a in zip(ts, vel, acc):
        _, v_ref, a_ref, _ = traj.eval(t)
        assert v == v_ref and a == a_ref


# ---------------------------------------------------------------- arc length


def test_arc_length_straight_segment():
    seg = bz.BernsteinSegment(np.array([[0.0, 0, 0], [100.0, 0, 0]]), 0.0, 10.0)
    assert bz.arc_length(seg) == pytest.approx(100.0, abs=1e-9)


def test_arc_length_quarter_circle_approximation():
    # cubic Bezier fit of a 45 m quarter arc (standard 0.5523 handle length)
    r, k = 45.0, 0.5522847498307936
    cps = np.array([[r, 0, 0], [r, r * k, 0], [r * k, r, 0], [0, r, 0]])
    seg = bz.BernsteinSegment(cps, 0.0, 5.0)
    assert bz.arc_length(seg, 4096) == pytest.approx(math.pi * r / 2, abs=0.05)


def test_arc_length_monotone_under_refinement():
    rng = np.random.default_rng(8)
    seg = random_segment(rng, 7, dur=3.0)
    lengths = [bz.arc_length(seg, n) for n in (4, 8, 16, 32, 64, 128, 256)]
    for coarse, fine in zip(lengths, lengths[1:]):
        assert fine >= coarse - 1e-12


def test_arc_length_zero_for_stationary_segment():
    seg = bz.BernsteinSegment(np.full((4, 3), 7.0), 0.0, 2.0)
    assert bz.arc_length(seg) == pytest.approx(0.0, abs=1e-12)


def test_arc_length_accepts_whole_trajectory():
    traj = two_segment_trajectory()
    assert bz.arc_length(traj) == pytest.approx(15.0, abs=1e-9)


# ---------------------------------------------------------------- serialization


def test_serialization_round_trip_is_exact():
    rng = np.random.default_rng(9)
    segs = []
    t = 0.0
    prev_end = rng.normal(size=3) * 100
    for n in (7, 5, 9):
        dur = float(rng.uniform(0.5, 3.0))
        cps = rng.normal(size=(n + 1, 3)) * 100
        cps[0] = prev_end  # keep junctions position-continuous
        prev_end = cps[-1]
        segs.append(bz.BernsteinSegment(cps, t, t + dur))
        t += dur
    traj = bz.PiecewiseTrajectory(segs)

    buf = io.StringIO()
    bz.write_trajectory(traj, buf)
    back = bz.read_trajectory(io.StringIO(buf.getvalue()))

    assert len(back.segments) == 3
    for s0, s1 in zip(traj.segments, back.segments):
        # 17 significant digits round-trip doubles bit-exactly
        assert s0.t0 == s1.t0 and s0.tf == s1.tf
        assert np.array_equal(s0.control_points, s1.control_points)


def test_serialization_via_path(tmp_path):
    traj = two_segment_trajectory()
    p = tmp_path / "traj.txt"
    bz.write_trajectory(traj, p)
    back = bz.read_trajectory(p)
    assert np.array_equal(back.segments[1].control_points,
                          traj.segments[1].control_points)


@pytest.mark.parametrize("text, missing", [
    ("trajectory v1\n", "line 2: expected segment count"),
    ("trajectory v1\nsegments 1\n", "line 3: expected segment record 0"),
    ("trajectory v1\nsegments 1\nsegment 2 0 1\n0 0 0\n1 0 0\n",
     "line 6: expected control point 2 of segment 0"),
])
def test_read_trajectory_truncated_input_names_missing_record(text, missing):
    with pytest.raises(ValueError, match=missing):
        bz.read_trajectory(io.StringIO(text))


def test_read_trajectory_rejects_a_second_block():
    buf = io.StringIO()
    bz.write_trajectory(two_segment_trajectory(), buf)
    with pytest.raises(ValueError, match="exactly one trajectory block"):
        bz.read_trajectory(io.StringIO(buf.getvalue() * 2))
