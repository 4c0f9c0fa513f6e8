import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BPoly

from flatwing import bernstein as bz
from oracles import (
    basis_eval,
    bernstein_basis_direct,
    fd_derivative,
    fd_richardson,
    gram_by_quadrature,
)

DEGREES = list(range(3, 13))


def one_segment(cps, t0, tf):
    """A one-segment trajectory with control points cps, (n+1, d), on [t0, tf]."""
    return bz.PiecewiseTrajectory([cps], [t0, tf])


def random_segment(rng, n, dims=3, t0=0.0, dur=1.0):
    return one_segment(rng.normal(size=(n + 1, dims)), t0, t0 + dur)


# ---------------------------------------------------------------- basis


def test_basis_endpoint_and_midpoint_values():
    assert bz.basis_row(3, 0.0)[0] == 1.0
    assert bz.basis_row(3, 1.0)[3] == 1.0
    assert bz.basis_row(3, 0.5)[1] == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("n", DEGREES)
def test_basis_matches_binomial_formula(n):
    for u in np.linspace(0.0, 1.0, 17):
        row = bz.basis_row(n, u)
        assert row.shape == (n + 1,)
        for i in range(n + 1):
            assert row[i] == pytest.approx(bernstein_basis_direct(n, i, u), abs=1e-13)


@pytest.mark.parametrize("n", DEGREES)
def test_basis_row_agrees_with_basis_eval(n):
    for u in (0.0, 0.123, 0.5, 0.987, 1.0):
        row = bz.basis_row(n, u)
        for i in range(n + 1):
            assert row[i] == pytest.approx(basis_eval(n, i, u), abs=1e-14)


@pytest.mark.parametrize("n", range(13))
def test_basis_rows_of_an_array_equal_the_floats_bit_for_bit(n):
    u = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(n).uniform(0.0, 1.0, 61)])
    rows = bz.basis_row(n, u)
    assert rows.shape == (u.size, n + 1)
    for uk, row in zip(u, rows):
        assert np.array_equal(row, bz.basis_row(n, float(uk)))


@given(
    n=st.integers(min_value=3, max_value=12),
    u=st.floats(min_value=0.0, max_value=1.0),
)
def test_partition_of_unity(n, u):
    assert abs(bz.basis_row(n, u).sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------- evaluation


def test_linear_segment_midpoint():
    traj = one_segment([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 0.0, 1.0)
    assert np.allclose(traj.eval(0.0)[0], [0, 0, 0])
    assert np.allclose(traj.eval(0.5)[0], [0.5, 0, 0])


def test_quadratic_segment_known_value():
    # one-coordinate points [0, 1, 4] describe C(t) = 2t + 2t^2
    traj = one_segment([[0.0], [1.0], [4.0]], 0.0, 1.0)
    assert traj.eval(0.5)[0][0] == pytest.approx(1.5, abs=1e-14)


def test_de_casteljau_matches_basis_expansion():
    rng = np.random.default_rng(3)
    for n in DEGREES:
        traj = random_segment(rng, n, dur=1.7)
        for t in np.linspace(0.0, 1.7, 11):
            u = t / 1.7
            direct = bz.basis_row(n, u) @ traj.control_points[0]
            assert np.abs(traj.eval(t)[0] - direct).max() < 1e-12


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
    val = one_segment(cps, 0.0, 1.0).eval(u)[0][0]
    assert cps.min() - 1e-12 <= val <= cps.max() + 1e-12


def test_endpoint_interpolation():
    rng = np.random.default_rng(4)
    for n in DEGREES:
        traj = random_segment(rng, n, t0=2.0, dur=3.0)
        assert np.abs(traj.eval(2.0)[0] - traj.control_points[0, 0]).max() <= 1e-12
        assert np.abs(traj.eval(5.0)[0] - traj.control_points[0, -1]).max() <= 1e-12


def test_segment_domain_is_closed_no_extrapolation():
    traj = one_segment([[0.0], [1.0]], 1.0, 2.0)
    with pytest.raises(bz.DomainError):
        traj.eval(0.999999)
    with pytest.raises(bz.DomainError):
        traj.eval(2.000001)


def test_degenerate_duration_rejected():
    with pytest.raises(ValueError):
        one_segment([[0.0], [1.0]], 0.0, 1e-8)


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
    # C(t) = 2t + 2t^2 on [0,1] has C'(t) = 2 + 4t, whose degree-1 points
    # [2, 6] are the velocity at the ends, a constant acceleration 4 and
    # zero jerk
    traj = one_segment([[0.0], [1.0], [4.0]], 0.0, 1.0)
    for t, speed in ((0.0, 2.0), (0.5, 4.0), (1.0, 6.0)):
        _, vel, acc, jerk = traj.eval(t)
        assert np.allclose([vel[0], acc[0], jerk[0]], [speed, 4.0, 0.0])


def test_derivative_of_constant_is_zero():
    traj = one_segment(np.full((6, 3), 2.5), 0.0, 4.0)
    for t in (0.0, 1.3, 4.0):
        _, vel, acc, jerk = traj.eval(t)
        assert np.abs([vel, acc, jerk]).max() == 0.0


def test_derivative_composition_first_twice_equals_second():
    # The first-derivative map of degree n-1 after that of degree n is the
    # second-derivative map of degree n: stencils and scales compose.
    for n in (5, 7, 9):
        for d in (0.4, 2.3):
            twice = (bz.derivative_scale(n - 1, 1, d) * bz.difference_stencil(n - 1, 1)
                     @ (bz.derivative_scale(n, 1, d) * bz.difference_stencil(n, 1)))
            once = bz.derivative_scale(n, 2, d) * bz.difference_stencil(n, 2)
            assert np.abs(twice - once).max() <= 1e-12 * np.abs(once).max()


def test_derivative_order_exceeding_degree_rejected():
    with pytest.raises(ValueError, match="difference order 3 invalid for degree 2"):
        bz.difference_stencil(2, 3)


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
    traj = one_segment(0.3 * rng.normal(size=(n + 1, 1)), 0.0, 1.0)
    h = FD_STEPS[k]
    for t in np.linspace(3 * h, 1.0 - 3 * h, 7):
        approx = fd_richardson(lambda s: traj.eval(s)[0][0], t, k, h)
        assert traj.eval(t)[k][0] == pytest.approx(approx, abs=1e-5)


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
    return bz.PiecewiseTrajectory([[[0.0, 0, 0], [10.0, 0, 0]],
                                   [[10.0, 0, 0], [10.0, 5, 0]]], [0.0, 1.0, 2.0])


def test_piecewise_junction_belongs_to_later_segment():
    # position is continuous (enforced at construction) but the velocity has
    # a kink, so the junction sample reveals which segment owns the instant
    # slope +10, then -4
    traj = bz.PiecewiseTrajectory([[[0.0], [10.0]], [[10.0], [6.0]]], [0.0, 1.0, 2.0])
    pos, vel, _, _ = traj.eval(1.0)
    assert pos[0] == 10.0
    assert vel[0] == -4.0


def test_piecewise_knots_hold_start_junction_and_end_times():
    traj = two_segment_trajectory()
    assert traj.knots.tolist() == [0.0, 1.0, 2.0]
    assert traj.t_start == 0.0 and traj.t_end == 2.0
    # Both arrays are stored read-only.
    with pytest.raises(ValueError):
        traj.knots[1] = 1.5
    with pytest.raises(ValueError):
        traj.control_points[0, 0, 0] = 1.0


def test_piecewise_requires_contiguous_segments():
    # A gap of 1e-6 at the junction is refused; one of 1e-10 is within 1e-9.
    with pytest.raises(ValueError, match=re.escape("position discontinuity 1e-06 at junction t=1.0")):
        bz.PiecewiseTrajectory([[[1.0], [0.0]], [[1e-6], [2.0]]], [0.0, 1.0, 2.0])
    bz.PiecewiseTrajectory([[[1.0], [0.0]], [[1e-10], [2.0]]], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("points, knots, message", [
    ([[0.0], [1.0]], [0.0, 1.0], "control_points must be an (M, n+1, d) array, got shape (2, 1)"),
    ([[[0.0], [1.0]]], [0.0, 1.0, 2.0], "1 segments need 2 knots, got shape (3,)"),
    ([[[0.0], [1.0]], [[1.0], [2.0]], [[2.0], [3.0]]], [0.0, 1.0, 1.0, 2.0],
     "segment duration 0.0 below minimum 1e-06 at t=1.0"),
], ids=["points-2d", "knot-count", "knot-step"])
def test_piecewise_refuses_malformed_points_or_knots(points, knots, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bz.PiecewiseTrajectory(points, knots)


def test_piecewise_constant_velocity_has_zero_higher_derivatives():
    traj = two_segment_trajectory()
    pos, vel, acc, jerk = traj.eval(0.25)
    assert np.allclose(vel, [10, 0, 0])
    assert np.abs(acc).max() == 0.0
    assert np.abs(jerk).max() == 0.0


def test_piecewise_derivatives_match_analytic_cubic():
    # x(t) = t^3 on [0,2] via control points of the cubic Bernstein form
    dur = 2.0
    cps = np.array([[0.0], [0.0], [0.0], [dur**3]])
    # elevate: cubic Bezier of t^3 on [0,2] has points [0,0,0,8]
    traj = one_segment(cps, 0.0, dur)
    t = 1.3
    pos, vel, acc, jerk = traj.eval(t)
    assert pos[0] == pytest.approx(t**3, rel=1e-13)
    assert vel[0] == pytest.approx(3 * t**2, rel=1e-13)
    assert acc[0] == pytest.approx(6 * t, rel=1e-13)
    assert jerk[0] == pytest.approx(6.0, rel=1e-13)


def test_piecewise_domain_error():
    traj = two_segment_trajectory()
    with pytest.raises(bz.DomainError):
        traj.eval(-0.01)
    with pytest.raises(bz.DomainError):
        traj.eval(2.01)


def test_batched_velocity_acceleration_equals_eval_bit_for_bit():
    rng = np.random.default_rng(12)
    # Degrees 1 and 2 have exact-zero columns above their degree.
    for n in (7, 2, 9, 1, 5):
        pts, knots = [], [0.5]
        prev_end = rng.normal(size=3) * 50
        for dur in (2.0, 0.7, 3.1, 1.3, 0.25):
            cps = rng.normal(size=(n + 1, 3)) * 50
            cps[0] = prev_end
            prev_end = cps[-1]
            pts.append(cps)
            knots.append(knots[-1] + dur)
        traj = bz.PiecewiseTrajectory(pts, knots)
        ts = np.concatenate([
            rng.uniform(traj.t_start, traj.t_end, 240),
            [traj.t_start, traj.t_end, traj.t_end + 5e-10, traj.t_start - 5e-10],
            traj.knots,  # exact junctions belong to the later segment
        ])
        vel, acc = traj.velocity_acceleration(ts)
        assert vel.shape == acc.shape == (ts.size, 3)
        for t, v, a in zip(ts, vel, acc):
            _, v_ref, a_ref, _ = traj.eval(t)
            assert np.array_equal(v, v_ref) and np.array_equal(a, a_ref)
    with pytest.raises(bz.DomainError):
        traj.velocity_acceleration([traj.t_start, traj.t_end + 0.01])


def three_segment_trajectory(rng):
    pts, knots, end = [], [0.0], rng.normal(size=3) * 20
    for dur in (1.5, 0.8, 2.2):
        cps = rng.normal(size=(6, 3)) * 20
        cps[0] = end
        end = cps[-1]
        pts.append(cps)
        knots.append(knots[-1] + dur)
    return bz.PiecewiseTrajectory(pts, knots)


@pytest.mark.parametrize("count", [0, 1, 31])
def test_batched_velocity_acceleration_takes_any_sample_count_in_any_order(count):
    # Unsorted times over three segments: each row is still eval's, in ts
    # order.
    rng = np.random.default_rng(count)
    traj = three_segment_trajectory(rng)
    ts = rng.permutation(np.concatenate([rng.uniform(traj.t_start, traj.t_end, count),
                                         traj.knots[1:-1]]))[:count]
    vel, acc = traj.velocity_acceleration(ts)
    assert vel.shape == acc.shape == (count, 3)
    for t, v, a in zip(ts, vel, acc):
        _, v_ref, a_ref, _ = traj.eval(t)
        assert np.array_equal(v, v_ref) and np.array_equal(a, a_ref)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_raise_domain_error(bad):
    traj = two_segment_trajectory()
    name = re.escape(f"t={bad}")
    with pytest.raises(bz.DomainError, match=name):
        traj.segment_index(bad)
    with pytest.raises(bz.DomainError, match=name):
        traj.eval(bad)
    with pytest.raises(bz.DomainError, match=name):
        traj.velocity_acceleration([0.5, bad])


def test_batched_velocity_acceleration_of_scalar_trajectory():
    # One coordinate per control point: (S, 1) rows.
    traj = bz.PiecewiseTrajectory([[[0.0], [5.0], [10.0]], [[10.0], [11.0], [6.0]]],
                                  [0.0, 1.0, 2.0])
    ts = np.linspace(0.0, 2.0, 9)
    vel, acc = traj.velocity_acceleration(ts)
    assert vel.shape == acc.shape == (9, 1)
    for t, v, a in zip(ts, vel, acc):
        _, v_ref, a_ref, _ = traj.eval(t)
        assert np.array_equal(v, v_ref) and np.array_equal(a, a_ref)


# ---------------------------------------------------------------- serialization


def test_serialization_round_trip_is_exact():
    rng = np.random.default_rng(9)
    pts, knots = [], [0.0]
    prev_end = rng.normal(size=3) * 100
    for _ in range(3):
        dur = float(rng.uniform(0.5, 3.0))
        cps = rng.normal(size=(8, 3)) * 100
        cps[0] = prev_end  # keep junctions position-continuous
        prev_end = cps[-1]
        pts.append(cps)
        knots.append(knots[-1] + dur)
    traj = bz.PiecewiseTrajectory(pts, knots)

    buf = io.StringIO()
    bz.write_trajectory(traj, buf)
    back = bz.read_trajectory(io.StringIO(buf.getvalue()))

    # 17 significant digits round-trip doubles bit-exactly
    assert back.control_points.shape == (3, 8, 3)
    assert np.array_equal(back.knots, traj.knots)
    assert np.array_equal(back.control_points, traj.control_points)


def test_serialization_via_path(tmp_path):
    traj = two_segment_trajectory()
    p = tmp_path / "traj.txt"
    bz.write_trajectory(traj, p)
    back = bz.read_trajectory(p)
    assert np.array_equal(back.control_points, traj.control_points)


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


def test_serialization_round_trip_of_scalar_trajectory():
    # One coordinate per control point reads back as d = 1.
    traj = bz.PiecewiseTrajectory([[[0.0], [10.0]], [[10.0], [6.0]]], [0.0, 1.0, 2.0])
    buf = io.StringIO()
    bz.write_trajectory(traj, buf)
    back = bz.read_trajectory(io.StringIO(buf.getvalue()))
    assert back.control_points.shape == (2, 2, 1)
    assert np.array_equal(back.control_points, traj.control_points)
    # every derivative is a 1-tuple of a float, including those above the
    # segments' degree 1
    for t in (0.5, 1.5):
        for value in back.eval(t):
            assert len(value) == 1 and type(value[0]) is float


GOOD_BLOCK = "trajectory v1\nsegments 2\nsegment 1 0 1\n0 0 0\n1 0 0\nsegment 1 1 2\n1 0 0\n1 1 0\n"


@pytest.mark.parametrize("old, new, message", [
    ("segments 2", "segments x", "line 2: bad number 'x'"),
    ("segments 2", "segments 0", "line 2: segment count must be positive"),
    ("segment 1 0 1", "segment 1 0 z", "line 3: bad number 'z'"),
    ("segment 1 0 1", "segment q 0 1", "line 3: bad number 'q'"),
    ("segment 1 0 1", "segment -2 0 1", "line 3: segment 0: control_points must be"),
    ("segment 1 0 1", "segment 1 0 inf", "line 3: non-finite number 'inf'"),
    ("segment 1 0 1", "segment 1 1 0", "line 3: segment 0: segment duration"),
    ("segment 1 1 2", "segment 1 1.5 2", "line 6: segment 1: segment times disagree"),
    ("1 0 0\nsegment", "1 0 5\nsegment", "line 6: segment 1: position discontinuity"),
    ("segment 1 1 2\n1 0 0\n1 1 0", "segment 2 1 2\n1 0 0\n1 1 0\n1 2 0",
     "line 6: segment 1: segment degrees differ"),
    ("0 0 0\n1 0 0", "0 0 0\n1 0 nope", "line 5: bad number 'nope'"),
    ("0 0 0\n1 0 0", "0 0 0\n1 0 nan", "line 5: non-finite number 'nan'"),
    ("0 0 0\n1 0 0", "0 0 0\n1 0", "line 5: control point 1 of segment 0 has 2 coordinates"),
    ("1 0 0\n1 1 0", "1 0 0 0\n1 1 0 0", "line 7: control point 0 of segment 1 has 4"),
], ids=['count-word', 'count-zero', 'time-word', 'degree-word', 'degree-negative', 'time-inf', 'time-reversed', 'junction-time', 'junction-position', 'junction-degree', 'point-word', 'point-nan', 'point-short', 'point-wide'])
def test_read_trajectory_errors_name_the_line(old, new, message):
    assert bz.read_trajectory(io.StringIO(GOOD_BLOCK)).t_end == 2.0
    assert old in GOOD_BLOCK
    with pytest.raises(ValueError, match=message):
        bz.read_trajectory(io.StringIO(GOOD_BLOCK.replace(old, new, 1)))


TOKENS = ["0", "1", "2", "-1", "0.5", "1e400", "nan", "inf", "-inf", "x", "",
          "segment", "segments", "trajectory", "v1", "#", "1e-300", "9" * 30]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_trajectory_fuzz_parses_or_names_a_line(data):
    """Mutated blocks either parse or raise ValueError naming a line."""
    lines = GOOD_BLOCK.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        op = data.draw(st.sampled_from(["token", "drop_token", "add_token",
                                        "drop_line", "dup_line"]))
        if op == "drop_line":
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, lines[i])
        elif op == "add_token":
            words.insert(data.draw(st.integers(0, len(words))), data.draw(st.sampled_from(TOKENS)))
            lines[i] = " ".join(words)
        elif words:
            k = data.draw(st.integers(0, len(words) - 1))
            if op == "token":
                words[k] = data.draw(st.sampled_from(TOKENS))
            else:
                del words[k]
            lines[i] = " ".join(words)
        if not lines:
            break
    text = "\n".join(lines) + "\n"
    try:
        traj = bz.read_trajectory(io.StringIO(text))
    except ValueError as exc:
        m = re.match(r"line (\d+): ", str(exc))
        assert m, f"error names no line: {exc}"
        assert 1 <= int(m.group(1)) <= len(text.splitlines()) + 1
    else:
        assert isinstance(traj, bz.PiecewiseTrajectory)
        traj.eval(traj.t_start)


# ---------------------------------------------------------------- oracle


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("vector", [True, False], ids=["3d", "scalar"])
def test_evaluation_matches_scipy_bpoly(n, vector):
    """eval and velocity_acceleration against scipy's BPoly.

    BPoly is an independent Bernstein evaluator; the bound on the k-th
    derivative is 1e-12 times the largest of its Bernstein coefficients.
    Derivatives above the degree have no coefficients, so their bound is 0:
    eval must return exact zeros there.
    """
    rng = np.random.default_rng(100 + n)
    breaks = 0.7 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 3.0, 3))])
    pts, prev = [], None
    for _ in breaks[1:]:
        cps = rng.normal(size=(n + 1, 3 if vector else 1)) * 40.0
        if prev is not None:
            cps[0] = prev  # junctions are C0 only, so derivatives jump there
        prev = cps[-1]
        pts.append(cps)
    traj = bz.PiecewiseTrajectory(pts, breaks)
    ref = [BPoly(np.stack(pts, axis=1), breaks)]
    ref += [ref[0].derivative(k) for k in (1, 2, 3)]
    bound = [1e-12 * np.abs(r.c).max() for r in ref]
    # Interior times, every junction (which belongs to the later segment)
    # and both ends.
    ts = np.concatenate([rng.uniform(breaks[0], breaks[-1], 30), breaks])
    for t in ts:
        for k, val in enumerate(traj.eval(t)):
            assert np.abs(val - ref[k](t)).max() <= bound[k]
    vel, acc = traj.velocity_acceleration(ts)
    assert np.abs(vel - ref[1](ts)).max() <= bound[1]
    assert np.abs(acc - ref[2](ts)).max() <= bound[2]
    # A one-segment trajectory owns its end time too.
    for cps, t0, tf in zip(pts, breaks, breaks[1:]):
        for t in (t0, 0.3 * t0 + 0.7 * tf, tf):
            assert np.abs(one_segment(cps, t0, tf).eval(t)[0] - ref[0](t)).max() <= bound[0]
