import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robokit.geometry import (SE3, Pose2D, angle_diff, axis_rotation, pose_error, wrap_angle,
                              zyx_from_matrix, zyx_matrix)


def test_wrap_angle_range():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-50, 50, 500):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi


def test_wrap_angle_periodicity():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-10, 10, 200):
        for k in (-3, -1, 1, 4):
            assert wrap_angle(theta + 2 * math.pi * k) == pytest.approx(
                wrap_angle(theta), abs=1e-9)


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0


def test_pose2d_normalizes_theta():
    p = Pose2D(0, 0, 3 * math.pi)
    assert p.theta == pytest.approx(math.pi)


@pytest.mark.parametrize("field", ["x", "y", "theta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_pose2d_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="Pose2D fields must be finite"):
        Pose2D(**{field: value})


def test_se2_compose_identity():
    p = Pose2D(1.0, 2.0, 0.7)
    q = p.compose(Pose2D())
    assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)


def test_se2_compose_inverse():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = Pose2D(*rng.uniform(-3, 3, 2), rng.uniform(-4, 4))
        r = p.compose(p.inverse())
        assert abs(r.x) < 1e-12 and abs(r.y) < 1e-12 and abs(r.theta) < 1e-12


def test_relative_moves_compose_to_absolute_target():
    # composing commanded relative poses equals one composed absolute target
    rng = np.random.default_rng(3)
    for _ in range(50):
        start = Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
        rels = [Pose2D(*rng.uniform(-1, 1, 2), rng.uniform(-1, 1)) for _ in range(5)]
        step = start
        for r in rels:
            step = step.compose(r)
        combined = rels[0]
        for r in rels[1:]:
            combined = combined.compose(r)
        direct = start.compose(combined)
        # matrix-form SE(2) oracle
        def mat(p):
            c, s = math.cos(p.theta), math.sin(p.theta)
            return np.array([[c, -s, p.x], [s, c, p.y], [0, 0, 1]])
        oracle = mat(start)
        for r in rels:
            oracle = oracle @ mat(r)
        for got in (step, direct):
            assert got.x == pytest.approx(oracle[0, 2], abs=1e-12)
            assert got.y == pytest.approx(oracle[1, 2], abs=1e-12)
            assert abs(angle_diff(got.theta, math.atan2(oracle[1, 0], oracle[0, 0]))) < 1e-12


def random_rotation(rng):
    axis = rng.normal(size=3) + 1e-3
    return axis_rotation(axis / np.linalg.norm(axis), rng.uniform(-3, 3))


def test_se3_compose_inverse_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = SE3(rng.normal(size=3), random_rotation(rng))
        r = t @ t.inverse()
        np.testing.assert_allclose(r.translation, 0.0, atol=1e-12)
        np.testing.assert_allclose(r.R, np.eye(3), atol=1e-12)


def test_se3_transform_point_matches_matrix():
    rng = np.random.default_rng(6)
    axis = np.array([0.3, -1.0, 0.5])
    t = SE3(rng.normal(size=3), axis_rotation(axis / np.linalg.norm(axis), 1.2))
    p = rng.normal(size=3)
    m = t.matrix()
    np.testing.assert_allclose(t.transform_point(p), (m @ np.append(p, 1.0))[:3], atol=1e-12)


def test_rotation_stays_orthonormal_long_chains():
    rng = np.random.default_rng(7)
    t = SE3()
    for _ in range(10_000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        t = t @ SE3(rng.normal(size=3) * 0.01, axis_rotation(axis, rng.uniform(-1, 1)))
    assert np.linalg.norm(t.R.T @ t.R - np.eye(3)) <= 1e-9


unit = st.floats(-1.0, 1.0, allow_nan=False)
vec3 = st.tuples(unit, unit, unit)


@st.composite
def transforms(draw):
    axis = np.array(draw(vec3.filter(lambda a: np.linalg.norm(a) > 1e-3)))
    angle = draw(st.floats(-math.pi, math.pi))
    return SE3(2.0 * np.array(draw(vec3)), axis_rotation(axis / np.linalg.norm(axis), angle))


@settings(max_examples=200, deadline=None)
@given(transforms(), transforms(), st.lists(vec3, min_size=1, max_size=6))
def test_se3_operations_match_homogeneous_matrices(a, b, points):
    """compose, inverse, transform_point (one point and N x 3) and rotate_vector
    agree with products of the 4 x 4 matrices."""
    ma, mb = a.matrix(), b.matrix()
    np.testing.assert_allclose((a @ b).matrix(), ma @ mb, atol=1e-12)
    np.testing.assert_allclose(a.inverse().matrix(), np.linalg.inv(ma), atol=1e-12)
    pts = np.array(points)
    homogeneous = np.hstack([pts, np.ones((len(pts), 1))])
    np.testing.assert_allclose(a.transform_point(pts), (homogeneous @ ma.T)[:, :3], atol=1e-12)
    np.testing.assert_allclose(a.transform_point(pts[0]), (ma @ homogeneous[0])[:3], atol=1e-12)
    np.testing.assert_allclose(a.rotate_vector(pts), pts @ ma[:3, :3].T, atol=1e-12)
    np.testing.assert_allclose(a.rotate_vector(pts[0]), ma[:3, :3] @ pts[0], atol=1e-12)


def quat_matrix(q):
    """Rotation matrix of a unit quaternion (w, x, y, z), written out independently."""
    w, x, y, z = q
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


# quat_from_matrix branches on the trace, then on the largest diagonal entry;
# the last three cases sit within 1e-6 of a half turn
@pytest.mark.parametrize("axis, angle, branch", [
    ((1.0, 2.0, 3.0), 0.5, "trace"),
    ((1.0, 0.2, -0.1), math.pi - 1e-7, "x"),
    ((-0.1, 1.0, 0.3), math.pi - 5e-7, "y"),
    ((0.2, 0.1, 1.0), -(math.pi - 1e-6), "z"),
    ((0.0, 0.0, 1.0), math.pi, "z"),
], ids=["trace", "x-near-pi", "y-near-pi", "z-near-pi", "z-half-turn"])
def test_se3_rotation_is_the_unit_quaternion_of_r(axis, angle, branch):
    axis = np.array(axis) / np.linalg.norm(axis)
    R = axis_rotation(axis, angle)
    d = np.diagonal(R)
    taken = ("trace" if d.sum() > 0 else
             "x" if d[0] > d[1] and d[0] > d[2] else "y" if d[1] > d[2] else "z")
    assert taken == branch
    q = SE3(R=R).rotation
    assert q.shape == (4,) and abs(np.linalg.norm(q) - 1.0) <= 1e-15
    np.testing.assert_allclose(quat_matrix(q), R, atol=1e-12)


def test_zyx_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        yaw, pitch, roll = rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)
        got = zyx_from_matrix(zyx_matrix(yaw, pitch, roll))
        assert abs(angle_diff(got[0], yaw)) < 1e-9
        assert got[1] == pytest.approx(pitch, abs=1e-9)
        assert abs(angle_diff(got[2], roll)) < 1e-9


@given(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))
def test_zyx_matrix_is_the_axis_rotation_product(yaw, pitch, roll):
    R = (axis_rotation((0.0, 0.0, 1.0), yaw) @ axis_rotation((0.0, 1.0, 0.0), pitch)
         @ axis_rotation((1.0, 0.0, 0.0), roll))
    assert np.max(np.abs(zyx_matrix(yaw, pitch, roll) - R)) <= 1e-15


def test_pose_error_zero_for_identical():
    t = SE3((1, 2, 3), axis_rotation((0, 0, 1), 0.5))
    dp, dori = pose_error(t, t)
    np.testing.assert_allclose(dp, 0.0, atol=1e-15)
    np.testing.assert_allclose(dori, 0.0, atol=1e-12)
