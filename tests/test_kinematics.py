import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robokit import kinematics
from robokit.config import load_config
from robokit.errors import IkConvergenceError
from robokit.geometry import SE3, axis_rotation, pose_error
from robokit.kinematics import (IkParams, Joint, KinematicChain, forward_kinematics,
                                inverse_kinematics, jacobian, pose_from_pitch_roll)

LAYOUT_ROBOTS = ("locobot", "locobot_lite")
config = functools.lru_cache(maxsize=None)(load_config)


def planar_two_link(l1=1.0, l2=1.0):
    joints = (
        Joint("j1", SE3(), (0, 0, 1), -math.pi, math.pi),
        Joint("j2", SE3((l1, 0, 0)), (0, 0, 1), -math.pi, math.pi),
    )
    return KinematicChain(joints, SE3((l2, 0, 0)))


def random_chain(rng, dof=None):
    dof = dof or int(rng.integers(3, 7))
    joints = []
    for i in range(dof):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        offset = rng.uniform(-0.2, 0.2, 3)
        tilt = rng.normal(size=3) + 1e-2
        origin = SE3(offset, axis_rotation(tilt / np.linalg.norm(tilt), rng.uniform(-1, 1)))
        joints.append(Joint(f"j{i}", origin, tuple(axis), -2.5, 2.5))
    return KinematicChain(tuple(joints), SE3(rng.uniform(-0.1, 0.1, 3)))


def numeric_jacobian(chain, q, h=1e-6):
    J = np.zeros((6, chain.dof))
    for i in range(chain.dof):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fp = forward_kinematics(chain, qp)
        fm = forward_kinematics(chain, qm)
        J[:3, i] = (fp.translation - fm.translation) / (2 * h)
        _, dori = pose_error(fp, fm)
        J[3:, i] = dori / (2 * h)
    return J


def test_fk_zeros_is_product_of_fixed_transforms():
    chain = planar_two_link()
    ee = forward_kinematics(chain, [0.0, 0.0])
    np.testing.assert_allclose(ee.translation, [2.0, 0.0, 0.0], atol=1e-12)


def test_fk_planar_elbow():
    chain = planar_two_link()
    ee = forward_kinematics(chain, [math.pi / 2, -math.pi / 2])
    np.testing.assert_allclose(ee.translation, [1.0, 1.0, 0.0], atol=1e-12)
    # heading back to zero: rotation is identity
    np.testing.assert_allclose(ee.R, np.eye(3), atol=1e-12)


def test_fk_revolute_periodicity():
    chain = planar_two_link()
    rng = np.random.default_rng(0)
    q = rng.uniform(-1, 1, 2)
    a = forward_kinematics(chain, q)
    q2 = q.copy()
    q2[0] += 2 * math.pi
    b = forward_kinematics(chain, q2)
    np.testing.assert_allclose(a.translation, b.translation, atol=1e-9)


def test_fk_determinism():
    chain = planar_two_link()
    q = np.array([0.3, -0.8])
    a = forward_kinematics(chain, q)
    b = forward_kinematics(chain, q)
    assert np.array_equal(a.translation, b.translation)
    assert np.array_equal(a.R, b.R)


def test_fk_dimension_mismatch():
    chain = planar_two_link()
    with pytest.raises(ValueError):
        forward_kinematics(chain, [0.0, 0.0, 0.0])


def test_jacobian_planar_first_column():
    chain = planar_two_link()
    J = jacobian(chain, np.zeros(2))
    np.testing.assert_allclose(J[:3, 0], [0.0, 2.0, 0.0], atol=1e-12)


def test_jacobian_single_z_joint_angular_column():
    chain = KinematicChain((Joint("j", SE3(), (0, 0, 1), -3, 3),), SE3((0.5, 0, 0)))
    J = jacobian(chain, np.zeros(1))
    np.testing.assert_allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-12)


def test_jacobian_matches_finite_differences_random_chains():
    rng = np.random.default_rng(42)
    for _ in range(30):
        chain = random_chain(rng)
        q = rng.uniform(chain.lower_limits, chain.upper_limits)
        J = jacobian(chain, q)
        Jn = numeric_jacobian(chain, q)
        assert np.max(np.abs(J - Jn)) < 1e-5


def test_ik_solved_seed_returns_unchanged():
    cfg = load_config("locobot")
    rng = np.random.default_rng(1)
    q = rng.uniform(cfg.chain.lower_limits, cfg.chain.upper_limits)
    target = forward_kinematics(cfg.chain, q)
    out = inverse_kinematics(cfg.chain, target, q, cfg.ik)
    assert np.array_equal(out, q)


def test_ik_roundtrip_random_targets():
    cfg = load_config("locobot")
    chain = cfg.chain
    rng = np.random.default_rng(2)
    converged = 0
    n = 120
    for i in range(n):
        q = rng.uniform(chain.lower_limits, chain.upper_limits)
        target = forward_kinematics(chain, q)
        try:
            sol = inverse_kinematics(chain, target, cfg.home, cfg.ik, rng_seed=i)
        except IkConvergenceError:
            continue
        converged += 1
        dp, dori = pose_error(target, forward_kinematics(chain, sol))
        assert np.linalg.norm(dp) <= 1e-6
        assert np.linalg.norm(dori) <= 1e-6
        assert np.all(sol >= chain.lower_limits) and np.all(sol <= chain.upper_limits)
    assert converged >= 0.95 * n


def test_ik_unreachable_target_raises():
    cfg = load_config("locobot")
    with pytest.raises(IkConvergenceError) as exc:
        inverse_kinematics(cfg.chain, SE3((10.0, 0.0, 0.3)), cfg.home, cfg.ik)
    assert exc.value.position_residual > 1.0


@pytest.mark.parametrize("name", LAYOUT_ROBOTS)
def test_ik_beyond_reach_raises_without_dls(name):
    cfg = config(name)
    h, l1, l2, d = cfg.chain.closed_form_layout
    # wrist centres past the stretched arm and at the shoulder itself
    for wrist in ((0.0, 0.0, h + l1 + l2 + 1e-3), (l1 + l2 + 0.2, 0.1, h), (0.0, 0.0, h)):
        target = SE3(np.add(wrist, (d, 0.0, 0.0)))
        with no_dls(), pytest.raises(IkConvergenceError) as exc:
            inverse_kinematics(cfg.chain, target, cfg.home, cfg.ik)
        assert exc.value.iterations == 0 and exc.value.position_residual > 1e-3
    # the stretched arm itself is within reach and still solves
    target = forward_kinematics(cfg.chain, [0.3, 0.4, 0.0, 0.2, -0.5])
    q = inverse_kinematics(cfg.chain, target, cfg.home, cfg.ik)
    dp, dori = pose_error(target, forward_kinematics(cfg.chain, q))
    assert np.linalg.norm(dp) <= 1e-6 and np.linalg.norm(dori) <= 1e-6


def test_ik_position_only_mode():
    cfg = load_config("locobot")
    target = SE3((0.40, 0.10, 0.20))
    q = inverse_kinematics(cfg.chain, target, cfg.home, cfg.ik, position_only=True)
    got = forward_kinematics(cfg.chain, q).translation
    assert np.linalg.norm(got - target.translation) <= 1e-6


def test_ik_params_validation():
    with pytest.raises(ValueError):
        IkParams(damping=0.0)
    with pytest.raises(ValueError):
        IkParams(position_tolerance=-1.0)
    with pytest.raises(ValueError):
        IkParams(restarts=-1)
    assert IkParams(restarts=0).restarts == 0


def test_pitch_roll_pose_bearing_yaw():
    pose = pose_from_pitch_roll([0.3, 0.3, 0.2], math.pi / 2, 0.0)
    # approach axis (tool x) points straight down for pitch = pi/2
    approach = pose.rotate_vector([1.0, 0.0, 0.0])
    np.testing.assert_allclose(approach, [0.0, 0.0, -1.0], atol=1e-12)


def test_joint_validation():
    with pytest.raises(ValueError):
        Joint("bad", SE3(), (0, 0, 2.0), -1, 1)  # non-unit axis
    with pytest.raises(ValueError):
        Joint("bad", SE3(), (0, 0, 1.0), 1, -1)  # inverted limits


def no_dls():
    """Fails the test if a solve falls through to damped least squares."""
    return mock.patch.object(kinematics._Solve, "attempt",
                             side_effect=AssertionError("closed form fell through to DLS"))


@pytest.mark.parametrize("target, seed, name", [
    (SE3((math.nan, 0.0, 0.3)), None, "target"),
    (SE3((0.3, 0.0, math.inf)), None, "target"),
    (SE3((0.3, 0.0, 0.3), np.full((3, 3), math.nan)), None, "target"),
    (SE3((0.3, 0.0, 0.3)), [0.0, math.nan, 0.0, 0.0, 0.0], "seed"),
    (SE3((0.3, 0.0, 0.3)), [0.0, 0.0, -math.inf, 0.0, 0.0], "seed"),
])
def test_ik_non_finite_input_fails_fast(target, seed, name):
    cfg = config("locobot")
    seed = cfg.home if seed is None else seed
    with no_dls(), pytest.raises(ValueError, match=name):
        inverse_kinematics(cfg.chain, target, seed, cfg.ik)


def in_limit_joints(chain):
    return st.tuples(*(st.floats(lo, hi) for lo, hi in
                       zip(chain.lower_limits, chain.upper_limits))).map(np.array)


def vertical_on_axis_joints(chain):
    """Shoulder and elbow straight up, wrist pitch ±π/2: the wrist centre is on the
    waist axis and the approach is vertical, so waist and roll form a family."""
    lo, hi = chain.lower_limits, chain.upper_limits
    return st.tuples(st.floats(lo[0], hi[0]), st.just(0.0), st.just(0.0),
                     st.sampled_from([math.pi / 2, -math.pi / 2]),
                     st.floats(lo[4], hi[4])).map(np.array)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LAYOUT_ROBOTS).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.one_of(in_limit_joints(config(name).chain),
                                     vertical_on_axis_joints(config(name).chain)),
                           in_limit_joints(config(name).chain))))
@example(("locobot", np.array([0.5, 0.0, 0.0, math.pi / 2, 0.3]),
          np.array([-1.0, 0.0, 0.0, math.pi / 2, 1.5])))
def test_closed_form_round_trip_in_limits_nearest_seed(case):
    name, q, seed = case
    cfg = config(name)
    chain = cfg.chain
    target = forward_kinematics(chain, q)
    with no_dls():
        sol = inverse_kinematics(chain, target, seed, cfg.ik)
    dp, dori = pose_error(target, forward_kinematics(chain, sol))
    assert np.linalg.norm(dp) <= 1e-6 and np.linalg.norm(dori) <= 1e-6
    assert np.all(sol >= chain.lower_limits) and np.all(sol <= chain.upper_limits)
    # q itself is one of the candidates, so the chosen branch is at least as near.
    # Near a straight elbow the target fixes the elbow only to about sqrt(ulp)
    # (1e-8 rad): there the candidate that stands for q is that far from it
    slack = 1e-9 if abs(math.sin(q[2])) > 1e-3 else 1e-7
    assert np.linalg.norm(sol - seed) <= np.linalg.norm(q - seed) + slack


@pytest.mark.parametrize("name", LAYOUT_ROBOTS)
def test_closed_form_wrist_centre_on_waist_axis(name):
    cfg = config(name)
    chain = cfg.chain
    seed = np.array([0.7, -0.4, 1.1, 0.3, -0.5])
    # shoulder and elbow straight up put the wrist centre on the waist axis. A
    # tilted approach fixes the waist; a vertical one (pitch π/2) fixes only
    # waist - roll = -1.6, and the seed (0.7, -0.5) projects onto that line at
    # (-0.7, 0.9)
    for q, waist in (([-1.2, 0.0, 0.0, 0.8, 0.4], -1.2),
                     ([-1.2, 0.0, 0.0, math.pi / 2, 0.4], -0.7)):
        target = forward_kinematics(chain, q)
        assert np.hypot(*(target.translation - 0.1 * target.R[:, 0])[:2]) < 1e-12
        with no_dls():
            sol = inverse_kinematics(chain, target, seed, cfg.ik)
        assert sol[0] == pytest.approx(waist, abs=1e-12)
        dp, dori = pose_error(target, forward_kinematics(chain, sol))
        assert np.linalg.norm(dp) <= 1e-6 and np.linalg.norm(dori) <= 1e-6


def _moved(chain, index, **changes):
    joints = list(chain.joints)
    joints[index] = dataclasses.replace(joints[index], **changes)
    return KinematicChain(tuple(joints), chain.tool)


def test_closed_form_layout_detection():
    locobot = config("locobot").chain
    assert locobot.closed_form_layout == pytest.approx((0.13, 0.23, 0.22, 0.10))
    assert config("locobot_lite").chain.closed_form_layout == locobot.closed_form_layout
    assert config("sawyer_sim").chain.closed_form_layout is None
    shifted = _moved(locobot, 1, origin=SE3((0.0, 0.01, 0.05)))
    tilted_tool = KinematicChain(locobot.joints, SE3.from_xyz_rpy((0.05, 0.0, 0.0), (0.1, 0.0, 0.0)))
    q = np.array([0.3, 0.4, 0.5, 0.3, 0.2])
    for chain in (shifted, tilted_tool):
        assert chain.closed_form_layout is None
        target = forward_kinematics(chain, q)
        with mock.patch.object(kinematics, "_closed_form",
                               side_effect=AssertionError("closed form on a non-matching chain")):
            sol = inverse_kinematics(chain, target, np.zeros(5), config("locobot").ik)
        dp, dori = pose_error(target, forward_kinematics(chain, sol))
        assert np.linalg.norm(dp) <= 1e-6 and np.linalg.norm(dori) <= 1e-6


def test_position_only_solves_stay_on_dls():
    cfg = config("locobot")
    with mock.patch.object(kinematics, "_closed_form",
                           side_effect=AssertionError("closed form on a position-only solve")):
        q = inverse_kinematics(cfg.chain, SE3((0.40, 0.10, 0.20)), cfg.home, cfg.ik,
                               position_only=True)
    assert np.linalg.norm(forward_kinematics(cfg.chain, q).translation - [0.40, 0.10, 0.20]) <= 1e-6
