import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robokit.backends import SimBackend
from robokit.config import load_config
from robokit.errors import NoClustersError
from robokit.geometry import SE3, axis_rotation
from robokit.robot import make_robot
from robokit.sim import CameraIntrinsics, Scene, SceneObject
from robokit.skills import (DbscanParams, ImageGrasp, NOISE, backproject_grasp,
                            backproject_pixel, dbscan, execute_grasp,
                            execute_push, filter_cloud, push_pipeline,
                            select_push)

INTR = CameraIntrinsics(600.0, 600.0, 320.0, 240.0)


def project_point(p_cam, intrinsics: CameraIntrinsics) -> tuple[float, float, float]:
    """Inverse of backproject_pixel: camera-frame point to (u, v, depth)."""
    x, y, z = np.asarray(p_cam, dtype=float)
    if z <= 0:
        raise ValueError("point behind the camera")
    return (intrinsics.fx * x / z + intrinsics.cx,
            intrinsics.fy * y / z + intrinsics.cy, z)


@pytest.fixture(scope="module")
def locobot_cfg():
    return load_config("locobot")


def zero_noise_robot(cfg, scene=None, seed=0):
    return make_robot(cfg, SimBackend(cfg, seed=seed, scene=scene, zero_noise=True))


# --- back-projection ------------------------------------------------------------


def test_backproject_principal_ray():
    p = backproject_pixel(320.0, 240.0, 0.5, INTR)
    np.testing.assert_allclose(p, [0.0, 0.0, 0.5], atol=1e-15)


def test_backproject_similar_triangles():
    p = backproject_pixel(320.0 + 600.0, 240.0, 0.5, INTR)
    assert p[0] == pytest.approx(0.5, abs=1e-15)


def test_project_backproject_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = np.array([rng.uniform(-0.25, 0.25), rng.uniform(-0.18, 0.18),
                      rng.uniform(0.2, 2.0)])
        u, v, z = project_point(p, INTR)
        if not (0 <= u < INTR.width and 0 <= v < INTR.height):
            continue
        back = backproject_pixel(u, v, z, INTR)
        np.testing.assert_allclose(back, p, atol=1e-9)


def test_backproject_grasp_identity_extrinsics():
    grasp = ImageGrasp(u=320.0, v=240.0, angle=0.3, depth=0.5)
    position, roll = backproject_grasp(grasp, INTR, SE3())
    np.testing.assert_allclose(position, [0.0, 0.0, 0.5], atol=1e-12)
    assert roll == pytest.approx(0.3)


def test_backproject_grasp_depth_validation():
    with pytest.raises(ValueError):
        backproject_grasp(ImageGrasp(10, 10, 0.0, -0.1), INTR, SE3())


def test_backproject_grasp_carries_camera_yaw():
    cam = SE3(R=axis_rotation((0, 0, 1), 0.7))
    _, roll = backproject_grasp(ImageGrasp(320, 240, 0.1, 0.5), INTR, cam)
    assert roll == pytest.approx(0.8, abs=1e-9)


# --- grasp execution -------------------------------------------------------------


def test_execute_grasp_completes(locobot_cfg):
    bot = zero_noise_robot(locobot_cfg)
    res = execute_grasp(bot, [0.30, 0.0, 0.0], roll=0.2)
    assert res.reached
    assert [name for name, ok in res.phases] == ["pre_grasp", "descend", "close_gripper"]
    assert bot.gripper.is_closed
    np.testing.assert_allclose(res.ee_pose.translation, [0.30, 0.0, 0.13], atol=1e-4)


def test_execute_grasp_out_of_reach_aborts_at_pre_grasp(locobot_cfg):
    bot = zero_noise_robot(locobot_cfg)
    res = execute_grasp(bot, [1.0, 0.0, 0.0], roll=0.0)
    assert not res.reached
    assert res.phases[-1] == ("pre_grasp", False)
    assert "pre_grasp" in res.detail


def test_execute_push_sweep_out_of_reach_aborts_at_push(locobot_cfg):
    """A move that returns an unreached result ends the skill at its phase, with the
    phases before it kept and its detail prefixed by the phase name."""
    from robokit.skills import PushPlan

    bot = zero_noise_robot(locobot_cfg)
    plan = PushPlan(pre_push_pt=np.array([0.35, 0.0, 0.2]), push_pt=np.array([0.35, 0.0, 0.13]),
                    obj_center=np.array([0.6, 0.0, 0.13]))
    res = execute_push(bot, plan)
    assert not res.reached
    assert res.phases == [("close_gripper", True), ("pre_push", True), ("descend", True),
                          ("push", False)]
    assert res.detail.startswith("push: IK failed at waypoint ")
    assert res.elapsed == bot.sim_time > 0.0
    assert res.path == [] and res.displacement is None


# --- cloud filtering --------------------------------------------------------------


def test_filter_all_floor_removed():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200),
                           rng.normal(0, 0.003, 200)])
    out = filter_cloud(pts, z_floor=0.02, max_range=1.0)
    assert len(out) == 0


def test_filter_far_points_removed():
    pts = np.tile([3.0, 0.0, 0.1], (50, 1))
    assert len(filter_cloud(pts, z_floor=0.02, max_range=2.0)) == 0


def test_filter_keeps_exactly_object_points(locobot_cfg):
    from robokit.sim import TAG_OBJECT

    scene = Scene(objects=[SceneObject("box", SE3((0.36, 0.05, 0.025)), (0.05, 0.05, 0.05))])
    bot = make_robot(locobot_cfg, SimBackend(locobot_cfg, scene=scene, seed=2))
    bot.camera.set_pan_tilt(0.0, 0.7)
    pts, tags = bot.camera.get_point_cloud()
    filtered = filter_cloud(pts, locobot_cfg.skills.z_floor, locobot_cfg.skills.max_range)
    # every surviving point is an object point and most object points survive
    obj = pts[tags == TAG_OBJECT]
    assert len(filtered) > 0.5 * len(obj)
    kept = {tuple(p) for p in np.round(filtered, 9)}
    obj_set = {tuple(p) for p in np.round(obj, 9)}
    assert kept <= obj_set


# --- DBSCAN -----------------------------------------------------------------------


def dbscan_reference(points, eps, min_pts):
    """Classic quadratic region-query implementation (independent oracle)."""
    n = len(points)
    labels = [None] * n
    cluster = -1
    for i in range(n):
        if labels[i] is not None:
            continue
        neigh = [j for j in range(n)
                 if np.hypot(*(points[i] - points[j])) <= eps]
        if len(neigh) < min_pts:
            labels[i] = NOISE
            continue
        cluster += 1
        labels[i] = cluster
        queue = list(neigh)
        while queue:
            j = queue.pop(0)
            if labels[j] == NOISE:
                labels[j] = cluster
            if labels[j] is not None:
                continue
            labels[j] = cluster
            jn = [k for k in range(n)
                  if np.hypot(*(points[j] - points[k])) <= eps]
            if len(jn) >= min_pts:
                queue.extend(jn)
        labels[i] = cluster
    return np.array([NOISE if l is None else l for l in labels])


def relabel_match(a, b):
    """Same partition up to cluster renumbering; noise must match exactly."""
    if len(a) != len(b):
        return False
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x == NOISE:
            continue
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def test_dbscan_two_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal([0, 0], 0.02, (40, 2))
    b = rng.normal([1, 0], 0.02, (40, 2))
    pts = np.vstack([a, b])
    labels = dbscan(pts, DbscanParams(eps=0.1, min_pts=5))
    assert set(labels) == {0, 1}
    assert (labels == NOISE).sum() == 0
    assert len(set(labels[:40])) == 1 and len(set(labels[40:])) == 1


def test_dbscan_min_pts_exceeds_n_all_noise():
    pts = np.random.default_rng(3).normal(size=(8, 2))
    labels = dbscan(pts, DbscanParams(eps=10.0, min_pts=9))
    assert np.all(labels == NOISE)


def test_dbscan_matches_reference_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(15):
        pts = rng.uniform(0, 1, size=(200, 2))
        params = DbscanParams(eps=float(rng.uniform(0.04, 0.12)),
                              min_pts=int(rng.integers(3, 9)))
        ours = dbscan(pts, params)
        ref = dbscan_reference(pts, params.eps, params.min_pts)
        assert relabel_match(ours, ref)


def test_dbscan_permutation_invariance_separated_clusters():
    rng = np.random.default_rng(5)
    a = rng.normal([0, 0], 0.01, (30, 2))
    b = rng.normal([1, 1], 0.01, (30, 2))
    sparse = rng.uniform(3, 4, (5, 2))  # isolated noise
    pts = np.vstack([a, b, sparse])
    params = DbscanParams(eps=0.05, min_pts=4)
    base = dbscan(pts, params)
    perm = rng.permutation(len(pts))
    permuted = dbscan(pts[perm], params)
    assert relabel_match(base[perm], permuted)
    assert np.array_equal((base == NOISE)[perm], permuted == NOISE)


def neighbor_loop_dbscan(points, params):
    """DBSCAN that expands one neighbour at a time from a stack, with a visited set:
    the implementation before frontier expansion, kept verbatim as the oracle for
    exact labels (same ids, same border assignment)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    neighbors = d2 <= params.eps ** 2
    core = neighbors.sum(axis=1) >= params.min_pts
    cluster = 0
    visited = np.zeros(n, dtype=bool)
    for i in range(n):
        if visited[i] or not core[i]:
            continue
        queue = [i]
        visited[i] = True
        labels[i] = cluster
        while queue:
            j = queue.pop()
            if not core[j]:
                continue
            for k in np.nonzero(neighbors[j])[0]:
                if labels[k] == NOISE:
                    labels[k] = cluster
                if not visited[k]:
                    visited[k] = True
                    queue.append(k)
        cluster += 1
    return labels


def _bridged_pair(eps, min_pts):
    """Two dense runs of min_pts points on a line with one point between them, 0.9 eps
    from the nearest point of each run: a border point both clusters reach."""
    run = np.arange(min_pts) * (0.4 * eps / max(1, min_pts - 1))
    bridge = run[-1] + 0.9 * eps
    xs = np.concatenate([run, [bridge], bridge + 0.9 * eps + run])
    return np.column_stack([xs, np.zeros_like(xs)])


@st.composite
def dbscan_cases(draw):
    """Uniform clouds, Gaussian blobs, lattices at spacing exactly eps and bridged
    cluster pairs, mixed and shuffled."""
    eps = draw(st.floats(0.005, 0.2))
    min_pts = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["uniform", "blobs", "lattice", "bridge"]),
                              min_size=1, max_size=3)):
        offset = rng.uniform(-1.0, 1.0, 2)
        if kind == "uniform":
            parts.append(offset + rng.uniform(0.0, 20 * eps, (int(rng.integers(0, 120)), 2)))
        elif kind == "blobs":
            for _ in range(int(rng.integers(1, 4))):
                centre = offset + rng.uniform(0.0, 10 * eps, 2)
                parts.append(rng.normal(centre, eps, (int(rng.integers(1, 40)), 2)))
        elif kind == "lattice":
            nx, ny = rng.integers(1, 12, 2)
            gx, gy = np.meshgrid(np.arange(nx) * eps, np.arange(ny) * eps)
            grid = np.column_stack([gx.ravel(), gy.ravel()])
            parts.append(offset + grid[rng.uniform(size=len(grid)) < 0.8])
        else:
            parts.append(offset + _bridged_pair(eps, min_pts))
    pts = np.vstack(parts)
    return pts[rng.permutation(len(pts))], DbscanParams(eps, min_pts)


@settings(max_examples=300, deadline=None)
@given(dbscan_cases())
def test_dbscan_labels_equal_neighbor_loop(case):
    pts, params = case
    assert np.array_equal(dbscan(pts, params), neighbor_loop_dbscan(pts, params))


def test_dbscan_border_point_keeps_first_cluster():
    params = DbscanParams(eps=0.05, min_pts=4)
    pts = _bridged_pair(params.eps, params.min_pts)
    bridge = params.min_pts
    for order in (np.arange(len(pts)), np.arange(len(pts))[::-1]):
        labels = dbscan(pts[order], params)
        assert set(labels.tolist()) == {0, 1}
        assert labels[np.flatnonzero(order == bridge)[0]] == 0
        assert np.array_equal(labels, neighbor_loop_dbscan(pts[order], params))


# --- push planning ----------------------------------------------------------------


HEIGHTS = {"push_height": 0.13, "pre_push_height": 0.2}


def square_cluster():
    xs, ys = np.meshgrid(np.linspace(0.3, 0.4, 11), np.linspace(-0.05, 0.05, 11))
    return {0: np.column_stack([xs.ravel(), ys.ravel()])}


def test_select_push_point_on_perimeter():
    clusters = square_cluster()
    plan = select_push(clusters, seed=1, **HEIGHTS)
    x, y, z = plan.push_pt
    assert z == 0.13
    on_x_edge = (abs(x - 0.3) < 1e-12 or abs(x - 0.4) < 1e-12) and -0.05 <= y <= 0.05
    on_y_edge = (abs(y + 0.05) < 1e-12 or abs(y - 0.05) < 1e-12) and 0.3 <= x <= 0.4
    assert on_x_edge or on_y_edge
    np.testing.assert_allclose(plan.obj_center[:2], [0.35, 0.0], atol=1e-12)
    np.testing.assert_allclose(plan.pre_push_pt, [x, y, 0.2], atol=1e-15)


def test_select_push_deterministic():
    clusters = square_cluster()
    a = select_push(clusters, seed=42, **HEIGHTS)
    b = select_push(clusters, seed=42, **HEIGHTS)
    np.testing.assert_array_equal(a.push_pt, b.push_pt)
    np.testing.assert_array_equal(a.pre_push_pt, b.pre_push_pt)


def test_select_push_no_clusters():
    with pytest.raises(NoClustersError):
        select_push({}, seed=0, **HEIGHTS)


def test_select_push_perimeter_uniformity():
    # rectangle with 2:1 side ratio; side hit frequencies track side lengths
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [0.2, 0.1], [0.0, 0.1]])
    clusters = {0: pts}
    counts = {"bottom": 0, "right": 0, "top": 0, "left": 0}
    n = 10_000
    for seed in range(n):
        plan = select_push(clusters, seed=seed, **HEIGHTS)
        x, y = plan.push_pt[:2]
        if abs(y) < 1e-12 and x < 0.2:
            counts["bottom"] += 1
        elif abs(x - 0.2) < 1e-12:
            counts["right"] += 1
        elif abs(y - 0.1) < 1e-12:
            counts["top"] += 1
        else:
            counts["left"] += 1
    perimeter = 2 * (0.2 + 0.1)
    for side, length in (("bottom", 0.2), ("right", 0.1), ("top", 0.2), ("left", 0.1)):
        p = length / perimeter
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[side] - n * p) <= 3 * sigma


# --- push execution ----------------------------------------------------------------


def test_execute_push_sweep_exact(locobot_cfg):
    from robokit.skills import PushPlan

    bot = zero_noise_robot(locobot_cfg)
    plan = PushPlan(pre_push_pt=np.array([0.34, 0.08, 0.2]),
                    push_pt=np.array([0.34, 0.08, 0.13]),
                    obj_center=np.array([0.36, 0.05, 0.13]))
    res = execute_push(bot, plan)
    assert res.reached
    expected = 2.0 * (plan.obj_center - plan.push_pt)
    expected[2] = 0.0
    assert np.array_equal(res.displacement, expected)


def test_execute_push_degenerate_zero_sweep(locobot_cfg):
    from robokit.skills import PushPlan

    bot = zero_noise_robot(locobot_cfg)
    c = np.array([0.34, 0.05, 0.13])
    plan = PushPlan(pre_push_pt=np.array([0.34, 0.05, 0.2]), push_pt=c.copy(),
                    obj_center=c.copy())
    res = execute_push(bot, plan)
    assert res.reached
    assert np.array_equal(res.displacement, np.zeros(3))


def test_push_pipeline_end_to_end(locobot_cfg):
    scene = Scene(objects=[SceneObject("box", SE3((0.36, 0.05, 0.025)), (0.05, 0.05, 0.05))])
    bot = zero_noise_robot(locobot_cfg, scene=scene, seed=5)
    plan, result, artifacts = push_pipeline(bot, seed=5)
    assert result.reached
    # commanded sweep is exactly twice the planar center-minus-push vector
    expected = 2.0 * (plan.obj_center - plan.push_pt)
    expected[2] = 0.0
    assert np.array_equal(result.displacement, expected)
    # executed sweep line passes through the cluster centroid within 1 mm
    sweep_pts = [p for p in result.path]
    a = np.array(sweep_pts[-2])
    b = np.array(sweep_pts[-1])
    centroid = plan.obj_center
    d = np.linalg.norm(np.cross(b - a, centroid - a)) / np.linalg.norm(b - a)
    assert d <= 1e-3
    # the cluster sits on the cube
    assert abs(plan.obj_center[0] - 0.36) < 0.02
    assert abs(plan.obj_center[1] - 0.05) < 0.02


def test_push_pipeline_reproducible(locobot_cfg):
    scene = Scene(objects=[SceneObject("box", SE3((0.36, 0.05, 0.025)), (0.05, 0.05, 0.05))])
    p1, r1, _ = push_pipeline(zero_noise_robot(locobot_cfg, scene=scene, seed=9), seed=9)
    p2, r2, _ = push_pipeline(zero_noise_robot(locobot_cfg, scene=scene, seed=9), seed=9)
    assert np.array_equal(p1.push_pt, p2.push_pt)
    assert np.array_equal(r1.displacement, r2.displacement)


def test_push_sweep_formula_exact():
    from robokit.skills import PushPlan, push_sweep

    plan = PushPlan(pre_push_pt=np.array([0.4, 0.2, 0.2]),
                    push_pt=np.array([0.4, 0.2, 0.13]),
                    obj_center=np.array([0.5, 0.2, 0.13]))
    sweep = push_sweep(plan)
    # exact arithmetic identity with the planar center-minus-push vector
    assert np.array_equal(sweep, 2.0 * (plan.obj_center - plan.push_pt) * [1, 1, 0])
    np.testing.assert_allclose(sweep, [0.2, 0.0, 0.0], atol=1e-15)


def test_execute_grasp_at_home_xy(locobot_cfg):
    from robokit.kinematics import forward_kinematics

    bot = zero_noise_robot(locobot_cfg)
    home_xy = forward_kinematics(locobot_cfg.chain, locobot_cfg.home).translation[:2]
    res = execute_grasp(bot, [home_xy[0], home_xy[1], 0.0], roll=0.1)
    assert res.reached
    assert all(ok for _, ok in res.phases)
