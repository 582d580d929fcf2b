"""Brute-force self-tests of the benchmark's oracles on tiny inputs.

Run with `python3 perfbench/test_oracles.py` (or `python3 -m pytest
perfbench/test_oracles.py`). Like the oracles, nothing here imports robokit.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

LOCOBOT_ARM = yaml.safe_load("""
joints:
  - {name: waist,       axis: [0.0, 0.0, 1.0], xyz: [0.0, 0.0, 0.08], limits: [-3.1416, 3.1416]}
  - {name: shoulder,    axis: [0.0, 1.0, 0.0], xyz: [0.0, 0.0, 0.05], limits: [-1.85, 1.85]}
  - {name: elbow,       axis: [0.0, 1.0, 0.0], xyz: [0.0, 0.0, 0.23], limits: [-2.62, 2.62]}
  - {name: wrist_pitch, axis: [0.0, 1.0, 0.0], xyz: [0.0, 0.0, 0.22], limits: [-1.80, 1.80]}
  - {name: wrist_roll,  axis: [1.0, 0.0, 0.0], xyz: [0.05, 0.0, 0.0], limits: [-3.1416, 3.1416]}
tool: {xyz: [0.05, 0.0, 0.0], rpy: [0.0, 0.0, 0.0]}
""")


def _expm_so3(axis, angle, terms=40):
    """Rotation as a truncated power series of the skew matrix (no closed form)."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = angle * np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    out, term = np.eye(3), np.eye(3)
    for i in range(1, terms):
        term = term @ k / i
        out = out + term
    return out


def test_rotations_match_power_series():
    rng = np.random.default_rng(0)
    for _ in range(20):
        axis = rng.normal(size=3)
        angle = rng.uniform(-4, 4)
        assert np.allclose(oracles.rot_axis(axis, angle), _expm_so3(axis, angle), atol=1e-12)


def test_chain_fk_planar_two_link():
    arm = {"joints": [{"axis": [0, 0, 1], "xyz": [0, 0, 0]},
                      {"axis": [0, 0, 1], "xyz": [0.3, 0, 0]}],
           "tool": {"xyz": [0.2, 0, 0]}}
    for q1, q2 in itertools.product(np.linspace(-3, 3, 7), repeat=2):
        T = oracles.chain_fk(arm, [q1, q2])
        expect = [0.3 * math.cos(q1) + 0.2 * math.cos(q1 + q2),
                  0.3 * math.sin(q1) + 0.2 * math.sin(q1 + q2), 0.0]
        assert np.allclose(T[:3, 3], expect, atol=1e-12)
        assert np.allclose(T[:3, :3], oracles.rot_axis((0, 0, 1), q1 + q2), atol=1e-12)


def test_chain_fk_home_pose_of_locobot():
    T = oracles.chain_fk(LOCOBOT_ARM, np.zeros(5))
    assert np.allclose(T[:3, 3], [0.10, 0.0, 0.58], atol=1e-12)
    assert np.allclose(T[:3, :3], np.eye(3), atol=1e-12)


def test_top_down_solutions_reach_their_target():
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(200):
        p = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.4)]
        roll = rng.uniform(-3, 3)
        for q in oracles.top_down_solutions(LOCOBOT_ARM, p, roll):
            hits += 1
            dp, dr = oracles.pose_residual(oracles.chain_fk(LOCOBOT_ARM, q),
                                           oracles.top_down_target(p, roll))
            assert dp < 1e-12 and dr < 1e-6
    assert hits > 50


def test_top_down_reach_agrees_with_joint_grid_search():
    # brute force: sweep shoulder/elbow on a grid, set the wrist so the tool
    # points down, and record which radii at a fixed height are attained
    lo = [j["limits"][0] for j in LOCOBOT_ARM["joints"]]
    hi = [j["limits"][1] for j in LOCOBOT_ARM["joints"]]
    reached = []
    for q1 in np.linspace(lo[1], hi[1], 241):
        for q2 in np.linspace(lo[2], hi[2], 241):
            q3 = math.pi / 2 - q1 - q2
            if not lo[3] <= q3 <= hi[3]:
                continue
            T = oracles.chain_fk(LOCOBOT_ARM, [0.0, q1, q2, q3, 0.0])
            if abs(T[2, 3] - 0.13) < 0.002 and T[0, 3] > 0:
                reached.append(T[0, 3])
    reached = np.array(reached)
    for r in np.linspace(0.05, 0.5, 46):
        closed = bool(oracles.top_down_solutions(LOCOBOT_ARM, [r, 0.0, 0.13]))
        near = np.any(np.abs(reached - r) < 0.004)
        far = not np.any(np.abs(reached - r) < 0.02)
        if closed:
            assert near, r
        if far:
            assert not closed, r


def _unproject(u, v, depth, cam_pose, intrinsics):
    """Base-frame point at optical depth `depth` on the ray through pixel (u, v)."""
    pc = np.array([(u - intrinsics["cx"]) * depth / intrinsics["fx"],
                   (v - intrinsics["cy"]) * depth / intrinsics["fy"], depth])
    return cam_pose[:3, :3] @ pc + cam_pose[:3, 3]


def test_pinhole_round_trip():
    cam = {"mount": {"xyz": [0.0, 0.0, 0.6]}}
    intr = {"fx": 600.0, "fy": 580.0, "cx": 320.0, "cy": 240.0}
    T = oracles.camera_pose(cam, 0.2, 0.7)
    for u, v, d in itertools.product((0.0, 100.5, 639.0), (0.0, 240.0, 479.0), (0.3, 1.1)):
        p = _unproject(u, v, d, T, intr)
        assert np.allclose(oracles.project(p, T, intr)[0], [u, v, d], atol=1e-9)
    # the optical axis looks forward and down by the tilt angle
    axis = T[:3, :3] @ np.array([0.0, 0.0, 1.0])
    assert np.allclose(axis, [math.cos(0.7) * math.cos(0.2), math.cos(0.7) * math.sin(0.2),
                              -math.sin(0.7)], atol=1e-12)


def test_parse_grid_orientation():
    text = "width 3\nheight 2\nresolution 0.5\norigin 0.0 0.0 0.0\n#..\n..?\n"
    res, origin, blocked = oracles.parse_grid(text)
    assert res == 0.5 and origin == (0.0, 0.0)
    assert blocked.shape == (3, 2)
    assert blocked[0, 1] and blocked[2, 0] and blocked.sum() == 2


def test_dilate_matches_loop():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = rng.uniform(size=(9, 7)) < 0.1
        r = int(rng.integers(0, 3))
        expect = b.copy()
        for x, y in np.argwhere(b):
            for dx in range(-r, r + 1):
                for dy in range(-r, r + 1):
                    if dx * dx + dy * dy <= r * r and 0 <= x + dx < 9 and 0 <= y + dy < 7:
                        expect[x + dx, y + dy] = True
        assert np.array_equal(oracles.dilate(b, r), expect)


def _floyd(blocked):
    cells = [tuple(c) for c in np.argwhere(~blocked)]
    idx = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    for c in cells:
        for nb, step in oracles._neighbours(blocked, c):
            d[idx[c], idx[nb]] = step
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return cells, idx, d


def test_dijkstra_and_components_match_floyd_warshall():
    rng = np.random.default_rng(3)
    for _ in range(15):
        b = rng.uniform(size=(6, 5)) < 0.3
        cells, idx, d = _floyd(b)
        comp = oracles.components(b)
        for s in cells[:4]:
            dist = oracles.dijkstra(b, s)
            for c in cells:
                ref = d[idx[s], idx[c]]
                assert (c in dist) == math.isfinite(ref)
                if c in dist:
                    assert abs(dist[c] - ref) < 1e-9
                assert (comp[s] == comp[c]) == math.isfinite(ref)
            near = oracles.dijkstra(b, s, limit=2.5)
            assert near == {c: v for c, v in dist.items() if v <= 2.5}


def _cells_by_clipping(p0, p1, w, h):
    """Liang-Barsky clip against every cell's open box; brute force over the grid."""
    out = set()
    (x0, y0), (x1, y1) = p0, p1
    for ix in range(-1, w + 1):
        for iy in range(-1, h + 1):
            t0, t1 = 0.0, 1.0
            ok = True
            for p, q in ((-(x1 - x0), x0 - ix), (x1 - x0, ix + 1 - x0),
                         (-(y1 - y0), y0 - iy), (y1 - y0, iy + 1 - y0)):
                if p == 0:
                    if q <= 0:
                        ok = False
                    continue
                t = q / p
                if p < 0:
                    t0 = max(t0, t)
                else:
                    t1 = min(t1, t)
            if ok and t1 - t0 > 1e-9:
                tm = 0.5 * (t0 + t1)
                u, v = x0 + tm * (x1 - x0), y0 + tm * (y1 - y0)
                if min(u - ix, ix + 1 - u, v - iy, iy + 1 - v) > 1e-9:
                    out.add((ix, iy))
    return out


def test_segment_cells_match_clipping():
    rng = np.random.default_rng(4)
    for k in range(300):
        if k % 3 == 0:   # cell centres, as planners emit: many exact corner passes
            p0, p1 = (rng.integers(0, 6, size=(2, 2)) + 0.5).tolist()
        else:
            p0, p1 = rng.uniform(0, 6, size=(2, 2)).tolist()
        got = {(ix, iy) for ix, iy, _ in oracles.segment_cells(p0, p1, 1.0, (0.0, 0.0))}
        assert got == _cells_by_clipping(p0, p1, 6, 6), (p0, p1)
    # a diagonal through a corner touches neither side cell
    cells = {(ix, iy) for ix, iy, _ in oracles.segment_cells((0.5, 0.5), (1.5, 1.5), 1.0, (0, 0))}
    assert cells == {(0, 0), (1, 1)}


def test_distance_field_matches_loops():
    rng = np.random.default_rng(5)
    b = rng.uniform(size=(7, 6)) < 0.15
    b[0, 0] = True
    cells = [(x, y) for x in range(7) for y in range(6)]
    got = oracles.distance_field_at(b, 0.1, cells)
    for (x, y), g in zip(cells, got):
        ref = min(math.hypot(x - bx, y - by) for bx, by in np.argwhere(b)) * 0.1
        assert abs(g - ref) < 1e-12


def _dbscan_valid_by_definition(pts, eps, min_pts, labels):
    n = len(pts)
    near = [[j for j in range(n)
             if sum((pts[i][k] - pts[j][k]) ** 2 for k in range(2)) <= eps * eps]
            for i in range(n)]
    core = [len(near[i]) >= min_pts for i in range(n)]
    reach = [[i == j or (core[i] and core[j] and j in near[i]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    for i in range(n):
        if core[i]:
            if labels[i] == -1:
                return False
            for j in range(n):
                if core[j] and (labels[i] == labels[j]) != reach[i][j]:
                    return False
        else:
            cl = {labels[j] for j in near[i] if core[j]}
            if cl and labels[i] not in cl:
                return False
            if not cl and labels[i] != -1:
                return False
    return True


def test_dbscan_validity_matches_definition_on_all_labellings():
    rng = np.random.default_rng(6)
    for _ in range(12):
        pts = rng.uniform(0, 1, size=(5, 2))
        eps = float(rng.uniform(0.2, 0.6))
        min_pts = int(rng.integers(1, 4))
        for labels in itertools.product((-1, 0, 1), repeat=5):
            ok = not oracles.dbscan_violations(pts, eps, min_pts, np.array(labels))
            assert ok == _dbscan_valid_by_definition(pts.tolist(), eps, min_pts, labels)


def test_arc_distance_matches_dense_polyline():
    rng = np.random.default_rng(7)
    centre, r, a0, sweep = (0.3, -0.2), 0.4, -math.pi / 2, 5.0
    ang = np.linspace(a0, a0 + sweep, 200001)
    dense = np.column_stack([centre[0] + r * np.cos(ang), centre[1] + r * np.sin(ang)])
    pts = rng.uniform(-0.6, 1.0, size=(40, 2))
    got = oracles.arc_distance(pts, centre, r, a0, sweep)
    ref = np.array([np.min(np.linalg.norm(dense - p, axis=1)) for p in pts])
    assert np.allclose(got, ref, atol=1e-6)


def test_iso9283_rp_hand_computed():
    # distances from the barycentre (0,0,0): 1, 1, 0 -> l_bar = 2/3, S_l = 1/sqrt(3)
    pts = [(1, 0, 0), (-1, 0, 0), (0, 0, 0)]
    assert abs(oracles.iso9283_rp(pts) - (2 / 3 + math.sqrt(3))) < 1e-12


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
    print(f"{len(tests)} oracle self-tests passed")
