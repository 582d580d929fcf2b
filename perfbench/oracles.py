"""Independent reference computations for checking robokit's outputs.

Nothing here imports robokit: every oracle is rebuilt from the raw inputs
(YAML robot descriptions, map cells, point sets) with numpy and the standard
library only, so a fault shared by robokit and its own tests cannot hide in
both. Each oracle has a brute-force self-test in `test_oracles.py`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# --- rigid-body helpers --------------------------------------------------------


def rot_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a unit axis (Rodrigues)."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rot_rpy(rpy) -> np.ndarray:
    """Fixed-frame roll-pitch-yaw as used by URDF-style descriptions: Rz(yaw) Ry(pitch) Rx(roll)."""
    r, p, y = (float(v) for v in rpy)
    return rot_axis((0, 0, 1), y) @ rot_axis((0, 1, 0), p) @ rot_axis((1, 0, 0), r)


def homogeneous(R: np.ndarray, t) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = R
    m[:3, 3] = np.asarray(t, dtype=float)
    return m


# --- chain forward kinematics from the YAML description -----------------------


def chain_fk(arm: dict, q) -> np.ndarray:
    """4x4 tool pose for joint vector q from a robot YAML's raw `arm` mapping.

    T = prod_i(origin_i * Rot(axis_i, q_i)) * tool, origins given by xyz/rpy.
    """
    joints = arm["joints"]
    q = np.asarray(q, dtype=float)
    if q.shape != (len(joints),):
        raise ValueError(f"expected {len(joints)} joint values, got {q.shape}")
    T = np.eye(4)
    for j, qi in zip(joints, q):
        origin = homogeneous(rot_rpy(j.get("rpy", (0, 0, 0))), j.get("xyz", (0, 0, 0)))
        T = T @ origin @ homogeneous(rot_axis(j["axis"], qi), (0, 0, 0))
    tool = arm.get("tool") or {}
    return T @ homogeneous(rot_rpy(tool.get("rpy", (0, 0, 0))), tool.get("xyz", (0, 0, 0)))


def top_down_target(position, roll: float) -> np.ndarray:
    """4x4 pose with the tool x-axis pointing straight down, yaw along the target bearing.

    Rz(bearing) Ry(pi/2) Rx(roll): the pitch/roll convention of a 5-DOF arm
    whose waist turns about the base z axis.
    """
    x, y = float(position[0]), float(position[1])
    yaw = math.atan2(y, x) if abs(x) > 1e-12 or abs(y) > 1e-12 else 0.0
    R = rot_axis((0, 0, 1), yaw) @ rot_axis((0, 1, 0), math.pi / 2) @ rot_axis((1, 0, 0), roll)
    return homogeneous(R, position)


def pose_residual(T_actual: np.ndarray, T_target: np.ndarray) -> tuple[float, float]:
    """(position error m, rotation angle rad) between two 4x4 poses."""
    dp = float(np.linalg.norm(T_actual[:3, 3] - T_target[:3, 3]))
    R = T_target[:3, :3].T @ T_actual[:3, :3]
    c = min(1.0, max(-1.0, (np.trace(R) - 1.0) / 2.0))
    return dp, math.acos(c)


# --- closed-form top-down reach of the locobot arm -----------------------------


def top_down_solutions(arm: dict, position, roll: float = 0.0) -> list[np.ndarray]:
    """All joint solutions putting the tool at `position` pointing straight down.

    Valid for the locobot layout: a waist about z, three pitch joints about y
    with links along z, a roll joint about x, and x-offsets for the wrist and
    tool. The three pitch angles sum to pi/2, so the wrist-pitch joint sits a
    fixed height above the tool and the shoulder-elbow pair solves a planar
    two-link problem (two elbow branches, two waist headings). Only solutions
    inside the joint limits are returned.
    """
    j = arm["joints"]
    z_shoulder = float(j[0]["xyz"][2] + j[1]["xyz"][2])
    l1 = float(j[2]["xyz"][2])
    l2 = float(j[3]["xyz"][2])
    offset = float(j[4]["xyz"][0] + (arm.get("tool") or {}).get("xyz", (0, 0, 0))[0])
    lo = np.array([jj["limits"][0] for jj in j], dtype=float)
    hi = np.array([jj["limits"][1] for jj in j], dtype=float)
    x, y, z = (float(v) for v in position)
    bearing = math.atan2(y, x) if abs(x) > 1e-12 or abs(y) > 1e-12 else 0.0
    r = math.hypot(x, y)
    out = []
    for waist, radial in ((bearing, r), (bearing + math.pi, -r), (bearing - math.pi, -r)):
        if not lo[0] <= waist <= hi[0]:
            continue
        a = radial
        c = z + offset - z_shoulder
        d2 = a * a + c * c
        cos_q2 = (d2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
        if abs(cos_q2) > 1.0:
            continue
        for q2 in (math.acos(cos_q2), -math.acos(cos_q2)):
            # link directions are measured from the vertical: (sin, cos)
            q1 = math.atan2(a, c) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
            q3 = math.pi / 2 - q1 - q2
            # the roll joint turns about the tool axis; flipping the waist by pi
            # turns the tool frame about it by pi as well
            q4 = math.remainder(roll if radial >= 0 else roll + math.pi, 2.0 * math.pi)
            q = np.array([waist, q1, q2, q3, q4])
            if np.all(q >= lo) and np.all(q <= hi):
                out.append(q)
    return out


def top_down_margin(arm: dict, position) -> float:
    """Largest distance (rad) of any top-down solution from its joint limits; -inf if none."""
    j = arm["joints"]
    lo = np.array([jj["limits"][0] for jj in j], dtype=float)
    hi = np.array([jj["limits"][1] for jj in j], dtype=float)
    best = -math.inf
    for q in top_down_solutions(arm, position):
        best = max(best, float(np.min(np.minimum(q - lo, hi - q)[:4])))
    return best


# --- pinhole camera -------------------------------------------------------------

# optical frame (x right, y down, z forward) expressed in the camera body frame
# (x forward, y left, z up)
OPTICAL_IN_BODY = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def camera_pose(camera: dict, pan: float, tilt: float) -> np.ndarray:
    """4x4 optical-frame pose in the base frame from a robot YAML's raw `camera` mapping."""
    mount = camera.get("mount") or {}
    M = homogeneous(rot_rpy(mount.get("rpy", (0, 0, 0))), mount.get("xyz", (0, 0, 0)))
    R = rot_axis((0, 0, 1), pan) @ rot_axis((0, 1, 0), tilt) @ OPTICAL_IN_BODY
    return M @ homogeneous(R, (0, 0, 0))


def project(points, cam_pose: np.ndarray, intrinsics: dict) -> np.ndarray:
    """Pinhole projection of base-frame points: rows (u, v, depth)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    pc = (p - cam_pose[:3, 3]) @ cam_pose[:3, :3]
    z = pc[:, 2]
    u = intrinsics["fx"] * pc[:, 0] / z + intrinsics["cx"]
    v = intrinsics["fy"] * pc[:, 1] / z + intrinsics["cy"]
    return np.column_stack([u, v, z])


# --- occupancy grids --------------------------------------------------------------


def parse_grid(text: str) -> tuple[float, tuple[float, float], np.ndarray]:
    """(resolution, origin xy, blocked[ix, iy]) from the plain-text map format."""
    lines = text.splitlines()
    width = int(lines[0].split()[1])
    height = int(lines[1].split()[1])
    res = float(lines[2].split()[1])
    ox, oy = (float(s) for s in lines[3].split()[1:3])
    rows = np.array([list(r) for r in lines[4:4 + height]])
    blocked = (rows != ".")[::-1].T      # top row first in the file; cells[ix, iy]
    if blocked.shape != (width, height):
        raise ValueError("grid text does not match its header")
    return res, (ox, oy), np.ascontiguousarray(blocked)


def dilate(blocked: np.ndarray, radius_cells: int) -> np.ndarray:
    """Blocked mask grown by every offset with dx^2 + dy^2 <= r^2 (cells)."""
    out = blocked.copy()
    w, h = blocked.shape
    r = radius_cells
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            if dx * dx + dy * dy > r * r or (dx == 0 and dy == 0):
                continue
            src = blocked[max(0, -dx):w - max(0, dx), max(0, -dy):h - max(0, dy)]
            out[max(0, dx):w - max(0, -dx), max(0, dy):h - max(0, -dy)] |= src
    return out


def _neighbours(blocked: np.ndarray, cell):
    """8-connected moves without corner cutting: (cell, step cost)."""
    w, h = blocked.shape
    cx, cy = cell
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < w and 0 <= ny < h) or blocked[nx, ny]:
                continue
            if dx and dy and (blocked[cx + dx, cy] or blocked[cx, cy + dy]):
                continue
            yield (nx, ny), (math.sqrt(2.0) if dx and dy else 1.0)


def dijkstra(blocked: np.ndarray, start, limit: float = math.inf) -> dict:
    """Shortest 8-connected path cost (cells) from `start` to every free cell within `limit`."""
    start = tuple(start)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        if d > limit:
            break
        for n, step in _neighbours(blocked, cell):
            nd = d + step
            if nd < dist.get(n, math.inf) - 1e-12:
                dist[n] = nd
                heapq.heappush(heap, (nd, n))
    return {c: d for c, d in dist.items() if d <= limit}


def components(blocked: np.ndarray) -> np.ndarray:
    """Connected-component id of every free cell under the same move rule (-1 blocked)."""
    w, h = blocked.shape
    comp = np.full((w, h), -1, dtype=np.int64)
    cid = 0
    for ix in range(w):
        for iy in range(h):
            if blocked[ix, iy] or comp[ix, iy] >= 0:
                continue
            comp[ix, iy] = cid
            stack = [(ix, iy)]
            while stack:
                c = stack.pop()
                for n, _ in _neighbours(blocked, c):
                    if comp[n] < 0:
                        comp[n] = cid
                        stack.append(n)
            cid += 1
    return comp


def segment_cells(p0, p1, res: float, origin) -> list[tuple[int, int, float]]:
    """Exact traversal: every cell whose open interior the segment p0-p1 passes through.

    Returns (ix, iy, depth) per cell, depth being the deepest point of the
    segment inside the cell measured from the cell border, in cells. A segment
    that only grazes an edge or a corner enters no cell there.
    """
    u0, v0 = (p0[0] - origin[0]) / res, (p0[1] - origin[1]) / res
    u1, v1 = (p1[0] - origin[0]) / res, (p1[1] - origin[1]) / res
    ts = {0.0, 1.0}
    for a0, a1 in ((u0, u1), (v0, v1)):
        if a1 != a0:
            lo, hi = sorted((a0, a1))
            for k in range(math.floor(lo) + 1, math.ceil(hi)):
                ts.add((k - a0) / (a1 - a0))
    ts = sorted(t for t in ts if 0.0 <= t <= 1.0)
    out = []
    for ta, tb in zip(ts, ts[1:]):
        if tb - ta <= 1e-12:
            continue
        tm = 0.5 * (ta + tb)
        ix = math.floor(u0 + tm * (u1 - u0))
        iy = math.floor(v0 + tm * (v1 - v0))
        depth = 0.0
        for k in range(33):
            t = ta + (tb - ta) * k / 32
            u = u0 + t * (u1 - u0)
            v = v0 + t * (v1 - v0)
            depth = max(depth, min(u - ix, ix + 1 - u, v - iy, iy + 1 - v))
        if depth > 1e-9:
            out.append((ix, iy, depth))
    return out


def distance_field_at(blocked: np.ndarray, res: float, cells) -> np.ndarray:
    """Brute-force Euclidean distance (m) from given cell centres to the nearest blocked centre."""
    b = np.argwhere(blocked).astype(float)
    c = np.asarray(cells, dtype=float).reshape(-1, 2)
    out = np.empty(len(c))
    for i in range(0, len(c), 256):
        chunk = c[i:i + 256]
        d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        out[i:i + 256] = np.sqrt(d2.min(axis=1)) * res
    return out


# --- DBSCAN labelling validity ---------------------------------------------------


def dbscan_violations(points, eps: float, min_pts: int, labels, noise: int = -1) -> list[str]:
    """Why `labels` is not a valid DBSCAN labelling of `points` (empty list when valid).

    Core points have >= min_pts points within eps (inclusive, self counted).
    Valid means: core points share a label exactly when they are connected in
    the core-core eps graph; every non-core point with a core neighbour
    carries the label of one such neighbour; every other point is noise.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = len(pts)
    if labels.shape != (n,):
        return [f"{labels.shape[0] if labels.ndim else 0} labels for {n} points"]
    nbrs = []
    for i in range(0, n, 512):
        d2 = ((pts[i:i + 512, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        nbrs.extend(np.nonzero(row)[0] for row in d2 <= eps * eps)
    core = np.array([len(nb) >= min_pts for nb in nbrs], dtype=bool)

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in np.nonzero(core)[0]:
        for j in nbrs[i]:
            if core[j]:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    problems = []
    comp_label: dict = {}
    label_comp: dict = {}
    for i in np.nonzero(core)[0]:
        root, lab = find(i), int(labels[i])
        if lab == noise:
            problems.append(f"core point {i} labelled noise")
            continue
        if comp_label.setdefault(root, lab) != lab:
            problems.append(f"core component of point {i} carries two labels")
        if label_comp.setdefault(lab, root) != root:
            problems.append(f"label {lab} spans two core components")
    for i in np.nonzero(~core)[0]:
        core_labels = {int(labels[j]) for j in nbrs[i] if core[j]}
        lab = int(labels[i])
        if core_labels and lab not in core_labels:
            problems.append(f"border point {i} labelled {lab}, "
                            f"neighbouring cores {sorted(core_labels)}")
        if not core_labels and lab != noise:
            problems.append(f"point {i} has no core neighbour but label {lab}")
    return problems


# --- circle tracking ------------------------------------------------------------------


def arc_distance(points, centre, radius: float, start_angle: float, sweep: float) -> np.ndarray:
    """Distance from 2-D points to the circular arc from start_angle sweeping `sweep` rad (ccw)."""
    p = np.asarray(points, dtype=float).reshape(-1, 2) - np.asarray(centre, dtype=float)
    ang = np.arctan2(p[:, 1], p[:, 0])
    rel = np.mod(ang - start_angle, 2.0 * math.pi)
    on_arc = rel <= sweep
    d_circle = np.abs(np.hypot(p[:, 0], p[:, 1]) - radius)
    ends = [radius * np.array([math.cos(a), math.sin(a)])
            for a in (start_angle, start_angle + sweep)]
    d_ends = np.minimum(np.linalg.norm(p - ends[0], axis=1), np.linalg.norm(p - ends[1], axis=1))
    return np.where(on_arc, d_circle, d_ends)


# --- ISO 9283 position repeatability ----------------------------------------------------


def iso9283_rp(points) -> float:
    """RP = l_bar + 3 S_l over distances of attained points from their barycentre."""
    pts = [tuple(float(c) for c in p) for p in points]
    n = len(pts)
    bary = [sum(p[k] for p in pts) / n for k in range(3)]
    l = [math.sqrt(sum((p[k] - bary[k]) ** 2 for k in range(3))) for p in pts]
    lbar = sum(l) / n
    s = math.sqrt(sum((x - lbar) ** 2 for x in l) / (n - 1))
    return lbar + 3.0 * s
