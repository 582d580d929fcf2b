"""grid-plan: global planning on seeded occupancy maps with rectangular clutter.

Inputs, built from --seed as map text: a room-sized map (5 m square) and a
building-sized map (10 m square, a 4x4 block of rooms joined by doors), both
at 5 cm cells with rectangular clutter, and 64 queries per map between free
cell centres of its largest component (see _queries). Set-up parses the map
text and builds the inflated mask and the clearance field; robokit keeps only
the field, and plan_global inflates again on every query. One operation is
one inflated `plan_global` query.

Two faults are kept, each on fixed inputs (not from --seed) that fail in
every round. `line_of_sight` samples segments at quarter-cell steps, so a
shortcut can cut through the corner of a blocked inflated cell: two fixed
queries on a fixed map do. The clearance field overestimates distances far
beyond its documented error: one fixed clearance query reads a column of that
map. Seeded candidate queries that would clip are left out when the inputs
are made, so every round fails the same share; the run prints how many.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from robokit import planning
from robokit.geometry import Pose2D

import oracles

RES = 0.05
INFLATION = 0.15
CHAMFER_BOUND = 0.08     # relative error the 3-4 chamfer clearance field documents
# per map: shortest-path costs (cells) its queries aim at (see _queries)
QUERIES = {"room": np.linspace(20, 60, 64), "building": np.linspace(30, 90, 64)}
GOALS_PER_START = 8

# fixed map and queries of the kept fault: cells (x0, y0, x1, y1) inclusive,
# queries between cell centres
FAULT_SIZE = (40, 30)
FAULT_RECTS = ((14, 13, 19, 15), (7, 18, 11, 21), (24, 17, 28, 18))
FAULT_QUERIES = (((21, 8), (34, 27)), ((32, 10), (9, 29)))
# clearance is queried at every cell centre of this column of the fixed map
FAULT_CLEARANCE_COLUMN = 39


def map_text(cells: np.ndarray) -> str:
    w, h = cells.shape
    rows = ["".join("#" if cells[ix, iy] else "." for ix in range(w))
            for iy in range(h - 1, -1, -1)]
    return "\n".join([f"width {w}", f"height {h}", f"resolution {RES!r}",
                      "origin 0.0 0.0 0.0", *rows]) + "\n"


def _walls(cells: np.ndarray) -> None:
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = True


def _clutter(rng, cells: np.ndarray, box, n: int, size=(2, 9)) -> None:
    x0, y0, x1, y1 = box
    for _ in range(n):
        w, h = rng.integers(size[0], size[1] + 1, 2)
        x = int(rng.integers(x0, max(x0 + 1, x1 - w)))
        y = int(rng.integers(y0, max(y0 + 1, y1 - h)))
        cells[x:x + w, y:y + h] = True


def room_map(rng) -> np.ndarray:
    cells = np.zeros((100, 100), dtype=bool)
    _walls(cells)
    _clutter(rng, cells, (6, 6, 94, 94), 40, size=(2, 5))
    return cells


def building_map(rng) -> np.ndarray:
    n, room = 4, 50
    cells = np.zeros((n * room, n * room), dtype=bool)
    _walls(cells)
    for k in range(1, n):
        cells[k * room - 1:k * room + 1, :] = True
        cells[:, k * room - 1:k * room + 1] = True
    for k in range(1, n):
        for j in range(n):
            for vertical in (True, False):
                d = int(rng.integers(j * room + 8, (j + 1) * room - 24))
                if vertical:
                    cells[k * room - 1:k * room + 1, d:d + 16] = False
                else:
                    cells[d:d + 16, k * room - 1:k * room + 1] = False
    for i in range(n):
        for j in range(n):
            _clutter(rng, cells, (i * room + 10, j * room + 10, (i + 1) * room - 10,
                                  (j + 1) * room - 10), 5, size=(2, 5))
    return cells


def fault_map() -> np.ndarray:
    cells = np.zeros(FAULT_SIZE, dtype=bool)
    for x0, y0, x1, y1 in FAULT_RECTS:
        cells[x0:x1 + 1, y0:y1 + 1] = True
    return cells


def _centre(cell) -> tuple[float, float]:
    return ((cell[0] + 0.5) * RES, (cell[1] + 0.5) * RES)


def _path_length(path) -> float:
    return sum(math.dist(a, b) for a, b in zip(path, path[1:]))


def _clipped(path, mask) -> float:
    """Deepest entry (cells) of the path into a blocked cell; 0 when the path is clear."""
    w, h = mask.shape
    deepest = 0.0
    for a, b in zip(path, path[1:]):
        for ix, iy, depth in oracles.segment_cells(a, b, RES, (0.0, 0.0)):
            if not (0 <= ix < w and 0 <= iy < h) or mask[ix, iy]:
                deepest = max(deepest, depth)
    return deepest


def _queries(rng, mask: np.ndarray, targets, grid) -> tuple[list, int]:
    """Clear queries in the largest free component, and how many candidates clipped.

    Planning time grows with the length of the shortest path (A* expansions,
    and shortcutting tries line of sight between many pairs of its points), so
    query i joins a random start to the goal whose shortest-path cost, from
    the independent Dijkstra, is nearest targets[i] cells. The work of a round
    then varies little from seed to seed. Each start serves GOALS_PER_START
    queries.
    """
    comp = oracles.components(mask)
    ids, counts = np.unique(comp[comp >= 0], return_counts=True)
    free = np.argwhere(comp == ids[np.argmax(counts)])
    out, clipped = [], 0
    for i0 in range(0, len(targets), GOALS_PER_START):
        a = tuple(int(v) for v in free[rng.integers(len(free))])
        cost = oracles.dijkstra(mask, a, limit=max(targets) + 10.0)
        cells = sorted(cost)
        dist = np.array([cost[c] for c in cells])
        for target in targets[i0:i0 + GOALS_PER_START]:
            for k in np.argsort(np.abs(dist - target), kind="stable"):
                b = cells[k]
                dist[k] = np.inf          # each goal serves one query
                path = planning.plan_global(grid, Pose2D(*_centre(a)), Pose2D(*_centre(b)),
                                            INFLATION)
                if _clipped(path, mask) > 0.0:
                    clipped += 1
                    continue
                out.append((a, b, cost[b]))
                break
    return out, clipped


class Workload:
    setups = 7

    def __init__(self, seed: int, root, out):
        rng = np.random.default_rng([seed, 2])
        r_cells = int(math.ceil(INFLATION / RES - 1e-9))
        self.maps = {}
        self.clipped = {}
        for kind, cells in (("room", room_map(rng)), ("building", building_map(rng)),
                            ("fault", fault_map())):
            text = map_text(cells)
            _, _, blocked = oracles.parse_grid(text)
            mask = oracles.dilate(blocked, r_cells)
            if kind == "fault":
                queries = [(a, b, None) for a, b in FAULT_QUERIES]
            else:
                queries, self.clipped[kind] = _queries(
                    rng, mask, QUERIES[kind], planning.OccupancyGrid.loads(text))
            self.maps[kind] = {"text": text, "blocked": blocked, "mask": mask,
                               "queries": queries}
        cells = np.array([(FAULT_CLEARANCE_COLUMN, iy) for iy in range(FAULT_SIZE[1])])
        self.fault_clearance = (cells, oracles.distance_field_at(
            self.maps["fault"]["blocked"], RES, cells))

    def notes(self) -> dict:
        return {"kept_faults": f"{len(FAULT_QUERIES)} fixed shortcut-clipping queries and "
                               "1 fixed clearance query per round",
                "seeded_queries_left_out_for_clipping": self.clipped}

    def setup(self, clock):
        state = {}
        for kind, m in self.maps.items():
            grid = planning.OccupancyGrid.loads(m["text"])
            grid.inflate(INFLATION)
            clock.tick()
            grid.clearance_field()
            clock.tick()
            state[kind] = grid
        return state

    def run_round(self, grids, clock, check: bool = False):
        paths = []
        for kind, m in self.maps.items():
            for i, (a, b, _) in enumerate(m["queries"]):
                paths.append(planning.plan_global(grids[kind], Pose2D(*_centre(a)),
                                                  Pose2D(*_centre(b)), INFLATION))
                if i % 4 == 3:
                    clock.tick()
        cells, _ = self.fault_clearance
        centres = (cells + 0.5) * RES
        clearance = grids["fault"].clearance_at(centres[:, 0], centres[:, 1])
        digest = hashlib.sha256(repr((paths, clearance.tolist())).encode())
        fault_ops = len(FAULT_QUERIES) + 1
        return {"attempted": len(paths) + 1, "failed": fault_ops, "digest": digest.hexdigest(),
                "errors": self._check(paths, clearance) if check else []}

    def _check(self, paths, clearance) -> list[str]:
        errors = []
        r_cells = int(math.ceil(INFLATION / RES - 1e-9))
        for kind, m in self.maps.items():
            grid = planning.OccupancyGrid.loads(m["text"])
            if not np.array_equal(grid.inflate(INFLATION), m["mask"]):
                errors.append(f"{kind}: inflated mask differs from the disk dilation "
                              f"by {r_cells} cells")
        paths = iter(paths)
        for kind, m in self.maps.items():
            for a, b, cost in m["queries"]:
                path = next(paths)
                where = f"{kind} query {a}->{b}"
                depth = _clipped(path, m["mask"])
                if kind == "fault":
                    if depth <= 0.0:
                        errors.append(f"{where}: the kept clipping fault no longer shows")
                    continue
                if depth > 0.0:
                    errors.append(f"{where}: path enters a blocked cell {depth:.3f} cells deep")
                if path[0] != _centre(a) or path[-1] != _centre(b):
                    errors.append(f"{where}: path ends {path[0]}, {path[-1]}")
                length = _path_length(path)
                straight = math.dist(_centre(a), _centre(b))
                if not straight - 1e-9 <= length <= cost * RES + 1e-9:
                    errors.append(f"{where}: length {length:.4f} m outside "
                                  f"[{straight:.4f}, {cost * RES:.4f}]")
        _, exact = self.fault_clearance
        if not np.any(np.abs(clearance - exact) > CHAMFER_BOUND * exact):
            errors.append("fixed clearance query: the kept clearance fault no longer shows")
        return errors
