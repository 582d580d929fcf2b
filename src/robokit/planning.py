"""Occupancy-grid global planning: A* over the inflated 8-connected grid plus
line-of-sight shortcutting.

Grid file format (bit-exact round trip, see docs/formats.md):

    width 20
    height 10
    resolution 0.1
    origin 0.0 0.0 0.0
    <height rows of width chars, top row first: '.' free '#' occupied '?' unknown>

Unknown cells are treated as obstacles for planning and collision checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPathError
from .geometry import Pose2D

FREE, OCCUPIED, UNKNOWN = 0, 1, 2
_CHARS = {FREE: ".", OCCUPIED: "#", UNKNOWN: "?"}
_VALUES = {v: k for k, v in _CHARS.items()}


@dataclass
class OccupancyGrid:
    """Planar cell map; `cells[ix, iy]` with ix along +x, iy along +y, origin at the (0,0) cell corner."""

    resolution: float
    origin: Pose2D
    cells: np.ndarray

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.origin.theta != 0:
            raise ValueError(f"origin theta must be 0 (rotated grids are not supported), "
                             f"got {self.origin.theta!r}")
        self.cells = np.asarray(self.cells, dtype=np.int8)
        if self.cells.ndim != 2:
            raise ValueError("cells must be 2-D")
        self._cache = {}          # derived field name -> (key, read-only array)
        self._cache_cells = None  # (shape, bytes) of the `cells` the cache was built from

    @property
    def width(self) -> int:
        return self.cells.shape[0]

    @property
    def height(self) -> int:
        return self.cells.shape[1]

    @staticmethod
    def empty(width: int, height: int, resolution: float,
              origin: Pose2D = Pose2D()) -> "OccupancyGrid":
        return OccupancyGrid(resolution, origin, np.full((width, height), FREE, dtype=np.int8))

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor((x - self.origin.x) / self.resolution)),
                int(math.floor((y - self.origin.y) / self.resolution)))

    def cell_to_world(self, ix: int, iy: int) -> tuple[float, float]:
        return (self.origin.x + (ix + 0.5) * self.resolution,
                self.origin.y + (iy + 0.5) * self.resolution)

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.width and 0 <= iy < self.height

    def set_box(self, x0: float, y0: float, x1: float, y1: float, value: int = OCCUPIED):
        """Mark all cells whose centers (as `cell_to_world` gives them) fall inside the
        axis-aligned box."""
        cx = self.origin.x + (np.arange(self.width) + 0.5) * self.resolution
        cy = self.origin.y + (np.arange(self.height) + 0.5) * self.resolution
        self.cells[np.ix_((x0 <= cx) & (cx <= x1), (y0 <= cy) & (cy <= y1))] = value

    # --- obstacle fields ------------------------------------------------

    def blocked_mask(self) -> np.ndarray:
        return self.cells != FREE

    def _derived(self, name: str, key, build) -> np.ndarray:
        """The derived field `name` for `key`, cached until `key` or `cells` change."""
        cells = (self.cells.shape, self.cells.tobytes())
        if cells != self._cache_cells:
            self._cache, self._cache_cells = {}, cells
        hit = self._cache.get(name)
        if hit is None or hit[0] != key:
            hit = self._cache[name] = (key, build())
            hit[1].flags.writeable = False
        return hit[1]

    def inflate(self, radius: float) -> np.ndarray:
        """Blocked mask dilated by a Euclidean disk of `radius` meters.

        Derived fields (this mask, for the last radius asked, and the clearance
        field) are cached per grid, returned read-only, and recomputed on the
        next call after any change to `cells`, whether by `set_box` or a direct write.
        """
        r = int(math.ceil(radius / self.resolution - 1e-9))
        return self._derived("inflate", r, lambda: self._dilate(r))

    def _dilate(self, r: int) -> np.ndarray:
        blocked = self.blocked_mask()
        if r <= 0:
            return blocked
        out = blocked.copy()
        offsets = [(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                   if dx * dx + dy * dy <= r * r and (dx or dy)]
        xs, ys = np.nonzero(blocked)
        w, h = self.width, self.height
        for dx, dy in offsets:
            nx = xs + dx
            ny = ys + dy
            ok = (nx >= 0) & (nx < w) & (ny >= 0) & (ny < h)
            out[nx[ok], ny[ok]] = True
        return out

    def clearance_field(self) -> np.ndarray:
        """Approximate distance (m) from each cell center to the nearest blocked cell.

        Two-pass 3-4 chamfer transform (error <= ~8%); good enough for DWA scoring.
        Cached, read-only and recomputed after a change to `cells`, like `inflate`.
        """
        return self._derived("clearance", self.resolution, self._chamfer)

    def _chamfer(self) -> np.ndarray:
        blocked = self.blocked_mask()
        big = 10 ** 6
        d = np.where(blocked, 0, big).astype(np.int64)
        w, h = self.width, self.height
        for ix in range(w):
            for iy in range(h):
                if d[ix, iy] == 0:
                    continue
                best = d[ix, iy]
                if ix > 0:
                    best = min(best, d[ix - 1, iy] + 3)
                if iy > 0:
                    best = min(best, d[ix, iy - 1] + 3)
                if ix > 0 and iy > 0:
                    best = min(best, d[ix - 1, iy - 1] + 4)
                if ix < w - 1 and iy > 0:
                    best = min(best, d[ix + 1, iy - 1] + 4)
                d[ix, iy] = best
        for ix in range(w - 1, -1, -1):
            for iy in range(h - 1, -1, -1):
                if d[ix, iy] == 0:
                    continue
                best = d[ix, iy]
                if ix < w - 1:
                    best = min(best, d[ix + 1, iy] + 3)
                if iy < h - 1:
                    best = min(best, d[ix, iy + 1] + 3)
                if ix < w - 1 and iy < h - 1:
                    best = min(best, d[ix + 1, iy + 1] + 4)
                if ix > 0 and iy < h - 1:
                    best = min(best, d[ix - 1, iy + 1] + 4)
                d[ix, iy] = best
        return d.astype(float) / 3.0 * self.resolution

    def clearance_at(self, x, y) -> np.ndarray:
        """Clearance (m) at world points; 0 inside blocked cells, +inf outside the grid."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        ix = np.floor((x - self.origin.x) / self.resolution).astype(int)
        iy = np.floor((y - self.origin.y) / self.resolution).astype(int)
        inside = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        out = np.full(x.shape, np.inf)
        field = self.clearance_field()
        out[inside] = field[ix[inside], iy[inside]]
        return out

    # --- file format -----------------------------------------------------

    def dumps(self) -> str:
        lines = [f"width {self.width}", f"height {self.height}",
                 f"resolution {self.resolution!r}",
                 f"origin {self.origin.x!r} {self.origin.y!r} {self.origin.theta!r}"]
        for iy in range(self.height - 1, -1, -1):
            lines.append("".join(_CHARS[int(self.cells[ix, iy])] for ix in range(self.width)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "OccupancyGrid":
        lines = text.splitlines()
        if len(lines) < 4:
            raise ValueError("grid file: missing header")
        header = []
        for i, (key, kind, n, what) in enumerate((
                ("width", int, 1, "a positive integer"),
                ("height", int, 1, "a positive integer"),
                ("resolution", float, 1, "a positive finite number"),
                ("origin", float, 3, "three finite numbers"))):
            parts = lines[i].split()
            if not parts or parts[0] != key:
                raise ValueError(f"grid file: line {i + 1} must start with '{key}'")
            try:
                values = [kind(s) for s in parts[1:]]
            except ValueError:
                values = []
            if len(values) != n or not all(math.isfinite(v) and (v > 0 or key == "origin")
                                           for v in values):
                raise ValueError(f"grid file: line {i + 1}: '{key}' must be {what}, "
                                 f"got {' '.join(parts[1:])!r}")
            header += values
        width, height, resolution, ox, oy, oth = header
        if oth != 0:
            raise ValueError(f"grid file: line 4: origin theta must be 0, got {oth!r}")
        rows = lines[4:4 + height]
        if len(rows) != height:
            raise ValueError(f"grid file: expected {height} rows, got {len(rows)}")
        cells = np.zeros((width, height), dtype=np.int8)
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"grid file: row {r + 1} has {len(row)} chars, expected {width}")
            iy = height - 1 - r
            for ix, ch in enumerate(row):
                if ch not in _VALUES:
                    raise ValueError(f"grid file: invalid cell char {ch!r}")
                cells[ix, iy] = _VALUES[ch]
        return OccupancyGrid(resolution, Pose2D(ox, oy, oth), cells)

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.dumps())

    @staticmethod
    def load(path) -> "OccupancyGrid":
        with open(path) as f:
            return OccupancyGrid.loads(f.read())


_SQRT2 = math.sqrt(2.0)


def astar(blocked: np.ndarray, start: tuple[int, int],
          goal: tuple[int, int]) -> tuple[list[tuple[int, int]], float]:
    """A* over an 8-connected boolean grid (True = blocked); returns (cell path, cost).

    Straight moves cost 1, diagonals sqrt(2); diagonal moves require both
    adjacent orthogonal cells free (no corner cutting). Ties expand the lowest
    (f, h, cell index) first, making the expansion order deterministic.
    Octile-distance heuristic (admissible and consistent for these costs).
    Cells are flat indices into the mask padded by one blocked cell per side,
    which orders them as (ix, iy) does and needs no bounds test.
    """
    if blocked[start] or blocked[goal]:
        raise NoPathError("start or goal cell is blocked")
    stride = blocked.shape[1] + 2
    wall = np.pad(np.asarray(blocked, dtype=bool), 1, constant_values=True).tobytes()
    moves = [(dx * stride + dy, dx, dy, _SQRT2 if dx and dy else 1.0)
             for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    gx, gy = goal[0] + 1, goal[1] + 1
    src, dst = (start[0] + 1) * stride + start[1] + 1, gx * stride + gy

    def heuristic(cx, cy):
        dx = abs(cx - gx)
        dy = abs(cy - gy)
        return (dx + dy) + (_SQRT2 - 2.0) * min(dx, dy)

    g = {src: 0.0}
    parent = {src: None}
    closed = set()
    h0 = heuristic(start[0] + 1, start[1] + 1)
    open_heap = [(h0, h0, src)]
    while open_heap:
        _, _, cell = heapq.heappop(open_heap)
        if cell in closed:
            continue
        if cell == dst:
            path = []
            while cell is not None:
                cx, cy = divmod(cell, stride)
                path.append((cx - 1, cy - 1))
                cell = parent[cell]
            return path[::-1], g[dst]
        closed.add(cell)
        cx, cy = divmod(cell, stride)
        gc = g[cell]
        for move, dx, dy, step in moves:
            n = cell + move     # a diagonal move's two orthogonal cells are n - dy and cell + dy
            if wall[n] or (dx and dy and (wall[n - dy] or wall[cell + dy])):
                continue
            ng = gc + step
            if n not in g or ng < g[n] - 1e-12:
                g[n] = ng
                parent[n] = cell
                hn = heuristic(cx + dx, cy + dy)
                heapq.heappush(open_heap, (ng + hn, hn, n))
    raise NoPathError("goal not reachable from start")


def line_of_sight(blocked: np.ndarray, grid: OccupancyGrid,
                  p0: tuple[float, float], p1: tuple[float, float]) -> bool:
    """True when every quarter-cell sample of the segment p0-p1 lies in a free cell on the grid."""
    (x0, y0), (x1, y1) = p0, p1
    n = max(1, int(math.ceil(math.hypot(x1 - x0, y1 - y0) / (0.25 * grid.resolution))))
    t = np.arange(n + 1) / n
    ix = np.floor((x0 + t * (x1 - x0) - grid.origin.x) / grid.resolution).astype(np.intp)
    iy = np.floor((y0 + t * (y1 - y0) - grid.origin.y) / grid.resolution).astype(np.intp)
    # each index is monotone in t, so the end samples bound all the others
    if not (grid.in_bounds(ix[0], iy[0]) and grid.in_bounds(ix[-1], iy[-1])):
        return False
    return not blocked[ix, iy].any()


def shortcut_path(points: list[tuple[float, float]], blocked: np.ndarray,
                  grid: OccupancyGrid) -> list[tuple[float, float]]:
    """Greedy line-of-sight shortcutting: from each kept point, jump to the farthest visible one."""
    if len(points) <= 2:
        return points
    out = [points[0]]
    i = 0
    while i < len(points) - 1:
        j = len(points) - 1
        while j > i + 1 and not line_of_sight(blocked, grid, points[i], points[j]):
            j -= 1
        out.append(points[j])
        i = j
    return out


def plan_global(grid: OccupancyGrid, start: Pose2D, goal: Pose2D,
                inflation: float = 0.0) -> list[tuple[float, float]]:
    """Collision-free waypoint sequence from start to goal over the inflated grid.

    Raises NoPathError when start/goal are blocked after inflation or the grid
    is disconnected; ValueError when either lies outside the grid bounds.
    """
    s = grid.world_to_cell(start.x, start.y)
    t = grid.world_to_cell(goal.x, goal.y)
    for name, c in (("start", s), ("goal", t)):
        if not grid.in_bounds(*c):
            raise ValueError(f"{name} outside grid bounds")
    blocked = grid.inflate(inflation)
    cells, _ = astar(blocked, s, t)
    points = [(start.x, start.y)]
    points += [grid.cell_to_world(ix, iy) for ix, iy in cells[1:-1]]
    points.append((goal.x, goal.y))
    return shortcut_path(points, blocked, grid)
