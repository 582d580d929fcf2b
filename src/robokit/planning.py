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

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import Bounded, NoPathError, positive
from .geometry import Pose2D

FREE, OCCUPIED, UNKNOWN = 0, 1, 2
_CHARS = {FREE: ".", OCCUPIED: "#", UNKNOWN: "?"}
_VALUES = {v: k for k, v in _CHARS.items()}
_CODES = np.zeros(256, dtype=np.int8)   # cell value by ASCII code
_CODES[[ord(ch) for ch in _VALUES]] = list(_VALUES.values())


@dataclass
class OccupancyGrid(Bounded):
    """Planar cell map; `cells[ix, iy]` with ix along +x, iy along +y, origin at the (0,0) cell corner."""

    resolution: float = positive()
    origin: Pose2D
    cells: np.ndarray

    def __post_init__(self):
        super().__post_init__()
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
        A radius past the grid's diagonal gives the same mask as the diagonal.
        """
        if not (math.isfinite(radius) and radius >= 0):
            raise ValueError(f"inflation radius must be finite and >= 0, got {radius}")
        r = math.ceil(min(radius / self.resolution - 1e-9, math.hypot(self.width, self.height)))
        return self._derived("inflate", r, lambda: self._dilate(r))

    def _dilate(self, r: int) -> np.ndarray:
        blocked = self.blocked_mask()
        if r <= 0:
            return blocked
        w, h = blocked.shape
        below = np.zeros((w, h + 1), dtype=np.intp)   # below[ix, iy]: blocked cells under row iy
        np.cumsum(blocked, axis=1, out=below[:, 1:])
        iy = np.arange(h)
        out = np.zeros_like(blocked)
        # the disk's column at offset +-dx spans rows -k..k, k = isqrt(r^2 - dx^2)
        for dx in range(min(r, w - 1) + 1):
            k = math.isqrt(r * r - dx * dx)
            hit = below[:, np.minimum(iy + k + 1, h)] > below[:, np.maximum(iy - k, 0)]
            out[:w - dx] |= hit[dx:]
            out[dx:] |= hit[:w - dx]
        return out

    def clearance_field(self) -> np.ndarray:
        """Approximate distance (m) from each cell center to the nearest blocked cell.

        Two-pass 3-4 chamfer transform. The forward pass reads (ix+1, iy-1) before
        visiting it, and the backward pass mirrors that, so the field overestimates
        by up to +37% (a kept fault, ROADMAP item 2).
        Cached, read-only and recomputed after a change to `cells`, like `inflate`.
        """
        return self._derived("clearance", self.resolution, self._chamfer)

    def _chamfer(self) -> np.ndarray:
        d = np.where(self.blocked_mask(), 0, 10 ** 6).astype(np.int64)
        backward = _chamfer_pass(_chamfer_pass(d)[::-1, ::-1])
        return backward[::-1, ::-1].astype(float) / 3.0 * self.resolution

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
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"grid file: row {r + 1} has {len(row)} chars, expected {width}")
            if row.strip("".join(_VALUES)):
                bad = next(ch for ch in row if ch not in _VALUES)
                raise ValueError(f"grid file: invalid cell char {bad!r}")
        text = np.frombuffer("".join(rows).encode(), dtype=np.uint8)
        cells = _CODES[text].reshape(height, width)[::-1].T.copy()   # top row first in the file
        return OccupancyGrid(resolution, Pose2D(ox, oy, oth), cells)

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.dumps())

    @staticmethod
    def load(path) -> "OccupancyGrid":
        with open(path) as f:
            return OccupancyGrid.loads(f.read())


def _chamfer_pass(d0: np.ndarray) -> np.ndarray:
    """One forward 3-4 chamfer sweep, ix ascending, then iy ascending within a column.

    Each cell takes the least of its own value, (ix-1, iy) and (ix, iy-1) plus 3,
    and (ix-1, iy-1) and (ix+1, iy-1) plus 4. The sweep reads (ix+1, iy-1) before it
    visits it, so that candidate is the cell's value from before the sweep. The
    backward sweep is this one on the grid reversed along both axes.
    """
    a = d0.copy()
    np.minimum(a[:-1, 1:], d0[1:, :-1] + 4, out=a[:-1, 1:])
    d = np.empty(d0.shape, dtype=d0.dtype)
    j3 = 3 * np.arange(d0.shape[1])
    for ix in range(d0.shape[0]):
        col = a[ix]
        if ix:
            np.minimum(col, d[ix - 1] + 3, out=col)
            np.minimum(col[1:], d[ix - 1, :-1] + 4, out=col[1:])
        # d[iy] = min(col[iy], d[iy-1] + 3) is a running minimum of col - 3 iy
        d[ix] = np.minimum.accumulate(col - j3) + j3
    return d


_SQRT2 = math.sqrt(2.0)
_MOVES = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
_last_codes = (None, b"")   # (mask shape and bytes, move codes) of the last mask astar saw


def _move_codes(blocked: np.ndarray) -> bytes:
    """One byte per cell of the mask padded by one blocked cell per side, in flat order.

    Bit k is set when move `_MOVES[k]` leads to a free cell and, for a diagonal,
    both orthogonal cells beside it are free (no corner cutting). Padding cells get 0.
    """
    w, h = blocked.shape
    free = np.zeros((w + 2, h + 2), dtype=bool)
    free[1:-1, 1:-1] = ~blocked
    codes = np.zeros((w + 2, h + 2), dtype=np.uint8)
    inner = codes[1:-1, 1:-1]
    for k, (dx, dy) in enumerate(_MOVES):
        ok = free[1 + dx:w + 1 + dx, 1 + dy:h + 1 + dy]
        if dx and dy:
            ok = ok & free[1 + dx:w + 1 + dx, 1:h + 1] & free[1:w + 1, 1 + dy:h + 1 + dy]
        inner |= ok.astype(np.uint8) << k
    return codes.tobytes()


@functools.lru_cache(maxsize=16)
def _move_table(stride: int) -> tuple:
    """For each move code, its allowed moves as (flat offset, dx, dy, cost), in `_MOVES` order."""
    moves = [(dx * stride + dy, dx, dy, _SQRT2 if dx and dy else 1.0) for dx, dy in _MOVES]
    return tuple(tuple(m for k, m in enumerate(moves) if code >> k & 1) for code in range(256))


def astar(blocked: np.ndarray, start: tuple[int, int],
          goal: tuple[int, int]) -> tuple[list[tuple[int, int]], float]:
    """A* over an 8-connected boolean grid (True = blocked); returns (cell path, cost).

    Straight moves cost 1, diagonals sqrt(2); diagonal moves require both
    adjacent orthogonal cells free (no corner cutting). Ties expand the lowest
    (f, h, cell index) first, making the expansion order deterministic.
    Octile-distance heuristic (admissible and consistent for these costs).
    Cells are flat indices into the mask padded by one blocked cell per side,
    which orders them as (ix, iy) does. Each cell's allowed moves come from its
    byte in `_move_codes`; the codes of the last mask seen are kept, keyed on the
    mask's shape and bytes, so queries on one map build them once.
    """
    global _last_codes
    if blocked[start] or blocked[goal]:
        raise NoPathError("start or goal cell is blocked")
    mask = np.asarray(blocked, dtype=bool)
    key = (mask.shape, mask.tobytes())
    if _last_codes[0] != key:
        _last_codes = (key, _move_codes(mask))
    codes = _last_codes[1]
    stride = mask.shape[1] + 2
    table = _move_table(stride)
    gx, gy = goal[0] + 1, goal[1] + 1
    src, dst = (start[0] + 1) * stride + start[1] + 1, gx * stride + gy
    k = _SQRT2 - 2.0
    inf = math.inf

    ax, ay = abs(start[0] + 1 - gx), abs(start[1] + 1 - gy)
    h0 = (ax + ay) + k * min(ax, ay)
    g = {src: 0.0}
    parent = {src: None}
    closed = bytearray(len(codes))
    open_heap = [(h0, h0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while open_heap:
        _, _, cell = pop(open_heap)
        if closed[cell]:
            continue
        if cell == dst:
            path = []
            while cell is not None:
                cx, cy = divmod(cell, stride)
                path.append((cx - 1, cy - 1))
                cell = parent[cell]
            return path[::-1], g[dst]
        closed[cell] = 1
        cx, cy = divmod(cell, stride)
        cx -= gx
        cy -= gy
        gc = g[cell]
        for move, dx, dy, step in table[codes[cell]]:
            n = cell + move
            ng = gc + step
            if ng < g.get(n, inf) - 1e-12:
                g[n] = ng
                parent[n] = cell
                ax = abs(cx + dx)
                ay = abs(cy + dy)
                hn = (ax + ay) + k * (ax if ax < ay else ay)
                push(open_heap, (ng + hn, hn, n))
    raise NoPathError("goal not reachable from start")


def _visible_from(blocked: np.ndarray, grid: OccupancyGrid, p: tuple[float, float],
                  qs: list[tuple[float, float]]) -> list[bool]:
    """`line_of_sight(blocked, grid, p, q)` for each q in qs, from one pass over all samples.

    The segment p-q is sampled at n + 1 points t = k / n, k = 0..n, with n the
    number of quarter cells in its length (at least 1). It is visible when every
    sample lies in a free cell on the grid.
    """
    if not qs:
        return []
    x0, y0 = p
    step = 0.25 * grid.resolution
    ns = [max(1, int(math.ceil(math.hypot(x1 - x0, y1 - y0) / step))) for x1, y1 in qs]
    counts = np.array(ns) + 1
    starts = np.zeros(len(qs), dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    t = (np.arange(counts.sum()) - np.repeat(starts, counts)) / np.repeat(ns, counts)
    q = np.array(qs, dtype=float)
    ix = np.floor((x0 + t * np.repeat(q[:, 0] - x0, counts) - grid.origin.x)
                  / grid.resolution).astype(np.intp)
    iy = np.floor((y0 + t * np.repeat(q[:, 1] - y0, counts) - grid.origin.y)
                  / grid.resolution).astype(np.intp)
    off = (ix < 0) | (ix >= grid.width) | (iy < 0) | (iy >= grid.height)
    bad = off | blocked[np.where(off, 0, ix), np.where(off, 0, iy)]
    return (~np.logical_or.reduceat(bad, starts)).tolist()


def line_of_sight(blocked: np.ndarray, grid: OccupancyGrid,
                  p0: tuple[float, float], p1: tuple[float, float]) -> bool:
    """True when every quarter-cell sample of the segment p0-p1 lies in a free cell on the grid
    (the sampling is `_visible_from`'s)."""
    return _visible_from(blocked, grid, p0, [p1])[0]


def shortcut_path(points: list[tuple[float, float]], blocked: np.ndarray,
                  grid: OccupancyGrid) -> list[tuple[float, float]]:
    """Greedy line-of-sight shortcutting: from each kept point, jump to the farthest visible one.

    Each kept point i tests every later point from i + 2 on in one `_visible_from`
    call and jumps to the last visible one, or else to i + 1.
    """
    if len(points) <= 2:
        return points
    out = [points[0]]
    i = 0
    while i < len(points) - 1:
        seen = _visible_from(blocked, grid, points[i], points[i + 2:])
        j = max((i + 2 + k for k, v in enumerate(seen) if v), default=i + 1)
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
