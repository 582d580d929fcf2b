import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robokit.errors import NoPathError
from robokit.geometry import Pose2D
from robokit.planning import (OCCUPIED, UNKNOWN, OccupancyGrid, _visible_from, astar, line_of_sight,
                              plan_global, shortcut_path)


def dijkstra_cost(blocked, start, goal):
    """Reference shortest-path cost with the same neighbor rule as astar."""
    w, h = blocked.shape
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if d > dist.get(cell, math.inf):
            continue
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = cx + dx, cy + dy
                if not (0 <= nx < w and 0 <= ny < h) or blocked[nx, ny]:
                    continue
                if dx != 0 and dy != 0 and (blocked[cx + dx, cy] or blocked[cx, cy + dy]):
                    continue
                nd = d + (math.sqrt(2) if dx and dy else 1.0)
                if nd < dist.get((nx, ny), math.inf) - 1e-12:
                    dist[(nx, ny)] = nd
                    heapq.heappush(heap, (nd, (nx, ny)))
    return None


def reference_line_of_sight(blocked, grid, p0, p1):
    """Scalar line of sight: every quarter-cell sample, in order, lies in a free cell."""
    (x0, y0), (x1, y1) = p0, p1
    n = max(1, int(math.ceil(math.hypot(x1 - x0, y1 - y0) / (0.25 * grid.resolution))))
    for i in range(n + 1):
        t = i / n
        ix, iy = grid.world_to_cell(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        if not grid.in_bounds(ix, iy) or blocked[ix, iy]:
            return False
    return True


def reference_astar(blocked, start, goal):
    """Tuple-keyed A* with the same costs, heuristic and (f, h, ix * height + iy) tie-break."""
    w, h = blocked.shape
    if blocked[start] or blocked[goal]:
        raise NoPathError("start or goal cell is blocked")

    def heuristic(c):
        dx = abs(c[0] - goal[0])
        dy = abs(c[1] - goal[1])
        return (dx + dy) + (math.sqrt(2.0) - 2.0) * min(dx, dy)

    g = {start: 0.0}
    parent = {start: None}
    closed = set()
    heap = [(heuristic(start), heuristic(start), start[0] * h + start[1], start)]
    while heap:
        _, _, _, cell = heapq.heappop(heap)
        if cell in closed:
            continue
        if cell == goal:
            path = []
            while cell is not None:
                path.append(cell)
                cell = parent[cell]
            return path[::-1], g[goal]
        closed.add(cell)
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = cx + dx, cy + dy
                if (dx == 0 and dy == 0) or not (0 <= nx < w and 0 <= ny < h) or blocked[nx, ny]:
                    continue
                if dx != 0 and dy != 0 and (blocked[cx + dx, cy] or blocked[cx, cy + dy]):
                    continue
                ng = g[cell] + (math.sqrt(2.0) if dx != 0 and dy != 0 else 1.0)
                n = (nx, ny)
                if n not in g or ng < g[n] - 1e-12:
                    g[n] = ng
                    parent[n] = cell
                    hn = heuristic(n)
                    heapq.heappush(heap, (ng + hn, hn, nx * h + ny, n))
    raise NoPathError("goal not reachable from start")


@st.composite
def blocked_grids(draw, max_side=24):
    """A (width, height) boolean mask with a random obstacle density (zero included)."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    density = draw(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.4]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).uniform(size=(w, h)) < density


@settings(max_examples=300, deadline=None)
@given(blocked_grids(), st.sampled_from([0.05, 0.1, 0.3, 1.0, 0.07]),
       st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
       st.lists(st.floats(-0.3, 1.3), min_size=4, max_size=4))
def test_line_of_sight_matches_scalar_reference(blocked, res, origin, ends):
    """Equal booleans on random grids and segments, including segments that leave the grid."""
    w, h = blocked.shape
    grid = OccupancyGrid(res, Pose2D(origin[0], origin[1], 0.0), blocked.astype(np.int8))
    p0 = (origin[0] + ends[0] * w * res, origin[1] + ends[1] * h * res)
    p1 = (origin[0] + ends[2] * w * res, origin[1] + ends[3] * h * res)
    assert line_of_sight(blocked, grid, p0, p1) == reference_line_of_sight(blocked, grid, p0, p1)


def _mirrored_wall(transpose: bool) -> np.ndarray:
    blocked = np.zeros((5, 5), dtype=bool)
    blocked[1:4, 2] = True
    return blocked.T if transpose else blocked


@settings(max_examples=200, deadline=None)
# a wall across the middle of a 5x5 grid, start and goal on its mirror axis: the two
# detours tie in f and h, so only the cell-index tie-break picks the side
@example(_mirrored_wall(False), (0.5, 0.0, 0.5, 0.9))
@example(_mirrored_wall(True), (0.0, 0.5, 0.9, 0.5))
@given(blocked_grids(), st.tuples(st.floats(0, 1, exclude_max=True),
                                  st.floats(0, 1, exclude_max=True),
                                  st.floats(0, 1, exclude_max=True),
                                  st.floats(0, 1, exclude_max=True)))
def test_astar_matches_tuple_reference(blocked, where):
    """Equal paths and costs, or both no path, on grids empty or cluttered."""
    w, h = blocked.shape
    start = (int(where[0] * w), int(where[1] * h))
    goal = (int(where[2] * w), int(where[3] * h))
    try:
        expected = reference_astar(blocked, start, goal)
    except NoPathError:
        with pytest.raises(NoPathError):
            astar(blocked, start, goal)
        return
    assert astar(blocked, start, goal) == expected


@settings(max_examples=300, deadline=None)
@given(st.data(), blocked_grids(), st.sampled_from([0.05, 0.1, 0.3, 1.0, 0.07]),
       st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_visible_from_matches_scalar_reference(data, blocked, res, origin):
    """One batched pass equals the scalar reference for every q: off-grid ends, q == p and
    an empty list included."""
    w, h = blocked.shape
    grid = OccupancyGrid(res, Pose2D(origin[0], origin[1], 0.0), blocked.astype(np.int8))
    ends = st.tuples(st.floats(-0.3, 1.3), st.floats(-0.3, 1.3))
    fx, fy = data.draw(ends)
    p = (origin[0] + fx * w * res, origin[1] + fy * h * res)
    qs = [(origin[0] + a * w * res, origin[1] + b * h * res)
          for a, b in data.draw(st.lists(ends, max_size=8))]
    qs.insert(data.draw(st.integers(0, len(qs))), p)      # a zero-length segment
    qs = qs[:data.draw(st.integers(0, len(qs)))]
    assert _visible_from(blocked, grid, p, qs) == [reference_line_of_sight(blocked, grid, p, q)
                                                   for q in qs]


def _path_or_none(find, blocked, start, goal):
    try:
        return find(blocked, start, goal)
    except NoPathError:
        return None


def test_astar_rebuilds_its_moves_when_the_mask_changes():
    """A wall with its gap at one end, then the other, then the first again: each query
    takes its own mask's detour, so moves kept from the previous mask would show."""
    a = np.zeros((9, 9), dtype=bool)
    a[4, 1:] = True
    b = np.zeros((9, 9), dtype=bool)
    b[4, :-1] = True
    for blocked in (a, b, a, b.copy(), a.copy()):
        assert astar(blocked, (0, 4), (8, 4)) == reference_astar(blocked, (0, 4), (8, 4))


@settings(max_examples=200, deadline=None)
@given(blocked_grids(), st.integers(0, 2 ** 32 - 1))
def test_astar_on_alternating_masks_matches_tuple_reference(a, seed):
    """astar on mask A, then B (same shape, other cells), then A again equals the
    reference each time."""
    rng = np.random.default_rng(seed)
    b = a.copy()
    flip = rng.integers(0, a.size, max(1, a.size // 4))
    b.flat[flip] = ~b.flat[flip]
    w, h = a.shape
    start = (int(rng.integers(w)), int(rng.integers(h)))
    goal = (int(rng.integers(w)), int(rng.integers(h)))
    for blocked in (a, b, a):
        assert (_path_or_none(astar, blocked, start, goal)
                == _path_or_none(reference_astar, blocked, start, goal))


def sequential_shortcut_path(points, blocked, grid):
    """The one-segment-at-a-time shortcut loop: from each kept point, test j = last, last - 1,
    ... down to i + 2 and stop at the first visible one."""
    if len(points) <= 2:
        return points
    out = [points[0]]
    i = 0
    while i < len(points) - 1:
        j = len(points) - 1
        while j > i + 1 and not reference_line_of_sight(blocked, grid, points[i], points[j]):
            j -= 1
        out.append(points[j])
        i = j
    return out


@settings(max_examples=200, deadline=None)
@given(blocked_grids(max_side=30), st.sampled_from([0.05, 0.1, 0.3, 1.0, 0.07]),
       st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
       st.tuples(*[st.floats(0, 1, exclude_max=True)] * 4))
def test_shortcut_path_matches_sequential_loop(blocked, res, origin, where):
    """Equal waypoints on A* paths over random grids, with start and goal anywhere in their
    cells as plan_global gives them."""
    w, h = blocked.shape
    grid = OccupancyGrid(res, Pose2D(origin[0], origin[1], 0.0), blocked.astype(np.int8))
    fx = [where[0] * w, where[2] * w]
    fy = [where[1] * h, where[3] * h]
    found = _path_or_none(astar, blocked, (int(fx[0]), int(fy[0])), (int(fx[1]), int(fy[1])))
    if found is None:
        return
    cells, _ = found
    points = [(origin[0] + fx[0] * res, origin[1] + fy[0] * res)]
    points += [grid.cell_to_world(ix, iy) for ix, iy in cells[1:-1]]
    points.append((origin[0] + fx[1] * res, origin[1] + fy[1] * res))
    assert shortcut_path(points, blocked, grid) == sequential_shortcut_path(points, blocked, grid)


def reference_set_box(grid, x0, y0, x1, y1, value):
    """The per-cell definition: mark every cell whose `cell_to_world` center lies in the box."""
    for ix in range(grid.width):
        for iy in range(grid.height):
            cx, cy = grid.cell_to_world(ix, iy)
            if x0 <= cx <= x1 and y0 <= cy <= y1:
                grid.cells[ix, iy] = value


@st.composite
def box_edges(draw, origin, res, n):
    """A box edge anywhere around the grid, or exactly on a cell center (the boundary case)."""
    if draw(st.booleans()):
        return origin + (draw(st.integers(-2, n + 2)) + 0.5) * res
    return draw(st.floats(origin - res, origin + (n + 1) * res))


@settings(max_examples=300, deadline=None)
@given(st.data(), blocked_grids(max_side=20), st.sampled_from([0.05, 0.1, 0.3, 1.0, 0.07]),
       st.tuples(st.floats(-5, 5), st.floats(-5, 5)), st.sampled_from([1, 2]))
def test_set_box_matches_per_cell_reference(data, blocked, res, origin, value):
    """Equal cells on random grids, boxes, origins and resolutions, boxes with
    edges on cell centers and empty (inverted) boxes included."""
    w, h = blocked.shape
    grid = OccupancyGrid(res, Pose2D(origin[0], origin[1], 0.0), blocked.astype(np.int8))
    ref = OccupancyGrid(res, Pose2D(origin[0], origin[1], 0.0), blocked.astype(np.int8))
    x0, x1 = (data.draw(box_edges(origin[0], res, w)) for _ in range(2))
    y0, y1 = (data.draw(box_edges(origin[1], res, h)) for _ in range(2))
    grid.set_box(x0, y0, x1, y1, value)
    reference_set_box(ref, x0, y0, x1, y1, value)
    assert np.array_equal(grid.cells, ref.cells)


def reference_chamfer(cells, resolution):
    """The scalar two-pass 3-4 chamfer, kept fault included: the forward pass reads
    (ix+1, iy-1) before it visits it, and the backward pass mirrors that."""
    blocked = cells != 0
    big = 10 ** 6
    d = np.where(blocked, 0, big).astype(np.int64)
    w, h = blocked.shape
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
    return d.astype(float) / 3.0 * resolution


def reference_dilate(blocked, r):
    """The offset loop: every blocked cell marks each disk offset dx^2 + dy^2 <= r^2."""
    if r <= 0:
        return blocked
    out = blocked.copy()
    offsets = [(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
               if dx * dx + dy * dy <= r * r and (dx or dy)]
    xs, ys = np.nonzero(blocked)
    w, h = blocked.shape
    for dx, dy in offsets:
        nx = xs + dx
        ny = ys + dy
        ok = (nx >= 0) & (nx < w) & (ny >= 0) & (ny < h)
        out[nx[ok], ny[ok]] = True
    return out


def reference_parse_cells(text):
    """The per-character parser of a valid grid file's rows, top row first."""
    lines = text.splitlines()
    width, height = int(lines[0].split()[1]), int(lines[1].split()[1])
    values = {".": 0, "#": 1, "?": 2}
    cells = np.zeros((width, height), dtype=np.int8)
    for r, row in enumerate(lines[4:4 + height]):
        for ix, ch in enumerate(row):
            cells[ix, height - 1 - r] = values[ch]
    return cells


@st.composite
def cell_grids(draw, max_side=30):
    """int8 cells of any shape from 1x1, strips included, from no blocked cell to all
    blocked, some of them unknown."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    unknown = draw(st.sampled_from([0.0, 0.0, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = (rng.uniform(size=(w, h)) < density).astype(np.int8)
    cells[rng.uniform(size=(w, h)) < unknown] = UNKNOWN
    return cells


def _assert_same_array(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@example(np.zeros((1, 23), np.int8), 0.1)
@example(np.eye(19, 1, -7, dtype=np.int8), 0.05)
@example(np.ones((6, 4), np.int8), 1.0)
@given(cell_grids(), st.sampled_from([0.05, 0.1, 0.3, 1.0, 0.07]))
def test_clearance_field_matches_scalar_chamfer(cells, res):
    """The column scan gives the scalar chamfer's bytes, its overestimate included."""
    grid = OccupancyGrid(res, Pose2D(), cells)
    _assert_same_array(grid.clearance_field(), reference_chamfer(cells, res))


@settings(max_examples=300, deadline=None)
@given(st.data(), cell_grids(max_side=14))
def test_dilate_matches_offset_loop(data, cells):
    """The per-row dilation gives the offset loop's mask, for radii from 0 past the diagonal."""
    w, h = cells.shape
    r = data.draw(st.integers(0, math.ceil(math.hypot(w, h)) + 2))
    grid = OccupancyGrid(0.1, Pose2D(), cells)
    _assert_same_array(grid._dilate(r), reference_dilate(cells != 0, r))


@settings(max_examples=300, deadline=None)
@given(cell_grids(), st.sampled_from([0.05, 0.1, 0.3, 1.0, 0.07]),
       st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_loads_matches_scalar_parser(cells, res, origin):
    """The one-pass parse gives the per-character parser's cells, and the text round-trips."""
    text = OccupancyGrid(res, Pose2D(origin[0], origin[1], 0.0), cells).dumps()
    grid = OccupancyGrid.loads(text)
    _assert_same_array(grid.cells, reference_parse_cells(text))
    assert grid.dumps() == text


@pytest.mark.parametrize("rows, message", [
    ("x.\n.", "invalid cell char 'x'"),
    (".\nx.", "row 1 has 1 chars"),
    ("\u00e9.\n..", "invalid cell char '\u00e9'"),
    (".\u00e9\n..", "invalid cell char '\u00e9'"),
], ids=["bad-char-before-short-row", "short-row-before-bad-char", "non-ascii-first",
        "non-ascii-second"])
def test_grid_file_bad_rows_keep_their_error_order(rows, message):
    """Rows are checked in file order, each for its length first, then its chars."""
    with pytest.raises(ValueError, match=f"^grid file: {message}"):
        OccupancyGrid.loads("width 2\nheight 2\nresolution 0.1\norigin 0 0 0\n" + rows + "\n")


def test_grid_rejects_rotated_origin():
    with pytest.raises(ValueError, match="origin theta must be 0"):
        OccupancyGrid.empty(4, 4, 0.1, Pose2D(0.0, 0.0, 0.5))


def test_grid_file_roundtrip_bit_exact():
    g = OccupancyGrid.empty(12, 7, 0.25, Pose2D(-1.0, 0.5, 0))
    g.cells[3, 2] = 1
    g.cells[5, 5] = 2
    text = g.dumps()
    g2 = OccupancyGrid.loads(text)
    assert g2.dumps() == text
    assert np.array_equal(g2.cells, g.cells)
    assert g2.resolution == g.resolution
    assert (g2.origin.x, g2.origin.y) == (g.origin.x, g.origin.y)


def test_grid_file_errors():
    with pytest.raises(ValueError):
        OccupancyGrid.loads("width 2\nheight 2\nresolution 0.1\norigin 0 0 0\n..\n.x\n")
    with pytest.raises(ValueError):
        OccupancyGrid.loads("width 2\nheight 2\n")


@pytest.mark.parametrize("header, line", [
    ("width\nheight 2\nresolution 0.1\norigin 0 0 0", 1),
    ("width 2 3\nheight 2\nresolution 0.1\norigin 0 0 0", 1),
    ("width 0\nheight 2\nresolution 0.1\norigin 0 0 0", 1),
    ("width 2\nheight 2.5\nresolution 0.1\norigin 0 0 0", 2),
    ("width 2\nheight 2\nresolution nan\norigin 0 0 0", 3),
    ("width 2\nheight 2\nresolution -0.1\norigin 0 0 0", 3),
    ("width 2\nheight 2\nresolution 0.1\norigin 0 0", 4),
    ("width 2\nheight 2\nresolution 0.1\norigin nan 0 0", 4),
    ("width 2\nheight 2\nresolution 0.1\norigin 0 inf 0", 4),
    ("width 2\nheight 2\nresolution 0.1\norigin 0 0 0.5", 4),
], ids=["bare-width", "two-widths", "zero-width", "fractional-height", "nan-resolution",
        "negative-resolution", "short-origin", "nan-origin", "inf-origin", "rotated-origin"])
def test_grid_file_bad_header_names_line(header, line):
    with pytest.raises(ValueError, match=f"^grid file: line {line}"):
        OccupancyGrid.loads(header + "\n..\n..\n")


def test_empty_grid_straight_path():
    g = OccupancyGrid.empty(20, 20, 0.1)
    path = plan_global(g, Pose2D(0.15, 0.15, 0), Pose2D(1.85, 1.85, 0))
    assert len(path) == 2
    assert path[0] == (0.15, 0.15)
    assert path[-1] == (1.85, 1.85)


def test_wall_with_gap():
    g = OccupancyGrid.empty(30, 30, 0.1)
    g.set_box(1.4, 0.0, 1.6, 2.3, 1)  # wall, gap at the top
    start, goal = Pose2D(0.5, 1.0, 0), Pose2D(2.5, 1.0, 0)
    path = plan_global(g, start, goal)
    assert any(y > 2.3 for _, y in path)  # passes through the gap
    blocked = g.inflate(0.0)
    s = g.world_to_cell(start.x, start.y)
    t = g.world_to_cell(goal.x, goal.y)
    _, cost = astar(blocked, s, t)
    ref = dijkstra_cost(blocked, s, t)
    assert cost == pytest.approx(ref, abs=1e-9)


def test_goal_inside_obstacle_no_path():
    g = OccupancyGrid.empty(10, 10, 0.1)
    g.cells[5, 5] = 1
    with pytest.raises(NoPathError):
        plan_global(g, Pose2D(0.15, 0.15, 0), Pose2D(0.55, 0.55, 0))


def test_disconnected_no_path():
    g = OccupancyGrid.empty(10, 10, 0.1)
    g.cells[4, :] = 1  # full wall
    with pytest.raises(NoPathError):
        plan_global(g, Pose2D(0.15, 0.15, 0), Pose2D(0.85, 0.85, 0))


def test_out_of_bounds_raises_value_error():
    g = OccupancyGrid.empty(10, 10, 0.1)
    with pytest.raises(ValueError):
        plan_global(g, Pose2D(-5, 0, 0), Pose2D(0.5, 0.5, 0))


def test_astar_equals_dijkstra_random_grids():
    rng = np.random.default_rng(0)
    for _ in range(10):
        blocked = rng.uniform(size=(50, 50)) < 0.25
        blocked[0, 0] = False
        blocked[49, 49] = False
        ref = dijkstra_cost(blocked, (0, 0), (49, 49))
        if ref is None:
            with pytest.raises(NoPathError):
                astar(blocked, (0, 0), (49, 49))
        else:
            _, cost = astar(blocked, (0, 0), (49, 49))
            assert cost == pytest.approx(ref, abs=1e-9)


def test_inflation_blocks_narrow_gap():
    g = OccupancyGrid.empty(30, 30, 0.1)
    g.set_box(1.4, 0.0, 1.6, 1.3, 1)
    g.set_box(1.4, 1.5, 1.6, 3.0, 1)  # 0.2 m gap at y ~ 1.4
    start, goal = Pose2D(0.5, 1.4, 0), Pose2D(2.5, 1.4, 0)
    assert plan_global(g, start, goal, inflation=0.0)
    with pytest.raises(NoPathError):
        plan_global(g, start, goal, inflation=0.3)


def test_shortcut_keeps_line_of_sight():
    g = OccupancyGrid.empty(30, 30, 0.1)
    g.set_box(1.4, 0.0, 1.6, 2.3, 1)
    blocked = g.inflate(0.05)
    path = plan_global(g, Pose2D(0.5, 1.0, 0), Pose2D(2.5, 1.0, 0), inflation=0.05)
    for a, b in zip(path[:-1], path[1:]):
        assert line_of_sight(blocked, g, a, b)


def test_path_cells_all_free():
    g = OccupancyGrid.empty(25, 25, 0.1)
    g.set_box(1.0, 0.5, 1.2, 2.5, 1)
    path = plan_global(g, Pose2D(0.3, 1.2, 0), Pose2D(2.2, 1.2, 0), inflation=0.1)
    blocked = g.inflate(0.1)
    for x, y in path:
        ix, iy = g.world_to_cell(x, y)
        assert not blocked[ix, iy]


def test_clearance_field_zero_inside_obstacles():
    g = OccupancyGrid.empty(20, 20, 0.1)
    g.cells[10, 10] = 1
    field = g.clearance_field()
    assert field[10, 10] == 0.0
    assert field[10, 12] == pytest.approx(0.2, abs=0.05)
    assert g.clearance_at(10.0, 10.0)[0] == math.inf  # outside the grid


def test_clearance_field_follows_direct_writes():
    g = OccupancyGrid.empty(20, 20, 0.1)
    assert g.clearance_at(1.05, 1.05)[0] > 1.0
    g.cells[10, 10] = 1
    assert g.clearance_at(1.05, 1.05)[0] == 0.0
    g.cells[10, 10] = 0
    assert np.array_equal(g.clearance_field(), OccupancyGrid.empty(20, 20, 0.1).clearance_field())


def test_plan_global_sees_wall_written_after_a_query():
    g = OccupancyGrid.empty(30, 30, 0.1)
    start, goal = Pose2D(0.5, 1.0, 0), Pose2D(2.5, 1.0, 0)
    assert plan_global(g, start, goal, inflation=0.1) == [(0.5, 1.0), (2.5, 1.0)]
    g.cells[15, :25] = 1  # wall, gap at the top
    path = plan_global(g, start, goal, inflation=0.1)
    assert any(y > 2.5 for _, y in path)
    blocked = g.inflate(0.1)
    assert blocked[15, 0] and blocked[14, 10]
    for a, b in zip(path[:-1], path[1:]):
        assert line_of_sight(blocked, g, a, b)


def test_inflate_caps_the_radius_at_the_diagonal():
    # a disk past the grid's diagonal reaches no further cell, so 1e300 m gives the
    # capped mask at once: every cell is blocked once any one is
    g = OccupancyGrid.empty(12, 7, 0.1)
    g.cells[2, 5] = 1
    huge = g.inflate(1e300)
    assert np.array_equal(huge, g._dilate(math.ceil(math.hypot(12, 7))))
    assert huge.all()
    assert not g.inflate(0.3).all()


def test_derived_fields_are_read_only():
    g = OccupancyGrid.empty(10, 10, 0.1)
    for field in (g.inflate(0.0), g.inflate(0.2), g.clearance_field()):
        with pytest.raises(ValueError):
            field[0, 0] = 1
    assert g.inflate(0.2) is g.inflate(0.2)


# sha256 of repr(pinned_plans()), computed with the one-segment-at-a-time shortcut loop
# and the per-move wall tests in astar that preceded the batched pass and the move table
PINNED_PLANS_SHA256 = "5a05f46d00d14fcc627250dd37def97af260459f1adee44982e5298a8d6ce605"


def pinned_plans():
    """32 seeded plan_global queries between free points of a cluttered 100 x 100 map."""
    rng = np.random.default_rng(20191)
    grid = OccupancyGrid.empty(100, 100, 0.05)
    grid.cells[[0, -1], :] = grid.cells[:, [0, -1]] = OCCUPIED
    for _ in range(45):
        x, y = rng.integers(4, 92, 2)
        w, h = rng.integers(2, 7, 2)
        grid.cells[x:x + w, y:y + h] = OCCUPIED
    blocked = grid.inflate(0.1)
    points = [p for p in rng.uniform(0.0, 5.0, (200, 2)) if not blocked[grid.world_to_cell(*p)]]
    paths = []
    for a, b in zip(points[0:64:2], points[1:64:2]):
        try:
            paths.append(plan_global(grid, Pose2D(*a), Pose2D(*b), inflation=0.1))
        except NoPathError:
            paths.append(None)
    return paths


def test_plan_global_bytes_are_pinned():
    """Every waypoint of 32 seeded queries, byte for byte: a planning change that moves
    one must say so and re-pin this hash."""
    paths = pinned_plans()
    assert len(paths) == 32 and None not in paths
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == PINNED_PLANS_SHA256
