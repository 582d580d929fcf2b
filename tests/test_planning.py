import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robokit.errors import NoPathError
from robokit.geometry import Pose2D
from robokit.planning import OccupancyGrid, astar, line_of_sight, plan_global


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


def test_derived_fields_are_read_only():
    g = OccupancyGrid.empty(10, 10, 0.1)
    for field in (g.inflate(0.0), g.inflate(0.2), g.clearance_field()):
        with pytest.raises(ValueError):
            field[0, 0] = 1
    assert g.inflate(0.2) is g.inflate(0.2)
