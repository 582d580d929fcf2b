import heapq
import math

import numpy as np
import pytest

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
], ids=["bare-width", "two-widths", "zero-width", "fractional-height", "nan-resolution",
        "negative-resolution", "short-origin", "nan-origin", "inf-origin"])
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
