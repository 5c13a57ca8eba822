"""Exact-integer grid predicates, checked against independent oracles.

The numpy point-in-polygon oracle in helpers.py shares no code with the
package's geometry; classification is additionally checked by sampling.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashquad.errors import DomainError
from flashquad.geometry import (
    MAX_LEVEL,
    TOP_CELL,
    WORLD_SIZE,
    Cell,
    CellClass,
    cell_contains,
    cell_index,
    cell_intersects_disc,
    classify_cell,
    classify_children,
    disc_mask,
    disc_slack,
    in_world,
    point_in_polygon,
    subcell,
    validate_polygon,
)
from math import isqrt

from flashquad import geometry

from helpers import pip_oracle, random_simple_polygon, slack_by_scan

W = WORLD_SIZE


# -- grid basics ---------------------------------------------------------------


def test_world_bounds_are_half_open():
    assert in_world(0, 0)
    assert in_world(W - 1, W - 1)
    assert not in_world(W, 0)
    assert not in_world(0, W)
    assert not in_world(-1, 5)


def test_cell_index_covers_world():
    assert cell_index(TOP_CELL, 0, 0) == 0
    assert cell_index(TOP_CELL, W - 1, W - 1) == 80
    # column boundaries fall at W/9 = 222222.2 m, so 222222 is still column 0
    assert cell_index(TOP_CELL, W // 9, 0) == 0
    assert cell_index(TOP_CELL, -(-W // 9), 0) == 1
    assert cell_index(TOP_CELL, 0, -(-W // 9)) == 9
    with pytest.raises(DomainError):
        cell_index(TOP_CELL, W, 0)


def test_subcell_scaled_origins():
    c = subcell(TOP_CELL, 0)
    assert c == Cell(1, 0, 0)
    c = subcell(TOP_CELL, 80)
    assert c == Cell(1, 8 * W, 8 * W)
    cc = subcell(c, 40)  # middle subcell
    assert cc.level == 2
    assert cc.sx == 9 * (8 * W) + 4 * W
    with pytest.raises(DomainError):
        subcell(Cell(MAX_LEVEL, 0, 0), 0)
    with pytest.raises(DomainError):
        subcell(TOP_CELL, 81)


@given(st.integers(0, W - 1), st.integers(0, W - 1), st.integers(0, MAX_LEVEL - 1))
@settings(max_examples=100, deadline=None)
def test_descent_always_contains_point(x, y, depth):
    cell = TOP_CELL
    for _ in range(depth + 1):
        assert cell_contains(cell, x, y)
        cell = subcell(cell, cell_index(cell, x, y))
    assert cell_contains(cell, x, y)


def test_cell_size_shrinks_ninefold():
    sizes = [float(Cell(lv, 0, 0).size) for lv in range(6)]
    for a, b in zip(sizes, sizes[1:]):
        assert a == pytest.approx(9 * b)
    assert sizes[0] == 2_000_000


# -- point in polygon -----------------------------------------------------------


TRIANGLE = ((0, 0), (10, 0), (0, 10))


def test_pip_boundary_counts_as_inside():
    assert point_in_polygon(5, 0, TRIANGLE)  # on an edge
    assert point_in_polygon(5, 5, TRIANGLE)  # on the hypotenuse
    assert point_in_polygon(0, 0, TRIANGLE)  # on a vertex
    assert point_in_polygon(3, 3, TRIANGLE)
    assert not point_in_polygon(6, 6, TRIANGLE)
    assert not point_in_polygon(-1, 0, TRIANGLE)


def test_pip_concave():
    # U-shape: the notch between the prongs is outside
    u = ((0, 0), (30, 0), (30, 30), (20, 30), (20, 10), (10, 10), (10, 30), (0, 30))
    assert point_in_polygon(5, 20, u)
    assert point_in_polygon(25, 20, u)
    assert not point_in_polygon(15, 20, u)
    assert point_in_polygon(15, 5, u)


@given(st.integers(0, 2**32), st.integers(2, 200))
@settings(max_examples=60, deadline=None)
def test_pip_matches_oracle(seed, npts):
    rng = random.Random(seed)
    verts = random_simple_polygon(rng)
    xs = np.array([rng.randrange(-300_000, W + 300_000) for _ in range(npts)])
    ys = np.array([rng.randrange(-300_000, W + 300_000) for _ in range(npts)])
    want = pip_oracle(xs, ys, verts)
    got = np.array([point_in_polygon(int(x), int(y), verts) for x, y in zip(xs, ys)])
    assert (got == want).all()


def test_pip_on_oracle_boundary_samples():
    """Probe points ON polygon edges (midpoints of even-length edges)."""
    rng = random.Random(404)
    for _ in range(50):
        verts = random_simple_polygon(rng)
        for k in range(len(verts)):
            x1, y1 = verts[k]
            x2, y2 = verts[(k + 1) % len(verts)]
            if (x1 + x2) % 2 or (y1 + y2) % 2:
                continue
            mx, my = (x1 + x2) // 2, (y1 + y2) // 2
            assert point_in_polygon(mx, my, verts)


# -- cell classification -----------------------------------------------------------


def test_classify_world_sized_shapes():
    hug = ((0, 0), (W, 0), (W, W), (0, W))  # rides exactly on the cell boundary
    assert classify_cell(TOP_CELL, hug) == CellClass.EDGE
    over = ((-10, -10), (W + 10, -10), (W + 10, W + 10), (-10, W + 10))
    assert classify_cell(TOP_CELL, over) == CellClass.INSIDE
    far = ((-100, -100), (-50, -100), (-50, -50), (-100, -50))
    assert classify_cell(TOP_CELL, far) == CellClass.OUTSIDE


def test_classify_corner_touch_is_edge():
    # polygon touches the top cell only at its (0, 0) corner
    tri = ((0, 0), (-100, -20), (-20, -100))
    assert classify_cell(TOP_CELL, tri) == CellClass.EDGE


def test_classify_matches_sampling():
    """INSIDE means every sampled cell point is in; OUTSIDE means none is."""
    rng = random.Random(777)
    for _ in range(150):
        verts = random_simple_polygon(rng)
        lvl = rng.randint(0, 4)
        cell = TOP_CELL
        for _ in range(lvl):
            cell = subcell(cell, rng.randrange(81))
        cls = classify_cell(cell, verts)
        scale = 9**cell.level
        # integer points within the closed scaled box
        x_lo, x_hi = -(-cell.sx // scale), (cell.sx + W) // scale
        y_lo, y_hi = -(-cell.sy // scale), (cell.sy + W) // scale
        samples = [
            (rng.randint(x_lo, x_hi), rng.randint(y_lo, y_hi)) for _ in range(12)
        ]
        samples += [(x_lo, y_lo), (x_hi, y_hi), (x_lo, y_hi), (x_hi, y_lo)]
        flags = [point_in_polygon(x, y, verts) for x, y in samples]
        if cls == CellClass.INSIDE:
            assert all(flags)
        elif cls == CellClass.OUTSIDE:
            assert not any(flags)
        if any(flags) != all(flags):
            assert cls == CellClass.EDGE  # mixed samples force a boundary crossing


def test_classify_children_matches_per_cell():
    rng = random.Random(31)
    for _ in range(80):
        verts = random_simple_polygon(rng)
        lvl = rng.randint(0, 3)
        cell = TOP_CELL
        for _ in range(lvl):
            cell = subcell(cell, rng.randrange(81))
        batch = classify_children(cell, verts)
        assert len(batch) == 81
        for idx in range(81):
            assert batch[idx] == classify_cell(subcell(cell, idx), verts)
    with pytest.raises(DomainError):
        classify_children(Cell(MAX_LEVEL, 0, 0), TRIANGLE)


def test_segment_box_matches_side_crossings():
    """The separating-axis segment/box test against its definition: an
    endpoint in the closed box, or a crossing with one of its four sides."""
    rng = random.Random(33)
    for _ in range(20_000):
        span = rng.choice((4, 12, 10**6))
        x1, y1, x2, y2 = (rng.randint(-span, span) for _ in range(4))
        bx0, by0 = rng.randint(-span, span), rng.randint(-span, span)
        bx1, by1 = bx0 + rng.randint(0, span), by0 + rng.randint(0, span)
        inside = any(bx0 <= x <= bx1 and by0 <= y <= by1 for x, y in ((x1, y1), (x2, y2)))
        sides = ((bx0, by0, bx1, by0), (bx1, by0, bx1, by1), (bx1, by1, bx0, by1), (bx0, by1, bx0, by0))
        want = inside or any(geometry.segments_intersect(x1, y1, x2, y2, *side) for side in sides)
        assert geometry._seg_intersects_box(x1, y1, x2, y2, bx0, by0, bx1, by1) == want


def test_batches_match_per_cell_down_to_level_six():
    """Batch classification and disc masks of level-4 and level-5 cells, whose
    subcells reach the deepest level, near the polygon so classes mix."""
    rng = random.Random(46)
    for _ in range(60):
        verts = random_simple_polygon(rng, radius_max=rng.choice((2_000, 20_000)))
        x = min(max(verts[0][0], 0), W - 1)
        y = min(max(verts[0][1], 0), W - 1)
        cell = TOP_CELL
        for _ in range(rng.randint(4, MAX_LEVEL - 1)):
            cell = subcell(cell, cell_index(cell, x, y))
        batch = classify_children(cell, verts)
        cx, cy = x + rng.randint(-300, 300), y + rng.randint(-300, 300)
        r = rng.randint(0, 400)
        mask = disc_mask(cell, cx, cy, r)
        for idx in range(81):
            child = subcell(cell, idx)
            assert batch[idx] == classify_cell(child, verts)
            assert bool(mask >> idx & 1) == cell_intersects_disc(child, cx, cy, r)


# -- disc predicates -----------------------------------------------------------------


def test_disc_touches_cell_boundary():
    # the first subcell's left edge sits at x = 0 exactly
    cell = subcell(TOP_CELL, 0)
    assert cell_intersects_disc(cell, -1000, 500, 1000)  # tangent to the edge
    assert not cell_intersects_disc(cell, -1000, 500, 999)
    assert cell_intersects_disc(cell, 5, 5, 0)  # zero radius inside the box
    with pytest.raises(DomainError):
        cell_intersects_disc(cell, 0, 0, -1)


def test_disc_corner_tangency_is_closed():
    # distance from (-3, -4) to the (0, 0) corner is exactly 5
    cell = subcell(TOP_CELL, 0)
    assert cell_intersects_disc(cell, -3, -4, 5)
    assert not cell_intersects_disc(cell, -3, -4, 4)


def test_disc_sees_fractional_cell_edges():
    """Sub-metre separation across a non-integer cell boundary is exact."""
    cell = subcell(TOP_CELL, 0)  # right edge at 2000000/9 m, between 222222 and 222223
    assert cell_intersects_disc(cell, 222_222, 5, 0)  # just inside
    assert not cell_intersects_disc(cell, 222_223, 5, 0)  # 7/9 m outside
    assert cell_intersects_disc(cell, 222_223, 5, 1)  # 1 m reaches across


def test_disc_mask_matches_per_cell():
    rng = random.Random(92)
    for _ in range(200):
        lvl = rng.randint(0, 3)
        cell = TOP_CELL
        for _ in range(lvl):
            cell = subcell(cell, rng.randrange(81))
        cx = rng.randint(-W, 2 * W)
        cy = rng.randint(-W, 2 * W)
        r = rng.choice([0, 1, rng.randint(1, 40_000), rng.randint(1, 2 * W)])
        mask = disc_mask(cell, cx, cy, r)
        for idx in range(81):
            assert bool(mask >> idx & 1) == cell_intersects_disc(subcell(cell, idx), cx, cy, r)
    # centres outside the cell and outside the world, radius 0, and discs tangent to a
    # subcell's edge or corner (exact tangency needs an integer edge: the world's edges)
    low = subcell(TOP_CELL, 0)
    corner = subcell(TOP_CELL, 80)
    cases = [
        (TOP_CELL, -1000, 500, 1000), (TOP_CELL, -1000, 500, 999),  # tangent to the left edge, and not
        (TOP_CELL, 300_000, -7, 7), (TOP_CELL, 300_000, W + 7, 7),  # tangent to the bottom and top edges
        (TOP_CELL, -3, -4, 5), (TOP_CELL, -3, -4, 4),  # tangent to the (0, 0) corner, and not
        (TOP_CELL, W + 3, W + 4, 5), (TOP_CELL, W + 3, W + 4, 4),  # tangent to the (W, W) corner
        (low, -3, -4, 5), (low, 0, 0, 0), (low, W // 9, W // 9, 0), (low, W // 81, 5, 0),
        (low, 5 * W, 5 * W, 3), (low, -W, W // 18, W), (corner, W // 2, W // 2, 0),
        (corner, W - 1, W - 1, 0), (corner, 3 * W, -W, 2 * W), (TOP_CELL, -5 * W, -5 * W, 0),
    ]
    for _ in range(200):  # radius 0 anywhere, and centres on or next to a subcell edge
        cell = subcell(subcell(TOP_CELL, rng.randrange(81)), rng.randrange(81))
        edge = (cell.sx * 9 + rng.randint(0, 9) * W) // 729
        cases.append((cell, edge + rng.randint(-1, 1), rng.randint(-W, 2 * W), rng.choice([0, 1, 2, 5000])))
    for cell, cx, cy, r in cases:
        mask = disc_mask(cell, cx, cy, r)
        for idx in range(81):
            assert bool(mask >> idx & 1) == cell_intersects_disc(subcell(cell, idx), cx, cy, r), (cell, cx, cy, r)
    assert disc_mask(TOP_CELL, -1000, 500, 999) == 0 and disc_mask(TOP_CELL, -1000, 500, 1000) == 1
    assert disc_mask(TOP_CELL, -3, -4, 5) == 1 and disc_mask(TOP_CELL, -3, -4, 4) == 0
    assert disc_mask(TOP_CELL, W // 2, W // 2, 10 * W) == (1 << 81) - 1
    with pytest.raises(DomainError):
        disc_mask(TOP_CELL, 0, 0, -5)
    with pytest.raises(DomainError):
        disc_mask(Cell(MAX_LEVEL, 0, 0), 0, 0, 5)


# -- the validity disc of a disc mask ------------------------------------------------


@st.composite
def disc_cases(draw):
    """A cell at level 0-5, a centre inside or outside it, a radius and an occupied mask."""
    cell = TOP_CELL
    for _ in range(draw(st.integers(0, MAX_LEVEL - 1))):
        cell = subcell(cell, draw(st.integers(0, 80)))
    side = W // 9**cell.level
    ox, oy = cell.sx // 9**cell.level, cell.sy // 9**cell.level
    cx = ox + draw(st.integers(-side - 3_000, 2 * side + 3_000))
    cy = oy + draw(st.integers(-side - 3_000, 2 * side + 3_000))
    r = draw(st.sampled_from([0, 1, 2_000, side + 1, side * 2]) | st.integers(0, 5_000))
    occupied = draw(st.integers(0, (1 << 81) - 1) | st.builds(lambda a, b: a & b, st.integers(0, (1 << 81) - 1),
                                                               st.integers(0, (1 << 81) - 1)))
    return cell, cx, cy, r, occupied


@given(disc_cases(), st.sampled_from([1_000, 10**9]), st.data())
@settings(max_examples=150, deadline=None)
def test_no_move_inside_the_slack_changes_the_disc_mask(case, cap, data):
    cell, cx, cy, r, occupied = case
    met = disc_mask(cell, cx, cy, r) & occupied
    s = disc_slack([(cell, occupied, met)], cx, cy, r, cap)
    assert s == slack_by_scan(cell, cx, cy, r, occupied, cap)  # the subcells within reach hold the least gap
    for _ in range(6 if s else 0):
        dx = data.draw(st.integers(-s + 1, s - 1))
        room = isqrt(s * s - 1 - dx * dx)
        dy = data.draw(st.integers(-room, room))
        assert dx * dx + dy * dy < s * s
        assert disc_mask(cell, cx + dx, cy + dy, r) & occupied == met, (dx, dy, s)
    flipped = occupied & ~met if occupied & ~met else met  # one more, or one fewer, subcell met
    if flipped:
        wrong = met ^ (flipped & -flipped)
        assert disc_slack([(cell, occupied, wrong)], cx, cy, r, cap) is None
    assert disc_slack([(cell, occupied, met | ~occupied & (1 << 80))], cx, cy, r, cap) in (None, s)


@given(st.lists(disc_cases(), min_size=2, max_size=3), st.data())
@settings(max_examples=40, deadline=None)
def test_the_slack_of_several_nodes_is_the_least_of_theirs(cases, data):
    cx, cy, r = data.draw(st.integers(-5_000, W + 5_000)), data.draw(st.integers(-5_000, W + 5_000)), cases[0][3]
    nodes = [(cell, occ, disc_mask(cell, cx, cy, r) & occ) for cell, _, _, _, occ in cases]
    alone = [disc_slack([node], cx, cy, r, 1_000) for node in nodes]
    assert disc_slack(nodes, cx, cy, r, 1_000) == min(alone)
    bad = nodes[-1][0], nodes[-1][1], nodes[-1][2] ^ (nodes[-1][1] & -nodes[-1][1])
    if nodes[-1][1]:
        assert disc_slack(nodes[:-1] + [bad], cx, cy, r, 1_000) is None


def test_a_subcell_on_the_rim_leaves_no_slack():
    # (-3, -4) lies exactly 5 from the world's corner (0, 0), a corner of subcell 0 of every cell there
    for level in range(MAX_LEVEL):
        cell = Cell(level, 0, 0)
        assert disc_slack([(cell, 1, 1)], -3, -4, 5, 1_000) == 0  # on the rim from inside
        assert disc_slack([(cell, 1, 1)], -4, -3, 4, 1_000) is None  # (0, 0) is 5 away: not met by a disc of 4
        assert disc_slack([(cell, 1, 0)], -3, -4, 4, 1_000) == 1  # 1 m outside the rim
        assert disc_slack([(cell, 1, 1)], -3, -4, 6, 1_000) == 1  # 1 m inside it
        assert disc_slack([(cell, 1, 1)], -5, 2, 5, 1_000) == 0  # tangent to the left edge
        # gaps just short of a whole metre round down: sqrt(101) = 10.0499, sqrt(80) = 8.9443
        assert disc_slack([(cell, 1, 1)], -10, -1, 12, 1_000) == 1  # 12 - 10.0499 inside
        assert disc_slack([(cell, 1, 0)], -8, -4, 6, 1_000) == 2  # 8.9443 - 6 outside
    far = TOP_CELL
    for _ in range(MAX_LEVEL - 1):
        far = subcell(far, 80)  # the level-5 cell in the world's far corner
    assert disc_slack([(far, 1 << 80, 1 << 80)], W + 3, W + 4, 5, 1_000) == 0
    assert disc_slack([(far, 1 << 80, 0)], W + 3, W + 4, 5, 1_000) is None
    # the nearest subcell, not the cell's own box, bounds the slack; none occupied gives the cap
    assert disc_slack([(TOP_CELL, 0, 0)], W // 2, W // 2, 2_000, 1_000) == 1_000
    assert disc_slack([], 5, 5, 5, 77) == 77


def test_a_met_bit_the_scan_does_not_find_gives_none():
    # the centre of the top cell; subcell 0 lies far beyond r + cap, subcell 40 holds the centre
    cx = cy = W // 2
    assert disc_slack([(TOP_CELL, 1 | 1 << 40, 1 << 40)], cx, cy, 2_000, 1_000) == 1_000
    assert disc_slack([(TOP_CELL, 1 | 1 << 40, 1 | 1 << 40)], cx, cy, 2_000, 1_000) is None  # beyond reach
    assert disc_slack([(TOP_CELL, 1, 1)], cx, cy, 2_000, 1_000) is None
    assert disc_slack([(TOP_CELL, 0, 1 << 40)], cx, cy, 2_000, 1_000) is None  # off occupied, inside the disc
    assert disc_slack([(TOP_CELL, 1, 1 << 40 | 1)], cx, cy, 2_000, 1_000) is None  # off occupied


# -- polygon validation -----------------------------------------------------------


def test_validate_polygon_rejects_junk():
    validate_polygon(TRIANGLE)
    with pytest.raises(DomainError):
        validate_polygon(((0, 0), (1, 1)))  # too few
    with pytest.raises(DomainError):
        validate_polygon(((0, 0), (10, 0), (10, 0), (0, 10)))  # repeated vertex
    with pytest.raises(DomainError):
        validate_polygon(((0, 0), (10, 0), (20, 0)))  # zero area
    with pytest.raises(DomainError):
        validate_polygon(((0, 0), (10, 10), (10, 0), (0, 10)))  # bowtie
    with pytest.raises(DomainError):
        validate_polygon(((0, 0), (1 << 31, 0), (0, 10)))  # out of i32
