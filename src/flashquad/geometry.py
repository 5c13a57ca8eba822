"""Exact-integer geometry for the 9x9 recursive grid.

The world is the half-open square [0, 2_000_000) ** 2 in signed 32-bit
metres.  A cell at depth L is addressed by its scaled origin (sx, sy):
the cell covers [sx, sx + 2_000_000) x [sy, sy + 2_000_000) after all
point coordinates are multiplied by 9**L, which keeps every boundary an
integer and every predicate an integer sign test.  Python's
arbitrary-precision ints keep the cross products exact.  Points on a
polygon's boundary count as inside.
"""

from enum import IntEnum
from fractions import Fraction
from math import isqrt
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError

WORLD_SIZE = 2_000_000
MAX_LEVEL = 6

COORD_MIN = -(2**31)
COORD_MAX = 2**31 - 1

Point = Tuple[int, int]

_POW9 = tuple(9**level for level in range(MAX_LEVEL + 1))

# side-sharing neighbours of each subcell index 9*i + j
_NEIGHBOURS = tuple(
    tuple(
        9 * a + b
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
        if 0 <= a < 9 and 0 <= b < 9
    )
    for i in range(9)
    for j in range(9)
)


def kernel_name() -> str:
    """Name of the kernel serving the predicates; there is only the pure one."""
    return "pure"


class CellClass(IntEnum):
    OUTSIDE = 0
    INSIDE = 1
    EDGE = 2


class Cell(NamedTuple):
    """A grid cell: depth plus scaled origin (origin * 9**level)."""

    level: int
    sx: int
    sy: int

    @property
    def size(self) -> Fraction:
        """Side length in metres (exact; not an integer above level 0)."""
        return Fraction(WORLD_SIZE, 9**self.level)


TOP_CELL = Cell(0, 0, 0)

# plain ints for the byte-filling loop of classify_children
_OUTSIDE, _INSIDE, _EDGE = int(CellClass.OUTSIDE), int(CellClass.INSIDE), int(CellClass.EDGE)


def _check_point(x: int, y: int) -> None:
    if not (COORD_MIN <= x <= COORD_MAX and COORD_MIN <= y <= COORD_MAX):
        raise DomainError(f"coordinate ({x}, {y}) outside signed 32-bit range")


def _check_divisible(level: int) -> None:
    if level >= MAX_LEVEL:
        raise DomainError(f"cell at level {level} cannot be subdivided")


def check_ints(**values: object) -> None:
    """Refuse a value that is not an int, or is a bool, with a DomainError naming its argument."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def in_world(x: int, y: int) -> bool:
    return 0 <= x < WORLD_SIZE and 0 <= y < WORLD_SIZE


def cell_index(cell: Cell, x: int, y: int) -> int:
    """Index 9*i + j of the subcell of *cell* containing (x, y).

    Row i follows y, column j follows x; subcells are half-open boxes.
    Raises DomainError when the point is not inside the cell, which for
    TOP_CELL means outside the world square.
    """
    _check_point(x, y)
    level, sx, sy = cell
    scale = _POW9[level]
    rx = x * scale - sx
    ry = y * scale - sy
    if rx < 0 or rx >= WORLD_SIZE or ry < 0 or ry >= WORLD_SIZE:
        raise DomainError(f"point ({x}, {y}) outside cell {cell}")
    return 9 * (ry * 9 // WORLD_SIZE) + rx * 9 // WORLD_SIZE


def subcell(cell: Cell, index: int) -> Cell:
    """Child cell at slot ``index`` (row i = index // 9, column j = index % 9)."""
    _check_divisible(cell.level)
    if not 0 <= index < 81:
        raise DomainError(f"subcell index {index} out of range")
    i, j = divmod(index, 9)
    return Cell(cell.level + 1, 9 * cell.sx + j * WORLD_SIZE, 9 * cell.sy + i * WORLD_SIZE)


def cell_contains(cell: Cell, x: int, y: int) -> bool:
    scale = 9**cell.level
    rx = x * scale - cell.sx
    ry = y * scale - cell.sy
    return 0 <= rx < WORLD_SIZE and 0 <= ry < WORLD_SIZE


def point_in_polygon(x: int, y: int, verts: Sequence[Point]) -> bool:
    """Even-odd containment test; points on the boundary count as inside."""
    inside = False
    x1, y1 = verts[-1]
    for x2, y2 in verts:
        if (x1 if x1 < x2 else x2) <= x <= (x1 if x1 > x2 else x2) and (
            y1 if y1 < y2 else y2
        ) <= y <= (y1 if y1 > y2 else y2):
            if (x2 - x1) * (y - y1) == (x - x1) * (y2 - y1):
                return True
        if (y1 > y) != (y2 > y):
            cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
            if (cross > 0) == (y2 > y1):
                inside = not inside
        x1, y1 = x2, y2
    return inside


def _scaled(verts: Sequence[Point], scale: int) -> list:
    return [(x * scale, y * scale) for x, y in verts]


def _orient(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _bbox_overlap(ax, ay, bx, by, px, py) -> bool:
    return (
        (ax if ax < bx else bx) <= px <= (ax if ax > bx else bx)
        and (ay if ay < by else by) <= py <= (ay if ay > by else by)
    )


def segments_intersect(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y) -> bool:
    """Closed-segment intersection (shared endpoints and collinear touch count)."""
    d1 = _orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = _orient(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = _orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = _orient(p1x, p1y, p2x, p2y, q2x, q2y)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _bbox_overlap(q1x, q1y, q2x, q2y, p1x, p1y):
        return True
    if d2 == 0 and _bbox_overlap(q1x, q1y, q2x, q2y, p2x, p2y):
        return True
    if d3 == 0 and _bbox_overlap(p1x, p1y, p2x, p2y, q1x, q1y):
        return True
    if d4 == 0 and _bbox_overlap(p1x, p1y, p2x, p2y, q2x, q2y):
        return True
    return False


def _seg_intersects_box(x1, y1, x2, y2, bx0, by0, bx1, by1) -> bool:
    """Closed segment against closed axis-aligned box (touching counts).

    Separating axes: the two convex sets are disjoint exactly when their x
    ranges miss, their y ranges miss, or all four box corners lie strictly
    on one side of the segment's line.
    """
    if (x1 < bx0 and x2 < bx0) or (x1 > bx1 and x2 > bx1):
        return False
    if (y1 < by0 and y2 < by0) or (y1 > by1 and y2 > by1):
        return False
    # side of corner (cx, cy) is the sign of dx * (cy - y1) - dy * (cx - x1)
    dx = x2 - x1
    dy = y2 - y1
    a0 = dx * (by0 - y1)
    a1 = dx * (by1 - y1)
    b0 = dy * (bx0 - x1)
    b1 = dy * (bx1 - x1)
    if a0 > a1:
        a0, a1 = a1, a0
    if b0 > b1:
        b0, b1 = b1, b0
    return a0 - b1 <= 0 <= a1 - b0


def classify_cell(cell: Cell, verts: Sequence[Point]) -> CellClass:
    """Relation of the closed cell box to the polygon.

    EDGE when any polygon edge touches the box, even only at its boundary.
    Otherwise the connected box lies wholly on one side, so one corner
    decides INSIDE or OUTSIDE.
    """
    level, sx, sy = cell
    pts = _scaled(verts, _POW9[level])
    bx1 = sx + WORLD_SIZE
    by1 = sy + WORLD_SIZE
    x1, y1 = pts[-1]
    for x2, y2 in pts:
        if _seg_intersects_box(x1, y1, x2, y2, sx, sy, bx1, by1):
            return CellClass.EDGE
        x1, y1 = x2, y2
    return CellClass.INSIDE if point_in_polygon(sx, sy, pts) else CellClass.OUTSIDE


def classify_children(cell: Cell, verts: Sequence[Point]) -> bytes:
    """Classes of all 81 subcells of *cell*, row-major (index 9*i + j).

    Same answers as ``classify_cell(subcell(cell, k), verts)`` for each k,
    with less work: the polygon is scaled once, an edge that misses the
    closed parent box is dropped, and a kept edge is tested only against
    the subcells its bounding box spans.  Side-sharing subcells that no
    edge touches form a connected region off the boundary, so they share
    one point-in-polygon test.
    """
    level, sx, sy = cell
    _check_divisible(level)
    pts = _scaled(verts, _POW9[level + 1])
    psx = sx * 9
    psy = sy * 9
    top_x = psx + 9 * WORLD_SIZE
    top_y = psy + 9 * WORLD_SIZE
    out = bytearray(b"\xff" * 81)  # 0xFF: not yet classified
    x1, y1 = pts[-1]
    for x2, y2 in pts:
        if _seg_intersects_box(x1, y1, x2, y2, psx, psy, top_x, top_y):
            lo_x, hi_x = (x1, x2) if x1 < x2 else (x2, x1)
            lo_y, hi_y = (y1, y2) if y1 < y2 else (y2, y1)
            # subcells whose closed box meets the edge's bounding box
            j0 = max(0, -((psx - lo_x) // WORLD_SIZE) - 1)
            j1 = min(8, (hi_x - psx) // WORLD_SIZE)
            i0 = max(0, -((psy - lo_y) // WORLD_SIZE) - 1)
            i1 = min(8, (hi_y - psy) // WORLD_SIZE)
            for i in range(i0, i1 + 1):
                by0 = psy + i * WORLD_SIZE
                for j in range(j0, j1 + 1):
                    idx = 9 * i + j
                    if out[idx] != _EDGE:
                        bx0 = psx + j * WORLD_SIZE
                        if _seg_intersects_box(
                            x1, y1, x2, y2, bx0, by0, bx0 + WORLD_SIZE, by0 + WORLD_SIZE
                        ):
                            out[idx] = _EDGE
        x1, y1 = x2, y2
    for start in range(81):
        if out[start] != 0xFF:
            continue
        i, j = divmod(start, 9)
        inside = point_in_polygon(psx + j * WORLD_SIZE, psy + i * WORLD_SIZE, pts)
        cls = _INSIDE if inside else _OUTSIDE
        out[start] = cls
        stack = [start]
        while stack:
            for nb in _NEIGHBOURS[stack.pop()]:
                if out[nb] == 0xFF:
                    out[nb] = cls
                    stack.append(nb)
    return bytes(out)


def cell_intersects_disc(cell: Cell, cx: int, cy: int, radius: int) -> bool:
    """True when the closed cell box meets the closed disc (exact integer test)."""
    if radius < 0:
        raise DomainError("radius must be non-negative")
    level, sx, sy = cell
    scale = _POW9[level]
    x = cx * scale
    y = cy * scale
    hi_x = sx + WORLD_SIZE
    hi_y = sy + WORLD_SIZE
    dx = sx - x if x < sx else (x - hi_x if x > hi_x else 0)
    dy = sy - y if y < sy else (y - hi_y if y > hi_y else 0)
    r = radius * scale
    return dx * dx + dy * dy <= r * r


def disc_mask(cell: Cell, cx: int, cy: int, radius: int) -> int:
    """Bitmask over the 81 subcells of *cell* that meet the closed disc.

    Bit ``9*i + j`` is set when subcell (i, j) intersects; one call
    replaces 81 ``cell_intersects_disc`` tests during query descent.  Only
    the rows that the disc's bounding box spans are looked at, since no
    other subcell can meet the disc.  In row i, whose gap to the centre is
    dy, the disc spans x +- sqrt(r**2 - dy**2), and a closed column box
    meets that span exactly when it meets x +- isqrt(r**2 - dy**2), its
    edges being integers: so each row's hits are one run of columns, found
    from one integer square root.
    """
    if radius < 0:
        raise DomainError("radius must be non-negative")
    level, sx, sy = cell
    _check_divisible(level)
    scale = _POW9[level + 1]
    r = radius * scale
    # the centre relative to the cell's origin, one subcell side being WORLD_SIZE
    x = cx * scale - sx * 9
    y = cy * scale - sy * 9
    # closed box k meets [c - r, c + r] when k*W <= c + r and (k+1)*W >= c - r
    i0 = -((r - y) // WORLD_SIZE) - 1
    i1 = (y + r) // WORLD_SIZE
    if i0 < 0:
        i0 = 0
    if i1 > 8:
        i1 = 8
    rr = r * r
    mask = 0
    for i in range(i0, i1 + 1):
        lo = i * WORLD_SIZE
        d = lo - y if y < lo else (y - lo - WORLD_SIZE if y > lo + WORLD_SIZE else 0)
        w = isqrt(rr - d * d)  # d <= r in the bounding rows
        a = -((w - x) // WORLD_SIZE) - 1
        b = (x + w) // WORLD_SIZE
        if a < 0:
            a = 0
        if b > 8:
            b = 8
        if a <= b:
            mask |= ((1 << (b - a + 1)) - 1) << (9 * i + a)
    return mask


def disc_slack(nodes: Iterable[Tuple[Cell, int, int]], cx: int, cy: int, radius: int, cap: int) -> Optional[int]:
    """Whole metres the centre may move while every node's disc mask stays as it is now, or None if one differs.

    Each node is ``(cell, occupied, met)``.  None means that for some node
    ``disc_mask(cell, cx, cy, radius) & occupied != met``.  Otherwise every
    move shorter than the answer, at most ``cap``, keeps all of those
    masks.  A bit flips only when the distance d from the centre to its
    subcell's closed box crosses the radius r, and d changes no faster than
    the centre moves, so the answer is the least ``|d - r|`` over the
    occupied subcells, rounded down: ``r - ceil(d)`` inside the disc and
    ``floor(d) - r`` outside, from ``math.isqrt``; a subcell on the rim gives 0.

    One pass per node looks at the occupied subcells in the rows and
    columns within r + s of the centre, s being the slack so far; each
    one's d**2 decides its bit, by ``disc_mask``'s rule, and gives its gap.
    A subcell out of that reach lies farther than r + s, so it misses the
    disc and its gap is at least s: the bits found are the node's whole
    mask, and a ``met`` bit beyond reach or off ``occupied`` differs from
    them.  The slack carries from node to node and narrows the reach, so
    list the nodes with the smallest subcells first.
    """
    s = cap
    for (level, sx, sy), occupied, met in nodes:
        scale = _POW9[level + 1]
        r = radius * scale
        # the centre relative to the cell's origin, one subcell side being WORLD_SIZE
        x = cx * scale - sx * 9
        y = cy * scale - sy * 9
        reach = r + s * scale  # closed box k is in reach of c when k*W <= c + reach and (k+1)*W >= c - reach
        i0 = max(0, -((reach - y) // WORLD_SIZE) - 1)
        i1 = min(8, (y + reach) // WORLD_SIZE)
        j0 = max(0, -((reach - x) // WORLD_SIZE) - 1)
        j1 = min(8, (x + reach) // WORLD_SIZE)
        rr = r * r
        inside = 0  # the occupied subcells that meet the disc
        for i in range(i0, i1 + 1):
            row = occupied >> 9 * i
            lo = i * WORLD_SIZE
            dy = lo - y if y < lo else (y - lo - WORLD_SIZE if y > lo + WORLD_SIZE else 0)
            for j in range(j0, j1 + 1):
                if row >> j & 1:
                    lo = j * WORLD_SIZE
                    dx = lo - x if x < lo else (x - lo - WORLD_SIZE if x > lo + WORLD_SIZE else 0)
                    d2 = dx * dx + dy * dy
                    if d2 <= rr:
                        inside |= 1 << 9 * i + j
                        gap = r - (isqrt(d2 - 1) + 1 if d2 else 0)  # r - ceil(d)
                    else:
                        gap = isqrt(d2) - r  # floor(d) - r
                    if gap < s * scale:
                        s = gap // scale
        if inside != met:
            return None
    return s


def validate_polygon(verts: Sequence[Point]) -> None:
    """Reject polygons the zone machinery cannot handle.

    Requirements: at least 3 vertices, all within signed 32-bit range,
    no repeated vertices, no zero-area spikes, no self-intersection.
    Vertices may lie outside the world square; only the zone's overlap
    with the world is ever recorded.
    """
    if len(verts) < 3:
        raise DomainError("polygon needs at least 3 vertices")
    for x, y in verts:
        _check_point(x, y)
    if not _is_simple(verts):
        raise DomainError("polygon must be simple (no repeats, spikes, or crossings)")


def _is_simple(verts: Sequence[Point]) -> bool:
    """No repeated vertices, no spikes, no crossings of non-adjacent edges."""
    n = len(verts)
    if len({(x, y) for x, y in verts}) != n:
        return False
    for k in range(n):
        ax, ay = verts[k]
        bx, by = verts[(k + 1) % n]
        cx, cy = verts[(k + 2) % n]
        # a spike doubles back along the incoming edge
        if _orient(ax, ay, bx, by, cx, cy) == 0 and (ax - bx) * (cx - bx) + (ay - by) * (cy - by) > 0:
            return False
    for k in range(n):
        p1 = verts[k]
        p2 = verts[(k + 1) % n]
        for m in range(k + 1, n):
            if (m + 1) % n == k or (k + 1) % n == m:
                continue  # adjacent edges share a vertex by construction
            q1 = verts[m]
            q2 = verts[(m + 1) % n]
            if segments_intersect(p1[0], p1[1], p2[0], p2[1], q1[0], q1[1], q2[0], q2[1]):
                return False
    return True
