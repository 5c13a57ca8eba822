"""Answers and page walks computed apart from the package.

Nothing here imports ``flashquad``: the geometry is exact integer
arithmetic written from the definitions (boundaries and the disc rim count
as hits), and the page walker reads device images by the byte layouts of
FORMAT.md.
"""

from __future__ import annotations

import binascii
import hashlib
from dataclasses import dataclass, field

import numpy as np

PAGE = 256
EMPTY = 0xFFFFFF
NODE, LEAF, OBJECT = 0x51, 0x4C, 0x4F
POINT_RECORD = 0


# -- geometry -----------------------------------------------------------------


def point_in_polygon(x: int, y: int, verts) -> bool:
    """Even-odd rule with a ray towards +x; a point on an edge is inside."""
    inside = False
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if cross == 0 and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return True
        if (y1 > y) != (y2 > y) and (cross > 0) == (y2 > y1):
            inside = not inside
    return inside


class Oracle:
    """Linear scans over the objects currently in the database.

    Both scans visit every object; the zone scan first drops zones whose
    bounding box misses the point, which cannot change its answer.
    """

    def __init__(self, gantries, zones):
        self.gantries = {g.gantry_id: (g.x, g.y) for g in gantries}
        self.zones = {z.zone_id: tuple(z.vertices) for z in zones}
        self._g = self._z = None

    def add(self, obj) -> None:
        if hasattr(obj, "gantry_id"):
            self.gantries[obj.gantry_id] = (obj.x, obj.y)
            self._g = None
        else:
            self.zones[obj.zone_id] = tuple(obj.vertices)
            self._z = None

    def drop(self, obj) -> None:
        if hasattr(obj, "gantry_id"):
            del self.gantries[obj.gantry_id]
            self._g = None
        else:
            del self.zones[obj.zone_id]
            self._z = None

    def zones_at(self, x: int, y: int) -> frozenset[int]:
        if self._z is None:
            items = list(self.zones.items())
            box = np.array([(min(a for a, _ in v), min(b for _, b in v), max(a for a, _ in v), max(b for _, b in v))
                            for _, v in items], dtype=np.int64).reshape(-1, 4)
            self._z = (items, *box.T)
        items, x0, y0, x1, y1 = self._z
        cand = np.flatnonzero((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
        return frozenset(items[k][0] for k in cand.tolist() if point_in_polygon(x, y, items[k][1]))

    def gantries_within(self, x: int, y: int, r: int) -> frozenset[int]:
        if self._g is None:
            ids = np.fromiter(self.gantries, dtype=np.int64, count=len(self.gantries))
            xy = np.array(list(self.gantries.values()), dtype=np.int64).reshape(-1, 2)
            self._g = (ids, xy[:, 0], xy[:, 1])
        ids, xs, ys = self._g
        near = (xs - x) ** 2 + (ys - y) ** 2 <= r * r  # < 2**45: exact in int64
        return frozenset(ids[near].tolist())


@dataclass(frozen=True)
class _Gantry:
    gantry_id: int
    x: int
    y: int


@dataclass(frozen=True)
class _Zone:
    zone_id: int
    vertices: tuple


def self_check() -> list[str]:
    """Hand-made cases whose answers are known; returns the failures."""
    sq = ((0, 0), (10, 0), (10, 10), (0, 10))
    tri = ((0, 0), (9, 3), (3, 9))
    cases = [
        ("on an edge", point_in_polygon(5, 0, sq), True),
        ("on a vertical edge", point_in_polygon(10, 4, sq), True),
        ("on a vertex", point_in_polygon(10, 10, sq), True),
        ("inside", point_in_polygon(5, 5, sq), True),
        ("just outside an edge", point_in_polygon(11, 5, sq), False),
        ("just outside a vertex", point_in_polygon(-1, -1, sq), False),
        ("on a slanted edge", point_in_polygon(6, 6, tri), True),
        ("just outside a slanted edge", point_in_polygon(7, 7, tri), False),
        ("level with a vertex, outside", point_in_polygon(12, 3, tri), False),
        ("level with a vertex, inside", point_in_polygon(5, 3, tri), True),
    ]
    o = Oracle([], [])
    for gid, x, y in ((1, 3_000, 4_000), (2, 3_000, 4_001), (3, -5_000, 0), (4, 0, 0)):
        o.add(_Gantry(gid, x, y))
    o.add(_Zone(7, sq))
    cases += [
        ("zone scan, point on a vertex", o.zones_at(0, 10), frozenset({7})),
        ("zone scan, point just outside", o.zones_at(0, 11), frozenset()),
        ("gantries on and just past the rim", o.gantries_within(0, 0, 5_000), frozenset({1, 3, 4})),
        ("gantry at the centre, zero radius", o.gantries_within(0, 0, 0), frozenset({4})),
    ]
    return [f"oracle self-check, {what}: got {got}, expected {want}" for what, got, want in cases if got != want]


# -- page walker ----------------------------------------------------------------
#
# ``read(addr)`` returns a page's 256 bytes: ``FlashDevice.read_page``, or
# ``image_reader`` over a device image in the ``FlashDevice.to_bytes`` layout.


def image_reader(img: bytes):
    return lambda addr: img[8 + addr * PAGE : 8 + (addr + 1) * PAGE]


def _u24(b: bytes, off: int) -> int:
    return int.from_bytes(b[off : off + 3], "big")


def _i32(b: bytes, off: int) -> int:
    return int.from_bytes(b[off : off + 4], "big", signed=True)


def live_versions(read) -> dict[int, int]:
    """version -> root page of every live, intact record in both directory subsectors."""
    out = {}
    for p in range(32):
        raw = read(p)
        for s in range(0, PAGE, 16):
            slot = raw[s : s + 16]
            if slot[:2] != b"FQ" or not slot[12] & 1:
                continue
            if int.from_bytes(slot[13:15], "big") != binascii.crc_hqx(slot[:12], 0xFFFF):
                continue
            out[int.from_bytes(slot[2:6], "big")] = _u24(slot, 6)
    return out


@dataclass
class Walk:
    reachable: set[int] = field(default_factory=set)
    objects: list[tuple] = field(default_factory=list)  # ("gantry", id, x, y) / ("zone", id, verts)
    problems: list[str] = field(default_factory=list)


def walk(read, root: int) -> Walk:
    w = Walk()
    stack = [root]
    while stack:
        addr = stack.pop()
        if addr in w.reachable:
            w.problems.append(f"node page {addr} reached twice")
            continue
        raw = read(addr)
        if raw[0] != NODE:
            w.problems.append(f"page {addr} is not a node")
            continue
        w.reachable.add(addr)
        words = [_u24(raw, 2)] + [_u24(raw, 13 + 3 * k) for k in range(81)]
        for k, word in enumerate(words):
            if word == EMPTY:
                continue
            tag, target = word >> 22, word & 0x3FFFFF
            if tag == 0 and k > 0:
                stack.append(target)
            elif tag == 1:
                _chain(read, target, w)
            else:
                w.problems.append(f"node {addr} holds a bad entry word {word:#x}")
    return w


def _chain(read, addr: int, w: Walk) -> None:
    while addr != EMPTY and addr not in w.reachable:
        raw = read(addr)
        if raw[0] != LEAF:
            w.problems.append(f"page {addr} is not a leaf list")
            return
        w.reachable.add(addr)
        for k in range(raw[1]):
            _object(read, _u24(raw, 6 + 4 * k), w)
        addr = _u24(raw, 2)


def _object(read, head: int, w: Walk) -> None:
    if head in w.reachable:
        return
    raw = read(head)
    if raw[0] != OBJECT or raw[1] not in (0, 1):
        w.problems.append(f"page {head} is not an object head")
        return
    w.reachable.add(head)
    oid = int.from_bytes(raw[2:6], "big")
    if raw[1] == 0:
        w.objects.append(("gantry", oid, _i32(raw, 6), _i32(raw, 10)))
        return
    verts = []
    while True:
        verts += [(_i32(raw, 12 + 8 * k), _i32(raw, 16 + 8 * k)) for k in range(raw[8])]
        nxt = _u24(raw, 9)
        if nxt == EMPTY:
            break
        w.reachable.add(nxt)
        raw = read(nxt)
    w.objects.append(("zone", oid, tuple(verts)))


def leaf_has_point(raw: bytes) -> bool:
    return any(raw[5 + 4 * k] == POINT_RECORD for k in range(raw[1]))


def digest(read, pages) -> bytes:
    """Content hash of the given pages, in address order."""
    h = hashlib.sha256()
    for addr in sorted(pages):
        h.update(addr.to_bytes(3, "big"))
        h.update(read(addr))
    return h.digest()
