"""Shared test oracles, independent of the package's own geometry code.

The point-in-polygon and disc oracles reimplement the predicates from
scratch (numpy, vectorized over query points) so quadtree answers can be
checked against linear scans at acceptance scale.  Boundary semantics
match the library: polygon boundaries and the disc rim count as hits.
"""

from __future__ import annotations

import hashlib
import random
from math import isqrt
from typing import Sequence

import numpy as np

WORLD = 2_000_000


# -- point in polygon, vectorized ------------------------------------------


def pip_oracle(px: np.ndarray, py: np.ndarray, verts: Sequence[tuple[int, int]]) -> np.ndarray:
    """Even-odd membership for many points at once, boundary inclusive.

    Exact in int64: callers must keep |coordinates| small enough that the
    cross products stay below 2**63 (fine for world-scale inputs).
    """
    px = np.asarray(px, dtype=np.int64)
    py = np.asarray(py, dtype=np.int64)
    inside = np.zeros(px.shape, dtype=bool)
    on_edge = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        # collinear and within the segment's bounding box -> on the edge
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        within = (
            (px >= min(x1, x2))
            & (px <= max(x1, x2))
            & (py >= min(y1, y2))
            & (py <= max(y1, y2))
        )
        on_edge |= (cross == 0) & within
        # half-open crossing rule, exact sign arithmetic
        if y1 == y2:
            continue
        straddles = (y1 > py) != (y2 > py)
        # point is left of the edge at height py  <=>  cross has the sign of (y2-y1)
        if y2 > y1:
            hits = straddles & (cross > 0)
        else:
            hits = straddles & (cross < 0)
        inside ^= hits
    return inside | on_edge


def pip_oracle_one(x: int, y: int, verts: Sequence[tuple[int, int]]) -> bool:
    return bool(pip_oracle(np.array([x]), np.array([y]), verts)[0])


# -- disc membership ---------------------------------------------------------


def disc_oracle(px: np.ndarray, py: np.ndarray, cx: int, cy: int, r: int) -> np.ndarray:
    px = np.asarray(px, dtype=np.int64)
    py = np.asarray(py, dtype=np.int64)
    return (px - cx) ** 2 + (py - cy) ** 2 <= r * r


def slack_by_scan(cell, cx, cy, r, occupied, cap):
    """The least floored |d - r| over every occupied subcell, metres, at most cap: all 81 looked at."""
    scale = 9 ** (cell.level + 1)
    s = cap
    for idx in range(81):
        if occupied >> idx & 1:
            i, j = divmod(idx, 9)
            gaps = []
            for c, lo in ((cx * scale - cell.sx * 9, j * WORLD), (cy * scale - cell.sy * 9, i * WORLD)):
                gaps.append(max(lo - c, c - lo - WORLD, 0))
            d2 = gaps[0] ** 2 + gaps[1] ** 2
            rs = r * scale
            gap = rs - (isqrt(d2 - 1) + 1 if d2 else 0) if d2 <= rs * rs else isqrt(d2) - rs
            s = min(s, gap // scale)
    return s


# -- random shapes -----------------------------------------------------------


def random_simple_polygon(
    rng: random.Random,
    max_verts: int = 12,
    center_span: int = WORLD,
    radius_max: int = 600_000,
) -> tuple[tuple[int, int], ...]:
    """Star-shaped (hence simple) polygon with integer vertices.

    Coordinates stay within a few million metres so the int64 oracle
    arithmetic cannot overflow.
    """
    from flashquad.geometry import validate_polygon
    from flashquad.errors import DomainError

    while True:
        n = rng.randint(3, max_verts)
        cx = rng.randint(-200_000, center_span + 200_000)
        cy = rng.randint(-200_000, center_span + 200_000)
        rmax = rng.randint(2_000, radius_max)
        angles = sorted(rng.uniform(0, 6.283185307179586) for _ in range(n))
        verts = []
        import math

        for a in angles:
            rr = rmax * rng.uniform(0.35, 1.0)
            verts.append((int(cx + rr * math.cos(a)), int(cy + rr * math.sin(a))))
        try:
            validate_polygon(verts)
        except DomainError:
            continue
        return tuple(verts)


def random_gantries(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """(id, x, y) triples with unique ids and positions inside the world."""
    out = []
    used = set()
    while len(out) < n:
        x = rng.randrange(WORLD)
        y = rng.randrange(WORLD)
        if (x, y) in used:
            continue
        used.add((x, y))
        out.append((len(out) + 1, x, y))
    return out


def seeded_store(sectors, n_gantries, n_zones, seed, **kw):
    """A fresh store holding random gantries and zones, committed as version 2."""
    from flashquad.errors import DomainError
    from flashquad.flashsim import FlashDevice, FlashGeometry
    from flashquad.store import Store

    rng = random.Random(seed)
    store = Store.format(FlashDevice(FlashGeometry(sector_count=sectors)), **kw)
    s = store.begin()
    for gid, x, y in random_gantries(rng, n_gantries):
        s.insert_gantry(gid, x, y)
    zid = 1
    while zid <= n_zones:
        try:
            s.insert_zone(zid, random_simple_polygon(rng))
        except DomainError:
            continue  # polygon fell wholly outside the world; roll another
        zid += 1
    s.commit()
    return store


# -- state digests -----------------------------------------------------------


def version_digest(store, version_no: int) -> str:
    """SHA-256 over the sorted reachable page contents of one version."""
    handle = store.handle(version_no)
    h = hashlib.sha256()
    for addr in sorted(handle.reachable_pages()):
        h.update(addr.to_bytes(4, "big"))
        h.update(store.device.read_page(addr))
    return h.hexdigest()


def count_kind_programs(device, magic: int) -> list:
    """Attach a hook counting programs of pages starting with ``magic``.

    Returns a single-element list the hook mutates; detach by setting
    ``device.on_program = None``.
    """
    box = [0]

    def hook(addr, data):
        if data[0] == magic:
            box[0] += 1

    device.on_program = hook
    return box
