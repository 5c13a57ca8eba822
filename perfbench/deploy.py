"""Seeded inputs: deployments, drives and edit streams.

Everything here is a pure function of the seed and a ``Scale``; nothing
touches a device.  Roads are polylines with one gantry per vertex, zones
are star-shaped polygons: vertex angles strictly increase around a centre
and no angular gap reaches half a turn, so every outline is simple and
holds its centre strictly inside.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from flashquad.dataset import Gantry, Zone

WORLD = 2_000_000
FIX_RADIUS = 2_000  # metres: "which gantries are near" at every fix
NEW_ID_BASE = 1_000_000  # ids of objects the edit stream inserts


@dataclass(frozen=True)
class Scale:
    name: str
    box: int  # side of the square the roads are drawn in, metres
    roads: int
    gantries_per_road: int
    wide_zones: int  # radius about wide_radius, 40 vertices (a continuation page each)
    wide_radius: int
    medium_zones: int  # radius 15..40 km
    city_zones: int  # radius 2..12 km
    sectors: int  # device size the deployment is built on
    mounts: int  # boots before each pass over the drives
    drives: int  # per pass, each from a fresh page cache
    fixes_per_drive: int


NATIONAL = Scale("national", box=1_900_000, roads=40, gantries_per_road=100,
                 wide_zones=4, wide_radius=150_000, medium_zones=40, city_zones=256, sectors=256,
                 mounts=4, drives=64, fixes_per_drive=300)
REGIONAL = Scale("regional", box=400_000, roads=10, gantries_per_road=40,
                 wide_zones=1, wide_radius=50_000, medium_zones=4, city_zones=25, sectors=32,
                 mounts=8, drives=64, fixes_per_drive=150)

# Edit stream: exact counts, shuffled by the seed.  Deletes cost about three
# times an insert (each walks the tree twice), so with 26 inserts and 14
# deletes the median and the 75th percentile both fall inside a mode.
EDIT_MIX = {"insert_gantry": 16, "delete_gantry": 8, "insert_zone": 10, "delete_zone": 6}


@dataclass(frozen=True)
class Deployment:
    scale: Scale
    seed: int
    gantries: tuple[Gantry, ...]
    zones: tuple[Zone, ...]
    roads: tuple[tuple[tuple[int, int], ...], ...]
    centres: tuple[tuple[int, int], ...]  # zone id k was drawn around centres[k - 1]


@dataclass(frozen=True)
class Edit:
    op: str  # a key of EDIT_MIX
    obj: object  # the Gantry or Zone inserted or deleted
    probe: tuple[int, int]  # a point the object's own query answer depends on


def _star(rng: random.Random, cx: int, cy: int, radius: int, n: int) -> tuple[tuple[int, int], ...]:
    verts = []
    for k in range(n):
        a = 2 * math.pi * (k + rng.uniform(-0.3, 0.3)) / n
        r = radius * rng.uniform(0.7, 1.0)
        verts.append((cx + round(r * math.cos(a)), cy + round(r * math.sin(a))))
    return tuple(verts)


def _road(rng: random.Random, x0: int, y0: int, box: int, n: int) -> tuple[tuple[int, int], ...]:
    x, y = rng.uniform(x0, x0 + box), rng.uniform(y0, y0 + box)
    heading = rng.uniform(0, 2 * math.pi)
    pts = []
    for _ in range(n):
        if rng.random() < 0.1:
            heading += rng.uniform(-0.6, 0.6)
        step = rng.uniform(2_500, 5_500)
        nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
        if not x0 <= nx < x0 + box:
            heading = math.pi - heading
        if not y0 <= ny < y0 + box:
            heading = -heading
        x, y = x + step * math.cos(heading), y + step * math.sin(heading)
        x, y = min(max(x, x0), x0 + box - 1), min(max(y, y0), y0 + box - 1)
        pts.append((round(x), round(y)))
    return tuple(pts)


def make_deployment(seed: int, scale: Scale) -> Deployment:
    """The scale's fixed network, with its city zones drawn from the seed.

    Roads, gantries and the wide and medium zones are the same for every
    seed, so runs on different seeds differ in the city zones, the drives
    and the edits, not in where the network's hot spots lie.
    """
    rng = random.Random(f"network/{scale.name}")
    margin = (WORLD - scale.box) // 2
    x0 = rng.randrange(margin // 2, WORLD - scale.box - margin // 2 + 1)
    y0 = rng.randrange(margin // 2, WORLD - scale.box - margin // 2 + 1)
    roads = tuple(_road(rng, x0, y0, scale.box, scale.gantries_per_road) for _ in range(scale.roads))
    gantries = []
    for road in roads:
        for x, y in road:
            gantries.append(Gantry(len(gantries) + 1, x + rng.randint(-30, 30), y + rng.randint(-30, 30)))
    zones, centres = [], []

    def add(centre, radius, n):
        centres.append(centre)
        zones.append(Zone(len(zones) + 1, _star(rng, *centre, radius, n)))

    for _ in range(scale.wide_zones):
        add((rng.randrange(x0, x0 + scale.box), rng.randrange(y0, y0 + scale.box)), scale.wide_radius, 40)
    for _ in range(scale.medium_zones):
        add(rng.choice(rng.choice(roads)), rng.randint(15_000, 40_000), rng.randint(8, 16))
    rng = random.Random(f"cities/{scale.name}/{seed}")
    for _ in range(scale.city_zones):
        add(rng.choice(rng.choice(roads)), rng.randint(2_000, 12_000), rng.randint(5, 12))
    return Deployment(scale, seed, tuple(gantries), tuple(zones), roads, tuple(centres))


def make_drives(seed: int, dep: Deployment) -> list[list[tuple[int, int]]]:
    """One fix per simulated second at road speed, along the deployment's roads.

    A drive turns round at the end of its road, so it stays on the road.
    """
    rng = random.Random(f"drives/{dep.scale.name}/{seed}")
    drives = []
    for _ in range(dep.scale.drives):
        road = rng.choice(dep.roads)
        i = rng.randrange(len(road) - 1)
        step = 1 if rng.random() < 0.5 else -1
        if not 0 <= i + step < len(road):
            step = -step
        speed = rng.uniform(22.0, 36.0)  # m/s
        pos = 0.0
        fixes: list[tuple[int, int]] = []
        while len(fixes) < dep.scale.fixes_per_drive:
            (ax, ay), (bx, by) = road[i], road[i + step]
            length = math.hypot(bx - ax, by - ay)
            while pos <= length and len(fixes) < dep.scale.fixes_per_drive:
                f = pos / length if length else 0.0
                fixes.append((round(ax + (bx - ax) * f), round(ay + (by - ay) * f)))
                pos += speed
            pos -= length
            i += step
            if not 0 <= i + step < len(road):
                step = -step
        drives.append(fixes)
    return drives


def make_edits(seed: int, dep: Deployment) -> list[Edit]:
    """One round of single-object edits in the exact EDIT_MIX proportions.

    Zones come and go at city size only: the back office redraws city
    zones, not the network's wide and medium ones.
    """
    rng = random.Random(f"edits/{dep.scale.name}/{seed}")
    ops = [op for op, n in EDIT_MIX.items() for _ in range(n)]
    rng.shuffle(ops)
    gone_g = rng.sample(dep.gantries, EDIT_MIX["delete_gantry"])
    cities = dep.zones[dep.scale.wide_zones + dep.scale.medium_zones :]
    gone_z = rng.sample(cities, EDIT_MIX["delete_zone"])
    edits = []
    for n, op in enumerate(ops):
        new_id = NEW_ID_BASE + n
        if op == "insert_gantry":
            x, y = rng.choice(rng.choice(dep.roads))
            g = Gantry(new_id, x + rng.randint(-300, 300), y + rng.randint(-300, 300))
            edits.append(Edit(op, g, (g.x, g.y)))
        elif op == "insert_zone":
            cx, cy = rng.choice(rng.choice(dep.roads))
            edits.append(Edit(op, Zone(new_id, _star(rng, cx, cy, rng.randint(2_000, 8_000), rng.randint(5, 10))), (cx, cy)))
        elif op == "delete_gantry":
            g = gone_g.pop()
            edits.append(Edit(op, g, (g.x, g.y)))
        else:
            z = gone_z.pop()
            edits.append(Edit(op, z, dep.centres[z.zone_id - 1]))
    return edits
