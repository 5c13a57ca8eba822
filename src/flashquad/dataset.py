"""Text datasets (gantries, zones), drive traces, and seeded generators.

Dataset files are line oriented:

    # comment
    G <id> <x> <y>
    Z <id> <x1> <y1> <x2> <y2> ... (three or more vertex pairs)

Coordinates are integer metres.  Gantries must lie inside the world
square; zone vertices may stick out past it (the overhang is clipped by
cell classification, not by the loader).  Ids must be unique per kind —
a gantry and a zone may share an id.

Trace files hold one vehicle position per line, ``<t> <x> <y>`` with
``t`` in strictly increasing whole seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

from .errors import DomainError, ParseError
from .geometry import COORD_MAX, COORD_MIN, WORLD_SIZE, in_world, validate_polygon


@dataclass(frozen=True)
class Gantry:
    gantry_id: int
    x: int
    y: int


@dataclass(frozen=True)
class Zone:
    zone_id: int
    vertices: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TraceStep:
    t: int
    x: int
    y: int


def _int_field(token: str, what: str, line_no: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", line_no) from None


def parse_dataset(text: str) -> tuple[list[Gantry], list[Zone]]:
    gantries: list[Gantry] = []
    zones: list[Zone] = []
    seen_g: set[int] = set()
    seen_z: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        if kind == "G":
            if len(fields) != 4:
                raise ParseError("gantry line needs: G <id> <x> <y>", line_no)
            gid = _int_field(fields[1], "id", line_no)
            x = _int_field(fields[2], "x", line_no)
            y = _int_field(fields[3], "y", line_no)
            if not 0 <= gid < 1 << 32:
                raise ParseError(f"id {gid} out of range", line_no)
            if gid in seen_g:
                raise ParseError(f"duplicate gantry id {gid}", line_no)
            if not in_world(x, y):
                raise ParseError(f"gantry ({x}, {y}) outside the world square", line_no)
            seen_g.add(gid)
            gantries.append(Gantry(gid, x, y))
        elif kind == "Z":
            if len(fields) < 8 or len(fields) % 2 != 0:
                raise ParseError(
                    "zone line needs: Z <id> and at least three x y pairs", line_no
                )
            zid = _int_field(fields[1], "id", line_no)
            if not 0 <= zid < 1 << 32:
                raise ParseError(f"id {zid} out of range", line_no)
            if zid in seen_z:
                raise ParseError(f"duplicate zone id {zid}", line_no)
            coords = [_int_field(tok, "coordinate", line_no) for tok in fields[2:]]
            verts = tuple(zip(coords[0::2], coords[1::2]))
            for vx, vy in verts:
                if not (COORD_MIN <= vx <= COORD_MAX and COORD_MIN <= vy <= COORD_MAX):
                    raise ParseError(f"vertex ({vx}, {vy}) overflows 32-bit range", line_no)
            try:
                validate_polygon(verts)
            except DomainError as e:
                raise ParseError(f"bad zone polygon: {e}", line_no) from None
            seen_z.add(zid)
            zones.append(Zone(zid, verts))
        else:
            raise ParseError(f"unknown record kind {fields[0]!r}", line_no)
    return gantries, zones


def write_dataset(gantries: Iterable[Gantry], zones: Iterable[Zone], fh: TextIO) -> None:
    for g in gantries:
        fh.write(f"G {g.gantry_id} {g.x} {g.y}\n")
    for z in zones:
        coords = " ".join(f"{x} {y}" for x, y in z.vertices)
        fh.write(f"Z {z.zone_id} {coords}\n")


def parse_trace(text: str) -> list[TraceStep]:
    steps: list[TraceStep] = []
    last_t: Optional[int] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError("trace line needs: <t> <x> <y>", line_no)
        t = _int_field(fields[0], "t", line_no)
        x = _int_field(fields[1], "x", line_no)
        y = _int_field(fields[2], "y", line_no)
        if last_t is not None and t <= last_t:
            raise ParseError(f"time {t} does not increase (previous was {last_t})", line_no)
        if not in_world(x, y):
            raise ParseError(f"position ({x}, {y}) outside the world square", line_no)
        last_t = t
        steps.append(TraceStep(t, x, y))
    return steps


def write_trace(steps: Iterable[TraceStep], fh: TextIO) -> None:
    for s in steps:
        fh.write(f"{s.t} {s.x} {s.y}\n")


# ---------------------------------------------------------------------------
# seeded generators


def generate_dataset(
    seed: int,
    n_gantries: int = 500,
    n_zones: int = 30,
) -> tuple[list[Gantry], list[Zone]]:
    """Synthesize a plausible deployment.

    Gantries sit along a few dozen straight road segments; zones are
    convex polygons of mixed size, a few of them deliberately poking past
    the world edge.
    """
    rng = random.Random(seed)
    gantries: list[Gantry] = []
    gid = 1
    while len(gantries) < n_gantries:
        # one road: a segment with gantries spaced roughly every 1..3 km
        x0, y0 = rng.randrange(WORLD_SIZE), rng.randrange(WORLD_SIZE)
        x1, y1 = rng.randrange(WORLD_SIZE), rng.randrange(WORLD_SIZE)
        n = rng.randint(3, 18)
        for k in range(n):
            if len(gantries) >= n_gantries:
                break
            fx = x0 + (x1 - x0) * k // max(n - 1, 1)
            fy = y0 + (y1 - y0) * k // max(n - 1, 1)
            fx += rng.randint(-400, 400)
            fy += rng.randint(-400, 400)
            if in_world(fx, fy):
                gantries.append(Gantry(gid, fx, fy))
                gid += 1
    zones: list[Zone] = []
    zid = 1
    while len(zones) < n_zones:
        cx, cy = rng.randrange(WORLD_SIZE), rng.randrange(WORLD_SIZE)
        r = rng.choice([rng.randint(800, 5_000), rng.randint(5_000, 60_000)])
        n = rng.randint(3, 8)
        angles = sorted(rng.uniform(0, 6.283185) for _ in range(n))
        if angles[-1] - angles[0] < 1.0:
            continue  # too sliver-like; try again
        verts = []
        for a in angles:
            vx = cx + int(r * math.cos(a))
            vy = cy + int(r * math.sin(a))
            verts.append((vx, vy))
        try:
            validate_polygon(verts)
        except DomainError:
            continue
        zones.append(Zone(zid, tuple(verts)))
        zid += 1
    return gantries, zones


def generate_trace(
    seed: int,
    steps: int = 200,
    speed: int = 25,
) -> list[TraceStep]:
    """Random drive: straight runs with occasional turns, world-edge bounce."""
    rng = random.Random(seed)
    x = rng.randrange(WORLD_SIZE // 4, 3 * WORLD_SIZE // 4)
    y = rng.randrange(WORLD_SIZE // 4, 3 * WORLD_SIZE // 4)
    heading = rng.uniform(0, 6.283185)
    out: list[TraceStep] = []
    t = 0
    for _ in range(steps):
        t += rng.randint(1, 4)
        if rng.random() < 0.15:
            heading += rng.uniform(-1.2, 1.2)
        dt = out[-1].t if out else 0
        dist = speed * (t - dt)
        nx = x + int(dist * math.cos(heading))
        ny = y + int(dist * math.sin(heading))
        if not 0 <= nx < WORLD_SIZE:
            heading = 3.141593 - heading
            nx = min(max(nx, 0), WORLD_SIZE - 1)
        if not 0 <= ny < WORLD_SIZE:
            heading = -heading
            ny = min(max(ny, 0), WORLD_SIZE - 1)
        x, y = nx, ny
        out.append(TraceStep(t, x, y))
    return out


def build_database(store, gantries: Iterable[Gantry], zones: Iterable[Zone]) -> int:
    """Load a dataset as one new version (``Session.load``); returns its number."""
    session = store.begin()
    try:
        session.load([(g.gantry_id, g.x, g.y) for g in gantries], [(z.zone_id, z.vertices) for z in zones])
    except Exception:
        session.rollback()
        raise
    return session.commit()
