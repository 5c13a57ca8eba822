#!/usr/bin/env python3
"""flashquad's layered benchmark: bulk build, in-vehicle drive, edit-and-update.

    python3 perfbench/run.py --workload build|drive|edit --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in this one process and thread as a closed
loop: one caller that waits for every answer.  For ``--seconds`` seconds it
repeats whole rounds of its own operations and, between them, of companion
operations that give the end-to-end figures it does not time itself (see
README.md).  Every answer is checked against computations made apart from
the package.  Each operation is repeated on the same inputs and state in
every round; wall-time figures are medians over the repeats, scaled for
the host's contention as measured by a fixed reference task timed between
operations.  With ``--trace 0`` the last line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` the run wraps the
package's layers around the workload's own operations and prints every
per-layer metric instead, each as a mean per unit of work, plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The package is the one in this checkout or none at all.
if not os.path.isfile(os.path.join(SRC, "flashquad", "__init__.py")):
    sys.exit(f"perfbench: no flashquad source under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)
import flashquad  # noqa: E402

if not os.path.abspath(flashquad.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: flashquad was imported from {flashquad.__file__}, not from {SRC}")

from flashquad import FlashDevice, FlashFullError, FlashGeometry, Store, dataset  # noqa: E402
from flashquad.cache import PageCache  # noqa: E402

import deploy  # noqa: E402
import oracle  # noqa: E402
from deploy import FIX_RADIUS, NATIONAL, REGIONAL  # noqa: E402

SETUP_REPS = 3  # setup_s is the median of this many set-ups
CACHE_PAGES = 15  # the unit's page cache, fresh for every drive (as replay.replay does)
TAIL = 0.75  # commit_tail_ms: 40 edits leave 10 above it
QUERY_SAMPLE = 200  # seeded point and disc queries checked on each deployment's first build
# The tight-device load takes a fixed deployment (the national one for seed 0,
# 8 581 pages once committed) onto a part about twice that size: 68 sectors
# hold 17 408 pages.  A build round is BUILDS_PER_ROUND builds and one such load.
TIGHT_SEED, TIGHT_SECTORS = 0, 68
BUILDS_PER_ROUND = 2
READ_US, PROGRAM_US, ERASE_US = 50, 1_000, 500_000

# Which deployment each phase runs on, and its share of the run's wall time;
# the workload's own phase is the one named after it.  A national edit
# (commit, package, apply) takes about half a second, so a run would time each
# of its 40 edits once; every edit phase runs on the regional deployment,
# where a run repeats each edit several times.
PLAN = {
    "build": {"build": ("national", 0.5), "drive": ("regional", 0.2), "edit": ("regional", 0.3)},
    "drive": {"drive": ("national", 0.55), "build": ("regional", 0.1), "edit": ("regional", 0.35)},
    "edit": {"edit": ("regional", 0.6), "build": ("regional", 0.1), "drive": ("regional", 0.3)},
}


def pct(values, q: float) -> float:
    """Percentile with linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * q
    f = int(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def per_operation_median(rounds: list[list[float]]) -> list[float]:
    """Each operation's median over its repeats.

    Every round lists the same operations in the same order; the last one
    may stop early.
    """
    return [statistics.median(r[k] for r in rounds if k < len(r)) for k in range(len(rounds[0]))]


# -- host contention ----------------------------------------------------------
#
# On a shared host the same code runs 2.5 times slower or more for stretches
# of a fraction of a second to minutes, whatever this process does.  Between
# operations the run times a fixed reference task: pure Python, independent of
# the package, on inputs that never change.  Each timed operation is scaled
# by REFERENCE_S over the reference task's median time around it, so every
# wall-time figure reads as on a host where that task takes REFERENCE_S.

REFERENCE_S = 1.1e-3  # about the task's time on an idle core: the fastest of 2 000 runs took 1.08 ms
REFERENCE_EVERY_S = 0.02  # at most this long between two reference runs, apart from long operations
REFERENCE_AROUND_S = 0.5  # reference runs this close to an operation describe the host during it
REFERENCE_LEAST = 5  # otherwise the nearest this many
_REFERENCE_BYTES = bytes((i * 7919 + 13) % 256 for i in range(4099))


class _Cell:
    __slots__ = ("key", "pair", "label")

    def __init__(self, key, pair, label):
        self.key, self.pair, self.label = key, pair, label


def reference_task() -> int:
    """About a millisecond of slicing, integer decoding, dict and set work, small objects and a sort."""
    counts: dict[int, int] = {}
    acc = 0
    pairs = []
    for i in range(0, 4000, 3):
        v = int.from_bytes(_REFERENCE_BYTES[i : i + 3], "big")
        counts[v & 511] = counts.get(v & 511, 0) + 1
        acc ^= v
        pairs.append((v, i))
    pairs.sort()
    cells = [_Cell(i, (i, i + 1), str(i)) for i in range(600)]
    for cell in cells:
        acc += cell.key + cell.pair[1] + len(cell.label)
    return acc + len(counts) + len(frozenset(range(0, 3000, 3)))


class Reference:
    """The reference task's times through the run, and the scale they give each operation."""

    def __init__(self) -> None:
        self.when: list[float] = []  # midpoints, in order
        self.took: list[float] = []

    def run(self) -> None:
        t0 = perf_counter()
        reference_task()
        t1 = perf_counter()
        self.when.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the reference task's median time around the span [t0, t1]."""
        lo = bisect.bisect_left(self.when, t0 - REFERENCE_AROUND_S)
        hi = bisect.bisect_right(self.when, t1 + REFERENCE_AROUND_S)
        while hi - lo < REFERENCE_LEAST and (lo > 0 or hi < len(self.when)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.when))
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.scale(t0, t1)


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.failures) < 100:
            self.failures.append(what)

    def clock(self, dev: FlashDevice, what: str) -> None:
        want = READ_US * dev.reads + PROGRAM_US * dev.programs + ERASE_US * dev.erases
        self.expect(dev.sim_clock_us == want, f"{what}: simulated clock {dev.sim_clock_us} us, "
                                              f"reads/programs/erases give {want} us")


class Inputs:
    """Everything a run starts from: inputs generated from the seed and the images built from them."""

    def __init__(self, workload: str, seed: int):
        self.deployments = {"regional": deploy.make_deployment(seed, REGIONAL)}
        if workload != "edit":
            self.deployments["national"] = deploy.make_deployment(seed, NATIONAL)
        self.drives = {name: deploy.make_drives(seed, d) for name, d in self.deployments.items()}
        self.edits = {name: deploy.make_edits(seed, d) for name, d in self.deployments.items()}
        self.tight = deploy.make_deployment(TIGHT_SEED, NATIONAL) if workload == "build" else None
        self.images = {"regional": build(self.deployments["regional"])[0].to_bytes()}
        if workload == "drive":
            self.images["national"] = build(self.deployments["national"])[0].to_bytes()


def build(dep):
    dev = FlashDevice(FlashGeometry(dep.scale.sectors))
    st = Store.format(dev)
    dataset.build_database(st, dep.gantries, dep.zones)
    return dev, st


class _active:
    """Turn the tracer's counting on for the timed operations only."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = False


# -- phases ---------------------------------------------------------------------
#
# A phase repeats whole rounds of one kind of work.  ``steps`` runs one round
# and yields after each operation, so the scheduler can interleave phases; it
# adds the round's timed seconds to ``spent``.  Every round repeats the same
# operations on the same inputs from the same state, so device costs repeat
# exactly; every operation's (start, end) is kept, so its wall time can be
# scaled by the reference task's times around it.  The first round's answers
# are checked against the oracle, later rounds against the first.


class Phase:
    units_per_round = 1  # what a traced figure is a mean per: a build, a pass, an edit round

    def __init__(self, dep, checks: Checks):
        self.dep, self.checks = dep, checks
        self.name = dep.scale.name
        self.attempted = self.failed = 0
        self.spent = 0.0  # seconds inside the timed operations
        self.used = 0.0  # wall seconds of all its steps, checks included
        self.rounds = 0  # rounds finished
        self.boundary = True  # between two rounds
        self.tracer = None
        self._steps = self._forever()

    def _forever(self):
        while True:
            self.boundary = False
            yield from self.steps()
            self.rounds += 1
            self.boundary = True
            yield

    def step(self) -> None:
        t0 = perf_counter()
        next(self._steps)
        self.used += perf_counter() - t0

    def round(self) -> float:
        """Finish the current round (a whole one, between rounds); its timed seconds."""
        before, r = self.spent, self.rounds
        while self.rounds == r:
            self.step()
        return self.spent - before


class BuildPhase(Phase):
    """Format, load and commit a deployment; with ``tight``, rounds also make the tight-device load."""

    def __init__(self, dep, checks: Checks, tight=None):
        super().__init__(dep, checks)
        self.tight = tight
        self.units_per_round = BUILDS_PER_ROUND if tight is not None else 1
        self.wall: list[tuple[float, float]] = []  # (start, end) of every build
        self.sim_us = None
        self.image = None  # device image of the first build
        self.image_pages = None

    def steps(self):
        for _ in range(self.units_per_round):
            if self.tracer is not None:
                self.tracer.new_unit()
            t0 = perf_counter()
            with _active(self.tracer):
                dev, st = build(self.dep)
            t1 = perf_counter()
            self.wall.append((t0, t1))
            self.spent += t1 - t0
            self.attempted += 1
            self.checks.clock(dev, f"{self.name} build")
            img = dev.to_bytes()
            if self.image is None:
                self.image, self.sim_us = img, dev.sim_clock_us
                self.image_pages = check_build(img, st, self.dep, self.checks, queries=True)
            else:
                self.checks.expect(img == self.image and dev.sim_clock_us == self.sim_us,
                                   f"{self.name} build differs from the first")
            yield
        if self.tight is not None:
            self.attempted += 1
            dev = FlashDevice(FlashGeometry(TIGHT_SECTORS))
            try:
                st = Store.format(dev)
                dataset.build_database(st, self.tight.gantries, self.tight.zones)
            except FlashFullError:
                self.failed += 1
            else:
                check_build(dev.to_bytes(), st, self.tight, self.checks, queries=False)
            self.checks.clock(dev, "tight-device build")
            yield

    def metrics(self, ref: Reference) -> dict:
        return {"build_s": statistics.median(ref.seconds(*span) for span in self.wall),
                "build_sim_s": self.sim_us / 1e6,
                "image_pages": self.image_pages}


def check_build(img: bytes, st: Store, dep, checks: Checks, queries: bool) -> int:
    name = dep.scale.name
    read = oracle.image_reader(img)
    versions = oracle.live_versions(read)
    checks.expect(max(versions) == st.current_version, f"{name} build: live versions {sorted(versions)}")
    w = oracle.walk(read, versions[max(versions)])
    checks.expect(not w.problems, f"{name} build: page walk found {w.problems[:3]}")
    want = sorted([("gantry", g.gantry_id, g.x, g.y) for g in dep.gantries]
                  + [("zone", z.zone_id, tuple(z.vertices)) for z in dep.zones])
    checks.expect(sorted(w.objects) == want, f"{name} build: the committed objects differ from the dataset")
    rep = st.verify()
    checks.expect(rep["ok"], f"{name} build: verify reports {rep['problems'][:3]}")
    if queries:
        ora = oracle.Oracle(dep.gantries, dep.zones)
        rng = random.Random(f"build-queries/{name}/{dep.seed}")
        h = st.handle()
        st.swap_cache(PageCache(CACHE_PAGES))
        for _ in range(QUERY_SAMPLE):
            g = rng.choice(dep.gantries)
            x = min(max(g.x + rng.randint(-20_000, 20_000), 0), deploy.WORLD - 1)
            y = min(max(g.y + rng.randint(-20_000, 20_000), 0), deploy.WORLD - 1)
            r = int(30_000 ** rng.random())
            checks.expect(h.query_zones_at(x, y).ids == ora.zones_at(x, y), f"{name} build: zones at ({x}, {y})")
            checks.expect(h.query_gantries_within(x, y, r).ids == ora.gantries_within(x, y, r),
                          f"{name} build: gantries within {r} m of ({x}, {y})")
    return len(w.reachable)


class DrivePhase(Phase):
    """A pass boots the image a few times, then replays every drive on the last boot."""

    def __init__(self, dep, image: bytes, drives, checks: Checks):
        super().__init__(dep, checks)
        self.image, self.drives = image, drives
        self.mount_wall: list[tuple[float, float]] = []  # (start, end) of every boot, all of the same image
        self.mount_sim_us = None
        self.fix_wall: list[tuple[float, float, list[float]]] = []  # per drive replayed: start, end, each fix's time
        self.drive_sim_us: list[float] = []  # per drive: mean device time per fix
        self.answers_digest = None

    def steps(self):
        if self.tracer is not None:
            self.tracer.new_unit()
        for _ in range(self.dep.scale.mounts):
            dev = FlashDevice.from_bytes(self.image)
            t0 = perf_counter()
            with _active(self.tracer):
                st = Store(dev)
            t1 = perf_counter()
            self.mount_wall.append((t0, t1))
            self.spent += t1 - t0
            self.attempted += 1
            if self.mount_sim_us is None:
                self.mount_sim_us = dev.sim_clock_us
            self.checks.expect(dev.sim_clock_us == self.mount_sim_us, f"{self.name} boot cost changed")
            yield
        handle = st.handle()
        first = self.answers_digest is None
        ora = oracle.Oracle(self.dep.gantries, self.dep.zones) if first else None
        digest = hashlib.sha256()
        for fixes in self.drives:
            st.swap_cache(PageCache(CACHE_PAGES))
            clock0 = dev.sim_clock_us
            answers, wall = [], []
            start = perf_counter()
            with _active(self.tracer):
                for x, y in fixes:
                    t0 = perf_counter()
                    zr = handle.query_zones_at(x, y)
                    gr = handle.query_gantries_within(x, y, FIX_RADIUS)
                    wall.append(perf_counter() - t0)
                    answers.append((zr.ids, gr.ids))
            self.spent += sum(wall)
            self.attempted += len(fixes)
            self.fix_wall.append((start, perf_counter(), wall))
            # checked drive by drive, so no round's answers pile up in memory
            digest.update(repr([(sorted(z), sorted(g)) for z, g in answers]).encode())
            if first:
                self.drive_sim_us.append((dev.sim_clock_us - clock0) / len(fixes))
                for (x, y), (zones, gantries) in zip(fixes, answers):
                    self.checks.expect(zones == ora.zones_at(x, y), f"{self.name} fix ({x}, {y}): zones")
                    self.checks.expect(gantries == ora.gantries_within(x, y, FIX_RADIUS),
                                       f"{self.name} fix ({x}, {y}): gantries")
            yield
        self.checks.clock(dev, f"{self.name} drive")
        self.checks.expect(dev.programs == 0 and dev.erases == 0, f"{self.name} drive wrote to flash")
        if first:
            self.answers_digest = digest.digest()
        else:
            self.checks.expect(digest.digest() == self.answers_digest, f"{self.name} drive answers changed between passes")

    def metrics(self, ref: Reference) -> dict:
        s = sorted(self.drive_sim_us)
        middle = s[len(s) // 4 : len(s) - len(s) // 4]
        fixes = []
        for t0, t1, wall in self.fix_wall:
            scale = ref.scale(t0, t1)
            fixes += [t * scale for t in wall]
        return {"mount_ms": statistics.median(ref.seconds(*span) for span in self.mount_wall) * 1e3,
                "mount_sim_ms": self.mount_sim_us / 1e3,
                "fix_p50_us": pct(fixes, 0.50) * 1e6,
                "fix_p99_us": pct(fixes, 0.99) * 1e6,
                "fix_sim_us": statistics.fmean(middle)}


class EditPhase(Phase):
    """Edit, commit, package and apply to a replica, one object at a time."""

    def __init__(self, dep, image: bytes, edits, checks: Checks):
        super().__init__(dep, checks)
        self.image, self.edits = image, edits
        self.commit_wall: list[list[tuple[float, float]]] = []  # per round: (start, end) of every edit's commit
        self.apply_wall: list[list[tuple[float, float]]] = []
        self.commit_sim_us: list[int] = []  # first round; later rounds make the same packages
        self.apply_sim_us: list[int] = []
        self.package_bytes: list[int] = []
        self.first_packages = None

    def steps(self):
        if self.tracer is not None:
            self.tracer.new_unit()
        src = Store(FlashDevice.from_bytes(self.image))
        rep = Store(FlashDevice.from_bytes(self.image))
        first = self.first_packages is None
        if first:
            ora = oracle.Oracle(self.dep.gantries, self.dep.zones)
            read = src.device.read_page
            w = oracle.walk(read, oracle.live_versions(read)[src.current_version])
            kept = {src.current_version: (w.reachable, oracle.digest(read, w.reachable))}
        packages = []
        self.commit_wall.append([])
        self.apply_wall.append([])
        for e in self.edits:
            clock0 = src.device.sim_clock_us
            t0 = perf_counter()
            with _active(self.tracer):
                s = src.begin()
                if e.op == "insert_gantry":
                    s.insert_gantry(e.obj.gantry_id, e.obj.x, e.obj.y)
                elif e.op == "insert_zone":
                    s.insert_zone(e.obj.zone_id, e.obj.vertices)
                elif e.op == "delete_gantry":
                    s.delete(e.obj.gantry_id, "gantry")
                else:
                    s.delete(e.obj.zone_id, "zone")
                vno = s.commit()
                t1 = perf_counter()
                clock1 = src.device.sim_clock_us
                pkg = src.make_update(vno - 1, vno)
                rclock0 = rep.device.sim_clock_us
                t2 = perf_counter()
                rep.apply_update(pkg)
                t3 = perf_counter()
            self.commit_wall[-1].append((t0, t1))
            self.apply_wall[-1].append((t2, t3))
            self.spent += t3 - t0
            self.attempted += 1
            packages.append(pkg)
            if first:
                self.commit_sim_us.append(clock1 - clock0)
                self.apply_sim_us.append(rep.device.sim_clock_us - rclock0)
                self.package_bytes.append(len(pkg))
                self._check(e, vno, pkg, src, rep, ora, kept)
            yield
        self.checks.clock(src.device, f"{self.name} edit source")
        self.checks.clock(rep.device, f"{self.name} edit replica")
        if first:
            self.first_packages = packages
        else:
            self.checks.expect(packages == self.first_packages, f"{self.name} edit packages changed between rounds")

    def _check(self, e, vno, pkg, src, rep, ora, kept) -> None:
        name = f"{self.name} edit {e.op} {vno}"
        expect = self.checks.expect
        count = int.from_bytes(pkg[12:16], "little")
        expect(len(pkg) == 16 + 259 * count + 7, f"{name}: package of {len(pkg)} bytes, header says {count} pages")
        # the checks read through the devices after the timed spans; no figure counts those reads
        sread, rread = src.device.read_page, rep.device.read_page
        sv, rv = oracle.live_versions(sread), oracle.live_versions(rread)
        expect(max(sv) == max(rv) == vno and sv[vno] == rv[vno], f"{name}: replica is not at the source's version")
        w = oracle.walk(sread, sv[vno])
        expect(not w.problems, f"{name}: page walk found {w.problems[:3]}")
        expect(all(sread(a) == rread(a) for a in w.reachable), f"{name}: replica pages differ from the source's")
        kept[vno] = (w.reachable, oracle.digest(sread, w.reachable))
        for old in list(kept):
            if old not in sv:
                del kept[old]  # revoked under the retention window
            elif old != vno:
                expect(oracle.digest(sread, kept[old][0]) == kept[old][1], f"{name}: retained version {old} changed")
        if e.op.startswith("insert"):
            ora.add(e.obj)
        else:
            ora.drop(e.obj)
        x, y = e.probe
        old_cache = src.swap_cache(PageCache(CACHE_PAGES))
        h = src.handle()
        if e.op.endswith("gantry"):
            got, want = h.query_gantries_within(x, y, FIX_RADIUS).ids, ora.gantries_within(x, y, FIX_RADIUS)
            present = e.obj.gantry_id in got
        else:
            got, want = h.query_zones_at(x, y).ids, ora.zones_at(x, y)
            present = e.obj.zone_id in got
        src.swap_cache(old_cache)
        expect(got == want and present == e.op.startswith("insert"),
               f"{name}: query at ({x}, {y}) gives {sorted(got)}, linear scan {sorted(want)}")

    def metrics(self, ref: Reference) -> dict:
        commits = per_operation_median([[ref.seconds(*span) for span in r] for r in self.commit_wall])
        applies = per_operation_median([[ref.seconds(*span) for span in r] for r in self.apply_wall])
        return {"commit_p50_ms": pct(commits, 0.50) * 1e3,
                "commit_tail_ms": pct(commits, TAIL) * 1e3,
                "commit_sim_ms": statistics.fmean(self.commit_sim_us) / 1e3,
                "package_bytes": statistics.fmean(self.package_bytes),
                "apply_ms": statistics.median(applies) * 1e3,
                "apply_sim_ms": statistics.fmean(self.apply_sim_us) / 1e3}


# -- the run --------------------------------------------------------------------


def make_phases(workload: str, inp: Inputs, checks: Checks) -> list[tuple[Phase, float]]:
    """The workload's own phase first, then its companions, each with its share of the run."""
    out = []
    for kind, (scale, share) in sorted(PLAN[workload].items(), key=lambda item: item[0] != workload):
        dep = inp.deployments[scale]
        if kind == "build":
            phase = BuildPhase(dep, checks, tight=inp.tight if workload == "build" else None)
        elif kind == "drive":
            phase = DrivePhase(dep, inp.images[scale], inp.drives[scale], checks)
        else:
            phase = EditPhase(dep, inp.images[scale], inp.edits[scale], checks)
        out.append((phase, share))
    return out


def measure(phases: list[tuple[Phase, float]], seconds: float, extra_setup, setups: list[tuple[float, float]],
            ref: Reference) -> None:
    """Interleave the phases' operations for ``seconds``, each phase in its share of the wall time.

    Every phase then finishes its first round, the one its checks and device
    costs come from, and a workload's own phase that holds a failing
    operation finishes the round it is in, so ``failed`` stays the same share
    of ``attempted``.  The extra set-ups behind ``setup_s`` run at even points
    of the run, and the reference task between operations.  ``setups`` gets
    the (start, end) of each set-up.
    """
    main = phases[0][0]
    whole_rounds = getattr(main, "tight", None) is not None
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        while len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            t = perf_counter()
            extra_setup()
            setups.append((t, perf_counter()))
            ref.run()
        if elapsed < seconds:
            due = phases
        else:
            due = [(p, s) for p, s in phases if p.rounds == 0 or (p is main and whole_rounds and not p.boundary)]
            if not due:
                break
        min(due, key=lambda ps: ps[0].used / ps[1])[0].step()
        if perf_counter() - ref.when[-1] >= REFERENCE_EVERY_S:
            ref.run()


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict, dict]:
    checks = Checks()
    for failure in oracle.self_check():
        checks.expect(False, failure)
    if checks.failures:
        sys.exit("perfbench: " + "; ".join(checks.failures))
    info = {"workload": workload, "seed": seed, "seconds": seconds, "kernel": flashquad.kernel_name(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    ref = Reference()
    for _ in range(REFERENCE_LEAST):
        ref.run()
    t0 = perf_counter()
    inp = Inputs(workload, seed)
    setups = [(t0, perf_counter())]
    ref.run()
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of the collector's sweeps
    phases = make_phases(workload, inp, checks)
    main = phases[0][0]

    if traced:
        import spans

        untraced = main.round()  # calibration round, and the one checked against the oracle
        tracer = spans.Tracer()
        tracer.install()
        main.tracer = tracer
        try:
            spent, rounds, end = 0.0, 0, perf_counter() + seconds
            while rounds == 0 or perf_counter() < end:
                spent += main.round()
                rounds += 1
        finally:
            tracer.remove()
            main.tracer = None
        metrics = tracer.per_unit(rounds * main.units_per_round)
        metrics["trace.overhead"] = 100.0 * (spent / rounds / untraced - 1.0)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"{workload}-s{seed}.spans.jsonl"))
        info["rounds"] = {"untraced": 1, "traced": rounds}
    else:
        t0 = perf_counter()
        measure(phases, seconds, lambda: Inputs(workload, seed), setups, ref)
        metrics = {}
        for phase, _ in phases:
            metrics.update(phase.metrics(ref))
        metrics["setup_s"] = statistics.median(ref.seconds(*span) for span in setups)
        info["reference"] = {"runs": len(ref.took), "median_s": statistics.median(ref.took), "min_s": min(ref.took)}
        info["rounds"] = {f"{type(p).__name__}/{p.name}": p.rounds for p, _ in phases}
        info["wall_s"] = {"setup": [end - start for start, end in setups], "measure": perf_counter() - t0,
                          **{f"{type(p).__name__}/{p.name}": p.used for p, _ in phases}}
    info["failures"] = checks.failures
    result = {"correct": not checks.failures, "attempted": main.attempted, "failed": main.failed}
    return result, metrics, info


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("build", "drive", "edit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    result, metrics, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    spec = declared["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(metrics):
        sys.exit(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(names)}")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({**info, **result}, fh, indent=1)
    for failure in info["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} kernel={info['kernel']} python={info['python']} "
          f"nproc={info['nproc']} rounds={info['rounds']}")
    for name, m in result["metrics"].items():
        print(f"# {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
