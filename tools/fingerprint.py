#!/usr/bin/env python3
"""Print what a checkout's code does on perfbench's inputs, one line per fact, for diffing two checkouts.

    python3 tools/fingerprint.py SEEDS        # SEEDS: comma-separated, e.g. 1,2,3

For each seed it builds perfbench's regional and national deployments
(``perfbench/deploy.py``, imported, not changed) and prints:

* each built image's SHA-256 with the device's reads, programs, erases and
  simulated microseconds;
* a ``boot`` line for each mount of a copy of a built image, with the
  counters of that mount alone; every later figure of that device is net
  of its boot, so a change to what mount reads shows only in ``boot`` lines;
* for each deployment, a SHA-256 over every drive fix's two answers (a
  zone query and a ``FIX_RADIUS`` disc query, each drive from a fresh
  15-page cache, as perfbench's ``drive`` replays them): the hits, with
  every field, ``pages_read`` and ``cache_hits``, then the drive device's
  counters;
* for the regional deployment, each edit of ``make_edits`` committed on a
  copy of the image, packaged and applied to a replica: the package's
  SHA-256 and both devices' counters, then both final images.

Run it in two checkouts and diff the outputs: equal outputs mean equal
images, answers, read and cache counts, packages and device costs.  It
imports ``flashquad`` from the ``src/`` of the checkout it sits in.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import deploy  # noqa: E402
from flashquad import FlashDevice, FlashGeometry, Store, dataset  # noqa: E402
from flashquad.cache import PageCache  # noqa: E402

CACHE_PAGES = 15  # the in-vehicle unit's page cache, as in perfbench


Tally = tuple[int, int, int, int]  # reads, programs, erases, simulated us
NOTHING: Tally = (0, 0, 0, 0)


def tally(dev: FlashDevice) -> Tally:
    return dev.reads, dev.programs, dev.erases, dev.sim_clock_us


def counters(dev: FlashDevice, since: Tally = NOTHING) -> str:
    reads, programs, erases, sim_us = (now - then for now, then in zip(tally(dev), since))
    return f"reads={reads} programs={programs} erases={erases} sim_us={sim_us}"


def image(dev: FlashDevice, since: Tally = NOTHING) -> str:
    return f"{hashlib.sha256(dev.to_bytes()).hexdigest()} {counters(dev, since)}"


def boot(img: bytes, out: list[str], tag: str, name: str) -> tuple[Store, Tally]:
    """Mount a copy of ``img`` and print that mount's counters; the store, and its device's tally after the boot."""
    dev = FlashDevice.from_bytes(img)
    st = Store(dev)
    out.append(f"{tag} boot {name} {counters(dev)}")
    return st, tally(dev)


def answer(result) -> tuple:
    hits = tuple((h.object_id, h.kind, h.basis, h.position) for h in result.hits)
    return hits, result.pages_read, result.cache_hits


def drives(img: bytes, dep, out: list[str], tag: str) -> None:
    st, booted = boot(img, out, tag, "drives")
    handle = st.handle()
    digest = hashlib.sha256()
    fixes = 0
    for drive in deploy.make_drives(dep.seed, dep):
        st.swap_cache(PageCache(CACHE_PAGES))
        for x, y in drive:
            zr = handle.query_zones_at(x, y)
            gr = handle.query_gantries_within(x, y, deploy.FIX_RADIUS)
            digest.update(repr((answer(zr), answer(gr))).encode())
            fixes += 1
    out.append(f"{tag} drives {digest.hexdigest()} fixes={fixes} {counters(st.device, booted)}")


def edits(img: bytes, dep, out: list[str], tag: str) -> None:
    src, src_boot = boot(img, out, tag, "source")
    rep, rep_boot = boot(img, out, tag, "replica")
    for n, e in enumerate(deploy.make_edits(dep.seed, dep), 1):
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
        pkg = src.make_update(vno - 1, vno)
        rep.apply_update(pkg)
        out.append(f"{tag} edit {n} {e.op} package {hashlib.sha256(pkg).hexdigest()} bytes={len(pkg)} "
                   f"source {counters(src.device, src_boot)} replica {counters(rep.device, rep_boot)}")
    out.append(f"{tag} final source {image(src.device, src_boot)}")
    out.append(f"{tag} final replica {image(rep.device, rep_boot)}")


def fingerprint(seed: int) -> list[str]:
    out = []
    for scale in (deploy.REGIONAL, deploy.NATIONAL):
        tag = f"seed {seed} {scale.name}"
        dep = deploy.make_deployment(seed, scale)
        dev = FlashDevice(FlashGeometry(scale.sectors))
        dataset.build_database(Store.format(dev), dep.gantries, dep.zones)
        out.append(f"{tag} image {image(dev)}")
        img = dev.to_bytes()
        drives(img, dep, out, tag)
        if scale is deploy.REGIONAL:
            edits(img, dep, out, tag)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: fingerprint.py SEEDS  (comma-separated, e.g. 1,2,3)", file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in argv[0].split(",")]
    except ValueError:
        print(f"fingerprint: seeds must be comma-separated integers, got {argv[0]!r}", file=sys.stderr)
        return 2
    for seed in seeds:
        for line in fingerprint(seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
