"""Command-line front end.

Every device-backed command takes the image file first.  Mutating
commands rewrite the image atomically (temp file + rename) and hold an
advisory lock (``<image>.lock``) while they run, so a crashed run can
leave a stale lock but never a torn image.

Edits normally commit a version per invocation.  With ``--stage`` the
session is left open instead: programmed pages are saved in the image
and the session state goes to ``<image>.staged.json``; follow-up staged
edits, ``commit`` and ``rollback --staged`` pick it up.  The sidecar
remembers a checksum of the image so it cannot be replayed against a
database that has moved on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from typing import Optional

from . import __version__
from .codec import parse_update
from .dataset import (
    Gantry,
    Zone,
    build_database,
    generate_dataset,
    generate_trace,
    parse_dataset,
    parse_trace,
    write_dataset,
    write_trace,
)
from .errors import (
    ConflictError,
    DomainError,
    FlashQuadError,
    ParseError,
    SessionError,
)
from .flashsim import FlashDevice, FlashGeometry
from .replay import replay, write_replay_csv
from .store import Store
from .tree import BuildParams


def _lock_path(image: str) -> str:
    return image + ".lock"


def _sidecar_path(image: str) -> str:
    return image + ".staged.json"


@contextlib.contextmanager
def _image_lock(image: str):
    path = _lock_path(image)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        raise SessionError(
            f"{image} is locked by another command ({path} exists; remove it if stale)"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _save_image(device: FlashDevice, image: str) -> None:
    tmp = f"{image}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(device.to_bytes())
    os.replace(tmp, image)


def _load_store(args) -> Store:
    cache_pages = getattr(args, "cache_pages", 15)
    if cache_pages < 1:
        raise DomainError(f"--cache-pages must be at least 1, got {cache_pages}")
    device = FlashDevice.load(args.image)
    return Store(device, cache_pages=cache_pages)


def _has_sidecar(image: str) -> bool:
    return os.path.exists(_sidecar_path(image))


def _read_sidecar(image: str) -> Optional[dict]:
    """The staged session's state, or None when nothing is staged.

    Raises SessionError naming the file unless it holds the JSON object
    that ``_write_sidecar`` writes.
    """
    path = _sidecar_path(image)
    try:
        with open(path) as fh:
            state = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError as e:  # bad JSON or bad UTF-8
        raise SessionError(f"staged session file {path} is not valid JSON: {e}") from None
    if not (
        isinstance(state, dict)
        and isinstance(state.get("pending"), list)
        and isinstance(state.get("image_sha256"), str)
        # ``type(v) is int`` also refuses true and false
        and all(
            type(v) is int
            for v in (state.get("base_version"), state.get("root"), *state["pending"])
        )
    ):
        raise SessionError(
            f"staged session file {path} is damaged: want an object with int base_version, "
            "int root, a list of int pending and str image_sha256"
        )
    return state


def _write_sidecar(image: str, session) -> None:
    state = {
        "base_version": session.base_version,
        "root": session.root,
        "pending": sorted(session.pending),
        "image_sha256": _sha256_file(image),
    }
    tmp = _sidecar_path(image) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, _sidecar_path(image))


def _drop_sidecar(image: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(_sidecar_path(image))


def _resume_staged(store: Store, image: str, sidecar: dict):
    if sidecar.get("image_sha256") != _sha256_file(image):
        raise SessionError(
            "staged session does not match this image (it changed since staging)"
        )
    return store.resume_session(
        sidecar["base_version"], sidecar["root"], sidecar["pending"]
    )


def _refuse_if_staged(image: str) -> None:
    if _has_sidecar(image):
        raise SessionError(
            "a staged session exists for this image; run commit or rollback --staged first"
        )


def _parse_at(text: str) -> tuple[int, int]:
    try:
        xs, ys = text.split(",")
        return int(xs), int(ys)
    except ValueError:
        raise DomainError(f"--at wants X,Y integers, got {text!r}") from None


# -- edit plumbing shared by build/insert/rm ---------------------------------


def _run_edit(args, edit) -> int:
    """Open the image, apply ``edit(session)``, then commit or stage."""
    with _image_lock(args.image):
        sidecar = _read_sidecar(args.image) if args.stage else None
        if sidecar is None and _has_sidecar(args.image):
            raise SessionError(
                "a staged session exists; use --stage to extend it, or commit it first"
            )
        store = _load_store(args)
        if sidecar is not None:
            session = _resume_staged(store, args.image, sidecar)
        else:
            session = store.begin()
        edit(session)
        if args.stage:
            _save_image(store.device, args.image)
            _write_sidecar(args.image, session)
            print(f"staged on version {session.base_version} (not committed)")
        else:
            vno = session.commit()
            _save_image(store.device, args.image)
            print(f"committed version {vno}")
    return 0


def _add_stage_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stage", action="store_true",
                   help="leave the session open instead of committing")


# -- commands -----------------------------------------------------------------


def cmd_format(args) -> int:
    params = BuildParams(args.split_threshold, args.max_depth, args.zone_max_depth, not args.no_dedup)
    exists = os.path.exists(args.image)
    if exists and not args.force:
        raise ConflictError(f"{args.image} exists; pass --force to re-format it")
    if exists:  # re-formatted in place: same part, same wear counters
        device = FlashDevice.load(args.image)
        if args.sectors not in (None, device.geometry.sector_count):
            raise DomainError(f"--sectors {args.sectors}: {args.image} is a {device.geometry.sector_count}-sector part")
    else:
        try:
            geometry = FlashGeometry(sector_count=16 if args.sectors is None else args.sectors)
        except ValueError as e:  # the sector count is out of range
            raise DomainError(f"--sectors: {e}") from None
        device = FlashDevice(geometry)
    with _image_lock(args.image) if exists else contextlib.nullcontext():
        _drop_sidecar(args.image)
        Store.format(device, params)
        _save_image(device, args.image)
    print(f"formatted {args.image}: {device.geometry.sector_count} sectors, "
          f"{device.total_pages} pages")
    return 0


def cmd_build(args) -> int:
    with open(args.dataset) as fh:
        gantries, zones = parse_dataset(fh.read())

    def edit(session):
        session.load([(g.gantry_id, g.x, g.y) for g in gantries], [(z.zone_id, z.vertices) for z in zones])
        print(f"loaded {len(gantries)} gantries, {len(zones)} zones")

    return _run_edit(args, edit)


def cmd_insert(args) -> int:
    if args.gantry is not None and args.zone is not None:
        raise DomainError("pass either --gantry or --zone, not both")
    if args.gantry is not None:
        gid, x, y = args.gantry

        def edit(session):
            session.insert_gantry(gid, x, y)

    elif args.zone is not None:
        if len(args.zone) < 7 or len(args.zone) % 2 == 0:
            raise DomainError("--zone wants ID then at least three X Y pairs")
        zid = args.zone[0]
        coords = args.zone[1:]
        verts = list(zip(coords[0::2], coords[1::2]))

        def edit(session):
            session.insert_zone(zid, verts)

    else:
        raise DomainError("pass --gantry ID X Y or --zone ID X1 Y1 X2 Y2 X3 Y3 ...")
    return _run_edit(args, edit)


def cmd_rm(args) -> int:
    def edit(session):
        session.delete(args.id, args.kind)

    return _run_edit(args, edit)


def cmd_commit(args) -> int:
    with _image_lock(args.image):
        sidecar = _read_sidecar(args.image)
        if sidecar is None:
            raise SessionError("nothing staged for this image")
        store = _load_store(args)
        session = _resume_staged(store, args.image, sidecar)
        vno = session.commit()
        _save_image(store.device, args.image)
        _drop_sidecar(args.image)
    print(f"committed version {vno}")
    return 0


def cmd_rollback(args) -> int:
    with _image_lock(args.image):
        if args.staged:
            if not _has_sidecar(args.image):
                raise SessionError("nothing staged for this image")
            _drop_sidecar(args.image)
            print("staged session discarded")
            return 0
        if args.version is None:
            raise DomainError("pass a version number or --staged")
        _refuse_if_staged(args.image)
        store = _load_store(args)
        store.rollback_to(args.version)
        _save_image(store.device, args.image)
    print(f"rolled back to version {args.version}")
    return 0


def cmd_query_zones(args) -> int:
    store = _load_store(args)
    x, y = _parse_at(args.at)
    res = store.handle(args.version).query_zones_at(x, y)
    if args.format == "json":
        print(json.dumps({
            "hits": [{"id": h.object_id, "basis": h.basis} for h in res.hits],
            "pages_read": res.pages_read,
            "cache_hits": res.cache_hits,
        }))
    else:
        for h in res.hits:
            print(f"zone {h.object_id}  ({h.basis})")
        print(f"-- {len(res.hits)} zones, {res.pages_read} pages read")
    return 0


def cmd_query_gantries(args) -> int:
    store = _load_store(args)
    x, y = _parse_at(args.at)
    res = store.handle(args.version).query_gantries_within(x, y, args.radius)
    if args.format == "json":
        print(json.dumps({
            "hits": [
                {"id": h.object_id, "x": h.position[0], "y": h.position[1]}
                for h in res.hits
            ],
            "pages_read": res.pages_read,
            "cache_hits": res.cache_hits,
        }))
    else:
        for h in res.hits:
            print(f"gantry {h.object_id}  at ({h.position[0]}, {h.position[1]})")
        print(f"-- {len(res.hits)} gantries, {res.pages_read} pages read")
    return 0


def cmd_stats(args) -> int:
    store = _load_store(args)
    report = store.handle(args.version).stats()
    rows = report.rows()
    if args.format == "json":
        print(json.dumps({letter: value for letter, _, value in rows}))
    elif args.format == "csv":
        print("row,description,value")
        for letter, desc, value in rows:
            print(f"{letter},{desc},{value}")
    else:
        for letter, desc, value in rows:
            if isinstance(value, float):
                value = f"{value:.3f}"
            print(f"{letter:>2}  {desc:<34} {value}")
    return 0


def cmd_versions(args) -> int:
    store = _load_store(args)
    rows = store.versions()
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for r in rows:
            mark = "*" if r["current"] else " "
            print(f"{mark} v{r['version']:<6} {r['state']:<8} root={r['root_page']:<8} "
                  f"cursor={r['alloc_cursor']}")
    return 0


def cmd_diff(args) -> int:
    store = _load_store(args)
    pkg = store.make_update(args.base, args.new)
    with open(args.output, "wb") as fh:
        fh.write(pkg)
    n = len(parse_update(pkg).pages)
    print(f"wrote {args.output}: {n} pages, {len(pkg)} bytes "
          f"(version {args.base} -> {args.new})")
    return 0


def cmd_apply(args) -> int:
    with _image_lock(args.image):
        _refuse_if_staged(args.image)
        with open(args.package, "rb") as fh:
            pkg = fh.read()
        store = _load_store(args)
        vno = store.apply_update(pkg)
        _save_image(store.device, args.image)
    print(f"now at version {vno}")
    return 0


def cmd_gc(args) -> int:
    with _image_lock(args.image):
        _refuse_if_staged(args.image)
        store = _load_store(args)
        freed = store.gc()
        _save_image(store.device, args.image)
    print(f"reclaimed {freed['pages_reclaimed']} pages "
          f"({freed['subsectors_erased']} subsectors erased)")
    return 0


def cmd_verify(args) -> int:
    store = _load_store(args)
    report = store.verify()
    if args.format == "json":
        print(json.dumps({
            "ok": report["ok"],
            "problems": report["problems"],
            "versions": {
                str(v): {l: val for l, _, val in st.rows()}
                for v, st in report["versions"].items()
            },
        }))
    else:
        for v in sorted(report["versions"]):
            st = report["versions"][v]
            print(f"version {v}: {st.objects} objects, {st.total_pages} pages -- ok")
        for p in report["problems"]:
            print(f"PROBLEM: {p}")
        print("ok" if report["ok"] else f"{len(report['problems'])} problems")
    return 0 if report["ok"] else 1


def cmd_replay(args) -> int:
    store = _load_store(args)
    with open(args.trace) as fh:
        trace = parse_trace(fh.read())
    report = replay(store, trace, args.radius, version=args.version,
                    cache_pages=args.cache_pages)
    if args.output:
        with open(args.output, "w") as fh:
            write_replay_csv(report, fh)
    else:
        write_replay_csv(report, sys.stdout)
    print(
        f"{len(report.steps)} steps: {report.pages_read} device reads, "
        f"{report.cache_hits} cache hits, {report.reads_per_step:.2f} reads/step, "
        f"{report.sim_elapsed_us} us of simulated IO",
        file=sys.stderr,
    )
    return 0


def cmd_gen_dataset(args) -> int:
    for option, n in (("--gantries", args.gantries), ("--zones", args.zones), ("--steps", args.steps)):
        if n < 0:
            raise DomainError(f"{option} must be non-negative, got {n}")
    gantries, zones = generate_dataset(args.seed, args.gantries, args.zones)
    with open(args.output, "w") as fh:
        write_dataset(gantries, zones, fh)
    print(f"wrote {args.output}: {len(gantries)} gantries, {len(zones)} zones")
    if args.trace_out:
        steps = generate_trace(args.seed + 1, args.steps)
        with open(args.trace_out, "w") as fh:
            write_trace(steps, fh)
        print(f"wrote {args.trace_out}: {len(steps)} trace steps")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flashquad",
        description="Versioned spatial index for tolling gantries and zones "
                    "on simulated NOR flash.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_, image=True):
        p = sub.add_parser(name, help=help_, description=help_)
        if image:
            p.add_argument("image", help="flash image file")
        p.set_defaults(func=func)
        return p

    p = add("format", cmd_format, "create a flash image or re-format one (an earlier image's "
            "pages are reclaimed lazily; gc erases them at once)")
    p.add_argument("--sectors", type=int,
                   help="64 KiB sectors on a new device (default 16 = 1 MiB); a re-format keeps the image's")
    p.add_argument("--force", action="store_true", help="re-format an existing image")
    p.add_argument("--split-threshold", type=int, default=8, metavar="N",
                   help="points a cell holds before it splits, 0..254 (default 8)")
    p.add_argument("--max-depth", type=int, default=5, metavar="L",
                   help="deepest cell level for point records, 0..6 (default 5)")
    p.add_argument("--zone-max-depth", type=int, default=3, metavar="L",
                   help="deepest cell level for zone boundary records (default 3)")
    p.add_argument("--no-dedup", action="store_true",
                   help="do not share identical leaf pages")

    p = add("build", cmd_build, "load a dataset file as one new version")
    p.add_argument("dataset", help="dataset text file (G/Z lines)")
    _add_stage_flag(p)

    p = add("insert", cmd_insert, "insert one object")
    p.add_argument("--gantry", nargs=3, type=int, metavar=("ID", "X", "Y"))
    p.add_argument("--zone", nargs="+", type=int, metavar="N",
                   help="ID X1 Y1 X2 Y2 X3 Y3 ...")
    _add_stage_flag(p)

    p = add("rm", cmd_rm, "remove an object by id")
    p.add_argument("id", type=int)
    p.add_argument("--kind", choices=["gantry", "zone"],
                   help="required when a gantry and a zone share the id")
    _add_stage_flag(p)

    p = add("commit", cmd_commit, "commit the staged session")

    p = add("rollback", cmd_rollback, "revoke versions newer than VERSION")
    p.add_argument("version", type=int, nargs="?")
    p.add_argument("--staged", action="store_true",
                   help="discard the staged session instead")

    p = add("query-zones", cmd_query_zones, "zones containing a point")
    p.add_argument("--at", required=True, metavar="X,Y")
    p.add_argument("--version", type=int)
    p.add_argument("--cache-pages", type=int, default=15)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("query-gantries", cmd_query_gantries, "gantries within a radius")
    p.add_argument("--at", required=True, metavar="X,Y")
    p.add_argument("--radius", required=True, type=int, help="metres")
    p.add_argument("--version", type=int)
    p.add_argument("--cache-pages", type=int, default=15)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("stats", cmd_stats, "structure report for one version")
    p.add_argument("--version", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = add("versions", cmd_versions, "list version records")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("diff", cmd_diff, "write an update package between two versions")
    p.add_argument("base", type=int)
    p.add_argument("new", type=int)
    p.add_argument("-o", "--output", required=True, help="package file to write")

    p = add("apply", cmd_apply, "apply an update package")
    p.add_argument("package", help="package file from diff")

    p = add("gc", cmd_gc, "erase subsectors holding only dead pages")

    p = add("verify", cmd_verify, "walk every version and check the directory")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("replay", cmd_replay, "run both queries along a drive trace")
    p.add_argument("trace", help="trace text file (t x y lines)")
    p.add_argument("--radius", type=int, default=100_000, help="metres (default 100000)")
    p.add_argument("--version", type=int)
    p.add_argument("--cache-pages", type=int, default=15)
    p.add_argument("-o", "--output", help="CSV file (default stdout)")

    p = add("gen-dataset", cmd_gen_dataset, "generate a synthetic dataset", image=False)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gantries", type=int, default=500)
    p.add_argument("--zones", type=int, default=30)
    p.add_argument("--trace-out", help="also write a drive trace here")
    p.add_argument("--steps", type=int, default=200, help="trace length")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlashQuadError as e:
        if isinstance(e, ParseError) and e.line_no is not None:
            print(f"error: line {e.line_no}: {e}", file=sys.stderr)
        else:
            print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e.filename or ''}: {e.strerror or e}".strip(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
