"""Release gate: eleven numbered checks, one PASS/FAIL line each.

Every check enforces its own wall-clock budget and prints

    [AC<n>] PASS: <label> (<elapsed>s)
    [AC<n>] FAIL: <label> -- <reason>

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing checks too (pytest shows captured output only for failures).
"""

import functools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from flashquad.cache import PageCache
from flashquad.codec import (
    ENTRY_EMPTY,
    LEAF_MAGIC,
    NODE_ENTRIES_OFF,
    NODE_ENTRY_AREA,
    NODE_ENTRY_SIZE,
    NODE_FANOUT,
    NODE_MAGIC,
    NO_PAGE,
    OBJ_MAGIC,
    PAGE_SIZE,
    encode_node,
    entry_addr,
    entry_is_child,
    entry_is_leaf,
    leaf_list_view,
    make_child,
    make_leaf,
    node_view,
    parse_update,
)
from flashquad.dataset import build_database, generate_trace
from flashquad.errors import DomainError, PowerLossError
from flashquad.flashsim import FlashDevice, FlashGeometry
from flashquad.geometry import WORLD_SIZE
from flashquad.replay import replay
from flashquad.store import MAX_VERSIONS_DEFAULT, Store
from flashquad.tree import BuildParams

from helpers import (
    count_kind_programs,
    disc_oracle,
    pip_oracle,
    random_gantries,
    random_simple_polygon,
    seeded_store,
    version_digest,
)


def criterion(num, budget_s, label):
    """Print one pass/fail line per check and hold it to its time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            t0 = time.monotonic()
            try:
                detail = fn(*args, **kw)
                dt = time.monotonic() - t0
                if dt >= budget_s:
                    raise AssertionError(f"over time budget: {dt:.1f}s >= {budget_s}s")
            except BaseException as e:
                print(f"\n[AC{num}] FAIL: {label} -- {e}", flush=True)
                raise
            note = f"; {detail}" if detail else ""
            print(f"\n[AC{num}] PASS: {label} ({dt:.2f}s{note})", flush=True)

        return wrapper

    return deco


def fresh(sectors, **kw):
    return Store.format(FlashDevice(FlashGeometry(sector_count=sectors)), **kw)


# -- 1: page format ------------------------------------------------------------


@criterion(1, 1.0, "node payload is 81 x 3 = 243 bytes in a 256-byte page, all positions round-trip")
def test_ac01_node_payload():
    assert NODE_FANOUT == 81 and NODE_ENTRY_SIZE == 3
    assert NODE_ENTRY_AREA == 243
    assert NODE_ENTRIES_OFF + NODE_ENTRY_AREA == PAGE_SIZE
    for pos in range(NODE_FANOUT):
        entries = [ENTRY_EMPTY] * NODE_FANOUT
        entries[pos] = make_child(4000 + pos) if pos % 2 else make_leaf(9000 + pos)
        back = node_view(encode_node(pos % 6, entries))
        assert back.entries[pos] == entries[pos]
        assert sum(1 for w in back.entries if w != ENTRY_EMPTY) == 1
    return "entries at bytes 13..255"


# -- 2: level geometry --------------------------------------------------------


@criterion(2, 1.0, "cell sizes at levels 1-5 round at 2 s.f. to 2.1e5 2.4e4 2.5e3 3.0e2 3.0e1 m")
def test_ac02_level_sizes():
    required = ["2.1e+05", "2.4e+04", "2.5e+03", "3.0e+02", "3.0e+01"]
    got = [f"{float(Fraction(WORLD_SIZE, 9 ** level)):.1e}" for level in range(1, 6)]
    assert got == required, f"a ninefold split of {WORLD_SIZE} m gives {got}, not {required}"


# -- 3: flash semantics --------------------------------------------------------


@criterion(3, 10.0, "10000 random ops: bits only fall without erase, clock is exactly additive")
def test_ac03_flash_semantics():
    rng = random.Random(0xF1A5)
    dev = FlashDevice(FlashGeometry(sector_count=2))
    n_pages = dev.total_pages
    mirror = [b"\xff" * PAGE_SIZE for _ in range(n_pages)]
    reads = programs = erases = 0
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.45:  # program, biased towards legal writes
            addr = rng.randrange(n_pages)
            fresh_bits = rng.randbytes(PAGE_SIZE)
            legal = rng.random() < 0.7
            data = bytes(a & b for a, b in zip(mirror[addr], fresh_bits)) if legal else fresh_bits
            try:
                dev.program_page(addr, data)
            except Exception:
                pass  # rejected: would need a 0 -> 1 without erase
            else:
                programs += 1
                mirror[addr] = bytes(a & b for a, b in zip(mirror[addr], data))
            assert dev.read_page(addr) == mirror[addr]
            reads += 1
        elif roll < 0.9:  # read back a random page
            addr = rng.randrange(n_pages)
            assert dev.read_page(addr) == mirror[addr]
            reads += 1
        else:  # erase a random subsector
            sub = rng.randrange(n_pages // 16)
            dev.erase(sub * 16)
            erases += 1
            for p in range(sub * 16, sub * 16 + 16):
                mirror[p] = b"\xff" * PAGE_SIZE
    assert (dev.reads, dev.programs, dev.erases) == (reads, programs, erases)
    assert dev.sim_clock_us == reads * 50 + programs * 1000 + erases * 500_000
    return f"{programs} programs, {erases} erases, clock {dev.sim_clock_us} us"


# -- 4: oracle equivalence -----------------------------------------------------


@criterion(4, 300.0, "200 random databases: tree answers == linear-scan oracle on 2000 queries each")
def test_ac04_oracle_equivalence():
    rng = random.Random(20260815)
    for db in range(200):
        n_g = int(5000 ** rng.random())  # log-uniform 1..5000
        n_z = rng.randint(0, 50)
        gantries = random_gantries(rng, n_g)
        zones = []
        while len(zones) < n_z:
            # mostly compact polygons, with a world-scale one now and then
            span = 150_000 if rng.random() < 0.8 else 600_000
            zones.append((len(zones) + 1, random_simple_polygon(rng, radius_max=span)))

        store = fresh(128)
        s = store.begin()
        for gid, x, y in gantries:
            s.insert_gantry(gid, x, y)
        kept_zones = []
        for zid, verts in zones:
            try:
                s.insert_zone(zid, verts)
            except DomainError:
                continue  # wholly outside the world: matches nothing a probe can ask
            kept_zones.append((zid, verts))
        s.commit()
        h = store.handle()

        px = np.array([rng.randrange(WORLD_SIZE) for _ in range(1000)], dtype=np.int64)
        py = np.array([rng.randrange(WORLD_SIZE) for _ in range(1000)], dtype=np.int64)
        want_zones = [set() for _ in range(1000)]
        for zid, verts in kept_zones:
            for k in np.flatnonzero(pip_oracle(px, py, verts)):
                want_zones[k].add(zid)
        for k in range(1000):
            got = h.query_zones_at(int(px[k]), int(py[k])).ids
            assert got == want_zones[k], (
                f"db {db} point ({px[k]}, {py[k]}): tree {sorted(got)} oracle {sorted(want_zones[k])}"
            )

        gx = np.array([g[1] for g in gantries], dtype=np.int64)
        gy = np.array([g[2] for g in gantries], dtype=np.int64)
        gid_arr = np.array([g[0] for g in gantries], dtype=np.int64)
        for k in range(1000):
            cx, cy = rng.randrange(WORLD_SIZE), rng.randrange(WORLD_SIZE)
            # log-uniform up to 60 km, with a medium and a near-world tail so
            # discs spanning many cells (and the whole tree) stay covered
            toss = rng.random()
            if toss < 0.97:
                r = int(60_000 ** rng.random())
            elif toss < 0.995:
                r = rng.randrange(60_000, 400_000)
            else:
                r = rng.randrange(400_000, 1_600_000)
            want = set(gid_arr[disc_oracle(gx, gy, cx, cy, r)].tolist()) if n_g else set()
            got = h.query_gantries_within(cx, cy, r).ids
            assert got == want, (
                f"db {db} disc ({cx}, {cy}, r={r}): tree {sorted(got)} oracle {sorted(want)}"
            )
    return "400000 queries, exact set equality"


# -- 5: immutability across versions ------------------------------------------


@criterion(5, 60.0, "50 committed updates never change a retained version's reachable-page hash")
def test_ac05_version_immutability():
    rng = random.Random(51)
    store = seeded_store(32, 300, 8, seed=5150)
    alive_gantries = set(range(1, 301))
    next_gid = 10_000
    digests = {
        r["version"]: version_digest(store, r["version"])
        for r in store.versions()
        if r["state"] == "live"
    }

    for step in range(50):
        s = store.begin()
        roll = rng.random()
        if roll < 0.55 or not alive_gantries:
            gid = next_gid = next_gid + 1
            s.insert_gantry(gid, rng.randrange(WORLD_SIZE), rng.randrange(WORLD_SIZE))
            alive_gantries.add(gid)
        elif roll < 0.8:
            gid = rng.choice(sorted(alive_gantries))
            s.delete(gid, kind="gantry")
            alive_gantries.discard(gid)
        else:
            try:
                s.insert_zone(20_000 + step, random_simple_polygon(rng))
            except DomainError:
                s.insert_gantry(next_gid := next_gid + 1, 7, 7)
                alive_gantries.add(next_gid)
        vno = s.commit()
        digests[vno] = version_digest(store, vno)
        if step % 10 == 9:
            store.gc()
        if step % 5 == 4 or step == 49:
            for rec in store.versions():
                if rec["state"] == "live":
                    v = rec["version"]
                    assert version_digest(store, v) == digests[v], f"version {v} changed after commit"

    live = sorted(r["version"] for r in store.versions() if r["state"] == "live")
    target = live[-2]
    store.rollback_to(target)
    assert version_digest(store, target) == digests[target], "rollback changed the surviving version"
    return f"{len(live)} retained versions stayed bit-stable; rolled back to {target}"


# -- 6: path-copy cost ---------------------------------------------------------


@criterion(6, 1.0, "a single insert at leaf depth d programs exactly d+1 node pages, d = 0..5")
def test_ac06_path_copy_cost():
    outcomes = []
    for d in range(6):
        try:
            params = BuildParams(leaf_split_threshold=0, max_depth=d + 1, zone_max_depth=0)
        except DomainError as e:
            outcomes.append(f"d={d}: unreachable ({e})")
            continue
        store = fresh(4, params=params)
        box = count_kind_programs(store.device, NODE_MAGIC)
        s = store.begin()
        s.insert_gantry(1, 1_234_567, 987_654)
        s.commit()
        store.device.on_program = None
        if box[0] != d + 1:
            outcomes.append(f"d={d}: {box[0]} node pages, wanted {d + 1}")
    assert not outcomes, "; ".join(outcomes)


# -- 7: incremental update -----------------------------------------------------


@criterion(7, 30.0, "apply(diff(v1,v2)) is query-identical to v2; one-object package has <= 6 index pages")
def test_ac07_incremental_update():
    store = seeded_store(16, 300, 10, seed=77)
    v1 = store.current_version
    base_blob = store.device.to_bytes()
    s = store.begin()
    s.insert_gantry(777_777, 1_500_000, 333_333)
    v2 = s.commit()

    pkg = store.make_update(v1, v2)
    _, _, pages, _ = parse_update(pkg)
    kinds = {"node": 0, "leaf": 0, "object": 0}
    for _, data in pages:
        kinds[{NODE_MAGIC: "node", LEAF_MAGIC: "leaf", OBJ_MAGIC: "object"}[data[0]]] += 1
    assert kinds["node"] <= 6, f"one-object package carries {kinds['node']} index pages"
    assert sum(kinds.values()) == len(pages)

    clone = Store(FlashDevice.from_bytes(base_blob))
    assert clone.apply_update(pkg) == v2
    rng = random.Random(7007)
    ours, theirs = store.handle(v2), clone.handle(v2)
    for _ in range(1000):
        x, y = rng.randrange(WORLD_SIZE), rng.randrange(WORLD_SIZE)
        assert ours.query_zones_at(x, y).ids == theirs.query_zones_at(x, y).ids
        r = rng.choice((2_000, 40_000, 250_000))
        assert ours.query_gantries_within(x, y, r).ids == theirs.query_gantries_within(x, y, r).ids
    return f"package: {kinds['node']} node + {kinds['leaf']} leaf + {kinds['object']} object pages"


# -- 8: wear leveling -----------------------------------------------------------


@criterion(8, 60.0, "50-version churn with gc keeps per-subsector erase counts within 2")
def test_ac08_wear_leveling():
    store = fresh(4, max_versions=1)
    for gen in range(50):
        s = store.begin()
        for gid in range((gen - 1) * 40, gen * 40) if gen else ():
            s.delete(gid)
        for gid in range(gen * 40, gen * 40 + 40):
            s.insert_gantry(gid, (gid * 211) % WORLD_SIZE, (gid * 389) % WORLD_SIZE)
        s.commit()
        store.gc()
    dev = store.device
    counts = [dev.erase_count(s) for s in range(2, dev.geometry.subsector_count)]  # the data region
    spread = max(counts) - min(counts)
    assert spread <= 2, f"erase counts range over {spread} (min {min(counts)}, max {max(counts)})"
    return f"erase counts {min(counts)}..{max(counts)} across {len(counts)} subsectors"


# -- 9: crash consistency -------------------------------------------------------


def _measure_ops(blob, op, window):
    """Program+erase count of ``op`` run to completion on a scratch copy mounted with ``window`` versions."""
    store = Store(FlashDevice.from_bytes(blob), max_versions=window)
    dev = store.device
    before = dev.programs + dev.erases
    op(store)
    outcome = {
        r["version"]: version_digest(store, r["version"])
        for r in store.versions()
        if r["state"] == "live"
    }
    return dev.programs + dev.erases - before, outcome


@criterion(9, 120.0, "100 single power-loss injections across every operation type recover cleanly")
def test_ac09_crash_consistency():
    rng = random.Random(99)

    base = seeded_store(8, 60, 4, seed=909)
    base_blob = base.device.to_bytes()

    def op_insert(store):
        s = store.begin()
        s.insert_gantry(4_000_001, 42_000, 77_000)
        s.insert_zone(4_000_002, ((50_000, 50_000), (160_000, 60_000), (90_000, 170_000)))
        s.commit()

    def op_delete(store):
        s = store.begin()
        s.delete(1, kind="gantry")
        s.delete(2, kind="zone")
        s.commit()

    def op_rollback(store):
        store.rollback_to(sorted(v["version"] for v in store.versions() if v["state"] == "live")[0])

    def op_gc(store):
        store.gc()

    multi = Store(FlashDevice.from_bytes(base_blob))
    for k in range(3):
        s = multi.begin()
        s.insert_gantry(5_000_000 + k, 10_000 + k * 1000, 20_000)
        s.commit()
    multi_blob = multi.device.to_bytes()

    churn = seeded_store(8, 60, 4, seed=909, max_versions=1)
    s = churn.begin()
    for gid in range(1, 61):
        s.delete(gid, kind="gantry")
    for zid in range(1, 5):
        s.delete(zid, kind="zone")
    s.commit()  # all old pages dead: gc now has real erases to do
    churn_blob = churn.device.to_bytes()

    upd_store = Store(FlashDevice.from_bytes(base_blob))
    s = upd_store.begin()
    s.insert_gantry(6_000_001, 900_000, 900_000)
    new_v = s.commit()
    pkg = upd_store.make_update(new_v - 1, new_v)

    def op_apply(store):
        store.apply_update(pkg)

    compact = fresh(4, max_versions=2)
    for _ in range(254):
        compact.begin().commit()
    compact_blob = compact.device.to_bytes()

    def op_compact(store):
        store.begin().commit()
        store.begin().commit()  # the second append lands in a compacted directory

    # each blob is mounted with the window that wrote it: a wider one would retain the versions it expired
    cases = [
        ("insert", base_blob, op_insert, MAX_VERSIONS_DEFAULT),
        ("delete", base_blob, op_delete, MAX_VERSIONS_DEFAULT),
        ("rollback", multi_blob, op_rollback, MAX_VERSIONS_DEFAULT),
        ("gc", churn_blob, op_gc, 1),
        ("apply", base_blob, op_apply, MAX_VERSIONS_DEFAULT),
        ("compact", compact_blob, op_compact, 2),
    ]

    fired = 0
    for name, blob, op, window in cases:
        cost, outcome_digests = _measure_ops(blob, op, window)
        assert cost >= 1, f"{name} performs no device mutations"
        pristine = Store(FlashDevice.from_bytes(blob), max_versions=window)
        before_digests = {
            r["version"]: version_digest(pristine, r["version"])
            for r in pristine.versions()
            if r["state"] == "live"
        }
        known = {**before_digests, **outcome_digests}
        for _ in range(17 if name != "compact" else 15):
            store = Store(FlashDevice.from_bytes(blob), max_versions=window)
            store.device.arm_power_loss(
                after_ops=rng.randint(1, cost), prefix=rng.randint(0, PAGE_SIZE)
            )
            with pytest.raises(PowerLossError):
                op(store)
            fired += 1
            back = Store(FlashDevice.from_bytes(store.device.to_bytes()), max_versions=window)
            report = back.verify()
            assert report["ok"], f"{name}: verify after crash: {report['problems']}"
            cur = back.current_version
            assert cur in known, f"{name}: recovered to unknown version {cur}"
            assert version_digest(back, cur) == known[cur], f"{name}: version {cur} content drifted"
    assert fired == 100
    return "6 operation types, 100 injected losses, all remounts verified"


# -- 10: replay methodology ------------------------------------------------------


@criterion(10, 30.0, "15-page LRU: repeats read 0 pages, cold steps within depth+chain, 15 <= 1")
def test_ac10_replay_cache():
    store = seeded_store(20, 400, 25, seed=1010)
    h = store.handle()
    depth = h.stats().max_depth
    base_trace = generate_trace(4242, steps=60)

    doubled = []
    for k, st in enumerate(base_trace):
        doubled.append(type(st)(t=2 * k, x=st.x, y=st.y))
        doubled.append(type(st)(t=2 * k + 1, x=st.x, y=st.y))
    rep = replay(store, doubled, radius=5_000)
    repeats = rep.steps[1::2]
    assert all(s.pages_read == 0 for s in repeats), "a repeated position still hit the device"
    assert sum(s.cache_hits for s in repeats) > 0

    reads: list[int] = []
    old = store.swap_cache(PageCache(15))
    store.device.on_read = reads.append
    try:
        for st in base_trace[:25]:
            reads.clear()
            store.swap_cache(PageCache(15))  # cold per step
            zr = h.query_zones_at(st.x, st.y)
            kinds = [store.device.read_page.__self__._mem[a * PAGE_SIZE] for a in reads]
            n_node = sum(1 for k in kinds if k == NODE_MAGIC)
            n_leaf = sum(1 for k in kinds if k == LEAF_MAGIC)
            n_obj = sum(1 for k in kinds if k == OBJ_MAGIC)
            assert n_node <= depth + 1, f"point query read {n_node} nodes, depth is {depth}"
            assert zr.pages_read == len(reads) == n_node + n_leaf + n_obj

            reads.clear()
            gr = h.query_gantries_within(st.x, st.y, 5_000)
            kinds = [store.device.read_page.__self__._mem[a * PAGE_SIZE] for a in reads]
            stray = [k for k in kinds if k not in (NODE_MAGIC, LEAF_MAGIC, OBJ_MAGIC)]
            assert not stray and gr.pages_read == len(reads)
    finally:
        store.device.on_read = None
        store.swap_cache(old)

    full = replay(store, base_trace, radius=5_000, cache_pages=15)
    tiny = replay(store, base_trace, radius=5_000, cache_pages=1)
    assert full.pages_read <= tiny.pages_read
    return (
        f"repeat steps: 0 reads; cold point queries <= {depth + 1} node reads; "
        f"cap15 {full.pages_read} <= cap1 {tiny.pages_read} total reads"
    )


# -- 11: dedup accounting ---------------------------------------------------------


def _brute_force_leaf_census(store, root):
    """Independent traversal: (attach-point leaf-list visits, distinct contents)."""
    total = store.total_pages
    visits = 0
    distinct = set()

    def chain_blob(head):
        blob = b""
        addr = head
        while addr != NO_PAGE:
            page = store.read_page(addr)
            _, nxt = leaf_list_view(page, total, addr=addr)
            blob += page
            addr = nxt
        return blob

    stack = [root]
    while stack:
        node = node_view(store.read_page(stack.pop()), total)
        words = list(node.entries) + [node.self_list]
        for w in words:
            if w == ENTRY_EMPTY:
                continue
            if entry_is_child(w):
                stack.append(entry_addr(w))
            elif entry_is_leaf(w):
                visits += 1
                distinct.add(chain_blob(entry_addr(w)))
    return visits, len(distinct)


@criterion(11, 30.0, "stats rows satisfy n = m - l; write-time dedup saves exactly the duplicate count")
def test_ac11_dedup_accounting():
    def build(store):
        s = store.begin()
        # one zone blanketing most of the world: hundreds of identical
        # single-record inside/edge lists, the intentional duplicates
        s.insert_zone(1, ((150_000, 150_000), (1_850_000, 150_000),
                          (1_850_000, 1_850_000), (150_000, 1_850_000)))
        s.insert_zone(2, ((50_000, 50_000), (400_000, 80_000), (200_000, 420_000)))
        for gid in range(1, 31):
            s.insert_gantry(gid, 61_000 * gid, 33_000 * gid)
        s.commit()

    params = BuildParams(zone_max_depth=2)
    store = fresh(8, params=params)
    box = count_kind_programs(store.device, LEAF_MAGIC)
    build(store)
    store.device.on_program = None
    st = store.handle().stats()

    assert st.duplicate_leaf_pages == st.leaf_pages - st.distinct_leaf_pages
    assert st.duplicate_leaf_pages > 0, "the construction was supposed to make duplicates"

    visits, distinct = _brute_force_leaf_census(store, store.handle().root_page)
    assert (visits, distinct) == (st.leaf_pages, st.distinct_leaf_pages)

    # replaying the build without dedup shows every leaf write; duplicates in
    # that stream are exactly the programs dedup is entitled to skip
    plain = fresh(8, params=BuildParams(zone_max_depth=2, dedup=False))
    stream: list[bytes] = []
    plain.device.on_program = (
        lambda addr, data: stream.append(bytes(data)) if data[0] == LEAF_MAGIC else None
    )
    build(plain)
    plain.device.on_program = None
    dupes = len(stream) - len(set(stream))
    saved = len(stream) - box[0]
    assert saved == dupes, (
        f"dedup skipped {saved} leaf programs, stream recount says {dupes} duplicates"
    )
    return f"m={st.leaf_pages} l={st.distinct_leaf_pages} n={st.duplicate_leaf_pages}, {saved} programs saved"
