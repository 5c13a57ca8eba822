"""Store behavior: directory, retention, gc, dedup, updates, crash recovery."""

import functools
import random
import tracemalloc
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashquad import codec
from flashquad.cache import PageCache
from flashquad.codec import (
    ENTRY_EMPTY,
    KIND_POINT,
    LEAF_MAGIC,
    NODE_MAGIC,
    OBJ_MAGIC,
    PAGE_SIZE,
    GantryObject,
    LeafRecord,
    VersionRecord,
    directory_page_with,
    encode_leaf_list,
    encode_node,
    leaf_list_view,
    make_child,
    make_leaf,
    node_view,
    parse_update,
)
from flashquad.dataset import build_database, generate_dataset, generate_trace
from flashquad.errors import (
    ConflictError,
    DomainError,
    FlashFullError,
    FormatError,
    IntegrityError,
    NotFoundError,
    PowerLossError,
    RelocationError,
    SessionError,
    VersionConflictError,
)
from flashquad.flashsim import PAGES_PER_SUBSECTOR as SUB
from flashquad.flashsim import FlashDevice, FlashGeometry
from flashquad.replay import replay
from flashquad.store import DATA_START, DIR_SLOTS, Store
from flashquad.tree import BuildParams, walk_version

from helpers import random_simple_polygon, seeded_store, version_digest


def fresh(sectors=4, **kw):
    return Store.format(FlashDevice(FlashGeometry(sector_count=sectors)), **kw)


def add_gantries(store, ids, base=11_111):
    s = store.begin()
    for gid in ids:
        s.insert_gantry(gid, (gid * 37 + base) % 2_000_000, (gid * 91 + base) % 2_000_000)
    return s.commit()


# -- format and mount ----------------------------------------------------------


def test_format_creates_version_one():
    store = fresh()
    assert store.current_version == 1
    assert store.handle().stats().total_pages == 1
    rows = store.versions()
    assert len(rows) == 1 and rows[0]["version"] == 1 and rows[0]["current"]


def test_format_wipes_dirty_device():
    store = fresh()
    add_gantries(store, range(10))
    dev = store.device
    again = Store.format(dev)
    assert again.current_version == 1
    assert again.handle().stats().objects == 0


def test_mount_round_trip():
    store = fresh()
    v2 = add_gantries(store, range(25))
    blob = store.device.to_bytes()
    back = Store(FlashDevice.from_bytes(blob))
    assert back.current_version == v2
    assert back.handle().stats().objects == 25
    assert version_digest(back, v2) == version_digest(store, v2)


def mount_reads(store, **kw):
    """(the store mounted afresh from ``store``'s image, the pages that mount read, in order)."""
    dev = FlashDevice.from_bytes(store.device.to_bytes())
    reads = []
    dev.on_read = reads.append
    return Store(dev, **kw), reads


def test_mount_reads_each_page_once():
    """Mount reads each directory side up to its first blank slot, the end of its log: on a built image
    the first page of each.  With the count the first write makes, it reads each page once."""
    store = fresh()
    gantries, zones = generate_dataset(seed=4, n_gantries=120, n_zones=6)
    build_database(store, gantries, zones)
    back, reads = mount_reads(store)
    assert back.current_version == 2
    assert reads == [0, SUB]
    back._ensure_counted()
    assert len(reads) > 2 and len(reads) == len(set(reads))


def test_mount_reads_each_directory_side_to_the_end_of_its_log():
    store = fresh(max_versions=4)
    for _ in range(40):  # 41 records: slots 0..40, on pages 0, 1 and 2
        store.begin().commit()
    back, reads = mount_reads(store, max_versions=4)
    assert reads == [0, 1, 2, SUB]
    assert (back.current_version, back._dir_tail, back._slot_of) == (41, 41, {v: v - 1 for v in range(38, 42)})
    for _ in range(215):  # 256 records fill side 0; the next commit compacts onto side 1
        store.begin().commit()
    back, reads = mount_reads(store, max_versions=4)
    assert reads == list(range(SUB)) + [SUB] and back._dir_tail == 256
    store.begin().commit()
    back, reads = mount_reads(store, max_versions=4)
    assert reads == [0, SUB]  # side 0 is erased, side 1 holds the 4 copied records and the new one
    assert (back._active_sub, back._dir_tail, back.current_version) == (1, 5, 257)
    assert [r["version"] for r in back.versions()] == [253, 254, 255, 256, 257]
    assert [r["version"] for r in back.versions() if r["state"] == "live"] == [254, 255, 256, 257]


def test_reads_leave_the_count_unbuilt():
    """Queries, listings, verify and replay read what they read; none of them counts the versions."""
    store = seeded_store(8, 120, 4, seed=6)
    add_gantries(store, [900])
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    h = back.handle()
    h.query_zones_at(1_000_000, 1_000_000)
    h.query_gantries_within(1_000_000, 1_000_000, 200_000)
    back.handle(2).stats()
    back.versions()
    assert back.verify()["ok"]
    replay(back, generate_trace(seed=6, steps=20), radius=60_000)
    assert back._refs is None
    back.begin()
    assert back._refs is not None


def write_once(image, write, cache_pages, counted_first):
    """(device reads, reads per address) of a mount of ``image`` followed by ``write(store)``."""
    dev = FlashDevice.from_bytes(image)
    reads = []
    dev.on_read = reads.append
    store = Store(dev, cache_pages=cache_pages)
    if counted_first:  # an eager mount
        store._ensure_counted()
    write(store)
    return len(reads), Counter(reads)


def test_mount_plus_the_first_write_reads_no_more_than_an_eager_mount():
    """The first commit pays the count mount no longer makes, and nothing more; the first apply pays no count.

    With a cache that holds the image, each data page is read at most once.
    """
    store = seeded_store(16, 300, 10, seed=8)
    image = store.device.to_bytes()
    add_gantries(store, [1000])
    pkg = store.make_update(2, 3)

    def commit(st):
        s = st.begin()
        s.insert_gantry(1000, 1_234_567, 765_432)
        s.delete(7, "gantry")
        s.commit()

    for write in (commit, lambda st: st.apply_update(pkg)):
        for cache_pages in (15, store.total_pages):
            lazy, per_page = write_once(image, write, cache_pages, counted_first=False)
            eager, _ = write_once(image, write, cache_pages, counted_first=True)
            assert lazy <= eager
            if cache_pages > 15:
                assert max(n for addr, n in per_page.items() if addr >= DATA_START) == 1


def test_mount_reads_the_tree_once_plus_what_each_older_version_changed():
    """Each retained version older than the current one costs mount only the pages no newer one holds."""
    store = seeded_store(16, 300, 10, seed=5, max_versions=8)  # about 940 reachable pages
    for k in range(1, 7):  # single-edit versions: gantry inserts, then deletes of seeded gantries
        s = store.begin()
        if k <= 3:
            s.insert_gantry(1000 + k, 1_500_000 - 90_000 * k, 333_333 + 70_000 * k)
        else:
            s.delete(k, "gantry")
        s.commit()
        dev = FlashDevice.from_bytes(store.device.to_bytes())
        back = Store(dev, max_versions=8)
        back._ensure_counted()
        older = len(back.versions()) - 1
        assert older == k + 1  # the empty version 1, the seeded version 2 and the edits before this one
        assert dev.stats().reads <= DATA_START + len(back.handle().reachable_pages()) + 20 * older


def test_format_reads_only_what_it_writes_and_the_allocator_probes_the_rest():
    """On a blank part, format reads at most its three subsectors and each allocation probes one page."""
    dev = FlashDevice(FlashGeometry(sector_count=256))
    store = Store.format(dev)
    assert dev.stats().reads <= 3 * SUB  # the mount reads nothing: format holds the directory and the root
    before = dev.stats().reads
    s = store.begin()
    got = [s.alloc_page() for _ in range(40)]
    assert dev.stats().reads - before == 40
    assert got == list(range(DATA_START + 1, DATA_START + 41))


def test_reformat_of_a_dirty_device_reclaims_the_old_pages_lazily():
    """A load after a re-format writes what it writes on a blank part; gc then erases what is left."""
    sectors = 8
    dev = FlashDevice(FlashGeometry(sector_count=sectors))
    build_database(Store.format(dev), *generate_dataset(seed=1, n_gantries=300, n_zones=10))
    subsectors = dev.geometry.subsector_count
    blank_page = b"\xff" * PAGE_SIZE
    dirty = [any(dev.read_page(p) != blank_page for p in range(SUB * i, SUB * i + SUB)) for i in range(subsectors)]
    worn = [dev.erase_count(i) for i in range(subsectors)]

    new = generate_dataset(seed=2, n_gantries=60, n_zones=4)
    again = Store.format(dev)
    build_database(again, *new)
    blank_dev = FlashDevice(FlashGeometry(sector_count=sectors))
    blank = Store.format(blank_dev)
    build_database(blank, *new)

    def image(d, subs):
        return [d.read_page(p) for i in subs for p in range(SUB * i, SUB * i + SUB)]

    reached = range(again._cursor // SUB + 1)  # every subsector the cursor reached
    beyond = [i for i in range(reached.stop, subsectors) if dirty[i]]
    assert beyond  # the earlier image reaches past the new load
    assert again._cursor == blank._cursor
    assert image(dev, reached) == image(blank_dev, reached)
    assert [dev.erase_count(i) - worn[i] for i in range(subsectors)] == [
        int(dirty[i] and i in reached) for i in range(subsectors)
    ]

    freed = again.gc()
    assert freed["subsectors_erased"] == len(beyond)
    assert image(dev, range(subsectors)) == image(blank_dev, range(subsectors))
    assert [dev.erase_count(i) - worn[i] for i in range(subsectors)] == [int(d) for d in dirty]
    assert again.verify()["ok"]


def test_a_cache_of_no_pages_is_refused_before_any_device_access():
    dev = FlashDevice(FlashGeometry(sector_count=1))
    for kw in ({"cache_pages": 0}, {"cache_pages": -3}, {"max_versions": 0}, {"max_versions": 256}):
        with pytest.raises(DomainError):
            Store.format(dev, **kw)
        assert (dev.stats().reads, dev.stats().programs, dev.stats().erases) == (0, 0, 0)
    Store.format(dev)
    image = dev.to_bytes()
    for kw in ({"cache_pages": 0}, {"max_versions": 0}, {"max_versions": 256}):
        again = FlashDevice.from_bytes(image)
        with pytest.raises(DomainError):
            Store(again, **kw)
        assert again.stats().reads == 0
    store = Store(dev)
    before = dev.stats().reads
    with pytest.raises(DomainError, match="cache_pages"):
        replay(store, generate_trace(seed=1, steps=5), radius=60_000, cache_pages=0)
    assert dev.stats().reads == before


def test_mount_rejects_unformatted_device():
    with pytest.raises(IntegrityError):
        Store(FlashDevice(FlashGeometry(sector_count=1)))


def test_smallest_device_formats():
    store = Store.format(FlashDevice(FlashGeometry(sector_count=1)))
    assert store.current_version == 1


# -- versions and retention -------------------------------------------------------


def test_commit_makes_new_version_old_readable():
    store = fresh()
    v2 = add_gantries(store, [1])
    v3 = add_gantries(store, [2])
    assert (v2, v3) == (2, 3)
    assert store.handle(v2).stats().objects == 1
    assert store.handle(v3).stats().objects == 2
    assert store.handle().version_no == 3


def test_retention_revokes_oldest(store_sectors=8):
    store = fresh(store_sectors, max_versions=3)
    for k in range(6):
        add_gantries(store, [k])
    rows = {r["version"]: r["state"] for r in store.versions()}
    assert rows[7] == rows[6] == rows[5] == "live"
    assert all(rows[v] == "revoked" for v in (1, 2, 3, 4))
    with pytest.raises(NotFoundError):
        store.handle(4)


def test_a_window_of_255_versions_keeps_every_committed_one():
    """The directory holds 256 records, and a compaction must leave a slot free for the record that
    caused it: 255 is the largest window.  Near it, nearly every commit compacts the directory."""
    store = fresh(64, max_versions=255)
    for k in range(300):
        assert add_gantries(store, [k]) == k + 2
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()), max_versions=255)
    assert back.current_version == 301
    assert [r["version"] for r in back.versions() if r["state"] == "live"] == list(range(47, 302))
    assert all(back.handle(v).stats().objects == v - 1 for v in range(47, 302))
    assert back.verify()["ok"]


def test_rollback_restores_older_version():
    store = fresh()
    add_gantries(store, [1])
    d2 = version_digest(store, 2)
    add_gantries(store, [2])
    add_gantries(store, [3])
    store.rollback_to(2)
    assert store.current_version == 2
    assert store.handle().stats().objects == 1
    assert version_digest(store, 2) == d2
    with pytest.raises(NotFoundError):
        store.handle(3)
    # committing после rollback continues from the restored version
    v = add_gantries(store, [9])
    assert v == 3


def test_rollback_requires_live_target_and_no_session():
    store = fresh()
    add_gantries(store, [1])
    with pytest.raises(NotFoundError):
        store.rollback_to(9)
    s = store.begin()
    with pytest.raises(SessionError):
        store.rollback_to(1)
    s.rollback()
    store.rollback_to(1)
    assert store.current_version == 1


def test_session_is_exclusive_and_disposable():
    store = fresh()
    s = store.begin()
    with pytest.raises(SessionError):
        store.begin()
    s.insert_gantry(1, 5, 5)
    s.rollback()
    assert store.handle().stats().objects == 0
    with pytest.raises(SessionError):
        s.insert_gantry(2, 6, 6)  # closed session stays closed


def test_uncommitted_work_invisible_until_commit():
    store = fresh()
    s = store.begin()
    s.insert_gantry(1, 5, 5)
    assert store.handle().stats().objects == 0
    s.commit()
    assert store.handle().stats().objects == 1


def test_resume_session_picks_up_staged_pages():
    store = fresh()
    s = store.begin()
    s.insert_gantry(1, 5, 5)
    staged_root, pending = s.root, set(s.pending)
    base = s.base_version
    # simulate a process restart: remount the device, resume from the sidecar data
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    s2 = back.resume_session(base, staged_root, pending)
    s2.insert_gantry(2, 6, 6)
    v = s2.commit()
    assert back.handle(v).stats().objects == 2


def test_resume_reads_only_the_staged_pages():
    """Resuming diffs the staged root from the base counts; it does not walk the staged tree."""
    store = seeded_store(16, 300, 10, seed=5)  # about 940 reachable pages
    s = store.begin()
    s.insert_gantry(1000, 1_234_567, 765_432)
    staged = (s.base_version, s.root, set(s.pending))
    image = store.device.to_bytes()

    back = Store(FlashDevice.from_bytes(image))
    back._ensure_counted()
    before = back.device.stats().reads
    s2 = back.resume_session(*staged)
    assert back.device.stats().reads - before <= 30
    s2.delete(1000, "gantry")  # the staged gantry and a base one
    s2.delete(7, "gantry")
    s2.commit()
    assert back.verify()["ok"]
    assert back.handle().stats().objects == store.handle().stats().objects - 1
    with pytest.raises(NotFoundError):
        back.begin().delete(1000, "gantry")

    damaged = Store(FlashDevice.from_bytes(image))
    damage(damaged, max(staged[2]))
    with pytest.raises(IntegrityError, match="staged tree is damaged"):
        damaged.resume_session(*staged)


def test_resume_rejects_stale_base():
    store = fresh()
    add_gantries(store, [1])
    with pytest.raises(VersionConflictError):
        store.resume_session(1, store.handle().root_page, set())


# -- directory compaction -----------------------------------------------------------


def test_directory_compacts_after_256_appends():
    store = fresh(max_versions=2)
    for _ in range(254):  # 1 (format) + 254 = 255 appends
        store.begin().commit()
    assert store.current_version == 255
    store.begin().commit()  # 256th append fills the active subsector
    store.begin().commit()  # 257th forces compaction into the other subsector
    assert store.current_version == 257
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    assert back.current_version == 257
    assert len([r for r in back.versions() if r["state"] == "live"]) == 2


# -- allocation, gc, space accounting ----------------------------------------------


def test_allocator_skips_directory_pages():
    store = fresh()
    add_gantries(store, range(30))
    used = set()
    for rec in store.versions():
        used |= store.handle(rec["version"]).reachable_pages() if rec["state"] == "live" else set()
    assert all(a >= DATA_START for a in used if a != 0)


def test_gc_reclaims_dead_versions():
    store = fresh(max_versions=1)
    v2 = add_gantries(store, range(100))
    s = store.begin()  # drop everything so whole subsectors go dead
    for gid in range(100):
        s.delete(gid)
    s.commit()
    freed = store.gc()
    assert freed["pages_reclaimed"] > 0
    assert not store.verify()["problems"]
    with pytest.raises(NotFoundError):
        store.handle(v2)


def test_flash_full_is_honest():
    store = fresh(2, max_versions=1)  # 512 pages total, 480 data
    with pytest.raises(FlashFullError):
        for wave in range(40):
            add_gantries(store, range(wave * 100, wave * 100 + 100))


def test_single_session_bulk_churn_reuses_staging():
    """Superseded staged pages are released mid-session instead of pinning."""
    store = fresh(2, max_versions=1)
    s = store.begin()
    for wave in range(8):
        ids = range(wave * 50, wave * 50 + 50)
        for gid in ids:
            s.insert_gantry(gid, (gid * 37) % 2_000_000, (gid * 91) % 2_000_000)
        for gid in ids:
            s.delete(gid)
    s.insert_gantry(1, 5, 5)
    s.commit()
    assert store.handle().stats().objects == 1
    assert not store.verify()["problems"]


def test_staging_prune_reads_what_the_session_changed_not_the_tree():
    """The prune diffs the session from the base: it reads staged pages and the base pages they replace."""
    store = seeded_store(16, 300, 10, seed=5)
    base_reach = store.handle().reachable_pages()
    s = store.begin()
    for k in range(6):  # neighbours: each insert copies the path the one before it staged
        s.insert_gantry(1000 + k, 1_500_000 + 10 * k, 333_333 + 10 * k)
    staged = set(s.pending)
    reach = walk_version(store.device.read_page, s.root, store.total_pages).reachable
    replaced = base_reach - reach
    store.swap_cache(PageCache(15))
    before = store.device.stats().reads
    store._prune_staging()
    reads = store.device.stats().reads - before
    assert s.pending == staged & (reach | s.edit_pages) and s.pending < staged
    assert reads <= len(staged) + len(replaced)
    assert 10 * reads < len(base_reach)
    assert s.commit() == 3 and store.verify()["ok"]


def test_load_fits_a_part_where_the_insert_loop_runs_out():
    """A bulk load writes only the final tree, so it fits a part about 1.25x that size."""
    gantries, zones = generate_dataset(7, n_gantries=600, n_zones=40)
    roomy = fresh(16)
    build_database(roomy, gantries, zones)
    tree_pages = len(roomy.handle().reachable_pages())
    sectors = 7
    assert 1.2 * tree_pages <= sectors * 256 <= 1.3 * tree_pages
    tight = fresh(sectors)
    build_database(tight, gantries, zones)
    assert tight.verify()["ok"]
    assert version_digest(tight, 2) == version_digest(roomy, 2)

    looped = fresh(sectors)
    s = looped.begin()
    with pytest.raises(FlashFullError):
        for g in gantries:
            s.insert_gantry(g.gantry_id, g.x, g.y)
        for z in zones:
            s.insert_zone(z.zone_id, z.vertices)


def test_cursor_survives_remount():
    store = fresh()
    add_gantries(store, range(10))
    cur = store._cursor
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    assert back._cursor == cur


def test_wear_spreads_over_generations():
    store = fresh(4, max_versions=1)
    for gen in range(30):
        s = store.begin()
        old = range((gen - 1) * 50, gen * 50) if gen else ()
        for gid in old:
            s.delete(gid)
        for gid in range(gen * 50, gen * 50 + 50):
            s.insert_gantry(gid, (gid * 211) % 2_000_000, (gid * 389) % 2_000_000)
        s.commit()
    counts = store.device.stats().erase_counts[2:]  # data region only
    assert max(counts) - min(counts) <= 2


# -- dedup ---------------------------------------------------------------------------


def test_dedup_shares_identical_leaf_pages():
    # two zones covering the same cells produce identical single-record lists
    store = fresh()
    sq = ((100_000, 100_000), (1_900_000, 100_000), (1_900_000, 1_900_000), (100_000, 1_900_000))
    s = store.begin()
    s.insert_zone(1, sq)
    s.commit()
    st = store.handle().stats()
    assert st.duplicate_leaf_pages > 0  # many identical inside-lists, stored once
    assert st.pages_deduped < st.total_pages


def test_dedup_off_writes_every_page():
    sq = ((100_000, 100_000), (1_900_000, 100_000), (1_900_000, 1_900_000), (100_000, 1_900_000))
    on = fresh(params=BuildParams(zone_max_depth=1))
    off = fresh(params=BuildParams(zone_max_depth=1, dedup=False))
    for store in (on, off):
        s = store.begin()
        s.insert_zone(1, sq)
        s.commit()
    assert on.device.stats().programs < off.device.stats().programs
    # logically identical regardless
    assert on.handle().stats().objects == off.handle().stats().objects
    assert on.handle().query_zones_at(5, 5).ids == off.handle().query_zones_at(5, 5).ids


def test_write_page_shares_a_repeated_leaf_page_and_no_other_kind():
    leaf, node = encode_leaf_list([LeafRecord(KIND_POINT, 40)]), encode_node(1)
    for dedup in (True, False):
        store = fresh(params=BuildParams(dedup=dedup))
        s = store.begin()
        assert (s.write_page(leaf) == s.write_page(leaf)) == dedup  # one page, when the image dedups
        assert s.write_page(node) != s.write_page(node)
        s.rollback()


def test_dedup_map_holds_exactly_the_leaf_pages_of_live_versions():
    gantries, zones = generate_dataset(9, 300, 20)
    source = fresh(16, max_versions=2)
    build_database(source, gantries, zones[:12])
    replica = Store(FlashDevice.from_bytes(source.device.to_bytes()), max_versions=2)
    edits = [("zone", z) for z in zones[12:16]] + [("delete", g) for g in gantries[:3]]
    for kind, obj in edits:  # seven commits, well past the two-version window
        base = source.current_version
        s = source.begin()
        if kind == "zone":
            s.insert_zone(obj.zone_id, obj.vertices)
        else:
            s.delete(obj.gantry_id, "gantry")
        s.commit()
        replica.apply_update(source.make_update(base, source.current_version))
    remount = Store(FlashDevice.from_bytes(source.device.to_bytes()), max_versions=2)
    assert set(source._dedup.values()) <= set().union(*live_reach(source).values())
    remount._ensure_counted()
    assert source._dedup.keys() == remount._dedup.keys()
    assert replica._refs is None  # an apply leaves the counts, and the map, to the next write that counts
    # what the map holds changes no device cost: the same edit programs alike
    programs = []
    for store in (source, replica, remount):
        before = store.device.stats().programs
        s = store.begin()
        for z in zones[16:]:
            s.insert_zone(z.zone_id, z.vertices)
        s.commit()
        programs.append(store.device.stats().programs - before)
    assert programs[0] == programs[1] == programs[2]


# -- tree-shape parameters -----------------------------------------------------------

SHAPED = BuildParams(leaf_split_threshold=2, max_depth=3, zone_max_depth=1, dedup=False)


@pytest.mark.parametrize("params", [SHAPED, BuildParams()], ids=["shaped", "defaults"])
def test_every_flip_of_the_root_parameters_is_refused_naming_the_root(params):
    store = fresh(params=params)
    add_gantries(store, range(1, 20))
    root = store.handle().root_page
    assert Store(FlashDevice.from_bytes(store.device.to_bytes())).params == params
    for offset in range(codec.NODE_PARAMS_OFF, codec.NODE_PARAMS_OFF + 3):
        for bit in range(8):
            blob = bytearray(store.device.to_bytes())
            blob[8 + root * PAGE_SIZE + offset] ^= 1 << bit
            damaged = Store(FlashDevice.from_bytes(bytes(blob)))
            with pytest.raises(FormatError, match=rf"node parameters .* at page {root}$"):
                damaged.handle().query_gantries_within(5, 5, 10)
            assert [p for p in damaged.verify()["problems"] if "parameters" in p and p.endswith(f"at page {root}")]
            with pytest.raises(IntegrityError, match=rf"at page {root}\b"):
                damaged.params  # never the defaults, nor other parameters


def test_the_root_keeps_its_parameters_when_its_self_list_changes():
    """With ``zone_max_depth`` 0 every zone is in the root's self list, so each edit encodes the root again."""
    params = BuildParams(leaf_split_threshold=3, max_depth=4, zone_max_depth=0)
    store = fresh(params=params)
    s = store.begin()
    for zid in (1, 2, 3):
        s.insert_zone(zid, ((100_000 * zid, 100_000), (100_000 * zid + 50_000, 100_000), (100_000 * zid, 150_000)))
    s.commit()
    s = store.begin()
    s.delete(2)
    s.commit()
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    assert back.params == params and back.handle().stats().objects == 2
    for vno in (2, 3):
        root = node_view(store.device.read_page(store.handle(vno).root_page))
        assert root.self_list != ENTRY_EMPTY and root.params == params


def test_an_applied_package_brings_its_parameters_to_the_replica():
    source, replica = fresh(params=SHAPED), fresh()
    add_gantries(source, [1])
    replica.apply_update(source.make_update(1, 2))
    assert replica.params == SHAPED
    for store in (source, replica):  # the replica's next edit shapes the tree as the source's does
        add_gantries(store, range(2, 12))
    assert replica.handle().stats() == source.handle().stats()


# -- update packages ------------------------------------------------------------------


def two_version_store():
    store = fresh(8)
    add_gantries(store, range(50))
    base_blob = store.device.to_bytes()  # snapshot that has never seen v3
    s = store.begin()
    s.insert_gantry(500, 1_234_567, 765_432)
    s.insert_zone(9, ((200_000, 200_000), (700_000, 250_000), (400_000, 800_000)))
    s.delete(3)
    s.commit()
    return store, base_blob


def test_update_package_round_trip():
    store, base_blob = two_version_store()
    pkg = store.make_update(2, 3)
    clone = Store(FlashDevice.from_bytes(base_blob))
    assert clone.apply_update(pkg) == 3
    assert clone.current_version == 3
    assert version_digest(clone, 3) == version_digest(store, 3)
    rng = random.Random(5)
    h1, h2 = store.handle(3), clone.handle(3)
    for _ in range(60):
        x, y = rng.randrange(2_000_000), rng.randrange(2_000_000)
        assert h1.query_zones_at(x, y).ids == h2.query_zones_at(x, y).ids
        assert h1.query_gantries_within(x, y, 80_000).ids == h2.query_gantries_within(x, y, 80_000).ids


def test_a_package_holds_the_pages_new_reaches_and_base_does_not():
    """For every pair of retained versions, the current one or not; each package applies at its base."""
    store = seeded_store(8, 120, 4, seed=3, max_versions=5)
    blobs = {2: store.device.to_bytes()}
    for edit in (
        lambda s: s.insert_gantry(900, 1_234_567, 765_432),
        lambda s: s.delete(4, "zone"),
        lambda s: s.insert_zone(8, ((200_000, 200_000), (700_000, 250_000), (400_000, 800_000))),
        lambda s: s.delete(7, "gantry"),
    ):
        s = store.begin()
        edit(s)
        vno = s.commit()
        blobs[vno] = store.device.to_bytes()
    reach = {v: store.handle(v).reachable_pages() for v in range(2, 7)}
    for base in range(2, 7):
        for new in range(base + 1, 7):
            pkg = store.make_update(base, new)
            _, _, pages, root = parse_update(pkg)
            assert [addr for addr, _ in pages] == sorted(reach[new] - reach[base])
            assert all(data == store.device.read_page(addr) for addr, data in pages)
            assert root == store.handle(new).root_page
            replica = Store(FlashDevice.from_bytes(blobs[base]), max_versions=5)
            assert replica.apply_update(pkg) == new
            assert version_digest(replica, new) == version_digest(store, new)


def test_update_requires_live_versions_and_order():
    store, _ = two_version_store()
    with pytest.raises(NotFoundError):
        store.make_update(2, 9)
    with pytest.raises(DomainError):
        store.make_update(3, 2)


def test_apply_rejects_wrong_base():
    store, _ = two_version_store()
    pkg = store.make_update(2, 3)
    with pytest.raises(VersionConflictError):
        store.apply_update(pkg)  # already at 3


def test_apply_rejects_corrupt_package():
    store, base_blob = two_version_store()
    pkg = bytearray(store.make_update(2, 3))
    clone = Store(FlashDevice.from_bytes(base_blob))
    pkg[20] ^= 0x01
    with pytest.raises(IntegrityError):
        clone.apply_update(bytes(pkg))
    with pytest.raises((FormatError, IntegrityError)):  # truncation breaks the trailing checksum
        clone.apply_update(bytes(pkg[: len(pkg) // 2]))
    with pytest.raises(FormatError):
        clone.apply_update(b"JUNKJUNK")


def resealed(pkg, pages, root):
    """``pkg`` with its page records and new root replaced, checksum recomputed."""
    out = bytearray(pkg[:12]) + len(pages).to_bytes(4, "little")
    for addr, data in pages:
        out += addr.to_bytes(3, "big") + data
    out += root.to_bytes(3, "big")
    return bytes(out + zlib.crc32(bytes(out)).to_bytes(4, "little"))


def test_apply_refuses_page_addresses_that_do_not_ascend_before_programming():
    store, base_blob = two_version_store()
    pkg = store.make_update(2, 3)
    _, _, pages, root = parse_update(pkg)
    (a, da), (_, db) = pages[:2]
    twice = resealed(pkg, [(a, da), (a, db)] + pages[2:], root)  # page a listed twice
    clone = Store(FlashDevice.from_bytes(base_blob))
    with pytest.raises(FormatError, match=rf"record 1 names page {a}\b.*ascending"):
        clone.apply_update(twice)
    backwards = resealed(pkg, pages[1::-1] + pages[2:], root)
    with pytest.raises(FormatError, match=r"record 1 .*ascending"):
        clone.apply_update(backwards)
    assert clone.device.stats().programs == 0 and clone.current_version == 2


def test_apply_refuses_a_new_root_outside_the_data_area_before_programming():
    store, base_blob = two_version_store()
    pkg = store.make_update(2, 3)
    _, _, pages, _ = parse_update(pkg)
    clone = Store(FlashDevice.from_bytes(base_blob))
    for root in (DATA_START - 1, clone.total_pages):
        with pytest.raises(FormatError, match=rf"new root {root} is outside the data area"):
            clone.apply_update(resealed(pkg, pages, root))
    assert clone.device.stats().programs == 0 and clone.current_version == 2


def test_input_refused_on_sight_is_refused_before_the_count():
    """On a fresh mount, a bad package or bad version numbers cost no read beyond the mount's."""
    store = seeded_store(16, 300, 10, seed=8)
    wrong_base = store.make_update(1, 2)
    add_gantries(store, [9_001])
    blob = store.device.to_bytes()
    _, _, pages, root = parse_update(wrong_base)
    header = wrong_base[:4] + (3).to_bytes(4, "little") + (4).to_bytes(4, "little")
    outside = resealed(header, [(addr + store.total_pages, page) for addr, page in pages], root)
    refusals = [
        (lambda st: st.apply_update(b"JUNKJUNK"), FormatError),
        (lambda st: st.apply_update(wrong_base), VersionConflictError),
        (lambda st: st.apply_update(outside), FormatError),
        (lambda st: st.make_update(2, 9), NotFoundError),
        (lambda st: st.make_update(3, 2), DomainError),
    ]
    for k, (refused, error) in enumerate(refusals):
        dev = FlashDevice.from_bytes(blob)
        mounted = Store(dev)
        reads = dev.stats().reads
        with pytest.raises(error):
            refused(mounted)
        assert dev.stats().reads == reads, k
        assert mounted._refs is None, k
    assert Store(FlashDevice.from_bytes(blob)).make_update(2, 3)  # a good request still counts and packages


def test_apply_is_idempotent_after_interrupt():
    store, base_blob = two_version_store()
    pkg = store.make_update(2, 3)
    clone = Store(FlashDevice.from_bytes(base_blob))
    clone.device.arm_power_loss(after_ops=3, prefix=17)
    with pytest.raises(PowerLossError):
        clone.apply_update(pkg)
    back = Store(FlashDevice.from_bytes(clone.device.to_bytes()))
    assert back.current_version == 2  # the torn apply never registered
    _, _, pages, _ = parse_update(pkg)
    torn = [addr for addr, data in pages if back.device.read_page(addr) not in (data, bytes([0xFF]) * PAGE_SIZE)]
    assert len(torn) == 1 and back.device.read_page(torn[0])[:17] == dict(pages)[torn[0]][:17]
    erases = back.device.stats().erases
    assert back.apply_update(pkg) == 3
    assert back.device.stats().erases == erases  # a torn prefix of the same data is reprogrammed, not erased
    assert version_digest(back, 3) == version_digest(store, 3)


@pytest.mark.parametrize("at", [0, PAGE_SIZE - 1])
def test_apply_erases_a_target_missing_one_bit_of_its_package_page(at):
    """A target that differs from its package page by a single 0 where the page has a 1 is erased first."""
    store, base_blob = two_version_store()
    pkg = store.make_update(2, 3)
    _, _, pages, _ = parse_update(pkg)
    data = dict(pages)
    clean = Store(FlashDevice.from_bytes(base_blob))
    assert clean.apply_update(pkg) == 3 and clean.device.stats().erases == 0  # every target is blank
    replica = Store(FlashDevice.from_bytes(base_blob))
    live = replica.handle(1).reachable_pages() | replica.handle(2).reachable_pages()
    addr = next(
        a for a in sorted(data)
        if data[a][at] and not live & set(range(a - a % SUB, a - a % SUB + SUB))
    )
    raw = bytearray(data[addr])
    raw[at] &= raw[at] - 1  # clear the lowest set bit: the only 0 -> 1 the package page needs
    replica.device.program_page(addr, bytes(raw))
    assert replica.apply_update(pkg) == 3
    assert replica.device.stats().erases == 1
    assert replica.device.read_page(addr) == data[addr]
    assert version_digest(replica, 3) == version_digest(store, 3)


def test_apply_reads_each_target_once_and_programs_only_what_it_must():
    """A package page found present is not read again, nor programmed unless its subsector is erased."""
    store = fresh(8)
    add_gantries(store, [1])
    base_blob = store.device.to_bytes()
    s = store.begin()
    s.load([(gid, 10_000 * gid, 12_000 * gid) for gid in range(100, 140)], [])
    s.commit()
    _, _, pages, _ = parse_update(store.make_update(2, 3))
    data = dict(pages)
    assert {48, 49, 64} <= set(data)  # subsectors 3 and 4 hold no page of version 2

    replica = Store(FlashDevice.from_bytes(base_blob))
    replica.device.program_page(48, data[48])  # present, but subsector 3 must be erased ...
    replica.device.program_page(49, bytes(PAGE_SIZE))  # ... for this page
    replica.device.program_page(64, data[64])  # present: nothing to do
    reads, programs = [], []
    replica.device.on_read = reads.append
    replica.device.on_program = lambda addr, _: programs.append(addr)
    erases = replica.device.stats().erases
    assert replica.apply_update(store.make_update(2, 3)) == 3
    assert sorted(a for a in reads if a in data) == sorted(data)
    assert sorted(a for a in programs if a in data) == sorted(set(data) - {64})
    assert replica.device.stats().erases == erases + 1
    assert replica.verify()["ok"]
    assert version_digest(replica, 3) == version_digest(store, 3)


def test_apply_refuses_to_clobber_live_pages():
    store, _ = two_version_store()
    pkg = store.make_update(2, 3)
    other = fresh(8)
    add_gantries(other, range(7))  # different v2 whose pages collide
    with pytest.raises((RelocationError, IntegrityError, VersionConflictError)):
        other.apply_update(pkg)


def test_damaged_version_mounts_read_only_until_rolled_away():
    store = fresh()
    add_gantries(store, [1])
    add_gantries(store, [2])
    # wreck a page that only version 3 reaches
    only_v3 = store.handle(3).reachable_pages() - store.handle(2).reachable_pages()
    victim = max(only_v3)
    blob = bytearray(store.device.to_bytes())
    blob[8 + victim * PAGE_SIZE + 30] ^= 0x08
    add_gantries(store, [3])
    pkg = store.make_update(3, 4)
    staged = (3, store.handle(4).root_page, set())
    first_writes = {
        "begin": lambda st: st.begin(),
        "apply_update": lambda st: st.apply_update(pkg),
        "make_update": lambda st: st.make_update(2, 3),
        "resume_session": lambda st: st.resume_session(*staged),
        "gc": lambda st: st.gc(),
    }
    for name, write in first_writes.items():  # each the first write after a mount: it counts, and refuses
        dev = FlashDevice.from_bytes(bytes(blob))
        damaged = Store(dev)
        with pytest.raises(IntegrityError, match=rf"\b{victim}\b"):
            write(damaged)
        assert (dev.stats().programs, dev.stats().erases) == (0, 0), name
    back = Store(FlashDevice.from_bytes(bytes(blob)))
    assert back.verify()["problems"]  # damage is visible, mount survived
    assert back.handle(2).stats().objects == 1  # healthy version still answers
    with pytest.raises((FormatError, IntegrityError), match=rf"\b{victim}\b"):
        back.handle(3).query_zones_at(1_000, 1_000)  # the damaged root
    with pytest.raises(IntegrityError):
        back.begin()
    with pytest.raises(IntegrityError):
        back.gc()
    back.rollback_to(2)  # the repair path: drop the damaged version
    assert not back.verify()["problems"]
    add_gantries(back, [5])  # and the store is writable again
    assert back.handle().stats().objects == 2


# -- crash injection ------------------------------------------------------------------


def crash_everywhere(build, op, max_ops=400, seed=0):
    """Run ``op`` with power loss at every op index until it completes."""
    rng = random.Random(seed)
    for k in range(1, max_ops):
        store = build()
        before = store.current_version
        store.device.arm_power_loss(after_ops=k, prefix=rng.randrange(0, PAGE_SIZE + 1))
        try:
            op(store)
        except PowerLossError:
            back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
            assert not back.verify()["problems"]
            assert back.current_version >= before
            continue
        store.device.disarm_power_loss()
        return k  # op completed with no injection left
    raise AssertionError("operation never completed")


def test_commit_crash_recovers_to_base_or_new():
    def build():
        store = fresh()
        add_gantries(store, range(12))
        return store

    def op(store):
        s = store.begin()
        s.insert_gantry(900, 42, 42)
        s.delete(3)
        s.commit()

    ops_needed = crash_everywhere(build, op)
    assert ops_needed > 3  # the op does real page work


def test_rollback_crash_lands_on_original_or_target():
    def build():
        store = fresh()
        add_gantries(store, [1])
        add_gantries(store, [2])
        add_gantries(store, [3])
        return store

    seen = set()

    def op(store):
        store.rollback_to(2)

    rng = random.Random(1)
    for k in range(1, 10):
        store = build()
        store.device.arm_power_loss(after_ops=k, prefix=rng.randrange(0, PAGE_SIZE + 1))
        try:
            op(store)
        except PowerLossError:
            back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
            assert not back.verify()["problems"]
            assert back.current_version in (2, 4)  # original or target, never 3
            seen.add(back.current_version)
        else:
            store.device.disarm_power_loss()
            break
    assert seen  # at least one injection actually fired


def test_compaction_crash_keeps_directory_consistent():
    def build():
        store = fresh(max_versions=2)
        for _ in range(255):
            store.begin().commit()
        return store  # next append fills the subsector; the one after compacts

    def op(store):
        store.begin().commit()
        store.begin().commit()

    crash_everywhere(build, op, max_ops=40)


def test_verify_reports_a_record_past_the_end_of_the_log_and_mount_does_not_read_it():
    store = fresh()
    add_gantries(store, [1])  # versions 1 and 2 in slots 0 and 1: slot 2 ends the log
    dev = store.device
    ghost = VersionRecord(9, DATA_START, DATA_START + 1)
    dev.program_page(0, directory_page_with(dev.read_page(0), 4, [ghost]))  # two slots past the end
    dev.program_page(3, directory_page_with(dev.read_page(3), 9, [ghost]))
    dev.program_page(SUB + 5, directory_page_with(dev.read_page(SUB + 5), 0, [ghost]))  # the other side
    back, reads = mount_reads(store)
    assert reads == [0, SUB] and back.current_version == 2
    assert [r["version"] for r in back.versions()] == [1, 2]
    assert back.verify()["problems"] == [
        "directory subsector 0 page 0 slot 4 lies past the end of the log",
        "directory subsector 0 page 3 slot 9 lies past the end of the log",
    ]  # what a cut erase can leave on the other side is not damage


def image_with_a_record_past_the_log(slot):
    """A store at version 2 (slots 0 and 1), and a mount of its image with a valid record at ``slot`` of page 0.

    Slot 2 ends the log, so the mount does not read the record, and ``verify`` reports it.
    """
    store = fresh()
    add_gantries(store, [1])
    dev = FlashDevice.from_bytes(store.device.to_bytes())
    dev.program_page(0, directory_page_with(dev.read_page(0), slot, [VersionRecord(9, DATA_START, DATA_START + 1)]))
    return store, Store(dev)


def assert_remounts_as(store, live):
    back = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    assert [r["version"] for r in back.versions() if r["state"] == "live"] == live
    assert back.versions() == store.versions()
    assert back.verify()["problems"] == []
    for vno in live:
        assert version_digest(back, vno) == version_digest(store, vno)


@pytest.mark.parametrize("slot", [3, 4, 15])
def test_a_commit_onto_a_record_past_the_end_of_the_log_compacts_the_directory_first(slot):
    _, store = image_with_a_record_past_the_log(slot)
    assert add_gantries(store, [2]) == 3 and add_gantries(store, [3]) == 4
    assert_remounts_as(store, [1, 2, 3, 4])
    assert add_gantries(store, [4]) == 5  # and the store writes on


@pytest.mark.parametrize("slot", [3, 4, 15])
def test_an_apply_onto_a_record_past_the_end_of_the_log_compacts_the_directory_first(slot):
    source, replica = image_with_a_record_past_the_log(slot)
    add_gantries(source, [2])
    add_gantries(source, [3])
    for base in (2, 3):
        assert replica.apply_update(source.make_update(base, base + 1)) == base + 1
    assert_remounts_as(replica, [1, 2, 3, 4])
    for vno in (3, 4):
        assert version_digest(replica, vno) == version_digest(source, vno)


WINDOW = 4


def empty_commit(store):
    return store.begin().commit()


def remount(store):
    return Store(FlashDevice.from_bytes(store.device.to_bytes()), max_versions=WINDOW)


def erase_ops(store, op):
    """(op number, first page) of each erase ``op`` makes on a remount of ``store``'s image.

    Op 1 is the next program or erase, as ``arm_power_loss`` counts them.
    """
    copy = remount(store)
    dev = copy.device
    start, erases, erase = dev.programs + dev.erases, [], dev.erase

    def noted(scope, addr):
        erases.append((dev.programs + dev.erases - start + 1, addr))
        erase(scope, addr)

    dev.erase = noted
    op(copy)
    return erases


@functools.cache
def dirty_target_image():
    """Side 1 active and full, side 0 left as an erase cut after 8 of its 16 pages leaves it.

    The next commit compacts onto side 0, erasing it first, and side 1 last.
    """
    store = fresh(max_versions=WINDOW)
    for _ in range(255):
        empty_commit(store)
    [(op, first)] = erase_ops(store, empty_commit)  # a clean target: only side 0 is erased
    assert first == 0
    store.device.arm_power_loss(op, 8)
    with pytest.raises(PowerLossError):
        empty_commit(store)
    store = remount(store)
    while store._dir_tail < DIR_SLOTS:
        empty_commit(store)
    assert store._active_sub == 1
    return store.device.to_bytes()


@pytest.mark.parametrize("cut", ["target", "old side"])
def test_a_compaction_erase_cut_after_any_page_count_recovers(cut):
    """A cut erase blanks whole leading pages.  Cut either erase of a compaction after 0..16 pages: each
    remount is at the version before, its window live and ``verify`` clean, and commits on, each one
    remounted, carry the directory through the next compaction onto the partly erased side."""
    base = Store(FlashDevice.from_bytes(dirty_target_image()), max_versions=WINDOW)
    before = base.current_version
    erases = erase_ops(base, empty_commit)
    assert [first for _, first in erases] == [0, SUB]  # the dirty target, then the old side
    op, first = erases[0 if cut == "target" else 1]
    for pages in range(SUB + 1):
        store = remount(base)
        store.device.arm_power_loss(op, pages)
        with pytest.raises(PowerLossError):
            empty_commit(store)
        store = remount(store)
        assert not store.verify()["problems"], pages
        assert store.current_version == before, pages
        assert sorted(store._versions) == list(range(before - WINDOW + 1, before + 1)), pages
        for n in range(1, DIR_SLOTS + 1):
            empty_commit(store)
            store = remount(store)
            assert store.current_version == before + n, (pages, n)
            if store._active_sub == first // SUB:
                break
        else:
            raise AssertionError(f"no compaction onto the side cut after {pages} pages")
        assert not store.verify()["problems"], pages
        assert sorted(store._versions) == list(range(before + n - WINDOW + 1, before + n + 1)), pages


def test_a_compaction_cut_in_its_copy_is_made_again_by_the_next_commit():
    """Mount picks the full side and finds records on the other; the next commit compacts again, erasing each
    side once: the revoke after it has nothing left to erase."""
    base = Store(FlashDevice.from_bytes(dirty_target_image()), max_versions=WINDOW)
    (target_op, _), (old_op, _) = erase_ops(base, empty_commit)
    assert old_op == target_op + 2  # between the erases, the copy: one page holds the window
    store = remount(base)
    store.device.arm_power_loss(target_op + 1, 40)  # two records and a torn third reach the target
    with pytest.raises(PowerLossError):
        empty_commit(store)
    store = remount(store)
    assert store._active_sub == 1 and not store.verify()["problems"]
    erases = store.device.erases
    empty_commit(store)
    assert store.device.erases - erases == 2 and store._active_sub == 0
    assert remount(store).current_version == base.current_version + 1


# -- reference counts: commits and applies read what changed ----------------------------


def directory(store):
    return [store.device.read_page(p) for p in range(DATA_START)]


def damage(store, addr):
    """Clear one set bit of a programmed page on the device, as a worn cell would."""
    page = bytearray(store.device.read_page(addr))
    pos = next(i for i in range(40, PAGE_SIZE) if page[i])
    page[pos] &= page[pos] - 1
    store.device.program_page(addr, bytes(page))
    store.cache.invalidate(addr)


@pytest.mark.parametrize("magic", [NODE_MAGIC, LEAF_MAGIC, OBJ_MAGIC], ids=["node", "leaf", "object"])
def test_commit_refuses_a_damaged_page_and_names_it(magic):
    store = fresh()
    add_gantries(store, range(12))
    s = store.begin()
    s.insert_gantry(500, 1_234_567, 765_432)
    victim = min(a for a in s.pending if store.device.read_page(a)[0] == magic)
    damage(store, victim)
    dir_before, version = directory(store), store.current_version
    with pytest.raises((FormatError, IntegrityError), match=rf"\b{victim}\b"):
        s.commit()
    assert directory(store) == dir_before and store.current_version == version


@pytest.mark.parametrize("magic", [NODE_MAGIC, LEAF_MAGIC, OBJ_MAGIC], ids=["node", "leaf", "object"])
def test_apply_refuses_a_resealed_corrupt_package_and_names_the_page(magic):
    store, base_blob = two_version_store()
    pkg = bytearray(store.make_update(2, 3))
    _, _, pages, _ = parse_update(bytes(pkg))
    k, (victim, _) = next((k, p) for k, p in enumerate(pages) if p[1][0] == magic)
    pkg[16 + k * (3 + PAGE_SIZE) + 3 + 100] ^= 0x10  # one bit inside the page's checksummed bytes
    pkg[-4:] = zlib.crc32(bytes(pkg[:-4])).to_bytes(4, "little")  # resealed: only the page is wrong
    clone = Store(FlashDevice.from_bytes(base_blob))
    dir_before = directory(clone)
    with pytest.raises((FormatError, IntegrityError), match=rf"\b{victim}\b"):
        clone.apply_update(bytes(pkg))
    assert directory(clone) == dir_before and clone.current_version == 2


def hand_made_root(kind):
    """A store and a session whose root names pages the way ``kind`` breaks the rules.

    Returns (store, session, the page the refusal must name).
    """
    store = fresh(params=BuildParams(leaf_split_threshold=1))
    add_gantries(store, [1, 2, 3], base=0)  # close together: nodes down to level 4
    rep = store.handle().walk()
    s = store.begin()
    root = node_view(store.read_page(s.root))
    words = list(root.entries)
    free = [k for k, word in enumerate(words) if word == ENTRY_EMPTY]
    if kind == "object-as-leaf":
        victim = min(head for head, (k, _) in rep.objects.items() if k == "gantry")
        words[free[0]] = make_leaf(victim)
    elif kind == "node-at-wrong-level":
        victim = min(addr for addr, level in rep.nodes.items() if level == 2)
        words[free[0]] = make_child(victim)
    elif kind == "looping-leaf-chain":
        victim = s.alloc_page()
        gantry = min(rep.objects)
        s.program_page(victim, encode_leaf_list([LeafRecord(KIND_POINT, gantry)], victim))
        words[free[0]] = make_leaf(victim)
    elif kind == "node-twice":  # one new node named by two entries
        victim = s.write_page(encode_node(1))
        words[free[0]] = words[free[1]] = make_child(victim)
    else:  # an old level-2 node named by a new level-1 node as well as by its old parent
        victim = min(addr for addr, level in rep.nodes.items() if level == 2)
        entries = [ENTRY_EMPTY] * 81
        entries[0] = make_child(victim)
        words[free[0]] = make_child(s.write_page(encode_node(1, entries)))
    s.root = s.write_page(encode_node(root.level, words, root.self_list, root.params))
    return store, s, victim


@pytest.mark.parametrize(
    "kind", ["object-as-leaf", "node-at-wrong-level", "looping-leaf-chain", "node-twice", "node-from-two-pages"]
)
def test_commit_refuses_pages_that_break_the_tree_rules(kind):
    store, s, victim = hand_made_root(kind)
    dir_before = directory(store)
    with pytest.raises((FormatError, IntegrityError), match=rf"\b{victim}\b"):
        s.commit()
    assert directory(store) == dir_before and store.current_version == 2


def test_edits_commits_and_applies_read_what_changed():
    """Each edit plus commit, and an applied package, reads a few pages, not the tree."""
    store = seeded_store(16, 300, 10, seed=77)  # about 1 100 reachable pages
    city = ((1_000_000, 1_000_000), (1_012_000, 1_000_000), (1_012_000, 1_009_000), (1_000_000, 1_009_000))
    s = store.begin()
    s.insert_zone(99, city)
    base = s.commit()
    blob = store.device.to_bytes()

    def reads(st, op):
        before = st.device.stats().reads
        op()
        return st.device.stats().reads - before

    def edit(fn):
        def op():
            s = store.begin()
            fn(s)
            s.commit()
        return op

    assert reads(store, edit(lambda s: s.insert_gantry(777_777, 1_500_000, 333_333))) <= 60
    replica = Store(FlashDevice.from_bytes(blob))
    replica._ensure_counted()
    pkg = store.make_update(base, store.current_version)
    assert reads(replica, lambda: replica.apply_update(pkg)) <= 60
    assert reads(store, edit(lambda s: s.delete(5, "gantry"))) <= 60
    assert reads(store, edit(lambda s: s.delete(99, "zone"))) <= 60
    assert version_digest(replica, base + 1) == version_digest(store, base + 1)


# -- applies checked in lockstep with the base tree --------------------------------------


def small_packages():
    """(base image, package, digest of the new version) of a one-gantry insert and of a one-zone delete.

    Both come from ``seeded_store(16, 300, 10, seed=77)``, about 1 100 reachable pages.
    """
    store = seeded_store(16, 300, 10, seed=77)
    city = ((1_000_000, 1_000_000), (1_012_000, 1_000_000), (1_012_000, 1_009_000), (1_000_000, 1_009_000))
    s = store.begin()
    s.insert_zone(99, city)
    s.commit()
    out = []
    for edit in (lambda s: s.insert_gantry(777_777, 1_500_000, 333_333), lambda s: s.delete(99, "zone")):
        image = store.device.to_bytes()
        s = store.begin()
        edit(s)
        vno = s.commit()
        out.append((image, store.make_update(vno - 1, vno), version_digest(store, vno)))
    return out


def traced_peak(op):
    """The ``tracemalloc`` peak of ``op()``, run with the codec's memos emptied first."""
    codec._NODES.clear()
    codec._LEAF_LISTS.clear()
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fresh_mount_applies_a_small_package_reading_only_what_it_changes():
    """A one-gantry and a one-zone-delete package each read at most 40 pages of a 1 100-page tree.

    Neither builds the counts, and each peaks under a quarter of the memory
    of the same apply made after counting the versions, as the first commit
    after a mount does.
    """
    for image, pkg, digest in small_packages():
        dev = FlashDevice.from_bytes(image)
        replica = Store(dev)
        reads = dev.stats().reads
        lean = traced_peak(lambda: replica.apply_update(pkg))
        assert dev.stats().reads - reads <= 40
        assert replica._refs is None
        assert version_digest(replica, replica.current_version) == digest
        counted = Store(FlashDevice.from_bytes(image))

        def count_then_apply():
            counted._ensure_counted()
            counted.apply_update(pkg)

        assert 4 * lean < traced_peak(count_then_apply)


def lockstep_case():
    """A base image, the source store and the package inserting gantry 3 beside gantries 1 and 2.

    Ten gantries crowd one top cell elsewhere, so the base tree has nodes down to level 2.
    """
    store = fresh(8)
    crowd = [(10 + k, 1_500_000 + 300 * k, 1_500_000) for k in range(10)]
    s = store.begin()
    s.load([(1, 1_000, 1_000), (2, 5_000, 1_000), *crowd], [])
    s.commit()
    image = store.device.to_bytes()
    s = store.begin()
    s.insert_gantry(3, 3_000, 1_000)
    s.commit()
    return image, store, store.make_update(2, 3)


@pytest.mark.parametrize("kind", ["blank-page", "bad-crc", "node-as-leaf", "non-package-node", "appendix"])
def test_apply_refuses_a_package_tree_that_does_not_check_before_programming(kind):
    """Each new page the package's tree names outside the shared base is checked in the role it is named in."""
    image, store, pkg = lockstep_case()
    _, _, pages, root = parse_update(pkg)
    pages = dict(pages)
    replica = Store(FlashDevice.from_bytes(image))
    base = store.handle(2).walk()
    node2 = min(addr for addr, level in base.nodes.items() if level == 2)  # the root does not name it
    if kind == "appendix":  # gantry 1's coordinates, as the package's leaf lists them, are wrong
        (victim,) = [addr for addr, page in pages.items() if page[0] == LEAF_MAGIC]
        records, nxt = leaf_list_view(pages[victim])
        records = [
            LeafRecord(KIND_POINT, r.object_page, GantryObject(1, 1_000, 1_002)) if r.gantry.object_id == 1 else r
            for r in records
        ]
        pages[victim] = encode_leaf_list(records, nxt)
    else:
        if kind in ("blank-page", "bad-crc"):
            victim = replica.total_pages - 1
            assert replica.device.read_page(victim) == b"\xff" * PAGE_SIZE
            if kind == "bad-crc":  # a leaf page of the base, one bit cleared, programmed where nothing lives
                leaf = bytearray(replica.device.read_page(min(base.leaf_pages)))
                at = next(i for i in range(6, PAGE_SIZE) if leaf[i])
                leaf[at] &= leaf[at] - 1
                replica.device.program_page(victim, bytes(leaf))
            word = make_leaf(victim)
        else:
            victim = node2
            word = make_leaf(node2) if kind == "node-as-leaf" else make_child(node2)
        node = node_view(pages[root])
        words = list(node.entries)
        words[words.index(ENTRY_EMPTY)] = word
        pages[root] = encode_node(node.level, words, node.self_list, node.params)
    programs = replica.device.stats().programs
    with pytest.raises((FormatError, IntegrityError), match=rf"\b{victim}\b"):
        replica.apply_update(resealed(pkg, sorted(pages.items()), root))
    assert replica.device.stats().programs == programs and replica.current_version == 2


def base_leaf(store, ids):
    """The version-2 leaf page whose gantries' ids are all in ``ids``."""
    return next(
        addr for addr, page in store.handle(2).walk().leaf_pages.items()
        if {r.gantry.object_id for r in leaf_list_view(page)[0]} <= ids
    )


def test_damage_on_the_package_path_is_refused_by_the_apply():
    """The base root and the leaf chain the package replaces are read, and checked, by the apply."""
    image, store, pkg = lockstep_case()
    for victim in (store.handle(2).root_page, base_leaf(store, {1, 2})):
        replica = Store(FlashDevice.from_bytes(image))
        damage(replica, victim)
        programs = replica.device.stats().programs
        with pytest.raises((FormatError, IntegrityError), match=rf"\b{victim}\b"):
            replica.apply_update(pkg)
        assert replica.device.stats().programs == programs and replica.current_version == 2


@pytest.mark.parametrize("where", ["older-version", "shared-leaf"])
def test_damage_off_the_package_path_is_refused_at_the_next_write_that_counts(where):
    """The apply reads no page off its path, so it goes through; the next ``begin`` counts and names the page."""
    image, store, pkg = lockstep_case()
    if where == "older-version":
        victim = store.handle(1).root_page  # only version 1 holds it
    else:  # a leaf of the crowded cell, which the new version shares
        victim = base_leaf(store, set(range(10, 20)))
    replica = Store(FlashDevice.from_bytes(image))
    damage(replica, victim)
    assert replica.apply_update(pkg) == 3
    programs = replica.device.stats().programs
    with pytest.raises(IntegrityError, match=rf"\b{victim}\b"):
        replica.begin()
    assert replica.device.stats().programs == programs


def test_a_power_loss_at_every_mutation_of_a_fresh_mount_apply_recovers_by_applying_again():
    """Remounted after a loss at each program of the apply, the package applies again and verifies.

    A target torn by the loss is neither blank nor the package's page, so
    the second apply counts the versions first.  The replica keeps two
    versions, so the apply's last mutation revokes version 1.
    """
    image, store, pkg = lockstep_case()
    want = version_digest(store, 3)
    targets = dict(parse_update(pkg)[2])
    torn = 0
    for prefix in (0, 40, PAGE_SIZE):  # 40 bytes reach into the new record's directory slot, 32..47
        for k in range(1, 20):
            replica = Store(FlashDevice.from_bytes(image), max_versions=2)
            replica.device.arm_power_loss(after_ops=k, prefix=prefix)
            try:
                replica.apply_update(pkg)
            except PowerLossError:
                back = Store(FlashDevice.from_bytes(replica.device.to_bytes()), max_versions=2)
                torn += any(back.device.read_page(a) not in (page, b"\xff" * PAGE_SIZE) for a, page in targets.items())
                if back.current_version == 2:
                    assert back.apply_update(pkg) == 3
                assert back.current_version == 3 and back.verify()["ok"], (prefix, k, back.verify()["problems"])
                assert version_digest(back, 3) == want
                continue
            replica.device.disarm_power_loss()
            assert k > len(targets) + 1  # every target program and the record append were cut
            break
        else:
            raise AssertionError("the apply never completed")
    assert torn


def live_reach(store):
    """Live version -> the pages a full walk of it reaches."""
    return {
        row["version"]: store.handle(row["version"]).reachable_pages()
        for row in store.versions()
        if row["state"] == "live"
    }


def assert_counts_match_mount(store):
    """What the store keeps for its live versions equals what a fresh mount builds.

    The pages held only by older versions are also checked against full
    walks of every live version: each is held by the newest one reaching it.
    """
    again = Store(FlashDevice.from_bytes(store.device.to_bytes()), max_versions=store.max_versions)
    assert again.current_version == store.current_version
    for st in (store, again):
        st._ensure_counted()
    reach = live_reach(store)
    assert set(store._refs.counts) == reach[store.current_version]
    assert store._held == again._held
    assert store._held == {
        addr: (max(v for v, pages in reach.items() if addr in pages), store.device.read_page(addr))
        for addr in set().union(*reach.values()) - reach[store.current_version]
    }
    assert store._refs.counts == again._refs.counts
    assert store._refs.roles == again._refs.roles
    assert store._refs.objects == again._refs.objects
    assert store._dedup == again._dedup


def test_a_held_page_an_edit_brings_back_is_counted_again():
    """Deleting the gantry the last commit added rewrites its leaf's old bytes; dedup returns the held page."""
    store = fresh(8, max_versions=3, params=BuildParams(leaf_split_threshold=2))
    for gid in (1, 2):
        s = store.begin()
        s.insert_gantry(gid, 500_000 + 100 * gid, 500_000)
        s.commit()
    held = set(store._held)
    s = store.begin()
    s.delete(2, "gantry")
    s.commit()
    assert held & set(store._refs.counts)
    assert_counts_match_mount(store)


EDIT = st.one_of(
    # gantries crowd one 300 km square, so with a split threshold of 2 their cells split deep
    st.tuples(st.just("gantry"), st.integers(1, 8), st.integers(400_000, 700_000), st.integers(400_000, 700_000)),
    st.tuples(st.just("zone"), st.integers(1, 8), st.integers(0, 2**32)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback"), st.integers(0, 3)),
    st.tuples(st.just("gc")),
    st.tuples(st.just("stage")),
)


@given(st.lists(EDIT, min_size=4, max_size=24), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_counts_and_maps_follow_every_commit_and_apply(edits, window):
    """Random edit sequences, several per session, shipped as packages to a replica.

    After every commit, apply, rollback and gc, both stores hold for their
    live versions what a store freshly mounted on the same bytes builds.
    ``window`` versions are retained.
    """
    source = fresh(8, max_versions=window, params=BuildParams(leaf_split_threshold=2))
    replica = Store(FlashDevice.from_bytes(source.device.to_bytes()), max_versions=window)
    committed = {1: frozenset()}  # version -> its (id, kind) pairs
    objects: set = set()  # (id, kind) pairs of the open session's tree
    session = None

    def check():
        for store in (source, replica):
            assert_counts_match_mount(store)
        assert {(oid, k) for oid, heads in source._refs.objects.items() for k in heads.values()} == committed[
            source.current_version
        ]

    for edit in edits + [("commit",)]:
        op = edit[0]
        if op in ("gantry", "zone", "delete"):
            session = session or source.begin()
            if op == "gantry":
                try:
                    session.insert_gantry(edit[1], edit[2], edit[3])
                except ConflictError:  # that id is already a gantry in the session's tree
                    continue
                objects.add((edit[1], "gantry"))
            elif op == "zone":
                try:
                    session.insert_zone(edit[1], random_simple_polygon(random.Random(edit[2]), radius_max=120_000))
                except DomainError:  # the polygon fell wholly outside the world
                    continue
                except ConflictError:  # that id is already a zone in the session's tree
                    continue
                objects.add((edit[1], "zone"))
            elif objects:
                oid, kind = sorted(objects)[edit[1] % len(objects)]
                session.delete(oid, kind)
                objects.discard((oid, kind))
        elif op == "commit":
            base = source.current_version
            vno = (session or source.begin()).commit()
            session = None
            committed[vno] = frozenset(objects)
            pkg = source.make_update(base, vno)
            shipped = {addr for addr, _ in parse_update(pkg)[2]}
            assert shipped == source.handle(vno).reachable_pages() - source.handle(base).reachable_pages()
            replica.apply_update(pkg)
            check()
        elif op == "stage" and session is not None:
            # a staged session, picked up after a remount as the CLI's --stage does
            staged = (session.base_version, session.root, set(session.pending))
            source = Store(FlashDevice.from_bytes(source.device.to_bytes()), max_versions=window)
            session = source.resume_session(*staged)
        elif op == "rollback":
            if session is not None:
                session.rollback()
                session = None
            else:
                live = [row["version"] for row in source.versions() if row["state"] == "live"]
                target = live[edit[1] % len(live)]
                source.rollback_to(target)
                replica.rollback_to(target)
                check()
            objects = set(committed[source.current_version])
        elif op == "gc" and session is None:
            source.gc()
            replica.gc()
            check()
