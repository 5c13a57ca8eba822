"""Tree structure: splits, zone placement, deletion, stats accounting."""

import math
import random
import signal
import zlib
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from flashquad import tree
from flashquad.codec import (
    ADDR_MASK,
    ENTRY_EMPTY,
    KIND_POINT,
    KIND_ZONE_EDGE,
    KIND_ZONE_INSIDE,
    LEAF_COORDS,
    LEAF_COORDS_FLAG_OFF,
    LEAF_CRC_OFF,
    LEAF_MAGIC,
    MAX_NODE_LEVEL,
    NO_PAGE,
    NODE_CRC_OFF,
    NODE_ENTRIES_OFF,
    NODE_MAGIC,
    NODE_PARAMS_OFF,
    NODE_SELF_CHECK_OFF,
    NODE_SELF_CRC_OFF,
    NODE_SELF_LIST_OFF,
    PAGE_SIZE,
    OBJ_GANTRY,
    OBJ_MAGIC,
    OBJ_ZONE,
    SELF_CHECKED,
    ZONE_CONT,
    GantryObject,
    LeafRecord,
    crc16,
    encode_leaf_list,
    encode_update,
    leaf_list_view,
    make_child,
    make_leaf,
    node_view,
    node_with_entry,
    parse_update,
)
from flashquad.dataset import build_database, generate_dataset
from flashquad.errors import ConflictError, DomainError, FlashQuadError, FormatError, IntegrityError, NotFoundError
from flashquad.flashsim import ERASED_PAGE, FlashDevice, FlashGeometry
from flashquad.geometry import TOP_CELL, CellClass, classify_cell
from flashquad.geometry import WORLD_SIZE as W
from flashquad.store import Store
from flashquad.tree import LEAF, BuildParams, _page_refs, walk_version

from helpers import count_kind_programs, pip_oracle_one, random_simple_polygon, seeded_store


def fresh(params=None, sectors=4):
    return Store.format(FlashDevice(FlashGeometry(sector_count=sectors)), params=params)


def committed(store, edit):
    s = store.begin()
    edit(s)
    return s.commit()


# -- params -----------------------------------------------------------------


def test_build_params_validation():
    BuildParams(leaf_split_threshold=0, max_depth=5, zone_max_depth=0)
    BuildParams(leaf_split_threshold=0, max_depth=6, zone_max_depth=0)  # leaves at level 6
    with pytest.raises(DomainError):
        BuildParams(max_depth=7)
    with pytest.raises(DomainError):
        BuildParams(zone_max_depth=6)
    with pytest.raises(DomainError):
        BuildParams(max_depth=2, zone_max_depth=3)
    with pytest.raises(DomainError):
        BuildParams(leaf_split_threshold=-1)


# -- empty tree ---------------------------------------------------------------


def test_empty_tree_stats():
    st = fresh().handle().stats()
    assert st.objects == 0
    assert st.total_pages == 1  # just the root node
    assert st.index_pages == 1
    assert st.leaf_refs == 0
    assert st.refs_per_object == 0
    assert st.empty_entries == 81
    assert st.used_entries == 0
    assert st.max_depth == 0
    assert st.leaf_pages == 0 and st.distinct_leaf_pages == 0
    assert st.duplicate_leaf_pages == 0
    assert st.pages_deduped == 1


def test_stats_rows_cover_a_through_r():
    rows = fresh().handle().stats().rows()
    assert [r[0] for r in rows] == list("abcdefghijklmnopqr")
    assert rows[0][2] == 0  # a: objects
    assert rows[8][2] == 0  # i: depth


# -- points ---------------------------------------------------------------------


def test_insert_and_query_round_trip():
    store = fresh()
    committed(store, lambda s: [s.insert_gantry(1, 5, 5), s.insert_gantry(2, W - 1, W - 1)])
    h = store.handle()
    r = h.query_gantries_within(0, 0, 10)
    assert r.ids == {1}
    hit = r.hits[0]
    assert hit.kind == "gantry" and hit.basis == "distance" and hit.position == (5, 5)
    assert h.query_gantries_within(W - 1, W - 1, 0).ids == {2}
    assert h.query_gantries_within(W // 2, W // 2, 10).ids == set()


def test_duplicate_gantry_id_rejected():
    store = fresh()
    committed(store, lambda s: s.insert_gantry(1, 5, 5))
    s = store.begin()
    before = store.device.programs
    with pytest.raises(ConflictError):
        s.insert_gantry(1, 100, 100)
    assert store.device.programs == before and not s.pending
    s.rollback()


def test_gantry_position_must_be_in_world():
    s = fresh().begin()
    with pytest.raises(DomainError):
        s.insert_gantry(1, W, 0)
    with pytest.raises(DomainError):
        s.insert_gantry(1, -1, 0)
    with pytest.raises(DomainError):
        s.insert_gantry(1 << 32, 5, 5)


def test_bucket_split_at_threshold():
    """The ninth point in one cell (threshold 8) forces a split."""
    store = fresh(BuildParams(leaf_split_threshold=8))
    # nine points in the same level-1 cell (width ~222 km), several level-2 cells
    pts = [(k, 1000 + 20_000 * k, 1000) for k in range(9)]

    def load8(s):
        for gid, x, y in pts[:8]:
            s.insert_gantry(gid, x, y)

    committed(store, load8)
    assert store.handle().stats().index_pages == 2  # root + one leaf page
    assert store.handle().stats().max_depth == 1
    committed(store, lambda s: s.insert_gantry(*pts[8]))
    st = store.handle().stats()
    assert st.max_depth == 2  # the split pushed records one level down
    assert st.objects == 9
    h = store.handle()
    assert h.query_gantries_within(1000, 1000, 0).ids == {0}
    assert h.query_gantries_within(100_000, 10_000, 300_000).ids == set(range(9))


def test_coincident_points_stop_splitting_at_max_depth():
    store = fresh(BuildParams(leaf_split_threshold=2, max_depth=3))
    committed(store, lambda s: [s.insert_gantry(k, 777, 777) for k in range(10)])
    st = store.handle().stats()
    assert st.objects == 10
    assert st.max_depth == 3  # ten coincident points cannot split further
    assert store.handle().query_gantries_within(777, 777, 0).ids == set(range(10))


def test_leaf_cells_reach_level_six():
    """Leaves below level-5 nodes: queries, zones, stats and verify all work."""
    store = fresh(BuildParams(leaf_split_threshold=1, max_depth=6, zone_max_depth=6))
    pts = [(1, 1_234_567, 987_654), (2, 1_234_570, 987_654), (3, 1_234_567, 987_661)]
    square = ((1_234_560, 987_650), (1_234_575, 987_650), (1_234_575, 987_665), (1_234_560, 987_665))
    committed(store, lambda s: [s.insert_gantry(*p) for p in pts] + [s.insert_zone(9, square)])
    h = store.handle()
    st = h.stats()
    assert (st.objects, st.max_depth) == (4, 6)
    assert store.verify()["ok"]
    assert h.query_gantries_within(1_234_567, 987_654, 3).ids == {1, 2}
    assert h.query_gantries_within(1_234_567, 987_654, 7).ids == {1, 2, 3}
    assert h.query_zones_at(1_234_566, 987_655).ids == {9}
    assert h.query_zones_at(1_234_576, 987_655).ids == set()
    committed(store, lambda s: s.delete(2))
    assert store.handle().query_gantries_within(1_234_567, 987_654, 7).ids == {1, 3}


def test_walk_rejects_child_entry_in_level_five_node():
    """No node sits below level 5, so a child entry there is damage."""
    from flashquad.codec import encode_node, make_child
    from flashquad.tree import walk_version

    pages = {}
    for level in range(6):
        entries = [0xFFFFFF] * 81
        entries[40] = make_child(100 + level + 1)  # the level-5 node points at page 106
        pages[100 + level] = encode_node(level, entries)
    pages[106] = encode_node(5)
    rep = walk_version(pages.__getitem__, 100)
    assert rep.problems == ["node 105 at level 5 has a child entry"]


# -- zones -----------------------------------------------------------------------


SQUARE = ((300_000, 300_000), (900_000, 300_000), (900_000, 900_000), (300_000, 900_000))
CIRCLE_40 = tuple(  # 40 vertices: a zone object over two pages
    (int(1_000_000 + 400_000 * math.cos(math.pi * k / 20)), int(1_000_000 + 400_000 * math.sin(math.pi * k / 20)))
    for k in range(40)
)


def test_zone_queries_and_bases():
    store = fresh()
    committed(store, lambda s: s.insert_zone(50, SQUARE))
    h = store.handle()
    mid = h.query_zones_at(600_000, 600_000)
    assert mid.ids == {50}
    assert mid.hits[0].kind == "zone"
    assert h.query_zones_at(300_000, 300_000).ids == {50}  # boundary counts
    assert h.query_zones_at(299_999, 300_000).ids == set()
    assert h.query_zones_at(5, 5).ids == set()


def test_world_covering_zone_sits_at_root():
    store = fresh()
    big = ((-W, -W), (3 * W, -W), (3 * W, 3 * W), (-W, 3 * W))
    committed(store, lambda s: s.insert_zone(7, big))
    st = store.handle().stats()
    assert st.zone_inside == 1 and st.zone_edge == 0
    assert st.max_depth == 0  # the record hangs off the root's own cell
    r = store.handle().query_zones_at(123, 456)
    assert r.ids == {7} and r.hits[0].basis == "inside-entry"


def test_zone_outside_world_rejected():
    s = fresh().begin()
    far = ((-900, -900), (-500, -900), (-500, -500), (-900, -500))
    with pytest.raises(DomainError):
        s.insert_zone(1, far)
    with pytest.raises(DomainError):
        s.insert_zone(1, ((0, 0), (10, 0)))  # not a polygon


def test_zone_records_split_inside_vs_edge():
    store = fresh()
    committed(store, lambda s: s.insert_zone(3, SQUARE))
    st = store.handle().stats()
    assert st.zone_inside > 0  # cells wholly covered by the square
    assert st.zone_edge > 0  # cells crossed by its boundary
    assert st.max_depth == store.params.zone_max_depth
    h = store.handle()
    inside = h.query_zones_at(600_000, 600_000)
    assert inside.hits[0].basis == "inside-entry"


def test_zone_edge_cells_use_point_test():
    store = fresh()
    committed(store, lambda s: s.insert_zone(3, SQUARE))
    h = store.handle()
    # points in the same boundary cell, one in, one out
    r_in = h.query_zones_at(300_001, 300_001)
    assert r_in.ids == {3} and r_in.hits[0].basis == "edge-test"
    assert h.query_zones_at(299_000, 299_000).ids == set()


def test_zone_max_depth_zero_attaches_at_root():
    store = fresh(BuildParams(zone_max_depth=0))
    committed(store, lambda s: s.insert_zone(9, SQUARE))
    st = store.handle().stats()
    assert st.max_depth == 0
    assert st.zone_edge == 1  # one edge record for the whole world cell
    assert store.handle().query_zones_at(600_000, 600_000).ids == {9}
    assert store.handle().query_zones_at(5, 5).ids == set()


def test_overlapping_zones_both_reported():
    store = fresh()
    other = ((500_000, 500_000), (1_200_000, 500_000), (1_200_000, 1_200_000), (500_000, 1_200_000))
    committed(store, lambda s: [s.insert_zone(1, SQUARE), s.insert_zone(2, other)])
    h = store.handle()
    assert h.query_zones_at(700_000, 700_000).ids == {1, 2}
    assert h.query_zones_at(400_000, 400_000).ids == {1}
    assert h.query_zones_at(1_100_000, 1_100_000).ids == {2}


RING_CX, RING_CY, RING_R = 1_000_000, 1_000_000, 400_000
RING = tuple(  # 40 vertices: a head page and a continuation page
    (int(RING_CX + RING_R * math.cos(2 * math.pi * k / 40)), int(RING_CY + RING_R * math.sin(2 * math.pi * k / 40)))
    for k in range(40)
)


def test_zone_with_many_vertices_chains_pages():
    store = fresh()
    cx, cy, r, verts = RING_CX, RING_CY, RING_R, RING
    committed(store, lambda s: s.insert_zone(77, verts))  # 40 verts -> 2 object pages
    h = store.handle()
    assert h.query_zones_at(cx, cy).ids == {77}
    assert h.query_zones_at(cx + r + 2, cy).ids == set()
    rep = h.walk()
    assert len(rep.object_pages) == 2


# -- deletion ----------------------------------------------------------------------


def test_delete_gantry_and_collapse():
    store = fresh()
    committed(store, lambda s: [s.insert_gantry(1, 5, 5), s.insert_gantry(2, W - 5, 5)])
    before = store.handle().stats()
    committed(store, lambda s: s.delete(2))
    after = store.handle().stats()
    assert after.objects == 1
    assert after.used_entries < before.used_entries
    assert store.handle().query_gantries_within(W - 5, 5, 10).ids == set()
    assert store.handle().query_gantries_within(5, 5, 10).ids == {1}


def test_delete_zone_removes_all_records():
    store = fresh()
    committed(store, lambda s: [s.insert_zone(3, SQUARE), s.insert_gantry(8, 600_000, 600_000)])
    committed(store, lambda s: s.delete(3))
    st = store.handle().stats()
    assert st.objects == 1
    assert st.zone_inside == 0 and st.zone_edge == 0
    assert store.handle().query_zones_at(600_000, 600_000).ids == set()
    assert store.handle().query_gantries_within(600_000, 600_000, 10).ids == {8}


def test_delete_requires_kind_when_ambiguous():
    store = fresh()
    committed(store, lambda s: [s.insert_gantry(5, 5, 5), s.insert_zone(5, SQUARE)])
    s = store.begin()
    with pytest.raises(ConflictError):
        s.delete(5)
    s.delete(5, kind="zone")
    s.commit()
    st = store.handle().stats()
    assert st.objects == 1 and st.zone_inside == 0
    assert store.handle().query_gantries_within(5, 5, 0).ids == {5}


def test_delete_missing_raises():
    store = fresh()
    s = store.begin()
    with pytest.raises(NotFoundError):
        s.delete(42)
    s.rollback()


def test_emptied_tree_keeps_root():
    store = fresh()
    committed(store, lambda s: s.insert_gantry(1, 5, 5))
    committed(store, lambda s: s.delete(1))
    st = store.handle().stats()
    assert st.objects == 0 and st.total_pages == 1 and st.empty_entries == 81


# -- copy-on-write sharing -------------------------------------------------------


def test_unrelated_subtrees_are_shared_across_versions():
    store = fresh()
    v1 = committed(store, lambda s: [s.insert_gantry(k, 10_000 * k + 5, 5) for k in range(1, 30)])
    v2 = committed(store, lambda s: s.insert_gantry(99, W - 5, W - 5))
    r1 = store.handle(v1).reachable_pages()
    r2 = store.handle(v2).reachable_pages()
    shared = r1 & r2
    assert len(shared) > len(r1) * 0.8  # almost everything is reused
    assert store.handle(v1).root_page != store.handle(v2).root_page


def test_path_copy_programs_scale_with_depth():
    """One insert or delete in a depth-d tree rewrites d+1 node pages, no more.

    Deleting the last object of the path collapses it: only the root is
    rewritten.
    """
    for d in range(0, 5):
        params = BuildParams(leaf_split_threshold=0, max_depth=d + 1, zone_max_depth=0)
        store = fresh(params)
        box = count_kind_programs(store.device, NODE_MAGIC)
        committed(store, lambda s: s.insert_gantry(1, 5, 5))
        assert box[0] == d + 1, f"depth {d}: insert programmed {box[0]} node pages"
        committed(store, lambda s: s.insert_gantry(2, 6, 6))
        box[0] = 0
        committed(store, lambda s: s.delete(1))
        assert box[0] == d + 1, f"depth {d}: delete programmed {box[0]} node pages"
        box[0] = 0
        committed(store, lambda s: s.delete(2))
        store.device.on_program = None
        assert box[0] == 1, f"depth {d}: emptying delete programmed {box[0]} node pages"
        assert store.handle().stats().total_pages == 1


def test_an_insert_appends_to_a_leaf_that_does_not_split():
    """New records join a leaf below the split threshold without reading or rewriting its records.

    With ``zone_max_depth`` 1 every zone record sits in a level-1 leaf
    (222 km cells).  Cell A (x, y in 222..444 km) holds gantries and a
    small zone; cell B (x in 667..889 km) holds gantries and 70 small
    zones, a two-page chain.  The new zone is inside A and crosses B.
    """

    def tiny(x, y):
        return ((x, y), (x + 500, y), (x, y + 500))

    store = fresh(BuildParams(zone_max_depth=1), sectors=16)
    gantries = [(1, 300_000, 300_000), (2, 310_000, 300_000), (3, 700_000, 300_000), (4, 710_000, 310_000)]
    zones = [(100, tiny(400_000, 400_000))] + [(101 + k, tiny(680_000 + 2_000 * k, 350_000)) for k in range(70)]
    committed(store, lambda s: s.load(gantries, zones))
    zone = ((200_000, 200_000), (800_000, 200_000), (800_000, 460_000), (200_000, 460_000))
    zones.append((200, zone))

    old_objects = store.handle().walk().object_pages
    reads = []
    store.device.on_read = reads.append
    store.cache.clear()
    committed(store, lambda s: s.insert_zone(200, zone))
    assert not old_objects.intersection(reads)  # the leaves' gantries and zones are not read

    old_zones = {addr for addr, role in store.handle().walk().roles.items() if role in ("zone", "zone_cont")}
    leaves = count_kind_programs(store.device, LEAF_MAGIC)
    reads.clear()
    store.cache.clear()
    committed(store, lambda s: s.insert_gantry(5, 720_000, 320_000))
    store.device.on_read = store.device.on_program = None
    assert leaves[0] == 1  # a rebuilt chain of 74 records would take two pages
    assert not old_zones.intersection(reads)  # only the leaf's gantries are read, for the id check

    gantries.append((5, 720_000, 320_000))
    h = store.handle()
    for x, y in [(300_000, 300_000), (400_100, 400_100), (681_000, 350_100), (720_000, 320_000), (850_000, 300_000)]:
        assert h.query_zones_at(x, y).ids == {zid for zid, verts in zones if pip_oracle_one(x, y, verts)}
    assert h.query_gantries_within(705_000, 305_000, 25_000).ids == {3, 4, 5}
    assert store.verify()["ok"]


# -- integrity ----------------------------------------------------------------------


def test_walk_flags_damage():
    store = fresh()
    committed(store, lambda s: [s.insert_gantry(k, 40_000 * k + 3, 70_000 * k + 9) for k in range(1, 25)])
    h = store.handle()
    victim = sorted(a for a in h.reachable_pages() if a != h.root_page)[3]
    damaged = remount_with_page(store, victim, ERASED_PAGE)  # silently lose one page
    rep = damaged.handle().walk()
    assert rep.problems
    with pytest.raises(IntegrityError):
        damaged.handle().reachable_pages()


def remount_with_page(store, addr, page):
    """Mount a copy of the store's image in which page ``addr`` holds ``page``."""
    blob = bytearray(store.device.to_bytes())
    blob[8 + addr * PAGE_SIZE : 8 + (addr + 1) * PAGE_SIZE] = page
    return Store(FlashDevice.from_bytes(bytes(blob)))


def rewrite_leaf(store, addr, records=None, next_page=None):
    """Mount a copy whose leaf page ``addr`` holds other records or another next link."""
    old_records, old_next = leaf_list_view(store.read_page(addr))
    page = encode_leaf_list(old_records if records is None else records, old_next if next_page is None else next_page)
    return remount_with_page(store, addr, page)


def relink_zone_page(store, addr, next_page):
    """Mount a copy whose zone object page ``addr`` links to ``next_page``."""
    page = bytearray(store.read_page(addr))
    page[9:12] = next_page.to_bytes(3, "big")
    page[LEAF_CRC_OFF:] = crc16(bytes(page[:LEAF_CRC_OFF])).to_bytes(2, "big")
    return remount_with_page(store, addr, bytes(page))


def leaf_holding(store, kind):
    """(address, records) of the one leaf page of the current version holding a ``kind`` record."""
    leaves = {
        a: leaf_list_view(store.read_page(a))[0]
        for a in store.handle().reachable_pages()
        if store.read_page(a)[0] == LEAF_MAGIC
    }
    (addr,) = [a for a, records in leaves.items() if any(r.kind == kind for r in records)]
    return addr, leaves[addr]


@contextmanager
def deadline(seconds=20):
    """Fail instead of hanging (the suite has no per-test timeout)."""
    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_looping_leaf_chain_is_reported_not_followed():
    store = fresh()
    committed(store, lambda s: s.insert_gantry(1, 1000, 1000))
    leaf, _ = leaf_holding(store, KIND_POINT)
    with deadline():
        damaged = rewrite_leaf(store, leaf, next_page=leaf)  # the page names itself as next
        assert damaged.verify()["problems"] == [f"version 2: leaf chain loops at page {leaf}"]
        h = damaged.handle()
        with pytest.raises(IntegrityError, match=f"leaf chain loops at page {leaf}"):
            h.query_gantries_within(1000, 1000, 10)
        with pytest.raises(IntegrityError, match=f"leaf chain loops at page {leaf}"):
            h.query_zones_at(1000, 1000)


def test_looping_zone_page_chain_is_reported_not_followed():
    store = fresh()
    committed(store, lambda s: s.insert_zone(77, CIRCLE_40))  # two object pages
    rep = store.handle().walk()
    (head,) = rep.objects
    (cont,) = rep.object_pages - {head}
    with deadline():
        damaged = relink_zone_page(store, cont, head)  # the continuation links back to the head
        assert damaged.verify()["problems"] == [f"version 2: zone 77 page chain loops at page {head}"]
        # an inside record needs only the id on the head page; an edge record joins the pages
        assert damaged.handle().query_zones_at(1_000_000, 1_000_000).ids == {77}
        with pytest.raises(IntegrityError, match=f"zone 77 page chain loops at page {head}"):
            damaged.handle().query_zones_at(1_400_000, 1_000_000)  # a vertex: an edge cell


def test_zone_page_link_past_the_device_end_is_reported():
    store = fresh()
    committed(store, lambda s: s.insert_zone(77, CIRCLE_40))  # two object pages
    (head,) = store.handle().walk().objects
    damaged = relink_zone_page(store, head, store.total_pages + 5)  # mounts, read-only
    problem = f"zone 77 next pointer past end of device at page {head}"
    assert damaged.verify()["problems"] == [f"version 2: {problem}"]
    assert damaged.handle().query_zones_at(1_000_000, 1_000_000).ids == {77}  # inside: the head page alone
    with pytest.raises(FormatError, match=problem):
        damaged.handle().query_zones_at(1_400_000, 1_000_000)  # a vertex: an edge cell joins the pages


def test_a_continuation_page_is_named_alike_by_a_point_and_an_inside_record():
    store = fresh()
    committed(store, lambda s: s.load([(1, 1000, 1000)], [(77, CIRCLE_40)]))  # the zone takes two pages
    cont = next(a for a, role in store.handle().walk().roles.items() if role == ZONE_CONT)
    leaf, _ = leaf_holding(store, KIND_POINT)
    phrase = f"object page {cont} is a zone cont, expected"
    as_point = rewrite_leaf(store, leaf, records=[LeafRecord(KIND_POINT, cont)])  # no appendix: the page is read
    with pytest.raises(IntegrityError, match=f"^{phrase} gantry$"):
        as_point.handle().query_gantries_within(1000, 1000, 10)
    as_inside = rewrite_leaf(store, leaf, records=[LeafRecord(KIND_ZONE_INSIDE, cont)])
    with pytest.raises(IntegrityError, match=f"^{phrase} zone$"):
        as_inside.handle().query_zones_at(1000, 1000)
    for damaged in (as_point, as_inside):
        (problem,) = damaged.verify()["problems"]
        assert f"page {cont} is a zone cont, expected" in problem


def test_a_zone_head_without_vertices_is_refused_naming_the_page():
    """A package whose zone head says 0 vertices, and holds none, is refused; an image holding one is damaged."""
    store = fresh()
    replica = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    committed(store, lambda s: s.insert_zone(5, SQUARE))  # one object page
    base_v, new_v, pages, root = parse_update(store.make_update(1, 2))
    (head,) = [addr for addr, data in pages if data[0] == OBJ_MAGIC and data[1] == OBJ_ZONE]
    forged = bytearray(dict(pages)[head])
    forged[6:9] = bytes(3)  # the zone's total and the page's own count: both 0, so they agree
    forged[LEAF_CRC_OFF:] = crc16(bytes(forged[:LEAF_CRC_OFF])).to_bytes(2, "big")
    forged = bytes(forged)
    pkg = encode_update(base_v, new_v, [(a, forged if a == head else d) for a, d in pages], root)
    problem = f"zone vertex count 0 is not in 3..65535 at page {head}"
    before = replica.device.to_bytes()
    with pytest.raises(FlashQuadError, match=problem):
        replica.apply_update(pkg)
    assert replica.device.to_bytes() == before and replica.current_version == 1

    damaged = remount_with_page(store, head, forged)
    assert damaged.verify()["problems"] == [f"version 2: {problem}"]
    for x, y in ((300_000, 600_000), (600_000, 600_000)):  # an edge record and an inside record
        with pytest.raises(FormatError, match=f"^{problem}$"):
            damaged.handle().query_zones_at(x, y)
    assert damaged.handle().query_gantries_within(600_000, 600_000, 1_000).ids == frozenset()
    with pytest.raises(FlashQuadError, match=problem):
        damaged.handle().stats()
    with pytest.raises(FlashQuadError, match=problem):
        damaged.begin().delete(5)


WORLD_ZONE = ((-10, -10), (W + 10, -10), (W + 10, W + 10), (-10, W + 10))
PROBES = ((1_000, 1_000), (1_000_000, 1_000_000), (1_500_000, 400_000))


def world_zone_store():
    """A 600-gantry build plus zone 777 covering the world, whose record sits in the root's self_list."""
    store = fresh(sectors=16)
    build_database(store, *generate_dataset(4, 600, 30))
    committed(store, lambda s: s.insert_zone(777, WORLD_ZONE))
    return store


@pytest.mark.parametrize("byte, bit", [(3, 0), (4, 4)])
def test_a_flipped_self_list_is_refused_not_answered(byte, bit):
    """Each flip moves the root's self_list onto another valid leaf page; it used to pass verify."""
    store = world_zone_store()
    root = store.handle().root_page
    page = bytearray(store.read_page(root))
    assert node_view(bytes(page)).self_list != 0xFFFFFF
    page[byte] ^= 1 << bit
    damaged = remount_with_page(store, root, bytes(page))
    problem = f"node self_list CRC mismatch at page {root}"
    assert damaged.verify()["problems"] == [f"version 3: {problem}"]
    with pytest.raises(FormatError, match=problem):
        damaged.handle().query_zones_at(*PROBES[1])
    assert all(store.handle().query_zones_at(x, y).ids == {777} for x, y in PROBES)


@pytest.mark.parametrize("damage", ["unchecked self list", "child entry"])
def test_a_query_names_the_node_that_points_past_the_device(damage):
    """Both queries refuse a node with a word past the end of the device as ``verify`` does, naming it."""
    store = world_zone_store()
    root = store.handle().root_page
    page = store.read_page(root)
    past = store.total_pages + 5
    if damage == "unchecked self list":  # the layout written before the self_list check: no CRC to catch it
        buf = bytearray(page)
        buf[NODE_SELF_LIST_OFF : NODE_SELF_LIST_OFF + 3] = make_leaf(past).to_bytes(3, "big")
        buf[NODE_SELF_CHECK_OFF : NODE_PARAMS_OFF] = b"\xff" * 3
        page, word, idx = bytes(buf), make_leaf(past), 40
    else:  # the entry-area CRC resealed over the damaged entry
        idx = next(k for k, w in enumerate(node_view(page).entries) if w != ENTRY_EMPTY)
        page, word = node_with_entry(page, *divmod(idx, 9), make_child(past)), make_child(past)
    damaged = remount_with_page(store, root, page)
    problem = f"cell entry 0x{word:06x} addresses past end of device at page {root}"
    assert damaged.verify()["problems"] == [f"version 3: {problem}"]
    i, j = divmod(idx, 9)
    x, y = (2 * j + 1) * W // 18, (2 * i + 1) * W // 18  # in the damaged entry's cell: the descent meets it
    for query in (lambda h: h.query_zones_at(x, y), lambda h: h.query_gantries_within(x, y, 1_000)):
        with pytest.raises(FormatError) as err:
            query(damaged.handle())
        assert str(err.value) == problem


def test_an_image_without_self_list_checks_mounts_and_answers_alike():
    """Nodes written before the self_list check leave its bytes erased; they are read unchecked."""
    store = world_zone_store()
    blob = bytearray(store.device.to_bytes())
    unchecked = 0
    for addr in range(32, store.total_pages):  # past the version directory
        off = 8 + addr * PAGE_SIZE
        if blob[off] == NODE_MAGIC and blob[off + NODE_SELF_CHECK_OFF] == SELF_CHECKED:
            blob[off + NODE_SELF_CHECK_OFF : off + NODE_PARAMS_OFF] = b"\xff" * 3
            unchecked += 1
    assert unchecked
    old = Store(FlashDevice.from_bytes(bytes(blob)))
    assert old.verify()["ok"]
    assert old.handle().stats() == store.handle().stats()
    for x, y in PROBES:
        assert old.handle().query_zones_at(x, y).ids == store.handle().query_zones_at(x, y).ids
        assert old.handle().query_gantries_within(x, y, 90_000).ids == store.handle().query_gantries_within(
            x, y, 90_000
        ).ids


def test_zone_record_naming_a_gantry_page_is_refused():
    store = fresh()
    committed(store, lambda s: s.insert_gantry(1, 1000, 1000))
    leaf, records = leaf_holding(store, KIND_POINT)
    gantry = records[0].object_page
    damaged = rewrite_leaf(store, leaf, records=[LeafRecord(KIND_ZONE_EDGE, gantry)])
    with pytest.raises(IntegrityError, match=f"object page {gantry} is a gantry, expected zone"):
        damaged.handle().query_zones_at(1000, 1000)


def test_point_record_naming_a_zone_page_is_refused():
    store = fresh()
    committed(store, lambda s: [s.insert_gantry(1, 1000, 1000), s.insert_zone(2, SQUARE)])
    leaf, records = leaf_holding(store, KIND_POINT)
    (zone,) = [head for head, (kind, _) in store.handle().walk().objects.items() if kind == "zone"]
    damaged = rewrite_leaf(store, leaf, records=[LeafRecord(KIND_POINT, zone)])
    with pytest.raises(IntegrityError, match=f"object page {zone} is a zone, expected gantry"):
        damaged.handle().query_gantries_within(1000, 1000, 10)


def test_random_mixed_workload_stays_consistent():
    rng = random.Random(2026)
    store = fresh(sectors=8)
    live_g, live_z = {}, {}
    for round_no in range(12):
        s = store.begin()
        for _ in range(rng.randint(1, 12)):
            op = rng.random()
            if op < 0.55 or not live_g:
                gid = rng.randrange(10_000)
                if gid in live_g:
                    continue
                x, y = rng.randrange(W), rng.randrange(W)
                s.insert_gantry(gid, x, y)
                live_g[gid] = (x, y)
            elif op < 0.8 and live_g:
                gid = rng.choice(sorted(live_g))
                s.delete(gid, kind="gantry")
                del live_g[gid]
            else:
                zid = rng.randrange(10_000)
                if zid in live_z:
                    continue
                cx, cy = rng.randrange(W), rng.randrange(W)
                r = rng.randint(5_000, 300_000)
                verts = ((cx - r, cy - r), (cx + r, cy - r), (cx + r, cy + r), (cx - r, cy + r))
                s.insert_zone(zid, verts)
                live_z[zid] = verts
        s.commit()
        assert not store.verify()["problems"]
        h = store.handle()
        st = h.stats()
        assert st.objects == len(live_g) + len(live_z)
        x, y = rng.randrange(W), rng.randrange(W)
        got = h.query_gantries_within(x, y, 100_000).ids
        want = {g for g, (gx, gy) in live_g.items() if (gx - x) ** 2 + (gy - y) ** 2 <= 100_000**2}
        assert got == want


# -- bulk load ------------------------------------------------------------------

WORLD_COVER = ((-W, -W), (3 * W, -W), (3 * W, 3 * W), (-W, 3 * W))  # inside at the top cell


def random_objects(rng, n_gantries, n_zones, first_id=1, near=()):
    """Gantries ``(id, x, y)`` clustered round a few centres, so small thresholds split deep,
    and small zones ``(id, vertices)`` that meet the world.  Centres are random, or drawn
    from ``near`` (points inside the world) when it is given."""
    centres = rng.sample(near, min(len(near), 4)) if near else [(rng.randrange(W), rng.randrange(W)) for _ in range(3)]
    gantries = []
    for gid in range(first_id, first_id + n_gantries):
        cx, cy = rng.choice(centres)
        spread = rng.choice([0, 300, 30_000, 600_000])
        x = min(max(cx + rng.randint(-spread, spread), 0), W - 1)
        y = min(max(cy + rng.randint(-spread, spread), 0), W - 1)
        gantries.append((gid, x, y))
    zones = []
    while len(zones) < n_zones:
        verts = random_simple_polygon(rng, max_verts=8, radius_max=40_000)
        if classify_cell(TOP_CELL, verts) != CellClass.OUTSIDE:
            zones.append((first_id + len(zones), verts))
    return gantries, zones


def insert_each(session, gantries, zones):
    for gid, x, y in gantries:
        session.insert_gantry(gid, x, y)
    for zid, verts in zones:
        session.insert_zone(zid, verts)


def assert_same_trees(a, b, gantries, zones, rng):
    """Both stores' current versions verify, hold exactly these objects in as many
    pages, and answer point and disc queries alike and as a linear scan does."""
    ha, hb = a.handle(), b.handle()
    for store in (a, b):
        assert store.verify()["ok"]
    want = {(gid, "gantry") for gid, _, _ in gantries} | {(zid, "zone") for zid, _ in zones}
    for h in (ha, hb):
        assert {(oid, kind) for kind, oid in h.walk().objects.values()} == want
    assert len(ha.reachable_pages()) == len(hb.reachable_pages())
    probes = [(x, y) for _, x, y in gantries] + [(rng.randrange(W), rng.randrange(W)) for _ in range(20)]
    probes += [(min(max(x, 0), W - 1), min(max(y, 0), W - 1)) for _, verts in zones for x, y in verts[:2]]
    for x, y in probes:
        zones_at = ha.query_zones_at(x, y).ids
        assert zones_at == hb.query_zones_at(x, y).ids
        assert zones_at == {zid for zid, verts in zones if pip_oracle_one(x, y, verts)}
        r = rng.choice([0, 500, 50_000])
        near = ha.query_gantries_within(x, y, r).ids
        assert near == hb.query_gantries_within(x, y, r).ids
        assert near == {gid for gid, gx, gy in gantries if (gx - x) ** 2 + (gy - y) ** 2 <= r * r}


PARAMS = hs.builds(
    lambda t, md, zd, dedup: BuildParams(t, md, min(zd, md), dedup),
    hs.sampled_from([0, 1, 2, 3, 8]),
    hs.integers(0, 6),
    hs.integers(0, 3),
    hs.booleans(),
)


@given(seed=hs.integers(0, 2**32 - 1), params=PARAMS, world_cover=hs.booleans())
@settings(max_examples=150, deadline=None)
def test_load_agrees_with_the_insert_loop(seed, params, world_cover):
    """``load`` builds what one insert per object builds, onto an empty base and onto a loaded one."""
    rng = random.Random(seed)
    first = random_objects(rng, rng.randint(1, 24), rng.randint(0, 4))
    if world_cover:
        first[1].append((50, WORLD_COVER))
    # the second batch lands in the first one's leaves: at its gantries and its zones' corners
    near = [(x, y) for _, x, y in first[0]] + [
        (min(max(x, 0), W - 1), min(max(y, 0), W - 1)) for _, verts in first[1] for x, y in verts[:3]
    ]
    second = random_objects(rng, rng.randint(1, 12), rng.randint(0, 3), first_id=100, near=near)

    loaded, looped = fresh(params, sectors=16), fresh(params, sectors=16)
    committed(loaded, lambda s: s.load(*first))
    committed(looped, lambda s: insert_each(s, *first))
    assert_same_trees(loaded, looped, *first, rng)

    inserted = Store(FlashDevice.from_bytes(loaded.device.to_bytes()))
    committed(inserted, lambda s: insert_each(s, *second))
    committed(loaded, lambda s: s.load(*second))
    committed(looped, lambda s: s.load(*second))
    both = (first[0] + second[0], first[1] + second[1])
    assert_same_trees(loaded, inserted, *both, rng)
    assert_same_trees(loaded, looped, *both, rng)


def test_load_onto_an_empty_base_programs_each_page_of_the_tree_once():
    gantries, zones = random_objects(random.Random(5), 60, 6)
    zones.append((99, WORLD_COVER))
    store = fresh(BuildParams(leaf_split_threshold=2), sectors=16)
    before = store.device.programs
    committed(store, lambda s: s.load(gantries, zones))
    # the pages of the new version, plus its version record
    assert store.device.programs - before == len(store.handle().reachable_pages()) + 1
    assert store.handle().stats().objects == len(gantries) + len(zones)


BOWTIE = ((0, 0), (10_000, 10_000), (0, 10_000), (10_000, 0))
OFF_WORLD = ((-90_000, -90_000), (-50_000, -90_000), (-50_000, -50_000))
OTHER_SQUARE = tuple((x + 50_000, y) for x, y in SQUARE)


@pytest.mark.parametrize(
    "gantries, zones, error",
    [
        ([(1, 5, 5), (2, W, 5)], [], DomainError),
        ([(1, 5, 5), (1 << 32, 6, 6)], [], DomainError),
        ([(1, 5, 5)], [(1, SQUARE), (2, BOWTIE)], DomainError),
        ([(1, 5, 5)], [(1, SQUARE), (2, OFF_WORLD)], DomainError),
        ([(1, 5, 5)], [(-1, SQUARE)], DomainError),
        ([(1, 5, 5), (2, 6, 6), (1, 7, 7)], [], ConflictError),
        ([(1, 5, 5)], [(1, SQUARE), (1, OTHER_SQUARE)], ConflictError),
    ],
    ids=["gantry-off-world", "id-past-u32", "crossing-polygon", "zone-off-world", "negative-id",
         "gantry-id-twice", "zone-id-twice"],
)
def test_bad_load_input_raises_before_any_program(gantries, zones, error):
    store = fresh()
    committed(store, lambda s: s.insert_gantry(7, 100_000, 100_000))
    s = store.begin()
    before = store.device.programs
    with pytest.raises(error):
        s.load(gantries, zones)
    assert store.device.programs == before
    s.rollback()
    assert store.current_version == 2
    committed(store, lambda s: s.load([(8, 5, 5)], [(8, SQUARE)]))  # a gantry and a zone may share an id
    assert store.handle().stats().objects == 3


@pytest.mark.parametrize(
    "gantries, zones, message",
    [
        ([(8, 1_500_000, 1_500_000), (7, 10, 10)], [], "gantry id 7 already present"),
        ([(7, 1_500_000, 1_500_000)], [], "gantry id 7 already present"),
        ([], [(51, OTHER_SQUARE), (50, OTHER_SQUARE)], "zone id 50 already present"),
    ],
    ids=["gantry-same-leaf", "gantry-far-leaf", "zone"],
)
def test_load_refuses_an_id_already_present(gantries, zones, message):
    """An id of its kind anywhere in the session's tree is refused before any program."""
    store = fresh()
    committed(store, lambda s: s.load([(7, 5, 5)], [(50, SQUARE)]))
    s = store.begin()
    before = store.device.programs
    with pytest.raises(ConflictError, match=message):
        s.load(gantries, zones)
    assert store.device.programs == before and not s.pending
    s.rollback()
    assert store.current_version == 2 and store.handle().stats().objects == 2


def test_delete_removes_every_head_of_an_id_held_twice():
    """An image written before ids were refused tree-wide may hold one gantry id twice."""
    store = fresh()
    s = store.begin()
    s.insert_gantry(7, 5, 5)
    s.root, _ = s._editor.load(s.root, [(7, 1_500_000, 1_500_000)], [])  # past the session's check
    s.commit()
    assert len(store._refs.objects[7]) == 2
    committed(store, lambda s: s.delete(7))
    h = store.handle()
    assert h.stats().objects == 0 and h.stats().total_pages == 1
    assert store.verify()["ok"]


def test_load_takes_an_id_deleted_in_the_session_or_held_by_the_other_kind():
    store = fresh()
    committed(store, lambda s: s.load([(7, 5, 5)], [(50, SQUARE)]))
    s = store.begin()
    s.delete(7)
    s.delete(50)
    s.load([(7, 1_500_000, 1_500_000), (50, 5, 5)], [(50, OTHER_SQUARE), (7, SQUARE)])
    s.commit()
    h = store.handle()
    assert h.stats().objects == 4 and store.verify()["ok"]
    assert h.query_gantries_within(5, 5, 0).ids == {50}
    assert h.query_gantries_within(1_500_000, 1_500_000, 0).ids == {7}
    assert h.query_zones_at(320_000, 600_000).ids == {7}
    assert h.query_zones_at(920_000, 600_000).ids == {50}


def test_splitting_a_cell_inside_a_zone_reads_no_zone_page():
    """An inside record carries no vertices, so a leaf that splits under it leaves its zone unread.

    The ring's level-1 cell round its centre (889..1111 km) is wholly
    inside it: a one-record leaf, which twelve gantries split.
    """
    store = fresh()
    committed(store, lambda s: s.insert_zone(1, RING))
    zone_pages = {addr for addr, role in store.handle().walk().roles.items() if role in ("zone", "zone_cont")}
    assert len(zone_pages) == 2
    nodes = len(store.handle().walk().nodes)
    gantries = [(10 + k, 900_000 + 15_000 * k, 1_000_000 + 7_000 * k) for k in range(12)]
    reads = []
    store.device.on_read = reads.append
    store.cache.clear()
    committed(store, lambda s: s.load(gantries, []))
    store.device.on_read = None
    assert not zone_pages.intersection(reads)
    h = store.handle()
    assert len(h.walk().nodes) > nodes  # the cell split into a node
    for gid, x, y in gantries:
        assert h.query_zones_at(x, y).ids == {1}
        assert h.query_gantries_within(x, y, 0).ids == {gid}
    assert store.verify()["ok"]


@pytest.mark.parametrize("dedup", [True, False])
def test_a_zone_load_encodes_each_leaf_page_once(monkeypatch, dedup):
    """A load encodes each distinct leaf page once; with dedup off every chain is still its own page."""
    encoded = []
    monkeypatch.setattr(tree, "encode_leaf_list", lambda *fields: encoded.append(fields) or encode_leaf_list(*fields))
    store = fresh(BuildParams(zone_max_depth=2, dedup=dedup), sectors=8)
    leaves = count_kind_programs(store.device, LEAF_MAGIC)
    committed(store, lambda s: s.load([], [(1, RING), (2, SQUARE), (3, OTHER_SQUARE)]))
    store.device.on_program = None
    st = store.handle().stats()
    assert st.leaf_pages > st.distinct_leaf_pages  # the zones' cells repeat leaf pages
    if dedup:
        assert len(encoded) == leaves[0] == st.distinct_leaf_pages
    else:
        assert leaves[0] == st.leaf_pages


def test_a_session_reloads_a_zone_onto_pruned_and_reused_pages():
    """Loads, deletes and reloads of one zone in one session, on a part the session overfills."""
    store = fresh(sectors=1)
    s = store.begin()
    s.load([], [(1, RING)])
    for _ in range(2):
        s.delete(1)
        s.load([], [(1, RING)])
    s.commit()
    assert store.device.erases > 0  # staged pages were pruned, erased and programmed again
    assert store.verify()["ok"]
    h = store.handle()
    rng = random.Random(3)
    for x, y in [(RING_CX, RING_CY), *RING[:8], *((rng.randrange(W), rng.randrange(W)) for _ in range(40))]:
        assert h.query_zones_at(x, y).ids == ({1} if pip_oracle_one(x, y, RING) else set())




# -- gantry coordinates in leaf pages ----------------------------------------------


def linear_gantries(gantries, x, y, r):
    return {gid for gid, gx, gy in gantries if (gx - x) ** 2 + (gy - y) ** 2 <= r * r}


def linear_zones(zones, x, y):
    return {zid for zid, verts in zones if pip_oracle_one(x, y, verts)}


def dataset_store(seed=4, n_gantries=600, n_zones=30):
    """A built store and its objects as (id, x, y) and (id, vertices) tuples."""
    gantries, zones = generate_dataset(seed, n_gantries, n_zones)
    store = fresh(sectors=16)
    build_database(store, gantries, zones)
    return store, [(g.gantry_id, g.x, g.y) for g in gantries], [(z.zone_id, z.vertices) for z in zones]


def disc_probes(gantries, n=60, seed=3):
    """Disc centres: near gantries (hits) and anywhere (mostly misses)."""
    rng = random.Random(seed)
    near = [(x + rng.randint(-3_000, 3_000), y + rng.randint(-3_000, 3_000)) for _, x, y in rng.sample(gantries, n // 2)]
    return [(min(max(x, 0), W - 1), min(max(y, 0), W - 1)) for x, y in near] + [
        (rng.randrange(W), rng.randrange(W)) for _ in range(n - n // 2)
    ]


def gantry_pages(device):
    """Every gantry object page on the device, from its first two bytes."""
    blob = device.to_bytes()
    return {
        a
        for a in range(device.geometry.total_pages)
        if blob[8 + a * PAGE_SIZE] == OBJ_MAGIC and blob[9 + a * PAGE_SIZE] == OBJ_GANTRY
    }


def has_point(page):
    return page[0] == LEAF_MAGIC and any(page[5 + 4 * k] == KIND_POINT for k in range(page[1]))


def test_a_cold_disc_query_reads_no_gantry_object_page():
    store, gantries, _ = dataset_store()
    objects = gantry_pages(store.device)
    assert len(objects) == len(gantries)
    reads = []
    store.device.on_read = reads.append
    hits = 0
    for x, y in disc_probes(gantries):
        store.cache.clear()
        reads.clear()
        res = store.handle().query_gantries_within(x, y, 20_000)
        assert res.ids == linear_gantries(gantries, x, y, 20_000)
        assert reads and not objects.intersection(reads), (x, y)
        hits += len(res.ids)
    store.device.on_read = None
    assert hits > 30


def legacy_image(store):
    """A copy of the store's device whose leaf pages have the layout written before the coordinates appendix.

    The appendix bytes and the flag go back to 0xFF and the CRC is recomputed.
    """
    blob = bytearray(store.device.to_bytes())
    rewritten = 0
    for addr in range(32, store.total_pages):  # past the version directory
        off = 8 + addr * PAGE_SIZE
        if blob[off] == LEAF_MAGIC and blob[off + LEAF_COORDS_FLAG_OFF] == LEAF_COORDS:
            end = off + 5 + 4 * blob[off + 1]
            blob[end : off + LEAF_CRC_OFF] = b"\xff" * (off + LEAF_CRC_OFF - end)
            blob[off + LEAF_CRC_OFF : off + PAGE_SIZE] = crc16(bytes(blob[off : off + LEAF_CRC_OFF])).to_bytes(2, "big")
            rewritten += 1
    assert rewritten
    return FlashDevice.from_bytes(bytes(blob))


def test_an_image_written_before_the_appendix_mounts_answers_and_is_upgraded_by_edits():
    store, gantries, zones = dataset_store()
    old = Store(legacy_image(store))
    assert old.verify()["ok"]
    assert old.handle().stats() == store.handle().stats()
    objects = gantry_pages(old.device)
    reads = []
    old.device.on_read = reads.append
    for x, y in disc_probes(gantries):
        assert old.handle().query_gantries_within(x, y, 20_000).ids == linear_gantries(gantries, x, y, 20_000)
        assert old.handle().query_zones_at(x, y).ids == linear_zones(zones, x, y)
    old.device.on_read = None
    assert objects.intersection(reads)  # gantry positions come from the object pages, as before

    before = old.handle().walk().leaf_pages
    gid, x, y = gantries[0]
    committed(old, lambda s: s.insert_gantry(9_999, x + 7, y + 3))
    gantries.append((9_999, x + 7, y + 3))
    rewritten = {a: p for a, p in old.handle().walk().leaf_pages.items() if a not in before and has_point(p)}
    assert rewritten and all(p[LEAF_COORDS_FLAG_OFF] == LEAF_COORDS for p in rewritten.values())
    assert old.verify()["ok"]
    for x, y in disc_probes(gantries, 20) + [(x, y)]:
        assert old.handle().query_gantries_within(x, y, 20_000).ids == linear_gantries(gantries, x, y, 20_000)


def test_a_leaf_of_points_and_zones_is_packed_by_bytes():
    """8 points and 40 zone records take 8 * 16 + 40 * 4 = 288 bytes: two chained pages.

    With ``zone_max_depth`` 1 every small zone has an edge record in its
    level-1 cell; all of them and the 8 gantries sit in cell (1, 1).
    """

    def tiny(x, y):
        return ((x, y), (x + 500, y), (x, y + 500))

    store = fresh(BuildParams(zone_max_depth=1), sectors=16)
    gantries = [(k + 1, 300_000 + 1_000 * k, 300_000) for k in range(8)]
    zones = [(100 + k, tiny(230_000 + 4_000 * k, 400_000)) for k in range(40)]
    committed(store, lambda s: s.load(gantries, zones))
    leaves = store.handle().walk().leaf_pages
    (full,) = [a for a, p in leaves.items() if has_point(p)]
    records, nxt = leaf_list_view(leaves[full])
    assert [r.kind for r in records] == [KIND_POINT] * 8 + [KIND_ZONE_EDGE] * 30
    assert {(r.gantry.object_id, r.gantry.x, r.gantry.y) for r in records[:8]} == set(gantries)
    assert nxt == NO_PAGE
    # the page still filling heads the chain, as one insert per object leaves it
    (head,) = [a for a, p in leaves.items() if leaf_list_view(p)[1] == full]
    assert len(leaf_list_view(leaves[head])[0]) == 10 and len(leaves) == 2

    # a further zone fits the head page: it extends it, and the chain stays two pages
    zones.append((200, tiny(400_000, 230_000)))
    committed(store, lambda s: s.insert_zone(*zones[-1]))
    h = store.handle()
    leaves = h.walk().leaf_pages
    assert len(leaves) == 2 and full in leaves
    assert sorted(len(leaf_list_view(p)[0]) for p in leaves.values()) == [11, 38]
    for x, y in [(300_000, 300_000), (304_500, 299_000), (230_100, 400_100), (386_100, 400_100), (400_100, 230_100)]:
        assert h.query_gantries_within(x, y, 2_500).ids == linear_gantries(gantries, x, y, 2_500)
        assert h.query_zones_at(x, y).ids == linear_zones(zones, x, y)
    assert store.verify()["ok"]


def test_an_inside_hit_reads_only_the_zone_head_page():
    store = fresh()
    zones = [(77, CIRCLE_40), (78, SQUARE)]
    committed(store, lambda s: s.load([(1, 1_000_000, 1_000_000)], zones))
    rep = store.handle().walk()
    head = next(a for a, (kind, zid) in rep.objects.items() if zid == 77)
    cont = next(a for a, role in rep.roles.items() if role == "zone_cont")
    reads = []
    store.device.on_read = reads.append
    store.cache.clear()
    res = store.handle().query_zones_at(1_000_000, 1_000_000)
    assert res.ids == {77} and [h.basis for h in res.hits] == ["inside-entry"]
    assert head in reads and cont not in reads
    rng = random.Random(8)
    for x, y in [(1_400_000, 1_000_000), (600_000, 600_000), (899_999, 700_000)] + [
        (rng.randrange(W), rng.randrange(W)) for _ in range(40)
    ]:
        assert store.handle().query_zones_at(x, y).ids == linear_zones(zones, x, y)
    store.device.on_read = None


def gantry_neighbours():
    """A store whose one leaf holds gantries 1 and 2, and the address of that leaf and of gantry 1's page."""
    store = fresh()
    committed(store, lambda s: s.load([(1, 1_000, 1_000), (2, 5_000, 1_000)], []))
    leaf, records = leaf_holding(store, KIND_POINT)
    (page,) = [r.object_page for r in records if r.gantry.object_id == 1]
    return store, leaf, records, page


@pytest.mark.parametrize("listed", [GantryObject(1, 1_001, 1_000), GantryObject(3, 1_000, 1_000)])
def test_an_appendix_that_disagrees_with_its_object_page_is_named(listed):
    store, leaf, records, page = gantry_neighbours()
    moved = [LeafRecord(KIND_POINT, r.object_page, listed) if r.object_page == page else r for r in records]
    damaged = rewrite_leaf(store, leaf, records=moved)
    problem = (
        f"leaf page {leaf} lists gantry {listed.object_id} at ({listed.x}, {listed.y}) for page {page}, "
        f"which holds gantry 1 at (1000, 1000)"
    )
    assert damaged.verify()["problems"] == [f"version 2: {problem}"]
    with pytest.raises(IntegrityError, match=problem.replace("(", r"\(").replace(")", r"\)")):
        damaged.begin().insert_gantry(9, 1_500_000, 1_500_000)  # the damaged version is refused


def test_an_update_whose_appendix_disagrees_is_refused_without_reading_the_gantry():
    """The leaf a package rewrites names gantry 1, which the replica already counts: no page is read for it."""
    store, _, _, page = gantry_neighbours()
    replica = Store(FlashDevice.from_bytes(store.device.to_bytes()))
    replica._ensure_counted()
    committed(store, lambda s: s.insert_gantry(3, 3_000, 1_000))
    pkg = bytearray(store.make_update(2, 3))
    count = int.from_bytes(pkg[12:16], "little")
    (at,) = [16 + 259 * k + 3 for k in range(count) if pkg[16 + 259 * k + 3] == LEAF_MAGIC]
    leaf = int.from_bytes(pkg[at - 3 : at], "big")
    records, nxt = leaf_list_view(bytes(pkg[at : at + PAGE_SIZE]))
    assert len(records) == 3
    records = [
        LeafRecord(KIND_POINT, r.object_page, GantryObject(1, 1_000, 1_002)) if r.object_page == page else r
        for r in records
    ]
    pkg[at : at + PAGE_SIZE] = encode_leaf_list(records, nxt)
    pkg[-4:] = zlib.crc32(bytes(pkg[:-4])).to_bytes(4, "little")
    reads = []
    replica.device.on_read = reads.append
    replica.cache.clear()
    with pytest.raises(IntegrityError, match=f"leaf page {leaf} lists gantry 1 at \\(1000, 1002\\) for page {page}"):
        replica.apply_update(bytes(pkg))
    assert page not in reads


# -- node references from the occupied-entry mask --------------------------------------


def reference_node_refs(page, role, addr, total_pages):
    """A node's references as ``_page_refs`` found them from the view's entry words and a ``Counter``."""
    node = node_view(page, total_pages, addr=addr)
    if node.level != role:
        raise IntegrityError(f"node {addr} has level {node.level}, expected {role}")
    refs = {} if node.self_list == ENTRY_EMPTY else {node.self_list & ADDR_MASK: LEAF}
    uses = Counter(node.entries)
    uses.pop(ENTRY_EMPTY, None)
    for word, times in uses.items():
        child = word & ADDR_MASK
        if word > ADDR_MASK:
            if refs.setdefault(child, LEAF) != LEAF:
                raise IntegrityError(f"node {addr} names page {child} as both a node and a leaf list")
        elif role >= MAX_NODE_LEVEL:
            raise IntegrityError(f"node {addr} at level {role} has a child entry")
        elif times > 1 or child in refs:
            raise IntegrityError(f"node page {child} reachable twice")
        else:
            refs[child] = role + 1
    return refs


def refs_outcome(fn, page, role, addr, total_pages):
    """What ``fn`` gives for a node page: its refs in order, or its exception's class and message."""
    try:
        return list(fn(page, role, addr, total_pages).items())
    except (FormatError, IntegrityError) as e:
        return type(e), str(e)


def node_bytes(level, entries, self_list=0xFFFFFF):
    """A node page with any entry words and self list, both checks resealed: damage only the rules see."""
    buf = bytearray(b"\xff" * PAGE_SIZE)
    buf[0], buf[1] = NODE_MAGIC, level
    for k, word in enumerate(entries):
        buf[NODE_ENTRIES_OFF + 3 * k : NODE_ENTRIES_OFF + 3 * k + 3] = word.to_bytes(3, "big")
    if self_list != 0xFFFFFF:
        word = self_list.to_bytes(3, "big")
        buf[NODE_SELF_LIST_OFF : NODE_SELF_LIST_OFF + 3] = word
        buf[NODE_SELF_CHECK_OFF] = SELF_CHECKED
        buf[NODE_SELF_CRC_OFF : NODE_SELF_CRC_OFF + 2] = crc16(word).to_bytes(2, "big")
    buf[NODE_CRC_OFF : NODE_CRC_OFF + 2] = crc16(bytes(buf[NODE_ENTRIES_OFF:])).to_bytes(2, "big")
    return bytes(buf)


def assert_refs_agree(page, role, addr=77, total_pages=4096):
    for pages in (total_pages, None):
        want = refs_outcome(reference_node_refs, page, role, addr, pages)
        assert refs_outcome(_page_refs, page, role, addr, pages) == want, (page.hex(), role, pages)


def test_node_refs_from_the_mask_agree_with_a_full_decode_on_seeded_trees():
    rng = random.Random(5)
    for seed in (1, 8):
        store = seeded_store(16, 300, 10, seed=seed)
        nodes = walk_version(store.read_page, store.handle().root_page, store.total_pages).nodes
        assert len(nodes) > 20
        for addr, level in sorted(nodes.items()):
            page = store.read_page(addr)
            assert_refs_agree(page, level, addr, store.total_pages)
            assert_refs_agree(page, level + 1, addr, store.total_pages)  # a wrong level
            assert_refs_agree(page[:-1], level, addr, store.total_pages)  # a short page
            for _ in range(8):  # single-bit flips, as read and with the entry-area check resealed
                at = rng.randrange(PAGE_SIZE)
                flipped = bytearray(page)
                flipped[at] ^= 1 << rng.randrange(8)
                assert_refs_agree(bytes(flipped), level, addr, store.total_pages)
                words = [int.from_bytes(flipped[13 + 3 * k : 16 + 3 * k], "big") for k in range(81)]
                self_list = int.from_bytes(flipped[2:5], "big")
                assert_refs_agree(node_bytes(flipped[1], words, self_list), level, addr, store.total_pages)


EMPTY, LEAF_TAG, RESERVED = 0xFFFFFF, 1 << 22, 3 << 22


@pytest.mark.parametrize(
    "level, entries, self_list",
    [
        (1, {3: RESERVED | 40}, EMPTY),  # a reserved tag
        (1, {3: 2 << 22 | 40, 9: 5000}, EMPTY),  # another, before an address past the end
        (1, {3: 40, 9: 5000}, EMPTY),  # an address >= total_pages
        (1, {3: 40, 9: LEAF_TAG | 4096}, EMPTY),  # a leaf list past the end
        (1, {3: 40, 9: 41, 20: 40}, EMPTY),  # a duplicate child
        (1, {3: 40, 9: LEAF_TAG | 40}, EMPTY),  # a page named as a child, then as a leaf list
        (1, {3: LEAF_TAG | 40, 9: 40}, EMPTY),  # ... as a leaf list, then as a child
        (1, {3: 40}, LEAF_TAG | 40),  # ... as the self list and as a child
        (1, {3: 40, 9: LEAF_TAG | 40, 20: 40}, EMPTY),  # a duplicate child is refused at its first entry
        (1, {3: 40, 9: 41, 10: LEAF_TAG | 41, 20: 40}, EMPTY),
        (1, {3: 40, 9: 41, 10: 41, 20: 40}, EMPTY),
        (1, {3: LEAF_TAG | 41, 4: 42, 9: 41, 20: 42}, EMPTY),
        (1, {3: LEAF_TAG | 40, 9: LEAF_TAG | 40, 20: 41}, LEAF_TAG | 40),  # dedup: one leaf list, many entries
        (5, {3: LEAF_TAG | 40, 9: 41}, EMPTY),  # a child entry at MAX_NODE_LEVEL
        (5, {3: LEAF_TAG | 40, 9: LEAF_TAG | 40}, EMPTY),
        (1, {3: 40}, 41),  # a self list naming a node
        (1, {3: RESERVED | 40}, 41),  # an entry's fault is found before the self list's
        (1, {3: 40}, LEAF_TAG | 5000),  # a self list past the end
        (6, {3: 40}, EMPTY),  # a level out of range
    ],
)
def test_node_refs_from_the_mask_agree_with_a_full_decode_on_damage(level, entries, self_list):
    words = [entries.get(k, EMPTY) for k in range(81)]
    page = node_bytes(level, words, self_list)
    for role in {level, 0, 5}:
        assert_refs_agree(page, role)


def test_node_refs_from_the_mask_agree_with_a_full_decode_on_random_entries():
    """Entries drawn from a few words that clash, so every rule and its order is met."""
    rng = random.Random(14)
    pool = [40, 41, 42, LEAF_TAG | 40, LEAF_TAG | 41, LEAF_TAG | 43, LEAF_TAG | 44, 5000, RESERVED | 42]
    for _ in range(3000):
        words = [EMPTY] * 81
        for k in rng.sample(range(81), rng.randint(0, 6)):
            words[k] = rng.choice(pool[:7] if rng.random() < 0.8 else pool)
        self_list = rng.choice([EMPTY, EMPTY, LEAF_TAG | 40, LEAF_TAG | 43, 41])
        level = rng.choice([0, 1, 4, 5])
        page = node_bytes(level, words, self_list)
        assert_refs_agree(page, level)
        assert_refs_agree(page, rng.choice([0, 1, 4, 5]))
