"""Page codec round-trips, checksum coverage, and version-slot lifecycle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashquad import codec
from flashquad.codec import (
    ENTRY_EMPTY,
    GANTRY,
    LEAF_CAPACITY,
    NO_PAGE,
    NODE_ENTRY_AREA,
    PAGE_SIZE,
    BuildParams,
    ZONE,
    ZONE_CONT,
    GantryObject,
    LeafRecord,
    VersionRecord,
    ZoneObject,
    decode_version_slot,
    directory_page_with,
    directory_slots,
    encode_gantry,
    encode_leaf_list,
    encode_node,
    encode_version_record,
    encode_zone,
    entry_addr,
    entry_is_child,
    entry_is_leaf,
    leaf_list_view,
    make_child,
    make_leaf,
    node_view,
    node_with_entry,
    object_view,
    page_kind,
    revoke_directory_slot,
    zone_page_count,
)
from flashquad.errors import DomainError, FormatError

addr_st = st.integers(min_value=0, max_value=(1 << 22) - 1)


# -- entries -----------------------------------------------------------------


def test_entry_tags():
    assert entry_is_child(make_child(5)) and not entry_is_leaf(make_child(5))
    assert entry_is_leaf(make_leaf(5)) and not entry_is_child(make_leaf(5))
    assert not entry_is_child(ENTRY_EMPTY) and not entry_is_leaf(ENTRY_EMPTY)
    assert entry_addr(make_child(12345)) == 12345
    assert entry_addr(make_leaf(12345)) == 12345
    with pytest.raises(FormatError):
        make_child(1 << 22)
    with pytest.raises(FormatError):
        codec.check_entry(0x800000)  # reserved tag 10


# -- node pages ---------------------------------------------------------------


def test_node_payload_is_243_bytes():
    assert NODE_ENTRY_AREA == 243
    assert codec.NODE_ENTRIES_OFF + NODE_ENTRY_AREA == PAGE_SIZE


def test_node_round_trip_every_position():
    for pos in range(81):
        entries = [ENTRY_EMPTY] * 81
        entries[pos] = make_child(100 + pos)
        back = node_view(encode_node(pos % 6, entries, make_leaf(7)))
        assert back.level == pos % 6
        assert back.entries == tuple(entries)
        assert back.self_list == make_leaf(7)
        assert back.occupied == 1 << pos


def test_node_fields_round_trip_through_the_view():
    entries = [make_leaf(n) if n % 3 else ENTRY_EMPTY for n in range(81)]
    params = BuildParams(leaf_split_threshold=3)
    page = encode_node(2, entries, params=params)
    view = node_view(page)
    assert view.page is page and view.level == 2 and view.self_list == ENTRY_EMPTY and view.params == params
    for pos in range(81):
        assert view.entries[pos] == entries[pos]
        assert (view.occupied >> pos & 1) == (entries[pos] != ENTRY_EMPTY)
    assert encode_node(view.level, view.entries, view.self_list, view.params) == page


def test_node_with_entry_rebuilds_crc():
    page = encode_node(0)
    out = node_with_entry(page, 4, 7, make_child(99))
    back = node_view(out)  # the view revalidates the CRC
    assert back.entries[9 * 4 + 7] == make_child(99)
    assert sum(1 for w in back.entries if w != ENTRY_EMPTY) == 1


def test_node_crc_catches_entry_damage():
    page = bytearray(encode_node(1, [make_child(3)] + [ENTRY_EMPTY] * 80))
    page[codec.NODE_ENTRIES_OFF] ^= 0x01
    with pytest.raises(FormatError):
        node_view(bytes(page))


def test_node_self_list_outside_crc():
    """self_list can be rewritten without touching the entry-area CRC."""
    page = bytearray(encode_node(0))
    page[codec.NODE_SELF_LIST_OFF : codec.NODE_SELF_LIST_OFF + 3] = make_leaf(42).to_bytes(3, "big")
    back = node_view(bytes(page))
    assert back.self_list == make_leaf(42)


def test_node_self_list_damage_names_the_page():
    """Every single-bit flip of a node's self_list word or its check fails, naming the page."""
    for self_list in (ENTRY_EMPTY, make_leaf(42)):
        clean = encode_node(1, self_list=self_list)
        for offset in range(codec.NODE_SELF_LIST_OFF, codec.NODE_PARAMS_OFF):
            if self_list == ENTRY_EMPTY and offset >= codec.NODE_SELF_CRC_OFF:
                continue  # no check is stored for an empty self_list, so these bytes are unused
            for bit in range(8):
                page = bytearray(clean)
                page[offset] ^= 1 << bit
                with pytest.raises(FormatError, match=r"at page 77$"):
                    node_view(bytes(page), total_pages=500, addr=77)


def test_node_self_list_check_is_written_and_optional():
    page = encode_node(0, self_list=make_leaf(42))
    assert page[codec.NODE_SELF_CHECK_OFF] == codec.SELF_CHECKED
    assert page[codec.NODE_PARAMS_OFF : codec.NODE_CRC_OFF] == b"\xff" * 3  # the default parameters
    assert encode_node(0)[codec.NODE_SELF_CHECK_OFF : codec.NODE_CRC_OFF] == b"\xff" * 6
    # a node written before the check (reserved bytes erased) still decodes, unchecked
    old = bytearray(page)
    old[codec.NODE_SELF_CHECK_OFF : codec.NODE_PARAMS_OFF] = b"\xff" * 3
    assert node_view(bytes(old)).self_list == make_leaf(42)


def test_a_root_stores_its_parameters_and_every_flip_of_them_is_refused():
    """Bytes 8..10 hold a root's ``BuildParams``: the defaults as 0xFF, others with a check byte.
    No single-bit flip of either reads back as other parameters or as the defaults."""
    shaped = BuildParams(leaf_split_threshold=2, max_depth=3, zone_max_depth=1, dedup=False)
    for params in (BuildParams(0, 0, 0), BuildParams(254, 6, 6, False), BuildParams(8, 5, 3, False), shaped):
        page = encode_node(0, params=params)
        assert node_view(page).params == params
    assert encode_node(0, params=BuildParams())[codec.NODE_PARAMS_OFF : codec.NODE_CRC_OFF] == b"\xff" * 3
    for params in (shaped, BuildParams()):
        clean = encode_node(0, self_list=make_leaf(42), params=params)
        for offset in range(codec.NODE_PARAMS_OFF, codec.NODE_CRC_OFF):
            for bit in range(8):
                page = bytearray(clean)
                page[offset] ^= 1 << bit
                with pytest.raises(FormatError, match=r"node parameters 0x\w{6} refused: .* at page 77$"):
                    node_view(bytes(page), total_pages=500, addr=77)
    with pytest.raises(DomainError, match="leaf_split_threshold"):
        BuildParams(leaf_split_threshold=255)


def test_node_rejects_bad_level_and_magic():
    with pytest.raises(FormatError):
        encode_node(6)
    page = bytearray(encode_node(0))
    page[0] = 0x4C
    with pytest.raises(FormatError):
        node_view(bytes(page))


def test_node_entry_beyond_device_rejected():
    page = encode_node(0, [make_child(500)] + [ENTRY_EMPTY] * 80)
    with pytest.raises(FormatError):
        node_view(page, total_pages=500)
    node_view(page, total_pages=501)


@given(
    level=st.integers(0, 5),
    words=st.lists(
        st.one_of(st.just(ENTRY_EMPTY), addr_st.map(make_child), addr_st.map(make_leaf)),
        min_size=81,
        max_size=81,
    ),
    self_list=st.one_of(st.just(ENTRY_EMPTY), addr_st.map(make_leaf)),
)
@settings(max_examples=80, deadline=None)
def test_node_round_trip_property(level, words, self_list):
    back = node_view(encode_node(level, words, self_list))
    assert (back.level, back.entries, back.self_list) == (level, tuple(words), self_list)


# -- leaf lists ----------------------------------------------------------------


def test_leaf_capacity_is_62():
    assert LEAF_CAPACITY == 62
    records = [LeafRecord(k % 3, 1000 + k) for k in range(62)]
    page = encode_leaf_list(records, next=77)
    assert leaf_list_view(page) == (tuple(records), 77)
    with pytest.raises(FormatError):
        encode_leaf_list(records + [LeafRecord(0, 1)])


def _with_crc(page: bytearray) -> bytes:
    page[codec.LEAF_CRC_OFF :] = codec.crc16(bytes(page[: codec.LEAF_CRC_OFF])).to_bytes(2, "big")
    return bytes(page)


def test_leaf_coordinates_appendix_round_trips():
    records = [
        LeafRecord(1, 40),
        LeafRecord(0, 41, GantryObject(7, -5, 1_999_999)),
        LeafRecord(2, 42),
        LeafRecord(0, 43, GantryObject(2**32 - 1, 0, -(2**31))),
    ]
    page = encode_leaf_list(records, next=9)
    assert page[codec.LEAF_COORDS_FLAG_OFF] == codec.LEAF_COORDS
    assert page[1] == 4 and page[5 + 4 * 3] == 0 and page[6 + 4 * 3 : 9 + 4 * 3] == (43).to_bytes(3, "big")
    assert page[21:33] == (7).to_bytes(4, "big") + (-5).to_bytes(4, "big", signed=True) + (1_999_999).to_bytes(4, "big")
    assert leaf_list_view(page) == (tuple(records), 9)
    # without coordinates (the layout written before the appendix) and with no point record: byte 253 stays 0xFF
    legacy = [LeafRecord(r.kind, r.object_page) for r in records]
    for plain in (legacy, [LeafRecord(1, 40), LeafRecord(2, 42)]):
        page = encode_leaf_list(plain)
        assert page[codec.LEAF_COORDS_FLAG_OFF] == 0xFF and page[5 + 4 * len(plain) : 253] == b"\xff" * (248 - 4 * len(plain))
        assert leaf_list_view(page) == (tuple(plain), NO_PAGE)
    with pytest.raises(FormatError, match="all its point records or of none"):
        encode_leaf_list([records[1], legacy[3]])
    # 4 bytes a record, 12 more a point: 15 points and 2 zone records fill the 248 bytes exactly
    full = [LeafRecord(0, k, GantryObject(k, k, k)) for k in range(15)] + [LeafRecord(1, 99)] * 2
    assert leaf_list_view(encode_leaf_list(full)) == (tuple(full), NO_PAGE)
    with pytest.raises(FormatError, match="252 bytes"):
        encode_leaf_list(full + [LeafRecord(2, 98)])
    eight_and_forty = [LeafRecord(0, k, GantryObject(k, k, k)) for k in range(8)] + [LeafRecord(2, 99)] * 40
    with pytest.raises(FormatError, match="288 bytes"):
        encode_leaf_list(eight_and_forty)


def test_leaf_coordinates_flag_is_checked():
    page = bytearray(encode_leaf_list([LeafRecord(0, 5, GantryObject(1, 2, 3))]))
    leaf_list_view(bytes(page), addr=12)
    for flag in (0x01, 0x7F, 0xFE):
        page[codec.LEAF_COORDS_FLAG_OFF] = flag
        with pytest.raises(FormatError, match="coordinates flag .* at page 12"):
            leaf_list_view(_with_crc(page), addr=12)
    # a flagged page whose records leave no room for one entry per point record
    crowded = bytearray(encode_leaf_list([LeafRecord(0, k) for k in range(60)]))
    crowded[codec.LEAF_COORDS_FLAG_OFF] = codec.LEAF_COORDS
    with pytest.raises(FormatError, match="coordinates run past .* at page 13"):
        leaf_list_view(_with_crc(crowded), addr=13)


def test_leaf_bad_kind_rejected():
    with pytest.raises(FormatError):
        encode_leaf_list([LeafRecord(3, 1)])
    page = bytearray(encode_leaf_list([LeafRecord(0, 1)]))
    page[codec.LEAF_RECORDS_OFF] = 7
    with pytest.raises(FormatError):  # kind check fires before the CRC is even right
        leaf_list_view(bytes(page))


def test_leaf_crc_catches_damage():
    page = bytearray(encode_leaf_list([LeafRecord(1, 9)]))
    page[8] ^= 0x40
    with pytest.raises(FormatError):
        leaf_list_view(bytes(page))


@given(
    records=st.lists(
        st.builds(LeafRecord, st.integers(0, 2), addr_st), min_size=0, max_size=62
    ),
    nxt=st.one_of(st.just(NO_PAGE), addr_st),
)
@settings(max_examples=80, deadline=None)
def test_leaf_round_trip_property(records, nxt):
    assert leaf_list_view(encode_leaf_list(records, nxt)) == (tuple(records), nxt)


def test_decode_memo_never_stores_failures():
    good = encode_leaf_list([LeafRecord(0, 5)])
    bad = bytearray(good)
    bad[6] ^= 0x01  # same page, damaged after a good decode
    leaf_list_view(good, addr=3)
    for _ in range(2):
        with pytest.raises(FormatError, match="at page 8"):
            leaf_list_view(bytes(bad), addr=8)
    node = encode_node(2)
    node_view(node, addr=4)
    broken = bytearray(node)
    broken[40] ^= 0x10
    for addr in (9, 9, 10):
        with pytest.raises(FormatError, match=f"at page {addr}$"):
            node_view(bytes(broken), addr=addr)
    assert (bytes(broken), None) not in codec._NODES


def test_decode_memo_results_cannot_be_changed_by_callers():
    page = encode_leaf_list([LeafRecord(1, 10), LeafRecord(2, 11)], next=4)
    first = leaf_list_view(page)
    records, nxt = first
    with pytest.raises(AttributeError):
        records.append(LeafRecord(0, 99))
    with pytest.raises(AttributeError):
        records[0].kind = 2
    assert leaf_list_view(page) is first and first == ((LeafRecord(1, 10), LeafRecord(2, 11)), 4)
    view = node_view(encode_node(1, self_list=make_leaf(9)))
    with pytest.raises(AttributeError):
        view.self_list = ENTRY_EMPTY
    with pytest.raises(TypeError):
        view.entries[0] = make_leaf(3)
    assert node_view(view.page) is view and view.self_list == make_leaf(9) and view.entries[0] == ENTRY_EMPTY


def test_decode_memo_is_bounded():
    for k in range(codec.MEMO_ENTRIES + 50):
        leaf_list_view(encode_leaf_list([LeafRecord(0, k)]))
    assert len(codec._LEAF_LISTS) <= codec.MEMO_ENTRIES
    # a node's view keeps its occupied-entry mask, and a second read is the same view
    for k in range(codec.MEMO_ENTRIES + 50):
        entries = [ENTRY_EMPTY] * 81
        entries[k % 81] = make_leaf(k)
        entries[(k + 40) % 81] = make_child(k)
        mask = 1 << k % 81 | 1 << (k + 40) % 81
        page = encode_node(1, entries)
        view = node_view(page)
        assert view.occupied == mask and node_view(page) is view
        assert codec._NODES[page, None] is view
    assert len(codec._NODES) <= codec.MEMO_ENTRIES
    assert node_view(encode_node(0)).occupied == 0
    full = [make_child(n) if n % 2 else make_leaf(n) for n in range(81)]
    full[5], full[6] = make_child(codec.ADDR_MASK), make_leaf(codec.ADDR_MASK)  # one byte short of Empty
    assert node_view(encode_node(2, full)).occupied == (1 << 81) - 1
    # a device-size range check is part of the key: the same bytes can pass
    # for a large device and fail for a small one
    page = encode_leaf_list([LeafRecord(0, 700)])
    leaf_list_view(page, total_pages=1000)
    with pytest.raises(FormatError, match="past end of device"):
        leaf_list_view(page, total_pages=500)
    page = encode_node(1, [make_child(700)] + [ENTRY_EMPTY] * 80, self_list=make_leaf(600))
    assert node_view(page, total_pages=1000).occupied == 1
    with pytest.raises(FormatError, match="cell entry 0x0002bc addresses past end of device at page 3"):
        node_view(page, total_pages=550, addr=3)  # both are past the end: the entry is checked first
    with pytest.raises(FormatError, match="cell entry 0x400258 addresses past end of device at page 3"):
        node_view(encode_node(1, self_list=make_leaf(600)), total_pages=600, addr=3)


# -- objects --------------------------------------------------------------------


def test_gantry_round_trip():
    view = object_view(encode_gantry(GantryObject(7, -5, 1_999_999)))
    assert (view.kind, view.object_id, view.x, view.y) == (GANTRY, 7, -5, 1_999_999)
    assert view.vertices is None and view.next is None


def test_gantry_coordinate_range():
    encode_gantry(GantryObject(1, -(1 << 31), (1 << 31) - 1))
    with pytest.raises(FormatError):
        encode_gantry(GantryObject(1, 1 << 31, 0))


def test_zone_single_page():
    verts = ((0, 0), (10, 0), (5, 8))
    assert zone_page_count(3) == 1
    (page,) = encode_zone(ZoneObject(3, verts), [])
    out = object_view(page)
    assert out.kind == ZONE
    assert out.object_id == 3
    assert out.vertex_count == 3
    assert out.vertices == verts
    assert out.next == NO_PAGE


def test_zone_chain_spans_pages():
    verts = tuple((k, -k) for k in range(75))  # 30 + 30 + 15
    assert zone_page_count(75) == 3
    pages = encode_zone(ZoneObject(9, verts), [200, 300])
    head = object_view(pages[0])
    assert head.vertex_count == 75 and head.next == 200
    mid = object_view(pages[1])
    assert mid.kind == ZONE_CONT and mid.next == 300 and mid.vertex_count is None
    tail = object_view(pages[2])
    assert tail.next == NO_PAGE
    assert head.vertices + mid.vertices + tail.vertices == verts


def test_zone_addr_list_must_match():
    verts = tuple((k, k) for k in range(31))
    with pytest.raises(FormatError):
        encode_zone(ZoneObject(1, verts), [])  # needs one continuation address


def test_object_crc_catches_damage():
    page = bytearray(encode_gantry(GantryObject(1, 2, 3)))
    page[6] ^= 0x80
    with pytest.raises(FormatError):
        object_view(bytes(page))


def reseal_object(page):
    page[codec.LEAF_CRC_OFF :] = codec.crc16(bytes(page[: codec.LEAF_CRC_OFF])).to_bytes(2, "big")
    return bytes(page)


@pytest.mark.parametrize("count", [0, 1, 2])
def test_a_zone_head_with_fewer_than_three_vertices_is_refused_naming_the_page(count):
    (page,) = encode_zone(ZoneObject(3, ((0, 0), (10, 0), (5, 8))), [])
    forged = bytearray(page)
    forged[6:8] = count.to_bytes(2, "big")  # the zone's total
    forged[8] = count  # and the page's own count, so the pages agree with the header
    forged = reseal_object(forged)
    with pytest.raises(FormatError, match=f"zone vertex count {count} is not in 3..65535 at page 40$"):
        object_view(forged, addr=40)


def test_object_view_names_each_faulty_page():
    gantry = encode_gantry(GantryObject(1, 2, 3))
    with pytest.raises(FormatError, match="object page must be 256 bytes"):
        object_view(gantry[:-1], addr=5)
    with pytest.raises(FormatError, match="bad object magic 0x4c at page 5"):
        object_view(b"\x4c" + gantry[1:], addr=5)
    with pytest.raises(FormatError, match="unknown object kind 3 at page 5"):
        object_view(reseal_object(bytearray(gantry[:1] + b"\x03" + gantry[2:])), addr=5)
    (head, cont) = encode_zone(ZoneObject(4, tuple((k, k * k) for k in range(31))), [70])
    too_many = bytearray(cont)
    too_many[8] = 31
    with pytest.raises(FormatError, match="zone page vertex count 31 exceeds capacity at page 70"):
        object_view(reseal_object(too_many), addr=70)
    view = object_view(head)
    assert object_view(bytearray(head)) == view
    with pytest.raises(AttributeError):
        view.next = NO_PAGE


# -- version slots ----------------------------------------------------------------


def test_version_slot_lifecycle():
    rec = VersionRecord(version_no=5, root_page=40, alloc_cursor=41)
    slot = encode_version_record(rec)
    assert len(slot) == 16
    assert decode_version_slot(slot) == ("live", rec)
    other = VersionRecord(6, 50, 51)
    assert directory_slots(b"\xff" * PAGE_SIZE) == [("blank", None)] * 16
    page = directory_page_with(b"\xff" * PAGE_SIZE, 3, [rec, other])
    assert page[:48] == b"\xff" * 48 and page[48:64] == slot and page[80:] == b"\xff" * 176
    assert directory_slots(page) == [("blank", None)] * 3 + [("live", rec), ("live", other)] + [("blank", None)] * 11
    for first in (0, 4, 5, 15):  # from a later slot on: the same slots, the earlier ones not decoded
        assert directory_slots(page, first) == directory_slots(page)[first:]
        assert directory_slots(b"\xff" * PAGE_SIZE, first) == [("blank", None)] * (16 - first)
    revoked = revoke_directory_slot(page, 3)
    assert directory_slots(revoked)[3:5] == [("revoked", rec), ("live", other)]
    # revocation is a pure 1 -> 0 change, so it can be programmed in place
    assert all(not (r & ~s & 0xFF) for s, r in zip(page, revoked))
    assert sum(s != r for s, r in zip(page, revoked)) == 1


def test_version_slot_blank_and_invalid():
    assert decode_version_slot(b"\xff" * 16) == ("blank", None)
    assert decode_version_slot(b"XX" + b"\x00" * 14) == ("invalid", None)
    record = encode_version_record(VersionRecord(1, 32, 33))
    damaged = bytearray(record)
    damaged[10] ^= 0x02  # payload damage breaks the CRC
    assert decode_version_slot(bytes(damaged)) == ("invalid", None)
    for n in range(1, 15):  # an append cut short after n bytes: the CRC's second byte is still blank
        assert decode_version_slot(record[:n] + b"\xff" * (16 - n)) == ("torn", None), n


def test_version_record_range_checks():
    with pytest.raises(FormatError):
        encode_version_record(VersionRecord(0, 1, 1))
    with pytest.raises(FormatError):
        encode_version_record(VersionRecord(1, 1 << 22, 1))


@given(
    vno=st.integers(1, (1 << 32) - 1), root=addr_st, cursor=addr_st
)
@settings(max_examples=60, deadline=None)
def test_version_round_trip_property(vno, root, cursor):
    rec = VersionRecord(vno, root, cursor)
    state, back = decode_version_slot(encode_version_record(rec))
    assert state == "live" and back == rec


# -- kind sniffing ------------------------------------------------------------------


def test_page_kind():
    assert page_kind(encode_node(0)) == "node"
    assert page_kind(encode_leaf_list([])) == "leaf"
    assert page_kind(encode_gantry(GantryObject(1, 0, 0))) == "object"
    assert page_kind(b"\xff" * PAGE_SIZE) == "erased"
    assert page_kind(b"\x00" + b"\xff" * 255) == "unknown"
