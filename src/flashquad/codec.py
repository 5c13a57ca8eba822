"""Binary page formats for the quadtree store.

All multi-byte fields are big-endian.  See FORMAT.md for the full offset
tables.  Page kinds, identified by their first byte:

  0x51  index node: 81 cell entries of 3 bytes each (243-byte entry area)
  0x4C  leaf list: up to 62 records of {kind u8, object_page u24}, then,
        when byte 253 is 0x00, a coordinates appendix of {id u32, x i32,
        y i32} per point record, in record order (0xFF: no appendix, the
        layout written before it; a disc query then loads each gantry's
        object page).  Records and appendix share 248 bytes:
        4 * records + 12 * points <= 248.
  0x4F  object record: gantry point or zone polygon (chained when large)

An update package, the pages one version adds to another, is laid out here
too (``encode_update``, ``parse_update``).

A cell entry is a 24-bit word.  0xFFFFFF means Empty; otherwise the top two
bits select the reference kind (00 = child node, 01 = leaf list) and the low
22 bits are the page address.  Tag values 10 and 11 never occur in a valid
page.

Version records are 16-byte slots appended to directory pages; their valid
flag sits alone in a byte so a record can be revoked by a 1 -> 0 program
without touching anything else.  A directory page is read with
``directory_slots`` and written with ``directory_page_with`` and
``revoke_directory_slot``, which address a slot by its number on the page.
"""

from __future__ import annotations

import binascii
import struct
import zlib
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, FormatError, IntegrityError
from .geometry import MAX_LEVEL

PAGE_SIZE = 256

# -- CRC ------------------------------------------------------------------

CRC_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    """CRC-16/CCITT (poly 0x1021), initial value 0xFFFF."""
    return binascii.crc_hqx(data, CRC_INIT)


# -- cell entries ----------------------------------------------------------

ENTRY_EMPTY = 0xFFFFFF
ADDR_BITS = 22
ADDR_MASK = (1 << ADDR_BITS) - 1
TAG_CHILD = 0
TAG_LEAF = 1


def make_child(addr: int) -> int:
    if not 0 <= addr <= ADDR_MASK:
        raise FormatError(f"page address {addr} does not fit in {ADDR_BITS} bits")
    return addr


def make_leaf(addr: int) -> int:
    if not 0 <= addr <= ADDR_MASK:
        raise FormatError(f"page address {addr} does not fit in {ADDR_BITS} bits")
    return (TAG_LEAF << ADDR_BITS) | addr


def entry_is_empty(word: int) -> bool:
    return word == ENTRY_EMPTY


def entry_is_child(word: int) -> bool:
    return word >> ADDR_BITS == TAG_CHILD


def entry_is_leaf(word: int) -> bool:
    return word != ENTRY_EMPTY and word >> ADDR_BITS == TAG_LEAF


def entry_addr(word: int) -> int:
    return word & ADDR_MASK


def check_entry(word: int, total_pages: int | None = None, addr: int | None = None) -> int:
    """Validate a raw 24-bit entry word (of the node page at ``addr``) and return it."""
    if word == ENTRY_EMPTY:
        return word
    tag = word >> ADDR_BITS
    if tag not in (TAG_CHILD, TAG_LEAF):
        raise FormatError(f"cell entry 0x{word:06x} has reserved tag bits {tag:02b}{_at(addr)}")
    if total_pages is not None and (word & ADDR_MASK) >= total_pages:
        raise FormatError(f"cell entry 0x{word:06x} addresses past end of device{_at(addr)}")
    return word


# -- index node pages --------------------------------------------------------

NODE_MAGIC = 0x51
NODE_FANOUT = 81
NODE_ENTRY_SIZE = 3
NODE_ENTRY_AREA = NODE_FANOUT * NODE_ENTRY_SIZE  # 243
NODE_SELF_LIST_OFF = 2  # 3 bytes; list pointer for the node's own cell
NODE_SELF_CHECK_OFF = 5  # 1 byte: SELF_CHECKED when the next 2 hold a CRC-16 of self_list, else 0xFF
NODE_SELF_CRC_OFF = 6  # 2 bytes
NODE_PARAMS_OFF = 8  # 3 bytes: the root's BuildParams; 0xFF 0xFF 0xFF: the defaults
SELF_CHECKED = 0x00
NODE_CRC_OFF = 11  # 2 bytes over the entry area
NODE_ENTRIES_OFF = 13

MAX_NODE_LEVEL = 5


@dataclass(frozen=True)
class BuildParams:
    """The tree-shape parameters of an image, which its root node stores (FORMAT.md)."""

    leaf_split_threshold: int = 8
    max_depth: int = 5
    zone_max_depth: int = 3
    dedup: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.max_depth <= MAX_LEVEL:
            raise DomainError(f"max_depth must be 0..{MAX_LEVEL}, got {self.max_depth}")
        if not 0 <= self.zone_max_depth <= self.max_depth:
            raise DomainError("zone_max_depth must be between 0 and max_depth")
        if not 0 <= self.leaf_split_threshold <= 254:
            raise DomainError(f"leaf_split_threshold must be 0..254, got {self.leaf_split_threshold}")


_DEFAULT_PARAMS = BuildParams()
_NO_PARAMS = b"\xff" * 3  # the defaults, as every image written before the parameters were stored holds
_PARAMS_CHECK = 0x5A


def _params_bytes(params: BuildParams) -> bytes:
    """Bytes 8..10 of a node: threshold, packed depths and dedup, check byte; the defaults stay 0xFF."""
    if params == _DEFAULT_PARAMS:
        return _NO_PARAMS
    packed = params.max_depth | params.zone_max_depth << 3 | (not params.dedup) << 6
    return bytes((params.leaf_split_threshold, packed, params.leaf_split_threshold ^ packed ^ _PARAMS_CHECK))


def _parse_params(raw: bytes, addr: int | None) -> BuildParams:
    if raw == _NO_PARAMS:
        return _DEFAULT_PARAMS
    threshold, packed, check = raw
    try:
        if packed >> 7 or check != threshold ^ packed ^ _PARAMS_CHECK:
            raise DomainError("the check byte or the unused bit is wrong")
        return BuildParams(threshold, packed & 7, packed >> 3 & 7, not packed >> 6 & 1)
    except DomainError as e:
        raise FormatError(f"node parameters 0x{raw.hex()} refused: {e}{_at(addr)}") from None


_NO_ENTRIES = (ENTRY_EMPTY,) * NODE_FANOUT


def encode_node(
    level: int, entries: Sequence[int] = _NO_ENTRIES, self_list: int = ENTRY_EMPTY, params: BuildParams = _DEFAULT_PARAMS
) -> bytes:
    """A node page: its 81 entry words (entry (i, j) at ``9*i + j``), its self_list (Empty or a
    leaf-list entry for its own cell) and, for a root, its ``BuildParams`` (others keep the defaults)."""
    if not 0 <= level <= MAX_NODE_LEVEL:
        raise FormatError(f"node level {level} out of range")
    if len(entries) != NODE_FANOUT:
        raise FormatError(f"node needs {NODE_FANOUT} entries, got {len(entries)}")
    if self_list != ENTRY_EMPTY and not entry_is_leaf(self_list):
        raise FormatError("self_list must be Empty or a leaf-list entry")
    buf = bytearray(b"\xff" * PAGE_SIZE)
    buf[0] = NODE_MAGIC
    buf[1] = level
    if self_list != ENTRY_EMPTY:
        buf[NODE_SELF_LIST_OFF : NODE_SELF_LIST_OFF + 3] = self_list.to_bytes(3, "big")
        buf[NODE_SELF_CHECK_OFF] = SELF_CHECKED
        buf[NODE_SELF_CRC_OFF : NODE_SELF_CRC_OFF + 2] = _self_list_crc(buf).to_bytes(2, "big")
    buf[NODE_PARAMS_OFF : NODE_PARAMS_OFF + 3] = _params_bytes(params)
    pos = NODE_ENTRIES_OFF
    for word in entries:
        buf[pos : pos + 3] = check_entry(word).to_bytes(3, "big")
        pos += 3
    crc = crc16(bytes(buf[NODE_ENTRIES_OFF:]))
    buf[NODE_CRC_OFF : NODE_CRC_OFF + 2] = crc.to_bytes(2, "big")
    return bytes(buf)


# -- decode memos ------------------------------------------------------------
#
# What a node or leaf-list decode finds depends only on the page bytes and
# the device size used for range checks, so the checked results are
# memoized by (bytes, device size), and one memo can serve every store in
# the process.  Each memo keeps at most MEMO_ENTRIES results, dropping the
# oldest first.  A failure is never stored: it raises again, naming its
# page, on every call.  The memos sit above the store's page reads, so
# device reads and cache hits are counted as without them.

MEMO_ENTRIES = 4096


class NodeView(namedtuple("NodeView", "page level self_list entries occupied params")):
    """A checked node page: its bytes, its level, its self_list word, its 81
    entry words (a tuple, entry (i, j) at ``9*i + j``), its occupied-entry
    mask, in which bit ``9*i + j`` is set when entry (i, j) is not Empty,
    and its ``BuildParams``, which only a root's carry.
    Immutable, so the memo hands the same one to every caller.
    """

    __slots__ = ()


_NODES: OrderedDict[tuple[bytes, int | None], NodeView] = OrderedDict()
_LEAF_LISTS: OrderedDict[tuple[bytes, int | None], tuple[tuple["LeafRecord", ...], int]] = OrderedDict()


def _at(addr: int | None) -> str:
    """Where a decode failed, for its message."""
    return "" if addr is None else f" at page {addr}"


def _remember(memo: OrderedDict, key, value) -> None:
    if len(memo) >= MEMO_ENTRIES:
        memo.popitem(last=False)  # drop the oldest entry
    memo[key] = value


def _self_list_crc(page: bytes | bytearray) -> int:
    return crc16(bytes(page[NODE_SELF_LIST_OFF : NODE_SELF_LIST_OFF + 3]))


def node_view(page: bytes, total_pages: int | None = None, addr: int | None = None) -> NodeView:
    """The checked view of a node page (of the node at ``addr``), memoized by content.

    This is the one way to read a node.  The checks, in order: length,
    magic, level, entry-area CRC, the self_list check flag and CRC, the
    parameters' check byte and ranges, each entry's tag and range in entry
    order, then the self_list word, which must be Empty or a leaf-list
    entry in range.  Ranges are checked against ``total_pages`` when given.
    """
    if type(page) is not bytes:
        page = bytes(page)
    key = (page, total_pages)
    view = _NODES.get(key)
    if view is None:
        view = _parse_node(page, total_pages, addr)
        _remember(_NODES, key, view)
    return view


# the entry area as 81 (high byte, low 16 bits) pairs: one C call instead of 81 slices
_NODE_ENTRY_HALVES = struct.Struct(">" + "BH" * NODE_FANOUT)


def _parse_node(page: bytes, total_pages: int | None, addr: int | None) -> NodeView:
    if len(page) != PAGE_SIZE:
        raise FormatError(f"node page must be {PAGE_SIZE} bytes")
    if page[0] != NODE_MAGIC:
        raise FormatError(f"bad node magic 0x{page[0]:02x}{_at(addr)}")
    if page[1] > MAX_NODE_LEVEL:
        raise FormatError(f"node level {page[1]} out of range{_at(addr)}")
    stored = int.from_bytes(page[NODE_CRC_OFF : NODE_CRC_OFF + 2], "big")
    if stored != crc16(page[NODE_ENTRIES_OFF:]):
        raise FormatError(f"node entry-area CRC mismatch{_at(addr)}")
    flag = page[NODE_SELF_CHECK_OFF]
    if flag == SELF_CHECKED:
        if int.from_bytes(page[NODE_SELF_CRC_OFF : NODE_SELF_CRC_OFF + 2], "big") != _self_list_crc(page):
            raise FormatError(f"node self_list CRC mismatch{_at(addr)}")
    elif flag != 0xFF:  # 0xFF: no check stored (an empty self_list, or a node written before the check)
        raise FormatError(f"node self_list check flag 0x{flag:02x} is neither 0x00 nor 0xff{_at(addr)}")
    params = _parse_params(page[NODE_PARAMS_OFF : NODE_PARAMS_OFF + 3], addr)
    halves = _NODE_ENTRY_HALVES.unpack_from(page, NODE_ENTRIES_OFF)
    entries = tuple([hi << 16 | lo for hi, lo in zip(halves[::2], halves[1::2])])
    limit = ADDR_MASK + 1 if total_pages is None else total_pages
    occupied = 0
    for k, word in enumerate(entries):
        if word != ENTRY_EMPTY:
            if word >> ADDR_BITS > TAG_LEAF or word & ADDR_MASK >= limit:
                check_entry(word, total_pages, addr)  # raises, naming the fault
            occupied |= 1 << k
    self_list = int.from_bytes(page[NODE_SELF_LIST_OFF : NODE_SELF_LIST_OFF + 3], "big")
    if self_list != ENTRY_EMPTY:
        check_entry(self_list, total_pages, addr)
        if not entry_is_leaf(self_list):
            raise FormatError(f"node self_list is not a leaf-list entry{_at(addr)}")
    return NodeView(page, page[1], self_list, entries, occupied, params)


def node_with_entry(page: bytes, i: int, j: int, word: int) -> bytes:
    """Copy of a node page with one entry replaced and the CRC rebuilt."""
    buf = bytearray(page)
    off = NODE_ENTRIES_OFF + NODE_ENTRY_SIZE * (9 * i + j)
    buf[off : off + 3] = check_entry(word).to_bytes(3, "big")
    crc = crc16(bytes(buf[NODE_ENTRIES_OFF:]))
    buf[NODE_CRC_OFF : NODE_CRC_OFF + 2] = crc.to_bytes(2, "big")
    return bytes(buf)


# -- leaf list pages -----------------------------------------------------------

LEAF_MAGIC = 0x4C
LEAF_COUNT_OFF = 1
LEAF_NEXT_OFF = 2
LEAF_RECORDS_OFF = 5
LEAF_RECORD_SIZE = 4
LEAF_CAPACITY = (PAGE_SIZE - LEAF_RECORDS_OFF - 3) // LEAF_RECORD_SIZE  # 62
LEAF_COORDS_FLAG_OFF = 253  # LEAF_COORDS: an appendix follows the records; 0xFF: none
LEAF_COORDS = 0x00
LEAF_BYTES = LEAF_COORDS_FLAG_OFF - LEAF_RECORDS_OFF  # 248, shared by the records and the appendix
LEAF_COORDS_SIZE = 12  # id u32, x i32, y i32
LEAF_CRC_OFF = 254

KIND_POINT = 0
KIND_ZONE_INSIDE = 1
KIND_ZONE_EDGE = 2
RECORD_KINDS = (KIND_POINT, KIND_ZONE_INSIDE, KIND_ZONE_EDGE)

NO_PAGE = 0xFFFFFF  # "no next page" in chain links

_COORDS = struct.Struct(">Iii")  # one appendix entry: id, x, y
_RECORD_WORDS = [struct.Struct(f">{n}I") for n in range(LEAF_CAPACITY + 1)]  # n records as (kind << 24 | page) words


class LeafRecord(namedtuple("LeafRecord", "kind object_page gantry", defaults=(None,))):
    """One leaf-list record: its kind, its object's head page and, for a point
    record read from a page with the appendix or about to be written, its
    ``GantryObject`` (id and position).  A tuple, so the leaf pages of a
    national image decode about a third faster than as a frozen dataclass.
    """

    __slots__ = ()


def record_bytes(rec: LeafRecord) -> int:
    """Bytes a record takes on a page that carries the appendix: 16 for a point, 4 otherwise."""
    return LEAF_RECORD_SIZE + LEAF_COORDS_SIZE if rec.kind == KIND_POINT else LEAF_RECORD_SIZE


def _tail_crc(buf: bytearray) -> None:
    buf[LEAF_CRC_OFF : LEAF_CRC_OFF + 2] = crc16(bytes(buf[:LEAF_CRC_OFF])).to_bytes(2, "big")


def _check_tail_crc(page: bytes, what: str, addr: int | None) -> None:
    stored = int.from_bytes(page[LEAF_CRC_OFF : LEAF_CRC_OFF + 2], "big")
    if stored != crc16(page[:LEAF_CRC_OFF]):
        raise FormatError(f"{what} CRC mismatch{_at(addr)}")


def encode_leaf_list(records: Sequence[LeafRecord], next: int = NO_PAGE) -> bytes:
    """Encode a leaf-list page linked to ``next``, with the appendix when its point records carry their gantries.

    Point records must carry all of them or none (the layout without the
    appendix, as written before it); a page without point records has none.
    """
    if not 0 <= len(records) <= LEAF_CAPACITY:
        raise FormatError(f"leaf list holds at most {LEAF_CAPACITY} records, got {len(records)}")
    if next != NO_PAGE and not 0 <= next <= ADDR_MASK:
        raise FormatError(f"bad next pointer {next}")
    buf = bytearray(b"\xff" * PAGE_SIZE)
    buf[0] = LEAF_MAGIC
    buf[LEAF_COUNT_OFF] = len(records)
    buf[LEAF_NEXT_OFF : LEAF_NEXT_OFF + 3] = next.to_bytes(3, "big")
    words = []
    coords: list[GantryObject] = []
    points = 0
    for rec in records:
        if rec.kind not in RECORD_KINDS:
            raise FormatError(f"bad leaf record kind {rec.kind}")
        if not 0 <= rec.object_page <= ADDR_MASK:
            raise FormatError(f"bad object page {rec.object_page}")
        words.append(rec.kind << 24 | rec.object_page)
        if rec.kind == KIND_POINT:
            points += 1
            if rec.gantry is not None:
                coords.append(rec.gantry)
    _RECORD_WORDS[len(words)].pack_into(buf, LEAF_RECORDS_OFF, *words)
    if coords:
        if len(coords) < points:
            raise FormatError("a leaf list gives the coordinates of all its point records or of none")
        size = LEAF_RECORD_SIZE * len(words) + LEAF_COORDS_SIZE * points
        if size > LEAF_BYTES:
            raise FormatError(f"leaf list records and coordinates take {size} bytes; a page holds {LEAF_BYTES}")
        buf[LEAF_COORDS_FLAG_OFF] = LEAF_COORDS
        pos = LEAF_RECORDS_OFF + LEAF_RECORD_SIZE * len(words)
        for g in coords:
            if not 0 <= g.object_id < 1 << 32:
                raise FormatError(f"object id {g.object_id} does not fit in u32")
            _check_i32(g.x, "x")
            _check_i32(g.y, "y")
            _COORDS.pack_into(buf, pos, g.object_id, g.x, g.y)
            pos += LEAF_COORDS_SIZE
    _tail_crc(buf)
    return bytes(buf)


def leaf_list_view(
    page: bytes, total_pages: int | None = None, addr: int | None = None
) -> tuple[tuple[LeafRecord, ...], int]:
    """(records, next) of a leaf-list page, memoized by content: the one way to read one.

    The result is immutable, so the memo can hand the same one to every
    caller.
    """
    if type(page) is not bytes:
        page = bytes(page)
    key = (page, total_pages)
    hit = _LEAF_LISTS.get(key)
    if hit is None:
        hit = _parse_leaf_list(page, total_pages, addr)
        _remember(_LEAF_LISTS, key, hit)
    return hit


def _parse_leaf_list(
    page: bytes, total_pages: int | None, addr: int | None
) -> tuple[tuple[LeafRecord, ...], int]:
    if len(page) != PAGE_SIZE:
        raise FormatError(f"leaf list page must be {PAGE_SIZE} bytes")
    where = _at(addr)
    if page[0] != LEAF_MAGIC:
        raise FormatError(f"bad leaf list magic 0x{page[0]:02x}{where}")
    _check_tail_crc(page, "leaf list", addr)
    count = page[LEAF_COUNT_OFF]
    if count > LEAF_CAPACITY:
        raise FormatError(f"leaf list count {count} exceeds capacity{where}")
    flag = page[LEAF_COORDS_FLAG_OFF]
    if flag not in (LEAF_COORDS, 0xFF):
        raise FormatError(f"leaf list coordinates flag 0x{flag:02x} is neither 0x00 nor 0xff{where}")
    nxt = int.from_bytes(page[LEAF_NEXT_OFF : LEAF_NEXT_OFF + 3], "big")
    if nxt != NO_PAGE:
        if total_pages is not None and nxt >= total_pages:
            raise FormatError(f"leaf list next pointer past end of device{where}")
    words = _RECORD_WORDS[count].unpack_from(page, LEAF_RECORDS_OFF)
    limit = 1 << 24 if total_pages is None else total_pages
    for word in words:
        if word >> 24 > KIND_ZONE_EDGE:
            raise FormatError(f"bad leaf record kind {word >> 24}{where}")
        if word & 0xFFFFFF >= limit:
            raise FormatError(f"leaf record object page past end of device{where}")
    pos = LEAF_RECORDS_OFF + LEAF_RECORD_SIZE * count
    if flag == LEAF_COORDS:
        if pos + LEAF_COORDS_SIZE * sum(word >> 24 == KIND_POINT for word in words) > LEAF_COORDS_FLAG_OFF:
            raise FormatError(f"leaf list coordinates run past byte {LEAF_COORDS_FLAG_OFF - 1}{where}")
        records = []
        for word in words:
            if word >> 24 == KIND_POINT:
                records.append(LeafRecord(KIND_POINT, word & 0xFFFFFF, GantryObject(*_COORDS.unpack_from(page, pos))))
                pos += LEAF_COORDS_SIZE
            else:
                records.append(LeafRecord(word >> 24, word & 0xFFFFFF))
        return tuple(records), nxt
    return tuple([LeafRecord(word >> 24, word & 0xFFFFFF) for word in words]), nxt


# -- object record pages -----------------------------------------------------

OBJ_MAGIC = 0x4F
OBJ_GANTRY = 0
OBJ_ZONE = 1
OBJ_ZONE_CONT = 2

# the object kinds, as views, the tree's page roles and error messages name them
GANTRY = "gantry"
ZONE = "zone"
ZONE_CONT = "zone_cont"
_OBJECT_KINDS = {OBJ_GANTRY: GANTRY, OBJ_ZONE: ZONE, OBJ_ZONE_CONT: ZONE_CONT}

ZONE_VERTS_OFF = 12
ZONE_VERTS_PER_PAGE = (LEAF_CRC_OFF - ZONE_VERTS_OFF) // 8  # 30


class GantryObject(namedtuple("GantryObject", "object_id x y")):
    """A gantry: its id and position.  A tuple like ``LeafRecord``, since every
    point record of a leaf page with the appendix holds one and mount
    compares each with its object page."""

    __slots__ = ()


@dataclass(frozen=True)
class ZoneObject:
    object_id: int
    vertices: tuple[tuple[int, int], ...]


def _check_i32(v: int, what: str) -> int:
    if not -(1 << 31) <= v < 1 << 31:
        raise FormatError(f"{what} {v} does not fit in i32")
    return v & 0xFFFFFFFF


def encode_gantry(g: GantryObject) -> bytes:
    if not 0 <= g.object_id < 1 << 32:
        raise FormatError(f"object id {g.object_id} does not fit in u32")
    buf = bytearray(b"\xff" * PAGE_SIZE)
    buf[0] = OBJ_MAGIC
    buf[1] = OBJ_GANTRY
    buf[2:6] = g.object_id.to_bytes(4, "big")
    buf[6:10] = _check_i32(g.x, "x").to_bytes(4, "big")
    buf[10:14] = _check_i32(g.y, "y").to_bytes(4, "big")
    _tail_crc(buf)
    return bytes(buf)


def zone_page_count(vertex_count: int) -> int:
    return max(1, -(-vertex_count // ZONE_VERTS_PER_PAGE))


def encode_zone(z: ZoneObject, page_addrs: list[int]) -> list[bytes]:
    """Encode a zone polygon over a pre-allocated page chain.

    ``page_addrs`` supplies the address of every page after the first so the
    chain links can be written; its length must be ``zone_page_count(n) - 1``.
    """
    n = len(z.vertices)
    if not 3 <= n < 1 << 16:
        raise FormatError(f"zone needs 3..65535 vertices, got {n}")
    if not 0 <= z.object_id < 1 << 32:
        raise FormatError(f"object id {z.object_id} does not fit in u32")
    if len(page_addrs) != zone_page_count(n) - 1:
        raise FormatError("page_addrs length does not match vertex count")
    pages = []
    for pno in range(zone_page_count(n)):
        chunk = z.vertices[pno * ZONE_VERTS_PER_PAGE : (pno + 1) * ZONE_VERTS_PER_PAGE]
        buf = bytearray(b"\xff" * PAGE_SIZE)
        buf[0] = OBJ_MAGIC
        buf[1] = OBJ_ZONE if pno == 0 else OBJ_ZONE_CONT
        buf[2:6] = z.object_id.to_bytes(4, "big")
        if pno == 0:
            buf[6:8] = n.to_bytes(2, "big")
        buf[8] = len(chunk)
        nxt = page_addrs[pno] if pno < len(page_addrs) else NO_PAGE
        buf[9:12] = nxt.to_bytes(3, "big")
        pos = ZONE_VERTS_OFF
        for x, y in chunk:
            buf[pos : pos + 4] = _check_i32(x, "vertex x").to_bytes(4, "big")
            buf[pos + 4 : pos + 8] = _check_i32(y, "vertex y").to_bytes(4, "big")
            pos += 8
        _tail_crc(buf)
        pages.append(bytes(buf))
    return pages


class ObjectView(namedtuple("ObjectView", "kind object_id x y vertex_count vertices next")):
    """A checked object page of ``kind`` GANTRY, ZONE (a zone's head) or ZONE_CONT:
    a gantry's ``x`` and ``y``; a zone page's own ``vertices`` and ``next``
    link; a head's ``vertex_count``, the zone's total.  Fields a kind lacks
    are None.
    """

    __slots__ = ()


def object_view(page: bytes, addr: int | None = None) -> ObjectView:
    """The checked view of an object page (the one at ``addr``), the one way to read one.

    It makes checks 1-6 of FORMAT.md "Reading an object", in that order;
    ``tree.PageReader.object`` makes the checks that span a zone's pages.
    """
    if len(page) != PAGE_SIZE:
        raise FormatError(f"object page must be {PAGE_SIZE} bytes")
    if page[0] != OBJ_MAGIC:
        raise FormatError(f"bad object magic 0x{page[0]:02x}{_at(addr)}")
    _check_tail_crc(page, "object record", addr)
    kind = _OBJECT_KINDS.get(page[1])
    if kind is None:
        raise FormatError(f"unknown object kind {page[1]}{_at(addr)}")
    object_id = int.from_bytes(page[2:6], "big")
    if kind == GANTRY:
        return ObjectView(kind, object_id, *struct.unpack_from(">ii", page, 6), None, None, None)
    count = page[8]
    if count > ZONE_VERTS_PER_PAGE:
        raise FormatError(f"zone page vertex count {count} exceeds capacity{_at(addr)}")
    total = int.from_bytes(page[6:8], "big") if kind == ZONE else None
    if kind == ZONE and total < 3:
        raise FormatError(f"zone vertex count {total} is not in 3..65535{_at(addr)}")
    coords = struct.unpack_from(f">{2 * count}i", page, ZONE_VERTS_OFF)
    verts = tuple(zip(coords[::2], coords[1::2]))
    return ObjectView(kind, object_id, None, None, total, verts, int.from_bytes(page[9:12], "big"))


# -- update packages (FORMAT.md, "Update package") -----------------------------

UPDATE_MAGIC = b"FQUP"
_UPDATE_HEADER = struct.Struct("<III")  # base version, new version, page count
_UPDATE_RECORD = 3 + PAGE_SIZE  # a page's address (u24) and its bytes
UpdatePackage = namedtuple("UpdatePackage", "base_version new_version pages new_root")  # pages: [(addr, bytes)]


def encode_update(base_version: int, new_version: int, pages: Sequence[tuple[int, bytes]], new_root: int) -> bytes:
    """The package moving ``base_version`` to ``new_version``: ``pages`` (addr, bytes), then ``new_root``."""
    out = bytearray(UPDATE_MAGIC + _UPDATE_HEADER.pack(base_version, new_version, len(pages)))
    for addr, data in pages:
        out += addr.to_bytes(3, "big") + data
    out += new_root.to_bytes(3, "big")
    return bytes(out + zlib.crc32(out).to_bytes(4, "little"))


def parse_update(pkg: bytes) -> UpdatePackage:
    """Parse an update package, refusing a bad magic, checksum or length and addresses that do not ascend."""
    if len(pkg) < 23 or pkg[:4] != UPDATE_MAGIC:
        raise FormatError("not an update package")
    if int.from_bytes(pkg[-4:], "little") != zlib.crc32(pkg[:-4]):
        raise IntegrityError("update package checksum mismatch")
    base_v, new_v, count = _UPDATE_HEADER.unpack_from(pkg, 4)
    expected = 16 + count * _UPDATE_RECORD + 3 + 4
    if len(pkg) != expected:
        raise FormatError(f"update package is {len(pkg)} bytes, header implies {expected}")
    pages: list[tuple[int, bytes]] = []
    for k, pos in enumerate(range(16, expected - 7, _UPDATE_RECORD)):
        addr = int.from_bytes(pkg[pos : pos + 3], "big")
        if pages and addr <= pages[-1][0]:
            raise FormatError(f"package record {k} names page {addr} after {pages[-1][0]}: not ascending")
        pages.append((addr, pkg[pos + 3 : pos + _UPDATE_RECORD]))
    return UpdatePackage(base_v, new_v, pages, int.from_bytes(pkg[-7:-4], "big"))


# -- version records ----------------------------------------------------------

VERSION_MAGIC = b"FQ"
VERSION_RECORD_SIZE = 16
VERSION_FLAGS_OFF = 12
VERSION_CRC_OFF = 13
SLOTS_PER_PAGE = PAGE_SIZE // VERSION_RECORD_SIZE  # 16 version slots on a directory page
_BLANK_SLOT = b"\xff" * VERSION_RECORD_SIZE
_BLANK_PAGE = _BLANK_SLOT * SLOTS_PER_PAGE


@dataclass(frozen=True)
class VersionRecord:
    version_no: int
    root_page: int
    alloc_cursor: int


def encode_version_record(rec: VersionRecord) -> bytes:
    if not 1 <= rec.version_no < 1 << 32:
        raise FormatError(f"version number {rec.version_no} out of range")
    for name, v in (("root_page", rec.root_page), ("alloc_cursor", rec.alloc_cursor)):
        if not 0 <= v <= ADDR_MASK:
            raise FormatError(f"{name} {v} does not fit in {ADDR_BITS} bits")
    buf = bytearray(b"\xff" * VERSION_RECORD_SIZE)
    buf[0:2] = VERSION_MAGIC
    buf[2:6] = rec.version_no.to_bytes(4, "big")
    buf[6:9] = rec.root_page.to_bytes(3, "big")
    buf[9:12] = rec.alloc_cursor.to_bytes(3, "big")
    # flags byte stays 0xFF (erased state == valid); bit0 is cleared to revoke
    buf[VERSION_CRC_OFF : VERSION_CRC_OFF + 2] = crc16(bytes(buf[:VERSION_FLAGS_OFF])).to_bytes(2, "big")
    return bytes(buf)


def decode_version_slot(slot: bytes) -> tuple[str, VersionRecord | None]:
    """Classify a 16-byte directory slot.

    Returns one of ``("blank", None)``, ``("live", rec)``, ``("revoked", rec)``,
    ``("torn", None)`` or ``("invalid", None)``.  A slot that fails magic or
    CRC is torn when its last two bytes are still 0xFF: an append cut short
    programs a prefix of the record, and the CRC's second byte is the last
    one written.  Any other failing slot is invalid: damage.
    """
    if len(slot) != VERSION_RECORD_SIZE:
        raise FormatError("version slot must be 16 bytes")
    if slot == _BLANK_SLOT:
        return "blank", None
    stored = int.from_bytes(slot[VERSION_CRC_OFF : VERSION_CRC_OFF + 2], "big")
    if slot[0:2] != VERSION_MAGIC or stored != crc16(slot[:VERSION_FLAGS_OFF]):
        return ("torn" if slot[VERSION_CRC_OFF + 1 :] == b"\xff\xff" else "invalid"), None
    rec = VersionRecord(
        version_no=int.from_bytes(slot[2:6], "big"),
        root_page=int.from_bytes(slot[6:9], "big"),
        alloc_cursor=int.from_bytes(slot[9:12], "big"),
    )
    state = "live" if slot[VERSION_FLAGS_OFF] & 0x01 else "revoked"
    return state, rec


def directory_slots(page: bytes, first: int = 0) -> list[tuple[str, VersionRecord | None]]:
    """The slots of a directory page from slot ``first`` on, in order, each classified by ``decode_version_slot``."""
    start = first * VERSION_RECORD_SIZE
    if page[start:] == _BLANK_PAGE[start:]:  # most of a directory, and the end of a log: nothing to decode
        return [("blank", None)] * (SLOTS_PER_PAGE - first)
    return [decode_version_slot(page[k : k + VERSION_RECORD_SIZE]) for k in range(start, PAGE_SIZE, VERSION_RECORD_SIZE)]


def directory_page_with(page: bytes, slot: int, records: Sequence[VersionRecord]) -> bytes:
    """Directory page ``page`` with ``records`` written into its slots from ``slot`` on."""
    buf = bytearray(page)
    for k, rec in enumerate(records, slot):
        buf[k * VERSION_RECORD_SIZE : (k + 1) * VERSION_RECORD_SIZE] = encode_version_record(rec)
    return bytes(buf)


def revoke_directory_slot(page: bytes, slot: int) -> bytes:
    """Directory page ``page`` with the valid bit of ``slot`` cleared (a pure 1 -> 0 change)."""
    buf = bytearray(page)
    buf[slot * VERSION_RECORD_SIZE + VERSION_FLAGS_OFF] &= 0xFE
    return bytes(buf)


def page_kind(page: bytes) -> str:
    """Best-effort classification of a raw page by magic byte."""
    b = page[0]
    if b == NODE_MAGIC:
        return "node"
    if b == LEAF_MAGIC:
        return "leaf"
    if b == OBJ_MAGIC:
        return "object"
    if page == b"\xff" * PAGE_SIZE:
        return "erased"
    return "unknown"
