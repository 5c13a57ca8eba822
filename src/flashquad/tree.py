"""Copy-on-write tree operations over flash pages.

The index is an 81-way region tree: every node partitions its cell into a
9x9 grid, and each of the 81 entries is Empty, a child node, or a leaf
list holding object records.  Updates never touch existing pages; they
write new leaf/node pages bottom-up and finish with a new root, so every
previously committed root keeps describing a complete, readable tree.

Three record kinds live in leaf lists: point records for gantries, and
inside/edge records for zones.  A point record carries its gantry's id and
position, which every leaf page written repeats after its records, so a
disc query reads no gantry object page; a chain is filled page by page as
far as those bytes go.  A zone is decomposed from the top cell:
cells wholly inside get an inside record at the level where that is
detected, boundary cells get edge records once ``zone_max_depth`` is
reached.  The root cell itself cannot be a leaf entry (the root is always
a node page), so records attaching to it go into the root's self_list
slot.

There is one way to add objects, ``TreeEditor.load``; an insert is a
one-object load.  Its descent builds an empty entry top down, appends the
new records to a leaf that does not split (extending the head page, then
chaining new pages in front of it), rebuilds a leaf that does split, and
patches only the changed entry words of a node.  A delete takes the same
descent (``TreeEditor._patch_node``): its targets become the load's item
shapes, the leaf chains and self lists it meets are filtered, and a node
left empty collapses into its parent.  Structural rules when a cell has to
change shape:

* a leaf list whose point count would exceed ``leaf_split_threshold``
  splits into a node, points redistributed by subcell (repeatedly, until
  they separate or ``max_depth`` stops it);
* zone records on a splitting cell are pushed into all children they
  re-classify into at the child level;
* a zone that must be decomposed below a list-holding cell forces the
  same split.

This module does not know about versions or allocation policy; it reads
and writes through a small page-IO object (the store) that provides
``read_page``, ``alloc_page``, ``program_page`` and ``write_page``; a
handle's queries count their reads and hits on its ``cache``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import codec
from .codec import (
    ADDR_MASK,
    ENTRY_EMPTY,
    GANTRY,
    KIND_POINT,
    KIND_ZONE_EDGE,
    KIND_ZONE_INSIDE,
    LEAF_BYTES,
    NO_PAGE,
    NODE_FANOUT,
    ZONE,
    ZONE_CONT,
    BuildParams,
    GantryObject,
    LeafRecord,
    NodeView,
    ObjectView,
    ZoneObject,
    encode_gantry,
    encode_leaf_list,
    encode_node,
    encode_zone,
    entry_addr,
    entry_is_child,
    entry_is_empty,
    entry_is_leaf,
    leaf_list_view,
    make_child,
    make_leaf,
    node_view,
    node_with_entry,
    object_view,
    record_bytes,
    zone_page_count,
)
from .errors import (
    ConflictError,
    DomainError,
    FormatError,
    IntegrityError,
)
from .geometry import (
    TOP_CELL,
    Cell,
    CellClass,
    cell_contains,
    cell_index,
    check_ints,
    classify_cell,
    classify_children,
    disc_mask,
    disc_slack,
    in_world,
    point_in_polygon,
    subcell,
    validate_polygon,
)

PAGE_SIZE = codec.PAGE_SIZE
_MIB = 1024 * 1024

# zone placement modes
_INSIDE = 1  # attach an inside record at this cell
_EDGE = 2  # attach an edge record at this cell
_DESCEND = 3  # boundary cell above zone_max_depth: place records deeper


class QueryHit(NamedTuple):
    object_id: int
    kind: str  # GANTRY or ZONE
    basis: str  # "inside-entry" | "edge-test" | "distance"
    position: Optional[tuple[int, int]] = None  # gantry location


class QueryResult(NamedTuple):
    hits: tuple[QueryHit, ...]
    pages_read: int  # device reads: the query's cache misses
    cache_hits: int

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(h.object_id for h in self.hits)


_STAT_ROWS = (
    ("a", "objects", "Number of objects in database"),
    ("b", "total_pages", "Flash pages for index and data"),
    ("c", "total_mib", "Size (MiB)"),
    ("d", "index_pages", "Flash pages for index"),
    ("e", "leaf_refs", "Objects referenced by leafs"),
    ("f", "refs_per_object", "Leaf nodes per object"),
    ("g", "empty_entries", "Leaf entries not used, empty"),
    ("h", "used_entries", "Leaf entries set"),
    ("i", "max_depth", "Max index tree depth"),
    ("j", "zone_inside", "Zone inside entries"),
    ("k", "zone_edge", "Zone edge entries"),
    ("l", "distinct_leaf_pages", "Distinct leaf pages"),
    ("m", "leaf_pages", "Total leaf pages"),
    ("n", "duplicate_leaf_pages", "Duplicate leaf pages"),
    ("o", "pages_deduped", "Flash pages, dups removed"),
    ("p", "mib_deduped", "Size, dups removed (MiB)"),
    ("q", "index_pages_deduped", "Index pages, dups removed"),
    ("r", "index_mib_deduped", "Size of index, dups removed (MiB)"),
)


@dataclass(frozen=True)
class StatsReport:
    """Structure accounting for one version (rows a..r of `rows()`).

    "Index" covers node and leaf-list pages; object pages are data.  Leaf
    pages are counted per reference (a page shared by several entries
    counts once per entry), so ``leaf_pages`` minus ``distinct_leaf_pages``
    is the number of pages content sharing saves.  ``max_depth`` is the
    level of the deepest cell holding records, counting the top cell as
    level 0.
    """

    objects: int
    total_pages: int
    total_mib: float
    index_pages: int
    leaf_refs: int
    refs_per_object: float
    empty_entries: int
    used_entries: int
    max_depth: int
    zone_inside: int
    zone_edge: int
    distinct_leaf_pages: int
    leaf_pages: int
    duplicate_leaf_pages: int
    pages_deduped: int
    mib_deduped: float
    index_pages_deduped: int
    index_mib_deduped: float

    def rows(self) -> list[tuple[str, str, object]]:
        return [(letter, desc, getattr(self, name)) for letter, name, desc in _STAT_ROWS]


# ---------------------------------------------------------------------------
# page reader


# What a reachable page is: a node's level (0..MAX_NODE_LEVEL), LEAF, or an object kind.
Role = int | str
LEAF = "leaf"


def _role_name(role: Role) -> str:
    """How every message names a page's role or an object page's kind."""
    return f"level-{role} node" if isinstance(role, int) else role.replace("_", " ")


class PageReader:
    """The one way to read tree pages: nodes, leaf chains and objects.

    Every page comes from ``read(addr)``, so a store's cache counts each
    request.  Node and leaf decodes are checked and memoized by content in
    the codec; objects are checked there and memoized here by address and
    kind for the reader's life, so an operation reads each object once.
    Damage raises ``FormatError`` or ``IntegrityError`` naming the page.
    """

    def __init__(self, read: Callable[[int], bytes], total_pages: Optional[int] = None):
        self._read = read
        self._total_pages = total_pages
        self._objects: dict[tuple[int, str], GantryObject | ZoneObject] = {}

    def node(self, addr: int) -> NodeView:
        """The checked view of the node page at ``addr``."""
        return node_view(self._read(addr), self._total_pages, addr)

    def chain(self, head: int) -> Iterator[tuple[tuple[LeafRecord, ...], int]]:
        """(records, next) of each page of the leaf chain at ``head``, read one at a time."""
        seen: set[int] = set()
        addr = head
        while addr != NO_PAGE:
            view = leaf_list_view(self._read(addr), self._total_pages, addr=addr)
            yield view
            seen.add(addr)
            addr = view[1]
            if addr in seen:
                raise IntegrityError(f"leaf chain loops at page {addr}")

    def object(self, addr: int, kind: str) -> GantryObject | ZoneObject:
        """The ``kind`` (GANTRY or ZONE) object at ``addr``, a zone's pages joined and checked."""
        obj = self._objects.get((addr, kind))
        if obj is None:
            view = self._head(addr, kind)
            if kind == GANTRY:
                obj = GantryObject(view.object_id, view.x, view.y)
            else:
                oid, verts, seen = view.object_id, list(view.vertices), {addr}
                at, nxt = addr, view.next
                while nxt != NO_PAGE:
                    if nxt in seen:
                        raise IntegrityError(f"zone {oid} page chain loops at page {nxt}")
                    if self._total_pages is not None and nxt >= self._total_pages:
                        raise FormatError(f"zone {oid} next pointer past end of device at page {at}")
                    seen.add(nxt)
                    cont = object_view(self._read(nxt), nxt)
                    if cont.kind != ZONE_CONT or cont.object_id != oid:
                        raise IntegrityError(f"zone {oid} has a bad continuation at page {nxt}")
                    verts += cont.vertices
                    at, nxt = nxt, cont.next
                if len(verts) != view.vertex_count:
                    raise IntegrityError(
                        f"zone {oid} at page {addr} stores {len(verts)} vertices, header says {view.vertex_count}"
                    )
                obj = ZoneObject(oid, tuple(verts))
            self._objects[addr, kind] = obj
        return obj

    def zone_id(self, addr: int) -> int:
        """The id of the zone whose head page is ``addr``, read from that page alone."""
        return (self._objects.get((addr, ZONE)) or self._head(addr, ZONE)).object_id

    def _head(self, addr: int, kind: str) -> ObjectView:
        """The view of the page at ``addr``, which must be a ``kind`` page: a gantry's or a zone's head."""
        view = object_view(self._read(addr), addr)
        if view.kind != kind:
            raise IntegrityError(f"object page {addr} is a {_role_name(view.kind)}, expected {_role_name(kind)}")
        return view


# ---------------------------------------------------------------------------
# reference counts


def _page_refs(page: bytes, role: Role, addr: int, total_pages: Optional[int]) -> dict[int, Role]:
    """The pages ``page`` references, each once, with the role it gives each.

    This is the one statement of what a page may reference.  Raises
    ``FormatError`` or ``IntegrityError`` naming the page when the page is
    damaged or its references break the tree's rules.  A node's view is
    checked in full (every word's tag and range, in entry order) before
    any rule on what its words name.
    """
    if role == GANTRY:
        return {}
    if role in (ZONE, ZONE_CONT):
        nxt = object_view(page, addr).next
        return {} if nxt == NO_PAGE else {nxt: ZONE_CONT}
    if role == LEAF:
        records, nxt = leaf_list_view(page, total_pages, addr=addr)
        refs: dict[int, Role] = {} if nxt == NO_PAGE else {nxt: LEAF}
        for rec in records:
            want = GANTRY if rec.kind == KIND_POINT else ZONE
            have = refs.setdefault(rec.object_page, want)
            if have != want:
                raise IntegrityError(
                    f"leaf page {addr} names page {rec.object_page} as both a {_role_name(have)} "
                    f"and a {_role_name(want)}"
                )
        return refs
    view = node_view(page, total_pages, addr)
    if view.level != role:
        raise IntegrityError(f"node {addr} has level {view.level}, expected {role}")
    refs = {} if view.self_list == ENTRY_EMPTY else {view.self_list & ADDR_MASK: LEAF}
    words = [word for word in view.entries if word != ENTRY_EMPTY]  # the occupied entries' words, in entry order
    for k, word in enumerate(words):
        child = word & ADDR_MASK
        if word > ADDR_MASK:  # a leaf-list entry; dedup lets several entries share one
            if refs.setdefault(child, LEAF) != LEAF:
                raise _first_conflict(words, k, f"node {addr} names page {child} as both a node and a leaf list")
        elif role >= codec.MAX_NODE_LEVEL:
            raise IntegrityError(f"node {addr} at level {role} has a child entry")
        elif child in refs:
            raise _first_conflict(words, k, f"node page {child} reachable twice")
        else:
            refs[child] = role + 1
    return refs


def _first_conflict(words: list[int], k: int, problem: str) -> IntegrityError:
    """The error for a node whose entry ``words[k]`` breaks a rule: ``problem``, or an earlier one.

    A child word named by more than one entry is refused at its first
    entry, so the first such word before ``k`` is reported instead.
    """
    for word in words[:k]:
        if word <= ADDR_MASK and words.count(word) > 1:
            return IntegrityError(f"node page {word} reachable twice")
    return IntegrityError(problem)


class CountDelta:
    """Changes to a ``RefCounts`` table from adding and dropping roots.

    ``add`` counts one more reference to a root, ``drop`` one less.  A page
    is read only when its count goes from 0 to 1 or falls to 0, and at most
    once per delta.  The table is left as it is; ``RefCounts.install``
    applies the delta.
    """

    def __init__(self, refs: "RefCounts", read: Callable[[int], bytes], total_pages: Optional[int]):
        self._refs = refs
        self._read = read
        self._total_pages = total_pages
        self._reader = PageReader(self._read_once, total_pages)
        self.counts: dict[int, int] = {}  # new count of every page whose count changed; 0 = unreachable now
        self.born: dict[int, Role] = {}  # pages that became reachable
        self.pages: dict[int, bytes] = {}  # every page read
        self.new_objects: dict[int, tuple[str, int]] = {}  # head -> (kind, id) of objects that became reachable
        self.gantries: dict[int, GantryObject] = {}  # page -> gantry of the gantry pages that became reachable
        self.problems: list[str] = []  # damage ``add`` found, each naming a page

    def _read_once(self, addr: int) -> bytes:
        raw = self.pages.get(addr)
        if raw is None:
            raw = self.pages[addr] = self._read(addr)
        return raw

    def role(self, addr: int) -> Role:
        return self.born[addr] if addr in self.born else self._refs.roles[addr]

    @property
    def leaf_pages(self) -> dict[int, bytes]:
        """The bytes of every leaf page that became reachable."""
        return {addr: self.pages[addr] for addr, role in self.born.items() if role == LEAF}

    def add(self, root: int, role: Role = 0) -> list[int]:
        """Count one more reference to ``root``, a page in ``role`` (the root node by default).

        Returns the pages that became reachable.  A page is read only when
        its count goes from 0 to 1, and then gets every check: ``_page_refs``
        on its bytes, and the object reader's on an object's pages.  A page already counted is not read; the role it
        is referenced in must be the one it has.  A leaf page's coordinates
        appendix must agree with the gantry pages it names, which this delta
        read or the table already holds.  Damage goes to ``problems`` and
        stops the descent at the damaged page.
        """
        fresh: list[int] = []
        counts, table, born, roles = self.counts, self._refs.counts, self.born, self._refs.roles
        open_: set[int] = set()  # leaf pages of the chain being followed
        listed: list[tuple[int, tuple[LeafRecord, ...]]] = []  # (page, records) of each leaf page
        stack: list[tuple[int, Optional[Role]]] = [(root, role)]  # (page, role), or (leaf page, None) to close it
        while stack:
            addr, role = stack.pop()
            if role is None:
                open_.discard(addr)
                continue
            c = counts.get(addr)
            if c is None:
                c = table.get(addr, 0)
            counts[addr] = c + 1
            if c:
                have = born[addr] if addr in born else roles[addr]
                if have != role:
                    self.problems.append(f"page {addr} is a {_role_name(have)}, expected a {_role_name(role)}")
                elif addr in open_:
                    self.problems.append(f"leaf chain loops at page {addr}")
                continue
            born[addr] = role
            fresh.append(addr)
            try:
                if role in (GANTRY, ZONE):  # a zone reads and checks all its pages here
                    obj = self._reader.object(addr, role)
                    self.new_objects[addr] = (role, obj.object_id)
                    if role == GANTRY:
                        self.gantries[addr] = obj
                raw = self._read_once(addr)
                refs = _page_refs(raw, role, addr, self._total_pages)
            except (FormatError, IntegrityError) as e:
                self.problems.append(str(e))
                continue
            if role == LEAF:  # levels keep a node off its own path, and the reader checks zone chains
                open_.add(addr)
                stack.append((addr, None))
                listed.append((addr, leaf_list_view(raw, self._total_pages)[0]))
            stack.extend(refs.items())
        new, known = self.gantries, self._refs.gantries
        for leaf, records in listed:  # every gantry page named is now read or known to the table
            for rec in records:
                a = rec.gantry  # a point record read from a page with the appendix
                if a is not None:
                    g = new.get(rec.object_page) or known.get(rec.object_page)
                    if g is not None and g != a:
                        self.problems.append(
                            f"leaf page {leaf} lists gantry {a.object_id} at ({a.x}, {a.y}) for page {rec.object_page}, "
                            f"which holds gantry {g.object_id} at ({g.x}, {g.y})"
                        )
        return fresh

    def drop(self, root: int) -> list[int]:
        """Count one reference less to ``root``; returns the pages whose count fell to 0.

        A page is read only when its count falls to 0.  Raises
        ``FormatError`` or ``IntegrityError`` naming a damaged page.
        """
        gone: list[int] = []
        counts, table = self.counts, self._refs.counts
        work = [root]
        while work:
            addr = work.pop()
            c = counts.get(addr)
            c = counts[addr] = (table.get(addr, 0) if c is None else c) - 1
            if not c:
                gone.append(addr)
                work.extend(_page_refs(self._read_once(addr), self.role(addr), addr, self._total_pages))
        return gone

    def nodes_named_twice(self) -> list[str]:
        """A problem for each node page of one version counted more than once: a node has one parent."""
        return [
            f"node page {addr} reachable twice"
            for addr, c in self.counts.items()
            if c > 1 and isinstance(self.role(addr), int)
        ]

    def changed_heads(self, heads_of: Callable[[int], dict[int, str]]) -> dict[int, dict[int, str]]:
        """Object id -> {head page: kind} after this delta, for each id whose heads it changes.

        ``heads_of(oid)`` gives an id's heads before the delta; an id whose
        last head became unreachable maps to an empty dict.
        """
        out: dict[int, dict[int, str]] = {}

        def heads(oid: int) -> dict[int, str]:
            if oid not in out:
                out[oid] = dict(heads_of(oid))
            return out[oid]

        for addr, c in self.counts.items():
            if not c and self.role(addr) in (GANTRY, ZONE):
                del heads(object_view(self.pages[addr], addr).object_id)[addr]
        for head, (kind, oid) in self.new_objects.items():
            heads(oid)[head] = kind
        return out


class RefCounts:
    """Reference counts of one version's tree, kept so a version step costs what changed.

    ``counts`` maps every reachable page to the number of reachable pages
    that reference it -- through node entries, self lists, leaf ``next``
    links, leaf records and zone continuation links -- each referencing page
    counting once; the root counts one more.  A leaf page shared by dedup
    or a zone object named by many leaf pages has a count above one.
    ``roles`` says what each reachable page is, ``objects`` maps an
    object id to {head page: kind} (one id may name several object pages),
    and ``gantries`` maps each gantry page to its gantry, against which a
    new leaf page's coordinates are checked without a read.
    A new table is empty; adding a root to it counts that version.  This is
    refcounted shadowing as in Rodeh, "B-trees, Shadowing, and Clones" (ACM
    TOS 2008).
    """

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.roles: dict[int, Role] = {}
        self.objects: dict[int, dict[int, str]] = {}
        self.gantries: dict[int, GantryObject] = {}

    def diff(
        self, read: Callable[[int], bytes], base_root: int, new_root: int, total_pages: Optional[int] = None
    ) -> CountDelta:
        """The counts of the tree at ``new_root``, from these counts of the tree at ``base_root``.

        Adds the new root, then drops the base root.  Raises
        ``IntegrityError`` naming the first damaged page, or the first node
        the new tree names twice.
        """
        d = CountDelta(self, read, total_pages)
        d.add(new_root)
        if d.problems:
            raise IntegrityError(d.problems[0])
        d.drop(base_root)
        twice = d.nodes_named_twice()
        if twice:
            raise IntegrityError(twice[0])
        return d

    def install(self, d: CountDelta) -> None:
        """Apply a delta of these counts: they become the counts of its new version."""
        counts, roles, objects, gantries = self.counts, self.roles, self.objects, self.gantries
        changed = d.changed_heads(lambda oid: objects.get(oid, {}))
        roles.update(d.born)
        gantries.update(d.gantries)
        for addr, c in d.counts.items():
            if c:
                counts[addr] = c
            else:
                del counts[addr], roles[addr]
                gantries.pop(addr, None)
        for oid, heads in changed.items():
            if heads:
                objects[oid] = heads
            else:
                del objects[oid]


_NO_WORDS = (ENTRY_EMPTY,) * (NODE_FANOUT + 1)


def _checked_node(page: bytes, level: int, addr: int, total_pages: Optional[int]) -> NodeView:
    """The view of the level-``level`` node at ``addr``, given every check ``_page_refs`` makes of a node."""
    _page_refs(page, level, addr, total_pages)
    return node_view(page, total_pages, addr)


def lockstep_check(
    read: Callable[[int], bytes], package: dict[int, bytes], base_root: int, new_root: int, total_pages: int
) -> set[int]:
    """Check the tree at ``new_root``, whose new pages are ``package``, in lockstep with the tree at ``base_root``.

    Both trees are descended together; ``read`` gives the base pages, and
    only the path nodes and the leaf chains the package replaces are read.
    At each package node, every occupied entry and the self list is
    compared with the base word at the same index.  An equal word is shared
    and not descended.  A differing node entry must name a package page,
    which is checked against the base child at that index, or against
    nothing.  A differing leaf-list word is counted by ``CountDelta.add``
    against a table holding the replaced chains and the objects their
    records name, so only other pages are read, each once and checked in
    the role it is named in.  A new root equal to the base root is accepted.

    Returns the pages outside the package that the check read.  Raises
    ``FormatError`` or ``IntegrityError`` naming the first page that does
    not check: damage on either side, a package node reached twice, a node
    outside the package, a chain loop, a page named in two roles, or an
    appendix entry that disagrees with its gantry.
    """
    if new_root == base_root:
        return set()
    known = RefCounts()
    d = CountDelta(known, lambda addr: package.get(addr) or read(addr), total_pages)
    base_reader = PageReader(read, total_pages)
    nodes: set[int] = set()
    stack: list[tuple[int, Optional[int], int]] = [(new_root, base_root, 0)]  # (package node, base node or None, level)
    while stack:
        addr, base, level = stack.pop()
        if addr not in package:
            raise IntegrityError(f"the new tree names node page {addr}, which the package does not hold")
        if addr in nodes:
            raise IntegrityError(f"node page {addr} reachable twice")
        nodes.add(addr)
        new = _checked_node(package[addr], level, addr, total_pages)
        if base is None:
            old_words = _NO_WORDS
        else:
            old = _checked_node(read(base), level, base, total_pages)
            old_words = (*old.entries, old.self_list)
        for word, was in zip((*new.entries, new.self_list), old_words):
            if word == was or word == ENTRY_EMPTY:
                continue
            if entry_is_leaf(was):
                _learn_chain(base_reader, entry_addr(was), known)
            if entry_is_child(word):
                stack.append((entry_addr(word), entry_addr(was) if entry_is_child(was) else None, level + 1))
                continue
            d.add(entry_addr(word), LEAF)
            if d.problems:
                raise IntegrityError(d.problems[0])
    return {addr for addr in d.pages if addr not in package}


def _learn_chain(reader: PageReader, head: int, known: RefCounts) -> None:
    """Enter the base leaf chain at ``head`` in ``known``: its pages, and the objects its records name.

    A gantry is entered only with the coordinates its record carries, so a
    gantry named without them is read when the new tree names it.  A chain
    entered already (dedup lets several entries share one) is not read again.
    """
    if head in known.counts:
        return
    addr = head
    for records, nxt in reader.chain(head):
        known.counts[addr], known.roles[addr] = 1, LEAF
        for rec in records:
            if rec.kind != KIND_POINT:
                known.counts[rec.object_page], known.roles[rec.object_page] = 1, ZONE
            elif rec.gantry is not None:
                known.counts[rec.object_page], known.roles[rec.object_page] = 1, GANTRY
                known.gantries[rec.object_page] = rec.gantry
        addr = nxt


# ---------------------------------------------------------------------------
# full traversal


@dataclass
class WalkReport:
    """What one full traversal of a version finds (see ``walk_version``)."""

    root: int
    pages: dict[int, bytes]  # every page read, by address
    roles: dict[int, Role]  # what each page reached is
    objects: dict[int, tuple[str, int]]  # head -> (kind, id) of every object loaded
    problems: list[str]
    total_pages: Optional[int]  # the device size the pages were checked against

    @property
    def reachable(self) -> frozenset[int]:
        """Every page the walk read (on a damaged version, undecodable ones too)."""
        return frozenset(self.pages)

    @property
    def nodes(self) -> dict[int, int]:
        """Node page -> level."""
        return {addr: role for addr, role in self.roles.items() if isinstance(role, int)}

    @property
    def leaf_pages(self) -> dict[int, bytes]:
        """Leaf page -> its bytes."""
        return {addr: self.pages[addr] for addr, role in self.roles.items() if role == LEAF}

    @property
    def object_pages(self) -> set[int]:
        """Pages read that are neither nodes nor leaf lists: objects and zone continuations."""
        return set(self.pages).difference(self.nodes, self.leaf_pages)


def walk_version(
    read: Callable[[int], bytes], root_page: int, total_pages: Optional[int] = None
) -> WalkReport:
    """Traverse every page reachable from ``root_page``, reading each once.

    This is ``CountDelta.add`` on an empty table, so it checks what a
    commit checks.  It collects integrity problems instead of raising, so
    verification can report everything it finds; descent stops at each
    damaged page.
    """
    d = CountDelta(RefCounts(), read, total_pages)
    d.add(root_page)
    return WalkReport(root_page, d.pages, d.born, d.new_objects, d.problems + d.nodes_named_twice(), total_pages)


def stats_from_walk(rep: WalkReport) -> StatsReport:
    if rep.problems:
        raise IntegrityError("; ".join(rep.problems[:8]))
    nodes = rep.nodes
    reader = PageReader(rep.pages.__getitem__, rep.total_pages)
    heads: Counter = Counter()  # leaf chain head -> entries and self lists naming it
    empty = attach = 0
    for addr, level in nodes.items():
        node = reader.node(addr)
        uses = Counter(node.entries)  # dedup lets entries share a chain; each counts
        empty += uses.pop(ENTRY_EMPTY, 0)
        for word, times in uses.items():
            if entry_is_leaf(word):
                heads[entry_addr(word)] += times
                attach = max(attach, level + 1)
        if node.self_list != ENTRY_EMPTY:
            heads[entry_addr(node.self_list)] += 1
            attach = max(attach, level)
    m = leaf_refs = inside = edge = 0  # leaf pages, records, inside and edge records, per reference
    for head, times in heads.items():
        for records, _ in reader.chain(head):
            m += times
            leaf_refs += len(records) * times
            inside += sum(rec.kind == KIND_ZONE_INSIDE for rec in records) * times
            edge += sum(rec.kind == KIND_ZONE_EDGE for rec in records) * times
    node_count = len(nodes)
    l = len(set(rep.leaf_pages.values()))
    n = m - l
    a = len(rep.objects)
    b = node_count + m + len(rep.object_pages)
    d = node_count + m
    return StatsReport(
        objects=a,
        total_pages=b,
        total_mib=b * PAGE_SIZE / _MIB,
        index_pages=d,
        leaf_refs=leaf_refs,
        refs_per_object=(leaf_refs / a) if a else 0.0,
        empty_entries=empty,
        used_entries=NODE_FANOUT * node_count - empty,
        max_depth=attach,
        zone_inside=inside,
        zone_edge=edge,
        distinct_leaf_pages=l,
        leaf_pages=m,
        duplicate_leaf_pages=n,
        pages_deduped=b - n,
        mib_deduped=(b - n) * PAGE_SIZE / _MIB,
        index_pages_deduped=d - n,
        index_mib_deduped=(d - n) * PAGE_SIZE / _MIB,
    )


# ---------------------------------------------------------------------------
# query answers


def _zone_hits(met: Sequence[tuple[int, Optional[tuple]]], x: int, y: int) -> dict[int, QueryHit]:
    """The zones containing (x, y) among the records a descent met, in the order it met them."""
    found: dict[int, QueryHit] = {}
    for zid, vertices in met:
        if vertices is None:
            found[zid] = QueryHit(zid, ZONE, "inside-entry")
        elif zid not in found and point_in_polygon(x, y, vertices):
            found[zid] = QueryHit(zid, ZONE, "edge-test")
    return found


def _gantry_hits(candidates: Sequence[GantryObject], x: int, y: int, radius: int) -> dict[int, QueryHit]:
    """The candidate gantries within ``radius`` of (x, y)."""
    r2 = radius * radius
    return {
        g.object_id: QueryHit(g.object_id, GANTRY, "distance", (g.x, g.y))
        for g in candidates
        if (g.x - x) * (g.x - x) + (g.y - y) * (g.y - y) <= r2
    }


# ---------------------------------------------------------------------------
# read-only handle


_SLACK_CAP = 1_000  # metres: the largest validity disc a disc memo takes


def _reanchor(memo: tuple, x: int, y: int) -> bool:
    """Whether the disc memo holds at (x, y): every node it visited meets the disc as before.

    When it does, its validity disc moves to (x, y), with the slack
    ``disc_slack`` finds in the same pass: at each node it looks only at
    the occupied subcells within r + s of (x, y), s being the slack so far,
    since a farther one neither meets the disc nor has a smaller gap.  The
    nodes visited last, the deepest, whose subcells are smallest, go first,
    so their slack narrows the reach in the coarser ones.
    """
    s = disc_slack(reversed(memo[1]), x, y, memo[0], _SLACK_CAP)
    if s is None:
        return False
    memo[4][:] = x, y, s * s
    return True


class Handle:
    """Read-only view of one version's tree.

    All page access goes through the store's cache; a query's device reads
    and cache hits are the change in the cache's own miss and hit counters,
    so a warm cache shows up as cache hits, not reads.

    Each query kind keeps a memo of its last full run, a validity region in
    the sense of Zhang, Zhu, Papadias, Tao & Lee ("Location-based Spatial
    Queries", SIGMOD 2003): the ``(address, page)`` requests of that run,
    in order, and what it met before the exact per-point tests.  The memo
    holds for a zone query whose point lies in the last descent's terminal
    cell (the subcell whose entry was a leaf or Empty), and for a disc
    query of the same radius whose disc meets the same occupied entries at
    every node the last one visited.  Such a query would make the very same
    page requests, since its descent depends on nothing else.

    The disc memo also keeps a validity disc, as in Tao & Papadias
    ("Time-Parameterized Queries in Spatio-Temporal Databases", SIGMOD
    2002): an anchor centre and a slack s in whole metres, such that a
    disc centred less than s from the anchor meets the same occupied
    entries at every visited node (``geometry.disc_slack``, in exact
    integers, at most ``_SLACK_CAP``).  A centre within s of the anchor is
    answered with no geometry at all.  Any other centre gets the exact
    check of every visited node; when that passes, the anchor moves there
    and its slack is found in the same pass.  A full query leaves a slack
    of 0, so it pays for no slack, and the next query makes the check.

    A memo answers only when that check passes and every recorded page is
    in the cache as the very object recorded, in one call
    (``PageCache.hit_all``): each request would be a hit that evicts
    nothing, so the cache's counters and LRU order, the device reads and
    ``QueryResult`` are exactly a full query's.  Only the exact tests are
    run again: point in polygon for edge zones, the distance for candidate
    gantries.  Otherwise the query runs in full, from its first request,
    and its run becomes the memo.  A page reprogrammed or erased since (the
    version was revoked and its pages reused) enters the cache as a new
    object, so ``hit_all`` refuses it, and the full query reads and decodes
    what the page holds now.

    A coordinate or radius that is not an int, or is a bool, is refused
    with ``DomainError`` before any page request, and the memos stay.
    """

    def __init__(self, io, root_page: int, version_no: int):
        self._io = io
        self.root_page = root_page
        self.version_no = version_no
        self._zone_memo = None  # (terminal cell, page requests, zone records met)
        # (radius, (cell, occupied, met) per node visited, page requests, candidates, [anchor x, y, slack**2])
        self._disc_memo = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Handle(version={self.version_no}, root={self.root_page})"

    def _result(self, found: dict[int, QueryHit], before: tuple[int, int]) -> QueryResult:
        cache = self._io.cache
        return QueryResult(
            tuple(sorted(found.values(), key=lambda h: h.object_id)), cache.misses - before[0], cache.hits - before[1]
        )

    def _recorder(self, log: list[tuple[int, bytes]]) -> PageReader:
        """A reader that appends each request, as ``(address, page)``, to ``log``."""
        read = self._io.read_page

        def record(addr: int) -> bytes:
            page = read(addr)
            log.append((addr, page))
            return page

        return PageReader(record, self._io.total_pages)

    def query_zones_at(self, x: int, y: int) -> QueryResult:
        """Zones containing the point, from the single descent path for it."""
        if type(x) is not int or type(y) is not int:
            check_ints(x=x, y=y)
        if not in_world(x, y):
            raise DomainError(f"point ({x}, {y}) outside the world square")
        before = self._io.cache.misses, self._io.cache.hits
        memo = self._zone_memo
        if memo is not None and cell_contains(memo[0], x, y) and self._io.cache.hit_all(memo[1]):
            return self._result(_zone_hits(memo[2], x, y), before)
        self._zone_memo = None
        log: list[tuple[int, bytes]] = []
        reader = self._recorder(log)
        met: list[tuple[int, Optional[tuple]]] = []  # (zone id, vertices of an edge record, None inside)

        def collect(head: int) -> None:
            for records, _ in reader.chain(head):
                for rec in records:
                    if rec.kind == KIND_ZONE_INSIDE:  # the head page's id is the answer
                        met.append((reader.zone_id(rec.object_page), None))
                    elif rec.kind == KIND_ZONE_EDGE:
                        zone = reader.object(rec.object_page, ZONE)
                        met.append((zone.object_id, zone.vertices))

        cell = TOP_CELL
        addr = self.root_page
        while True:
            node = reader.node(addr)
            if node.self_list != ENTRY_EMPTY:
                collect(entry_addr(node.self_list))
            idx = cell_index(cell, x, y)
            word = node.entries[idx]
            if entry_is_empty(word):
                break
            if entry_is_leaf(word):
                collect(entry_addr(word))
                break
            cell = subcell(cell, idx)
            addr = entry_addr(word)
        self._zone_memo = (subcell(cell, idx), log, met)
        return self._result(_zone_hits(met, x, y), before)

    def query_gantries_within(self, x: int, y: int, radius: int) -> QueryResult:
        """Gantries within ``radius`` metres of (x, y), exact integer test.

        A point record's position comes from its leaf page's appendix; only
        a page written without one has its gantries' object pages loaded.
        """
        if type(x) is not int or type(y) is not int or type(radius) is not int:
            check_ints(x=x, y=y, radius=radius)
        if radius < 0:
            raise DomainError("radius must be non-negative")
        before = self._io.cache.misses, self._io.cache.hits
        memo = self._disc_memo
        if memo is not None and memo[0] == radius:
            ax, ay, s2 = memo[4]
            if (x - ax) * (x - ax) + (y - ay) * (y - ay) < s2 or _reanchor(memo, x, y):
                if self._io.cache.hit_all(memo[2]):
                    return self._result(_gantry_hits(memo[3], x, y, radius), before)
        self._disc_memo = None
        log: list[tuple[int, bytes]] = []
        reader = self._recorder(log)
        nodes: list[tuple[Cell, int, int]] = []
        candidates: list[GantryObject] = []

        stack: list[tuple[Cell, int]] = [(TOP_CELL, self.root_page)]
        while stack:
            cell, addr = stack.pop()
            node = reader.node(addr)
            mask = disc_mask(cell, x, y, radius) & node.occupied
            nodes.append((cell, node.occupied, mask))
            while mask:  # occupied subcells meeting the disc, in index order
                low = mask & -mask
                mask ^= low
                idx = low.bit_length() - 1
                word = node.entries[idx]
                if entry_is_child(word):
                    stack.append((subcell(cell, idx), entry_addr(word)))
                    continue
                for records, _ in reader.chain(entry_addr(word)):
                    for rec in records:
                        if rec.kind == KIND_POINT:
                            candidates.append(rec.gantry or reader.object(rec.object_page, GANTRY))
        self._disc_memo = (radius, nodes, log, candidates, [x, y, 0])
        return self._result(_gantry_hits(candidates, x, y, radius), before)

    def walk(self) -> WalkReport:
        return walk_version(self._io.read_page, self.root_page, self._io.total_pages)

    def stats(self) -> StatsReport:
        return stats_from_walk(self.walk())

    def reachable_pages(self) -> frozenset[int]:
        rep = self.walk()
        if rep.problems:
            raise IntegrityError("; ".join(rep.problems[:8]))
        return rep.reachable


# ---------------------------------------------------------------------------
# copy-on-write editor


def _with_self_list(node: NodeView, page: bytes, entries: list[int], word: int) -> bytes:
    """``page``, which ``_patch_node`` built from ``node`` and whose entry words are ``entries``, with self_list ``word``.

    A new self_list is written with its check: the node is encoded again.
    """
    return page if word == node.self_list else encode_node(node.level, entries, word, node.params)


class TreeEditor:
    """Mutations for one in-progress version: ``load`` adds objects, ``delete_object`` removes them.

    ``load`` is the one insertion path; a single insert is a one-object
    load, which appends to the leaf it lands in unless that leaf splits.
    Both descend through ``_patch_node``.  Each takes the current root
    address and returns the new one (a load also returns every object page
    it wrote), programming only fresh pages.  The caller (store session)
    owns allocation, pending-page tracking, the object id -> head page map
    (so it refuses an id already present) and the final commit.
    """

    def __init__(self, io, params: BuildParams):
        self._io = io
        self.params = params
        self._reader = self._new_reader()
        self._encoded: dict[tuple[tuple[LeafRecord, ...], int], bytes] = {}  # (records, next) -> leaf page, per edit

    # -- shared small helpers --

    def _new_reader(self) -> PageReader:
        """A reader for one public edit: each object is read once per edit."""
        return PageReader(self._io.read_page, self._io.total_pages)

    def _with_coords(self, records: Iterable[LeafRecord]) -> list[LeafRecord]:
        """Records read from a leaf page, each point record with its coordinates.

        A page written without the appendix gives none; they are read from
        the gantry's object page, so every leaf page written carries them.
        """
        return [
            rec if rec.gantry or rec.kind != KIND_POINT
            else LeafRecord(KIND_POINT, rec.object_page, self._reader.object(rec.object_page, GANTRY))
            for rec in records
        ]

    def _write_chain(self, records: Sequence[LeafRecord], tail: int = NO_PAGE) -> int:
        """Lay records out over fresh chained pages in front of ``tail``, packed by bytes.

        Pages fill in record order and each new page is chained in front of
        the last, so the head is the page still filling, as appending the
        records one at a time (``_append``) leaves it.  A page is encoded
        once per edit; a repeat is written from the same bytes, so the
        store's dedup check (and its read-back) runs as for a fresh encode.
        """
        chunks: list[list[LeafRecord]] = []
        room = 0
        for rec in records:
            size = record_bytes(rec)
            if size > room:
                chunks.append([])
                room = LEAF_BYTES
            chunks[-1].append(rec)
            room -= size
        addr = tail
        for chunk in chunks:
            key = (tuple(chunk), addr)
            page = self._encoded.get(key)
            if page is None:
                page = self._encoded[key] = encode_leaf_list(chunk, addr)
            addr = self._io.write_page(page)
        return addr

    def _append(self, head: int, new: Sequence[LeafRecord]) -> int:
        """Append records to a chain: extend its head page, then chain new pages in front of it."""
        records, nxt = next(self._reader.chain(head))  # the head page alone
        room = LEAF_BYTES - sum(map(record_bytes, records))
        k = 0
        while k < len(new) and record_bytes(new[k]) <= room:
            room -= record_bytes(new[k])
            k += 1
        if k:
            head = self._io.write_page(encode_leaf_list(self._with_coords([*records, *new[:k]]), nxt))
        return self._write_chain(new[k:], head)

    def _filter_chain(self, word: int, drop: set[int]) -> int:
        """An entry word (or self list) with records referencing ``drop`` pages filtered out of its chain.

        Returns ``word`` itself when no record goes, and Empty when every
        record goes.  The longest untouched tail run keeps its existing pages.
        """
        if word == ENTRY_EMPTY:
            return word
        pages: list[tuple[int, tuple[LeafRecord, ...]]] = []
        addr = entry_addr(word)
        for records, nxt in self._reader.chain(addr):
            pages.append((addr, records))
            addr = nxt
        new_next = NO_PAGE
        share_tail = True
        for addr, records in reversed(pages):
            kept = [r for r in records if r.object_page not in drop]
            if share_tail and len(kept) == len(records):
                new_next = addr
                continue
            share_tail = False
            new_next = self._write_chain(self._with_coords(kept), new_next)  # one page, unless it had no appendix
        if share_tail:
            return word
        return ENTRY_EMPTY if new_next == NO_PAGE else make_leaf(new_next)

    def _write_zone(self, zone: ZoneObject) -> int:
        """Program a zone's object pages; returns the head page."""
        addrs = [self._io.alloc_page() for _ in range(zone_page_count(len(zone.vertices)))]
        for addr, data in zip(addrs, encode_zone(zone, addrs[1:])):
            self._io.program_page(addr, data)
        return addrs[0]

    # -- input checks --

    @staticmethod
    def _check_gantry(gid: int, x: int, y: int) -> None:
        if not in_world(x, y):
            raise DomainError(f"gantry position ({x}, {y}) outside the world square")
        if not 0 <= gid < 1 << 32:
            raise DomainError(f"object id {gid} out of u32 range")

    @staticmethod
    def _check_zone(zid: int, verts: Sequence[tuple[int, int]]) -> tuple[tuple, CellClass]:
        """The zone's vertices as int pairs, and the top cell's class of them."""
        if not 0 <= zid < 1 << 32:
            raise DomainError(f"object id {zid} out of u32 range")
        verts = tuple((int(x), int(y)) for x, y in verts)
        if len(verts) >= 1 << 16:
            raise DomainError(f"zone {zid} has {len(verts)} vertices; a zone holds at most 65535")
        validate_polygon(verts)
        top = classify_cell(TOP_CELL, verts)
        if top == CellClass.OUTSIDE:
            raise DomainError("zone polygon does not intersect the world square")
        return verts, top

    def _top_record(self, top: CellClass, addr: int) -> Optional[LeafRecord]:
        """The root self-list record of a zone, or None when it is placed below the top cell."""
        if top == CellClass.INSIDE:
            return LeafRecord(KIND_ZONE_INSIDE, addr)
        if self.params.zone_max_depth == 0:
            return LeafRecord(KIND_ZONE_EDGE, addr)
        return None

    # -- insertion --

    def load(
        self,
        root: int,
        gantries: Iterable[tuple[int, int, int]],
        zones: Iterable[tuple[int, Sequence[tuple[int, int]]]],
    ) -> tuple[int, list[tuple[int, int, str]]]:
        """Add gantries ``(id, x, y)`` and zones ``(id, vertices)`` in one descent.

        This is the one way to add objects; an insert is a one-object load.
        Every input is checked before a page is programmed: positions, ids
        and polygons, and an id repeated within one kind (``ConflictError``;
        the session refuses an id already in the tree).  Then the object
        pages are written and the tree is descended once from ``root``,
        taking each new item to the entries it lands in: an empty entry is
        built top-down by ``_build_cell``, a leaf that does not split gets
        the new records appended, a leaf that splits is rebuilt with its old
        records and the new ones, and a node gets only its changed entry
        words patched.  On an empty root this is top-down
        region-quadtree construction (Samet, *The Design and Analysis of
        Spatial Data Structures*, 1990), writing each page of the final tree
        once.  Returns the new root and the (id, head page, kind) of every
        object written.
        """
        gantries = list(gantries)
        for gid, x, y in gantries:
            self._check_gantry(gid, x, y)
        checked_zones = [(zid, *self._check_zone(zid, verts)) for zid, verts in zones]
        for kind, ids in ((GANTRY, [g[0] for g in gantries]), (ZONE, [z[0] for z in checked_zones])):
            if len(set(ids)) < len(ids):
                repeated = next(oid for oid, n in Counter(ids).items() if n > 1)
                raise ConflictError(f"{kind} id {repeated} appears twice in the load")
        heads: list[tuple[int, int, str]] = []
        if not gantries and not checked_zones:
            return root, heads
        self._reader = self._new_reader()
        try:
            return self._load(root, gantries, checked_zones, heads)
        finally:
            self._encoded.clear()

    def _load(self, root: int, gantries: list, checked_zones: list, heads: list) -> tuple[int, list]:
        """``load`` from its checked input: write the objects, then descend once from ``root``."""
        pts: list[tuple[LeafRecord, int, int, int]] = []
        for gid, x, y in gantries:
            g = GantryObject(gid, x, y)
            addr = self._io.write_page(encode_gantry(g))
            heads.append((gid, addr, GANTRY))
            pts.append((LeafRecord(KIND_POINT, addr, g), x, y, gid))
        top_records: list[LeafRecord] = []
        zitems: list[tuple[int, int, Optional[tuple]]] = []
        for zid, verts, top in checked_zones:
            addr = self._write_zone(ZoneObject(zid, verts))
            heads.append((zid, addr, ZONE))
            rec = self._top_record(top, addr)
            if rec is None:
                zitems.append((_DESCEND, addr, verts))
            else:
                top_records.append(rec)

        node = self._reader.node(root)
        self_list = node.self_list
        if top_records:  # records for the top cell itself live in the root's self_list
            if self_list == ENTRY_EMPTY:
                head = self._write_chain(top_records)
            else:
                head = self._append(entry_addr(self_list), top_records)
            self_list = make_leaf(head)
        page, entries = self._patch_node(node, TOP_CELL, pts, zitems, self._merge_entry)
        return self._io.write_page(_with_self_list(node, page, entries, self_list)), heads

    def _patch_node(
        self, node: NodeView, cell: Cell, pts: list, zitems: list, edit: Callable
    ) -> tuple[bytes, list[int]]:
        """The node with ``edit(word, subcell, pts, zitems)`` applied to each entry items land in.

        This is the one edit descent: a load merges items in, a delete
        filters them out.  Returns the new page and its entry words.  Only
        the entry words that change are patched; ``node.page`` itself comes
        back when none does.
        """
        page, entries = node.page, list(node.entries)
        for idx, (sub_pts, sub_zitems) in sorted(self._buckets(cell, pts, zitems).items()):
            word = entries[idx]
            new = edit(word, subcell(cell, idx), sub_pts, sub_zitems)
            if new != word:
                entries[idx] = new
                page = node_with_entry(page, *divmod(idx, 9), new)
        return page, entries

    def _merge_entry(self, word: int, cell: Cell, pts: list, zitems: list) -> int:
        if entry_is_empty(word):
            return self._build_cell(cell, pts, zitems)
        if entry_is_child(word):
            node = self._reader.node(entry_addr(word))
            merged, _ = self._patch_node(node, cell, pts, zitems, self._merge_entry)
            return word if merged is node.page else make_child(self._io.write_page(merged))
        # a leaf: only new points can take it over the split threshold, so only they need its records
        old = self._records(word) if pts else []
        if not self._splits(cell.level, len(pts) + sum(r.kind == KIND_POINT for r in old), zitems):
            return make_leaf(self._append(entry_addr(word), self._leaf_records(pts, zitems)))
        old_pts, old_zitems = self._partition(old or self._records(word))
        return self._build_cell(cell, old_pts + pts, old_zitems + zitems)

    def _records(self, word: int) -> list[LeafRecord]:
        """Every record of the leaf chain an entry word (or self list) names."""
        return [r for recs, _ in self._reader.chain(entry_addr(word)) for r in recs]

    def _partition(self, records: Iterable[LeafRecord]) -> tuple[list, list]:
        """Split chain records into point items (record, x, y, id) and zone placement items."""
        pts: list[tuple[LeafRecord, int, int, int]] = []
        zitems: list[tuple[int, int, Optional[tuple]]] = []
        for rec in self._with_coords(records):
            if rec.kind == KIND_POINT:
                g = rec.gantry
                pts.append((rec, g.x, g.y, g.object_id))
                continue
            if rec.kind == KIND_ZONE_INSIDE:  # carries no vertices: its zone is not read
                zitems.append((_INSIDE, rec.object_page, None))
            else:
                zitems.append((_EDGE, rec.object_page, self._reader.object(rec.object_page, ZONE).vertices))
        return pts, zitems

    def _child_modes81(self, mode: int, cell: Cell, verts: Optional[tuple]) -> list:
        """Placement mode of a zone item in each of the cell's 81 subcells.

        None means the subcell is outside the polygon and takes nothing.
        """
        if mode == _INSIDE:
            return [_INSIDE] * NODE_FANOUT  # an inside cell has only inside subcells
        deeper = mode == _DESCEND and cell.level + 1 < self.params.zone_max_depth
        return [
            None
            if cls == CellClass.OUTSIDE
            else _INSIDE
            if cls == CellClass.INSIDE
            else _DESCEND
            if deeper
            else _EDGE
            for cls in classify_children(cell, verts)
        ]

    def _buckets(self, cell: Cell, pts: list, zitems: list) -> dict[int, tuple[list, list]]:
        """Subcell index -> (point items, zone items) of each subcell that gets an item."""
        out: dict[int, tuple[list, list]] = {}
        for item in pts:
            idx = cell_index(cell, item[1], item[2])
            (out.get(idx) or out.setdefault(idx, ([], [])))[0].append(item)
        for mode, addr, verts in zitems:
            for idx, m in enumerate(self._child_modes81(mode, cell, verts)):
                if m is not None:
                    (out.get(idx) or out.setdefault(idx, ([], [])))[1].append((m, addr, verts))
        return out

    def _splits(self, level: int, n_points: int, zitems: list) -> bool:
        """The split rule: whether a cell at ``level`` holding ``n_points`` points and these zone items is a node."""
        return level < self.params.max_depth and (
            n_points > self.params.leaf_split_threshold or any(mode == _DESCEND for mode, _, _ in zitems)
        )

    @staticmethod
    def _leaf_records(pts: list, zitems: list) -> list[LeafRecord]:
        """The leaf records of point and zone items, points first."""
        return [item[0] for item in pts] + [
            LeafRecord(KIND_ZONE_INSIDE if mode == _INSIDE else KIND_ZONE_EDGE, addr) for mode, addr, _ in zitems
        ]

    def _build_cell(self, cell: Cell, pts: list, zitems: list) -> int:
        """Materialize a cell from in-memory records; returns its entry word.

        Subcells are built in index order; only one that splits needs its ``Cell``.
        """
        if not pts and not zitems:
            return ENTRY_EMPTY
        if not self._splits(cell.level, len(pts), zitems):
            return make_leaf(self._write_chain(self._leaf_records(pts, zitems)))
        buckets = self._buckets(cell, pts, zitems)
        entries = [ENTRY_EMPTY] * NODE_FANOUT
        for idx in sorted(buckets):
            sub_pts, sub_zitems = buckets[idx]
            if self._splits(cell.level + 1, len(sub_pts), sub_zitems):
                entries[idx] = self._build_cell(subcell(cell, idx), sub_pts, sub_zitems)
            else:
                entries[idx] = make_leaf(self._write_chain(self._leaf_records(sub_pts, sub_zitems)))
        if all(entry_is_empty(w) for w in entries):
            return ENTRY_EMPTY
        return make_child(self._io.write_page(encode_node(cell.level, entries)))

    # -- deletion --

    def delete_object(self, root: int, targets: dict[int, str]) -> int:
        """Remove every record naming the object pages ``targets`` (head page -> kind).

        A gantry becomes the point item ``(None, x, y, id)`` and a zone the
        edge item ``(_EDGE, head, vertices)``; they take the load's descent,
        so only the cells an object touches are read.  The leaf chains and
        self lists met are filtered, and a node left empty collapses into
        its parent.
        """
        self._reader = self._new_reader()
        try:
            return self._delete(root, targets)
        finally:
            self._encoded.clear()

    def _delete(self, root: int, targets: dict[int, str]) -> int:
        pts: list[tuple[None, int, int, int]] = []
        zitems: list[tuple[int, int, tuple]] = []
        for head, kind in targets.items():
            obj = self._reader.object(head, kind)
            if kind == GANTRY:
                pts.append((None, obj.x, obj.y, obj.object_id))
            else:
                zitems.append((_EDGE, head, obj.vertices))
        drop = set(targets)
        node = self._reader.node(root)
        self_list = self._filter_chain(node.self_list, drop)  # the root's self list before its entries
        page, entries = self._patch_node(node, TOP_CELL, pts, zitems, partial(self._delete_entry, drop))
        return self._io.write_page(_with_self_list(node, page, entries, self_list))

    def _delete_entry(self, drop: set[int], word: int, cell: Cell, pts: list, zitems: list) -> int:
        if entry_is_empty(word):
            return word
        if entry_is_leaf(word):
            return self._filter_chain(word, drop)
        node = self._reader.node(entry_addr(word))
        page, entries = self._patch_node(node, cell, pts, zitems, partial(self._delete_entry, drop))
        self_list = self._filter_chain(node.self_list, drop)  # a node's entries before its self list
        if page is node.page and self_list == node.self_list:
            return word  # untouched subtree stays shared
        if self_list == ENTRY_EMPTY and all(w == ENTRY_EMPTY for w in entries):
            return ENTRY_EMPTY  # node emptied out: collapse into the parent
        return make_child(self._io.write_page(_with_self_list(node, page, entries, self_list)))
