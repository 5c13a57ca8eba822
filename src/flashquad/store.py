"""Versioned page store: directory, allocation, sessions, update packages.

Layout on the device:

* subsectors 0 and 1 (pages 0..31) hold the version directory — fixed
  16-byte version records appended slot by slot.  Only one of the two
  subsectors is active; when it fills up, the live records are copied to
  the other and the old one is erased.  Because records are only ever
  appended (program), revoked in place (one bit cleared) or copied before
  the source is erased, one subsector's live-record set is always a
  superset of the other's, and mount picks the superset side.  A power
  cut can lose at most the record being written, never a committed one.
  A side's first blank slot ends its log, and mount reads no further.
  When mount finds records on the inactive side too (a compaction cut
  before its last erase), the first revoke erases that side first.
* pages 32.. hold tree and object pages, allocated by a cyclic cursor so
  erase load spreads over the whole device instead of hammering the
  lowest free subsector.  A dirty subsector that holds nothing live is
  erased when the cursor reaches it: after ``Store.format``, that is how
  an earlier image's pages are reclaimed (``gc`` erases them at once).

A session is the single writer: it allocates fresh pages, programs them,
and ends in ``commit`` (append a version record, revoke beyond the
retention window) or ``rollback`` (drop the root; the programmed pages
are simply dead and get reclaimed by the allocator or ``gc``).

Identical leaf pages are shared: the store keeps a content -> address map
for leaf-list pages and returns the existing address when a session
writes bytes it already has, provided that page is still live or pending
(a dead page could be erased underneath the reference).

The store keeps reference counts for the current version
(``tree.RefCounts``), so a commit diffs the base root against the new one
and reads only the pages that changed.  Each page the current version no
longer holds but an older retained version does is kept in one map, with
the newest such version; a page is live when it is counted or in that map.
Mount reads only the version directory: queries need a root, and check
each page they read.  The first write that needs the counts after mount,
``rollback_to`` or an applied update counts the current version from an
empty table, then adds each older retained root on top, newest first, so
an older version reads only the pages no newer one holds
(``Store._ensure_counted``).

An applied update does not count.  It checks the package's tree in
lockstep with the current version's (``tree.lockstep_check``), reading
only the package and the base pages at the cells the package changes, and
leaves the counts unbuilt.  It counts only when a target page is neither
blank nor already the package's page.  So a damaged retained version that
lies off the package's path is refused at the next write that counts
(``begin``, ``make_update``, ``resume_session``, ``gc``), not by the apply;
a query still names any damaged page it meets.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import tree
from .cache import PageCache
from .codec import (
    SLOTS_PER_PAGE,
    VersionRecord,
    directory_page_with,
    directory_slots,
    encode_node,
    encode_update,
    node_view,
    page_kind,
    parse_update,
    revoke_directory_slot,
)
from .errors import (
    ConflictError,
    DomainError,
    FlashFullError,
    FormatError,
    IntegrityError,
    NotFoundError,
    RelocationError,
    SessionError,
    VersionConflictError,
)
from .flashsim import ERASED_PAGE, PAGES_PER_SUBSECTOR, FlashDevice
from .tree import BuildParams, Handle, TreeEditor

DIR_SUBSECTORS = 2
DIR_PAGES = DIR_SUBSECTORS * PAGES_PER_SUBSECTOR
DATA_START = DIR_PAGES  # first page available to the allocator (32)
DIR_SLOTS = PAGES_PER_SUBSECTOR * SLOTS_PER_PAGE  # version slots in a directory subsector (256)
MAX_VERSIONS_DEFAULT = 4


def _check_settings(cache_pages: int, max_versions: int) -> None:
    if cache_pages < 1:
        raise DomainError(f"cache_pages must be at least 1, got {cache_pages}")
    if max_versions < 1:
        raise DomainError("max_versions must be at least 1")
    if max_versions > DIR_SLOTS - 1:  # a compaction must leave a free slot for the record that caused it
        raise DomainError(f"max_versions must be at most {DIR_SLOTS - 1}, got {max_versions}")


def _erase_if_dirty(device: FlashDevice, first: int) -> None:
    if any(device.read_page(p) != ERASED_PAGE for p in range(first, first + PAGES_PER_SUBSECTOR)):
        device.erase_subsector(first)


class Session:
    """Single in-progress version.  Also the page-IO object for TreeEditor."""

    def __init__(self, store: "Store", base_version: int, root: int, pending: Iterable[int] = ()):
        self._store = store
        self.base_version = base_version
        self.root = root
        self.pending: set[int] = set(pending)
        # pages referenced by the edit in progress; they are not yet hanging
        # off self.root, so staging-garbage pruning must not release them
        self.edit_pages: set[int] = set()
        self.closed = False
        self._editor = TreeEditor(self, store.params)
        # object id -> {head page: kind} of each id this session edited; the
        # base version's map (the store's counts) holds the others
        self._edited: dict[int, dict[int, str]] = {}
        # the entries this session added to the store's dedup map; they go at close unless live
        self.learned: dict[bytes, int] = {}

    # -- page IO for the editor --

    @property
    def total_pages(self) -> int:
        return self._store.total_pages

    def read_page(self, addr: int) -> bytes:
        return self._store.read_page(addr)

    def alloc_page(self) -> int:
        self._assert_open()
        addr = self._store._allocate(self.pending)
        self.pending.add(addr)
        self.edit_pages.add(addr)
        return addr

    def program_page(self, addr: int, data: bytes) -> None:
        self._store._program(addr, bytes(data))

    def write_page(self, data: bytes) -> int:
        """Program ``data`` on a fresh page, or share the store's copy of a leaf-list page when the image dedups."""
        self._assert_open()
        data = bytes(data)
        store = self._store
        dedupable = self._editor.params.dedup and page_kind(data) == "leaf"  # the params are fixed while open
        if dedupable:
            hit = store._dedup_lookup(data, self.pending)
            if hit is not None:
                self.edit_pages.add(hit)
                return hit
        addr = self.alloc_page()
        self.program_page(addr, data)
        if dedupable:
            store._dedup[data] = self.learned[data] = addr
        return addr

    # -- edits --

    def _assert_open(self) -> None:
        if self.closed:
            raise SessionError("session already committed or rolled back")

    def _heads(self, oid: int) -> dict[int, str]:
        heads = self._edited.get(oid)
        return self._store._refs.objects.get(oid, {}) if heads is None else heads

    def insert_gantry(self, gid: int, x: int, y: int) -> None:
        """Add one gantry: a one-object ``load``."""
        self.load([(gid, x, y)], ())

    def insert_zone(self, zid: int, vertices: Sequence[tuple[int, int]]) -> None:
        """Add one zone: a one-object ``load``."""
        self.load((), [(zid, vertices)])

    def load(
        self,
        gantries: Iterable[tuple[int, int, int]],
        zones: Iterable[tuple[int, Sequence[tuple[int, int]]]],
    ) -> None:
        """Add gantries ``(id, x, y)`` and zones ``(id, vertices)`` in one tree descent.

        Bad input raises before any page is programmed, and so does an id
        of its kind already in this session's tree (``ConflictError``; the
        object map answers without a read).  On an empty base every page of
        the resulting tree is written once (see ``TreeEditor.load``).
        """
        self._assert_open()
        gantries, zones = list(gantries), list(zones)
        for kind, items in (("gantry", gantries), ("zone", zones)):
            for item in items:
                if kind in self._heads(item[0]).values():
                    raise ConflictError(f"{kind} id {item[0]} already present")
        self.edit_pages.clear()
        self.root, heads = self._editor.load(self.root, gantries, zones)
        for oid, head, kind in heads:
            self._edited[oid] = {**self._heads(oid), head: kind}

    def delete(self, oid: int, kind: Optional[str] = None) -> None:
        """Remove every record of the object with id ``oid``.

        ``kind`` ("gantry" or "zone") disambiguates when both an id's
        gantry and zone exist; without it such a delete is rejected.
        """
        self._assert_open()
        self.edit_pages.clear()
        heads = self._heads(oid)
        targets = {head: k for head, k in heads.items() if kind is None or k == kind}
        if not targets:
            raise NotFoundError(f"no {kind or 'object'} with id {oid}")
        if len(set(targets.values())) > 1:
            raise ConflictError(f"id {oid} names both a gantry and a zone; pass the kind")
        self.root = self._editor.delete_object(self.root, targets)
        self._edited[oid] = {head: k for head, k in heads.items() if head not in targets}

    def commit(self) -> int:
        self._assert_open()
        return self._store._commit(self)

    def rollback(self) -> None:
        self._assert_open()
        self._store._drop_session(self)


class Store:
    """Mounted database on one flash device."""

    def __init__(
        self,
        device: FlashDevice,
        cache_pages: int = 15,
        max_versions: int = MAX_VERSIONS_DEFAULT,
        _known: Optional[dict[int, bytes]] = None,
    ):
        """Mount the database on ``device``, reading only the version directory's written slots.

        Each directory subsector is read up to its first blank slot, the end
        of its log: two pages on a built image (``_scan_dir``).

        The reference counts are built by the first write (``_ensure_counted``),
        which is refused if a retained version is damaged, and reads ``params``.

        ``_known`` maps addresses to the bytes a caller has just read or
        programmed there (``format`` passes pages 0, 16 and 32); the mount takes
        those instead of reading them again.
        """
        _check_settings(cache_pages, max_versions)
        self.device = device
        self.max_versions = max_versions
        self.cache = PageCache(cache_pages)
        self._session: Optional[Session] = None
        self._mount(_known or {})

    # -- construction --

    @classmethod
    def format(
        cls,
        device: FlashDevice,
        params: Optional[BuildParams] = None,
        cache_pages: int = 15,
        max_versions: int = MAX_VERSIONS_DEFAULT,
    ) -> "Store":
        """Set up an empty database as version 1, erasing only pages 0..47, where dirty.

        The root stores ``params``; every later root carries them.  An earlier image's
        other pages are reclaimed lazily by the allocator, or at once by ``gc``.
        """
        _check_settings(cache_pages, max_versions)
        if device.total_pages < DATA_START + 1:
            raise DomainError("device too small for directory plus one data page")
        for first in range(0, DATA_START + 1, PAGES_PER_SUBSECTOR):
            _erase_if_dirty(device, first)
        root = encode_node(0, params=params or BuildParams())
        device.program_page(DATA_START, root)
        slot0 = directory_page_with(ERASED_PAGE, 0, [VersionRecord(1, DATA_START, DATA_START + 1)])
        device.program_page(0, slot0)
        # each directory side's log ends on its first page: the mount reads neither, nor the root
        known = {0: slot0, PAGES_PER_SUBSECTOR: ERASED_PAGE, DATA_START: root}
        return cls(device, cache_pages=cache_pages, max_versions=max_versions, _known=known)

    # -- mount --

    def _scan_dir(
        self, sub: int, known: Optional[dict[int, bytes]] = None, whole: bool = False
    ) -> list[tuple[int, str, Optional[VersionRecord]]]:
        """(slot number, state, record) of each slot of subsector ``sub`` that is not blank.

        Records are appended slot by slot, so a side's first blank slot ends
        its log: the scan stops there, reading no later page, unless ``whole``.
        A torn, revoked or damaged slot is not blank, and the scan goes on
        past it.  Only ``verify`` scans whole sides.
        """
        out = []
        base = sub * PAGES_PER_SUBSECTOR
        for p in range(PAGES_PER_SUBSECTOR):
            raw = known[base + p] if known and base + p in known else self.device.read_page(base + p)
            for s, (state, rec) in enumerate(directory_slots(raw)):
                if state != "blank":
                    out.append((p * SLOTS_PER_PAGE + s, state, rec))
                elif not whole:
                    return out
        return out

    def _mount(self, known: dict[int, bytes]) -> None:
        scans = [self._scan_dir(0, known), self._scan_dir(1, known)]
        live_sets = [
            {(r.version_no, r.root_page, r.alloc_cursor) for _, st, r in sc if st == "live"}
            for sc in scans
        ]
        if not live_sets[0] and not live_sets[1]:
            raise IntegrityError("no version records: device is not a formatted database")
        if live_sets[0] == live_sets[1]:
            # interrupted directory copy: prefer the fresher (emptier) side
            active = 0 if len(scans[0]) <= len(scans[1]) else 1
        elif live_sets[0] >= live_sets[1]:
            active = 0
        elif live_sets[1] >= live_sets[0]:
            active = 1
        else:
            raise IntegrityError("version directory subsectors disagree; image is corrupt")
        self._active_sub = active
        # records on the other side: a compaction cut before its last erase, or a copy cut short
        self._other_side_used = bool(scans[1 - active])

        self._versions: dict[int, VersionRecord] = {}
        self._slot_of: dict[int, int] = {}  # live version -> its slot number in the active subsector
        self._dir_tail = 0  # the first slot after the last one written
        for n, state, rec in scans[active]:
            self._dir_tail = n + 1
            if state == "live":
                self._versions[rec.version_no] = rec  # duplicate numbers: last wins
                self._slot_of[rec.version_no] = n
        if not self._versions:
            raise IntegrityError("all version records are revoked or damaged")
        self.current_version = max(self._versions)
        cursor = self._versions[self.current_version].alloc_cursor
        if not DATA_START <= cursor < self.total_pages:
            raise IntegrityError(f"allocation cursor {cursor} out of range")
        self._cursor = cursor
        for addr, page in known.items():  # known data pages go into the cache, as a program's do
            if addr >= DATA_START:
                self.cache.put(addr, page)
        self._refs: Optional[tree.RefCounts] = None  # counted at the first write: see ``_ensure_counted``

    # -- basic page IO --

    @property
    def total_pages(self) -> int:
        return self.device.total_pages

    def read_page(self, addr: int) -> bytes:
        page = self.cache.get(addr)
        if page is None:  # every miss is exactly one device read
            page = self.device.read_page(addr)
            self.cache.put(addr, page)
        return page

    def swap_cache(self, cache: PageCache) -> PageCache:
        old, self.cache = self.cache, cache
        return old

    def _program(self, addr: int, data: bytes) -> None:
        self.device.program_page(addr, data)
        self.cache.put(addr, data)

    # -- liveness, dedup --

    def _ensure_counted(self) -> None:
        """Build ``_refs``, ``_held``, ``_dedup`` and ``_damage`` unless they are built.

        Mount and ``rollback_to`` leave them unbuilt.  Each write calls this
        before it reads the tree, so a query never pays the count, nor does
        a package or version number refused on sight; the count checks every
        page it reads and records the damage ``_refuse_damaged`` refuses.
        """
        if self._refs is None:
            self._count_versions()

    def _count_versions(self) -> None:
        """Count the current version from an empty table, then each older retained version on top.

        Older versions are added newest first into one temporary table, so each
        reads only the pages no newer version holds; those pages go into
        ``_held`` with the version that added them.  The first problem of
        each damaged version goes into ``_damage``.  The parameters come from
        the current root, before any leaf page is learned.
        """
        self._damage: dict[int, str] = {}
        self._dedup: dict[bytes, int] = {}
        # page the current version does not hold -> (newest retained version holding it, its bytes)
        self._held: dict[int, tuple[int, bytes]] = {}
        refs = tree.RefCounts()
        newest_first = sorted(self._versions, reverse=True)
        d = tree.CountDelta(refs, self.read_page, self.total_pages)
        root = self._versions[newest_first[0]].root_page
        d.add(root)
        problems = d.problems + d.nodes_named_twice()
        if problems:
            self._damage[newest_first[0]] = problems[0]
        self._params = BuildParams() if problems else node_view(d.pages[root], self.total_pages, root).params
        refs.install(d)
        self._learn(d.leaf_pages)
        d = tree.CountDelta(refs, self.read_page, self.total_pages)
        for vno in newest_first[1:]:
            seen = len(d.problems)
            fresh = d.add(self._versions[vno].root_page)
            if len(d.problems) > seen:
                self._damage[vno] = d.problems[seen]
            self._held.update((addr, (vno, d.pages[addr])) for addr in fresh)
        self._learn(d.leaf_pages)
        self._refs = refs  # last: a count cut short by an exception is made again

    @property
    def params(self) -> BuildParams:
        """The image's tree-shape parameters, from its current root; refused while any version is damaged."""
        self._ensure_counted()
        self._refuse_damaged()
        return self._params

    def _is_live(self, addr: int) -> bool:
        return addr in self._refs.counts or addr in self._held

    def _learn(self, leaf_pages: dict[int, bytes]) -> None:
        """Add leaf pages (address -> bytes already read) to the dedup map."""
        if self._params.dedup:
            for addr, page in leaf_pages.items():
                self._dedup[page] = addr

    def _refuse_damaged(self) -> None:
        if self._damage:
            vno, problem = next(iter(self._damage.items()))
            raise IntegrityError(
                f"version {vno} is damaged ({problem}); the image is read-only until "
                "the damaged version is rolled away or the image is re-imaged"
            )

    def _dedup_lookup(self, data: bytes, pending: set[int]) -> Optional[int]:
        addr = self._dedup.get(data)
        if addr is None:
            return None
        if addr not in pending and not self._is_live(addr):
            return None  # dead page: could be erased before the new version commits
        if self.read_page(addr) != data:
            return None
        return addr

    # -- allocation --

    def _allocate(self, pending: set[int]) -> int:
        total = self.total_pages
        span = total - DATA_START
        for attempt in range(2):
            cur = self._cursor
            for _ in range(span):
                addr = cur
                cur += 1
                if cur >= total:
                    cur = DATA_START
                if self._try_take(addr, pending):
                    self._cursor = cur
                    return addr
            if attempt == 0:
                self._prune_staging()
                freed = self.gc(protect=pending)
                if not freed["subsectors_erased"]:
                    break
        raise FlashFullError("no free pages left after garbage collection")

    def _prune_staging(self) -> None:
        """Release staged pages the open session no longer references.

        A long session strands every page it supersedes: still pending,
        unreachable from the session root, yet protected from gc.  Dropping
        them from the pending set makes that space reclaimable.  Pages of
        the edit in progress are kept -- the half-built tree references
        them before the root does.  A pending page is never counted in the
        base, so those the session tree holds are born in its diff from it.
        """
        sess = self._session
        if sess is None:
            return
        try:
            born = self._diff(sess.root, "staged tree is damaged").born
        except IntegrityError:
            return
        sess.pending &= born.keys() | sess.edit_pages

    def _try_take(self, addr: int, pending: set[int]) -> bool:
        if addr in pending or self._is_live(addr):
            return False
        if self.device.read_page(addr) == ERASED_PAGE:  # probe; not a query read
            return True
        # dirty dead page: reclaim the subsector if nothing in it is live
        first = addr - addr % PAGES_PER_SUBSECTOR
        for p in range(first, first + PAGES_PER_SUBSECTOR):
            if p in pending or self._is_live(p):
                return False
        self._erase_subsector(first)
        return True

    def _erase_subsector(self, first: int) -> None:
        self.device.erase_subsector(first)
        for p in range(first, first + PAGES_PER_SUBSECTOR):
            self.cache.invalidate(p)

    def gc(self, protect: Optional[set[int]] = None) -> dict:
        """Erase every data subsector holding only unreachable pages."""
        self._ensure_counted()
        self._refuse_damaged()  # a partial live set must never drive an erase
        if protect is None:
            protect = self._session.pending if self._session else set()
        counts, held = self._refs.counts, self._held
        reclaimed = 0
        erased = 0
        for first in range(DATA_START, self.total_pages, PAGES_PER_SUBSECTOR):
            pages = range(first, first + PAGES_PER_SUBSECTOR)
            if any(p in protect or p in counts or p in held for p in pages):
                continue
            dirty = sum(1 for p in pages if self.device.read_page(p) != ERASED_PAGE)
            if not dirty:
                continue
            self._erase_subsector(first)
            reclaimed += dirty
            erased += 1
        return {"pages_reclaimed": reclaimed, "subsectors_erased": erased}

    # -- version directory --

    def _dir_page(self, n: int) -> tuple[int, int]:
        """(page address, slot on that page) of slot ``n`` of the active subsector."""
        p, s = divmod(n, SLOTS_PER_PAGE)
        return self._active_sub * PAGES_PER_SUBSECTOR + p, s

    def _append_record(self, rec: VersionRecord) -> None:
        """Program ``rec`` into the active subsector's first slot after its log.

        A full side is compacted first.  So is a side where that slot, or a
        later one on its page, is not blank: damage past the end of the log,
        which mount did not read, and which the append would overwrite or,
        once the log reached it, read as a record.
        """
        page = None
        if self._dir_tail < DIR_SLOTS:
            addr, s = self._dir_page(self._dir_tail)
            page = self.device.read_page(addr)
        if page is None or any(state != "blank" for state, _ in directory_slots(page, s)):
            self._compact_directory()
            addr, s = self._dir_page(self._dir_tail)
            page = self.device.read_page(addr)
        self.device.program_page(addr, directory_page_with(page, s, [rec]))
        self._slot_of[rec.version_no] = self._dir_tail
        self._dir_tail += 1

    def _revoke(self, vno: int) -> None:
        if self._other_side_used:
            # the other side's live set is a subset of this one's; a revoke here would end that,
            # and mount could no longer tell the sides apart, so finish the interrupted compaction
            self.device.erase_subsector((1 - self._active_sub) * PAGES_PER_SUBSECTOR)
            self._other_side_used = False
        addr, s = self._dir_page(self._slot_of.pop(vno))
        self.device.program_page(addr, revoke_directory_slot(self.device.read_page(addr), s))
        del self._versions[vno]

    def _compact_directory(self) -> None:
        target = 1 - self._active_sub
        t_base = target * PAGES_PER_SUBSECTOR
        _erase_if_dirty(self.device, t_base)
        recs = [self._versions[v] for v in sorted(self._versions)]
        for n in range(0, len(recs), SLOTS_PER_PAGE):
            page = directory_page_with(ERASED_PAGE, 0, recs[n : n + SLOTS_PER_PAGE])
            self.device.program_page(t_base + n // SLOTS_PER_PAGE, page)
        self.device.erase_subsector(self._active_sub * PAGES_PER_SUBSECTOR)
        self._active_sub = target
        self._other_side_used = False
        self._slot_of = {rec.version_no: n for n, rec in enumerate(recs)}
        self._dir_tail = len(recs)

    # -- sessions --

    def begin(self) -> Session:
        self._ensure_counted()
        if self._session is not None:
            raise SessionError("another session is already open")
        self._refuse_damaged()
        root = self._versions[self.current_version].root_page
        self._session = Session(self, self.current_version, root)
        return self._session

    def resume_session(self, base_version: int, root: int, pending: Iterable[int]) -> Session:
        """Re-open a staged session (pages already programmed on the device).

        The staged root is diffed from the current version's counts, so only
        the pages the session staged, and the base pages they replace, are
        read.  A damaged staged tree raises ``IntegrityError``.
        """
        self._ensure_counted()
        if self._session is not None:
            raise SessionError("another session is already open")
        self._refuse_damaged()
        if base_version != self.current_version:
            raise VersionConflictError(
                f"staged on version {base_version}, device is at {self.current_version}"
            )
        delta = self._diff(root, "staged tree is damaged")
        self._learn(delta.leaf_pages)
        session = self._session = Session(self, base_version, root, pending)
        session._edited = delta.changed_heads(session._heads)
        session.learned = {page: addr for addr, page in delta.leaf_pages.items()}
        return session

    def _drop_session(self, session: Session) -> None:
        session.closed = True
        if self._session is session:
            self._session = None
        for page, addr in session.learned.items():
            if self._dedup.get(page) == addr and not self._is_live(addr):
                del self._dedup[page]

    def _diff(self, new_root: int, refusal: str) -> tree.CountDelta:
        """The current version's counts diffed to ``new_root``; damage raises ``IntegrityError``."""
        base_root = self._versions[self.current_version].root_page
        try:
            return self._refs.diff(self.read_page, base_root, new_root, self.total_pages)
        except (FormatError, IntegrityError) as e:
            raise IntegrityError(f"{refusal}: {e}") from e

    def _make_current(self, rec: VersionRecord) -> None:
        """Append ``rec`` to the directory, make it current and revoke the versions beyond the retention window."""
        self._append_record(rec)
        self._versions[rec.version_no] = rec
        self.current_version = rec.version_no
        while len(self._versions) > self.max_versions:
            self._revoke(min(self._versions))

    def _commit(self, session: Session) -> int:
        """Append the session's version, then bring the counts, held pages and dedup map to it."""
        delta = self._diff(session.root, "refusing to commit a damaged tree")
        held, base = self._held, self.current_version
        self._make_current(VersionRecord(base + 1, session.root, self._cursor))
        self._refs.install(delta)
        for addr in delta.born:
            held.pop(addr, None)
        held.update((addr, (base, delta.pages[addr])) for addr, c in delta.counts.items() if not c)
        self._learn(delta.leaf_pages)
        oldest = min(self._versions)
        for addr, (vno, page) in list(held.items()):
            if vno < oldest:  # no retained version holds it any more
                del held[addr]
                if self._dedup.get(page) == addr:
                    del self._dedup[page]
        self._drop_session(session)
        return base + 1

    def rollback_to(self, vno: int) -> None:
        """Make ``vno`` current again by revoking every newer version."""
        if self._session is not None:
            raise SessionError("close the open session before rolling back")
        if vno not in self._versions:
            raise NotFoundError(f"version {vno} is not live")
        for v in sorted(v for v in self._versions if v > vno):
            self._revoke(v)
        self.current_version = vno
        self._cursor = self._versions[vno].alloc_cursor
        self._refs = None  # the next write counts the versions left

    # -- read access --

    def handle(self, version_no: Optional[int] = None) -> Handle:
        vno = self.current_version if version_no is None else version_no
        rec = self._versions.get(vno)
        if rec is None:
            raise NotFoundError(f"version {vno} is not live")
        return Handle(self, rec.root_page, vno)

    def versions(self) -> list[dict]:
        """Directory contents of the active subsector, revoked entries included."""
        seen: dict[int, str] = {}
        roots: dict[int, VersionRecord] = {}
        for _, state, rec in self._scan_dir(self._active_sub):
            if state in ("live", "revoked"):
                seen[rec.version_no] = state
                roots[rec.version_no] = rec
        out = []
        for vno in sorted(seen):
            rec = roots[vno]
            out.append(
                {
                    "version": vno,
                    "state": seen[vno],
                    "root_page": rec.root_page,
                    "alloc_cursor": rec.alloc_cursor,
                    "current": vno == self.current_version and seen[vno] == "live",
                }
            )
        return out

    def verify(self) -> dict:
        """Walk every live version and re-check every slot of both directory subsectors.

        A failing slot is damage unless it is torn, which is what an
        interrupted append leaves.  On the active side, any slot written past
        the end of the log (its first blank slot) is damage too: mount never
        reads it.  The other side may hold what a cut erase left behind.
        """
        problems: list[str] = []
        for sub in range(DIR_SUBSECTORS):
            for k, (n, state, _) in enumerate(self._scan_dir(sub, whole=True)):
                p, s = divmod(n, SLOTS_PER_PAGE)
                if sub == self._active_sub and n != k:  # a blank slot comes before it
                    problems.append(f"directory subsector {sub} page {p} slot {s} lies past the end of the log")
                elif state == "invalid":
                    problems.append(f"directory subsector {sub} page {p} slot {s} is damaged")
        per_version: dict[int, tree.StatsReport] = {}
        for vno in sorted(self._versions):
            rec = self._versions[vno]
            rep = tree.walk_version(self.read_page, rec.root_page, self.total_pages)
            if rep.problems:
                problems += [f"version {vno}: {p}" for p in rep.problems]
                continue
            per_version[vno] = tree.stats_from_walk(rep)
        return {"ok": not problems, "problems": problems, "versions": per_version}

    # -- update packages --

    def make_update(self, base_version: int, new_version: int) -> bytes:
        base = self._versions.get(base_version)
        new = self._versions.get(new_version)
        if base is None:
            raise NotFoundError(f"version {base_version} is not live")
        if new is None:
            raise NotFoundError(f"version {new_version} is not live")
        if new_version <= base_version:
            raise DomainError("an update package must move to a newer version")
        self._ensure_counted()  # after the checks that need no count: bad input is refused without it
        for vno in (base_version, new_version, self.current_version):
            if vno in self._damage:
                raise IntegrityError(f"version {vno} is damaged ({self._damage[vno]})")
        # from the current version's counts to new's, then back to base's: the
        # pages whose count falls to 0 on the way back are new's and not base's
        d = tree.CountDelta(self._refs, self.read_page, self.total_pages)
        try:
            d.add(new.root_page)
            d.drop(self._versions[self.current_version].root_page)
            d.add(base.root_page)
            if d.problems:
                raise IntegrityError(d.problems[0])
            fresh = sorted(d.drop(new.root_page))
        except (FormatError, IntegrityError) as e:
            raise IntegrityError(f"cannot package version {new_version}: {e}") from e
        return encode_update(base_version, new_version, [(addr, d.pages[addr]) for addr in fresh], new.root_page)

    def apply_update(self, pkg: bytes) -> int:
        """Apply an update package made by ``make_update`` at this store's current version.

        The package is refused on sight when it is malformed or made for
        another version.  Each target page is read once, then the package's
        tree is checked in lockstep with the current version's
        (``tree.lockstep_check``): only the package pages and the base pages
        at the cells it changes are read, and a tree that does not check is
        refused before any page is programmed.  The reference counts are
        built only when a target is neither blank nor already equal (a torn
        earlier apply, or a page another tree holds): such a target is
        refused if a retained version reaches it, and its subsector erased
        otherwise.  Then the targets are programmed and the version record
        appended.  The counts are left unbuilt, as after ``rollback_to``, so
        a damaged retained version off the package's path is refused at the
        next write that counts, not here.
        """
        if self._session is not None:
            raise SessionError("close the open session before applying an update")
        base_v, new_v, pages, new_root = parse_update(pkg)
        if not DATA_START <= new_root < self.total_pages:
            raise FormatError(f"package new root {new_root} is outside the data area")
        if self.current_version != base_v:
            raise VersionConflictError(
                f"package expects version {base_v}, device is at {self.current_version}"
            )
        if new_v <= self.current_version:
            raise VersionConflictError(f"package target version {new_v} is not newer")
        for addr, _ in pages:
            if not DATA_START <= addr < self.total_pages:
                raise FormatError(f"package page {addr} outside the data area")
        found = {addr: self.device.read_page(addr) for addr, _ in pages}  # each target, once
        try:
            named = tree.lockstep_check(
                self.read_page, dict(pages), self._versions[base_v].root_page, new_root, self.total_pages
            )
        except (FormatError, IntegrityError) as e:
            raise IntegrityError(f"package tree refused: {e}") from e
        need_erase: set[int] = set()
        dirty = [(addr, data) for addr, data in pages if found[addr] not in (data, ERASED_PAGE)]
        if dirty:  # only the count can say whether such a target is live
            self._ensure_counted()
            self._refuse_damaged()
            for addr, data in dirty:
                if self._is_live(addr):
                    raise RelocationError(f"package wants page {addr}, which is still live here")
                if int.from_bytes(data, "big") & ~int.from_bytes(found[addr], "big"):
                    # a bit the package sets is 0 here (the whole page as one integer AND, as
                    # the device's program check): the subsector must be erased first; a torn
                    # prefix of the same data clears no such bit and is simply reprogrammed
                    need_erase.add(addr - addr % PAGES_PER_SUBSECTOR)
            for first in sorted(need_erase):
                for p in range(first, first + PAGES_PER_SUBSECTOR):
                    if self._is_live(p) or p in named:
                        raise RelocationError(
                            f"page {p} is live or named by the package's tree, "
                            "and shares a subsector with package pages"
                        )
                self._erase_subsector(first)
        # a target found equal is programmed again only when its subsector has just been erased
        for addr, data in pages:
            if found[addr] != data or addr - addr % PAGES_PER_SUBSECTOR in need_erase:
                self._program(addr, data)
        self._make_current(VersionRecord(new_v, new_root, self._cursor))
        self._refs = None  # the next write that needs the counts builds them
        return new_v
