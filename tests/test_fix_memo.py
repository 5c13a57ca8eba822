"""A handle's memo of its last queries: one long-lived handle answers and reads exactly as fresh ones do."""

import io
import random

import pytest

from flashquad.cache import PageCache
from flashquad.dataset import TraceStep, build_database, generate_dataset, generate_trace
from flashquad.errors import DomainError, FlashQuadError
from flashquad.flashsim import FlashDevice, FlashGeometry
from flashquad.geometry import WORLD_SIZE as W
from flashquad.replay import replay, write_replay_csv
from flashquad.store import Store
from flashquad.tree import Handle

from helpers import random_gantries, seeded_store

R = 2_000  # metres, the fix loop's disc


@pytest.fixture(scope="module")
def loaded():
    store = Store.format(FlashDevice(FlashGeometry(sector_count=16)))
    build_database(store, *generate_dataset(7, n_gantries=300, n_zones=20))
    return store


def twins(store):
    """Two mounts of the store's image, each with a cold 15-page cache and a log of its device reads."""
    out = []
    for _ in range(2):
        st = Store(FlashDevice.from_bytes(store.device.to_bytes()))
        st.swap_cache(PageCache(15))
        reads = []
        st.device.on_read = reads.append
        out.append((st, reads))
    return out


def outcome(query):
    try:
        return query()
    except DomainError as exc:
        return repr(exc)


class Pair:
    """One long-lived handle on a store, and a fresh handle per query on its twin."""

    def __init__(self, store):
        (self.kept, self.kept_reads), (self.fresh, self.fresh_reads) = twins(store)
        self.handle = self.kept.handle()
        self.answered = 0  # queries the memo answered
        self.queries = 0

    def fix(self, x, y, radius=R):
        """Both queries at (x, y) on both sides: the same result, the same device reads."""
        h, fresh = self.handle, self.fresh.handle()
        for memo, query in (
            ("_zone_memo", lambda hd: hd.query_zones_at(x, y)),
            ("_disc_memo", lambda hd: hd.query_gantries_within(x, y, radius)),
        ):
            before = getattr(h, memo)
            got = outcome(lambda: query(h))
            self.queries += 1
            self.answered += before is not None and getattr(h, memo) is before
            assert got == outcome(lambda: query(fresh)), (x, y, radius)
            assert self.kept_reads == self.fresh_reads, (x, y, radius)

    def swap_caches(self, pages):
        self.kept.swap_cache(PageCache(pages))
        self.fresh.swap_cache(PageCache(pages))


def test_a_drive_answers_from_the_memo_exactly(loaded):
    pair = Pair(loaded)
    for step in generate_trace(11, steps=400):
        pair.fix(step.x, step.y)
    assert pair.answered > pair.queries // 2  # the memo does answer most fixes
    assert pair.kept_reads  # and the comparison saw device reads


def test_walks_across_cell_edges_and_corners(loaded):
    pair = Pair(loaded)
    e1 = -(-W // 9)  # first integer x past the level-1 column edge at W/9
    e2 = -(-4 * W // 81)  # and past a level-2 edge
    for x in range(e1 - 20, e1 + 20):  # across a column edge, one metre at a time
        pair.fix(x, 1_000_000)
    for d in range(-20, 20):  # diagonally over the corner of four level-1 cells
        pair.fix(e1 + d, e1 + d)
    for x in range(e2 - R - 5, e2 - R + 5):  # the disc's edge sweeps over a level-2 edge
        pair.fix(x, 700_000)
    for x in range(300_000, 300_040):  # the disc tangent to the world's bottom edge from below
        pair.fix(x, -R)
    for k in range(-2, 3):  # tangent to the world's corner: (-3, -4) lies exactly 5 from (0, 0)
        pair.fix(-3 + k, -4, 5)
    assert pair.answered > 0


def test_radius_change_cache_swap_and_an_out_of_world_fix(loaded):
    pair = Pair(loaded)
    trace = generate_trace(5, steps=240)
    for n, step in enumerate(trace):
        if n == 60:
            pair.swap_caches(15)  # a cold cache: the memo's requests miss as a full query's would
        if n == 120:
            pair.swap_caches(2)
        if n == 200:
            pair.fix(W + 10, step.y)  # the zone query refuses it on both sides
        pair.fix(step.x, step.y, R if n < 80 or n >= 160 else 9_000)
    with pytest.raises(DomainError):
        pair.handle.query_zones_at(-1, 5)
    last = trace[-1]
    pair.fix(last.x, last.y)  # the fix after a refused one is still exact
    assert pair.answered > pair.queries // 2


def test_a_revoked_version_whose_pages_are_reused_is_not_answered_from_the_memo():
    rng = random.Random(4)
    store = seeded_store(8, 30, 3, seed=4, max_versions=1)
    h = store.handle()
    x, y = 1_000_000, 1_000_000
    h.query_zones_at(x, y)
    h.query_gantries_within(x, y, 300_000)
    recorded = h._zone_memo[1] + h._disc_memo[2]  # the (address, page) requests the memos replay
    gantries = random_gantries(random.Random(4), 30)  # the ids seeded_store gave them
    next_id = 1_000
    for n in range(40):  # replace every object, commit and gc until a recorded page holds other bytes
        s = store.begin()
        for gid, _, _ in gantries:
            s.delete(gid, "gantry")
        for zid in range(1, 4) if n == 0 else ():
            s.delete(zid, "zone")
        gantries = [(next_id + k, gx, gy) for k, (_, gx, gy) in enumerate(random_gantries(rng, 30))]
        next_id += 100
        s.load(gantries, ())
        s.commit()
        store.gc()
        if any(store.device.read_page(addr) not in (page, b"\xff" * 256) for addr, page in recorded):
            break
    else:
        pytest.fail("no page of the revoked version was reused")
    (kept, kept_reads), (fresh, fresh_reads) = twins(store)
    results = []
    for st in (kept, fresh):
        handle = Handle(st, h.root_page, h.version_no)
        if st is kept:
            handle._zone_memo, handle._disc_memo = h._zone_memo, h._disc_memo
        got = []
        for query in (lambda: handle.query_zones_at(x, y), lambda: handle.query_gantries_within(x, y, 300_000)):
            try:
                got.append(query())
            except FlashQuadError as exc:  # a reused page may hold anything: the outcome must match, error or not
                got.append(repr(exc))
        results.append(got)
        if st is kept:  # neither memo answered
            assert handle._zone_memo is not h._zone_memo and handle._disc_memo is not h._disc_memo
    assert results[0] == results[1]
    assert kept_reads == fresh_reads


def test_a_page_that_differs_midway_hands_the_pages_requested_so_far_to_the_full_query(loaded):
    """The replay stops at the first page whose bytes differ; the full query does not request those pages again."""
    probe = loaded.handle()

    def deep(g):
        probe.query_zones_at(g.x, g.y)
        return len(probe._zone_memo[1]) >= 3

    g = next(filter(deep, generate_dataset(7, n_gantries=300, n_zones=20)[0]))  # a descent of 3 pages or more
    x, y = g.x, g.y
    for field, query in (
        (1, lambda hd: hd.query_zones_at(x, y)),
        (2, lambda hd: hd.query_gantries_within(x, y, 30_000)),
    ):
        (kept, kept_reads), (fresh, fresh_reads) = twins(loaded)
        h = kept.handle()
        query(h)
        memo = h._zone_memo if field == 1 else h._disc_memo
        log = memo[field]
        assert len(log) >= 3
        addr, page = log[-1]
        log[-1] = (addr, page[:-1] + bytes([page[-1] ^ 1]))  # as if the last page had been reprogrammed
        kept.swap_cache(PageCache(15))
        kept_reads.clear()
        assert query(h) == query(fresh.handle())
        assert kept_reads == fresh_reads
        again = h._zone_memo if field == 1 else h._disc_memo
        assert again is not memo and again[field][-1] == (addr, page)


def test_replay_csv_matches_a_fresh_handle_per_step(loaded, monkeypatch):
    trace = generate_trace(3, steps=200) + [TraceStep(t=10_000 + i, x=400_000 + i, y=400_000) for i in range(30)]
    reads = []
    loaded.device.on_read = reads.append
    try:
        kept = replay(loaded, trace, radius=R)
        kept_reads, reads[:] = list(reads), []
        for name in ("query_zones_at", "query_gantries_within"):
            query = getattr(Handle, name)

            def fresh(self, *args, _query=query):
                return _query(Handle(self._io, self.root_page, self.version_no), *args)

            monkeypatch.setattr(Handle, name, fresh)
        each = replay(loaded, trace, radius=R)
    finally:
        loaded.device.on_read = None
    assert reads == kept_reads
    out = []
    for rep in (kept, each):
        buf = io.StringIO()
        write_replay_csv(rep, buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]
    assert kept == each
