"""A handle's memo of its last queries: one long-lived handle answers and reads exactly as fresh ones do."""

import io
import math
import random

import pytest

from flashquad.cache import PageCache
from flashquad.dataset import TraceStep, build_database, generate_dataset, generate_trace
from flashquad.errors import DomainError, FlashQuadError
from flashquad.flashsim import FlashDevice, FlashGeometry
from flashquad.geometry import WORLD_SIZE as W, disc_mask
from flashquad.replay import replay, write_replay_csv
from flashquad.store import Store
from flashquad import tree
from flashquad.tree import Handle

from helpers import random_gantries, seeded_store, slack_by_scan

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


def test_a_memo_whose_recorded_page_differs_is_replaced_by_a_full_query(loaded):
    """A memo that recorded other bytes than a page holds does not answer: the query runs in full and records the page."""
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


# -- the disc memo's validity disc --------------------------------------------------


class Paths:
    """Counts the disc memo's exact checks (``tree._reanchor``) and the ones that passed."""

    def __init__(self, monkeypatch):
        self.checks = self.passed = 0
        real = tree._reanchor

        def counted(memo, x, y):
            self.checks += 1
            ok = real(memo, x, y)
            self.passed += ok
            return ok

        monkeypatch.setattr(tree, "_reanchor", counted)


def anchor(handle):
    ax, ay, s2 = handle._disc_memo[4]
    return ax, ay, math.isqrt(s2)


def test_a_zigzag_over_a_rim_critical_subcell_edge(loaded, monkeypatch):
    """The disc's rim sweeps back and forth over an occupied subcell's edge: bits flip and come back."""
    paths = Paths(monkeypatch)
    probe = loaded.handle()
    for g in generate_dataset(7, n_gantries=300, n_zones=20)[0]:
        probe.query_gantries_within(g.x, g.y, R)
        cell, occupied, _ = probe._disc_memo[1][-1]  # the last node visited
        scale = 9 ** (cell.level + 1)
        i = (g.y * scale - cell.sy * 9) // W
        j = (g.x * scale - cell.sx * 9) // W
        right = [k for k in range(j + 1, 9) if occupied >> (9 * i + k) & 1]
        if 0 <= i < 9 and right:
            edge = -(-(cell.sx * 9 + right[0] * W) // scale)  # first integer x on or past the subcell's left edge
            break
    else:
        pytest.fail("no gantry has an occupied subcell to its right in its last node")
    pair = Pair(loaded)
    x0 = edge - R  # from here on the disc meets that subcell
    for x in [x0 - 3, x0 + 2, x0 - 1, x0, x0 - 1, x0 + 1, x0 - 2, x0 + 3, x0, x0 - 3] * 2:
        pair.fix(x, g.y)
    assert paths.passed > 0 and paths.checks > paths.passed  # re-anchored, and found the mask changed
    assert pair.answered > 0


def test_a_drive_circling_its_anchor_just_inside_and_just_outside_the_slack(loaded, monkeypatch):
    paths = Paths(monkeypatch)
    pair = Pair(loaded)
    for step in generate_trace(11, steps=400):  # drive until the memo holds a validity disc of a few metres
        pair.fix(step.x, step.y)
        if pair.handle._disc_memo is not None and anchor(pair.handle)[2] >= 8:
            break
    else:
        pytest.fail("no fix left a validity disc of 8 m or more")
    inside = outside = 0
    for k in range(24):
        ax, ay, s = anchor(pair.handle)
        angle = 2 * math.pi * k / 24
        if s >= 2:  # just inside: no exact check
            dx, dy = int((s - 1) * math.cos(angle)), int((s - 1) * math.sin(angle))
            assert dx * dx + dy * dy < s * s
            checks = paths.checks
            pair.fix(ax + dx, ay + dy)
            assert paths.checks == checks and anchor(pair.handle) == (ax, ay, s)
            inside += 1
        dx, dy = math.ceil(s * math.cos(angle)), math.ceil(s * math.sin(angle))
        dx, dy = dx + (dx >= 0) - (dx < 0), dy + (dy >= 0) - (dy < 0)  # just outside: the exact check runs
        assert dx * dx + dy * dy >= s * s
        checks = paths.checks
        pair.fix(ax + dx, ay + dy)
        assert paths.checks == checks + 1
        outside += 1
    assert inside > 0 and outside == 24 and paths.passed > 0
    assert pair.answered > pair.queries // 2


@pytest.mark.parametrize("radius", [R, 30_000])
def test_every_slack_along_a_drive_is_the_least_gap_of_a_full_scan(loaded, monkeypatch, radius):
    """Each slack a drive asks for is None exactly when a node's mask changed, else the least gap of all 81 subcells."""
    calls = []
    real = tree.disc_slack

    def recorded(nodes, cx, cy, r, cap):
        nodes = list(nodes)
        calls.append((nodes, cx, cy, r, cap, real(nodes, cx, cy, r, cap)))
        return calls[-1][-1]

    monkeypatch.setattr(tree, "disc_slack", recorded)
    h = loaded.handle()
    for step in generate_trace(4, steps=300, speed=300):  # fast: most fixes leave the validity disc
        h.query_gantries_within(step.x, step.y, radius)
    for nodes, cx, cy, r, cap, got in calls:
        if any(disc_mask(cell, cx, cy, r) & occupied != met for cell, occupied, met in nodes):
            assert got is None
        else:
            assert got == min(slack_by_scan(cell, cx, cy, r, occupied, cap) for cell, occupied, met in nodes)
    assert {got is None for *_, got in calls} == {True, False}  # both outcomes came up


# -- a memo answers in one cache call, or the query runs in full --------------------


def request_one_by_one(store, log):
    """The recorded requests made one at a time: what a full query requests while its memo holds."""
    for addr, page in log:
        if store.read_page(addr) != page:
            return


def cache_state(store):
    """Hits, misses, and the cached addresses and bytes in LRU order."""
    c = store.cache
    return c.hits, c.misses, [(addr, bytes(page)) for addr, page in c._pages.items()]


def both_queries(handle, x, y):
    return handle.query_zones_at(x, y), handle.query_gantries_within(x, y, 30_000)


def repeat_point(store):
    """A gantry's position whose disc query requests a page twice, and whose two queries' pages fit in the cache."""
    probe = store.handle()
    for g in generate_dataset(7, n_gantries=300, n_zones=20)[0]:
        both_queries(probe, g.x, g.y)
        disc = [addr for addr, _ in probe._disc_memo[2]]
        if len(set(disc)) < len(disc) and len(set(disc).union(a for a, _ in probe._zone_memo[1])) <= 15:
            return g.x, g.y
    pytest.fail("no disc query requests a page twice within the cache")


@pytest.mark.parametrize(
    "case, answered",
    [("all cached", True), ("an address twice", True), ("evicted and read again", False),
     ("swapped cache", False), ("swapped back", True)],
)
def test_a_one_call_replay_counts_and_orders_the_cache_as_the_requests_do(loaded, case, answered):
    """A long-lived handle's queries leave its twin's cache as the recorded requests made one by one there do."""
    x, y = repeat_point(loaded) if case == "an address twice" else (1_000_000, 1_000_000)
    sides = []
    for st, reads in twins(loaded):  # the same queries on both: the same cache state, page objects aside
        h = st.handle()
        first = both_queries(h, x, y)
        log = h._zone_memo[1] + h._disc_memo[2]  # in the order the queries make them
        root = log[0][0]  # the first request of both memos
        if case == "evicted and read again":  # equal bytes, another object
            st.cache.invalidate(root)
            st.read_page(root)
        elif case == "swapped cache":
            st.swap_cache(PageCache(3))
        elif case == "swapped back":
            old = st.swap_cache(PageCache(3))
            st.read_page(root)
            st.swap_cache(old)
        sides.append((st, reads, h, first, log))
    (kept, kept_reads, h, _, _), (other, other_reads, _, first, log) = sides
    took = []
    bulk = kept.cache.hit_all
    kept.cache.hit_all = lambda requests: took.append(bulk(requests)) or took[-1]

    def again():
        """Both queries on the kept handle, and the recorded requests on the twin: whether both memos answered."""
        memos, before = (h._zone_memo, h._disc_memo), (other.cache.misses, other.cache.hits)
        got = both_queries(h, x, y)
        request_one_by_one(other, log)
        assert [r.hits for r in got] == [r.hits for r in first]
        assert sum(r.pages_read for r in got) == other.cache.misses - before[0]
        assert sum(r.cache_hits for r in got) == other.cache.hits - before[1]
        assert cache_state(kept) == cache_state(other)
        assert kept_reads == other_reads
        return h._zone_memo is memos[0] and h._disc_memo is memos[1]

    assert again() == answered
    assert took == [answered, answered]
    if case == "evicted and read again":  # the full queries recorded the cache's new object: the next is one call
        assert again() and took[2:] == [True, True]


def test_a_memo_answered_query_makes_no_per_page_cache_call(loaded, monkeypatch):
    gets = []
    real = PageCache.get

    def counted(self, addr):
        gets.append(addr)
        return real(self, addr)

    monkeypatch.setattr(PageCache, "get", counted)
    st = Store(FlashDevice.from_bytes(loaded.device.to_bytes()))
    h = st.handle()
    answered = 0
    for step in generate_trace(11, steps=200):
        for memo, query in (("_zone_memo", lambda: h.query_zones_at(step.x, step.y)),
                            ("_disc_memo", lambda: h.query_gantries_within(step.x, step.y, R))):
            before, n = getattr(h, memo), len(gets)
            got = query()
            if getattr(h, memo) is before:
                answered += 1
                assert len(gets) == n, memo  # one cache call, not one get per page
                assert got.cache_hits > 0 and got.pages_read == 0
    assert answered > 200


@pytest.mark.parametrize(
    "query, name",
    [
        (lambda h: h.query_zones_at(1.5, 2), "x"),
        (lambda h: h.query_zones_at(5, 2.0), "y"),
        (lambda h: h.query_zones_at(True, 2), "x"),
        (lambda h: h.query_gantries_within(5, 5, 2.5), "radius"),
        (lambda h: h.query_gantries_within(5, 5, True), "radius"),
        (lambda h: h.query_gantries_within(5.0, 5, R), "x"),
        (lambda h: h.query_gantries_within(5, "5", R), "y"),
    ],
)
def test_a_non_integer_argument_is_refused_before_any_page_request(loaded, query, name):
    st = Store(FlashDevice.from_bytes(loaded.device.to_bytes()))
    h = st.handle()
    h.query_zones_at(5, 5)
    h.query_gantries_within(5, 5, R)
    memos, anchor, counters = (h._zone_memo, h._disc_memo), list(h._disc_memo[4]), (st.cache.misses, st.cache.hits)
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        query(h)
    assert h._zone_memo is memos[0] and h._disc_memo is memos[1] and h._disc_memo[4] == anchor
    assert (st.cache.misses, st.cache.hits) == counters
