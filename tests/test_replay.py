"""Trace replay numbers: cold cache, IO accounting, CSV shape."""

import io

import pytest

from flashquad.cache import PageCache
from flashquad.dataset import TraceStep, build_database, generate_dataset, generate_trace
from flashquad.errors import DomainError
from flashquad.flashsim import FlashDevice, FlashGeometry
from flashquad.replay import replay, write_replay_csv
from flashquad.store import Store


@pytest.fixture(scope="module")
def loaded():
    store = Store.format(FlashDevice(FlashGeometry(sector_count=16)))
    gantries, zones = generate_dataset(7, n_gantries=300, n_zones=20)
    build_database(store, gantries, zones)
    return store


def straight_trace(n, x0=200_000, y0=1_000_000, dx=7_000):
    return [TraceStep(t=i * 10, x=x0 + i * dx, y=y0) for i in range(n)]


def test_replay_counts_are_consistent(loaded):
    rep = replay(loaded, straight_trace(40), radius=60_000)
    assert len(rep.steps) == 40
    assert rep.pages_read == sum(s.pages_read for s in rep.steps)
    assert rep.cache_hits == sum(s.cache_hits for s in rep.steps)
    assert rep.radius == 60_000 and rep.cache_pages == 15
    assert rep.reads_per_step == pytest.approx(rep.pages_read / 40)
    # only reads happen during a replay, at 50 us apiece
    assert rep.sim_elapsed_us == rep.pages_read * 50


def test_replay_starts_cold_and_warms_up(loaded):
    first = replay(loaded, straight_trace(1), radius=60_000)
    again = replay(loaded, straight_trace(1), radius=60_000)
    assert first.steps[0].pages_read == again.steps[0].pages_read > 0
    assert first.steps[0].cache_hits == again.steps[0].cache_hits

    # standing still: every page after step one comes from the cache
    parked = [TraceStep(t=i, x=500_000, y=500_000) for i in range(5)]
    rep = replay(loaded, parked, radius=60_000)
    assert all(s.pages_read == 0 for s in rep.steps[1:])
    assert all(s.cache_hits > 0 for s in rep.steps[1:])


def test_replay_restores_previous_cache(loaded):
    h = loaded.handle()
    h.query_zones_at(1_000_000, 1_000_000)
    warm = h.query_zones_at(1_000_000, 1_000_000)
    assert warm.pages_read == 0  # cache warmed outside the replay
    replay(loaded, straight_trace(10), radius=50_000)
    after = h.query_zones_at(1_000_000, 1_000_000)
    assert after.pages_read == 0  # replay did not disturb the store's own cache


def test_smaller_cache_never_reads_less(loaded):
    trace = generate_trace(3, steps=60)
    big = replay(loaded, trace, radius=60_000, cache_pages=15)
    small = replay(loaded, trace, radius=60_000, cache_pages=1)
    assert big.pages_read <= small.pages_read
    assert [s.gantry_ids for s in big.steps] == [s.gantry_ids for s in small.steps]
    assert [s.zone_ids for s in big.steps] == [s.zone_ids for s in small.steps]


def test_replay_on_old_version(loaded):
    v = loaded.current_version
    s = loaded.begin()
    s.insert_gantry(999_000, 200_000, 1_000_000)
    s.commit()
    try:
        old = replay(loaded, straight_trace(3), radius=90_000, version=v)
        new = replay(loaded, straight_trace(3), radius=90_000)
        assert all(999_000 not in st.gantry_ids for st in old.steps)
        assert any(999_000 in st.gantry_ids for st in new.steps)
    finally:
        loaded.rollback_to(v)


def test_csv_shape(loaded):
    rep = replay(loaded, straight_trace(4), radius=60_000)
    buf = io.StringIO()
    write_replay_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,pages_read,cache_hits,n_gantries,gantry_ids,zone_ids"
    assert len(lines) == 5
    for line, step in zip(lines[1:], rep.steps):
        t, pages, hits, n, gids, zids = line.split(",")
        assert int(t) == step.t
        assert int(pages) == step.pages_read
        assert int(hits) == step.cache_hits
        assert int(n) == len(step.gantry_ids)
        assert gids == ";".join(str(i) for i in step.gantry_ids)
        assert zids == ";".join(str(i) for i in step.zone_ids)


def test_lru_cache_basics():
    c = PageCache(2)
    c.put(1, b"a")
    c.put(2, b"b")
    assert c.get(1) == b"a"  # touch 1 so 2 is the eviction victim
    c.put(3, b"c")
    assert c.get(2) is None
    assert c.get(1) == b"a" and c.get(3) == b"c"
    c.invalidate(1)
    assert c.get(1) is None and c.get(3) == b"c"
    c.clear()
    assert c.get(3) is None
    with pytest.raises(DomainError, match="cache_pages must be at least 1, got 0"):
        PageCache(0)


@pytest.mark.parametrize("radius", [-5, 2.5, True, "7"])
def test_replay_refuses_a_bad_radius_before_it_swaps_the_cache(loaded, radius):
    cache = loaded.cache
    with pytest.raises(DomainError, match="radius"):
        replay(loaded, [], radius)
    assert loaded.cache is cache
