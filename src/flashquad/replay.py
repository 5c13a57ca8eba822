"""Drive replay: run both query kinds along a trace and account page IO.

The replay swaps in a fresh LRU cache so the numbers describe exactly
one drive starting cold, then restores the store's previous cache.  Per
step it runs the zone point query and the gantry disc query at the
vehicle position and records device reads and cache hits for both
together — consecutive positions share most of their descent path, which
is what the cache is for.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

from .cache import PageCache
from .dataset import TraceStep
from .errors import DomainError
from .geometry import check_ints


@dataclass(frozen=True)
class ReplayStep:
    t: int
    x: int
    y: int
    pages_read: int
    cache_hits: int
    gantry_ids: tuple[int, ...]
    zone_ids: tuple[int, ...]


@dataclass(frozen=True)
class ReplayReport:
    steps: tuple[ReplayStep, ...]
    radius: int
    cache_pages: int
    pages_read: int
    cache_hits: int
    sim_elapsed_us: int

    @property
    def reads_per_step(self) -> float:
        return self.pages_read / len(self.steps) if self.steps else 0.0


def replay(
    store,
    trace: Sequence[TraceStep],
    radius: int,
    version: Optional[int] = None,
    cache_pages: int = 15,
) -> ReplayReport:
    check_ints(radius=radius)
    if radius < 0:
        raise DomainError("radius must be non-negative")
    handle = store.handle(version)
    old_cache = store.swap_cache(PageCache(cache_pages))
    clock0 = store.device.sim_clock_us
    steps: list[ReplayStep] = []
    try:
        for step in trace:
            zr = handle.query_zones_at(step.x, step.y)
            gr = handle.query_gantries_within(step.x, step.y, radius)
            steps.append(
                ReplayStep(
                    t=step.t,
                    x=step.x,
                    y=step.y,
                    pages_read=zr.pages_read + gr.pages_read,
                    cache_hits=zr.cache_hits + gr.cache_hits,
                    gantry_ids=tuple(sorted(gr.ids)),
                    zone_ids=tuple(sorted(zr.ids)),
                )
            )
    finally:
        store.swap_cache(old_cache)
    return ReplayReport(
        steps=tuple(steps),
        radius=radius,
        cache_pages=cache_pages,
        pages_read=sum(s.pages_read for s in steps),
        cache_hits=sum(s.cache_hits for s in steps),
        sim_elapsed_us=store.device.sim_clock_us - clock0,
    )


def write_replay_csv(report: ReplayReport, fh: TextIO) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["t", "pages_read", "cache_hits", "n_gantries", "gantry_ids", "zone_ids"])
    for s in report.steps:
        w.writerow(
            [
                s.t,
                s.pages_read,
                s.cache_hits,
                len(s.gantry_ids),
                ";".join(str(i) for i in s.gantry_ids),
                ";".join(str(i) for i in s.zone_ids),
            ]
        )
