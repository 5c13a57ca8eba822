"""Bit-accurate simulation of a serial NOR flash device.

Geometry is fixed at 256-byte pages, 16 pages per 4 KiB subsector and
16 subsectors per 64 KiB sector; only the sector count varies.  Programs can
only clear bits (1 -> 0); an erase fills a page, subsector or sector with
0xFF.  Every operation advances a simulated clock so that read/program/erase
cost is measurable, and per-subsector erase counters model wear.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import BitViolationError, FormatError, PowerLossError, RangeError, WearOutError

PAGE_SIZE = 256
PAGES_PER_SUBSECTOR = 16
SUBSECTORS_PER_SECTOR = 16
PAGES_PER_SECTOR = PAGES_PER_SUBSECTOR * SUBSECTORS_PER_SECTOR
SUBSECTOR_BYTES = PAGE_SIZE * PAGES_PER_SUBSECTOR  # 4096
SECTOR_BYTES = SUBSECTOR_BYTES * SUBSECTORS_PER_SECTOR  # 65536

ERASED_PAGE = b"\xff" * PAGE_SIZE
ERASE_LIMIT_DEFAULT = 100_000

IMAGE_MAGIC = b"FQFD"

# Page addresses are stored in 22 bits on flash, so a device may not exceed
# 2**22 pages (= 1 GiB).
MAX_PAGES = 1 << 22

_SCOPES = ("page", "subsector", "sector")


@dataclass(frozen=True)
class FlashGeometry:
    """Device size; everything below the sector is fixed by the part family."""

    sector_count: int = 256  # 16 MiB

    def __post_init__(self) -> None:
        if not 1 <= self.sector_count <= MAX_PAGES // PAGES_PER_SECTOR:
            raise ValueError(f"sector_count out of range: {self.sector_count}")

    @property
    def total_bytes(self) -> int:
        return self.sector_count * SECTOR_BYTES

    @property
    def total_pages(self) -> int:
        return self.sector_count * PAGES_PER_SECTOR

    @property
    def subsector_count(self) -> int:
        return self.sector_count * SUBSECTORS_PER_SECTOR


@dataclass(frozen=True)
class FlashTimings:
    """Microseconds charged per operation, independent of scope."""

    read_us: int = 50
    program_us: int = 1_000
    erase_us: int = 500_000

    def __post_init__(self) -> None:
        if min(self.read_us, self.program_us, self.erase_us) < 0:
            raise ValueError("timings must be non-negative")


@dataclass
class DeviceStats:
    reads: int
    programs: int
    erases: int
    sim_clock_us: int
    erase_counts: list[int] = field(default_factory=list)


class FlashDevice:
    """In-memory NOR flash with honest cost accounting and failure injection.

    ``on_read(addr)`` and ``on_program(addr, data)`` are optional observer
    callables that tests use to watch device traffic.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        timings: FlashTimings | None = None,
        erase_limit: int = ERASE_LIMIT_DEFAULT,
    ) -> None:
        self.geometry = geometry or FlashGeometry()
        self.timings = timings or FlashTimings()
        self.erase_limit = erase_limit
        self._mem = bytearray(b"\xff" * self.geometry.total_bytes)
        self._erase_counts = [0] * self.geometry.subsector_count
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.sim_clock_us = 0
        self._power_loss: tuple[int, int] | None = None  # (ops from now, prefix)
        self.on_read = None
        self.on_program = None

    # -- addressing -------------------------------------------------

    @property
    def total_pages(self) -> int:
        return self.geometry.total_pages

    def _check_page(self, addr: int) -> int:
        if not 0 <= addr < self.geometry.total_pages:
            raise RangeError(f"page address {addr} out of range (device has {self.geometry.total_pages} pages)")
        return addr * PAGE_SIZE

    @staticmethod
    def subsector_of(addr: int) -> int:
        return addr // PAGES_PER_SUBSECTOR

    # -- failure injection -------------------------------------------

    def arm_power_loss(self, after_ops: int, prefix: int) -> None:
        """Kill the device during the ``after_ops``-th mutation from now.

        ``after_ops`` counts programs and erases (1 = the very next one).
        For a program, ``prefix`` is how many leading data bytes reach the
        array; for an erase, how many leading pages of the scope are blanked.
        """
        if after_ops < 1 or prefix < 0:
            raise ValueError("after_ops must be >= 1 and prefix >= 0")
        self._power_loss = (after_ops, prefix)

    def disarm_power_loss(self) -> None:
        self._power_loss = None

    def _consume_power_loss(self) -> int | None:
        """Return the prefix if the current mutation is the doomed one."""
        if self._power_loss is None:
            return None
        remaining, prefix = self._power_loss
        if remaining > 1:
            self._power_loss = (remaining - 1, prefix)
            return None
        self._power_loss = None
        return prefix

    # -- operations ---------------------------------------------------

    def read_page(self, addr: int) -> bytes:
        off = self._check_page(addr)
        self.reads += 1
        self.sim_clock_us += self.timings.read_us
        if self.on_read is not None:
            self.on_read(addr)
        return bytes(self._mem[off : off + PAGE_SIZE])

    def program_page(self, addr: int, data: bytes) -> None:
        """AND ``data`` into the page.  Bits may only go 1 -> 0.

        Requesting a 1 where the array holds a 0 raises BitViolationError
        naming the first offending byte; the page is left unchanged.
        """
        off = self._check_page(addr)
        if len(data) != PAGE_SIZE:
            raise ValueError(f"program data must be exactly {PAGE_SIZE} bytes, got {len(data)}")
        old = self._mem[off : off + PAGE_SIZE]
        old_int = int.from_bytes(old, "big")
        data_int = int.from_bytes(data, "big")
        if data_int & ~old_int:
            for i, (o, d) in enumerate(zip(old, data)):
                if d & ~o & 0xFF:
                    raise BitViolationError(addr, i)
        prefix = self._consume_power_loss()
        self.programs += 1
        self.sim_clock_us += self.timings.program_us
        if prefix is not None:
            n = min(prefix, PAGE_SIZE)
            for i in range(n):
                self._mem[off + i] &= data[i]
            raise PowerLossError(f"power lost {n} bytes into program of page {addr}")
        if bytes(old) == ERASED_PAGE:
            self._mem[off : off + PAGE_SIZE] = data
        else:
            self._mem[off : off + PAGE_SIZE] = (old_int & data_int).to_bytes(PAGE_SIZE, "big")
        if self.on_program is not None:
            self.on_program(addr, data)

    def erase(self, scope: str, addr: int) -> None:
        """Erase the page/subsector/sector containing page ``addr`` to 0xFF."""
        if scope not in _SCOPES:
            raise ValueError(f"unknown erase scope {scope!r}")
        self._check_page(addr)
        if scope == "page":
            first, count = addr, 1
        elif scope == "subsector":
            first, count = addr - addr % PAGES_PER_SUBSECTOR, PAGES_PER_SUBSECTOR
        else:
            first, count = addr - addr % PAGES_PER_SECTOR, PAGES_PER_SECTOR
        touched = range(self.subsector_of(first), self.subsector_of(first + count - 1) + 1)
        for ss in touched:
            if self._erase_counts[ss] >= self.erase_limit:
                raise WearOutError(ss, self.erase_limit)
        prefix = self._consume_power_loss()
        self.erases += 1
        self.sim_clock_us += self.timings.erase_us
        if prefix is not None:
            n = min(prefix, count)
            self._mem[first * PAGE_SIZE : (first + n) * PAGE_SIZE] = b"\xff" * (n * PAGE_SIZE)
            raise PowerLossError(f"power lost {n} pages into erase at page {first}")
        self._mem[first * PAGE_SIZE : (first + count) * PAGE_SIZE] = b"\xff" * (count * PAGE_SIZE)
        for ss in touched:
            self._erase_counts[ss] += 1

    def erase_page(self, addr: int) -> None:
        self.erase("page", addr)

    def erase_subsector(self, addr: int) -> None:
        self.erase("subsector", addr)

    def erase_sector(self, addr: int) -> None:
        self.erase("sector", addr)

    # -- introspection -------------------------------------------------

    def stats(self) -> DeviceStats:
        return DeviceStats(
            reads=self.reads,
            programs=self.programs,
            erases=self.erases,
            sim_clock_us=self.sim_clock_us,
            erase_counts=list(self._erase_counts),
        )

    def erase_count(self, subsector: int) -> int:
        return self._erase_counts[subsector]

    # -- image persistence ----------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the array content and the per-subsector erase (wear) counts.

        The operation counters (reads, programs, erases, simulated clock)
        are not kept: a loaded image starts them at zero.
        """
        parts = [IMAGE_MAGIC, struct.pack("<I", self.geometry.sector_count), bytes(self._mem)]
        parts.append(struct.pack(f"<{len(self._erase_counts)}I", *self._erase_counts))
        return b"".join(parts)

    @classmethod
    def from_bytes(
        cls,
        blob: bytes,
        timings: FlashTimings | None = None,
        erase_limit: int = ERASE_LIMIT_DEFAULT,
    ) -> "FlashDevice":
        if blob[:4] != IMAGE_MAGIC:
            raise FormatError("not a flash device image (bad magic)")
        if len(blob) < 8:
            raise FormatError("truncated device image header")
        (sector_count,) = struct.unpack_from("<I", blob, 4)
        try:
            geometry = FlashGeometry(sector_count=sector_count)
        except ValueError as e:
            raise FormatError(f"device image header: {e}") from None
        expect = 8 + geometry.total_bytes + 4 * geometry.subsector_count
        if len(blob) != expect:
            raise FormatError(f"device image is {len(blob)} bytes, expected {expect}")
        dev = cls(geometry=geometry, timings=timings, erase_limit=erase_limit)
        dev._mem[:] = blob[8 : 8 + geometry.total_bytes]
        counts = struct.unpack_from(f"<{geometry.subsector_count}I", blob, 8 + geometry.total_bytes)
        dev._erase_counts = list(counts)
        return dev

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(
        cls,
        path,
        timings: FlashTimings | None = None,
        erase_limit: int = ERASE_LIMIT_DEFAULT,
    ) -> "FlashDevice":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), timings=timings, erase_limit=erase_limit)
