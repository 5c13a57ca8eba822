"""Device-level semantics: AND programming, erase scopes, wear, power loss."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashquad.errors import (
    BitViolationError,
    FormatError,
    PowerLossError,
    RangeError,
    WearOutError,
)
from flashquad.flashsim import (
    PAGE_SIZE,
    PAGES_PER_SECTOR,
    PAGES_PER_SUBSECTOR,
    FlashDevice,
    FlashGeometry,
    FlashTimings,
)

BLANK = b"\xff" * PAGE_SIZE


def small_dev():
    return FlashDevice(FlashGeometry(sector_count=1))


def test_geometry_constants():
    dev = small_dev()
    assert PAGE_SIZE == 256
    assert PAGES_PER_SUBSECTOR == 16
    assert PAGES_PER_SECTOR == 256
    assert dev.total_pages == 256
    assert dev.geometry.total_bytes == 64 * 1024
    assert dev.geometry.subsector_count == 16


def test_fresh_device_is_erased():
    dev = small_dev()
    assert all(dev.read_page(p) == BLANK for p in range(0, dev.total_pages, 37))


def test_program_then_read_back():
    dev = small_dev()
    data = bytes(range(256))
    dev.program_page(3, data)
    assert dev.read_page(3) == data


def test_program_is_bitwise_and():
    dev = small_dev()
    dev.program_page(0, bytes([0xF0] * PAGE_SIZE))
    dev.program_page(0, bytes([0xF0] * PAGE_SIZE))  # programming the same bits is fine
    dev.program_page(0, bytes([0x30] * PAGE_SIZE))  # clearing more bits is fine
    assert dev.read_page(0) == bytes([0x30] * PAGE_SIZE)


def test_zero_to_one_rejected_before_any_change():
    dev = small_dev()
    dev.program_page(5, bytes([0x0F] * PAGE_SIZE))
    before = dev.read_page(5)
    stats_before = dev.stats()
    bad = bytes([0x0F] * 100) + bytes([0x10]) + bytes([0x0F] * 155)
    with pytest.raises(BitViolationError) as err:
        dev.program_page(5, bad)
    assert "100" in str(err.value)  # names the offending byte
    assert dev.read_page(5) == before  # atomic reject: nothing was written
    after = dev.stats()
    assert after.programs == stats_before.programs
    assert after.sim_clock_us - stats_before.sim_clock_us == 50  # one read, no program


def test_erase_scopes():
    dev = FlashDevice(FlashGeometry(sector_count=2))
    marked = bytes([0xAA] * PAGE_SIZE)
    for p in (0, 1, 15, 16, 255, 256):
        dev.program_page(p, marked)
    dev.erase_page(1)
    assert dev.read_page(1) == BLANK
    assert dev.read_page(0) == marked
    dev.erase_subsector(4)  # pages 0..15
    assert dev.read_page(0) == BLANK
    assert dev.read_page(15) == BLANK
    assert dev.read_page(16) == marked
    dev.erase_sector(100)  # pages 0..255
    assert dev.read_page(16) == BLANK
    assert dev.read_page(255) == BLANK
    assert dev.read_page(256) == marked


def test_erase_counters_follow_scope():
    dev = small_dev()
    dev.erase_subsector(0)
    dev.erase_subsector(16)
    dev.erase_subsector(16)
    dev.erase_sector(0)
    counts = dev.stats().erase_counts
    assert counts[0] == 2  # one subsector erase + the sector erase
    assert counts[1] == 3
    assert all(c == 1 for c in counts[2:])
    assert dev.erase_count(1) == 3


def test_wear_out_blocks_erase():
    dev = FlashDevice(FlashGeometry(sector_count=1), erase_limit=3)
    for _ in range(3):
        dev.erase_subsector(0)
    with pytest.raises(WearOutError):
        dev.erase_subsector(0)
    assert dev.erase_count(0) == 3  # the refused erase did not count


def test_address_range_checked():
    dev = small_dev()
    with pytest.raises(RangeError):
        dev.read_page(256)
    with pytest.raises(RangeError):
        dev.program_page(-1, BLANK)
    with pytest.raises(ValueError):
        dev.program_page(0, b"\x00")  # short buffer


def test_timing_model():
    t = FlashTimings()
    assert (t.read_us, t.program_us, t.erase_us) == (50, 1000, 500_000)
    dev = small_dev()
    dev.read_page(0)
    dev.read_page(1)
    dev.program_page(0, BLANK)
    dev.erase_subsector(0)
    assert dev.stats().sim_clock_us == 2 * 50 + 1000 + 500_000


def test_power_loss_mid_program_keeps_prefix():
    dev = small_dev()
    dev.arm_power_loss(after_ops=1, prefix=10)
    with pytest.raises(PowerLossError):
        dev.program_page(0, bytes([0x55] * PAGE_SIZE))
    torn = dev.read_page(0)
    assert torn[:10] == bytes([0x55] * 10)
    assert torn[10:] == b"\xff" * (PAGE_SIZE - 10)
    dev.program_page(0, bytes([0x55] * PAGE_SIZE))  # disarmed after firing
    assert dev.read_page(0) == bytes([0x55] * PAGE_SIZE)


def test_power_loss_counts_down_operations():
    dev = small_dev()
    dev.arm_power_loss(after_ops=3, prefix=0)
    dev.program_page(0, BLANK)
    dev.program_page(1, BLANK)
    with pytest.raises(PowerLossError):
        dev.erase_subsector(0)


def test_power_loss_mid_erase_blanks_leading_pages():
    dev = small_dev()
    marked = bytes([0x00] * PAGE_SIZE)
    for p in range(16):
        dev.program_page(p, marked)
    dev.arm_power_loss(after_ops=1, prefix=5)
    with pytest.raises(PowerLossError):
        dev.erase_subsector(0)
    assert all(dev.read_page(p) == BLANK for p in range(5))
    assert all(dev.read_page(p) == marked for p in range(5, 16))
    assert dev.erase_count(0) == 0  # interrupted erase is not a completed cycle


def test_image_round_trip(tmp_path):
    dev = FlashDevice(FlashGeometry(sector_count=2))
    dev.program_page(7, bytes(range(256)))
    dev.erase_subsector(20 * 16)
    blob = dev.to_bytes()
    back = FlashDevice.from_bytes(blob)
    assert back.geometry.sector_count == 2
    assert back.read_page(7) == bytes(range(256))
    assert back.erase_count(20) == 1
    path = tmp_path / "dev.img"
    dev.save(path)
    again = FlashDevice.load(path)
    assert again.to_bytes() == blob


def test_image_with_impossible_sector_count_is_a_format_error():
    blob = bytearray(FlashDevice(FlashGeometry(sector_count=2)).to_bytes())
    blob[4] = 0  # sector count 0
    with pytest.raises(FormatError, match="sector_count"):
        FlashDevice.from_bytes(bytes(blob))


@given(
    old=st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE),
    new=st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE),
)
@settings(max_examples=60, deadline=None)
def test_program_and_law(old, new):
    """Accepted programs AND exactly; rejected ones change nothing."""
    dev = small_dev()
    dev.program_page(0, old)
    try:
        dev.program_page(0, new)
    except BitViolationError:
        assert any(n & ~o & 0xFF for o, n in zip(old, new))
        assert dev.read_page(0) == old
    else:
        assert not any(n & ~o & 0xFF for o, n in zip(old, new))
        assert dev.read_page(0) == bytes(o & n for o, n in zip(old, new))
