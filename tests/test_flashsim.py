"""Device-level semantics: AND programming, subsector erases, wear, cost, power loss."""

import ast
from pathlib import Path

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
    ERASE_LIMIT,
    ERASE_US,
    PAGE_SIZE,
    PAGES_PER_SECTOR,
    PAGES_PER_SUBSECTOR,
    PROGRAM_US,
    READ_US,
    FlashDevice,
    FlashGeometry,
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
    programs, clock = dev.programs, dev.sim_clock_us
    bad = bytes([0x0F] * 100) + bytes([0x10]) + bytes([0x0F] * 155)
    with pytest.raises(BitViolationError) as err:
        dev.program_page(5, bad)
    assert "100" in str(err.value)  # names the offending byte
    assert dev.read_page(5) == before  # atomic reject: nothing was written
    assert dev.programs == programs
    assert dev.sim_clock_us - clock == 50  # one read, no program


def test_erase_blanks_the_whole_subsector_and_nothing_else():
    dev = FlashDevice(FlashGeometry(sector_count=2))
    marked = bytes([0xAA] * PAGE_SIZE)
    for p in (0, 1, 15, 16, 31, 255, 256):
        dev.program_page(p, marked)
    dev.erase(4)  # pages 0..15
    assert dev.read_page(0) == BLANK
    assert dev.read_page(1) == BLANK
    assert dev.read_page(15) == BLANK
    assert dev.read_page(16) == marked
    dev.erase(31)  # pages 16..31
    assert dev.read_page(16) == BLANK
    assert dev.read_page(255) == marked
    assert dev.read_page(256) == marked


def test_erase_counters_follow_the_subsector():
    dev = small_dev()
    dev.erase(0)
    dev.erase(16)
    dev.erase(31)
    dev.erase(255)
    counts = [dev.erase_count(s) for s in range(dev.geometry.subsector_count)]
    assert counts[0] == 1
    assert counts[1] == 2  # pages 16 and 31 lie in one subsector
    assert counts[15] == 1
    assert all(c == 0 for c in counts[2:15])
    assert dev.erases == 4


def test_wear_out_blocks_erase():
    dev = small_dev()
    for _ in range(ERASE_LIMIT):
        dev.erase(0)
    dev.arm_power_loss(after_ops=1, prefix=0)
    with pytest.raises(WearOutError):
        dev.erase(0)
    assert dev.erase_count(0) == ERASE_LIMIT  # the refused erase did not count
    assert dev.erases == ERASE_LIMIT
    with pytest.raises(PowerLossError):  # nor did it consume the armed power loss
        dev.erase(16)


def test_address_range_checked():
    dev = small_dev()
    with pytest.raises(RangeError):
        dev.read_page(256)
    with pytest.raises(RangeError):
        dev.program_page(-1, BLANK)
    with pytest.raises(ValueError):
        dev.program_page(0, b"\x00")  # short buffer


def test_timing_model():
    assert (READ_US, PROGRAM_US, ERASE_US, ERASE_LIMIT) == (50, 1000, 500_000, 100_000)
    dev = small_dev()
    dev.read_page(0)
    dev.read_page(1)
    dev.program_page(0, BLANK)
    dev.erase(0)
    assert dev.sim_clock_us == 2 * 50 + 1000 + 500_000


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["read", "program", "erase", "arm"]), st.integers(0, 255), st.integers(0, 300)),
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_cost_accounting_holds_through_power_cuts(ops):
    """The clock is always READ_US per read, PROGRAM_US per program and ERASE_US per erase.

    A program or erase cut by a power loss counts and charges in full, and a
    cut erase adds no wear; a program refused for a 0 -> 1 bit counts and
    charges nothing.
    """
    dev = small_dev()
    done = {"read": 0, "program": 0, "erase": 0}
    wear = [0] * dev.geometry.subsector_count
    for kind, addr, arg in ops:
        if kind == "arm":
            dev.arm_power_loss(after_ops=1 + arg % 3, prefix=arg)
            continue
        try:
            if kind == "read":
                dev.read_page(addr)
            elif kind == "program":
                dev.program_page(addr, bytes([arg & 0xFF]) * PAGE_SIZE)
            else:
                dev.erase(addr)
        except BitViolationError:
            assert kind == "program"
        except PowerLossError:
            done[kind] += 1
        else:
            done[kind] += 1
            if kind == "erase":
                wear[addr // PAGES_PER_SUBSECTOR] += 1
        assert (dev.reads, dev.programs, dev.erases) == (done["read"], done["program"], done["erase"])
        assert dev.sim_clock_us == READ_US * dev.reads + PROGRAM_US * dev.programs + ERASE_US * dev.erases
        assert [dev.erase_count(s) for s in range(len(wear))] == wear


def test_the_benchmark_models_this_part():
    """perfbench's costs are the device's, and every device method its tracer wraps exists.

    The tracer skips a method it cannot find without a word, so a renamed
    method would leave its layer figure at 0.
    """
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    run = ast.parse((bench / "run.py").read_text())
    [costs] = [
        node.value
        for node in run.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "(READ_US, PROGRAM_US, ERASE_US)"
    ]
    assert ast.literal_eval(costs) == (READ_US, PROGRAM_US, ERASE_US)

    spans = ast.parse((bench / "spans.py").read_text())
    [install] = [n for n in ast.walk(spans) if isinstance(n, ast.FunctionDef) and n.name == "install"]

    def on_device(call):
        return isinstance(call, ast.Call) and call.args and ast.unparse(call.args[0]) == "flashsim.FlashDevice"

    patched = {c.args[1].value for c in ast.walk(install) if on_device(c) and isinstance(c.args[1], ast.Constant)}
    for loop in (n for n in ast.walk(install) if isinstance(n, ast.For)):
        bound = [t.id for t in ast.walk(loop.target) if isinstance(t, ast.Name)]
        for call in ast.walk(loop):
            if on_device(call) and isinstance(call.args[1], ast.Name):
                k = bound.index(call.args[1].id)
                items = ast.literal_eval(loop.iter)
                patched |= {item[k] if isinstance(loop.target, ast.Tuple) else item for item in items}
    assert patched == {"read_page", "program_page", "erase"}
    assert all(callable(FlashDevice.__dict__.get(name)) for name in patched)


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
        dev.erase(0)


def test_power_loss_mid_erase_blanks_leading_pages():
    dev = small_dev()
    marked = bytes([0x00] * PAGE_SIZE)
    for p in range(16):
        dev.program_page(p, marked)
    dev.arm_power_loss(after_ops=1, prefix=5)
    with pytest.raises(PowerLossError):
        dev.erase(0)
    assert all(dev.read_page(p) == BLANK for p in range(5))
    assert all(dev.read_page(p) == marked for p in range(5, 16))
    assert dev.erase_count(0) == 0  # interrupted erase is not a completed cycle


def test_image_round_trip(tmp_path):
    dev = FlashDevice(FlashGeometry(sector_count=2))
    dev.program_page(7, bytes(range(256)))
    dev.erase(20 * 16)
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
