"""Damaged inputs fail with a FlashQuadError, never with another exception.

Bit flips and truncations of update packages, device images, dataset and
trace text, and the CLI's staged-session sidecar.  Mostly the kind of
failure is checked here; for one bit flipped in a tree page, also that
``verify`` names the page or no answer changes.
"""

import contextlib
import functools
import io
import re
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from flashquad.cli import main
from flashquad.codec import NODE_MAGIC
from flashquad.dataset import (
    build_database,
    generate_dataset,
    generate_trace,
    parse_dataset,
    parse_trace,
    write_dataset,
    write_trace,
)
from flashquad.errors import FlashQuadError
from flashquad.flashsim import FlashDevice, FlashGeometry
from flashquad.store import Store


def fuzz(examples):
    return settings(max_examples=examples, deadline=None, database=None)


def flips(size, max_flips=4):
    """Lists of (byte offset, bit) pairs inside a blob of ``size`` bytes."""
    return st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, 7)), min_size=1, max_size=max_flips
    )


def cuts(size):
    """Lengths to keep: the whole blob half of the time, else any prefix."""
    return st.one_of(st.just(size), st.integers(0, size))


def damaged(blob, flip_list, cut):
    out = bytearray(blob)
    for pos, bit in flip_list:
        out[pos] ^= 1 << bit
    return bytes(out[:cut])


def fails_cleanly(fn, *args):
    """Run ``fn``; any exception but a FlashQuadError fails the test."""
    with contextlib.suppress(FlashQuadError):
        fn(*args)


# -- update packages ------------------------------------------------------------


@functools.cache
def package_case():
    """(replica image at version 2, package from 2 to 3)."""
    store = Store.format(FlashDevice(FlashGeometry(sector_count=4)))
    gantries, zones = generate_dataset(3, 40, 3)
    build_database(store, gantries, zones[:2])
    base = store.device.to_bytes()
    s = store.begin()
    s.insert_zone(zones[2].zone_id, zones[2].vertices)
    s.delete(gantries[0].gantry_id, "gantry")
    s.commit()
    return base, store.make_update(2, 3)


@fuzz(200)
@given(data=st.data(), reseal=st.booleans())
def test_damaged_update_package(data, reseal):
    base, pkg = package_case()
    bad = damaged(pkg, data.draw(flips(len(pkg))), data.draw(cuts(len(pkg))))
    if reseal and len(bad) > 4:  # a fresh checksum lets the damage reach the parser
        bad = bad[:-4] + zlib.crc32(bad[:-4]).to_bytes(4, "little")
    replica = Store(FlashDevice.from_bytes(base))
    fails_cleanly(replica.apply_update, bad)


# -- device images --------------------------------------------------------------


@functools.cache
def image_case():
    """(2-sector image, byte offsets of its programmed pages)."""
    store = Store.format(FlashDevice(FlashGeometry(sector_count=2)))
    gantries, zones = generate_dataset(4, 30, 3)
    build_database(store, gantries, zones)
    blob = store.device.to_bytes()
    used = [
        8 + 256 * page + off
        for page in range(store.total_pages)
        if blob[8 + 256 * page : 8 + 256 * (page + 1)] != b"\xff" * 256
        for off in range(256)
    ]
    return blob, used


def use_image(blob):
    store = Store(FlashDevice.from_bytes(blob))
    store.verify()
    handle = store.handle()
    for x, y in ((500_000, 500_000), (1_000_000, 1_200_000), (1_700_000, 300_000)):
        handle.query_zones_at(x, y)
        handle.query_gantries_within(x, y, 150_000)
    handle.stats()


@fuzz(300)
@given(data=st.data())
def test_damaged_device_image(data):
    blob, used = image_case()
    anywhere = flips(len(blob))
    in_use = st.lists(st.tuples(st.sampled_from(used), st.integers(0, 7)), min_size=1, max_size=4)
    header = flips(8)
    flip_list = data.draw(st.one_of(in_use, anywhere, header))
    fails_cleanly(use_image, damaged(blob, flip_list, data.draw(cuts(len(blob)))))


PROBES = tuple((x, y) for x in range(100_000, 2_000_000, 450_000) for y in range(150_000, 2_000_000, 450_000))


def answers(store):
    handle = store.handle()
    return [
        (handle.query_zones_at(x, y).ids, handle.query_gantries_within(x, y, 150_000).ids) for x, y in PROBES
    ]


@functools.cache
def tree_case():
    """(live tree pages, its node pages, the answers) of ``image_case``'s current version."""
    store = Store(FlashDevice.from_bytes(image_case()[0]))
    live = sorted(store.handle().reachable_pages())
    nodes = [addr for addr in live if store.read_page(addr)[0] == NODE_MAGIC]
    return live, nodes, answers(store)


@fuzz(300)
@given(data=st.data())
def test_a_flipped_tree_page_is_named_or_changes_no_answer(data):
    """One bit flipped in a live tree page: ``verify`` names that page, or every answer is the same.

    Half of the flips land in bytes 1-12 of a node page, the bytes the
    entry-area CRC does not cover.
    """
    blob, _ = image_case()
    live, nodes, want = tree_case()
    page, offset = data.draw(
        st.one_of(
            st.tuples(st.sampled_from(live), st.integers(0, 255)),
            st.tuples(st.sampled_from(nodes), st.integers(1, 12)),
        )
    )
    bad = damaged(blob, [(8 + 256 * page + offset, data.draw(st.integers(0, 7)))], len(blob))
    store = Store(FlashDevice.from_bytes(bad))
    if any(re.search(rf"\b{page}\b", problem) for problem in store.verify()["problems"]):
        return
    assert answers(store) == want


# -- dataset and trace text ------------------------------------------------------------


def text_of(write, *items):
    buf = io.StringIO()
    write(*items, buf)
    return buf.getvalue()


DATASET = text_of(write_dataset, *generate_dataset(5, 12, 3))
TRACE = text_of(write_trace, generate_trace(6, steps=30))


def mutated_text(text):
    """Byte flips and a cut, or characters from the grammar's alphabet pasted in."""
    blob = text.encode()
    flipped = st.builds(
        lambda f, cut: damaged(blob, f, cut).decode("utf-8", "replace"),
        flips(len(blob)),
        cuts(len(blob)),
    )
    pasted = st.builds(
        lambda pos, piece: text[:pos] + piece + text[pos:],
        st.integers(0, len(text)),
        st.text(alphabet="0123456789 -+_\n\t#GZgzx", max_size=12),
    )
    return st.one_of(flipped, pasted)


@fuzz(300)
@given(text=mutated_text(DATASET))
def test_damaged_dataset_text(text):
    fails_cleanly(parse_dataset, text)


@fuzz(1000)
@given(text=mutated_text(TRACE))
def test_damaged_trace_text(text):
    fails_cleanly(parse_trace, text)


# -- staged-session sidecar -----------------------------------------------------------


@functools.cache
def staged_case():
    """(image bytes, sidecar bytes) of an image with one staged gantry."""
    with tempfile.TemporaryDirectory() as tmp:
        image = str(Path(tmp) / "db.img")
        assert main(["format", image, "--sectors", "4"]) == 0
        assert main(["insert", image, "--stage", "--gantry", "1", "5000", "5000"]) == 0
        return Path(image).read_bytes(), Path(image + ".staged.json").read_bytes()


@fuzz(200)
@given(data=st.data())
def test_damaged_sidecar_commit(data):
    image_bytes, sidecar = staged_case()
    bad = damaged(sidecar, data.draw(flips(len(sidecar))), data.draw(cuts(len(sidecar))))
    with tempfile.TemporaryDirectory() as tmp:
        image = Path(tmp) / "db.img"
        image.write_bytes(image_bytes)
        Path(str(image) + ".staged.json").write_bytes(bad)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["commit", str(image)])
        err = err.getvalue()
    # a flip the format does not notice (a digit of a pending page) may still commit
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:")
