"""End-to-end CLI checks, invoking main() in process."""

import json
import os

import pytest

from flashquad.cli import main
from flashquad.codec import parse_update
from flashquad.flashsim import FlashDevice
from flashquad.store import Store


@pytest.fixture()
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_format_and_stats(ws, capsys):
    code, out, _ = run(capsys, "format", "db.img", "--sectors", "4")
    assert code == 0
    assert os.path.getsize(ws / "db.img") > 4 * 65536  # raw array plus envelope
    code, out, _ = run(capsys, "stats", "db.img", "--format", "json")
    assert code == 0
    stats = json.loads(out)
    assert stats["a"] == 0 and stats["b"] == 1


def test_format_refuses_overwrite_without_force(ws, capsys):
    run(capsys, "format", "db.img")
    code, _, err = run(capsys, "format", "db.img")
    assert code == 1 and "exists" in err
    code, _, _ = run(capsys, "format", "db.img", "--force")
    assert code == 0


def test_reformat_keeps_the_part_and_its_wear(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    before = (ws / "db.img").read_bytes()
    code, out, err = run(capsys, "format", "db.img", "--sectors", 64, "--force")
    assert code == 1 and err.startswith("error:") and "--sectors" in err and not out
    assert (ws / "db.img").read_bytes() == before
    for wear in (1, 2):  # each re-format erases the directory's and the root's subsectors, once dirty
        run(capsys, "insert", "db.img", "--gantry", 1, 5_000, 5_000)
        code, out, _ = run(capsys, "format", "db.img", "--sectors", 4, "--force")
        assert code == 0 and "4 sectors" in out
        dev = FlashDevice.load(ws / "db.img")
        assert [dev.erase_count(i) for i in range(4)] == [wear, 0, wear, 0]
    code, out, _ = run(capsys, "format", "db.img", "--force")  # no --sectors: the image's part
    assert code == 0 and "4 sectors" in out


def test_insert_query_rm_cycle(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    code, out, _ = run(capsys, "insert", "db.img", "--gantry", 7, 150_000, 150_000)
    assert code == 0 and "committed version 2" in out

    code, out, _ = run(capsys, "query-gantries", "db.img",
                       "--at", "150000,150000", "--radius", "1000", "--format", "json")
    assert code == 0
    assert [h["id"] for h in json.loads(out)["hits"]] == [7]

    code, out, _ = run(capsys, "insert", "db.img", "--zone",
                       3, 100_000, 100_000, 300_000, 100_000, 200_000, 300_000)
    assert code == 0 and "committed version 3" in out
    code, out, _ = run(capsys, "query-zones", "db.img", "--at", "200000,150000")
    assert code == 0 and "zone 3" in out

    code, out, _ = run(capsys, "rm", "db.img", "7")
    assert code == 0 and "committed version 4" in out
    code, out, _ = run(capsys, "query-gantries", "db.img",
                       "--at", "150000,150000", "--radius", "1000", "--format", "json")
    assert json.loads(out)["hits"] == []


def test_build_from_dataset_and_replay(ws, capsys):
    code, out, _ = run(capsys, "gen-dataset", "-o", "net.txt", "--seed", "5",
                       "--gantries", "120", "--zones", "8", "--trace-out", "drive.txt",
                       "--steps", "25")
    assert code == 0 and "net.txt" in out
    run(capsys, "format", "db.img", "--sectors", "8")
    code, out, _ = run(capsys, "build", "db.img", "net.txt")
    assert code == 0

    code, out, err = run(capsys, "replay", "db.img", "drive.txt",
                         "--radius", "80000", "-o", "out.csv")
    assert code == 0
    assert "25 steps" in err and "reads/step" in err
    lines = (ws / "out.csv").read_text().splitlines()
    assert lines[0].startswith("t,pages_read,") and len(lines) == 26


def test_build_programs_only_the_pages_the_image_then_holds(ws, capsys, monkeypatch):
    run(capsys, "gen-dataset", "-o", "net.txt", "--seed", "5", "--gantries", "300", "--zones", "12")
    run(capsys, "format", "db.img", "--sectors", "8")
    programs = []
    program_page = FlashDevice.program_page

    def counted(self, addr, data):
        programs.append(addr)
        return program_page(self, addr, data)

    monkeypatch.setattr(FlashDevice, "program_page", counted)
    code, out, _ = run(capsys, "build", "db.img", "net.txt")
    assert code == 0 and "loaded 300 gantries, 12 zones" in out
    store = Store(FlashDevice.load("db.img"))
    held = store.handle().reachable_pages()
    assert len(programs) == len(held) + 1  # every page of the new version once, and its record
    assert store.verify()["ok"] and store.handle().stats().objects == 312


def test_versions_rollback_diff_apply(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--gantry", 1, 10_000, 10_000)
    import shutil

    shutil.copy(ws / "db.img", ws / "clone.img")  # clone at version 2
    run(capsys, "insert", "db.img", "--gantry", 2, 20_000, 20_000)

    code, out, _ = run(capsys, "versions", "db.img", "--format", "json")
    rows = json.loads(out)
    assert [r["version"] for r in rows] == [1, 2, 3]
    assert rows[-1]["current"] is True

    code, out, _ = run(capsys, "diff", "db.img", "2", "3", "-o", "pkg.bin")
    pkg = (ws / "pkg.bin").read_bytes()
    assert code == 0 and f"wrote pkg.bin: {len(parse_update(pkg).pages)} pages, {len(pkg)} bytes (version 2 -> 3)" in out

    code, out, _ = run(capsys, "apply", "clone.img", "pkg.bin")
    assert code == 0 and "now at version 3" in out
    code, out, _ = run(capsys, "query-gantries", "clone.img",
                       "--at", "20000,20000", "--radius", "500", "--format", "json")
    assert [h["id"] for h in json.loads(out)["hits"]] == [2]

    code, out, _ = run(capsys, "rollback", "db.img", "2")
    assert code == 0 and "rolled back" in out
    code, out, _ = run(capsys, "stats", "db.img", "--format", "json")
    assert json.loads(out)["a"] == 1

    code, _, err = run(capsys, "rollback", "db.img", "9")
    assert code == 1 and "error:" in err


def test_staged_session_flow(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    code, out, _ = run(capsys, "insert", "db.img", "--stage", "--gantry", 1, 5_000, 5_000)
    assert code == 0 and "staged on version 1" in out

    # staged edits are invisible and block unstaged writes
    code, out, _ = run(capsys, "stats", "db.img", "--format", "json")
    assert json.loads(out)["a"] == 0
    code, _, err = run(capsys, "insert", "db.img", "--gantry", 2, 6_000, 6_000)
    assert code == 1 and "staged" in err
    code, _, err = run(capsys, "gc", "db.img")
    assert code == 1 and "staged" in err

    code, out, _ = run(capsys, "insert", "db.img", "--stage", "--gantry", 2, 6_000, 6_000)
    assert code == 0  # extend the staged session
    code, out, _ = run(capsys, "commit", "db.img")
    assert code == 0 and "committed version 2" in out
    code, out, _ = run(capsys, "stats", "db.img", "--format", "json")
    assert json.loads(out)["a"] == 2
    code, _, err = run(capsys, "commit", "db.img")
    assert code == 1 and "nothing staged" in err


def test_staged_session_discard(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--stage", "--gantry", 1, 5_000, 5_000)
    code, out, _ = run(capsys, "rollback", "db.img", "--staged")
    assert code == 0 and "discarded" in out
    code, out, _ = run(capsys, "insert", "db.img", "--gantry", 2, 6_000, 6_000)
    assert code == 0  # unstaged writes work again
    code, out, _ = run(capsys, "stats", "db.img", "--format", "json")
    assert json.loads(out)["a"] == 1


def test_staged_sidecar_detects_image_swap(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--stage", "--gantry", 1, 5_000, 5_000)
    blob = (ws / "db.img").read_bytes()
    run(capsys, "rollback", "db.img", "--staged")
    run(capsys, "format", "db.img", "--force")
    staged = blob  # pretend someone restored an old copy with its sidecar
    (ws / "db.img").write_bytes(staged)
    (ws / "db.img.staged.json").write_text(json.dumps({
        "base_version": 1, "root": 32, "pending": [], "image_sha256": "0" * 64,
    }))
    code, _, err = run(capsys, "commit", "db.img")
    assert code == 1 and "does not match" in err


def _with(**fields):
    return lambda good: json.dumps({**good, **fields})


# each turns the valid sidecar state into text that must be refused
DAMAGED_SIDECARS = [
    pytest.param(lambda good: json.dumps(good)[:-7], id="truncated"),
    pytest.param(lambda good: "[]", id="list"),
    pytest.param(lambda good: json.dumps({"image_sha256": good["image_sha256"]}), id="hash-only"),
    pytest.param(_with(root="32"), id="string-root"),
    pytest.param(_with(base_version=True), id="bool-base"),
    pytest.param(_with(pending=5), id="pending-not-a-list"),
    pytest.param(_with(pending=["1"]), id="pending-of-strings"),
    pytest.param(_with(image_sha256=7), id="hash-not-a-string"),
    pytest.param(lambda good: "\udcff", id="not-utf-8"),
]


@pytest.mark.parametrize("argv", [
    ("commit", "db.img"),
    ("insert", "db.img", "--stage", "--gantry", 2, 6_000, 6_000),
], ids=["commit", "insert-stage"])
@pytest.mark.parametrize("damage", DAMAGED_SIDECARS)
def test_damaged_sidecar_is_an_error_naming_it(ws, capsys, argv, damage):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--stage", "--gantry", 1, 5_000, 5_000)
    sidecar = ws / "db.img.staged.json"
    text = damage(json.loads(sidecar.read_text()))
    sidecar.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "db.img.staged.json" in err
    assert "Traceback" not in err


def test_damaged_sidecar_still_blocks_and_can_be_discarded(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--stage", "--gantry", 1, 5_000, 5_000)
    (ws / "db.img.staged.json").write_text("{")
    code, _, err = run(capsys, "gc", "db.img")
    assert code == 1 and "staged" in err
    code, _, err = run(capsys, "insert", "db.img", "--gantry", 2, 6_000, 6_000)
    assert code == 1 and "staged" in err
    code, out, _ = run(capsys, "rollback", "db.img", "--staged")
    assert code == 0 and "discarded" in out
    assert not (ws / "db.img.staged.json").exists()


def test_verify_reports_ok_and_damage(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--gantry", 1, 5_000, 5_000)
    code, out, _ = run(capsys, "verify", "db.img")
    assert code == 0 and out.strip().endswith("ok")

    # flip a bit in the middle of the data area
    blob = bytearray((ws / "db.img").read_bytes())
    blob[8 + 33 * 256 + 40] ^= 0x10
    (ws / "db.img").write_bytes(bytes(blob))
    code, out, _ = run(capsys, "verify", "db.img")
    assert code == 1 and "PROBLEM" in out


def test_rm_takes_no_tree_shape_flags(ws, capsys):
    """The image holds its tree-shape parameters, which ``format`` sets, so ``build``, ``insert`` and ``rm``
    refuse them as usage errors."""
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--gantry", 7, 150_000, 150_000)
    (ws / "d.txt").write_text("G 8 20 20\n")
    edits = (["build", "db.img", "d.txt"], ["insert", "db.img", "--gantry", "9", "30", "30"], ["rm", "db.img", "7"])
    for edit in edits:
        for flag in (["--split-threshold", "0"], ["--max-depth", "0"], ["--zone-max-depth", "0"], ["--no-dedup"]):
            with pytest.raises(SystemExit) as exc:
                main(edit + flag)
            assert exc.value.code == 2 and flag[0] in capsys.readouterr().err, edit + flag
    code, out, _ = run(capsys, "rm", "db.img", "7", "--kind", "gantry")
    assert code == 0 and "committed version 3" in out


def test_edits_keep_the_parameters_the_image_was_formatted_with(ws, capsys):
    """A build, then inserts, shape the tree as one build of every object does on a like-formatted image."""
    shape = ("--split-threshold", 2, "--max-depth", 3)
    run(capsys, "gen-dataset", "-o", "d.txt", "--seed", 3, "--gantries", 60, "--zones", 3)
    points = [(1_000_000 + 10 * k, 1_000_000 + 10 * k) for k in range(3)]
    with open(ws / "all.txt", "w") as fh:
        fh.write((ws / "d.txt").read_text())
        fh.writelines(f"G {900_000 + k} {x} {y}\n" for k, (x, y) in enumerate(points))
    run(capsys, "format", "edited.img", *shape)
    assert run(capsys, "build", "edited.img", "d.txt")[0] == 0
    for k, (x, y) in enumerate(points):
        assert run(capsys, "insert", "edited.img", "--gantry", 900_000 + k, x, y)[0] == 0
    run(capsys, "format", "built.img", *shape)
    assert run(capsys, "build", "built.img", "all.txt")[0] == 0
    edited, built = [json.loads(run(capsys, "stats", img, "--format", "json")[1]) for img in ("edited.img", "built.img")]
    assert edited["a"] == 66 and edited == built  # 63 gantries and 3 zones


def test_gc_runs(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    run(capsys, "insert", "db.img", "--gantry", 1, 5_000, 5_000)
    code, out, _ = run(capsys, "gc", "db.img")
    assert code == 0 and "reclaimed" in out


def test_bad_usage_exits_two(ws, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query-zones"])  # missing image and --at
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "db.img"])
    assert exc.value.code == 2


def test_missing_image_is_a_clean_error(ws, capsys):
    code, _, err = run(capsys, "stats", "missing.img")
    assert code == 1 and "error:" in err


def test_bad_option_values_are_clean_errors(ws, capsys):
    code, _, err = run(capsys, "format", "db.img", "--sectors", 0)
    assert code == 1 and err.startswith("error:") and "--sectors" in err
    assert not os.path.exists(ws / "db.img")
    for shape in (["--split-threshold", 255], ["--max-depth", 7], ["--zone-max-depth", 4, "--max-depth", 3]):
        code, out, err = run(capsys, "format", "db.img", *shape)
        assert code == 1 and err.startswith("error:") and not out, shape
        assert not os.path.exists(ws / "db.img")
    run(capsys, "format", "db.img", "--sectors", "4")
    (ws / "drive.txt").write_text("0 5 5\n")
    for argv in (
        ["query-zones", "db.img", "--at", "5,5"],
        ["query-gantries", "db.img", "--at", "5,5", "--radius", 10],
        ["replay", "db.img", "drive.txt"],
    ):
        code, _, err = run(capsys, *argv, "--cache-pages", 0)
        assert code == 1 and err.startswith("error:") and "--cache-pages" in err, argv
    for option in ("--gantries", "--zones", "--steps"):
        code, out, err = run(capsys, "gen-dataset", "-o", "d.txt", "--trace-out", "tr.txt", option, -3)
        assert code == 1 and err.startswith("error:") and option in err and not out, option
        assert not os.path.exists(ws / "d.txt") and not os.path.exists(ws / "tr.txt")


def test_parse_error_carries_line_number(ws, capsys):
    (ws / "bad.txt").write_text("G 1 10 10\nG oops 20 20\n")
    run(capsys, "format", "db.img", "--sectors", "4")
    code, _, err = run(capsys, "build", "db.img", "bad.txt")
    assert code == 1 and "line 2" in err


def test_insert_argument_validation(ws, capsys):
    run(capsys, "format", "db.img", "--sectors", "4")
    code, _, err = run(capsys, "insert", "db.img")
    assert code == 1 and "--gantry" in err
    code, _, err = run(capsys, "insert", "db.img", "--zone", 1, 0, 0, 10, 10)
    assert code == 1 and "three" in err
