"""tools/fingerprint.py: the identity check between two checkouts runs, prints the same on a rerun, and
prints for seed 1 what ``fingerprint_seed1.txt`` holds.

The committed output pins seed 1's built images, drive answers, packages and
device counters: any change to one of them fails here.  When a change is
meant, regenerate the file with ``python3 tools/fingerprint.py 1 >
tests/fingerprint_seed1.txt`` and say in CHANGES.md which lines moved and why.
"""

import difflib
import functools
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "fingerprint.py")
COMMITTED = os.path.join(HERE, "fingerprint_seed1.txt")


def run(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True, timeout=300)


@functools.cache
def seed_one():
    return run("1")


def test_fingerprint_of_one_seed_is_complete_and_repeats():
    first = seed_one()
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    kinds = [line.split()[2:4] for line in lines]
    regional = ["image", "boot", "drives", "boot", "boot"] + ["edit"] * 40 + ["final"] * 2  # EDIT_MIX: 40 edits
    assert kinds == [["regional", k] for k in regional] + [["national", k] for k in ("image", "boot", "drives")]
    assert [line.split()[4] for line in lines if line.split()[3] == "boot"] == ["drives", "source", "replica", "drives"]
    assert all(line.startswith("seed 1 ") for line in lines)
    assert run("1").stdout == first.stdout


def test_fingerprint_refuses_bad_seeds():
    assert run("one").returncode == 2
    assert run().returncode == 2


def test_fingerprint_of_seed_1_matches_the_committed_one():
    got = seed_one()
    assert got.returncode == 0, got.stderr
    with open(COMMITTED) as f:
        want = f.read()
    diff = list(difflib.unified_diff(want.splitlines(), got.stdout.splitlines(), "committed", "now", lineterm="", n=0))
    assert not diff, "\n".join(diff[:40])
