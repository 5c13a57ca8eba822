"""tools/fingerprint.py: the identity check between two checkouts runs, and prints the same on a rerun."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "fingerprint.py")


def run(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True, timeout=300)


def test_fingerprint_of_one_seed_is_complete_and_repeats():
    first = run("1")
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
