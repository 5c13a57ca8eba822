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
    assert kinds[:2] == [["regional", "image"], ["regional", "drives"]]
    assert kinds[2:42] == [["regional", "edit"]] * 40  # perfbench's EDIT_MIX holds 40 edits
    assert kinds[42:] == [["regional", "final"]] * 2 + [["national", "image"], ["national", "drives"]]
    assert all(line.startswith("seed 1 ") for line in lines)
    assert run("1").stdout == first.stdout


def test_fingerprint_refuses_bad_seeds():
    assert run("one").returncode == 2
    assert run().returncode == 2
