"""Smoke runs of the scripts in scripts/, each as its own process on tiny
arguments: they exit 0, and every chain they build verifies."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from asdim import Registry, all_cyclically_reduced_words

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bound_gap_sweep_verifies_every_presentation():
    out = run_script("bound_gap_sweep.py", "--count", "200", "--max-len", "8")
    tally = re.search(r"presentations: (\d+)\s+verified: (\d+)\s+seed: 0", out)
    assert tally is not None, out
    assert tally.groups() == ("200", "200")
    gaps = re.findall(r"^\s+(-?\d+)\s+(\d+)\s+#+$", out, re.MULTILINE)
    assert sum(int(n) for _, n in gaps) == 200
    assert all(int(gap) >= 0 for gap, _ in gaps)


def test_exhaustive_table_has_no_failures():
    out = run_script("exhaustive_table.py", "--max-len", "5", "--gens", "2")
    lines = out.splitlines()
    assert lines[0].split() == [
        "length", "relators", "max_bound", "mean_bound", "length_bound", "failures",
    ]
    reg = Registry()
    gens = (reg.declare("a"), reg.declare("b"))
    rows = [line.split() for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4, 5]
    for length, relators, worst, _, length_bound, failures in rows:
        assert int(relators) == sum(
            1 for _ in all_cyclically_reduced_words(gens, int(length))
        )
        assert int(worst) <= int(length_bound)
        assert failures == "0"
