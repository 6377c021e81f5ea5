"""Every demo script runs to completion against the current library, and
prints the pinned lines where it has any."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


# lines a demo must print, for the demos whose numbers are pinned
EXPECTED_LINES = {
    "03_structure_and_radical.py": [
        "ideal words: 7; 3-fold products checked: 343; square-zero checks: 40; ok: True",
        "  base x2 color 1: e1 e3 e2",
        "double pure cycle on bouquet(2): ('e1_1',) ('e1_2',)",
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for line in EXPECTED_LINES.get(demo.name, []):
        assert line in proc.stdout.splitlines()
