"""The demos run to the end, from outside the repository root.

Each demo runs in a fresh interpreter whose PYTHONPATH is the source the
tests import; the check is its exit code and one key line of its output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mintwo

DEMOS = Path(__file__).resolve().parents[1] / "demos"

KEY_LINES = {
    "branch_point_tour.py": "ring 12:  branched -> swap     holo pair -> "
                            "trivial",
    "cone_gallery.py": "four_half_planes_r4    n=2 k=2  density at 0: "
                       "2.005  link: four_half_circles",
    "excess_decay_ladder.py": "fitted decay exponent 2*alpha = 2.0323",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(mintwo.__file__).resolve().parents[1]))
    r = subprocess.run([sys.executable, str(DEMOS / name)],
                       capture_output=True, text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
    lines = [line.strip() for line in r.stdout.splitlines()]
    assert KEY_LINES[name] in lines, r.stdout
