"""Every demo runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdrm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# The last lines demo 02 prints: psi of a vector over GF(2) < GF(4) <
# GF(16), its psi_inv round trip, and pi on GF(8).
TOWER_MAPS = """\
psi(2, 0, 1) =
   (0, 0, 1)
   (0, 0, 0)
   (1, 0, 0)
   (0, 0, 0)
psi_inv round-trips: True

pi on GF(2^3): pi(alpha) is the companion matrix of the modulus
   (0, 0, 1)
   (1, 0, 0)
   (0, 1, 1)
pi(alpha^2) = pi(alpha)^2 holds: True
"""

# The last lines demo 03 prints: one basis codeword of the r = 1 staircase,
# row by row.
STAIRCASE_ROWS = """\
one basis codeword (note the column below the coordinate block):
   (1, 0, 1, 0)
   (0, 0, 0, 0)
   (0, 0, 1, 0)
   (0, 0, 0, 1)
"""

TAILS = {"02_field_towers": TOWER_MAPS, "03_constructions": STAIRCASE_ROWS}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(fdrm.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(TAILS.get(demo.stem, ""))
