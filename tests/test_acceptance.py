"""Acceptance gate: every stated criterion, one pass line each.

Run with -s to see the lines as they complete.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from envlld.acceptance import CRITERIA, run_criterion


def _ident(spec):
    number, _, label, _ = spec
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")
    return f"{number:02d}-{slug}"


@pytest.mark.parametrize("spec", CRITERIA, ids=[_ident(s) for s in CRITERIA])
def test_criterion(spec):
    res = run_criterion(spec)
    print(res.line())
    assert res.checks_ok, f"criterion {res.number} failed: {res.detail}"
    assert res.seconds < res.budget, (
        f"criterion {res.number} took {res.seconds:.2f}s, "
        f"budget {res.budget:g}s")


def _optimized(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-O", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_verify_paper_under_optimize():
    res = _optimized("-m", "envlld.cli", "verify-paper")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "10/10 criteria passed" in res.stdout


def test_criteria_still_check_under_optimize():
    # -O strips assert statements; a wrong Casimir scalar must still fail
    res = _optimized("-c", """
import envlld.acceptance as a
a.c_scalar = lambda k: 0
print(a.run_criterion(a.CRITERIA[0]).line())
""")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("criterion  1: FAIL"), res.stdout
    assert "Casimir not scalar at dim 2" in res.stdout
