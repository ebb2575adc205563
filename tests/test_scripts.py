"""The scripts run end to end on the evaluation paths they exercise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["casimir_tables.py", "--check", "--max-dim", "8", "--max-weight", "2"],
    ["counterexamples.py"],
    ["random_instances.py", "--count", "4", "--seed", "1"],
])
def test_script_exits_cleanly(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                          *argv[1:]], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert "MISMATCH" not in res.stdout
