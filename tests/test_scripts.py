"""Smoke tests: the experiment scripts run against the package and print their findings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, line", [
    (["train_weight_sweep.py", "--steps", "20"], "  p('a b <st> c') = 0.802242 <- argmax"),
    (["offset_tolerance_demo.py"], "       2 | fa+fr  | fa+fr  | ok W=4 | ok W=4 | ok W=4"),
], ids=["train_weight_sweep", "offset_tolerance_demo"])
def test_script_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
