"""Smoke tests: the experiment scripts and README's library example run
against the package and print their findings."""

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
    assert line in run_python([str(ROOT / "scripts" / argv[0]), *argv[1:]])


def test_readme_library_example_runs():
    # the python block under "## Library example"; its "# " comment lines are
    # the outputs of the first two prints
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    want = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert len(want) == 2 and want[0].startswith("ErrorCounts(") and want[1].startswith("[")
    lines = run_python(["-c", code])
    assert lines[:2] == want
    assert len(lines) == 4  # then the expected risk and the gradient


def run_python(args):
    """The stdout lines of ``python args`` run with ``src`` on the path; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
