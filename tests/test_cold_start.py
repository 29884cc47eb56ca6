"""Modules load on first use, and the package surface survives that.

``import scdkit`` loads no submodule.  Only ``scdkit.trainer`` imports numpy,
so the ``score``, ``risk``, ``align`` and ``segment`` subcommands must leave it
unloaded, and ``decimal`` too, which a fresh interpreter shows; ``train-toy``
is the control that does load numpy.
"""

import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scdkit
import scdkit.trainer
from scdkit.dataio import TrainStep, TrainTrace

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

# Runs in a fresh interpreter: argv[1] is the fixtures directory, argv[2] an
# output file.  Prints one JSON object with the exit codes, the scdkit
# submodules loaded by ``import scdkit`` and whether numpy and decimal were
# loaded after each phase.
_PROBE = """
import json, sys
import scdkit
submodules_after_import = sorted(m for m in sys.modules if m.startswith("scdkit."))
import scdkit.cli
after_import = "numpy" in sys.modules
fixtures, out = sys.argv[1], sys.argv[2]
runs = [
    ["score", "--ref", f"{fixtures}/multi.rttm", "--hyp", f"{fixtures}/multi.stamps"],
    ["risk", "--nbest", f"{fixtures}/nbest_small.jsonl"],
    ["align", "--ref", f"{fixtures}/ref_a.txt", "--hyp", f"{fixtures}/hyp_a.txt"],
    ["segment", "--ref", f"{fixtures}/multi.rttm", "--target", "5"],
]
codes = [scdkit.cli.main([*argv, "--out", out]) for argv in runs]
after_commands = "numpy" in sys.modules
decimal_after_commands = "decimal" in sys.modules
train_code = scdkit.cli.main(
    ["train-toy", "--scenario", "st-vs-word", "--steps", "5", "--out", out])
print(json.dumps({"submodules_after_import": submodules_after_import,
                  "after_import": after_import, "codes": codes,
                  "after_commands": after_commands,
                  "decimal_after_commands": decimal_after_commands,
                  "train_code": train_code, "after_train": "numpy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold") / "out.txt"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(FIXTURES), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_submodule(probe):
    assert probe["submodules_after_import"] == []


def test_import_leaves_numpy_unloaded(probe):
    assert probe["after_import"] is False


def test_non_trainer_subcommands_leave_numpy_unloaded(probe):
    assert probe["codes"] == [0, 0, 0, 0]
    assert probe["after_commands"] is False


def test_non_trainer_subcommands_leave_decimal_unloaded(probe):
    assert probe["codes"] == [0, 0, 0, 0]
    assert probe["decimal_after_commands"] is False


def test_train_toy_loads_numpy(probe):
    assert probe["train_code"] == 0
    assert probe["after_train"] is True


class TestPackageSurface:
    def test_every_public_name_resolves(self):
        for name in scdkit.__all__:
            assert getattr(scdkit, name) is not None, name

    def test_dir_lists_every_public_name(self):
        assert set(scdkit.__all__) <= set(dir(scdkit))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from scdkit import *", namespace)
        assert set(scdkit.__all__) <= set(namespace)

    def test_trainer_names_are_the_trainer_objects(self):
        assert scdkit.TrainStep is scdkit.trainer.TrainStep is TrainStep
        assert scdkit.TrainTrace is scdkit.trainer.TrainTrace is TrainTrace
        assert scdkit.train is scdkit.trainer.train
        assert scdkit.TrainConfig is scdkit.trainer.TrainConfig

    def test_version_is_the_pyproject_version(self):
        # the one `version = "..."` line of pyproject.toml, its [project] version
        versions = re.findall(r'^version = "([^"]*)"$', PYPROJECT.read_text(), re.M)
        assert versions == [scdkit.__version__]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            scdkit.nope
        assert not hasattr(scdkit, "nope")


class TestTracePickle:
    STEP = TrainStep(loss_total=1.5, expected_fa=0.25, expected_fr=0.0,
                     expected_w=2.0, argmax_candidate=3)

    def test_round_trip(self):
        trace = TrainTrace(records=(self.STEP, self.STEP), final_model=(0.5, -0.5))
        for obj in (self.STEP, trace):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_pickle_naming_the_trainer_module_loads(self):
        # Pickles written while the records were defined in scdkit.trainer
        # name that module; it still exports them.
        data = pickle.dumps(self.STEP, protocol=0)
        assert b"scdkit.dataio\nTrainStep" in data
        old = data.replace(b"scdkit.dataio\nTrainStep", b"scdkit.trainer\nTrainStep")
        assert pickle.loads(old) == self.STEP
