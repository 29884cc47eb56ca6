"""Modules load on first use, and the package surface survives that.

``import scdkit`` loads no submodule.  Each subcommand, run in its own fresh
interpreter, loads only what it runs: ``score`` and ``segment`` leave the
risk path (``scdkit.risk``, ``scdkit.alignment``, ``scdkit.tokens``) and
``logging`` unloaded on inputs that raise no warning, and only ``train-toy``
loads the trainer, numpy and ``decimal`` stay unloaded elsewhere.
"""

import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scdkit
import scdkit.risk
import scdkit.trainer
from scdkit.dataio import LossBreakdown, RiskKind, TrainStep, TrainTrace

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

# Runs in a fresh interpreter: argv[1] is an output file, the rest the
# subcommand's arguments.  Prints one JSON object with the scdkit submodules
# loaded by ``import scdkit``, whether ``import scdkit.cli`` loaded numpy, the
# subcommand's exit code and the modules loaded after it.
_PROBE = """
import json, sys
import scdkit
submodules_after_import = sorted(m for m in sys.modules if m.startswith("scdkit."))
import scdkit.cli
numpy_after_import = "numpy" in sys.modules
code = scdkit.cli.main([*sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps({"submodules_after_import": submodules_after_import,
                  "numpy_after_import": numpy_after_import, "code": code,
                  "loaded": sorted(sys.modules)}))
"""

SUBCOMMANDS = {
    "score": ["score", "--ref", f"{FIXTURES}/multi.rttm", "--hyp", f"{FIXTURES}/multi.stamps"],
    # no segment of multi.rttm is longer than 20 s, so no warning is logged
    "segment": ["segment", "--ref", f"{FIXTURES}/multi.rttm", "--target", "20"],
    "align": ["align", "--ref", f"{FIXTURES}/ref_a.txt", "--hyp", f"{FIXTURES}/hyp_a.txt"],
    "risk": ["risk", "--nbest", f"{FIXTURES}/nbest_small.jsonl"],
    "train-toy": ["train-toy", "--scenario", "st-vs-word", "--steps", "5"],
}
NON_TRAINER = ["score", "segment", "align", "risk"]


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The probe's result for each subcommand, each run in its own interpreter."""
    out = tmp_path_factory.mktemp("cold") / "out.txt"
    runs = {}
    for name, argv in SUBCOMMANDS.items():
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(out), *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[name] = json.loads(proc.stdout)
        runs[name]["loaded"] = set(runs[name]["loaded"])
    return runs


def test_import_loads_no_submodule(probe):
    for run in probe.values():
        assert run["submodules_after_import"] == []


def test_import_leaves_numpy_unloaded(probe):
    for run in probe.values():
        assert run["numpy_after_import"] is False


def test_non_trainer_subcommands_leave_numpy_unloaded(probe):
    for name in NON_TRAINER:
        assert probe[name]["code"] == 0
        assert "numpy" not in probe[name]["loaded"], name


def test_non_trainer_subcommands_leave_decimal_unloaded(probe):
    for name in NON_TRAINER:
        assert probe[name]["code"] == 0
        assert "decimal" not in probe[name]["loaded"], name


def test_non_trainer_subcommands_leave_the_trainer_unloaded(probe):
    for name in NON_TRAINER:
        assert "scdkit.trainer" not in probe[name]["loaded"], name


@pytest.mark.parametrize("name", ["score", "segment"])
def test_score_and_segment_leave_the_risk_path_and_logging_unloaded(probe, name):
    assert probe[name]["code"] == 0
    unused = {"scdkit.risk", "scdkit.alignment", "scdkit.tokens", "logging"}
    assert probe[name]["loaded"] & unused == set()


def test_align_and_risk_load_what_they_run(probe):
    # the control for the test above: the probe sees these modules load
    assert {"scdkit.alignment", "scdkit.tokens"} <= probe["align"]["loaded"]
    assert "scdkit.risk" not in probe["align"]["loaded"]
    assert {"scdkit.alignment", "scdkit.tokens", "scdkit.risk"} <= probe["risk"]["loaded"]


def test_train_toy_loads_numpy(probe):
    assert probe["train-toy"]["code"] == 0
    assert {"numpy", "scdkit.trainer"} <= probe["train-toy"]["loaded"]


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

    def test_risk_records_are_one_object_wherever_imported(self):
        # defined beside the report codec, re-exported by scdkit.risk
        assert scdkit.LossBreakdown is scdkit.risk.LossBreakdown is LossBreakdown
        assert scdkit.RiskKind is scdkit.risk.RiskKind is RiskKind
        assert scdkit.risk.RiskConfig().risk_kind is RiskKind.SCD_WEIGHTED

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


class TestRiskRecordPickle:
    LOSS = LossBreakdown(per_hyp_risk=(0.5, 1.0), per_hyp_prob=(0.75, 0.25), expected_risk=0.625,
                         nll_term=0.0, total=0.625, expected_fa=0.25, expected_fr=0.0,
                         expected_w=1.0)

    def test_round_trip(self):
        for obj in (self.LOSS, RiskKind.WORD_ERROR_ONLY):
            assert pickle.loads(pickle.dumps(obj)) == obj

    @pytest.mark.parametrize("obj", [LOSS, RiskKind.SCD_WEIGHTED], ids=["loss", "kind"])
    def test_pickle_naming_the_risk_module_loads(self, obj):
        # Pickles written while the records were defined in scdkit.risk
        # name that module; it still exports them.
        data = pickle.dumps(obj, protocol=0)
        here = f"scdkit.dataio\n{type(obj).__name__}".encode()
        assert here in data
        old = data.replace(here, f"scdkit.risk\n{type(obj).__name__}".encode())
        assert pickle.loads(old) == obj
