"""Byte-exact CLI output pinned against committed golden files.

Each case runs ``python -m scdkit`` on committed fixtures and compares
stdout, stderr and the exit code with ``fixtures/golden/<name>.stdout``,
``<name>.stderr`` and ``<name>.code``.  The fixtures directory is written
as ``<FIXTURES>`` in the stderr files, so they do not depend on where the
repository is checked out.  That fresh interpreter has no numpy, so ``scd
risk`` aligns with the pure-Python DP; the risk cases that succeed run once
more in this process, where numpy is loaded, to pin the batched DP to the
same bytes.  The goldens are evidence of what the CLI printed when
they were captured; a change that alters them must say so, not
regenerate them.
"""

import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  (loaded, so the in-process risk runs take the batched DP)
import pytest

from scdkit import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

_FIG1 = ("--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(FIXTURES / "fig1.stamps"))
_MULTI = ("--ref", str(FIXTURES / "multi.rttm"), "--hyp", str(FIXTURES / "multi.stamps"))
_PAIR = ("--ref", str(FIXTURES / "ref_a.txt"), "--hyp", str(FIXTURES / "hyp_a.txt"))
_NBEST = ("--nbest", str(FIXTURES / "nbest_small.jsonl"))
# an optimal-path tie between a deletion and an insertion pins the try order
_TIE = ("--ref", str(FIXTURES / "tie_ref.txt"), "--hyp", str(FIXTURES / "tie_hyp.txt"))

CASES = {
    "align-table": ("align", *_PAIR),
    "align-machine": ("align", *_PAIR, "--format", "machine"),
    "align-tie-table": ("align", *_TIE, "--k", "1"),
    "risk-table": ("risk", *_NBEST, "--nll", "1.5"),
    "risk-machine": ("risk", *_NBEST, "--format", "machine"),
    "risk-nbest-n": ("risk", *_NBEST, "--nbest-n", "2", "--k", "1.5"),
    "risk-no-normalize": ("risk", *_NBEST, "--no-normalize", "--format", "machine"),
    "risk-word-error-only": ("risk", *_NBEST, "--risk-kind", "word_error_only"),
    "risk-missing-file": ("risk", "--nbest", str(FIXTURES / "no_such_file.jsonl")),
    "train-toy-scenario": ("train-toy", "--scenario", "st-vs-word", "--steps", "40"),
    "train-toy-ref": ("train-toy", "--ref", str(FIXTURES / "ref_a.txt"), "--edit-budget", "2",
                      "--steps", "25", "--seed", "5", "--nbest-n", "4"),
    "score-fig1-table": ("score", *_FIG1),
    "score-fig1-machine": ("score", *_FIG1, "--format", "machine"),
    "score-multi-table": ("score", *_MULTI, "--collar", "0.3"),
    "score-multi-machine": ("score", *_MULTI, "--format", "machine"),
    "score-multi-duration": ("score", *_MULTI, "--recall-mode", "duration"),
    "score-multi-gap-merge": ("score", *_MULTI, "--gap-merge", "1.0"),
    "score-multi-gap-merge-machine": ("score", *_MULTI, "--gap-merge", "1.0",
                                      "--format", "machine"),
    "segment-fig1": ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "12"),
    "segment-multi": ("segment", "--ref", str(FIXTURES / "multi.rttm"), "--target", "5"),
}


def run_case(argv):
    return subprocess.run([sys.executable, "-m", "scdkit", *argv], capture_output=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    proc = run_case(CASES[name])
    assert proc.returncode == int((GOLDEN / f"{name}.code").read_text())
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    stderr = proc.stderr.replace(str(FIXTURES).encode(), b"<FIXTURES>")
    assert stderr == (GOLDEN / f"{name}.stderr").read_bytes()


@pytest.mark.parametrize("name", ["risk-machine", "risk-nbest-n", "risk-no-normalize",
                                  "risk-table", "risk-word-error-only"])
def test_in_process_risk_output_matches_golden(name, capsys, key_rows_calls):
    assert cli.main(list(CASES[name])) == int((GOLDEN / f"{name}.code").read_text())
    out, err = capsys.readouterr()
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()
    assert key_rows_calls == [0]  # the batched DP aligned every hypothesis
