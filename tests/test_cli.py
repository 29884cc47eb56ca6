import json
import subprocess
import sys
from pathlib import Path

import pytest

from scdkit.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "scdkit", *args],
        capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_score_fig1_table():
    proc = run_cli("score", "--ref", str(FIXTURES / "fig1.rttm"),
                   "--hyp", str(FIXTURES / "fig1.stamps"), "--collar", "0.25", check=True)
    assert "precision            66.7" in proc.stdout
    assert "recall               100.0" in proc.stdout
    assert proc.stderr == ""


def test_score_machine_format(tmp_path):
    proc = run_cli("score", "--ref", str(FIXTURES / "fig1.rttm"),
                   "--hyp", str(FIXTURES / "fig1.stamps"), "--format", "machine", check=True)
    obj = json.loads(proc.stdout)
    pr = obj["pooled"]["precision_recall"]
    assert pr["precision"] == pytest.approx(2 / 3)
    assert pr["recall_count"] == 1.0
    assert obj["recordings"][0]["recording_id"] == "fig1"


def test_score_recall_mode_duration():
    proc = run_cli("score", "--ref", str(FIXTURES / "fig1.rttm"),
                   "--hyp", str(FIXTURES / "fig1.stamps"), "--recall-mode", "duration",
                   check=True)
    assert "recall               100.0" in proc.stdout


def test_score_unknown_recording_is_data_error(tmp_path):
    stamps = tmp_path / "bad.stamps"
    stamps.write_text("nosuchrec\t1.00\n")
    proc = run_cli("score", "--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(stamps))
    assert proc.returncode == 2
    assert "nosuchrec" in proc.stderr


def test_align_identity(tmp_path):
    ref = FIXTURES / "ref_a.txt"
    proc = run_cli("align", "--ref", str(ref), "--hyp", str(ref), check=True)
    assert "cost_milli     0" in proc.stdout


def test_align_machine(tmp_path):
    proc = run_cli("align", "--ref", str(FIXTURES / "ref_a.txt"),
                   "--hyp", str(FIXTURES / "hyp_a.txt"), "--format", "machine", check=True)
    obj = json.loads(proc.stdout)
    assert obj["cost_milli"] == 2200
    assert obj["counts"] == {"word_errors": 0, "st_insertions": 1,
                             "st_deletions": 1, "st_correct": 0}
    kinds = [op["kind"] for op in obj["ops"]]
    assert kinds.count("delete") == 1 and kinds.count("insert") == 1


def test_risk_missing_file_exit_2():
    proc = run_cli("risk", "--nbest", "definitely_missing.jsonl")
    assert proc.returncode == 2
    assert "definitely_missing.jsonl" in proc.stderr


def test_risk_table_and_batch(tmp_path):
    nbest = tmp_path / "n.jsonl"
    nbest.write_text(
        '{"utterance_id": "u1", "reference": "a b <st> c", "hypotheses": '
        '[{"text": "a b <st> c", "log_score": -0.1}, {"text": "a b c", "log_score": -0.1}]}\n')
    proc = run_cli("risk", "--nbest", str(nbest), "--lambda", "0.03", "--nll", "2.0",
                   check=True)
    assert "== utterance u1" in proc.stdout
    assert "== batch" in proc.stdout
    # equal scores: expected risk = 0.5 * (10/4) = 1.25; total = 1.25 + 0.06
    assert "expected_risk  1.25" in proc.stdout
    assert "total          1.31" in proc.stdout


def test_risk_word_error_kind(tmp_path):
    nbest = tmp_path / "n.jsonl"
    nbest.write_text(
        '{"utterance_id": "u1", "reference": "a b <st> c", "hypotheses": '
        '[{"text": "a b c", "log_score": 0.0}]}\n')
    proc = run_cli("risk", "--nbest", str(nbest), "--risk-kind", "word_error_only",
                   "--format", "machine", check=True)
    obj = json.loads(proc.stdout)
    assert obj["utterances"][0]["report"]["expected_risk"] == 1.0


def test_risk_nbest_n_truncates(tmp_path):
    nbest = tmp_path / "n.jsonl"
    nbest.write_text(
        '{"utterance_id": "u1", "reference": "a", "hypotheses": '
        '[{"text": "a", "log_score": -0.1}, {"text": "b", "log_score": -5.0}]}\n')
    proc = run_cli("risk", "--nbest", str(nbest), "--nbest-n", "1",
                   "--format", "machine", check=True)
    obj = json.loads(proc.stdout)
    assert obj["utterances"][0]["report"]["per_hyp_risk"] == [0.0]


def test_train_toy_scenario(tmp_path):
    out = tmp_path / "trace.jsonl"
    proc = run_cli("train-toy", "--scenario", "st-vs-word", "--steps", "20",
                   "--out", str(out), check=True)
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    assert last["loss_total"] < first["loss_total"]
    assert "st-vs-word" in proc.stderr  # diagnostics on stderr, results in the file


def test_train_toy_from_transcript(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("a <st> b\n")
    proc = run_cli("train-toy", "--ref", str(ref), "--edit-budget", "1",
                   "--steps", "10", "--seed", "7", check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 11


def test_segment_windows():
    proc = run_cli("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "12",
                   check=True)
    assert proc.stdout == "fig1\t0.00\t25.00\n"


def test_usage_errors_exit_1():
    assert run_cli("unknown-sub").returncode == 1
    assert run_cli("align", "--ref", "x").returncode == 1
    assert run_cli("align", "--ref", "x", "--hyp", "y", "--k", "0.5").returncode == 1
    assert run_cli("risk", "--nbest", "x", "--nbest-n", "zero").returncode == 1


@pytest.mark.parametrize("argv", [
    ("train-toy", "--ref", "t.txt", "--steps", "0"),
    ("train-toy", "--ref", "t.txt", "--steps", "-3"),
    ("train-toy", "--ref", "t.txt", "--lr", "0"),
    ("train-toy", "--ref", "t.txt", "--lr", "nan"),
    ("train-toy", "--ref", "t.txt", "--lr", "inf"),
    ("score", "--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(FIXTURES / "fig1.stamps"),
     "--collar", "nan", "--format", "machine"),
    ("score", "--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(FIXTURES / "fig1.stamps"),
     "--collar", "inf"),
    ("score", "--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(FIXTURES / "fig1.stamps"),
     "--gap-merge", "nan"),
    ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "nan"),
    ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "inf"),
    ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "1e400"),
    ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "0"),
    ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "-1"),
    ("score", "--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(FIXTURES / "fig1.stamps"),
     "--collar", "0.2501"),
    ("score", "--ref", str(FIXTURES / "fig1.rttm"), "--hyp", str(FIXTURES / "fig1.stamps"),
     "--gap-merge", "1.0005"),
    ("segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "12.0001"),
    *[(sub, *inputs, "--k", k)
      for sub, inputs in [("align", ("--ref", str(FIXTURES / "ref_a.txt"),
                                     "--hyp", str(FIXTURES / "hyp_a.txt"))),
                          ("risk", ("--nbest", str(FIXTURES / "nbest_small.jsonl")))]
      for k in ("inf", "nan", "sNaN")],
])
def test_bad_values_are_usage_errors_exit_1(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_malformed_rttm_exit_2(tmp_path):
    bad = tmp_path / "bad.rttm"
    bad.write_text("SPEAKER rec 1 0.00 1.00 <NA> <NA>\n")
    proc = run_cli("score", "--ref", str(bad), "--hyp", str(FIXTURES / "fig1.stamps"))
    assert proc.returncode == 2
    assert ":1" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("score", "--ref", str(FIXTURES / "multi.rttm"), "--hyp", str(FIXTURES / "multi.stamps")),
    ("train-toy", "--scenario", "st-vs-word", "--steps", "5"),
])
def test_unwritable_out_is_data_error_exit_2(tmp_path, argv):
    out = tmp_path / "no_such_dir" / "x"
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {out}: No such file or directory\n"


def test_byte_identical_across_runs(tmp_path):
    combos = [
        ("score", "--ref", str(FIXTURES / "fig1.rttm"),
         "--hyp", str(FIXTURES / "fig1.stamps"), "--format", "machine"),
        ("score", "--ref", str(FIXTURES / "fig1.rttm"),
         "--hyp", str(FIXTURES / "fig1.stamps")),
        ("train-toy", "--scenario", "st-vs-word", "--steps", "50", "--seed", "3"),
        ("align", "--ref", str(FIXTURES / "ref_a.txt"), "--hyp", str(FIXTURES / "hyp_a.txt")),
    ]
    for argv in combos:
        one = run_cli(*argv, check=True)
        two = run_cli(*argv, check=True)
        assert one.stdout == two.stdout


EXPECTED_FLAGS = {
    "align": {"--ref", "--hyp", "--k", "--format", "--out", "--help", "-h"},
    "risk": {"--nbest", "--alpha", "--beta", "--gamma", "--k", "--risk-kind",
             "--normalize", "--no-normalize", "--nbest-n", "--lambda", "--nll",
             "--format", "--out", "--help", "-h"},
    "train-toy": {"--scenario", "--ref", "--vocab", "--edit-budget", "--steps", "--lr",
                  "--lambda", "--nbest-n", "--alpha", "--beta", "--gamma", "--k",
                  "--seed", "--out", "--help", "-h"},
    "score": {"--ref", "--hyp", "--collar", "--recall-mode", "--gap-merge",
              "--format", "--out", "--help", "-h"},
    "segment": {"--ref", "--target", "--out", "--help", "-h"},
}


def iter_subparsers():
    parser = build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            yield from action.choices.items()


def test_help_lists_exactly_the_implemented_flags():
    seen = {}
    for name, sub in iter_subparsers():
        flags = set()
        for action in sub._actions:
            flags.update(action.option_strings)
        seen[name] = flags
        help_text = sub.format_help()
        for flag in flags:
            assert flag in help_text, f"{name}: {flag} missing from --help"
    assert seen == EXPECTED_FLAGS


def test_main_in_process_exit_codes(capsys):
    rc = main(["score", "--ref", str(FIXTURES / "fig1.rttm"),
               "--hyp", str(FIXTURES / "fig1.stamps")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "66.7" in captured.out
    rc = main(["risk", "--nbest", "missing.jsonl"])
    assert rc == 2
    assert "missing.jsonl" in capsys.readouterr().err
