"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, and checks that each metric is
printed with its unit and sample count, that no operation failed, and that
the traced layer times add up to the in-process wall time.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

LINE = re.compile(r"^(metric|layer)\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)")
WORKLOAD_METRIC_NAMES = {
    "score-longform": ["segments_per_s"],
    "risk-longform": ["hyps_per_s", "loss_grad_ms_p50"],
    "risk-shortform": ["hyps_per_s", "loss_grad_ms_p50"],
    "train-toy": ["steps_per_s"],
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def all_workloads(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "record.json"
    done = _bench("--workload", "all", "--seed", "1", "--seconds", "1", "--size", "tiny",
                  "--out", str(out))
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text())


def _sections(stdout: str):
    """(workload, trace) -> {metric name: (value, unit, n)}"""
    sections = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            name, trace = line.split()[1], line.split()[3]
            current = sections.setdefault((name, trace), {})
        m = LINE.match(line)
        if m and current is not None:
            current[m.group(2)] = (float(m.group(3)), m.group(4), int(m.group(5)))
    return sections


def test_spec_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_every_metric_printed_with_unit_and_count(all_workloads):
    stdout, _ = all_workloads
    sections = _sections(stdout)
    for name in run.WORKLOAD_NAMES:
        plain = sections[(name, "trace=0")]
        for metric, (unit, _) in run.END_TO_END.items():
            value, printed_unit, n = plain[metric]
            assert printed_unit == unit and n >= 1 and value > 0, (name, metric)
        for metric in WORKLOAD_METRIC_NAMES[name]:
            assert plain[metric][2] >= 1, (name, metric)
        traced = sections[(name, "trace=1")]
        units = {metric: unit for metric, (unit, _) in run.PER_LAYER.items()}
        units.update(run.LAYER_TIMES)
        for metric, unit in units.items():
            assert traced[metric][1] == unit and traced[metric][2] >= 1, (name, metric)
    result = json.loads(stdout.splitlines()[-1])
    assert set(result["metrics"]) == {f"{name}/{metric}" for name in run.WORKLOAD_NAMES
                                      for metric in [*run.END_TO_END, *run.PER_LAYER]}


def test_fail_ratio_is_zero(all_workloads):
    stdout, records = all_workloads
    for key, rows in _sections(stdout).items():
        value, unit, attempted = rows["fail_ratio"]
        assert value == 0 and attempted >= 1, key
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == sum(r["tally"]["attempted"] for r in records)


def test_layer_times_reconcile_with_in_process_wall(all_workloads):
    _, records = all_workloads
    span_metrics = set(run.SPAN_METRIC.values())
    for record in records:
        if not record["trace"]:
            continue
        for rnd in record["rounds"]:
            layers = sum(v for k, v in rnd.items() if k in span_metrics)
            assert layers == pytest.approx(rnd["layer_sum_s"], rel=1e-9)
            assert rnd["trace.op_s"] == pytest.approx(layers + rnd["trace.unattributed_s"])
            assert 0 <= rnd["trace.unattributed_s"] < rnd["trace.op_s"]
        ops = [s for s in record["spans"] if s["parent"] is None and s["name"].startswith("cli.")]
        assert len(ops) == len(record["rounds"])
        assert len({s["op"] for s in ops}) == len(ops)


def test_inputs_depend_only_on_the_seed():
    def corpus(seed):
        return (inputs.rttm_and_stamps(random.Random(seed), 2, 30),
                inputs.nbest_lines(random.Random(seed), 3, 12, 4))

    assert corpus("a") == corpus("a")
    assert corpus("a") != corpus("b")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "score-longform", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
