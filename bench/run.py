"""scdkit benchmark: seeded workloads driven through the CLI, plus a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload score-longform --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --out BENCH_0.json

Untraced (``--trace 0``): a closed loop with one client runs
``python -m scdkit <subcommand>`` on the workload's generated inputs, one
run at a time, with ``PYTHONPATH`` set to this checkout's ``src/``.  After
each run it times the one-record set-up command, then starts a worker
(``libworker.py``) that times the library calls behind a share of the same
work in-process.  Every CLI output is checked
against the library result for the same inputs and against the report
invariants; a run that fails any check counts in ``failed``.

Traced (``--trace 1``): replays the CLI command in-process with a span
around each public call it makes, next to an untraced replay and a CLI
run of the same input, and reports per-layer times and counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without that line when
the checkout has no ``src/scdkit`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from tempfile import mkdtemp
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("score-longform", "risk-longform", "risk-shortform", "train-toy")
# A gain claimed on the development seeds must also hold on this one.
HELD_OUT_SEED = 7919

MIN_CLI_RUNS = 3
MIN_SETUP_RUNS = 5
# library worker time after each CLI run, as a share of that run's wall time
LIB_SHARE = 0.5
# every measurement stops starting new work this long after it began
DEADLINE_S = 140.0
# child processes cycle through PYTHONHASHSEED = 1..HASH_SEEDS (see Cli)
HASH_SEEDS = 8

# name -> (unit, better); the order is the order printed
END_TO_END = {
    "work_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "lib_ms_p50": ("ms", "lower"),
}
# Per-layer metrics printed in the JSON result of a traced run.  Each is
# measured on every workload: a time, or a count or ratio that is 0 where
# its layer does not run.
PER_LAYER = {
    "dataio.parse_s": ("s", "lower"),
    "dataio.render_s": ("s", "lower"),
    "dataio.records": ("count", "higher"),
    "layers.compute_s": ("s", "lower"),
    "metrics.segments": ("count", "higher"),
    "metrics.change_intervals": ("count", "higher"),
    "metrics.predictions_kept": ("count", "higher"),
    "metrics.predictions_dropped": ("count", "lower"),
    "metrics.growth_ratio": ("ratio", "lower"),
    "alignment.calls": ("count", "lower"),
    "alignment.cells": ("count", "lower"),
    "risk.align_time_ratio": ("ratio", "lower"),
    "trainer.candidates": ("count", "higher"),
    "cli.wall_s": ("s", "lower"),
    "cli.glue_s": ("s", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Times of single layers, printed in the report and written with --out but
# left out of the JSON result: where the layer does not run they read 0 on
# every run, which is no measurement.
LAYER_TIMES = {
    "metrics.change_intervals_s": "s",
    "metrics.score_changes_s": "s",
    "metrics.purity_coverage_s": "s",
    "metrics.pool_s": "s",
    "alignment.align_s": "s",
    "alignment.cells_per_s": "1/s",
    "alignment.path_s": "s",
    "risk.expected_risk_s": "s",
    "risk.batch_loss_s": "s",
    "risk.risk_gradient_s": "s",
    "trainer.enumerate_s": "s",
    "trainer.train_s": "s",
    "trainer.step_us": "us",
}
# span name of a public call the CLI makes -> the per-layer metric it adds to
SPAN_METRIC = {
    "dataio.parse_rttm": "dataio.parse_s",
    "dataio.parse_change_stamps": "dataio.parse_s",
    "dataio.parse_nbest": "dataio.parse_s",
    "dataio.tokenize_transcript": "dataio.parse_s",
    "dataio.write_report": "dataio.render_s",
    "dataio.write_trace": "dataio.render_s",
    "metrics.score_changes": "metrics.score_changes_s",
    "metrics.purity_coverage": "metrics.purity_coverage_s",
    "metrics.pooled_precision_recall": "metrics.pool_s",
    "metrics.pooled_segmentation": "metrics.pool_s",
    "risk.expected_risk": "risk.expected_risk_s",
    "risk.batch_loss": "risk.batch_loss_s",
    "trainer.enumerate_candidates": "trainer.enumerate_s",
    "trainer.train": "trainer.train_s",
}
# per-workload names of work_per_s, printed next to it in the report
RATE_NAME = {"segments": "segments_per_s", "hypotheses": "hyps_per_s", "steps": "steps_per_s"}


# ---------------------------------------------------------------------------
# code under test and host


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def code_identity(child_file: str) -> Dict:
    import scdkit

    digest = hashlib.sha256()
    for path in sorted((SRC / "scdkit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src") if sha else None
    return {
        "scdkit_file": str(Path(scdkit.__file__).resolve()),
        "child_scdkit_file": child_file,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def loadavg() -> Optional[str]:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def speed_probe_ms() -> float:
    """Median of five runs of a fixed pure-Python loop; recorded, never used to scale."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def host_record() -> Dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "held_out_seed": HELD_OUT_SEED}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


class _Timeout(Exception):
    pass


@contextmanager
def _alarm(seconds: float):
    def fire(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Cli:
    """Runs ``python -m scdkit`` from this checkout, one process at a time.

    The k-th run of each kind of command gets ``PYTHONHASHSEED`` = 1 + k mod
    ``HASH_SEEDS``.  A process's hash seed sets its dict and set layouts,
    which alone moves a CLI run's time by up to a third here.  Cycling
    through the same seeds makes every measurement sample the same layouts.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.runs: Dict[str, int] = {}

    def run(self, args: List[str], timeout: float, kind: str = "cli",
            module: bool = True) -> ChildRun:
        """Run ``args`` (``-m scdkit`` unless not ``module``); ``kind`` names the
        hash seed cycle the run advances."""
        argv = [sys.executable, "-m", "scdkit", *args] if module else [sys.executable, *args]
        k = self.runs.get(kind, 0)
        self.runs[kind] = k + 1
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(1 + k % HASH_SEEDS))
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                with _alarm(timeout):
                    _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of this child alone, in KiB on Linux
        return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                        out_path.read_bytes(), err_path.read_bytes())


def _run_errors(run: ChildRun) -> List[str]:
    if run.exit_code == 0:
        return []
    tail = run.stderr.decode("utf-8", errors="replace").strip().splitlines()[-1:]
    return [f"exit code {run.exit_code}: {' '.join(tail)}"]


# ---------------------------------------------------------------------------
# measurements


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, what: str, errors: List[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {'; '.join(errors)}")
        return not errors


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(wl, cli: Cli, seconds: float, deadline: float, tally: Tally, size: str) -> Dict:
    """Closed loop: CLI run, set-up run, then a worker timing library units."""
    walls, rss, setups, lib, digests = [], [], [], [], []
    next_unit = 0
    stop = perf_counter() + seconds
    while perf_counter() < deadline:
        began = perf_counter()
        run = cli.run(wl.cli_args, deadline - perf_counter() + 30)
        digests.append(hashlib.sha256(run.stdout).hexdigest())
        errors = _run_errors(run) or wl.check_stdout(run.stdout)
        if tally.add("cli", errors):
            walls.append(run.wall_s)
            rss.append(run.rss_mb)
        setup = cli.run(wl.setup_args, 60, kind="setup")
        if tally.add("setup", _run_errors(setup)):
            setups.append(setup.wall_s)
        spec = {"workload": wl.name, "seed": wl.seed, "size": size, "workdir": str(wl.dir),
                "first": next_unit, "seconds": LIB_SHARE * run.wall_s}
        worker = cli.run([str(BENCH_DIR / "libworker.py"), json.dumps(spec)],
                         deadline - perf_counter() + 30, kind="lib", module=False)
        errors = _run_errors(worker)
        timings = [] if errors else json.loads(worker.stdout)
        if not timings:
            tally.add("library worker", errors or ["no units timed"])
        for dt, unit_errors in timings:
            next_unit += 1
            if tally.add("library", unit_errors):
                lib.append(dt)
        # stop when another iteration like this one would end past ``stop``
        if 2 * perf_counter() - began >= stop and len(walls) >= MIN_CLI_RUNS:
            break
    while len(setups) < MIN_SETUP_RUNS and perf_counter() < deadline:
        setup = cli.run(wl.setup_args, 60, kind="setup")
        if tally.add("setup", _run_errors(setup)):
            setups.append(setup.wall_s)

    wall = _median(walls)
    metrics = {
        "work_per_s": (wl.items / wall if wall else 0.0, len(walls)),
        "setup_s": (_median(setups), len(setups)),
        "peak_rss_mb": (_median(rss), len(rss)),
        "lib_ms_p50": (1e3 * _median(lib), len(lib)),
    }
    extra = {RATE_NAME[wl.item]: metrics["work_per_s"]}
    if wl.subcommand == "risk":
        extra["loss_grad_ms_p50"] = metrics["lib_ms_p50"]
        if len(lib) >= 200:
            extra["loss_grad_ms_p95"] = (1e3 * statistics.quantiles(lib, n=20)[18], len(lib))
    samples = {"cli_wall_s": walls, "peak_rss_mb": rss, "setup_s": setups, "lib_s": lib,
               "stdout_sha256": digests}
    return {"metrics": metrics, "extra": extra, "samples": samples}


def measure_traced(wl, cli: Cli, seconds: float, deadline: float, tally: Tally) -> Dict:
    """Rounds of: traced replay, stand-alone calls, untraced replay, CLI run."""
    from spans import NULL, AlignmentCounter, Tracer

    tracer = Tracer()
    setups = []
    while len(setups) < MIN_SETUP_RUNS and perf_counter() < deadline:
        setup = cli.run(wl.setup_args, 60, kind="setup")
        if tally.add("setup", _run_errors(setup)):
            setups.append(setup.wall_s)
    setup_s = _median(setups)

    rounds: List[Dict[str, float]] = []
    stop = perf_counter() + seconds
    while perf_counter() < deadline:
        began = perf_counter()
        op_id = f"{wl.name}-{wl.seed}-{len(rounds)}"
        counts: Dict[str, float] = dict(wl.layer_counts())
        counter = AlignmentCounter()
        with counter.active(), tracer.operation(op_id, f"cli.{wl.subcommand}") as op:
            out = wl.cli_path(tracer)
        tally.add("traced replay", wl.check_stdout(out.encode("utf-8")))
        layer_sum = 0.0
        for span in tracer.children(op):
            dt = span["end"] - span["start"]
            layer_sum += dt
            key = SPAN_METRIC[span["name"]]
            counts[key] = counts.get(key, 0.0) + dt
        op_s = op["end"] - op["start"]
        counts["layers.compute_s"] = sum(
            counts.get(key, 0.0) for key in set(SPAN_METRIC.values())
            if not key.startswith("dataio."))
        if counter.calls:
            counts["alignment.calls"] = counter.calls
            counts["alignment.cells"] = counter.cells
            counts["alignment.path_s"] = counter.seconds

        wl.traced_extras(tracer, op_id, counts)
        if "risk.risk_gradient_s" in counts:
            counts["risk.align_time_ratio"] = (
                (counts["risk.expected_risk_s"] + counts["risk.batch_loss_s"]
                 + counts["risk.risk_gradient_s"]) / counts["alignment.align_s"])
        if "trainer.train_s" in counts:
            counts["trainer.step_us"] = 1e6 * counts["trainer.train_s"] / wl.steps

        t0 = perf_counter()
        wl.cli_path(NULL)
        untraced = perf_counter() - t0
        run = cli.run(wl.cli_args, deadline - perf_counter() + 30)
        tally.add("cli", _run_errors(run) or wl.check_stdout(run.stdout))
        counts.update({
            "cli.wall_s": run.wall_s,
            "cli.glue_s": run.wall_s - setup_s - layer_sum,
            "trace.op_s": op_s,
            "trace.unattributed_s": op_s - layer_sum,
            "trace.overhead_s": op_s - untraced,
            "layer_sum_s": layer_sum,
            "untraced_op_s": untraced,
        })
        rounds.append(counts)
        if 2 * perf_counter() - began >= stop:
            break

    per_layer = {name: (_median([r.get(name, 0.0) for r in rounds]), len(rounds))
                 for name in [*PER_LAYER, *LAYER_TIMES, "layer_sum_s", "untraced_op_s"]}
    return {"per_layer": per_layer, "setup_s": (setup_s, len(setups)),
            "rounds": rounds, "spans": tracer.spans}


# ---------------------------------------------------------------------------
# report


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(wl, traced: bool, seconds: float, record: Dict) -> None:
    code, host = record["code"], record["host"]
    print(f"== {wl.name}  seed={wl.seed}  trace={int(traced)}  seconds={seconds:g}  "
          f"closed loop, 1 client")
    print(f"code    scdkit={code['scdkit_file']} child={code['child_scdkit_file']} "
          f"git={code['git_sha']} dirty={code['git_dirty']} src_sha256={code['src_sha256'][:16]}")
    print(f"host    python={host['python']} numpy={host['numpy']} nproc={host['nproc']} "
          f"loadavg_before={host['loadavg_before']} loadavg_after={host['loadavg_after']} "
          f"probe_ms_before={_fmt(host['probe_ms_before'])} "
          f"probe_ms_after={_fmt(host['probe_ms_after'])} held_out_seed={host['held_out_seed']}")
    print(f"input   {wl.items} {wl.item} per CLI run; cli: python -m scdkit "
          f"{' '.join(wl.cli_args[:1])} ...")
    tally = record["tally"]
    if traced:
        layer = record["per_layer"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units.update(LAYER_TIMES)
        for name, unit in units.items():
            value, n = layer[name]
            print(f"layer   {name:<28} {_fmt(value):>12} {unit:<6} n={n}")
        op, layers = layer["trace.op_s"][0], layer["layer_sum_s"][0]
        print(f"reconcile  in-process op {_fmt(op)} s = layers {_fmt(layers)} s + unattributed "
              f"{_fmt(layer['trace.unattributed_s'][0])} s; cli wall {_fmt(layer['cli.wall_s'][0])} s"
              f" = setup {_fmt(record['setup_s'][0])} s + layers + glue "
              f"{_fmt(layer['cli.glue_s'][0])} s; tracing overhead "
              f"{_fmt(layer['trace.overhead_s'][0])} s (traced {_fmt(op)} s - untraced "
              f"{_fmt(layer['untraced_op_s'][0])} s)")
    else:
        rows = dict(record["metrics"])
        rows.update(record["extra"])
        for name, (value, n) in rows.items():
            unit = END_TO_END[name][0] if name in END_TO_END else (
                "1/s" if name.endswith("_per_s") else "ms")
            print(f"metric  {name:<18} {_fmt(value):>12} {unit:<6} n={n}")
        digests = record["samples"]["stdout_sha256"]
        print(f"stdout  sha256 {digests[0][:16] if digests else '-'} "
              f"({len(set(digests))} distinct over {len(digests)} runs; not gated)")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"metric  {'fail_ratio':<18} {_fmt(ratio):>12} {'ratio':<6} n={tally.attempted} "
          f"failed={tally.failed}")
    for msg in tally.messages:
        print(f"failure {msg}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str,
                 workroot: Path) -> Dict:
    import workloads

    started = perf_counter()
    deadline = started + DEADLINE_S
    workdir = workroot / f"{name}-{int(traced)}"
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](workdir, seed, workloads.SIZES[size][name])
    cli = Cli(workdir)
    # warm-up child: compiles bytecode and shows which scdkit the CLI imports
    probe = cli.run(["-c", "import sys, scdkit; sys.stdout.write(scdkit.__file__)"], 60,
                    kind="probe", module=False)
    child_file = str(Path(probe.stdout.decode("utf-8", errors="replace")).resolve())
    if probe.exit_code != 0 or not Path(child_file).is_relative_to(SRC):
        raise SystemExit(f"error: the CLI does not import scdkit from {SRC}: {child_file!r}")

    host = host_record()
    host["loadavg_before"] = loadavg()
    host["probe_ms_before"] = speed_probe_ms()
    tally = Tally()
    if traced:
        record = measure_traced(wl, cli, seconds, deadline, tally)
    else:
        record = measure(wl, cli, seconds, deadline, tally, size)
    host["probe_ms_after"] = speed_probe_ms()
    host["loadavg_after"] = loadavg()
    record.update({"workload": name, "seed": seed, "trace": int(traced), "seconds": seconds,
                   "size": size, "items": wl.items, "item": wl.item, "host": host,
                   "code": code_identity(child_file), "tally": tally,
                   "elapsed_s": perf_counter() - started})
    print_report(wl, traced, seconds, record)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default 0; with --workload all, both)")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--out", help="also write the full record (samples, spans, host) here")
    args = parser.parse_args(argv)

    if not (SRC / "scdkit" / "__init__.py").is_file():
        print(f"error: no scdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scdkit

    if not Path(scdkit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported scdkit from {scdkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        modes = (bool(args.trace),)
    else:
        modes = (False, True) if args.workload == "all" else (False,)
    workroot = Path(mkdtemp(prefix=".bench-", dir=ROOT))
    records = []
    try:
        for name in names:
            for traced in modes:
                records.append(run_workload(name, args.seed, args.seconds, traced,
                                            args.size, workroot))
    finally:
        shutil.rmtree(workroot)

    attempted = sum(r["tally"].attempted for r in records)
    failed = sum(r["tally"].failed for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(names) == 1 else f"{r['workload']}/"
        if r["trace"]:
            chosen = {k: r["per_layer"][k] for k in PER_LAYER}
            units = PER_LAYER
        else:
            chosen, units = r["metrics"], END_TO_END
        for key, (value, _) in chosen.items():
            metrics[prefix + key] = {"value": value, "unit": units[key][0]}
    if args.out:
        for r in records:
            r["tally"] = vars(r["tally"])
        Path(args.out).write_text(json.dumps(records, indent=1, default=str) + "\n",
                                  encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
