"""The four benchmark workloads.

Each workload generates its inputs from the seed, names the CLI command
that consumes them, and replays that command in-process through exactly
the public calls the CLI makes (``cli_path``).  The replay serves three
purposes: run once untraced, it is the library result the CLI output must
equal; run under a ``Tracer``, its spans give the per-layer times; and
timed against the untraced replay, it gives the tracing overhead.

``lib_units`` are the in-process library calls behind one unit of CLI
output (a recording, an utterance, a training run), as (call, check)
pairs: the call is timed for the ``lib_ms_p50`` metric, the check of its
result is not.  ``libworker.py`` runs them in a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import inputs
from spans import NULL

from scdkit.alignment import AlignmentCosts, align
from scdkit.dataio import (
    parse_change_stamps,
    parse_nbest,
    parse_rttm,
    tokenize_transcript,
    write_report,
    write_trace,
)
from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    change_intervals,
    pooled_precision_recall,
    pooled_segmentation,
    purity_coverage,
    score_changes,
)
from scdkit.risk import RiskConfig, RiskKind, batch_loss, expected_risk, risk_gradient
from scdkit.trainer import TrainConfig, enumerate_candidates, train

MACHINE = "machine"
COLLAR = 0.25
NLL_WEIGHT = 0.03
PROB_TOL = 1e-9

# Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is
# for the smoke test only.
SIZES = {
    "full": {
        "score-longform": {"recordings": 2, "segments": 500},
        "risk-longform": {"utterances": 2, "tokens": 160, "hyps": 8},
        "risk-shortform": {"utterances": 200, "tokens": 12, "hyps": 8},
        "train-toy": {"tokens": 8, "steps": 10000},
    },
    "tiny": {
        "score-longform": {"recordings": 2, "segments": 40},
        "risk-longform": {"utterances": 2, "tokens": 30, "hyps": 8},
        "risk-shortform": {"utterances": 20, "tokens": 12, "hyps": 8},
        "train-toy": {"tokens": 6, "steps": 200},
    },
}


def _risk_config() -> RiskConfig:
    """The CLI's default risk settings."""
    return RiskConfig(alpha=1.0, beta=10.0, gamma=10.0, costs=AlignmentCosts.from_k("1.1"),
                      normalize_scores=True, risk_kind=RiskKind.SCD_WEIGHTED)


def _report(tr, report) -> Dict:
    with tr.span("dataio.write_report"):
        text = write_report(report, MACHINE)
    return json.loads(text)


class Workload:
    name: str
    subcommand: str
    item: str  # what work_per_s counts

    def __init__(self, workdir: Path, seed: int, size: Dict, replay: bool = True):
        """Write the inputs and, with ``replay``, compute the library result and
        save it in ``expected.out``; without, read it back from there."""
        self.dir = workdir
        self.seed = seed
        self.size = size
        self.rng = random.Random(f"{self.name}:{seed}")
        self.write_inputs()
        if replay:
            expected = self.write("expected.out", self.cli_path(NULL))
        else:
            expected = self.path("expected.out")
        self.reference = self.decode(self.read(expected))

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        Path(p).write_text(text, encoding="utf-8")
        return p

    def read(self, path: str) -> str:
        return Path(path).read_text(encoding="utf-8")

    # -- subclasses provide these -------------------------------------------------

    items: int
    setup_args: List[str]
    cli_args: List[str]

    def write_inputs(self) -> None:
        raise NotImplementedError

    def cli_path(self, tr) -> str:
        """Replay the CLI command in-process; return what it prints."""
        raise NotImplementedError

    def decode(self, stdout):
        return json.loads(stdout)

    def check_stdout(self, stdout: bytes) -> List[str]:
        """Errors in one CLI run's output, against the library result."""
        raise NotImplementedError

    def lib_units(self) -> List[Tuple[Callable[[], object], Callable[[object], List[str]]]]:
        raise NotImplementedError

    def traced_extras(self, tr, op_id: str, counts: Dict[str, float]) -> None:
        """Stand-alone calls outside the CLI path (never part of the layer sum)."""

    def layer_counts(self) -> Dict[str, float]:
        return {}

    # -- shared helpers -------------------------------------------------------------

    def _check_json(self, stdout: bytes, invariants) -> List[str]:
        try:
            got = self.decode(stdout)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        errors = invariants(got)
        if got != self.reference:
            errors.append("output differs from the library result")
        return errors


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _align_each_once(tr, pairs, costs, counts: Dict[str, float]) -> None:
    """Align every (reference, hypothesis) pair once through the public ``align``."""
    cells = 0
    with tr.span("aside.alignment.align") as rec:
        for reference, hypothesis in pairs:
            align(reference, hypothesis, costs)
            cells += (len(reference) + 1) * (len(hypothesis) + 1)
    counts["alignment.align_s"] = rec["end"] - rec["start"]
    counts["alignment.cells_per_s"] = cells / counts["alignment.align_s"]


class ScoreLongform(Workload):
    name = "score-longform"
    subcommand = "score"
    item = "segments"

    def write_inputs(self) -> None:
        rttm, stamps = inputs.rttm_and_stamps(self.rng, self.size["recordings"],
                                              self.size["segments"])
        self.ref = self.write("ref.rttm", rttm)
        self.hyp = self.write("hyp.stamps", stamps)
        self.items = self.size["recordings"] * self.size["segments"]
        one_ref = self.write("one.rttm", "SPEAKER one 1 1.000 2.000 <NA> <NA> spk_a <NA> <NA>\n")
        one_hyp = self.write("one.stamps", "one\t1.500\n")
        self.setup_args = ["score", "--ref", one_ref, "--hyp", one_hyp, "--format", MACHINE]
        self.cli_args = ["score", "--ref", self.ref, "--hyp", self.hyp, "--format", MACHINE]
        self.annotations = parse_rttm(self.read(self.ref), source=self.ref)
        stamps_by_id = {h.recording_id: h for h in
                        parse_change_stamps(self.read(self.hyp), source=self.hyp)}
        self.pairs = [(a, stamps_by_id[a.recording_id]) for a in self.annotations]

    def cli_path(self, tr):
        ref_text, hyp_text = self.read(self.ref), self.read(self.hyp)
        with tr.span("dataio.parse_rttm"):
            annotations = parse_rttm(ref_text, source=self.ref)
        with tr.span("dataio.parse_change_stamps"):
            stamps = parse_change_stamps(hyp_text, source=self.hyp)
        by_id = {h.recording_id: h for h in stamps}
        sections = []
        for ann in annotations:
            hyp = by_id.get(ann.recording_id, ChangeHypothesis(ann.recording_id, ()))
            with tr.span("metrics.score_changes"):
                pr = score_changes(ann, hyp, collar=COLLAR, gap_merge=0.0)
            with tr.span("metrics.purity_coverage"):
                seg = purity_coverage(ann, hyp, gap_merge=0.0)
            sections.append((ann.recording_id, pr, seg))
        with tr.span("metrics.pooled_precision_recall"):
            pooled_pr = pooled_precision_recall([pr for _, pr, _ in sections])
        with tr.span("metrics.pooled_segmentation"):
            pooled_seg = pooled_segmentation([seg for _, _, seg in sections])
        obj = {
            "collar": COLLAR,
            "recordings": [
                {"recording_id": rec_id, "precision_recall": _report(tr, pr),
                 "segmentation": _report(tr, seg)}
                for rec_id, pr, seg in sections
            ],
            "pooled": {"precision_recall": _report(tr, pooled_pr),
                       "segmentation": _report(tr, pooled_seg)},
        }
        return json.dumps(obj, sort_keys=True) + "\n"

    @staticmethod
    def _pr_errors(pr: Dict, where: str) -> List[str]:
        errors = []
        if pr["n_correct"] + pr["n_fa"] != pr["n_predictions_kept"]:
            errors.append(f"{where}: correct + false accepts != kept")
        if pr["n_hit"] + pr["n_fr"] != pr["n_intervals"]:
            errors.append(f"{where}: hits + false rejects != intervals")
        return errors

    def check_stdout(self, stdout: bytes) -> List[str]:
        def invariants(got):
            errors = []
            for rec in got.get("recordings", []):
                errors += self._pr_errors(rec["precision_recall"], rec["recording_id"])
            errors += self._pr_errors(got["pooled"]["precision_recall"], "pooled")
            return errors
        return self._check_json(stdout, invariants)

    def lib_units(self):
        expected = {r["recording_id"]: r for r in self.reference["recordings"]}

        def unit(ann, hyp):
            def check(result) -> List[str]:
                pr, seg = result
                want = expected[ann.recording_id]
                if (json.loads(write_report(pr, MACHINE)) != want["precision_recall"]
                        or json.loads(write_report(seg, MACHINE)) != want["segmentation"]):
                    return [f"{ann.recording_id}: library result differs from the replay"]
                return []
            return (lambda: (score_changes(ann, hyp, collar=COLLAR), purity_coverage(ann, hyp)),
                    check)
        return [unit(ann, hyp) for ann, hyp in self.pairs]

    def layer_counts(self) -> Dict[str, float]:
        pooled = self.reference["pooled"]["precision_recall"]
        return {
            "metrics.segments": self.items,
            "metrics.change_intervals": pooled["n_intervals"],
            "metrics.predictions_kept": pooled["n_predictions_kept"],
            "metrics.predictions_dropped": pooled["n_predictions_dropped"],
            "dataio.records": (sum(len(a.segments) for a in self.annotations)
                               + len(self.pairs) + 2 * len(self.pairs) + 2),
        }

    def traced_extras(self, tr, op_id: str, counts: Dict[str, float]) -> None:
        # change_intervals alone: score_changes already calls it internally.
        with tr.span("aside.metrics.change_intervals") as rec:
            for ann, _ in self.pairs:
                change_intervals(ann)
        counts["metrics.change_intervals_s"] = rec["end"] - rec["start"]
        # growth: score_changes + purity_coverage at S segments over S/4.
        full = quarter = 0.0
        for ann, hyp in self.pairs:
            q_ann = Annotation(ann.recording_id, ann.segments[:len(ann.segments) // 4])
            q_end = q_ann.t_max
            q_hyp = ChangeHypothesis(hyp.recording_id,
                                     tuple(t for t in hyp.timestamps if t <= q_end))
            full += _timed(lambda: (score_changes(ann, hyp, collar=COLLAR),
                                    purity_coverage(ann, hyp)))
            quarter += _timed(lambda: (score_changes(q_ann, q_hyp, collar=COLLAR),
                                       purity_coverage(q_ann, q_hyp)))
        counts["metrics.growth_ratio"] = full / quarter


class _Risk(Workload):
    subcommand = "risk"
    item = "hypotheses"

    def write_inputs(self) -> None:
        s = self.size
        self.nbest = self.write("utts.jsonl",
                                inputs.nbest_lines(self.rng, s["utterances"], s["tokens"], s["hyps"]))
        self.items = s["utterances"] * s["hyps"]
        one = self.write("one.jsonl", json.dumps({
            "utterance_id": "one", "reference": "a <st> b",
            "hypotheses": [{"text": "a b", "log_score": -1.0}]}) + "\n")
        self.setup_args = ["risk", "--nbest", one, "--format", MACHINE]
        self.cli_args = ["risk", "--nbest", self.nbest, "--format", MACHINE]
        self.config = _risk_config()
        self.records = parse_nbest(self.read(self.nbest), source=self.nbest)

    def cli_path(self, tr):
        text = self.read(self.nbest)
        with tr.span("dataio.parse_nbest"):
            records = parse_nbest(text, source=self.nbest)
        per_utt = []
        for nb in records:
            with tr.span("risk.expected_risk"):
                per_utt.append((nb.utterance_id, expected_risk(nb, self.config)))
        with tr.span("risk.batch_loss"):
            batch = batch_loss(records, nll_weight=NLL_WEIGHT, nll=0.0, config=self.config)
        obj = {
            "utterances": [{"utterance_id": uid, "report": _report(tr, rep)}
                           for uid, rep in per_utt],
            "batch": _report(tr, batch),
        }
        return json.dumps(obj, sort_keys=True) + "\n"

    def check_stdout(self, stdout: bytes) -> List[str]:
        def invariants(got):
            errors = []
            for utt in got.get("utterances", []):
                if abs(math.fsum(utt["report"]["per_hyp_prob"]) - 1.0) > PROB_TOL:
                    errors.append(f"{utt['utterance_id']}: probabilities do not sum to 1")
            return errors
        return self._check_json(stdout, invariants)

    def lib_units(self):
        expected = {u["utterance_id"]: u["report"] for u in self.reference["utterances"]}

        def unit(nb):
            def check(result) -> List[str]:
                loss, grad = result
                errors = []
                if abs(math.fsum(loss.per_hyp_prob) - 1.0) > PROB_TOL:
                    errors.append(f"{nb.utterance_id}: probabilities do not sum to 1")
                if abs(math.fsum(grad)) > PROB_TOL * max(1.0, max(loss.per_hyp_risk)):
                    errors.append(f"{nb.utterance_id}: gradient does not sum to 0")
                if json.loads(write_report(loss, MACHINE)) != expected[nb.utterance_id]:
                    errors.append(f"{nb.utterance_id}: library result differs from the replay")
                return errors
            return (lambda: (expected_risk(nb, self.config), risk_gradient(nb, self.config)),
                    check)
        return [unit(nb) for nb in self.records]

    def layer_counts(self) -> Dict[str, float]:
        return {"dataio.records": 2 * len(self.records) + 1}

    def traced_extras(self, tr, op_id: str, counts: Dict[str, float]) -> None:
        # the in-process gradient pass, its own operation
        with tr.operation(f"{op_id}-gradient", "lib.risk_gradient") as op:
            for nb in self.records:
                with tr.span("risk.risk_gradient"):
                    risk_gradient(nb, self.config)
        counts["risk.risk_gradient_s"] = sum(s["end"] - s["start"] for s in tr.children(op))
        _align_each_once(tr, [(nb.reference, h.tokens) for nb in self.records
                              for h in nb.hypotheses], self.config.costs, counts)


class RiskLongform(_Risk):
    name = "risk-longform"


class RiskShortform(_Risk):
    name = "risk-shortform"


class TrainToy(Workload):
    name = "train-toy"
    subcommand = "train-toy"
    item = "steps"
    EDIT_BUDGET = 2

    def write_inputs(self) -> None:
        vocab = inputs.vocabulary(self.rng, 50)
        self.ref = self.write("ref.txt", " ".join(
            inputs.transcript(self.rng, vocab, self.size["tokens"], turn_share=0.125,
                              distinct=True)) + "\n")
        one = self.write("one.txt", "a <st>\n")
        self.steps = self.size["steps"]
        self.items = self.steps
        self.setup_args = ["train-toy", "--ref", one, "--steps", "1"]
        self.cli_args = ["train-toy", "--ref", self.ref, "--edit-budget", str(self.EDIT_BUDGET),
                         "--steps", str(self.steps)]
        self.config = TrainConfig(learning_rate=0.5, steps=self.steps, nbest_n=None,
                                  nll_weight=NLL_WEIGHT, risk=_risk_config())

    def _space(self, tr, ref):
        vocab = sorted({t.text for t in ref if not t.is_turn})
        with tr.span("trainer.enumerate_candidates"):
            return enumerate_candidates(ref, self.EDIT_BUDGET, vocab, 0)

    def cli_path(self, tr):
        text = self.read(self.ref)
        with tr.span("dataio.tokenize_transcript"):
            ref = tokenize_transcript(text)
        space = self._space(tr, ref)
        self.candidates = len(space.candidates)
        with tr.span("trainer.train"):
            trace = train(space, self.config)
        with tr.span("dataio.write_trace"):
            return write_trace(trace)

    def decode(self, stdout):
        return stdout.decode("utf-8", errors="replace") if isinstance(stdout, bytes) else stdout

    def check_stdout(self, stdout: bytes) -> List[str]:
        text = self.decode(stdout)
        errors = []
        if text.count("\n") != self.steps + 1:
            errors.append(f"trace has {text.count(chr(10))} records, expected {self.steps + 1}")
        if text != self.reference:
            errors.append("output differs from the library result")
        return errors

    def lib_units(self):
        ref = tokenize_transcript(self.read(self.ref))

        def check(trace) -> List[str]:
            if len(trace.records) != self.steps + 1:
                return [f"trace has {len(trace.records)} records, expected {self.steps + 1}"]
            if write_trace(trace) != self.reference:
                return ["library result differs from the replay"]
            return []
        return [(lambda: train(self._space(NULL, ref), self.config), check)]

    def layer_counts(self) -> Dict[str, float]:
        return {"trainer.candidates": self.candidates, "dataio.records": 1 + self.steps + 1}

    def traced_extras(self, tr, op_id: str, counts: Dict[str, float]) -> None:
        ref = tokenize_transcript(self.read(self.ref))
        space = self._space(NULL, ref)
        _align_each_once(tr, [(space.reference, c) for c in space.candidates],
                         self.config.risk.costs, counts)


WORKLOADS = {w.name: w for w in (ScoreLongform, RiskLongform, RiskShortform, TrainToy)}
