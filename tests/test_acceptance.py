"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _alignment_oracle import brute_force_align
from _scenarios import random_annotation, random_hypothesis
from scdkit.alignment import AlignmentCosts, ErrorCounts, align
from scdkit.dataio import (
    parse_change_stamps,
    parse_nbest,
    parse_rttm,
    serialize_change_stamps,
    serialize_nbest,
    serialize_rttm,
)
from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    SpeakerSegment,
    f1_score,
    purity_coverage,
    score_changes,
)
from scdkit.risk import NBest, RiskConfig, ScoredHypothesis, batch_loss, expected_risk, per_hyp_risk, risk_gradient
from scdkit.tokens import SPEAKER_TURN, word
from scdkit.trainer import TrainConfig, st_vs_word_space, train

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL")
                raise
            print(f"criterion {num:02d} ({name}): PASS")
        return wrapper
    return deco


def toks(text):
    return tuple(SPEAKER_TURN if t == "<st>" else word(t) for t in text.split())


@criterion(1, "alignment oracle equivalence, 10k pairs")
def test_criterion_01_alignment_oracle():
    rng = random.Random(20240817)
    pool = [word("a"), word("b"), SPEAKER_TURN]
    costs = [AlignmentCosts.from_k(k) for k in ("1.0", "1.1", "2.0", "2.5")]
    start = time.perf_counter()
    for _ in range(10_000):
        ref = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        hyp = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        c = rng.choice(costs)
        got = align(ref, hyp, c)
        oracle = brute_force_align(ref, hyp, c)
        assert got.cost_milli == oracle.cost_milli
        assert got.counts in oracle.optimal_counts
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(2, "Levenshtein reduction on no-marker pairs")
def test_criterion_02_levenshtein_reduction():
    def levenshtein(a, b):
        prev = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            cur = [i]
            for j, y in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
            prev = cur
        return prev[-1]

    rng = random.Random(505)
    for _ in range(1_000):
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        hyp = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        costs = AlignmentCosts.from_k(rng.choice(["1.0", "1.1", "2.0", "2.5"]))
        counts = align(tuple(word(w) for w in ref), tuple(word(w) for w in hyp), costs).counts
        assert counts.word_errors == levenshtein(ref, hyp)
        assert counts.st_insertions == counts.st_deletions == 0


@criterion(3, "floor(k) offset tolerance window")
def test_criterion_03_offset_tolerance():
    for k in ("1.0", "1.1", "2.0", "2.5", "3.0"):
        floor_k = int(float(k))
        for m in range(5):
            words = [f"w{i}" for i in range(8)]
            ref = [word(w) for w in words]
            ref.insert(4, SPEAKER_TURN)
            hyp = [word(w) for w in words]
            hyp.insert(4 - m, SPEAKER_TURN)
            counts = align(tuple(ref), tuple(hyp), AlignmentCosts.from_k(k)).counts
            turn_correct = counts.st_insertions == 0 and counts.st_deletions == 0
            assert turn_correct == (m <= floor_k), f"k={k} m={m}"
            if turn_correct:
                assert counts.word_errors == 2 * m
            else:
                assert counts == ErrorCounts(0, 1, 1, 0)


RISK_REF = toks("u v w <st> x")
RISK_HYP = toks("u v y <st> x <st>")


@criterion(4, "risk arithmetic fixtures")
def test_criterion_04_risk_arithmetic():
    # fixture counts verified by the exhaustive oracle: W=1, FA=1, FR=0, Q=5
    oracle = brute_force_align(RISK_REF, RISK_HYP, AlignmentCosts.from_k("1.1"))
    assert oracle.optimal_counts == frozenset({ErrorCounts(1, 1, 0, 1)})
    assert per_hyp_risk(RISK_REF, RISK_HYP, RiskConfig()) == 2.2

    batch = [NBest(f"u{i}", RISK_REF, (ScoredHypothesis(RISK_REF, -0.5),)) for i in range(4)]
    total = batch_loss(batch, nll_weight=0.03, nll=2.0).total
    assert total == pytest.approx(0.06, abs=1e-12)


@criterion(5, "analytic gradient vs central differences")
def test_criterion_05_gradient_check():
    rng = random.Random(424242)
    pool = [word("a"), word("b"), SPEAKER_TURN]
    config = RiskConfig()
    h = 1e-6
    for _ in range(100):
        ref = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        hyps = tuple(
            ScoredHypothesis(tuple(rng.choice(pool) for _ in range(rng.randint(0, 6))),
                             rng.gauss(0.0, 2.0))
            for _ in range(rng.randint(1, 8)))
        nbest = NBest("g", ref, hyps)
        grad = risk_gradient(nbest, config)
        assert len(grad) == len(hyps)
        fd = []
        for j in range(len(hyps)):
            def shifted(delta):
                out = list(hyps)
                out[j] = ScoredHypothesis(out[j].tokens, out[j].log_score + delta)
                return NBest("g", ref, tuple(out))
            hi = expected_risk(shifted(+h), config).expected_risk
            lo = expected_risk(shifted(-h), config).expected_risk
            fd.append((hi - lo) / (2 * h))
        scale = max(1.0, max(abs(g) for g in grad), max(abs(g) for g in fd))
        rel = max(abs(a - b) for a, b in zip(grad, fd)) / scale
        assert rel <= 1e-6
        assert abs(sum(grad)) <= 1e-12


@criterion(6, "toy training suppresses turn errors")
def test_criterion_06_toy_training_effect():
    space = st_vs_word_space()
    config = TrainConfig()  # 500 steps, lr 0.5, weights 1/10/10, k 1.1

    # scenario shape, verified with the exhaustive oracle: the dropped-turn
    # candidate makes fewer word errors than the word-sub candidate but one
    # turn error
    def counts_of(i):
        res = brute_force_align(space.reference, space.candidates[i], config.risk.costs)
        (only,) = res.optimal_counts
        return only

    word_sub, turn_dropped = counts_of(1), counts_of(2)
    assert word_sub.word_errors == 1 and word_sub.st_insertions == word_sub.st_deletions == 0
    assert turn_dropped.word_errors == 0 and turn_dropped.st_deletions == 1

    start = time.perf_counter()
    trace = train(space, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"

    initial = trace.initial.expected_fa + trace.initial.expected_fr
    final = trace.final.expected_fa + trace.final.expected_fr
    assert final <= 0.05 * initial
    final_counts = counts_of(trace.final.argmax_candidate)
    assert final_counts.st_insertions == 0 and final_counts.st_deletions == 0


def brute_purity_coverage(segments, timestamps):
    t_min = min(s for _, s, _ in segments)
    t_max = max(e for _, _, e in segments)
    by_spk = {}
    for spk, s, e in segments:
        by_spk.setdefault(spk, []).append((s, e))
    ref_units = []
    for ivs in by_spk.values():
        ivs.sort()
        cs, ce = ivs[0]
        for s, e in ivs[1:]:
            if s <= ce:
                ce = max(ce, e)
            else:
                ref_units.append((cs, ce))
                cs, ce = s, e
        ref_units.append((cs, ce))
    cuts = sorted({t for t in timestamps if t_min < t < t_max})
    bounds = [t_min] + cuts + [t_max]
    hyp = list(zip(bounds, bounds[1:]))

    def ov(a, b):
        return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))

    cov = sum(max(ov(r, h) for h in hyp) for r in ref_units) / sum(e - s for s, e in ref_units)
    pur = sum(max(ov(h, r) for r in ref_units) for h in hyp) / sum(e - s for s, e in hyp)
    return pur, cov


@criterion(7, "metrics fixtures and segmentation oracle")
def test_criterion_07_metrics_fixtures():
    fig1 = Annotation("fig1", (
        SpeakerSegment("A", 0.0, 10.0),
        SpeakerSegment("B", 10.5, 20.0),
        SpeakerSegment("C", 19.0, 25.0),
    ))
    r = score_changes(fig1, ChangeHypothesis("fig1", (10.2, 15.0, 19.5)), collar=0.25)
    assert r.precision == 2 / 3
    assert r.recall_count == 1.0

    perfect = score_changes(fig1, ChangeHypothesis("fig1", (10.25, 19.5)), collar=0.25)
    assert perfect.precision == 1.0
    assert perfect.recall_count == 1.0
    assert perfect.recall_duration == 1.0

    void = score_changes(fig1, ChangeHypothesis("fig1", ()), collar=0.25)
    assert void.precision is None
    assert void.recall_count == 0.0
    # with no cuts the hypothesis segmentation is the whole span
    seg_void = purity_coverage(fig1, ChangeHypothesis("fig1", ()))
    expected_cov = (10.0 + 9.5 + 6.0) / 25.5  # every unit fully inside the span
    assert seg_void.coverage == pytest.approx(expected_cov, abs=1e-9)

    two = Annotation("r", (SpeakerSegment("A", 0.0, 10.0), SpeakerSegment("B", 10.0, 20.0)))
    seg = purity_coverage(two, ChangeHypothesis("r", (15.0,)))
    assert seg.purity == pytest.approx(0.75, abs=1e-9)
    assert seg.coverage == pytest.approx(0.75, abs=1e-9)

    rng = random.Random(8080)
    for _ in range(200):
        a = random_annotation(rng)
        hyp = random_hypothesis(rng)
        got = purity_coverage(a, hyp)
        pur, cov = brute_purity_coverage(
            [(s.speaker, s.start, s.end) for s in a.segments], hyp.timestamps)
        assert got.purity == pytest.approx(pur, abs=1e-9)
        assert got.coverage == pytest.approx(cov, abs=1e-9)


@criterion(8, "collar monotonicity")
def test_criterion_08_collar_monotonicity():
    rng = random.Random(9090)
    for _ in range(100):
        a = random_annotation(rng)
        hyp = random_hypothesis(rng)
        prev_p = prev_r = None
        for collar in (0.0, 0.1, 0.25, 0.5, 1.0):
            r = score_changes(a, hyp, collar=collar)
            if prev_p is not None and r.precision is not None:
                assert r.precision >= prev_p
            if prev_r is not None and r.recall_count is not None:
                assert r.recall_count >= prev_r
            prev_p, prev_r = r.precision, r.recall_count


@criterion(9, "pooled F1 spot-checks against reported table cells")
def test_criterion_09_f1_spot_checks():
    assert f"{100 * f1_score(0.781, 0.558):.1f}" == "65.1"
    assert f"{100 * f1_score(0.776, 0.652):.1f}" == "70.9"


@criterion(10, "round trips and byte-identical CLI runs")
def test_criterion_10_io_and_golden(tmp_path):
    rng = random.Random(11011)
    anns = [random_annotation(rng, rec_id=f"rec{i}") for i in range(5)]
    assert parse_rttm(serialize_rttm(anns)) == anns

    hyps = [ChangeHypothesis(f"rec{i}", tuple(round(rng.uniform(0, 60), 3)
                                              for _ in range(rng.randint(0, 10))))
            for i in range(5)]
    assert parse_change_stamps(serialize_change_stamps(hyps)) == hyps

    pool = [word("a"), word("b"), word("c"), SPEAKER_TURN]
    records = []
    for i in range(10):
        ref = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
        nb_hyps = tuple(
            ScoredHypothesis(tuple(rng.choice(pool) for _ in range(rng.randint(0, 8))),
                             round(rng.uniform(-9, 0), 6))
            for _ in range(rng.randint(1, 4)))
        records.append(NBest(f"utt{i}", ref, nb_hyps))
    assert parse_nbest(serialize_nbest(records)) == records

    nbest_path = tmp_path / "rand.jsonl"
    nbest_path.write_text(serialize_nbest(records))
    commands = [
        ["score", "--ref", str(FIXTURES / "fig1.rttm"),
         "--hyp", str(FIXTURES / "fig1.stamps"), "--collar", "0.25"],
        ["score", "--ref", str(FIXTURES / "fig1.rttm"),
         "--hyp", str(FIXTURES / "fig1.stamps"), "--format", "machine"],
        ["risk", "--nbest", str(nbest_path), "--format", "machine"],
        ["train-toy", "--scenario", "st-vs-word", "--steps", "100", "--seed", "1"],
        ["segment", "--ref", str(FIXTURES / "fig1.rttm"), "--target", "12"],
    ]
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "scdkit", *argv],
                           capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
