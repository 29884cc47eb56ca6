"""The sweep-line metrics against their quadratic oracle, plus complexity guards."""

import random
from pathlib import Path

import pytest

import _metrics_oracle as oracle
from scdkit import cli, metrics
from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    SpeakerSegment,
    change_intervals,
    mono_speaker_ranges,
    purity_coverage,
    score_changes,
    speaker_coverage,
)

FIXTURES = Path(__file__).parent / "fixtures"


def grid_annotation(rng, rec_id="rec"):
    """Segments on a millisecond grid, mixing the layouts the sweeps must
    get right: touching turns (zero-length change points), full and partial
    overlap, and gaps, which become same-speaker gaps whenever one speaker
    is drawn twice in a row."""
    n_speakers = rng.randint(1, 4)
    segs = []
    for _ in range(rng.randint(1, 14)):
        speaker = f"spk{rng.randrange(n_speakers)}"
        dur = rng.randint(1, 4000)
        motif = rng.random()
        if not segs:
            start = rng.randint(0, 2000)
        elif motif < 0.25:  # touching: starts exactly where the last one ends
            start = segs[-1][2]
        elif motif < 0.4:  # full overlap with the last one
            _, start, end = segs[-1]
            dur = end - start
        elif motif < 0.6:  # partial overlap
            start = max(0, segs[-1][2] - rng.randint(1, 1500))
        else:  # gap
            start = segs[-1][2] + rng.randint(1, 1500)
        segs.append((speaker, start, start + dur))
    return Annotation(rec_id, tuple(
        SpeakerSegment(spk, start / 1000, end / 1000) for spk, start, end in segs))


def grid_hypothesis(rng, ann, collar_ms, rec_id="rec"):
    """Predictions on a millisecond grid: random ones reaching outside the
    span, the span edges, ones exactly a collar away from a change
    interval's endpoints, and ones on segment starts and ends, which cut
    the span on a reference unit's edge.  Each kind is drawn after the
    ones before it, so adding a kind keeps every seed's earlier stamps."""
    lo, hi = round(ann.t_min * 1000), round(ann.t_max * 1000)
    stamps = [rng.randint(lo - 2000, hi + 2000) for _ in range(rng.randint(0, 12))]
    stamps += rng.sample([lo, hi], rng.randint(0, 2))
    for start, end in oracle.change_intervals(ann):
        if rng.random() < 0.5:
            stamps.append(start - collar_ms)
        if rng.random() < 0.5:
            stamps.append(end + collar_ms)
    for seg in ann.segments:
        stamps += [t for t in seg.span if rng.random() < 0.3]
    return ChangeHypothesis(rec_id, tuple(t / 1000 for t in stamps))


def assert_identical(got, want):
    assert got == want
    assert repr(got) == repr(want)  # also tells 0.0 from -0.0


def assert_matches_oracle(ann, hyp, collar_ms, gap_merge, context):
    merged = oracle.merge_speaker_gaps(ann, gap_merge)
    context = f"{context}: {ann} {hyp} collar_ms={collar_ms} gap_merge={gap_merge}"

    assert speaker_coverage(ann, round(gap_merge * 1000)) == speaker_coverage(merged), context
    assert change_intervals(merged) == oracle.change_intervals(merged), context
    assert mono_speaker_ranges(merged) == oracle.mono_speaker_ranges(merged), context
    assert_identical(
        score_changes(ann, hyp, collar=collar_ms / 1000, gap_merge=gap_merge),
        oracle.score_changes(ann, hyp, collar=collar_ms / 1000, gap_merge=gap_merge))
    assert_identical(purity_coverage(ann, hyp, gap_merge=gap_merge),
                     oracle.purity_coverage(ann, hyp, gap_merge=gap_merge))


CASES_PER_BLOCK = 100


@pytest.mark.parametrize("block", range(20))
def test_sweeps_match_quadratic_oracle_exactly(block):
    for case in range(CASES_PER_BLOCK):
        seed = block * CASES_PER_BLOCK + case
        rng = random.Random(seed)
        ann = grid_annotation(rng)
        collar_ms = rng.choice([0, 250, rng.randint(0, 1500)])
        gap_merge = rng.choice([0.0, rng.randint(1, 2000) / 1000])
        hyp = grid_hypothesis(rng, ann, collar_ms)
        assert_matches_oracle(ann, hyp, collar_ms, gap_merge, f"seed {seed}")


def longform(rng, n_segments=2000, n_speakers=4):
    """A long recording: 0.5-8 s turns by changing speakers with small
    overlaps and gaps, and about one prediction per turn."""
    segs = []
    stamps = []
    cursor = 0.0
    speaker = 0
    for _ in range(n_segments):
        speaker = (speaker + rng.randint(1, n_speakers - 1)) % n_speakers
        start = round(max(0.0, cursor + rng.uniform(-0.3, 0.5)), 3)
        end = round(start + rng.uniform(0.5, 8.0), 3)
        segs.append(SpeakerSegment(f"spk{speaker}", start, end))
        stamps.append(round(start + rng.uniform(-0.4, 0.4), 3))
        cursor = end
    stamps.append(round(cursor + 5.0, 3))  # outside the span
    return Annotation("long", tuple(segs)), ChangeHypothesis("long", tuple(stamps))


def test_longform_matches_quadratic_oracle_exactly():
    # hundreds of boundaries to merge and of units to place among the cut
    # bounds, where a grid case has at most 14 segments
    ann, hyp = longform(random.Random(17), 300)
    assert_matches_oracle(ann, hyp, 250, 0.0, "longform seed 17")


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = [0]
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_purity_coverage_pairs_and_searches_are_linear(monkeypatch):
    ann, hyp = longform(random.Random(11))
    n_refs = len(oracle.reference_units(speaker_coverage(ann)))
    n_hyps = len(oracle.hypothesis_segments(speaker_coverage(ann), hyp))
    # each bisect is one search of the hypothesis segments, and each range
    # is one reference unit's run of them, whose length is the pairs visited
    searches = [counting(monkeypatch, metrics, "bisect_left"),
                counting(monkeypatch, metrics, "bisect_right")]
    pairs = [0]

    def counted_range(*args):
        run = range(*args)
        pairs[0] += len(run)
        return run

    monkeypatch.setattr(metrics, "range", counted_range, raising=False)
    purity_coverage(ann, hyp)
    assert 0 < sum(c[0] for c in searches) <= 2 * n_refs
    assert 0 < pairs[0] <= 8 * (n_refs + n_hyps)


def test_score_changes_matching_comparisons_are_linear(monkeypatch):
    ann, hyp = longform(random.Random(13))
    n_intervals = len(change_intervals(ann))
    n_kept = score_changes(ann, hyp).n_predictions_kept
    # each bisect is one search of the change intervals
    counters = [counting(monkeypatch, metrics, "bisect_left"),
                counting(monkeypatch, metrics, "bisect_right")]
    score_changes(ann, hyp)
    total = sum(c[0] for c in counters)
    assert 0 < total <= 8 * (n_intervals + n_kept)


@pytest.mark.parametrize("gap_merge", [(), ("--gap-merge", "1.0")])
def test_score_builds_one_coverage_per_metric_call(monkeypatch, capsys, gap_merge):
    calls = counting(monkeypatch, metrics, "speaker_coverage")
    assert cli.main(["score", "--ref", str(FIXTURES / "multi.rttm"),
                     "--hyp", str(FIXTURES / "multi.stamps"), *gap_merge]) == 0
    # 4 recordings, each scored once by score_changes and once by purity_coverage
    assert calls[0] == 8
