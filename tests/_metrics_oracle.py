"""Quadratic reference implementations of the sweep-line metrics.

These are the all-pairs versions that ``scdkit.metrics`` used before its
sorted sweeps: every boundary against every speaker interval, every
prediction against every change interval, every reference unit against
every hypothesis segment.  They are kept only as a differential oracle;
the sweeps must reproduce their reports exactly, not approximately.
"""

from typing import List, Tuple

from scdkit.intervals import IntervalSet
from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    PrecisionRecallReport,
    SegmentationReport,
    _runs,
    _split_hypothesis,
    f1_score,
    hypothesis_segments,
    merge_speaker_gaps,
    reference_units,
    speaker_coverage,
)


def coverage_pieces(annotation: Annotation) -> List[Tuple[float, float, int]]:
    coverage = speaker_coverage(annotation)
    bounds = sorted({b for ivs in coverage.values() for iv in ivs for b in (iv.start, iv.end)})
    pieces: List[Tuple[float, float, int]] = []

    def count_at_point(t: float) -> int:
        return sum(1 for ivs in coverage.values()
                   if any(iv.start <= t <= iv.end for iv in ivs))

    def count_on_open(lo: float, hi: float) -> int:
        return sum(
            1 for ivs in coverage.values()
            if any(iv.start <= lo and hi <= iv.end for iv in ivs))

    for idx, b in enumerate(bounds):
        pieces.append((b, b, count_at_point(b)))
        if idx + 1 < len(bounds):
            nxt = bounds[idx + 1]
            pieces.append((b, nxt, count_on_open(b, nxt)))
    return pieces


def mono_speaker_ranges(annotation: Annotation) -> IntervalSet:
    return _runs(coverage_pieces(annotation), lambda c: c == 1)


def change_intervals(annotation: Annotation) -> IntervalSet:
    return _runs(coverage_pieces(annotation), lambda c: c != 1)


def score_changes(annotation: Annotation, hypothesis: ChangeHypothesis,
                  collar: float = 0.25, gap_merge: float = 0.0) -> PrecisionRecallReport:
    ann = merge_speaker_gaps(annotation, gap_merge)
    intervals = change_intervals(ann)
    kept, dropped = _split_hypothesis(hypothesis, ann.t_min, ann.t_max)

    n_correct = 0
    hit = [False] * len(intervals)
    for t in kept:
        lo, hi = t - collar, t + collar
        matched = False
        for idx, iv in enumerate(intervals.intervals):
            if iv.intersects(lo, hi):
                hit[idx] = True
                matched = True
        if matched:
            n_correct += 1

    n_kept = len(kept)
    n_intervals = len(intervals)
    n_hit = sum(hit)
    total_dur = intervals.total_duration
    hit_dur = sum(iv.duration for iv, h in zip(intervals.intervals, hit) if h)

    precision = n_correct / n_kept if n_kept > 0 else None
    recall_count = n_hit / n_intervals if n_intervals > 0 else None
    recall_duration = hit_dur / total_dur if total_dur > 0 else None
    if precision is None or recall_count is None or (precision == 0 and recall_count == 0):
        f1 = None
    else:
        f1 = f1_score(precision, recall_count)
    return PrecisionRecallReport(
        precision=precision,
        recall_count=recall_count,
        recall_duration=recall_duration,
        f1=f1,
        n_predictions_kept=n_kept,
        n_predictions_dropped=dropped,
        n_correct=n_correct,
        n_fa=n_kept - n_correct,
        n_intervals=n_intervals,
        n_hit=n_hit,
        n_fr=n_intervals - n_hit,
        collar=collar,
        hit_duration=hit_dur,
        total_duration=total_dur,
    )


def purity_coverage(annotation: Annotation, hypothesis: ChangeHypothesis,
                    gap_merge: float = 0.0) -> SegmentationReport:
    ann = merge_speaker_gaps(annotation, gap_merge)
    refs = reference_units(ann)
    hyps = hypothesis_segments(ann, hypothesis)

    cov_num = 0.0
    cov_den = 0.0
    for _, ref_iv in refs:
        cov_num += max(ref_iv.overlap(h) for h in hyps)
        cov_den += ref_iv.duration
    pur_num = 0.0
    pur_den = 0.0
    for h in hyps:
        pur_num += max(h.overlap(ref_iv) for _, ref_iv in refs)
        pur_den += h.duration

    coverage = cov_num / cov_den
    purity = pur_num / pur_den
    return SegmentationReport(
        purity=purity,
        coverage=coverage,
        f1=f1_score(purity, coverage),
        purity_num=pur_num,
        purity_den=pur_den,
        coverage_num=cov_num,
        coverage_den=cov_den,
    )
