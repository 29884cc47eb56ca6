"""Quadratic reference implementations of the sweep-line metrics.

These are the all-pairs versions that ``scdkit.metrics`` used before its
sorted sweeps: every boundary against every speaker interval, every
prediction against every change interval, every reference unit against
every hypothesis segment.  They are kept only as a differential oracle;
the sweeps must reproduce their reports exactly, not approximately.
``merge_speaker_gaps`` is the gap merge the metrics used before it became
a tolerance of the coverage union: it rebuilds the merged coverage as an
annotation, which every oracle function then scores.
Like the sweeps, they work on closed ``(start_ms, end_ms)`` spans in
integer milliseconds.
"""

from typing import List, Optional, Sequence, Tuple

from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    Coverage,
    PrecisionRecallReport,
    SegmentationReport,
    Span,
    SpeakerSegment,
    _ms,
    f1_score,
    speaker_coverage,
)


def merge_speaker_gaps(annotation: Annotation, gap_merge: float) -> Annotation:
    """Merge same-speaker segments separated by at most ``gap_merge`` seconds.

    ``gap_merge`` <= 0 returns the annotation unchanged.
    """
    gap_ms = _ms(gap_merge, "gap_merge")
    if gap_ms <= 0:
        return annotation
    merged: List[Tuple[int, int, str]] = []
    for speaker, spans in speaker_coverage(annotation).items():
        cur_start, cur_end = spans[0]
        for start, end in spans[1:]:
            if start - cur_end <= gap_ms:
                cur_end = end
            else:
                merged.append((cur_start, cur_end, speaker))
                cur_start, cur_end = start, end
        merged.append((cur_start, cur_end, speaker))
    merged.sort()
    return Annotation(annotation.recording_id, tuple(
        SpeakerSegment(speaker, start / 1000, end / 1000) for start, end, speaker in merged))


def coverage_pieces(annotation: Annotation) -> List[Tuple[int, int, int]]:
    coverage = speaker_coverage(annotation)
    bounds = sorted({b for spans in coverage.values() for span in spans for b in span})
    pieces: List[Tuple[int, int, int]] = []

    def count_at_point(t: int) -> int:
        return sum(1 for spans in coverage.values()
                   if any(start <= t <= end for start, end in spans))

    def count_on_open(lo: int, hi: int) -> int:
        return sum(
            1 for spans in coverage.values()
            if any(start <= lo and hi <= end for start, end in spans))

    for idx, b in enumerate(bounds):
        pieces.append((b, b, count_at_point(b)))
        if idx + 1 < len(bounds):
            nxt = bounds[idx + 1]
            pieces.append((b, nxt, count_on_open(b, nxt)))
    return pieces


def _runs(pieces: Sequence[Tuple[int, int, int]], keep) -> Tuple[Span, ...]:
    runs: List[Span] = []
    run_start: Optional[int] = None
    run_end = 0
    for start, end, count in pieces:
        if keep(count):
            if run_start is None:
                run_start = start
            run_end = end
        elif run_start is not None:
            runs.append((run_start, run_end))
            run_start = None
    if run_start is not None:
        runs.append((run_start, run_end))
    return tuple(runs)


def mono_speaker_ranges(annotation: Annotation) -> Tuple[Span, ...]:
    return _runs(coverage_pieces(annotation), lambda c: c == 1)


def change_intervals(annotation: Annotation) -> Tuple[Span, ...]:
    return _runs(coverage_pieces(annotation), lambda c: c != 1)


def score_changes(annotation: Annotation, hypothesis: ChangeHypothesis,
                  collar: float = 0.25, gap_merge: float = 0.0) -> PrecisionRecallReport:
    collar_ms = round(collar * 1000)
    ann = merge_speaker_gaps(annotation, gap_merge)
    intervals = change_intervals(ann)
    t_min, t_max = round(ann.t_min * 1000), round(ann.t_max * 1000)
    stamps = [round(t * 1000) for t in hypothesis.timestamps]
    kept = [t for t in stamps if t_min <= t <= t_max]
    dropped = len(stamps) - len(kept)

    n_correct = 0
    hit = [False] * len(intervals)
    for t in kept:
        lo, hi = t - collar_ms, t + collar_ms
        matched = False
        for idx, (start, end) in enumerate(intervals):
            if max(start, lo) <= min(end, hi):  # closed intervals; shared endpoints count
                hit[idx] = True
                matched = True
        if matched:
            n_correct += 1

    n_kept = len(kept)
    n_intervals = len(intervals)
    n_hit = sum(hit)
    total_ms = sum(end - start for start, end in intervals)
    hit_ms = sum(end - start for (start, end), h in zip(intervals, hit) if h)

    precision = n_correct / n_kept if n_kept > 0 else None
    recall_count = n_hit / n_intervals if n_intervals > 0 else None
    recall_duration = hit_ms / total_ms if total_ms > 0 else None
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
        hit_duration=hit_ms / 1000,
        total_duration=total_ms / 1000,
    )


def reference_units(coverage: Coverage) -> List[Tuple[str, Span]]:
    """Per-speaker contiguous coverage spans, the units of coverage scoring."""
    units = [(speaker, span) for speaker, spans in coverage.items() for span in spans]
    units.sort(key=lambda u: (u[1], u[0]))
    return units


def hypothesis_segments(coverage: Coverage, hypothesis: ChangeHypothesis) -> List[Span]:
    """The annotated span cut at the stamps strictly inside it, with no
    zero-length pieces: each cut point and the span's start opens the
    piece that ends at the nearest greater one of them or the span's end."""
    t_min = min(start for spans in coverage.values() for start, _ in spans)
    t_max = max(end for spans in coverage.values() for _, end in spans)
    cuts = {round(t * 1000) for t in hypothesis.timestamps}
    points = {t_min, t_max} | {t for t in cuts if t_min < t < t_max}
    return sorted((a, min(b for b in points if b > a)) for a in points if a < t_max)


def purity_coverage(annotation: Annotation, hypothesis: ChangeHypothesis,
                    gap_merge: float = 0.0) -> SegmentationReport:
    coverage = speaker_coverage(merge_speaker_gaps(annotation, gap_merge))
    refs = [span for _, span in reference_units(coverage)]
    hyps = hypothesis_segments(coverage, hypothesis)

    def overlap(a: Span, b: Span) -> int:
        return max(0, min(a[1], b[1]) - max(a[0], b[0]))

    cov_num = 0
    cov_den = 0
    for ref in refs:
        cov_num += max(overlap(ref, h) for h in hyps)
        cov_den += ref[1] - ref[0]
    pur_num = 0
    pur_den = 0
    for h in hyps:
        pur_num += max(overlap(h, ref) for ref in refs)
        pur_den += h[1] - h[0]

    coverage = cov_num / cov_den
    purity = pur_num / pur_den
    return SegmentationReport(
        purity=purity,
        coverage=coverage,
        f1=f1_score(purity, coverage),
        purity_num=pur_num / 1000,
        purity_den=pur_den / 1000,
        coverage_num=cov_num / 1000,
        coverage_den=cov_den / 1000,
    )
