"""Interval-based speaker-change metrics: precision/recall and purity/coverage.

Speaker changes are scored as time intervals, not points.  From the
reference speaker annotation we derive the mono-speaker ranges (time
covered by exactly one speaker) and treat their complement within the
annotated span as the change intervals: multi-speaker overlap, gaps, and
the zero-length instants where one speaker ends exactly as another
begins.  A prediction is correct when its collar-widened window touches
any change interval; a change interval is recalled when at least one
prediction matches it.

Purity and coverage score the mono-speaker side: each reference segment
is credited with its best-overlapping hypothesis segment (the span cut
at the predicted change points) and vice versa.

All three computations are sorted sweeps that only visit pairs that can
match or overlap, so scoring S segments against P predictions takes
O((S+P) log(S+P)) time for a bounded number of concurrent speakers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .intervals import Interval, IntervalSet


@dataclass(frozen=True)
class SpeakerSegment:
    speaker: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.speaker:
            raise ValueError("speaker id must be non-empty")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(
                f"segment [{self.start}, {self.end}] of {self.speaker!r} is not finite")
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"segment [{self.start}, {self.end}] of {self.speaker!r} has no duration")


@dataclass(frozen=True)
class Annotation:
    recording_id: str
    segments: Tuple[SpeakerSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError(f"annotation {self.recording_id!r} has no segments")

    @property
    def t_min(self) -> float:
        return min(s.start for s in self.segments)

    @property
    def t_max(self) -> float:
        return max(s.end for s in self.segments)


@dataclass(frozen=True)
class ChangeHypothesis:
    recording_id: str
    timestamps: Tuple[float, ...]

    def __post_init__(self) -> None:
        stamps = tuple(sorted(set(self.timestamps)))
        if not all(math.isfinite(t) for t in stamps):
            raise ValueError(f"timestamps of {self.recording_id!r} must be finite")
        object.__setattr__(self, "timestamps", stamps)


@dataclass(frozen=True)
class PrecisionRecallReport:
    precision: Optional[float]
    recall_count: Optional[float]
    recall_duration: Optional[float]
    f1: Optional[float]
    n_predictions_kept: int
    n_predictions_dropped: int
    n_correct: int
    n_fa: int
    n_intervals: int
    n_hit: int
    n_fr: int
    collar: float
    # raw duration sums, kept so corpus-level pooling can aggregate counts
    hit_duration: float = 0.0
    total_duration: float = 0.0

    @classmethod
    def from_counts(cls, *, n_kept: int, n_dropped: int, n_correct: int, n_intervals: int,
                    n_hit: int, hit_duration: float, total_duration: float,
                    collar: float) -> "PrecisionRecallReport":
        """Rates and F1 from raw counts.

        A rate whose denominator is zero is None; F1 follows ``f1_of_rates``.
        """
        precision = n_correct / n_kept if n_kept > 0 else None
        recall_count = n_hit / n_intervals if n_intervals > 0 else None
        recall_duration = hit_duration / total_duration if total_duration > 0 else None
        return cls(
            precision=precision,
            recall_count=recall_count,
            recall_duration=recall_duration,
            f1=f1_of_rates(precision, recall_count),
            n_predictions_kept=n_kept,
            n_predictions_dropped=n_dropped,
            n_correct=n_correct,
            n_fa=n_kept - n_correct,
            n_intervals=n_intervals,
            n_hit=n_hit,
            n_fr=n_intervals - n_hit,
            collar=collar,
            hit_duration=hit_duration,
            total_duration=total_duration,
        )


@dataclass(frozen=True)
class SegmentationReport:
    purity: float
    coverage: float
    f1: float
    # raw overlap sums for pooling
    purity_num: float = 0.0
    purity_den: float = 0.0
    coverage_num: float = 0.0
    coverage_den: float = 0.0


def f1_score(a: float, b: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if a == 0.0 and b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def f1_of_rates(precision: Optional[float], recall: Optional[float]) -> Optional[float]:
    """F1 of two rates; None when either rate is None or both are 0."""
    if precision is None or recall is None or (precision == 0 and recall == 0):
        return None
    return f1_score(precision, recall)


def merge_speaker_gaps(annotation: Annotation, gap_merge: float) -> Annotation:
    """Merge same-speaker segments separated by at most ``gap_merge`` seconds.

    ``gap_merge`` <= 0 returns the annotation unchanged.
    """
    if not math.isfinite(gap_merge):
        raise ValueError(f"gap_merge must be finite, got {gap_merge}")
    if gap_merge <= 0:
        return annotation
    by_speaker: Dict[str, List[SpeakerSegment]] = {}
    for seg in annotation.segments:
        by_speaker.setdefault(seg.speaker, []).append(seg)
    merged: List[SpeakerSegment] = []
    for speaker, segs in by_speaker.items():
        segs.sort(key=lambda s: (s.start, s.end))
        cur_start, cur_end = segs[0].start, segs[0].end
        for seg in segs[1:]:
            if seg.start - cur_end <= gap_merge:
                cur_end = max(cur_end, seg.end)
            else:
                merged.append(SpeakerSegment(speaker, cur_start, cur_end))
                cur_start, cur_end = seg.start, seg.end
        merged.append(SpeakerSegment(speaker, cur_start, cur_end))
    merged.sort(key=lambda s: (s.start, s.end, s.speaker))
    return Annotation(annotation.recording_id, tuple(merged))


def speaker_coverage(annotation: Annotation) -> Dict[str, IntervalSet]:
    """Each speaker's own segments unioned into a normalized interval set."""
    by_speaker: Dict[str, List[Interval]] = {}
    for seg in annotation.segments:
        by_speaker.setdefault(seg.speaker, []).append(Interval(seg.start, seg.end))
    return {spk: IntervalSet(ivs) for spk, ivs in by_speaker.items()}


def _coverage_pieces(annotation: Annotation) -> List[Tuple[float, float, int]]:
    """Elementary (start, end, n_speakers) pieces over [t_min, t_max].

    Pieces alternate between boundary points (zero length) and the open
    gaps between consecutive boundaries, in time order.  Within each piece
    the number of covering speakers is constant, and closed-interval
    endpoint coverage is accounted for by the point pieces.

    One sweep over the sorted boundaries keeps a running count of open
    intervals.  Each speaker's coverage is normalized, so its intervals
    neither overlap nor touch and the count is the number of speakers: at
    a boundary it is the intervals still open plus those starting there,
    and on the following gap it loses those ending there.
    """
    starts: Dict[float, int] = {}
    ends: Dict[float, int] = {}
    for ivs in speaker_coverage(annotation).values():
        for iv in ivs:
            starts[iv.start] = starts.get(iv.start, 0) + 1
            ends[iv.end] = ends.get(iv.end, 0) + 1
    bounds = sorted(starts.keys() | ends.keys())
    pieces: List[Tuple[float, float, int]] = []
    active = 0
    for idx, b in enumerate(bounds):
        at_point = active + starts.get(b, 0)
        pieces.append((b, b, at_point))
        active = at_point - ends.get(b, 0)
        if idx + 1 < len(bounds):
            pieces.append((b, bounds[idx + 1], active))
    return pieces


def _runs(pieces: Sequence[Tuple[float, float, int]], keep) -> IntervalSet:
    runs: List[Interval] = []
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end, count in pieces:
        if keep(count):
            if run_start is None:
                run_start = start
            run_end = end
        elif run_start is not None:
            runs.append(Interval(run_start, run_end))
            run_start = None
    if run_start is not None:
        runs.append(Interval(run_start, run_end))
    return IntervalSet(runs)


def mono_speaker_ranges(annotation: Annotation) -> IntervalSet:
    """Time within the annotated span covered by exactly one speaker."""
    return _runs(_coverage_pieces(annotation), lambda c: c == 1)


def change_intervals(annotation: Annotation) -> IntervalSet:
    """Complement of the mono-speaker ranges within the annotated span.

    Includes multi-speaker overlap, unannotated gaps, and zero-length
    switching points where one speaker ends exactly as another begins.
    """
    return _runs(_coverage_pieces(annotation), lambda c: c != 1)


def _split_hypothesis(hypothesis: ChangeHypothesis, t_min: float, t_max: float):
    kept = [t for t in hypothesis.timestamps if t_min <= t <= t_max]
    dropped = len(hypothesis.timestamps) - len(kept)
    return kept, dropped


def score_changes(annotation: Annotation, hypothesis: ChangeHypothesis,
                  collar: float = 0.25, gap_merge: float = 0.0) -> PrecisionRecallReport:
    """Match predicted change points against the reference change intervals.

    Predictions outside the annotated span are dropped; a kept prediction
    is correct when its collar window intersects any change interval, and
    an interval is hit when at least one kept prediction matches it.
    """
    if annotation.recording_id != hypothesis.recording_id:
        raise ValueError(
            f"recording ids differ: {annotation.recording_id!r} vs {hypothesis.recording_id!r}")
    if not (math.isfinite(collar) and collar >= 0):
        raise ValueError(f"collar must be finite and >= 0, got {collar}")
    ann = merge_speaker_gaps(annotation, gap_merge)
    intervals = change_intervals(ann)
    kept, dropped = _split_hypothesis(hypothesis, ann.t_min, ann.t_max)

    # The change intervals are sorted and disjoint, so those touching the
    # window [t - collar, t + collar] form one run: from the first ending at
    # or after t - collar to the last starting at or before t + collar.
    # Kept predictions are sorted, so the runs only move right and each
    # interval is marked hit at most once.
    starts = [iv.start for iv in intervals]
    ends = [iv.end for iv in intervals]
    hit = [False] * len(intervals)
    n_correct = 0
    marked = 0
    for t in kept:
        first = bisect_left(ends, t - collar)
        last = bisect_right(starts, t + collar)
        if first < last:
            n_correct += 1
            for idx in range(max(first, marked), last):
                hit[idx] = True
            marked = last

    return PrecisionRecallReport.from_counts(
        n_kept=len(kept),
        n_dropped=dropped,
        n_correct=n_correct,
        n_intervals=len(intervals),
        n_hit=sum(hit),
        hit_duration=sum(iv.duration for iv, h in zip(intervals, hit) if h),
        total_duration=intervals.total_duration,
        collar=collar,
    )


def reference_units(annotation: Annotation) -> List[Tuple[str, Interval]]:
    """Per-speaker contiguous coverage intervals, the units of coverage scoring."""
    units: List[Tuple[str, Interval]] = []
    for speaker, ivs in speaker_coverage(annotation).items():
        for iv in ivs:
            units.append((speaker, iv))
    units.sort(key=lambda u: (u[1].start, u[1].end, u[0]))
    return units


def hypothesis_segments(annotation: Annotation, hypothesis: ChangeHypothesis) -> List[Interval]:
    """The annotated span cut at the kept prediction timestamps."""
    t_min, t_max = annotation.t_min, annotation.t_max
    cuts = [t for t in hypothesis.timestamps if t_min < t < t_max]
    bounds = [t_min] + cuts + [t_max]
    return [Interval(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def purity_coverage(annotation: Annotation, hypothesis: ChangeHypothesis,
                    gap_merge: float = 0.0) -> SegmentationReport:
    """Best-overlap segmentation scores between reference and hypothesis segments."""
    if annotation.recording_id != hypothesis.recording_id:
        raise ValueError(
            f"recording ids differ: {annotation.recording_id!r} vs {hypothesis.recording_id!r}")
    ann = merge_speaker_gaps(annotation, gap_merge)
    refs = [iv for _, iv in reference_units(ann)]
    hyps = hypothesis_segments(ann, hypothesis)

    # Only pairs with positive overlap are visited; every other pair
    # overlaps by 0.0, which is also each max's default.  The hypothesis
    # segments partition the span, so a reference unit overlaps one run of
    # them.
    hyp_starts = [h.start for h in hyps]
    hyp_ends = [h.end for h in hyps]
    cov_num = 0.0
    cov_den = 0.0
    for ref_iv in refs:
        run = hyps[bisect_right(hyp_ends, ref_iv.start):bisect_left(hyp_starts, ref_iv.end)]
        cov_num += max((ref_iv.overlap(h) for h in run), default=0.0)
        cov_den += ref_iv.duration
    # Reference units in start order join the active list once they start
    # before the segment ends and leave it once they end at or before its start.
    pur_num = 0.0
    pur_den = 0.0
    active: List[Interval] = []
    joined = 0
    for h in hyps:
        while joined < len(refs) and refs[joined].start < h.end:
            active.append(refs[joined])
            joined += 1
        active = [ref_iv for ref_iv in active if ref_iv.end > h.start]
        pur_num += max((h.overlap(ref_iv) for ref_iv in active), default=0.0)
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


def pooled_precision_recall(reports: Sequence[PrecisionRecallReport]) -> PrecisionRecallReport:
    """Corpus-level report from summed raw counts (not averaged rates)."""
    if not reports:
        raise ValueError("nothing to pool")
    collars = {r.collar for r in reports}
    if len(collars) > 1:
        raise ValueError(f"cannot pool reports with different collars: {sorted(collars)}")
    return PrecisionRecallReport.from_counts(
        n_kept=sum(r.n_predictions_kept for r in reports),
        n_dropped=sum(r.n_predictions_dropped for r in reports),
        n_correct=sum(r.n_correct for r in reports),
        n_intervals=sum(r.n_intervals for r in reports),
        n_hit=sum(r.n_hit for r in reports),
        hit_duration=sum(r.hit_duration for r in reports),
        total_duration=sum(r.total_duration for r in reports),
        collar=reports[0].collar,
    )


def pooled_segmentation(reports: Sequence[SegmentationReport]) -> SegmentationReport:
    """Corpus-level purity/coverage from summed overlap durations."""
    if not reports:
        raise ValueError("nothing to pool")
    pur_num = sum(r.purity_num for r in reports)
    pur_den = sum(r.purity_den for r in reports)
    cov_num = sum(r.coverage_num for r in reports)
    cov_den = sum(r.coverage_den for r in reports)
    purity = pur_num / pur_den if pur_den > 0 else 0.0
    coverage = cov_num / cov_den if cov_den > 0 else 0.0
    return SegmentationReport(
        purity=purity,
        coverage=coverage,
        f1=f1_score(purity, coverage),
        purity_num=pur_num,
        purity_den=pur_den,
        coverage_num=cov_num,
        coverage_den=cov_den,
    )
