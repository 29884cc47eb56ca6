"""Interval-based speaker-change metrics: precision/recall and purity/coverage.

Speaker changes are scored as time intervals, not points.  One sweep
over the reference speaker annotation splits the annotated span into
change intervals, the time not covered by exactly one speaker
(multi-speaker overlap, gaps, and the zero-length instants where one
speaker ends exactly as another begins), and their complement, the
mono-speaker ranges, which a zero-length change instant splits in two.
A prediction is correct when its collar-widened window touches any
change interval; a change interval is recalled when at least one
prediction matches it.

Purity and coverage score the mono-speaker side: each reference unit
(one speaker's contiguous coverage) is credited with its best-overlapping
hypothesis segment (the span cut at the predicted change points) and
vice versa.  Both come from one pass over the pairs with positive
overlap.  The hypothesis segments partition the span, so the purity
denominator is the span's length.

All three computations are sorted sweeps or bisections that only visit
pairs that can match or overlap, so scoring S segments against P
predictions takes O((S+P) log(S+P)) time for a bounded number of
concurrent speakers.

Time is exact integer milliseconds inside this module.  The public types
keep float seconds, and every time passes through ``_ms`` once: the
segment and hypothesis constructors store its result, and the metric
functions convert only their own arguments.  The RTTM reader, which reads
ms from the text, builds segments with ``SpeakerSegment._from_ms``.  Spans are closed
``(start_ms, end_ms)`` pairs; every comparison, overlap and duration sum
is integer arithmetic, and reports divide by 1000 once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from operator import attrgetter

Span = tuple[int, int]
Coverage = dict[str, tuple[Span, ...]]

_setattr = object.__setattr__


class _Record:
    """Base of every scdkit record: an immutable value with named fields.

    A subclass's fields are its base's, then its own annotated names in
    order, and a class attribute of the same name is a field's default.
    As with a frozen dataclass, the fields are the positional and keyword
    arguments of ``__init__`` and all that equality, ``hash`` and ``repr``
    read: a record equals only a record of its own class with equal fields
    (never a tuple), hashes as the tuple of its fields, and assignment
    raises AttributeError.  ``__post_init__`` runs after the fields are
    set; it may store derived attributes with ``object.__setattr__``, which
    stay out of equality and ``repr``.  Instances keep a ``__dict__``, so
    ``vars()`` holds the fields in order, and a record pickles to the same
    bytes as a frozen dataclass of the same name and fields.  No source is
    generated, so defining a record loads neither ``dataclasses`` nor
    ``inspect``.  Keyword arguments cost a lookup per field: hot call sites
    pass them by position.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._fields]
        cls._fields = fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name]
                                             for name in fields if name in cls.__dict__}}
        cls.__match_args__ = fields
        get = attrgetter(*fields)
        # the tuple of the field values; attrgetter of one name returns the bare value
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one object.__setattr__ per field, as a dataclass sets them: touching
        # self.__dict__ here would make every later read of a field slower
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """All field values in order, from positional, keyword and default values."""
        fields = cls._fields
        name = cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        defaults = cls._defaults
        try:
            args += tuple([kwargs.pop(key) if key in kwargs else defaults[key]
                           for key in fields[len(args):]])
        except KeyError as exc:
            raise TypeError(f"{name}() missing required argument {exc}") from None
        for key in kwargs:  # what is left was given by position too, or is no field
            raise TypeError(f"{name}() got multiple values for argument {key!r}" if key in fields
                            else f"{name}() got an unexpected keyword argument {key!r}")
        return args

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# 10**12 s in ms, the magnitude every time stays below (see ``_ms``)
_MS_BOUND = 1e15


def _ms_error(what: str, seconds: float, unit: str = " s") -> ValueError:
    return ValueError(f"{what} must be finite, below 10**12{unit} in magnitude and with at most "
                      f"3 decimal places, got {seconds!r}")


def _ms(seconds: float, what: str, unit: str = " s") -> int:
    """``seconds`` as exact integer milliseconds.

    Raises ValueError when the value is not finite, not on the millisecond
    grid (the resolution the text formats carry) or not below 10**12 s in
    magnitude.  Below that bound a decimal with at most 3 fractional digits
    has at most 15 significant digits, which a double holds exactly, so the
    milliseconds of every accepted value are the ones its text spelled.
    The bound is checked first: it is False for NaN and the infinities, and
    an int too large for a float never reaches a float conversion.  The
    error message names the bound with ``unit``, which is empty for a
    quantity other than seconds.
    """
    scaled = seconds * 1000
    if -_MS_BOUND < scaled < _MS_BOUND:
        ms = round(scaled)
        if ms / 1000 == seconds:
            return ms
    raise _ms_error(what, seconds, unit)


def _check_id(what: str, value: str) -> None:
    # one whitespace-free field, so that an RTTM line written with it parses back
    if not isinstance(value, str) or value.split() != [value]:
        raise ValueError(f"{what} must be non-empty and contain no whitespace, got {value!r}")


class SpeakerSegment(_Record):
    speaker: str
    start: float
    end: float
    # not a field: ``span``, (start_ms, end_ms), converted once here for every reader

    def __post_init__(self) -> None:
        _check_id("speaker id", self.speaker)
        what = self._what()
        self._set_span(_ms(self.start, what), _ms(self.end, what))

    @classmethod
    def _from_ms(cls, speaker: str, start_ms: int, end_ms: int) -> SpeakerSegment:
        """The segment ``[start_ms, end_ms]`` of times given in integer ms,
        under the constructor's rules but with no seconds-to-ms conversion."""
        _check_id("speaker id", speaker)
        seg = cls.__new__(cls)
        object.__setattr__(seg, "speaker", speaker)
        object.__setattr__(seg, "start", start_ms / 1000)
        object.__setattr__(seg, "end", end_ms / 1000)
        seg._set_span(start_ms, end_ms)
        return seg

    def _what(self) -> str:
        return f"segment [{self.start}, {self.end}] of {self.speaker!r}"

    def _set_span(self, start_ms: int, end_ms: int) -> None:
        """Check the segment rules on its times in ms, then store them: a
        start of at least 0, a positive duration and an end below 10**12 s,
        which with the other two bounds the start as well."""
        if start_ms < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if end_ms <= start_ms:
            raise ValueError(f"{self._what()} has no duration")
        if end_ms >= _MS_BOUND:
            raise _ms_error(self._what(), self.end)
        object.__setattr__(self, "span", (start_ms, end_ms))


class Annotation(_Record):
    recording_id: str
    segments: tuple[SpeakerSegment, ...]

    def __post_init__(self) -> None:
        _check_id("recording id", self.recording_id)
        object.__setattr__(self, "segments", tuple(self.segments))
        for s in self.segments:
            if not isinstance(s, SpeakerSegment):
                raise TypeError(f"expected SpeakerSegment, got {type(s).__name__}")
        if not self.segments:
            raise ValueError(f"annotation {self.recording_id!r} has no segments")

    @property
    def t_min(self) -> float:
        return min(s.start for s in self.segments)

    @property
    def t_max(self) -> float:
        return max(s.end for s in self.segments)


class ChangeHypothesis(_Record):
    recording_id: str
    timestamps: tuple[float, ...]
    # not a field: ``stamps_ms``, the sorted timestamps in ms, converted once
    # here for every reader

    def __post_init__(self) -> None:
        _check_id("recording id", self.recording_id)
        stamps = tuple(sorted(set(self.timestamps)))
        object.__setattr__(self, "timestamps", stamps)
        object.__setattr__(self, "stamps_ms", tuple(
            _ms(t, f"timestamps of {self.recording_id!r}") for t in stamps))

    @classmethod
    def _from_ms(cls, recording_id: str, stamps_ms: Iterable[int]) -> ChangeHypothesis:
        """The hypothesis of timestamps given in integer ms, under the
        constructor's rules but with no seconds-to-ms conversion."""
        _check_id("recording id", recording_id)
        stamps = tuple(sorted(set(stamps_ms)))
        if stamps and (stamps[0] <= -_MS_BOUND or stamps[-1] >= _MS_BOUND):
            # the first the constructor would reject, in sorted order
            bad = next(ms for ms in stamps if not -_MS_BOUND < ms < _MS_BOUND)
            raise _ms_error(f"timestamps of {recording_id!r}", bad / 1000)
        hyp = cls.__new__(cls)
        object.__setattr__(hyp, "recording_id", recording_id)
        object.__setattr__(hyp, "timestamps", tuple([ms / 1000 for ms in stamps]))
        object.__setattr__(hyp, "stamps_ms", stamps)
        return hyp


class PrecisionRecallReport(_Record):
    precision: float | None
    recall_count: float | None
    recall_duration: float | None
    f1: float | None
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
                    n_hit: int, hit_ms: int, total_ms: int,
                    collar: float) -> "PrecisionRecallReport":
        """Rates and F1 from raw counts and integer-millisecond durations.

        A rate whose denominator is zero is None; F1 follows ``f1_of_rates``.
        """
        precision = n_correct / n_kept if n_kept > 0 else None
        recall_count = n_hit / n_intervals if n_intervals > 0 else None
        recall_duration = hit_ms / total_ms if total_ms > 0 else None
        # by position, once per recording and pooled report: precision, recall_count,
        # recall_duration, f1, n_predictions_kept, n_predictions_dropped, n_correct,
        # n_fa, n_intervals, n_hit, n_fr, collar, hit_duration, total_duration
        return cls(precision, recall_count, recall_duration, f1_of_rates(precision, recall_count),
                   n_kept, n_dropped, n_correct, n_kept - n_correct, n_intervals, n_hit,
                   n_intervals - n_hit, collar, hit_ms / 1000, total_ms / 1000)


class SegmentationReport(_Record):
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


def f1_of_rates(precision: float | None, recall: float | None) -> float | None:
    """F1 of two rates; None when either rate is None or both are 0."""
    if precision is None or recall is None or (precision == 0 and recall == 0):
        return None
    return f1_score(precision, recall)


def _union(spans: Iterable[Span], gap_ms: int = 0) -> tuple[Span, ...]:
    """Sorted, pairwise-disjoint spans covering ``spans`` and the gaps of at
    most ``gap_ms`` between them.

    Overlapping or touching spans merge, which absorbs a zero-length point
    lying inside or on the edge of another span; a lone point is kept.
    """
    merged: list[Span] = []
    for start, end in sorted(spans):
        if merged and start - merged[-1][1] <= gap_ms:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return tuple(merged)


def speaker_coverage(annotation: Annotation, gap_ms: int = 0) -> Coverage:
    """Each speaker's own segments as the union of their spans, which with
    positive-length segments also merges same-speaker gaps of at most ``gap_ms``."""
    by_speaker: dict[str, list[Span]] = {}
    for seg in annotation.segments:
        by_speaker.setdefault(seg.speaker, []).append(seg.span)
    return {spk: _union(spans, gap_ms) for spk, spans in by_speaker.items()}


def _scored_coverage(annotation: Annotation, hypothesis: ChangeHypothesis,
                     gap_merge: float) -> Coverage:
    """The coverage scored against ``hypothesis``, same-speaker gaps of at
    most ``gap_merge`` seconds merged."""
    if annotation.recording_id != hypothesis.recording_id:
        raise ValueError(
            f"recording ids differ: {annotation.recording_id!r} vs {hypothesis.recording_id!r}")
    gap_ms = _ms(gap_merge, "gap_merge")
    if gap_ms < 0:
        raise ValueError(f"gap_merge must be >= 0, got {gap_merge}")
    return speaker_coverage(annotation, gap_ms)


def _change_runs(coverage: Coverage) -> tuple[Span, tuple[Span, ...]]:
    """The annotated span and its change intervals, in ms.

    One sweep over the sorted boundaries keeps a running count of open
    spans.  Each speaker's coverage is a union, so its spans neither
    overlap nor touch and the count is the number of speakers: at a
    boundary it is the spans still open plus those starting there, and on
    the open gap after it (none after the last) it loses those ending
    there.  A change interval opens at the first boundary whose point or
    following gap does not have exactly one speaker, and closes at the
    first boundary from there whose following gap has exactly one: the
    point of a boundary inside a change interval has exactly one speaker
    only when that gap does too.
    """
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for spans in coverage.values():
        for start, end in spans:
            starts[start] = starts.get(start, 0) + 1
            ends[end] = ends.get(end, 0) + 1
    bounds = sorted(starts.keys() | ends.keys())
    t_max = bounds[-1]
    runs: list[Span] = []
    run_start: int | None = None
    active = 0
    for b in bounds:
        at_point = active + starts.get(b, 0)
        active = at_point - ends.get(b, 0)
        gap_mono = active == 1 or b == t_max
        if run_start is None and (at_point != 1 or not gap_mono):
            run_start = b
        if run_start is not None and gap_mono:
            runs.append((run_start, b))
            run_start = None
    return (bounds[0], t_max), tuple(runs)


def mono_speaker_ranges(annotation: Annotation) -> tuple[Span, ...]:
    """``(start_ms, end_ms)`` spans of the annotated span covered by exactly one
    speaker: the complement of the change intervals, split at zero-length ones."""
    (t_min, t_max), intervals = _change_runs(speaker_coverage(annotation))
    bounds = [t_min, *(t for span in intervals for t in span), t_max]
    return tuple((a, b) for a, b in zip(bounds[::2], bounds[1::2]) if b > a)


def change_intervals(annotation: Annotation) -> tuple[Span, ...]:
    """Spans of the annotated span not covered by exactly one speaker, in ms.

    Includes multi-speaker overlap, unannotated gaps, and zero-length
    switching points where one speaker ends exactly as another begins.
    """
    return _change_runs(speaker_coverage(annotation))[1]


def score_changes(annotation: Annotation, hypothesis: ChangeHypothesis,
                  collar: float = 0.25, gap_merge: float = 0.0) -> PrecisionRecallReport:
    """Match predicted change points against the reference change intervals.

    Predictions outside the annotated span are dropped; a kept prediction
    is correct when its collar window intersects any change interval, and
    an interval is hit when at least one kept prediction matches it.
    """
    coverage = _scored_coverage(annotation, hypothesis, gap_merge)
    collar_ms = _ms(collar, "collar")
    if collar_ms < 0:
        raise ValueError(f"collar must be >= 0, got {collar}")
    (t_min, t_max), intervals = _change_runs(coverage)
    kept = [t for t in hypothesis.stamps_ms if t_min <= t <= t_max]

    # The change intervals are sorted and disjoint, so those touching the
    # window [t - collar, t + collar] form one run: from the first ending at
    # or after t - collar to the last starting at or before t + collar.
    # Kept predictions are sorted, so the runs only move right and each
    # interval is marked hit at most once.
    starts = [start for start, _ in intervals]
    ends = [end for _, end in intervals]
    hit = [False] * len(intervals)
    n_correct = 0
    marked = 0
    for t in kept:
        first = bisect_left(ends, t - collar_ms)
        last = bisect_right(starts, t + collar_ms)
        if first < last:
            n_correct += 1
            for idx in range(max(first, marked), last):
                hit[idx] = True
            marked = last

    return PrecisionRecallReport.from_counts(
        n_kept=len(kept),
        n_dropped=len(hypothesis.timestamps) - len(kept),
        n_correct=n_correct,
        n_intervals=len(intervals),
        n_hit=sum(hit),
        hit_ms=sum(end - start for (start, end), h in zip(intervals, hit) if h),
        total_ms=sum(end - start for start, end in intervals),
        collar=collar,
    )


def hypothesis_segments(coverage: Coverage, hypothesis: ChangeHypothesis) -> list[Span]:
    """The annotated span cut at the kept prediction timestamps, in ms."""
    t_min = min(spans[0][0] for spans in coverage.values())
    t_max = max(spans[-1][1] for spans in coverage.values())
    cuts = [t for t in hypothesis.stamps_ms if t_min < t < t_max]
    bounds = [t_min] + cuts + [t_max]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _segmentation_report(pur_num: int, pur_den: int,
                         cov_num: int, cov_den: int) -> SegmentationReport:
    """Scores from integer-millisecond overlap sums; a zero denominator scores 0."""
    purity = pur_num / pur_den if pur_den > 0 else 0.0
    coverage = cov_num / cov_den if cov_den > 0 else 0.0
    # by position, once per recording and pooled report: purity, coverage, f1,
    # purity_num, purity_den, coverage_num, coverage_den
    return SegmentationReport(purity, coverage, f1_score(purity, coverage), pur_num / 1000,
                              pur_den / 1000, cov_num / 1000, cov_den / 1000)


def purity_coverage(annotation: Annotation, hypothesis: ChangeHypothesis,
                    gap_merge: float = 0.0) -> SegmentationReport:
    """Best-overlap segmentation scores between reference and hypothesis segments."""
    coverage = _scored_coverage(annotation, hypothesis, gap_merge)
    hyps = hypothesis_segments(coverage, hypothesis)

    # One pass over the pairs with positive overlap: every other pair
    # overlaps by 0, the value each best starts from.  The hypothesis
    # segments partition the span, so each reference unit (one speaker's
    # coverage span) overlaps one run of them, and their lengths sum to the
    # span, the purity denominator.
    hyp_starts = [start for start, _ in hyps]
    hyp_ends = [end for _, end in hyps]
    best = [0] * len(hyps)
    cov_num = 0
    cov_den = 0
    for spans in coverage.values():
        for start, end in spans:
            top = 0
            for i in range(bisect_right(hyp_ends, start), bisect_left(hyp_starts, end)):
                h_start = hyp_starts[i]
                h_end = hyp_ends[i]
                overlap = (end if end < h_end else h_end) - (start if start > h_start else h_start)
                if overlap > top:
                    top = overlap
                if overlap > best[i]:
                    best[i] = overlap
            cov_num += top
            cov_den += end - start
    return _segmentation_report(sum(best), hyp_ends[-1] - hyp_starts[0], cov_num, cov_den)


def pooled_precision_recall(reports: Sequence[PrecisionRecallReport]) -> PrecisionRecallReport:
    """Corpus-level report from summed raw counts (not averaged rates).

    Durations are summed in exact milliseconds; one off the millisecond
    grid raises ValueError.
    """
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
        hit_ms=sum(_ms(r.hit_duration, "hit_duration") for r in reports),
        total_ms=sum(_ms(r.total_duration, "total_duration") for r in reports),
        collar=reports[0].collar,
    )


def pooled_segmentation(reports: Sequence[SegmentationReport]) -> SegmentationReport:
    """Corpus-level purity/coverage from overlap durations summed in exact
    milliseconds; one off the millisecond grid raises ValueError."""
    if not reports:
        raise ValueError("nothing to pool")
    return _segmentation_report(*(sum(_ms(getattr(r, name), name) for r in reports)
                                  for name in ("purity_num", "purity_den",
                                               "coverage_num", "coverage_den")))
