"""Speaker-change-detection training loss and interval-based evaluation metrics."""

from .tokens import SPEAKER_TURN, ST_TEXT, Token, word
from .alignment import (
    Alignment,
    AlignmentCosts,
    EditOp,
    ErrorCounts,
    OpKind,
    align,
    align_counts,
)
from .risk import (
    LossBreakdown,
    NBest,
    RiskConfig,
    RiskKind,
    ScoredHypothesis,
    batch_loss,
    expected_risk,
    per_hyp_risk,
    risk_gradient,
)
from .metrics import (
    Annotation,
    ChangeHypothesis,
    PrecisionRecallReport,
    SegmentationReport,
    SpeakerSegment,
    change_intervals,
    f1_score,
    mono_speaker_ranges,
    pooled_precision_recall,
    pooled_segmentation,
    purity_coverage,
    score_changes,
)
from .dataio import (
    DataFormatError,
    TrainStep,
    TrainTrace,
    parse_change_stamps,
    parse_nbest,
    parse_rttm,
    read_report,
    segment_longform,
    serialize_change_stamps,
    serialize_nbest,
    serialize_rttm,
    tokenize_transcript,
    write_report,
    write_trace,
)

__all__ = [
    "SPEAKER_TURN",
    "ST_TEXT",
    "Token",
    "word",
    "Alignment",
    "AlignmentCosts",
    "EditOp",
    "ErrorCounts",
    "OpKind",
    "align",
    "align_counts",
    "LossBreakdown",
    "NBest",
    "RiskConfig",
    "RiskKind",
    "ScoredHypothesis",
    "batch_loss",
    "expected_risk",
    "per_hyp_risk",
    "risk_gradient",
    "HypothesisSpace",
    "TrainConfig",
    "TrainStep",
    "TrainTrace",
    "enumerate_candidates",
    "st_vs_word_space",
    "train",
    "Annotation",
    "ChangeHypothesis",
    "PrecisionRecallReport",
    "SegmentationReport",
    "SpeakerSegment",
    "change_intervals",
    "f1_score",
    "mono_speaker_ranges",
    "pooled_precision_recall",
    "pooled_segmentation",
    "purity_coverage",
    "score_changes",
    "DataFormatError",
    "parse_change_stamps",
    "parse_nbest",
    "parse_rttm",
    "read_report",
    "segment_longform",
    "serialize_change_stamps",
    "serialize_nbest",
    "serialize_rttm",
    "tokenize_transcript",
    "write_report",
    "write_trace",
]

__version__ = "0.1.0"

# Names of the numpy-backed trainer, loaded on first lookup (PEP 562) so
# that importing scdkit does not import numpy.
_TRAINER_NAMES = frozenset({
    "HypothesisSpace", "TrainConfig", "enumerate_candidates", "st_vs_word_space", "train"})


def __getattr__(name: str):
    if name in _TRAINER_NAMES:
        from . import trainer
        return getattr(trainer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_TRAINER_NAMES})
