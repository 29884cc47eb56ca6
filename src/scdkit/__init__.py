"""Speaker-change-detection training loss and interval-based evaluation metrics.

Each public name is listed once, under the module that defines it, and that
module is imported on the first lookup of one of its names (PEP 562): ``import
scdkit`` loads no submodule, and numpy loads only with the trainer.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "tokens": ("SPEAKER_TURN", "ST_TEXT", "Token", "word"),
    "alignment": ("Alignment", "AlignmentCosts", "EditOp", "ErrorCounts", "OpKind", "align",
                  "align_counts"),
    "risk": ("NBest", "RiskConfig", "ScoredHypothesis", "batch_loss", "expected_risk",
             "per_hyp_risk", "risk_gradient"),
    "trainer": ("HypothesisSpace", "TrainConfig", "enumerate_candidates", "st_vs_word_space",
                "train"),
    "metrics": ("Annotation", "ChangeHypothesis", "PrecisionRecallReport", "SegmentationReport",
                "SpeakerSegment", "change_intervals", "f1_score", "mono_speaker_ranges",
                "pooled_precision_recall", "pooled_segmentation", "purity_coverage",
                "score_changes"),
    "dataio": ("DataFormatError", "LossBreakdown", "RiskKind", "TrainStep", "TrainTrace",
               "parse_change_stamps", "parse_nbest", "parse_rttm", "read_report",
               "segment_longform", "serialize_change_stamps", "serialize_nbest", "serialize_rttm",
               "tokenize_transcript", "write_report", "write_trace"),
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
