"""File formats and text ingestion.

Formats:
  RTTM          ``SPEAKER <file> <chan> <onset> <dur> <NA> <NA> <speaker> <NA> <NA>``
  change stamps one recording per line: ``<recording_id><TAB><t1>,<t2>,...``
  N-best        one JSON object per line with utterance_id, reference,
                hypotheses [{text, log_score}]
  reports       human table or stable-keyed JSON (lossless round trip)

Parsers reject malformed records with the offending position instead of
guessing.  Timestamps are decimal seconds with at most millisecond
resolution, preserved exactly.
"""

from __future__ import annotations

import io
import json
import logging
import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union, get_type_hints

from .metrics import (
    Annotation,
    ChangeHypothesis,
    PrecisionRecallReport,
    SegmentationReport,
    SpeakerSegment,
    _ms,
)
from .risk import LossBreakdown, NBest, ScoredHypothesis
from .tokens import SPEAKER_TURN, ST_TEXT, Token, TokenSeq, seq_to_text, word
from .trainer import TrainStep, TrainTrace

logger = logging.getLogger(__name__)

_SECONDS_RE = re.compile(r"^-?\d+(\.\d{1,3})?$")


class DataFormatError(Exception):
    """Malformed input; the message carries the file/line position."""


def parse_seconds(text: str, where: str) -> float:
    if not _SECONDS_RE.match(text):
        raise DataFormatError(
            f"{where}: {text!r} is not a decimal number of seconds "
            "(at most 3 fractional digits)")
    return float(text)


def format_seconds(value: float) -> str:
    """Millisecond-exact decimal text, at least two fractional digits."""
    s = f"{value:.3f}"
    return s[:-1] if s.endswith("0") else s


def _lines(stream: Union[str, io.TextIOBase, Iterable[str]]) -> Iterable[str]:
    if isinstance(stream, str):
        return stream.splitlines()
    return stream


def _json_object(text: str, where: str) -> Dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: expected a JSON object")
    return obj


# ---------------------------------------------------------------------------
# transcripts

def tokenize_transcript(text: str) -> TokenSeq:
    """Whitespace-split into tokens; the literal turn marker is matched
    before case folding, so a word that merely folds to it is an error."""
    out: List[Token] = []
    for raw in text.split():
        if raw == ST_TEXT:
            out.append(SPEAKER_TURN)
            continue
        folded = raw.casefold()
        if folded == ST_TEXT:
            raise DataFormatError(
                f"word {raw!r} case-folds to the reserved turn marker {ST_TEXT!r}")
        out.append(word(folded))
    return tuple(out)


# ---------------------------------------------------------------------------
# RTTM

def parse_rttm(stream: Union[str, io.TextIOBase, Iterable[str]],
               source: str = "<rttm>") -> List[Annotation]:
    """Parse SPEAKER records grouped by file id, in order of first appearance.

    The channel must be an integer but is not kept.
    """
    segments: Dict[str, List[SpeakerSegment]] = {}
    ignored = 0
    for lineno, line in enumerate(_lines(stream), start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0] != "SPEAKER":
            ignored += 1
            continue
        where = f"{source}:{lineno}"
        if len(fields) != 10:
            raise DataFormatError(f"{where}: expected 10 fields, got {len(fields)}")
        try:
            int(fields[2])
        except ValueError:
            raise DataFormatError(f"{where}: channel must be an integer, got {fields[2]!r}")
        onset = parse_seconds(fields[3], where)
        duration = parse_seconds(fields[4], where)
        if onset < 0:
            raise DataFormatError(f"{where}: negative onset {fields[3]}")
        if duration <= 0:
            raise DataFormatError(f"{where}: segment duration must be positive, got {fields[4]}")
        try:
            segment = SpeakerSegment(fields[7], onset, round(onset + duration, 3))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
        segments.setdefault(fields[1], []).append(segment)
    if ignored:
        logger.warning("%s: ignored %d non-SPEAKER lines", source, ignored)
    if not segments:
        raise DataFormatError(f"{source}: no SPEAKER records found")
    return [Annotation(file_id, tuple(segs)) for file_id, segs in segments.items()]


def serialize_rttm(annotations: Sequence[Annotation]) -> str:
    """One SPEAKER line per segment, on channel 1 with ``<NA>`` metadata slots."""
    lines = []
    for ann in annotations:
        for seg in ann.segments:
            lines.append(f"SPEAKER {ann.recording_id} 1 {format_seconds(seg.start)} "
                         f"{format_seconds(round(seg.end - seg.start, 3))} "
                         f"<NA> <NA> {seg.speaker} <NA> <NA>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# change stamps

def parse_change_stamps(stream: Union[str, io.TextIOBase, Iterable[str]],
                        source: str = "<stamps>") -> List[ChangeHypothesis]:
    out: List[ChangeHypothesis] = []
    seen = set()
    for lineno, line in enumerate(_lines(stream), start=1):
        stripped = line.rstrip("\n")
        if not stripped.strip():
            continue
        where = f"{source}:{lineno}"
        if "\t" not in stripped:
            raise DataFormatError(f"{where}: expected '<recording_id><TAB><t1>,<t2>,...'")
        rec_id, _, rest = stripped.partition("\t")
        rec_id = rec_id.strip()
        if not rec_id:
            raise DataFormatError(f"{where}: empty recording id")
        if rec_id in seen:
            raise DataFormatError(f"{where}: duplicate recording id {rec_id!r}")
        seen.add(rec_id)
        rest = rest.strip()
        stamps = tuple(parse_seconds(tok, where) for tok in rest.split(",") if tok) if rest else ()
        try:
            out.append(ChangeHypothesis(rec_id, stamps))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
    if not out:
        raise DataFormatError(f"{source}: no records found")
    return out


def serialize_change_stamps(hypotheses: Sequence[ChangeHypothesis]) -> str:
    lines = []
    for hyp in hypotheses:
        stamps = ",".join(format_seconds(t) for t in hyp.timestamps)
        lines.append(f"{hyp.recording_id}\t{stamps}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# N-best lists

def parse_nbest(stream: Union[str, io.TextIOBase, Iterable[str]],
                source: str = "<nbest>") -> List[NBest]:
    out: List[NBest] = []
    for lineno, line in enumerate(_lines(stream), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        where = f"{source}:{lineno}"
        rec = _json_object(stripped, where)
        try:
            utt_id = rec["utterance_id"]
            reference = rec["reference"]
            hyp_list = rec["hypotheses"]
        except KeyError as exc:
            raise DataFormatError(f"{where}: missing field {exc}") from exc
        if not isinstance(utt_id, str) or not utt_id:
            raise DataFormatError(f"{where}: utterance_id must be a non-empty string")
        if not isinstance(reference, str):
            raise DataFormatError(f"{where}: reference must be a string")
        if not isinstance(hyp_list, list) or not hyp_list:
            raise DataFormatError(f"{where}: hypotheses must be a non-empty list")
        try:
            ref_tokens = tokenize_transcript(reference)
        except DataFormatError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
        hyps = []
        for h in hyp_list:
            if not isinstance(h, dict) or "text" not in h or "log_score" not in h:
                raise DataFormatError(f"{where}: each hypothesis needs text and log_score")
            score = h["log_score"]
            if not _is_number(score) or not math.isfinite(score):
                raise DataFormatError(f"{where}: log_score must be a finite number, got {score!r}")
            if not isinstance(h["text"], str):
                raise DataFormatError(f"{where}: hypothesis text must be a string")
            try:
                hyp_tokens = tokenize_transcript(h["text"])
            except DataFormatError as exc:
                raise DataFormatError(f"{where}: {exc}") from exc
            hyps.append(ScoredHypothesis(hyp_tokens, float(score)))
        try:
            out.append(NBest(utt_id, ref_tokens, tuple(hyps)))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
    if not out:
        raise DataFormatError(f"{source}: no records found")
    return out


def serialize_nbest(records: Sequence[NBest]) -> str:
    lines = []
    for nb in records:
        obj = {
            "utterance_id": nb.utterance_id,
            "reference": seq_to_text(nb.reference),
            "hypotheses": [
                {"text": seq_to_text(h.tokens), "log_score": h.log_score}
                for h in nb.hypotheses
            ],
        }
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# long-form segmentation

def segment_longform(annotation: Annotation, target: float) -> List[Tuple[float, float]]:
    """Split a recording into windows of whole segments around ``target`` seconds.

    Segments accumulate in start order; a window closes at the first
    segment boundary where the window span reaches the target, except that
    a window never closes while the next segment overlaps it (windows stay
    disjoint and never cut inside a segment).  Lengths are compared in
    exact integer milliseconds.
    """
    target_ms = _ms(target, "target")
    if target_ms <= 0:
        raise ValueError(f"target must be > 0, got {target}")
    spans = sorted((_ms(s.start, "segment start"), _ms(s.end, "segment end"))
                   for s in annotation.segments)
    windows: List[Tuple[float, float]] = []
    win_start: Optional[int] = None
    win_end = 0
    count = 0
    for idx, (start, end) in enumerate(spans):
        if win_start is None:
            win_start, win_end, count = start, end, 1
        else:
            win_end = max(win_end, end)
            count += 1
        if end - start > target_ms and count == 1:
            logger.warning(
                "%s: segment [%s, %s] is longer than the %s s target; kept whole",
                annotation.recording_id, start / 1000, end / 1000, target)
        if win_end - win_start >= target_ms and (idx + 1 == len(spans)
                                                 or spans[idx + 1][0] >= win_end):
            windows.append((win_start / 1000, win_end / 1000))
            win_start = None
    if win_start is not None:
        windows.append((win_start / 1000, win_end / 1000))
    return windows


# ---------------------------------------------------------------------------
# reports

TABLE = "table"
MACHINE = "machine"


def _pct(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}"


def _table(rows: Sequence[Tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows) + "\n"


def _precision_recall_rows(r: PrecisionRecallReport) -> List[Tuple[str, str]]:
    return [
        ("precision", _pct(r.precision)),
        ("recall_count", _pct(r.recall_count)),
        ("recall_duration", _pct(r.recall_duration)),
        ("f1", _pct(r.f1)),
        ("predictions_kept", str(r.n_predictions_kept)),
        ("predictions_dropped", str(r.n_predictions_dropped)),
        ("correct", str(r.n_correct)),
        ("false_accepts", str(r.n_fa)),
        ("change_intervals", str(r.n_intervals)),
        ("hits", str(r.n_hit)),
        ("false_rejects", str(r.n_fr)),
        ("collar", format_seconds(r.collar)),
    ]


def _segmentation_rows(r: SegmentationReport) -> List[Tuple[str, str]]:
    return [
        ("purity", _pct(r.purity)),
        ("coverage", _pct(r.coverage)),
        ("f1", _pct(r.f1)),
    ]


def _loss_rows(r: LossBreakdown) -> List[Tuple[str, str]]:
    return [
        ("expected_risk", f"{r.expected_risk:.6g}"),
        ("nll_term", f"{r.nll_term:.6g}"),
        ("total", f"{r.total:.6g}"),
        ("expected_fa", f"{r.expected_fa:.6g}"),
        ("expected_fr", f"{r.expected_fr:.6g}"),
        ("expected_w", f"{r.expected_w:.6g}"),
    ]


_REPORT_CLASSES = {
    "precision_recall": PrecisionRecallReport,
    "segmentation": SegmentationReport,
    "loss": LossBreakdown,
}
_REPORT_KINDS = {cls: kind for kind, cls in _REPORT_CLASSES.items()}
_TABLE_ROWS = {
    PrecisionRecallReport: _precision_recall_rows,
    SegmentationReport: _segmentation_rows,
    LossBreakdown: _loss_rows,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# What a JSON value must be for each field annotation the report and trace
# dataclasses use: (check, description for the error message).
_VALUE_CHECKS = {
    float: (_is_number, "a number"),
    Optional[float]: (lambda v: v is None or _is_number(v), "a number or null"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    Tuple[float, ...]: (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                        "a list of numbers"),
}

# Machine JSON carries each dataclass field under its own name.  Writers
# use vars(), which for these plain dataclasses holds exactly the fields;
# the reader looks the names and their checks up once here, as doing so
# per trace record is measurably slower.
_FIELD_CHECKS = {cls: tuple((name, *_VALUE_CHECKS[hint])
                            for name, hint in get_type_hints(cls).items())
                 for cls in (*_REPORT_CLASSES.values(), TrainStep)}


def _from_json_object(cls, obj: Dict, where: str):
    """Build ``cls`` from its fields in ``obj``; JSON lists become tuples."""
    values = {}
    for name, valid, expected in _FIELD_CHECKS[cls]:
        if name not in obj:
            raise DataFormatError(f"{where}: missing field {name!r}")
        v = obj[name]
        if not valid(v):
            raise DataFormatError(f"{where}: field {name!r} must be {expected}, got {v!r}")
        values[name] = tuple(v) if isinstance(v, list) else v
    return cls(**values)


def _report_object(report) -> Dict:
    """The machine-JSON object of a report: its ``kind`` plus its fields."""
    kind = _REPORT_KINDS.get(type(report))
    if kind is None:
        raise TypeError(f"unsupported report type: {type(report).__name__}")
    return {"kind": kind, **vars(report)}


def write_report(report, format: str = TABLE) -> str:
    """Render a report as a human table or lossless machine JSON."""
    obj = _report_object(report)
    if format == MACHINE:
        return json.dumps(obj, sort_keys=True) + "\n"
    if format != TABLE:
        raise ValueError(f"unknown report format {format!r}")
    return _table(_TABLE_ROWS[type(report)](report))


def read_report(text: str):
    """Inverse of ``write_report(..., format=MACHINE)``."""
    obj = _json_object(text, "report")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _REPORT_CLASSES:
        raise DataFormatError(f"report: unknown report kind {kind!r}")
    return _from_json_object(_REPORT_CLASSES[kind], obj, "report")


# ---------------------------------------------------------------------------
# training traces

def write_trace(trace: TrainTrace) -> str:
    lines = []
    for step, rec in enumerate(trace.records):
        lines.append(json.dumps({"step": step, **vars(rec)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def read_trace_records(stream: Union[str, io.TextIOBase, Iterable[str]],
                       source: str = "<trace>") -> List[TrainStep]:
    records: List[TrainStep] = []
    for lineno, line in enumerate(_lines(stream), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        where = f"{source}:{lineno}"
        records.append(_from_json_object(TrainStep, _json_object(stripped, where), where))
    return records
