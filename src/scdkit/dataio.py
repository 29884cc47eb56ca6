"""File formats and text ingestion.

Formats:
  RTTM          ``SPEAKER <file> <chan> <onset> <dur> <NA> <NA> <speaker> <NA> <NA>``
  change stamps one recording per line: ``<recording_id><TAB><t1>,<t2>,...``
  N-best        one JSON object per line with utterance_id, reference,
                hypotheses [{text, log_score}]
  reports       human table or stable-keyed JSON (lossless round trip)

Parsers reject malformed records with the offending position instead of
guessing.  Timestamps are decimal seconds with at most millisecond
resolution, preserved exactly; a time of 10**12 s or more is rejected, as
from there on such a decimal can have more significant digits than a
double holds exactly.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Sequence
from enum import Enum

from .metrics import (
    Annotation,
    ChangeHypothesis,
    PrecisionRecallReport,
    SegmentationReport,
    SpeakerSegment,
    _ms,
    _Record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .risk import NBest
    from .tokens import Token, TokenSeq

# ``score`` and ``segment`` run only the RTTM and stamps readers, so the
# transcript and N-best codecs import the token alphabet and the risk
# records where they run, and ``logging`` loads with the first warning.

# groups: the sign, the integer part without leading zeros, the fraction digits
_SECONDS_RE = re.compile(r"^(-?)0*(\d+)(?:\.(\d{1,3}))?$")


class DataFormatError(ValueError):
    """Malformed input; a reader's message carries the file/line position."""


def _warn(message: str, *args) -> None:
    """Log a warning on this module's logger, importing ``logging`` on the first one."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _at(where: str, parse: Callable, text: str):
    """``parse(text)``; a ValueError it raises becomes a DataFormatError
    naming ``where``.  The only place that adds a position to a message."""
    try:
        return parse(text)
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def _records(text: str, source: str, parse_line: Callable) -> list:
    """``parse_line`` of each non-blank line, its errors named ``<source>:<line>``."""
    return [_at(f"{source}:{lineno}", parse_line, line)
            for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _parse_ms(text: str) -> int:
    """The exact milliseconds a decimal seconds text spells, read from its digits."""
    m = _SECONDS_RE.match(text)
    if not m:
        raise DataFormatError(
            f"{text!r} is not a decimal number of seconds (at most 3 fractional digits)")
    sign, whole, fraction = m.groups()
    # the bound of metrics._ms, checked on the text so that the error names it
    if len(whole) > 12:
        raise DataFormatError(f"{text!r} is not below 10**12 s in magnitude")
    ms = int(whole + (fraction or "").ljust(3, "0"))
    return -ms if sign else ms


def parse_seconds(text: str) -> float:
    # correctly rounded, so the same double as float(text), but never -0.0
    return _parse_ms(text) / 1000


def format_seconds(value: float) -> str:
    """Millisecond-exact decimal text, at least two fractional digits."""
    s = f"{value:.3f}"
    return s[:-1] if s.endswith("0") else s


def _json_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataFormatError("expected a JSON object")
    return obj


# ---------------------------------------------------------------------------
# transcripts

def _tokenizer() -> Callable[[str], TokenSeq]:
    """``tokenize_transcript``, with the token alphabet imported once for
    every transcript it reads, and one ``Token`` per distinct raw word."""
    from .tokens import SPEAKER_TURN, ST_TEXT, word

    # raw word -> its token, for the transcripts of one reader call.  A word
    # that fails is never stored, so each of its occurrences raises.
    table = {ST_TEXT: SPEAKER_TURN}

    def new_token(raw: str) -> Token:
        folded = raw.casefold()
        if folded == ST_TEXT:
            raise DataFormatError(
                f"word {raw!r} case-folds to the reserved turn marker {ST_TEXT!r}")
        token = table[raw] = word(folded)
        return token

    def tokenize(text: str) -> TokenSeq:
        lookup = table.get
        # a Token is always true, so ``or`` builds only the words not yet seen
        return tuple([lookup(raw) or new_token(raw) for raw in text.split()])

    return tokenize


def tokenize_transcript(text: str) -> TokenSeq:
    """Whitespace-split into tokens; the literal turn marker is matched
    before case folding, so a word that merely folds to it is an error."""
    return _tokenizer()(text)


# ---------------------------------------------------------------------------
# RTTM

def _rttm_line(line: str) -> tuple[str, SpeakerSegment] | None:
    """(file id, segment) of a SPEAKER line; None for any other record type."""
    fields = line.split()
    if fields[0] != "SPEAKER":
        return None
    if len(fields) != 10:
        raise DataFormatError(f"expected 10 fields, got {len(fields)}")
    try:
        int(fields[2])
    except ValueError:
        raise DataFormatError(f"channel must be an integer, got {fields[2]!r}")
    onset = _parse_ms(fields[3])
    duration = _parse_ms(fields[4])
    if onset < 0:
        raise DataFormatError(f"negative onset {fields[3]}")
    if duration <= 0:
        raise DataFormatError(f"segment duration must be positive, got {fields[4]}")
    return fields[1], SpeakerSegment._from_ms(fields[7], onset, onset + duration)


def parse_rttm(text: str, source: str = "<rttm>") -> list[Annotation]:
    """Parse SPEAKER records grouped by file id, in order of first appearance.

    The channel must be an integer but is not kept.
    """
    records = _records(text, source, _rttm_line)
    segments: dict[str, list[SpeakerSegment]] = {}
    for record in records:
        if record is not None:
            segments.setdefault(record[0], []).append(record[1])
    ignored = records.count(None)
    if ignored:
        _warn("%s: ignored %d non-SPEAKER lines", source, ignored)
    if not segments:
        raise DataFormatError(f"{source}: no SPEAKER records found")
    return [Annotation(file_id, tuple(segs)) for file_id, segs in segments.items()]


def serialize_rttm(annotations: Sequence[Annotation]) -> str:
    """One SPEAKER line per segment, on channel 1 with ``<NA>`` metadata slots."""
    lines = []
    for ann in annotations:
        for seg in ann.segments:
            lines.append(f"SPEAKER {ann.recording_id} 1 {format_seconds(seg.start)} "
                         f"{format_seconds((seg.span[1] - seg.span[0]) / 1000)} "
                         f"<NA> <NA> {seg.speaker} <NA> <NA>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# change stamps

def parse_change_stamps(text: str, source: str = "<stamps>") -> list[ChangeHypothesis]:
    seen = set()

    def parse_line(line: str) -> ChangeHypothesis:
        if "\t" not in line:
            raise DataFormatError("expected '<recording_id><TAB><t1>,<t2>,...'")
        rec_id, _, rest = line.partition("\t")
        rec_id = rec_id.strip()
        if not rec_id:
            raise DataFormatError("empty recording id")
        if rec_id in seen:
            raise DataFormatError(f"duplicate recording id {rec_id!r}")
        seen.add(rec_id)
        rest = rest.strip()
        # read before _from_ms checks the id: a line with both faults names the stamp
        stamps = [*map(_parse_ms, rest.split(","))] if rest else []
        return ChangeHypothesis._from_ms(rec_id, stamps)

    out = _records(text, source, parse_line)
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

def parse_nbest(text: str, source: str = "<nbest>") -> list[NBest]:
    from .risk import NBest, ScoredHypothesis

    tokenize = _tokenizer()

    def parse_line(line: str) -> NBest:
        # str.strip, not json.loads, decides which whitespace may surround a record
        rec = _json_object(line.strip())
        try:
            utt_id = rec["utterance_id"]
            reference = rec["reference"]
            hyp_list = rec["hypotheses"]
        except KeyError as exc:
            raise DataFormatError(f"missing field {exc}") from exc
        if not isinstance(reference, str):
            raise DataFormatError("reference must be a string")
        if not isinstance(hyp_list, list) or not hyp_list:
            raise DataFormatError("hypotheses must be a non-empty list")
        ref_tokens = tokenize(reference)
        hyps = []
        for h in hyp_list:
            if not isinstance(h, dict) or "text" not in h or "log_score" not in h:
                raise DataFormatError("each hypothesis needs text and log_score")
            if not isinstance(h["text"], str):
                raise DataFormatError("hypothesis text must be a string")
            hyps.append(ScoredHypothesis(tokenize(h["text"]), h["log_score"]))
        return NBest(utt_id, ref_tokens, tuple(hyps))

    out = _records(text, source, parse_line)
    if not out:
        raise DataFormatError(f"{source}: no records found")
    return out


def serialize_nbest(records: Sequence[NBest]) -> str:
    from .tokens import seq_to_text

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

def segment_longform(annotation: Annotation, target: float) -> list[tuple[float, float]]:
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
    spans = sorted(s.span for s in annotation.segments)
    windows: list[tuple[float, float]] = []
    win_start: int | None = None
    win_end = 0
    count = 0
    for idx, (start, end) in enumerate(spans):
        if win_start is None:
            win_start, win_end, count = start, end, 1
        else:
            win_end = max(win_end, end)
            count += 1
        if end - start > target_ms and count == 1:
            _warn(
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
# loss and training trace records: what ``risk`` and ``trainer.train`` return
# and the report and trace codecs below write and read, defined here so that
# the codecs load neither the risk path nor numpy.  RiskKind is here too, so
# that the CLI lists its values without loading the risk path.

class RiskKind(str, Enum):
    # weighted turn-aware risk, normalized by reference length
    SCD_WEIGHTED = "scd_weighted"
    # plain expected-number-of-errors risk used by word-error-rate training
    WORD_ERROR_ONLY = "word_error_only"


class LossBreakdown(_Record):
    per_hyp_risk: tuple[float, ...]
    per_hyp_prob: tuple[float, ...]
    expected_risk: float
    nll_term: float
    total: float
    expected_fa: float
    expected_fr: float
    expected_w: float


class TrainStep(_Record):
    loss_total: float
    expected_fa: float
    expected_fr: float
    expected_w: float
    argmax_candidate: int


class TrainTrace(_Record):
    records: tuple[TrainStep, ...]  # steps + 1 entries, initial state first
    final_model: tuple[float, ...]  # the logits after the last step

    @property
    def initial(self) -> TrainStep:
        return self.records[0]

    @property
    def final(self) -> TrainStep:
        return self.records[-1]


# ---------------------------------------------------------------------------
# reports

TABLE = "table"
MACHINE = "machine"


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}"


def _table(rows: Sequence[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows) + "\n"


def _precision_recall_rows(r: PrecisionRecallReport) -> list[tuple[str, str]]:
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


def _segmentation_rows(r: SegmentationReport) -> list[tuple[str, str]]:
    return [
        ("purity", _pct(r.purity)),
        ("coverage", _pct(r.coverage)),
        ("f1", _pct(r.f1)),
    ]


def _loss_rows(r: LossBreakdown) -> list[tuple[str, str]]:
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
# records use, keyed by the annotation as written (annotations are not
# evaluated): (check, description for the error message).
_VALUE_CHECKS = {
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number or null"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "tuple[float, ...]": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                          "a list of numbers"),
}

# Machine JSON carries each record field under its own name.  Writers use
# vars(), which for these records holds exactly the fields; the reader
# looks the names and their checks up once here, in field order, as doing
# so per trace record is measurably slower.
_FIELD_CHECKS = {cls: tuple((name, *_VALUE_CHECKS[cls.__annotations__[name]])
                            for name in cls._fields)
                 for cls in (*_REPORT_CLASSES.values(), TrainStep)}


def _from_json_object(cls, obj: dict):
    """Build ``cls`` from its fields in ``obj``; JSON lists become tuples."""
    values = []
    for name, valid, expected in _FIELD_CHECKS[cls]:
        if name not in obj:
            raise DataFormatError(f"missing field {name!r}")
        v = obj[name]
        if not valid(v):
            raise DataFormatError(f"field {name!r} must be {expected}, got {v!r}")
        values.append(tuple(v) if isinstance(v, list) else v)
    return cls(*values)


def _report_object(report) -> dict:
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


def _report(text: str):
    obj = _json_object(text)
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _REPORT_CLASSES:
        raise DataFormatError(f"unknown report kind {kind!r}")
    return _from_json_object(_REPORT_CLASSES[kind], obj)


def read_report(text: str):
    """Inverse of ``write_report(..., format=MACHINE)``."""
    return _at("report", _report, text)


# ---------------------------------------------------------------------------
# training traces

# One encoder for every trace record: json.dumps(..., sort_keys=True) builds
# a new JSONEncoder per call.
_SORTED_ENCODER = json.JSONEncoder(sort_keys=True)


def write_trace(trace: TrainTrace) -> str:
    lines = []
    for step, rec in enumerate(trace.records):
        lines.append(_SORTED_ENCODER.encode({"step": step, **vars(rec)}))
    return "\n".join(lines) + "\n"


def _trace_line(line: str) -> TrainStep:
    return _from_json_object(TrainStep, _json_object(line.strip()))


def read_trace_records(text: str, source: str = "<trace>") -> list[TrainStep]:
    return _records(text, source, _trace_line)
