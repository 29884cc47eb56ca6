"""Command-line front end: align, risk, train-toy, score, segment.

Each subcommand returns its result text and a note for stderr; ``main``
writes the result to stdout (or --out) only once it is complete, then the
note.  On an error, nothing reaches stdout or --out, and the error line
goes to stderr.  Exit codes: 0 success, 1 usage error, 2 data error.

Each subcommand imports what only it runs: ``align`` and ``risk`` the
alignment and risk modules, ``train-toy`` the trainer and numpy, so that
``score`` and ``segment`` start with the readers and metrics alone.
"""

from __future__ import annotations

import argparse
import math
import sys

from .dataio import (
    MACHINE,
    TABLE,
    DataFormatError,
    RiskKind,
    _SORTED_ENCODER,
    _pct,
    _precision_recall_rows,
    _report_object,
    _segmentation_rows,
    _table,
    format_seconds,
    parse_change_stamps,
    parse_nbest,
    parse_rttm,
    tokenize_transcript,
    segment_longform,
    write_report,
    write_trace,
)
from .metrics import (
    ChangeHypothesis,
    _ms,
    f1_of_rates,
    pooled_precision_recall,
    pooled_segmentation,
    purity_coverage,
    score_changes,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .alignment import AlignmentCosts
    from .risk import NBest, RiskConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; we reserve 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _costs_arg(text: str) -> AlignmentCosts:
    from .alignment import AlignmentCosts

    try:
        return AlignmentCosts.from_k(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _nonneg_float(text: str) -> float:
    v = _finite_float(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return v


def _positive_float(text: str) -> float:
    v = _finite_float(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return v


def _seconds(parse):
    """The argument type ``parse`` that also rejects more than 3 decimal
    places and values of 10**12 s or more.  The value is its milliseconds
    over 1000, so that equal values print alike: ``-0.0`` is ``0.0``."""
    def seconds(text: str) -> float:
        v = parse(text)
        try:
            return _ms(v, "seconds") / 1000
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected below 10**12 s with at most 3 decimal places, got {text!r}") from None
    return seconds


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {n}")
    return n


def _nbest_n_arg(text: str) -> int | None:
    return None if text.upper() == "ALL" else _positive_int(text)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise DataFormatError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _add_risk_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_nonneg_float, default=1.0,
                   help="word-error weight (default 1)")
    p.add_argument("--beta", type=_nonneg_float, default=10.0,
                   help="turn false-accept weight (default 10)")
    p.add_argument("--gamma", type=_nonneg_float, default=10.0,
                   help="turn false-reject weight (default 10)")
    p.add_argument("--k", type=_costs_arg, default="1.1", metavar="K",
                   help="turn-marker insert/delete cost, >= 1 (default 1.1)")


def _risk_config(args, normalize: bool = True,
                 kind: RiskKind = RiskKind.SCD_WEIGHTED) -> RiskConfig:
    from .risk import RiskConfig

    return RiskConfig(alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                      costs=args.k, normalize_scores=normalize, risk_kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scd",
                     description="Speaker-change token alignment, risk loss, and metrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("align", help="align two transcripts and print the error counts")
    p.add_argument("--ref", required=True, help="reference transcript file")
    p.add_argument("--hyp", required=True, help="hypothesis transcript file")
    p.add_argument("--k", type=_costs_arg, default="1.1", metavar="K",
                   help="turn-marker insert/delete cost, >= 1 (default 1.1)")
    p.add_argument("--format", choices=[TABLE, MACHINE], default=TABLE)
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("risk", help="expected-risk breakdown of an N-best file")
    p.add_argument("--nbest", required=True, help="N-best file (one JSON record per line)")
    _add_risk_flags(p)
    p.add_argument("--risk-kind", choices=[k.value for k in RiskKind],
                   default=RiskKind.SCD_WEIGHTED.value,
                   help="turn-weighted risk or plain word-error risk")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                   help="softmax the hypothesis scores (default on)")
    p.add_argument("--nbest-n", type=_nbest_n_arg, default="ALL", metavar="N|ALL",
                   help="use only the N best-scoring hypotheses per utterance")
    p.add_argument("--lambda", dest="nll_weight", type=_nonneg_float, default=0.03,
                   help="weight of the NLL term in the batch total (default 0.03)")
    p.add_argument("--nll", type=_nonneg_float, default=0.0,
                   help="externally computed negative log probability (default 0)")
    p.add_argument("--format", choices=[TABLE, MACHINE], default=TABLE)
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("train-toy", help="run the toy trainer and emit its trace")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=["st-vs-word"],
                     help="bundled demonstration scenario")
    src.add_argument("--ref", help="reference transcript file to enumerate candidates from")
    p.add_argument("--vocab", help="comma-separated substitution vocabulary "
                                   "(default: the reference's own words)")
    p.add_argument("--edit-budget", type=int, default=1, choices=[1, 2, 3],
                   help="candidate edits away from the reference (default 1)")
    p.add_argument("--steps", type=_positive_int, default=500)
    p.add_argument("--lr", type=_positive_float, default=0.5, help="learning rate (default 0.5)")
    p.add_argument("--lambda", dest="nll_weight", type=_nonneg_float, default=0.03)
    p.add_argument("--nbest-n", type=_nbest_n_arg, default="ALL", metavar="N|ALL",
                   help="risk is summed over the N top-scoring candidates")
    _add_risk_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the trace here instead of stdout")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("score", help="score predicted change stamps against an RTTM reference")
    p.add_argument("--ref", required=True, help="reference RTTM file")
    p.add_argument("--hyp", required=True, help="change-stamp file")
    p.add_argument("--collar", type=_seconds(_nonneg_float), default=0.25,
                   help="matching tolerance in seconds (default 0.25)")
    p.add_argument("--recall-mode", choices=["count", "duration"], default="count",
                   help="which recall variant the table's recall/f1 rows use")
    p.add_argument("--gap-merge", type=_seconds(_nonneg_float), default=0.0,
                   help="pre-merge same-speaker gaps up to this many seconds (default 0 = off)")
    p.add_argument("--format", choices=[TABLE, MACHINE], default=TABLE)
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("segment", help="split recordings into windows of whole segments")
    p.add_argument("--ref", required=True, help="reference RTTM file")
    p.add_argument("--target", type=_seconds(_positive_float), required=True,
                   help="target window length in seconds")
    p.add_argument("--out", help="write windows here instead of stdout")
    p.set_defaults(func=cmd_segment)

    return parser


def _op_line(op, ref, hyp) -> str:
    from .alignment import OpKind

    if op.kind in (OpKind.MATCH, OpKind.WORD_SUB):
        return (f"op {op.kind.value:<8} ref[{op.ref_index}]={ref[op.ref_index]} "
                f"hyp[{op.hyp_index}]={hyp[op.hyp_index]}")
    if op.kind is OpKind.DELETE:
        return f"op {op.kind.value:<8} ref[{op.ref_index}]={ref[op.ref_index]}"
    return f"op {op.kind.value:<8} hyp[{op.hyp_index}]={hyp[op.hyp_index]}"


def _sections(sections) -> str:
    """The ``risk`` and ``score`` tables: each (title, table) under an
    ``== <title>`` line, with a blank line between sections."""
    return "\n".join(f"== {title}\n{table}" for title, table in sections)


def cmd_align(args) -> tuple[str, str]:
    from .alignment import align

    ref = tokenize_transcript(_read_text(args.ref))
    hyp = tokenize_transcript(_read_text(args.hyp))
    result = align(ref, hyp, args.k)
    if args.format == MACHINE:
        obj = {
            "cost_milli": result.cost_milli,
            "counts": vars(result.counts),
            "ops": [
                {"kind": op.kind.value, "ref_index": op.ref_index, "hyp_index": op.hyp_index}
                for op in result.ops
            ],
        }
        return _SORTED_ENCODER.encode(obj) + "\n", ""
    rows = [("cost_milli", str(result.cost_milli))]
    rows.extend((name, str(value)) for name, value in vars(result.counts).items())
    return _table(rows) + "".join(_op_line(op, ref, hyp) + "\n" for op in result.ops), ""


def _top_hypotheses(nbest: NBest, n: int | None) -> NBest:
    from .risk import NBest

    if n is None or n >= len(nbest.hypotheses):
        return nbest
    ranked = sorted(range(len(nbest.hypotheses)),
                    key=lambda i: (-nbest.hypotheses[i].log_score, i))
    kept = tuple(nbest.hypotheses[i] for i in sorted(ranked[:n]))
    return NBest(nbest.utterance_id, nbest.reference, kept)


def cmd_risk(args) -> tuple[str, str]:
    from .risk import expected_risk, pooled_loss

    records = parse_nbest(_read_text(args.nbest), source=args.nbest)
    config = _risk_config(args, normalize=args.normalize, kind=RiskKind(args.risk_kind))
    records = [_top_hypotheses(nb, args.nbest_n) for nb in records]
    per_utt = [(nb.utterance_id, expected_risk(nb, config)) for nb in records]
    batch = pooled_loss((rep for _, rep in per_utt), nll_weight=args.nll_weight, nll=args.nll)
    if args.format == MACHINE:
        obj = {
            "utterances": [
                {"utterance_id": uid, "report": _report_object(rep)}
                for uid, rep in per_utt
            ],
            "batch": _report_object(batch),
        }
        return _SORTED_ENCODER.encode(obj) + "\n", ""
    titled = [(f"utterance {uid}", rep) for uid, rep in per_utt] + [("batch", batch)]
    return _sections((title, write_report(rep, TABLE)) for title, rep in titled), ""


def cmd_train_toy(args) -> tuple[str, str]:
    # The trainer imports numpy; the other subcommands start without it.
    from .tokens import seq_to_text
    from .trainer import TrainConfig, enumerate_candidates, st_vs_word_space, train

    if args.scenario:
        space = st_vs_word_space()
    else:
        ref = tokenize_transcript(_read_text(args.ref))
        if not ref:
            raise DataFormatError(f"{args.ref}: transcript is empty")
        if args.vocab:
            vocab = [w.casefold() for w in args.vocab.split(",") if w]
        else:
            vocab = sorted({t.text for t in ref if not t.is_turn})
        if not vocab:
            raise DataFormatError("no substitution vocabulary available")
        space = enumerate_candidates(ref, args.edit_budget, vocab, args.seed)
    config = TrainConfig(
        learning_rate=args.lr,
        steps=args.steps,
        nbest_n=args.nbest_n,
        nll_weight=args.nll_weight,
        risk=_risk_config(args),
    )
    trace = train(space, config)
    first, last = trace.initial, trace.final
    return write_trace(trace), (
        f"{space.utterance_id}: {len(space.candidates)} candidates, {args.steps} steps; "
        f"loss {first.loss_total:.6g} -> {last.loss_total:.6g}; "
        f"argmax {last.argmax_candidate} "
        f"({seq_to_text(space.candidates[last.argmax_candidate])!r})\n")


def _score_rows(pr, seg, recall_mode: str):
    """The report rows, with the recall mode's recall/f1 pair in place of
    the count-based f1, no collar row, and purity/coverage F1 relabelled."""
    recall = pr.recall_duration if recall_mode == "duration" else pr.recall_count
    rows = [row for row in _precision_recall_rows(pr) if row[0] not in ("f1", "collar")]
    rows[1:1] = [("recall", _pct(recall)), ("f1", _pct(f1_of_rates(pr.precision, recall)))]
    return rows + [("purity_coverage_f1" if name == "f1" else name, value)
                   for name, value in _segmentation_rows(seg)]


def cmd_score(args) -> tuple[str, str]:
    annotations = parse_rttm(_read_text(args.ref), source=args.ref)
    stamps = parse_change_stamps(_read_text(args.hyp), source=args.hyp)
    known = {a.recording_id for a in annotations}
    by_id = {}
    for hyp in stamps:
        if hyp.recording_id not in known:
            raise DataFormatError(
                f"{args.hyp}: recording {hyp.recording_id!r} has no annotation in {args.ref}")
        by_id[hyp.recording_id] = hyp

    sections = []
    for ann in annotations:
        hyp = by_id.get(ann.recording_id, ChangeHypothesis(ann.recording_id, ()))
        sections.append((ann.recording_id,
                         score_changes(ann, hyp, collar=args.collar, gap_merge=args.gap_merge),
                         purity_coverage(ann, hyp, gap_merge=args.gap_merge)))
    pooled_pr = pooled_precision_recall([pr for _, pr, _ in sections])
    pooled_seg = pooled_segmentation([seg for _, _, seg in sections])

    if args.format == MACHINE:
        obj = {
            "collar": args.collar,
            "recordings": [
                {
                    "recording_id": rec_id,
                    "precision_recall": _report_object(pr),
                    "segmentation": _report_object(seg),
                }
                for rec_id, pr, seg in sections
            ],
            "pooled": {
                "precision_recall": _report_object(pooled_pr),
                "segmentation": _report_object(pooled_seg),
            },
        }
        return _SORTED_ENCODER.encode(obj) + "\n", ""
    pooled = f"pooled ({len(sections)} recording{'s' if len(sections) != 1 else ''})"
    return _sections((title, _table(_score_rows(pr, seg, args.recall_mode)))
                     for title, pr, seg in [*sections, (pooled, pooled_pr, pooled_seg)]), ""


def cmd_segment(args) -> tuple[str, str]:
    annotations = parse_rttm(_read_text(args.ref), source=args.ref)
    lines = []
    for ann in annotations:
        for start, end in segment_longform(ann, args.target):
            lines.append(f"{ann.recording_id}\t{format_seconds(start)}\t{format_seconds(end)}")
    return "\n".join(lines) + "\n", ""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, note = args.func(args)
        _emit(text, args.out)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
