import logging
import random

import pytest

from _scenarios import random_annotation
from scdkit.dataio import (
    MACHINE,
    TABLE,
    DataFormatError,
    format_seconds,
    parse_change_stamps,
    parse_nbest,
    parse_rttm,
    parse_seconds,
    read_report,
    read_trace_records,
    segment_longform,
    serialize_change_stamps,
    serialize_nbest,
    serialize_rttm,
    tokenize_transcript,
    write_report,
    write_trace,
)
from scdkit.metrics import (
    Annotation,
    ChangeHypothesis,
    PrecisionRecallReport,
    SegmentationReport,
    SpeakerSegment,
    score_changes,
    purity_coverage,
)
from scdkit.risk import LossBreakdown, NBest, ScoredHypothesis
from scdkit.tokens import SPEAKER_TURN, word
from scdkit.trainer import TrainConfig, st_vs_word_space, train


class TestSeconds:
    def test_parse_and_format(self):
        assert parse_seconds("10.203", "t") == 10.203
        assert parse_seconds("0.5", "t") == 0.5
        assert format_seconds(10.5) == "10.50"
        assert format_seconds(10.203) == "10.203"
        assert format_seconds(7.0) == "7.00"

    def test_rejects_sub_millisecond(self):
        with pytest.raises(DataFormatError):
            parse_seconds("1.0001", "t")

    def test_rejects_garbage(self):
        with pytest.raises(DataFormatError):
            parse_seconds("10,5", "t")


class TestTokenize:
    def test_turn_augmented_transcript(self):
        seq = tokenize_transcript("hello how are you <st> I am good <st>")
        assert len(seq) == 9
        assert sum(1 for t in seq if t.is_turn) == 2
        assert str(seq[5]) == "i"  # case-folded
        assert seq[4].is_turn and seq[8].is_turn

    def test_empty(self):
        assert tokenize_transcript("") == ()

    def test_marker_collision_rejected(self):
        with pytest.raises(DataFormatError):
            tokenize_transcript("a <ST> b")


class TestRttm:
    def test_single_line(self):
        anns = parse_rttm("SPEAKER rec1 1 0.00 10.00 <NA> <NA> A <NA> <NA>")
        assert len(anns) == 1
        assert anns[0].recording_id == "rec1"
        assert anns[0].segments == (SpeakerSegment("A", 0.0, 10.0),)

    def test_groups_by_file_in_first_seen_order(self):
        text = ("SPEAKER b 1 0.00 1.00 <NA> <NA> X <NA> <NA>\n"
                "SPEAKER a 1 0.00 1.00 <NA> <NA> X <NA> <NA>\n"
                "SPEAKER b 1 2.00 1.00 <NA> <NA> Y <NA> <NA>\n")
        anns = parse_rttm(text)
        assert [a.recording_id for a in anns] == ["b", "a"]
        assert len(anns[0].segments) == 2

    def test_error_names_line(self):
        text = ("SPEAKER rec1 1 0.00 10.00 <NA> <NA> A <NA> <NA>\n"
                "SPEAKER rec1 1 0.00 10.00 <NA> A <NA>\n")
        with pytest.raises(DataFormatError, match=":2"):
            parse_rttm(text)

    def test_zero_duration_rejected(self):
        with pytest.raises(DataFormatError, match="duration"):
            parse_rttm("SPEAKER rec1 1 5.00 0.00 <NA> <NA> A <NA> <NA>")

    def test_non_speaker_lines_ignored_with_warning(self, caplog):
        text = ("LIGHTING rec1 1 0.00 1.00 x\n"
                "SPEAKER rec1 1 0.00 10.00 <NA> <NA> A <NA> <NA>\n")
        with caplog.at_level(logging.WARNING):
            anns = parse_rttm(text)
        assert len(anns) == 1
        assert any("ignored 1" in r.message for r in caplog.records)

    def test_empty_input_rejected(self):
        with pytest.raises(DataFormatError):
            parse_rttm("")

    @pytest.mark.parametrize("line, message", [
        ("SPEAKER rec1 1 0.00 10.00 <NA> A <NA>", "f.rttm:2: expected 10 fields, got 8"),
        ("SPEAKER rec1 x 0.00 1.00 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: channel must be an integer, got 'x'"),
        ("SPEAKER rec1 1 0.0001 1.00 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: '0.0001' is not a decimal number of seconds (at most 3 fractional digits)"),
        ("SPEAKER rec1 1 0.00 1.5e3 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: '1.5e3' is not a decimal number of seconds (at most 3 fractional digits)"),
        ("SPEAKER rec1 1 -1.00 1.00 <NA> <NA> A <NA> <NA>", "f.rttm:2: negative onset -1.00"),
        ("SPEAKER rec1 1 5.00 0.00 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: segment duration must be positive, got 0.00"),
        ("SPEAKER rec1 1 5.00 -0.50 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: segment duration must be positive, got -0.50"),
        ("LIGHTING rec1 1 0.00 1.00 x", "f.rttm: no SPEAKER records found"),
        ("", "f.rttm: no SPEAKER records found"),
        ("SPEAKER rec1 1 99999999999999.999 1.00 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: segment [100000000000000.0, 100000000000001.0] of 'A' must be finite "
         "with at most 3 decimal places, got 100000000000001.0"),
    ])
    def test_error_messages_exact(self, line, message):
        with pytest.raises(DataFormatError) as info:
            parse_rttm("\n" + line, source="f.rttm")
        assert str(info.value) == message

    def test_serialize_line_exact(self):
        a = Annotation("rec1", (SpeakerSegment("A", 1.5, 3.25), SpeakerSegment("B", 0.001, 12.0)))
        assert serialize_rttm([a]) == ("SPEAKER rec1 1 1.50 1.75 <NA> <NA> A <NA> <NA>\n"
                                       "SPEAKER rec1 1 0.001 11.999 <NA> <NA> B <NA> <NA>\n")

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        anns = [random_annotation(rng, rec_id=f"rec{i}") for i in range(rng.randint(1, 4))]
        assert parse_rttm(serialize_rttm(anns)) == anns


class TestChangeStamps:
    def test_parse_basic(self):
        hyps = parse_change_stamps("rec1\t1.50,2.25,0.75\nrec2\t\n")
        assert hyps[0] == ChangeHypothesis("rec1", (0.75, 1.5, 2.25))
        assert hyps[1].timestamps == ()

    def test_missing_tab_rejected(self):
        with pytest.raises(DataFormatError, match=":1"):
            parse_change_stamps("rec1 1.5,2.0")

    def test_duplicate_recording_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_change_stamps("r\t1.00\nr\t2.00\n")

    def test_off_grid_stamp_names_line(self):
        # 3 decimals, so it parses, but the double is off the millisecond grid
        with pytest.raises(DataFormatError) as info:
            parse_change_stamps("r\t1.00\ns\t650969265922957.403\n", source="f.stamps")
        assert str(info.value) == ("f.stamps:2: timestamps of 's' must be finite with at most "
                                   "3 decimal places, got 650969265922957.4")

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        rng = random.Random(100 + seed)
        hyps = [
            ChangeHypothesis(f"rec{i}", tuple(round(rng.uniform(0, 60), 3)
                                              for _ in range(rng.randint(0, 8))))
            for i in range(rng.randint(1, 4))
        ]
        assert parse_change_stamps(serialize_change_stamps(hyps)) == hyps


def random_nbest_record(rng, uid):
    pool = [word("a"), word("b"), word("c"), SPEAKER_TURN]
    ref = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
    hyps = tuple(
        ScoredHypothesis(tuple(rng.choice(pool) for _ in range(rng.randint(0, 8))),
                         round(rng.uniform(-9, 0), 6))
        for _ in range(rng.randint(1, 4)))
    return NBest(uid, ref, hyps)


class TestNBestFile:
    def test_parse_single_record(self):
        line = ('{"utterance_id": "u1", "reference": "a <st> b", '
                '"hypotheses": [{"text": "a b", "log_score": -0.5}]}')
        records = parse_nbest(line)
        assert records[0].utterance_id == "u1"
        assert len(records[0].reference) == 3
        assert records[0].hypotheses[0].log_score == -0.5

    def test_bad_json_names_line(self):
        with pytest.raises(DataFormatError, match=":2"):
            parse_nbest('{"utterance_id": "u", "reference": "a", '
                        '"hypotheses": [{"text": "a", "log_score": 0}]}\n{oops\n')

    def test_missing_field_rejected(self):
        with pytest.raises(DataFormatError, match="missing field"):
            parse_nbest('{"utterance_id": "u", "reference": "a"}')

    def test_empty_reference_rejected(self):
        with pytest.raises(DataFormatError):
            parse_nbest('{"utterance_id": "u", "reference": "", '
                        '"hypotheses": [{"text": "a", "log_score": 0}]}')

    def test_non_finite_score_rejected(self):
        with pytest.raises(DataFormatError, match="finite"):
            parse_nbest('{"utterance_id": "u", "reference": "a", '
                        '"hypotheses": [{"text": "a", "log_score": NaN}]}')

    def test_boolean_score_rejected(self):
        with pytest.raises(DataFormatError) as info:
            parse_nbest('{"utterance_id": "u", "reference": "a", '
                        '"hypotheses": [{"text": "a", "log_score": true}]}', source="n.jsonl")
        assert str(info.value) == "n.jsonl:1: log_score must be a finite number, got True"

    def test_non_string_text_rejected(self):
        with pytest.raises(DataFormatError) as info:
            parse_nbest('{"utterance_id": "u", "reference": "a", '
                        '"hypotheses": [{"text": 5, "log_score": -1}]}', source="n.jsonl")
        assert str(info.value) == "n.jsonl:1: hypothesis text must be a string"

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        rng = random.Random(200 + seed)
        records = [random_nbest_record(rng, f"utt{i}") for i in range(rng.randint(1, 5))]
        assert parse_nbest(serialize_nbest(records)) == records


def ann(rec_id, *segs):
    return Annotation(rec_id, tuple(SpeakerSegment(s, a, b) for s, a, b in segs))


class TestSegmentLongform:
    def test_exact_fit(self):
        a = ann("r", *[("A", 10.0 * i, 10.0 * (i + 1)) for i in range(6)])
        assert segment_longform(a, 30.0) == [(0.0, 30.0), (30.0, 60.0)]

    def test_greedy_overshoot(self):
        a = ann("r", ("A", 0.0, 25.0), ("B", 25.0, 40.0))
        assert segment_longform(a, 30.0) == [(0.0, 40.0)]

    def test_oversized_segment_kept_whole(self, caplog):
        a = ann("r", ("A", 0.0, 90.0))
        with caplog.at_level(logging.WARNING):
            windows = segment_longform(a, 30.0)
        assert windows == [(0.0, 90.0)]
        assert any("longer than" in r.message for r in caplog.records)

    def test_never_cuts_inside_a_segment(self):
        a = ann("r", ("A", 0.0, 35.0), ("B", 30.0, 60.0), ("A", 60.0, 70.0))
        windows = segment_longform(a, 30.0)
        for seg in a.segments:
            containing = [w for w in windows if w[0] <= seg.start and seg.end <= w[1]]
            assert len(containing) == 1
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2

    @pytest.mark.parametrize("seed", range(20))
    def test_coverage_property(self, seed):
        rng = random.Random(300 + seed)
        a = random_annotation(rng)
        windows = segment_longform(a, rng.choice([5.0, 15.0, 40.0]))
        for seg in a.segments:
            assert sum(1 for w in windows if w[0] <= seg.start and seg.end <= w[1]) == 1
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2

    def test_window_exactly_target_long_closes_without_warning(self, caplog):
        # one segment, or two touching ones, exactly target long, then a
        # later segment no longer than the target
        rng = random.Random(4444)
        misses = []
        for _ in range(3000):
            start = rng.randint(0, 60000)
            target = rng.randint(2, 20000)
            split = start + rng.choice([target, rng.randint(1, target - 1)])
            end = start + target
            nxt = end + rng.randint(0, 2000)
            segs = [("A", start, split), ("B", split, end), ("C", nxt, nxt + rng.randint(1, target))]
            a = ann("r", *((spk, s / 1000, e / 1000) for spk, s, e in segs if e > s))
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                windows = segment_longform(a, target / 1000)
            if windows[0] != (start / 1000, end / 1000) or caplog.records:
                misses.append((start, split, end, target))
        assert misses == []

    def test_target_must_be_positive(self):
        for target in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                segment_longform(ann("r", ("A", 0.0, 1.0)), target)


FIG1 = ann("fig1", ("A", 0.0, 10.0), ("B", 10.5, 20.0), ("C", 19.0, 25.0))


# Valid machine JSON, edited field by field into malformed cases below.
_SEG = ('{"kind": "segmentation", "purity": 0.5, "coverage": 1, "f1": 0.6667, "purity_num": 1.0, '
        '"purity_den": 2.0, "coverage_num": 2.0, "coverage_den": 2.0}')
_PR = ('{"kind": "precision_recall", "precision": null, "recall_count": 0.5, '
       '"recall_duration": 0.25, "f1": null, "n_predictions_kept": 0, "n_predictions_dropped": 1, '
       '"n_correct": 0, "n_fa": 0, "n_intervals": 4, "n_hit": 2, "n_fr": 2, "collar": 0.25, '
       '"hit_duration": 1.0, "total_duration": 4.0}')
_LOSS = ('{"kind": "loss", "per_hyp_risk": [0.0, 2.2], "per_hyp_prob": [0.5, 0.5], '
         '"expected_risk": 1.1, "nll_term": 2.0, "total": 1.16, "expected_fa": 0.5, '
         '"expected_fr": 0.0, "expected_w": 0.5}')
_STEP = ('{"step": 0, "loss_total": 1.0, "expected_fa": 0.5, "expected_fr": 0.0, '
         '"expected_w": 0.5, "argmax_candidate": 0}\n')


class TestReports:
    def test_table_percent_formatting(self):
        r = PrecisionRecallReport(
            precision=0.781, recall_count=0.558, recall_duration=None, f1=0.651,
            n_predictions_kept=100, n_predictions_dropped=0, n_correct=78, n_fa=22,
            n_intervals=50, n_hit=28, n_fr=22, collar=0.25)
        text = write_report(r, TABLE)
        assert "78.1" in text
        assert "55.8" in text
        assert "n/a" in text

    def test_machine_round_trip_precision_recall(self):
        r = score_changes(FIG1, ChangeHypothesis("fig1", (10.2, 15.0, 19.5)), collar=0.25)
        assert read_report(write_report(r, MACHINE)) == r

    def test_machine_round_trip_segmentation(self):
        r = purity_coverage(FIG1, ChangeHypothesis("fig1", (10.2, 19.5)))
        assert read_report(write_report(r, MACHINE)) == r

    def test_machine_round_trip_loss(self):
        r = LossBreakdown(
            per_hyp_risk=(0.0, 2.2), per_hyp_prob=(0.5, 0.5), expected_risk=1.1,
            nll_term=2.0, total=1.16, expected_fa=0.5, expected_fr=0.0, expected_w=0.5)
        assert read_report(write_report(r, MACHINE)) == r

    def test_well_typed_values_accepted(self):
        assert [type(read_report(t)) for t in (_SEG, _PR, _LOSS)] == [
            SegmentationReport, PrecisionRecallReport, LossBreakdown]
        assert read_trace_records(_STEP)[0].argmax_candidate == 0

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_report(SegmentationReport(1.0, 1.0, 1.0), "csv")

    @pytest.mark.parametrize("text, message", [
        ("[1]", "expected a JSON object"),
        ('{"kind": "segmentation"}', "missing field 'purity'"),
        ('{"kind": "histogram"}', "unknown report kind"),
        ('{"kind": ["loss"]}', "unknown report kind"),
        (_SEG.replace('"purity": 0.5', '"purity": "x"'),
         "report: field 'purity' must be a number"),
        (_SEG.replace('"purity": 0.5', '"purity": null'), "field 'purity' must be a number"),
        (_SEG.replace('"coverage": 1', '"coverage": true'), "field 'coverage' must be a number"),
        (_PR.replace('"precision": null', '"precision": "1"'),
         "field 'precision' must be a number or null"),
        (_PR.replace('"n_intervals": 4', '"n_intervals": 4.0'),
         "field 'n_intervals' must be an integer"),
        (_PR.replace('"n_intervals": 4', '"n_intervals": false'),
         "field 'n_intervals' must be an integer"),
        (_LOSS.replace('"per_hyp_risk": [0.0, 2.2]', '"per_hyp_risk": 5'),
         "field 'per_hyp_risk' must be a list of numbers"),
        (_LOSS.replace('"per_hyp_risk": [0.0, 2.2]', '"per_hyp_risk": [0.0, "2.2"]'),
         "field 'per_hyp_risk' must be a list of numbers"),
        (_LOSS.replace('"expected_fa": 0.5', '"expected_fa": [1]'),
         "field 'expected_fa' must be a number"),
    ], ids=["not-an-object", "missing-field", "unknown-kind", "unhashable-kind",
            "string-float", "null-float", "bool-float", "string-optional", "float-int",
            "bool-int", "number-tuple", "string-in-tuple", "list-float"])
    def test_malformed_report_is_data_format_error(self, text, message):
        with pytest.raises(DataFormatError, match=message):
            read_report(text)


class TestTraceIO:
    def test_round_trip(self):
        trace = train(st_vs_word_space(), TrainConfig(steps=7))
        text = write_trace(trace)
        records = read_trace_records(text)
        assert tuple(records) == trace.records
        assert len(records) == 8

    @pytest.mark.parametrize("text, message", [
        ("[1]\n", "<trace>:1: expected a JSON object"),
        ('\n{"loss_total": 1.0}\n', "<trace>:2: missing field 'expected_fa'"),
        (_STEP.replace('"expected_fa": 0.5', '"expected_fa": [1]'),
         "<trace>:1: field 'expected_fa' must be a number"),
        (_STEP.replace('"argmax_candidate": 0', '"argmax_candidate": true'),
         "<trace>:1: field 'argmax_candidate' must be an integer"),
        (_STEP.replace('"loss_total": 1.0', '"loss_total": "1.0"'),
         "<trace>:1: field 'loss_total' must be a number"),
    ], ids=["not-an-object", "missing-field", "list-float", "bool-int", "string-float"])
    def test_malformed_record_is_data_format_error(self, text, message):
        with pytest.raises(DataFormatError, match=message):
            read_trace_records(text)
