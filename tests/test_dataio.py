import gc
import importlib.util
import json
import logging
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

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
from scdkit.tokens import SPEAKER_TURN, ST_TEXT, word
from scdkit.trainer import TrainConfig, st_vs_word_space, train


class TestSeconds:
    def test_parse_and_format(self):
        assert parse_seconds("10.203") == 10.203
        assert parse_seconds("0.5") == 0.5
        assert format_seconds(10.5) == "10.50"
        assert format_seconds(10.203) == "10.203"
        assert format_seconds(7.0) == "7.00"

    def test_rejects_sub_millisecond(self):
        with pytest.raises(DataFormatError):
            parse_seconds("1.0001")

    def test_rejects_garbage(self):
        with pytest.raises(DataFormatError):
            parse_seconds("10,5")

    def test_leading_zeros_do_not_count_toward_the_bound(self):
        assert parse_seconds("0000000000000001.5") == 1.5
        assert parse_seconds("-000999999999999.999") == -999999999999.999

    @pytest.mark.parametrize("text", ["9007199254740.993", "1000000000000", "-1000000000000.0"])
    def test_bound_error_names_the_text(self, text):
        # the double of 9007199254740.993 is 9007199254740.992
        with pytest.raises(DataFormatError) as info:
            parse_seconds(text)
        assert str(info.value) == f"{text!r} is not below 10**12 s in magnitude"


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

    def test_library_word_cannot_be_turn_marker(self):
        with pytest.raises(ValueError, match="reserved turn marker"):
            word(ST_TEXT)
        assert word("<ST>").text == "<ST>"


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
         "f.rttm:2: '99999999999999.999' is not below 10**12 s in magnitude"),
        # onset and duration in range, their sum not: the segment's own rule
        ("SPEAKER rec1 1 999999999999.999 0.002 <NA> <NA> A <NA> <NA>",
         "f.rttm:2: segment [999999999999.999, 1000000000000.001] of 'A' must be finite, "
         "below 10**12 s in magnitude and with at most 3 decimal places, "
         "got 1000000000000.001"),
    ])
    def test_error_messages_exact(self, line, message):
        with pytest.raises(DataFormatError) as info:
            parse_rttm("\n" + line, source="f.rttm")
        assert str(info.value) == message

    def test_negative_zero_onset_reads_as_zero(self):
        [a] = parse_rttm("SPEAKER r 1 -0.000 1.5 <NA> <NA> A <NA> <NA>\n")
        assert a.segments[0] == SpeakerSegment("A", 0.0, 1.5)
        assert math.copysign(1, a.segments[0].start) == 1

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

    @pytest.mark.parametrize("stamps", ["1.0,,5.0", "1.0,5.0,", ",1.0"])
    def test_empty_item_rejected(self, stamps):
        with pytest.raises(DataFormatError) as info:
            parse_change_stamps(f"q\t\nr\t{stamps}\n", source="f.stamps")
        assert str(info.value) == ("f.stamps:2: '' is not a decimal number of seconds "
                                   "(at most 3 fractional digits)")

    def test_duplicate_recording_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_change_stamps("r\t1.00\nr\t2.00\n")

    @pytest.mark.parametrize("text, message", [
        ("\t1.0", "f.stamps:1: empty recording id"),
        (" \n\n", "f.stamps: no records found"),
    ], ids=["empty-id", "blank"])
    def test_rejected_file_names_where(self, text, message):
        with pytest.raises(DataFormatError) as info:
            parse_change_stamps(text, source="f.stamps")
        assert str(info.value) == message

    def test_off_grid_stamp_names_line(self):
        # 3 decimals, but as a double it is off the millisecond grid; the
        # error names the text, not the double
        with pytest.raises(DataFormatError) as info:
            parse_change_stamps("r\t1.00\ns\t650969265922957.403\n", source="f.stamps")
        assert str(info.value) == ("f.stamps:2: '650969265922957.403' is not below 10**12 s "
                                   "in magnitude")

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        rng = random.Random(100 + seed)
        hyps = [
            ChangeHypothesis(f"rec{i}", tuple(round(rng.uniform(0, 60), 3)
                                              for _ in range(rng.randint(0, 8))))
            for i in range(rng.randint(1, 4))
        ]
        assert parse_change_stamps(serialize_change_stamps(hyps)) == hyps


def _stamps_by_floats(rec_id, rest):
    """A stamps line's hypothesis as read through float seconds: each stamp
    by ``parse_seconds``, then the ``ChangeHypothesis`` constructor."""
    return ChangeHypothesis(rec_id, tuple(map(parse_seconds, rest.split(","))) if rest else ())


_ODD_STAMPS = ["-0", "-0.0", "-0.000", "0", "000.5", "-1.5", "1.0001", "0.1234", "1e3", "",
               "-", ".5", "999999999999.999", "-999999999999.999", "1000000000000"]


class TestStampsStraightToMs:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_float_path(self, seed):
        rng = random.Random(seed)
        for n in range(25):
            items = []
            for _ in range(rng.randint(1, 8)):
                roll = rng.random()
                if roll < 0.15 and items:
                    items.append(rng.choice(items))  # a duplicate
                elif roll < 0.3:
                    items.append(rng.choice(_ODD_STAMPS))
                else:
                    places = rng.randint(0, 3)
                    items.append(f"{rng.randint(-2000, 900000) / 1000:.{places}f}")
            rec_id = rng.choice(["r", "rec-1", "r x"])
            rest = ",".join(items)
            try:
                want = _stamps_by_floats(rec_id, rest)
            except ValueError as exc:
                with pytest.raises(DataFormatError) as info:
                    parse_change_stamps(f"{rec_id}\t{rest}\n", source="f.stamps")
                assert str(info.value) == f"f.stamps:1: {exc}"
                continue
            [got] = parse_change_stamps(f"{rec_id}\t{rest}\n", source="f.stamps")
            assert got == want
            assert repr(got) == repr(want)  # also tells 0.0 from -0.0
            assert got.stamps_ms == want.stamps_ms

    def test_negative_zero_reads_as_zero(self):
        [got] = parse_change_stamps("r\t-0,-0.000,1.5\n")
        assert got.timestamps == (0.0, 1.5) and got.stamps_ms == (0, 1500)
        assert math.copysign(1, got.timestamps[0]) == 1

    def test_from_ms_keeps_the_constructor_bound(self):
        for stamps in ([10 ** 15, 5], [-10 ** 15, 10 ** 15 + 1]):
            with pytest.raises(ValueError) as want:
                ChangeHypothesis("r", tuple(ms / 1000 for ms in stamps))
            with pytest.raises(ValueError) as got:
                ChangeHypothesis._from_ms("r", stamps)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="recording id"):
            ChangeHypothesis._from_ms("r x", [1])


def random_nbest_record(rng, uid):
    pool = [word("a"), word("b"), word("c"), SPEAKER_TURN]
    ref = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
    hyps = tuple(
        ScoredHypothesis(tuple(rng.choice(pool) for _ in range(rng.randint(0, 8))),
                         round(rng.uniform(-9, 0), 6))
        for _ in range(rng.randint(1, 4)))
    return NBest(uid, ref, hyps)


@st.composite
def seconds_texts(draw, int_digits):
    """A decimal seconds text with ``int_digits`` integer digits (no leading
    zero) and 0-3 fractional digits, with the milliseconds its digits spell."""
    n = draw(int_digits)
    whole = draw(st.integers(0 if n == 1 else 10 ** (n - 1), 10 ** n - 1))
    frac = draw(st.text("0123456789", max_size=3))
    return (f"{whole}.{frac}" if frac else str(whole)), whole * 1000 + int(frac.ljust(3, "0"))


class TestExactTime:
    """Below 10**12 s a parsed time is exactly the milliseconds its text
    spells; at 10**12 s or more it is a data error naming the file and line."""

    @given(seconds_texts(st.integers(1, 12)))
    def test_in_range_times_store_their_digits(self, case):
        text, ms = case
        [hyp] = parse_change_stamps(f"r\t{text}\n")
        assert hyp.stamps_ms == (ms,)
        assume(ms + 1 < 10**15)  # the segment end must be in range as well
        [a] = parse_rttm(f"SPEAKER r 1 {text} 0.001 <NA> <NA> A <NA> <NA>\n")
        assert a.segments[0].span == (ms, ms + 1)

    @given(seconds_texts(st.integers(13, 25)))
    def test_times_of_10_to_the_12_s_or_more_are_rejected(self, case):
        text, _ = case
        with pytest.raises(DataFormatError, match=r"^f\.rttm:2: .*below 10\*\*12 s"):
            parse_rttm(f"\nSPEAKER r 1 {text} 1.000 <NA> <NA> A <NA> <NA>\n", source="f.rttm")
        with pytest.raises(DataFormatError, match=r"^f\.stamps:2: .*below 10\*\*12 s"):
            parse_change_stamps(f"q\t1.0\nr\t0.5,{text}\n", source="f.stamps")

    def test_largest_time_is_exact(self):
        [hyp] = parse_change_stamps("r\t999999999999.999\n")
        assert hyp.stamps_ms == (999999999999999,)
        assert serialize_change_stamps([hyp]) == "r\t999999999999.999\n"


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

    @pytest.mark.parametrize("uid", ['""', "7"])
    def test_utterance_id_rule_names_line(self, uid):
        with pytest.raises(DataFormatError) as info:
            parse_nbest(f'{{"utterance_id": {uid}, "reference": "a", '
                        '"hypotheses": [{"text": "a", "log_score": 0}]}', source="n.jsonl")
        assert str(info.value) == "n.jsonl:1: utterance_id must be a non-empty string"

    def test_tokenizer_error_names_line(self):
        with pytest.raises(DataFormatError) as info:
            parse_nbest('\n{"utterance_id": "u", "reference": "a", '
                        '"hypotheses": [{"text": "a <ST>", "log_score": -1}]}', source="n.jsonl")
        assert str(info.value) == ("n.jsonl:2: word '<ST>' case-folds to the reserved "
                                   "turn marker '<st>'")

    @pytest.mark.parametrize("text, message", [
        ('{"utterance_id": "u", "reference": 5, "hypotheses": [{"text": "a", "log_score": 0}]}',
         "n.jsonl:1: reference must be a string"),
        ('{"utterance_id": "u", "reference": "a", "hypotheses": []}',
         "n.jsonl:1: hypotheses must be a non-empty list"),
        ('{"utterance_id": "u", "reference": "a", "hypotheses": [{"text": "a"}]}',
         "n.jsonl:1: each hypothesis needs text and log_score"),
        (" \n\n", "n.jsonl: no records found"),
    ], ids=["non-string-reference", "no-hypotheses", "no-log-score", "blank"])
    def test_rejected_file_names_where(self, text, message):
        with pytest.raises(DataFormatError) as info:
            parse_nbest(text, source="n.jsonl")
        assert str(info.value) == message

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


def _bench_inputs():
    """``bench/inputs.py``, the benchmark's seeded input generator."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_tokens(text):
    """A transcript's tokens, one ``Token`` built per word through the public constructors."""
    return tuple(SPEAKER_TURN if w == ST_TEXT else word(w.casefold()) for w in text.split())


def _oracle_nbest(line):
    obj = json.loads(line)
    return NBest(obj["utterance_id"], _oracle_tokens(obj["reference"]),
                 tuple(ScoredHypothesis(_oracle_tokens(h["text"]), h["log_score"])
                       for h in obj["hypotheses"]))


def _recased(rng, text):
    """``text`` with some words upper- or title-cased; the turn marker is kept as is."""
    return " ".join(w if w == ST_TEXT or rng.random() < 0.5
                    else rng.choice((w.upper(), w.title())) for w in text.split())


class TestNBestTokenTable:
    """``parse_nbest`` builds one ``Token`` per distinct raw word of a call."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_token_per_word(self, seed):
        rng = random.Random(seed)
        lines = []
        for line in _bench_inputs().nbest_lines(rng, 8, rng.choice((3, 12, 40)), 4).splitlines():
            obj = json.loads(line)
            obj["reference"] = _recased(rng, obj["reference"])
            for h in obj["hypotheses"]:
                h["text"] = _recased(rng, h["text"])
            lines.append(json.dumps(obj))
        text = "\n".join(lines)
        assert text != text.lower()  # some words were recased
        assert parse_nbest(text) == [_oracle_nbest(line) for line in lines]

    def test_a_raw_word_is_one_token_within_a_call(self):
        [nb] = parse_nbest('{"utterance_id": "u", "reference": "hello <st> world hello", '
                           '"hypotheses": [{"text": "hello world", "log_score": -1}, '
                           '{"text": "HELLO <st> Hello", "log_score": -2}]}')
        ref, (first, second) = nb.reference, nb.hypotheses
        assert ref[0] is ref[3] is first.tokens[0]
        assert ref[2] is first.tokens[1]
        assert ref[1] is second.tokens[1] is SPEAKER_TURN
        assert second.tokens[0] == second.tokens[2] == ref[0]

    def test_case_variants_align_as_a_match(self, tmp_path, capsys):
        from scdkit.cli import main

        nbest = tmp_path / "n.jsonl"
        nbest.write_text('{"utterance_id": "u", "reference": "Hello <st> world", '
                         '"hypotheses": [{"text": "HELLO <st> WORLD", "log_score": -1}]}\n')
        assert main(["risk", "--nbest", str(nbest), "--format", MACHINE]) == 0
        report = json.loads(capsys.readouterr().out)["utterances"][0]["report"]
        assert report["per_hyp_risk"] == [0.0]
        assert report["expected_w"] == 0.0

    def test_calls_share_no_table(self):
        line = ('{"utterance_id": "u", "reference": "hello world", '
                '"hypotheses": [{"text": "hello", "log_score": -1}]}')
        [a], [b] = parse_nbest(line), parse_nbest(line)
        assert a == b and a.reference[0] is not b.reference[0]
        assert tokenize_transcript("hello")[0] is not tokenize_transcript("hello")[0]
        # nothing outlives the call: the records were the only owners of their tokens
        kept = weakref.ref(a.reference[0])
        del a, b
        gc.collect()
        assert kept() is None

    def test_case_fold_error_names_its_first_line(self, tmp_path):
        path = tmp_path / "n.jsonl"
        path.write_text("".join(
            json.dumps({"utterance_id": f"u{i}", "reference": ref,
                        "hypotheses": [{"text": "a b", "log_score": -1}]}) + "\n"
            for i, ref in enumerate(["a b <st> c", "a <St> b", "a b", "<St> c"])))
        with pytest.raises(DataFormatError) as info:
            parse_nbest(path.read_text(), source=str(path))
        assert str(info.value) == (f"{path}:2: word '<St>' case-folds to the reserved "
                                   "turn marker '<st>'")


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

    @pytest.mark.parametrize("fmt", [MACHINE, TABLE])
    def test_equal_collars_write_alike(self, fmt):
        hyp = ChangeHypothesis("fig1", (10.2, 15.0, 19.5))
        as_int = score_changes(FIG1, hyp, collar=1)
        assert write_report(as_int, fmt) == write_report(score_changes(FIG1, hyp, collar=1.0), fmt)
        assert '"collar": 1.0' in write_report(as_int, MACHINE)

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

    def test_unsupported_report_type_rejected(self):
        with pytest.raises(TypeError, match="^unsupported report type: object$"):
            write_report(object())

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


class TestReaders:
    def test_data_format_error_is_a_value_error(self):
        assert issubclass(DataFormatError, ValueError)

    @pytest.mark.parametrize("read, record", [
        (parse_rttm, "SPEAKER rec1 1 0.00 10.00 <NA> <NA> A <NA> <NA>"),
        (parse_change_stamps, "rec1\t1.50,2.25"),
        (parse_nbest, '{"utterance_id": "u", "reference": "a", '
                      '"hypotheses": [{"text": "a", "log_score": 0}]}'),
        (read_trace_records, _STEP.strip()),
    ], ids=["rttm", "stamps", "nbest", "trace"])
    def test_whitespace_only_lines_are_skipped(self, read, record):
        # str.strip whitespace, which includes U+00A0, makes a line blank
        assert read(f" \t\u00a0\n{record}\n\n") == read(record)
