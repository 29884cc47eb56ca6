"""The record base every scdkit record derives from, against the frozen
dataclasses it replaced.

``ErrorCountsTwin`` is a frozen dataclass with the fields of ``ErrorCounts``,
the oracle for equality, ``hash`` and ``repr``.  ``PICKLES`` holds the bytes
the dataclass versions of five records wrote (protocol 0 and 5); they must
load, and the records must still write the same bytes.
"""

import pickle
import random
from dataclasses import dataclass

import pytest

from scdkit.alignment import ErrorCounts
from scdkit.dataio import LossBreakdown, TrainStep, TrainTrace, write_trace
from scdkit.metrics import ChangeHypothesis, PrecisionRecallReport, SpeakerSegment, _Record
from scdkit.risk import RiskConfig, ScoredHypothesis
from scdkit.tokens import Token, word
from scdkit.trainer import TrainConfig


@dataclass(frozen=True)
class ErrorCountsTwin:
    word_errors: int = 0
    st_insertions: int = 0
    st_deletions: int = 0
    st_correct: int = 0


class SameFields(_Record):
    word_errors: int = 0
    st_insertions: int = 0
    st_deletions: int = 0
    st_correct: int = 0


def _counts(rng):
    return tuple(rng.choice([0, 1, 2, -1, 10 ** 20, 0.5, float("nan"), None, "x"])
                 for _ in range(4))


class TestAgainstTheDataclassTwin:
    @pytest.mark.parametrize("seed", range(10))
    def test_eq_hash_repr(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            a, b = _counts(rng), _counts(rng)
            if rng.random() < 0.3:
                b = a
            got = (ErrorCounts(*a), ErrorCounts(*b))
            want = (ErrorCountsTwin(*a), ErrorCountsTwin(*b))
            assert (got[0] == got[1]) == (want[0] == want[1])
            assert (got[0] != got[1]) == (want[0] != want[1])
            # a nan field equals itself in both: fields compare as tuples
            assert (got[0] == got[0]) == (want[0] == want[0])
            assert repr(got[0]) == repr(want[0]).replace("ErrorCountsTwin", "ErrorCounts")
            assert hash(got[0]) == hash(want[0]) == hash(a)

    def test_keyword_positional_and_defaults_agree(self):
        for kwargs in ({}, {"st_deletions": 2}, {"word_errors": 1, "st_correct": 3}):
            assert vars(ErrorCounts(**kwargs)) == vars(ErrorCountsTwin(**kwargs))
        assert ErrorCounts(1, st_correct=4) == ErrorCounts(1, 0, 0, 4)
        want = repr(ErrorCountsTwin(1, st_correct=4))
        assert repr(ErrorCounts(1, st_correct=4)) == want.replace("ErrorCountsTwin", "ErrorCounts")

    def test_never_equal_to_a_tuple_or_another_class(self):
        counts = ErrorCounts(1, 2, 3, 4)
        for other in ((1, 2, 3, 4), ErrorCountsTwin(1, 2, 3, 4), SameFields(1, 2, 3, 4), None):
            assert counts != other and other != counts
            assert not counts == other
        assert SameFields(1, 2, 3, 4) == SameFields(1, 2, 3, 4)

    def test_vars_holds_the_fields_in_order(self):
        assert list(vars(ErrorCounts(1, 2, 3, 4))) == list(vars(ErrorCountsTwin(1, 2, 3, 4)))
        step = TrainStep(1.0, 0.5, 0.0, 2.0, 3)
        assert list(vars(step)) == ["loss_total", "expected_fa", "expected_fr", "expected_w",
                                    "argmax_candidate"]

    def test_assignment_and_deletion_raise_attribute_error(self):
        counts = ErrorCounts()
        with pytest.raises(AttributeError, match="cannot assign to field 'word_errors'"):
            counts.word_errors = 1
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            counts.other = 1
        with pytest.raises(AttributeError, match="cannot delete field 'word_errors'"):
            del counts.word_errors
        assert counts == ErrorCounts()

    @pytest.mark.parametrize("call, message", [
        (lambda: ErrorCounts(1, 2, 3, 4, 5), "ErrorCounts() takes 4 arguments but 5 were given"),
        (lambda: ErrorCounts(1, word_errors=2), "got multiple values for argument 'word_errors'"),
        (lambda: ErrorCounts(typo=1), "got an unexpected keyword argument 'typo'"),
        (lambda: TrainStep(1.0, 0.5), "TrainStep() missing required argument 'expected_fr'"),
        (lambda: ScoredHypothesis(()), "log_score"),
    ])
    def test_bad_arguments_raise_type_error(self, call, message):
        with pytest.raises(TypeError) as info:
            call()
        assert message in str(info.value)

    def test_a_subclass_inherits_the_fields(self):
        class Plain(ErrorCounts):
            pass

        class Extended(ErrorCounts):
            note: str = ""

        assert Plain(1, 2) != ErrorCounts(1, 2) and Plain(1, 2) == Plain(1, 2)
        # the qualified name, as a dataclass's repr has it
        assert repr(Plain(1)).endswith(
            "<locals>.Plain(word_errors=1, st_insertions=0, st_deletions=0, st_correct=0)")
        assert vars(Extended(1, note="x")) == {**vars(ErrorCounts(1)), "note": "x"}
        assert Extended(1, 2, 3, 4, "x").total_errors == 6

    def test_match_args_are_the_fields(self):
        match ErrorCounts(1, 2, 3, 4):
            case ErrorCounts(w, fa, fr, ok):
                assert (w, fa, fr, ok) == (1, 2, 3, 4)

    def test_derived_attributes_stay_out_of_eq_hash_and_repr(self):
        seg = SpeakerSegment("A", 1.5, 3.25)
        assert vars(seg) == {"speaker": "A", "start": 1.5, "end": 3.25, "span": (1500, 3250)}
        assert hash(seg) == hash(("A", 1.5, 3.25))
        hyp = ChangeHypothesis("r", (3.0, 1.25))
        assert hash(hyp) == hash(("r", (1.25, 3.0)))
        assert repr(hyp) == "ChangeHypothesis(recording_id='r', timestamps=(1.25, 3.0))"

    def test_one_field_records_hash_as_a_one_tuple(self):
        assert hash(word("a")) == hash(("a",))
        assert hash(Token()) == hash((None,))
        assert repr(word("a")) == "Token(text='a')"

    def test_default_config_records(self):
        assert TrainConfig().risk == RiskConfig()
        assert repr(RiskConfig()).startswith("RiskConfig(alpha=1.0, beta=10.0, gamma=10.0, "
                                             "costs=AlignmentCosts(st_cost_milli=1100), ")


# The bytes the frozen-dataclass versions of these records wrote, for the
# objects of ``OBJECTS`` below: protocol 0, then protocol 5.
PICKLES = {
    'SpeakerSegment': (
        # protocol 0
        b'ccopy_reg\n_reconstructor\np0\n(cscdkit.metrics\nSpeakerSegment\np1\nc__builtin__\n'
        b'object\np2\nNtp3\nRp4\n(dp5\nVspeaker\np6\nVA\np7\nsVstart\np8\nF1.5\nsVend\np9\nF3'
        b'.25\nsVspan\np10\n(I1500\nI3250\ntp11\nsb.',
        # protocol 5
        b'\x80\x05\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\x0escdkit.metrics\x94\x8c\x0eSpeakerS'
        b'egment\x94\x93\x94)\x81\x94}\x94(\x8c\x07speaker\x94\x8c\x01A\x94\x8c\x05start\x94G'
        b'?\xf8\x00\x00\x00\x00\x00\x00\x8c\x03end\x94G@\n\x00\x00\x00\x00\x00\x00\x8c\x04spa'
        b'n\x94M\xdc\x05M\xb2\x0c\x86\x94ub.',
    ),
    'ChangeHypothesis': (
        # protocol 0
        b'ccopy_reg\n_reconstructor\np0\n(cscdkit.metrics\nChangeHypothesis\np1\nc__builtin__'
        b'\nobject\np2\nNtp3\nRp4\n(dp5\nVrecording_id\np6\nVr\np7\nsVtimestamps\np8\n(F1.25'
        b'\nF3.0\ntp9\nsVstamps_ms\np10\n(I1250\nI3000\ntp11\nsb.',
        # protocol 5
        b'\x80\x05\x95w\x00\x00\x00\x00\x00\x00\x00\x8c\x0escdkit.metrics\x94\x8c\x10ChangeHy'
        b'pothesis\x94\x93\x94)\x81\x94}\x94(\x8c\x0crecording_id\x94\x8c\x01r\x94\x8c\ntimes'
        b'tamps\x94G?\xf4\x00\x00\x00\x00\x00\x00G@\x08\x00\x00\x00\x00\x00\x00\x86\x94\x8c\t'
        b'stamps_ms\x94M\xe2\x04M\xb8\x0b\x86\x94ub.',
    ),
    'PrecisionRecallReport': (
        # protocol 0
        b'ccopy_reg\n_reconstructor\np0\n(cscdkit.metrics\nPrecisionRecallReport\np1\nc__buil'
        b'tin__\nobject\np2\nNtp3\nRp4\n(dp5\nVprecision\np6\nF0.5\nsVrecall_count\np7\nNsVre'
        b'call_duration\np8\nF0.25\nsVf1\np9\nNsVn_predictions_kept\np10\nI2\nsVn_predictions'
        b'_dropped\np11\nI1\nsVn_correct\np12\nI1\nsVn_fa\np13\nI1\nsVn_intervals\np14\nI0\ns'
        b'Vn_hit\np15\nI0\nsVn_fr\np16\nI0\nsVcollar\np17\nF0.25\nsVhit_duration\np18\nF0.5\n'
        b'sVtotal_duration\np19\nF2.0\nsb.',
        # protocol 5
        b'\x80\x05\x95)\x01\x00\x00\x00\x00\x00\x00\x8c\x0escdkit.metrics\x94\x8c\x15Precisio'
        b'nRecallReport\x94\x93\x94)\x81\x94}\x94(\x8c\tprecision\x94G?\xe0\x00\x00\x00\x00'
        b'\x00\x00\x8c\x0crecall_count\x94N\x8c\x0frecall_duration\x94G?\xd0\x00\x00\x00\x00'
        b'\x00\x00\x8c\x02f1\x94N\x8c\x12n_predictions_kept\x94K\x02\x8c\x15n_predictions_dro'
        b'pped\x94K\x01\x8c\tn_correct\x94K\x01\x8c\x04n_fa\x94K\x01\x8c\x0bn_intervals\x94K'
        b'\x00\x8c\x05n_hit\x94K\x00\x8c\x04n_fr\x94K\x00\x8c\x06collar\x94G?\xd0\x00\x00\x00'
        b'\x00\x00\x00\x8c\x0chit_duration\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x0etotal_dur'
        b'ation\x94G@\x00\x00\x00\x00\x00\x00\x00ub.',
    ),
    'LossBreakdown': (
        # protocol 0
        b'ccopy_reg\n_reconstructor\np0\n(cscdkit.dataio\nLossBreakdown\np1\nc__builtin__\nob'
        b'ject\np2\nNtp3\nRp4\n(dp5\nVper_hyp_risk\np6\n(F0.5\nF1.0\ntp7\nsVper_hyp_prob\np8'
        b'\n(F0.75\nF0.25\ntp9\nsVexpected_risk\np10\nF0.625\nsVnll_term\np11\nF0.0\nsVtotal'
        b'\np12\nF0.625\nsVexpected_fa\np13\nF0.25\nsVexpected_fr\np14\nF0.0\nsVexpected_w\np'
        b'15\nF1.0\nsb.',
        # protocol 5
        b'\x80\x05\x95\xf3\x00\x00\x00\x00\x00\x00\x00\x8c\rscdkit.dataio\x94\x8c\rLossBreakd'
        b'own\x94\x93\x94)\x81\x94}\x94(\x8c\x0cper_hyp_risk\x94G?\xe0\x00\x00\x00\x00\x00'
        b'\x00G?\xf0\x00\x00\x00\x00\x00\x00\x86\x94\x8c\x0cper_hyp_prob\x94G?\xe8\x00\x00'
        b'\x00\x00\x00\x00G?\xd0\x00\x00\x00\x00\x00\x00\x86\x94\x8c\rexpected_risk\x94G?\xe4'
        b'\x00\x00\x00\x00\x00\x00\x8c\x08nll_term\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c'
        b'\x05total\x94G?\xe4\x00\x00\x00\x00\x00\x00\x8c\x0bexpected_fa\x94G?\xd0\x00\x00'
        b'\x00\x00\x00\x00\x8c\x0bexpected_fr\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\nexpec'
        b'ted_w\x94G?\xf0\x00\x00\x00\x00\x00\x00ub.',
    ),
    'TrainStep': (
        # protocol 0
        b'ccopy_reg\n_reconstructor\np0\n(cscdkit.dataio\nTrainStep\np1\nc__builtin__\nobject'
        b'\np2\nNtp3\nRp4\n(dp5\nVloss_total\np6\nF1.5\nsVexpected_fa\np7\nF0.25\nsVexpected_'
        b'fr\np8\nF0.0\nsVexpected_w\np9\nF2.0\nsVargmax_candidate\np10\nI3\nsb.',
        # protocol 5
        b'\x80\x05\x95\x96\x00\x00\x00\x00\x00\x00\x00\x8c\rscdkit.dataio\x94\x8c\tTrainStep'
        b'\x94\x93\x94)\x81\x94}\x94(\x8c\nloss_total\x94G?\xf8\x00\x00\x00\x00\x00\x00\x8c'
        b'\x0bexpected_fa\x94G?\xd0\x00\x00\x00\x00\x00\x00\x8c\x0bexpected_fr\x94G\x00\x00'
        b'\x00\x00\x00\x00\x00\x00\x8c\nexpected_w\x94G@\x00\x00\x00\x00\x00\x00\x00\x8c\x10a'
        b'rgmax_candidate\x94K\x03ub.',
    ),
}

OBJECTS = {
    "SpeakerSegment": SpeakerSegment("A", 1.5, 3.25),
    "ChangeHypothesis": ChangeHypothesis("r", (3.0, 1.25)),
    "PrecisionRecallReport": PrecisionRecallReport(
        precision=0.5, recall_count=None, recall_duration=0.25, f1=None, n_predictions_kept=2,
        n_predictions_dropped=1, n_correct=1, n_fa=1, n_intervals=0, n_hit=0, n_fr=0,
        collar=0.25, hit_duration=0.5, total_duration=2.0),
    "LossBreakdown": LossBreakdown(
        per_hyp_risk=(0.5, 1.0), per_hyp_prob=(0.75, 0.25), expected_risk=0.625, nll_term=0.0,
        total=0.625, expected_fa=0.25, expected_fr=0.0, expected_w=1.0),
    "TrainStep": TrainStep(loss_total=1.5, expected_fa=0.25, expected_fr=0.0, expected_w=2.0,
                           argmax_candidate=3),
}


class TestDataclassEraPickles:
    @pytest.mark.parametrize("name", list(PICKLES))
    @pytest.mark.parametrize("protocol", [0, 5])
    def test_old_pickle_loads_equal(self, name, protocol):
        obj = pickle.loads(PICKLES[name][protocol != 0])
        assert type(obj) is type(OBJECTS[name])
        assert obj == OBJECTS[name]
        assert vars(obj) == vars(OBJECTS[name])

    def test_derived_attributes_are_restored(self):
        seg = pickle.loads(PICKLES["SpeakerSegment"][0])
        assert seg.span == (1500, 3250)
        hyp = pickle.loads(PICKLES["ChangeHypothesis"][1])
        assert hyp.stamps_ms == (1250, 3000)

    @pytest.mark.parametrize("name", list(PICKLES))
    @pytest.mark.parametrize("protocol", [0, 5])
    def test_records_write_the_same_bytes(self, name, protocol):
        assert pickle.dumps(OBJECTS[name], protocol) == PICKLES[name][protocol != 0]

    def test_loaded_records_stay_frozen(self):
        step = pickle.loads(PICKLES["TrainStep"][1])
        with pytest.raises(AttributeError):
            step.loss_total = 0.0
        trace = TrainTrace((step,), (0.5,))
        assert write_trace(trace) == write_trace(TrainTrace((OBJECTS["TrainStep"],), (0.5,)))
