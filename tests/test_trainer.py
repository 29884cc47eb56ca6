import pytest

from scdkit.risk import RiskConfig, RiskKind
from scdkit.tokens import SPEAKER_TURN, word
from scdkit.trainer import (
    HypothesisSpace,
    TrainConfig,
    candidate_probs,
    enumerate_candidates,
    st_vs_word_space,
    train,
)


def text_of(seq):
    return " ".join(str(t) for t in seq)


class TestHypothesisSpace:
    def test_reference_must_be_candidate(self):
        with pytest.raises(ValueError):
            HypothesisSpace("u", (word("a"),), ((word("b"),), (word("c"),)))

    def test_candidates_must_be_distinct(self):
        ref = (word("a"),)
        with pytest.raises(ValueError):
            HypothesisSpace("u", ref, (ref, ref))

    def test_needs_two_candidates(self):
        ref = (word("a"),)
        with pytest.raises(ValueError):
            HypothesisSpace("u", ref, (ref,))

    @pytest.mark.parametrize("kind", list(RiskKind))
    def test_empty_reference_rejected(self, kind):
        # rejected up front, whichever risk kind training would use
        with pytest.raises(ValueError, match="reference of 'e' is empty"):
            space = HypothesisSpace("e", (), ((), (word("a"),)))
            train(space, TrainConfig(steps=1, risk=RiskConfig(risk_kind=kind)))


class TestEnumerateCandidates:
    def test_single_edit_closure(self):
        ref = (word("a"), SPEAKER_TURN, word("b"))
        space = enumerate_candidates(ref, 1, ["a", "b"], seed=3)
        texts = {text_of(c) for c in space.candidates}
        assert "a <st> b" in texts          # reference kept
        assert "a b" in texts               # turn marker deleted
        assert "a <st> <st> b" in texts     # turn marker inserted
        assert "a <st> a" in texts          # word substituted
        assert "<st> b" in texts            # word deleted

    def test_cap_and_determinism(self):
        ref = (word("a"), SPEAKER_TURN, word("b"))
        vocab = ["a", "b", "c", "d", "e"]
        one = enumerate_candidates(ref, 3, vocab, seed=11)
        two = enumerate_candidates(ref, 3, vocab, seed=11)
        other = enumerate_candidates(ref, 3, vocab, seed=12)
        assert len(one.candidates) == 256
        assert one.reference in one.candidates
        assert one.candidates == two.candidates
        assert one.candidates != other.candidates

    def test_budget_validation(self):
        ref = (word("a"),)
        with pytest.raises(ValueError):
            enumerate_candidates(ref, 0, ["a"], seed=0)
        with pytest.raises(ValueError):
            enumerate_candidates(ref, 4, ["a"], seed=0)
        with pytest.raises(ValueError):
            enumerate_candidates(ref, 1, [], seed=0)


class TestTrainDynamics:
    def test_st_vs_word_scenario(self):
        space = st_vs_word_space()
        trace = train(space, TrainConfig())
        initial = trace.initial.expected_fa + trace.initial.expected_fr
        final = trace.final.expected_fa + trace.final.expected_fr
        assert final <= 0.05 * initial
        # argmax settles on a candidate without turn errors even though the
        # dropped-turn candidate makes fewer word errors than the word-sub one
        assert trace.final.argmax_candidate in (0, 1)
        probs = candidate_probs(trace)
        assert probs[2] < 1.0 / 3.0

    def test_st_vs_word_regression_bound(self):
        # frozen from the first run of the bundled scenario
        trace = train(st_vs_word_space(), TrainConfig())
        assert trace.final.expected_fa + trace.final.expected_fr <= 6.0e-4

    def test_trace_length_and_determinism(self):
        cfg = TrainConfig(steps=40)
        a = train(st_vs_word_space(), cfg)
        b = train(st_vs_word_space(), cfg)
        assert len(a.records) == 41
        assert a.records == b.records
        assert a.final_model == b.final_model

    def test_loss_non_increasing(self):
        # full-space selection keeps the objective fixed across steps; the
        # bundled fixture must be monotone at lr 0.5 without any halving
        for cfg in (TrainConfig(), TrainConfig(learning_rate=0.1, steps=200)):
            trace = train(st_vs_word_space(), cfg)
            for prev, cur in zip(trace.records, trace.records[1:]):
                assert cur.loss_total <= prev.loss_total + 1e-9

    def test_zero_nll_weight_drives_risk_to_zero(self):
        trace = train(st_vs_word_space(), TrainConfig(nll_weight=0.0, steps=2000))
        assert trace.final.loss_total < 1e-3

    def test_pure_nll_when_all_risks_zero(self):
        ref = (word("a"), SPEAKER_TURN, word("b"))
        space = HypothesisSpace("dup", ref, (ref, (word("a"), SPEAKER_TURN, word("b"), word("b"))))
        zero_risk = RiskConfig(alpha=0.0, beta=0.0, gamma=0.0)
        trace = train(space, TrainConfig(steps=50, risk=zero_risk))
        for rec in trace.records:
            assert rec.loss_total >= 0.0
        # only the nll term moves the logits; loss still decreases toward it
        assert trace.final.loss_total < trace.initial.loss_total

    def test_divergence_aborts_with_step_index(self):
        with pytest.raises(RuntimeError, match="step"):
            train(st_vs_word_space(), TrainConfig(nll_weight=float("inf"), steps=10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TrainConfig(learning_rate=bad)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(nbest_n=0)
        with pytest.raises(ValueError):
            TrainConfig(nll_weight=-0.1)
