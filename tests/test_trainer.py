import pytest
from _trainer_oracle import token_enumerate_candidates

from scdkit.risk import RiskConfig, RiskKind
from scdkit.tokens import SPEAKER_TURN, word
from scdkit.trainer import (
    CANDIDATE_CAP,
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

    def test_candidates_must_be_tokens(self):
        ref = (word("a"),)
        with pytest.raises(TypeError, match="expected Token, got str"):
            HypothesisSpace("u", ref, (ref, ("x",)))

    @pytest.mark.parametrize("kind", list(RiskKind))
    def test_empty_reference_rejected(self, kind):
        # rejected up front, whichever risk kind training would use
        with pytest.raises(ValueError, match="reference of 'e' is empty"):
            space = HypothesisSpace("e", (), ((), (word("a"),)))
            train(space, TrainConfig(steps=1, risk=RiskConfig(risk_kind=kind)))


@pytest.mark.parametrize("name", ["learning_rate", "nll_weight"])
def test_int_too_large_for_a_float_config_is_a_value_error(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        TrainConfig(**{name: 10**400})


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

    @pytest.mark.parametrize("budget", [True, 1.5, 2.0])
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(ValueError, match=r"edit_budget must be an int in \[1, 3\]"):
            enumerate_candidates((word("a"),), budget, ["a"], seed=0)

    @pytest.mark.parametrize("vocab", [[None], [1], ["a", None], [b"a"]])
    def test_vocab_entries_must_be_str(self, vocab):
        # in the text tuples None is the turn marker, so it must not pass as a word
        with pytest.raises(TypeError, match="vocab entries must be str"):
            enumerate_candidates((word("a"),), 1, vocab, seed=0)

    @pytest.mark.parametrize("bad, message", [
        ("x y", "contains whitespace"), ("<st>", "reserved turn marker"), ("", "non-empty"),
    ])
    def test_vocab_entries_must_be_words(self, bad, message):
        with pytest.raises(ValueError, match=message):
            enumerate_candidates((word("a"),), 1, ["a", bad], seed=0)


# name, reference, vocab: a turn-only and a single-token reference, and
# vocabularies that overlap the reference words, below and above the cap
ORACLE_CASES = [
    ("turn-only", (SPEAKER_TURN,), ["a"]),
    ("single-word", (word("a"),), ["a", "b"]),
    ("overlap", (word("a"), SPEAKER_TURN, word("b")), ["b", "c", "a"]),
    ("repeated", (word("a"), word("a"), SPEAKER_TURN, word("b"), SPEAKER_TURN), ["a", "c"]),
]


class TestTextEnumeration:
    """The text-tuple enumerator against the earlier Token-tuple one."""

    @pytest.mark.parametrize("seed", [0, 1, 7919])
    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("name, ref, vocab", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_token_oracle(self, name, ref, vocab, budget, seed):
        got = enumerate_candidates(ref, budget, vocab, seed)
        want = token_enumerate_candidates(ref, budget, vocab, seed)
        assert got.candidates == want.candidates
        assert got.reference_index == want.reference_index

    def test_oracle_cases_cover_both_sides_of_the_cap(self):
        sizes = {len(token_enumerate_candidates(ref, budget, vocab, 0).candidates)
                 for _, ref, vocab in ORACLE_CASES for budget in (1, 2, 3)}
        assert min(sizes) < CANDIDATE_CAP == max(sizes)

    @pytest.mark.parametrize("budget", [1, 2])
    def test_candidates_share_one_token_per_text(self, budget):
        a = word("a")
        ref = (a, SPEAKER_TURN, word("b"), a)
        vocab = ["b", "c", "a", "c"]
        space = enumerate_candidates(ref, budget, vocab, seed=0)
        objects = {id(t): t for c in space.candidates for t in c}
        texts = {t.text for t in objects.values()}
        assert texts == {None, "a", "b", "c"}
        assert len(objects) <= len(texts)
        ref_tokens = {t.text: t for t in ref}
        for c in space.candidates:
            for t in c:
                if t.is_turn:
                    assert t is SPEAKER_TURN
                elif t.text in ref_tokens:
                    assert t is ref_tokens[t.text]


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_divergence_aborts_with_step_index(self):
        # every setting is finite, but the first update overflows the logits
        huge = RiskConfig(alpha=1e308, beta=1e308, gamma=1e308)
        with pytest.raises(RuntimeError, match="step"):
            train(st_vs_word_space(), TrainConfig(learning_rate=1e308, steps=10, risk=huge))

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
        for bad in (2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match="steps must be an int >= 1"):
                TrainConfig(steps=bad)
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="nbest_n must be an int >= 1 or None"):
                TrainConfig(nbest_n=bad)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nll_weight must be finite and >= 0"):
                TrainConfig(nll_weight=bad)
