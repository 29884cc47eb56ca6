import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _alignment_oracle import brute_force_align, cost_from_ops, counts_from_ops, table_align
from scdkit.alignment import (
    AlignmentCosts,
    ErrorCounts,
    OpKind,
    align,
    k_to_milli,
)
from scdkit.tokens import SPEAKER_TURN, word


def toks(text):
    """'a b <st> c' -> token tuple (test-local shorthand)."""
    return tuple(SPEAKER_TURN if t == "<st>" else word(t) for t in text.split())


K_VALUES = ["1.0", "1.1", "2.0", "2.5"]

token_st = st.sampled_from([word("a"), word("b"), SPEAKER_TURN])
seq_st = st.lists(token_st, min_size=0, max_size=6).map(tuple)


def levenshtein(a, b):
    """Plain unit-cost edit distance, independent of the production DP."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


class TestCostConversion:
    def test_exact_milli(self):
        assert k_to_milli("1.1") == 1100
        assert k_to_milli(1.1) == 1100
        assert k_to_milli(2) == 2000
        assert k_to_milli("2.525") == 2525

    def test_rejects_too_many_decimals(self):
        with pytest.raises(ValueError):
            k_to_milli("1.0001")

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            k_to_milli("0.9")
        with pytest.raises(ValueError):
            AlignmentCosts(st_cost_milli=999)

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan", "sNaN", float("inf"), float("nan")])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            AlignmentCosts.from_k(k)

    @pytest.mark.parametrize("milli", [1500.5, 2000.0, True, "1100"])
    def test_rejects_non_int_milli(self, milli):
        with pytest.raises(ValueError, match="must be an int >= 1000 milli"):
            AlignmentCosts(st_cost_milli=milli)


class TestAlignExamples:
    def test_identity(self):
        ref = toks("how are you <st> i am good")
        a = align(ref, ref, AlignmentCosts.from_k("1.1"))
        assert a.cost_milli == 0
        assert a.counts == ErrorCounts(0, 0, 0, 1)

    def test_offset_within_tolerance(self):
        # turn marker shifted by one word; k=1.1 prefers the word detour
        ref = toks("a b <st> c")
        hyp = toks("a <st> b c")
        a = align(ref, hyp, AlignmentCosts.from_k("1.1"))
        oracle = brute_force_align(ref, hyp, AlignmentCosts.from_k("1.1"))
        assert a.cost_milli == oracle.cost_milli == 2000
        assert a.counts == ErrorCounts(word_errors=2, st_insertions=0, st_deletions=0, st_correct=1)
        assert a.counts in oracle.optimal_counts

    def test_offset_tie_prefers_turn_correct(self):
        ref = toks("a b <st> c")
        hyp = toks("a <st> b c")
        costs = AlignmentCosts.from_k("1.0")
        oracle = brute_force_align(ref, hyp, costs)
        assert oracle.cost_milli == 2000
        assert ErrorCounts(2, 0, 0, 1) in oracle.optimal_counts
        assert ErrorCounts(0, 1, 1, 0) in oracle.optimal_counts
        a = align(ref, hyp, costs)
        assert a.cost_milli == 2000
        assert a.counts == ErrorCounts(word_errors=2, st_insertions=0, st_deletions=0, st_correct=1)

    def test_word_turn_substitution_forbidden(self):
        a = align(toks("a"), toks("<st>"), AlignmentCosts.from_k("1.1"))
        assert a.cost_milli == 2100  # delete "a" + insert marker
        assert a.counts == ErrorCounts(word_errors=1, st_insertions=1, st_deletions=0, st_correct=0)

    def test_forced_turn_deletion(self):
        a = align(toks("a <st>"), toks("a"), AlignmentCosts.from_k("1.1"))
        assert a.cost_milli == 1100
        assert a.counts.st_deletions == 1
        assert a.counts.word_errors == 0

    def test_empty_vs_empty(self):
        a = align((), ())
        assert a.cost_milli == 0
        assert a.ops == ()
        assert a.counts == ErrorCounts()


class TestBruteForce:
    def test_identity_pair(self):
        r = brute_force_align(toks("a b"), toks("a b"))
        assert r.cost_milli == 0
        assert r.optimal_counts == frozenset({ErrorCounts(0, 0, 0, 0)})

    def test_tie_set_at_k_one(self):
        r = brute_force_align(toks("a b <st> c"), toks("a <st> b c"), AlignmentCosts.from_k("1.0"))
        assert r.cost_milli == 2000
        triples = {(c.word_errors, c.st_insertions, c.st_deletions) for c in r.optimal_counts}
        assert (2, 0, 0) in triples
        assert (0, 1, 1) in triples

    def test_forced_insertion(self):
        r = brute_force_align((), toks("<st>"), AlignmentCosts.from_k("2.0"))
        assert r.cost_milli == 2000
        assert r.optimal_counts == frozenset({ErrorCounts(0, 1, 0, 0)})

    def test_rejects_long_sequences(self):
        long = tuple(word("a") for _ in range(9))
        with pytest.raises(ValueError):
            brute_force_align(long, toks("a"))


class TestOracleEquivalence:
    @given(ref=seq_st, hyp=seq_st, k=st.sampled_from(K_VALUES))
    def test_dp_matches_brute_force(self, ref, hyp, k):
        costs = AlignmentCosts.from_k(k)
        got = align(ref, hyp, costs)
        oracle = brute_force_align(ref, hyp, costs)
        assert got.cost_milli == oracle.cost_milli
        assert got.counts in oracle.optimal_counts

    @given(ref=st.lists(st.sampled_from("abc"), max_size=6),
           hyp=st.lists(st.sampled_from("abc"), max_size=6),
           k=st.sampled_from(K_VALUES))
    def test_levenshtein_reduction_without_turn_marker(self, ref, hyp, k):
        ref_t = tuple(word(w) for w in ref)
        hyp_t = tuple(word(w) for w in hyp)
        a = align(ref_t, hyp_t, AlignmentCosts.from_k(k))
        assert a.counts.word_errors == levenshtein(ref, hyp)
        assert a.counts.st_insertions == a.counts.st_deletions == a.counts.st_correct == 0


class TestOffsetTolerance:
    @pytest.mark.parametrize("k", ["1.0", "1.1", "2.0", "2.5", "3.0"])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("direction", ["early", "late"])
    def test_floor_k_token_window(self, k, m, direction):
        words = [f"w{i}" for i in range(8)]
        ref = [word(w) for w in words]
        ref.insert(4, SPEAKER_TURN)
        hyp = [word(w) for w in words]
        hyp.insert(4 - m if direction == "early" else 4 + m, SPEAKER_TURN)
        a = align(tuple(ref), tuple(hyp), AlignmentCosts.from_k(k))
        floor_k = int(float(k))
        if m <= floor_k:
            assert a.counts == ErrorCounts(word_errors=2 * m, st_insertions=0,
                                           st_deletions=0, st_correct=1)
        else:
            assert a.counts == ErrorCounts(word_errors=0, st_insertions=1,
                                           st_deletions=1, st_correct=0)


class TestTraceInvariants:
    @given(ref=seq_st, hyp=seq_st, k=st.sampled_from(K_VALUES))
    def test_trace_consistency(self, ref, hyp, k):
        costs = AlignmentCosts.from_k(k)
        a = align(ref, hyp, costs)
        assert counts_from_ops(a.ops, ref, hyp) == a.counts
        assert cost_from_ops(a.ops, ref, hyp, costs) == a.cost_milli

    @given(ref=seq_st, hyp=seq_st)
    def test_trace_consumes_both_sequences(self, ref, hyp):
        a = align(ref, hyp)
        ref_seen = [op.ref_index for op in a.ops if op.ref_index is not None]
        hyp_seen = [op.hyp_index for op in a.ops if op.hyp_index is not None]
        assert ref_seen == list(range(len(ref)))
        assert hyp_seen == list(range(len(hyp)))

    @given(ref=seq_st, hyp=seq_st)
    def test_zero_cost_iff_equal(self, ref, hyp):
        a = align(ref, hyp)
        assert (a.cost_milli == 0) == (ref == hyp)

    @given(ref=seq_st, hyp=seq_st)
    def test_count_totals_match_turn_totals(self, ref, hyp):
        c = align(ref, hyp).counts
        assert c.st_correct + c.st_deletions == sum(1 for t in ref if t.is_turn)
        assert c.st_correct + c.st_insertions == sum(1 for t in hyp if t.is_turn)

    @given(ref=seq_st, hyp=seq_st)
    def test_substitutions_never_touch_turn_marker(self, ref, hyp):
        a = align(ref, hyp)
        for op in a.ops:
            if op.kind is OpKind.WORD_SUB:
                assert not ref[op.ref_index].is_turn
                assert not hyp[op.hyp_index].is_turn
                assert ref[op.ref_index] != hyp[op.hyp_index]


def test_randomized_oracle_sweep():
    # denser seeded sweep than the hypothesis profile default
    rng = random.Random(1337)
    pool = [word("a"), word("b"), SPEAKER_TURN]
    for _ in range(500):
        ref = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        hyp = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        costs = AlignmentCosts.from_k(rng.choice(K_VALUES))
        got = align(ref, hyp, costs)
        oracle = brute_force_align(ref, hyp, costs)
        assert got.cost_milli == oracle.cost_milli
        assert got.counts in oracle.optimal_counts


def random_pair(rng, length, turn_share, vocab):
    """A seeded reference and a hypothesis made from it by random edits."""
    def tok():
        return SPEAKER_TURN if rng.random() < turn_share else word(rng.choice(vocab))
    ref = [tok() for _ in range(length)]
    hyp = list(ref)
    for _ in range(rng.randint(0, max(1, length // 3))):
        at = rng.randint(0, len(hyp))
        edit = rng.random()
        if edit < 0.3 and at < len(hyp):
            del hyp[at]
        elif edit < 0.6 or at == len(hyp):
            hyp.insert(at, tok())
        else:
            hyp[at] = tok()
    if rng.random() < 0.2:  # unrelated hypotheses of other lengths too
        hyp = [tok() for _ in range(rng.randint(0, 20))]
    return tuple(ref), tuple(hyp)


@pytest.mark.parametrize("k", ["1", "1.1", "1.5", "2", "2.5"])
def test_matches_table_dp_exactly(k):
    # 200 short pairs and 3 long ones per k; ops, cost and counts must all be equal
    rng = random.Random(f"table-dp-{k}")
    costs = AlignmentCosts.from_k(k)
    pairs = [random_pair(rng, rng.randint(0, 20), rng.uniform(0.0, 0.6), "abcd"[:rng.randint(1, 4)])
             for _ in range(200)]
    pairs += [random_pair(rng, length, 0.15, "abcdefgh") for length in (50, 160, 300)]
    for ref, hyp in pairs:
        got = align(ref, hyp, costs)
        want = table_align(ref, hyp, costs)
        assert (got.ops, got.cost_milli, got.counts) == (want.ops, want.cost_milli, want.counts)
