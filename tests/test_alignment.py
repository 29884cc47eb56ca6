import random
import re
import sys
from decimal import Decimal

import numpy  # noqa: F401  (loaded, so _counts_batch takes its batched path)
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _alignment_oracle import (
    brute_force_align,
    cost_from_ops,
    counts_from_ops,
    k_to_milli,
    key_rows_oracle,
    table_align,
)
from scdkit.alignment import (
    AlignmentCosts,
    EditOp,
    ErrorCounts,
    OpKind,
    _batch_keys,
    _counts_batch,
    _key_rows,
    align,
    align_counts,
)
from scdkit.risk import RiskConfig, RiskKind, hypothesis_errors
from scdkit.tokens import SPEAKER_TURN, word
from scdkit.trainer import enumerate_candidates


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


def milli(k):
    return AlignmentCosts.from_k(k).st_cost_milli


class TestCostConversion:
    def test_exact_milli(self):
        assert milli("1.1") == 1100
        assert milli(1.1) == 1100
        assert milli(2) == 2000
        assert milli("2.525") == 2525

    def test_rejects_too_many_decimals(self):
        with pytest.raises(ValueError):
            milli("1.0001")

    def test_k_of_10_to_the_12_is_rejected_with_a_unitless_bound(self):
        # k is a cost, not seconds: the shared rule's message names no unit
        with pytest.raises(ValueError, match=r"^k must be finite, below 10\*\*12 in magnitude "):
            milli(10**12)

    def test_text_is_read_as_a_double_like_the_seconds_flags(self):
        # more digits than a double keeps: the text is read as the double 1.1
        assert milli("1.1000000000000000001") == 1100

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            milli("0.9")
        with pytest.raises(ValueError):
            AlignmentCosts(st_cost_milli=999)

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan", float("inf"), float("nan")])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            AlignmentCosts.from_k(k)

    @pytest.mark.parametrize("k", ["sNaN", Decimal("sNaN"), "abc", "", None, True, False, [1]],
                             ids=["sNaN", "Decimal-sNaN", "abc", "empty", "None", "True",
                                  "False", "list"])
    def test_rejects_what_is_not_a_number(self, k):
        # float() reads "sNaN" as no number, so it gets this message, not the finite one
        with pytest.raises(ValueError, match=r"^k is not a number: "):
            AlignmentCosts.from_k(k)

    @pytest.mark.parametrize("milli", [1500.5, 2000.0, True, "1100"])
    def test_rejects_non_int_milli(self, milli):
        with pytest.raises(ValueError, match="must be an int >= 1000 milli"):
            AlignmentCosts(st_cost_milli=milli)


class TestCostConversionOracle:
    """``from_k`` against the earlier ``Decimal`` converter, ``k_to_milli``."""

    K_TEXTS = [f"{m // 1000}.{m % 1000:03d}" for m in range(1000, 20001)]

    @pytest.mark.parametrize("form", [str, float, Decimal])
    def test_every_3_decimal_k_in_1_to_20(self, form):
        for text in self.K_TEXTS:
            k = form(text)
            assert milli(k) == k_to_milli(k), k

    def test_int_k(self):
        for k in range(1, 21):
            assert milli(k) == k_to_milli(k) == 1000 * k

    @pytest.mark.parametrize("k", [True, None, "abc", "sNaN", float("nan"), float("inf"),
                                   float("-inf"), "1.0001", "0.9", 10**12, 10**400],
                             ids=["True", "None", "abc", "sNaN", "nan", "inf", "-inf", "1.0001",
                                  "0.9", "10**12", "10**400"])
    def test_rejects(self, k):
        with pytest.raises(ValueError):
            AlignmentCosts.from_k(k)

    def test_largest_k_below_10_to_the_12(self):
        assert milli(10**12 - 1) == k_to_milli(10**12 - 1)
        assert milli("999999999999.999") == 999_999_999_999_999


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
        assert align_counts(ref, hyp, costs) in oracle.optimal_counts

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
    return tuple(ref), perturb(rng, ref, tok)


def perturb(rng, ref, tok):
    """A hypothesis made from ``ref`` by random edits, new tokens drawn from ``tok``."""
    hyp = list(ref)
    for _ in range(rng.randint(0, max(1, len(ref) // 3))):
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
    return tuple(hyp)


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


@pytest.mark.parametrize("k", ["1", "1.1", "1.5", "2", "2.5"])
def test_counts_match_table_dp_exactly(k):
    # the same seeded pairs as test_matches_table_dp_exactly
    rng = random.Random(f"table-dp-{k}")
    costs = AlignmentCosts.from_k(k)
    pairs = [random_pair(rng, rng.randint(0, 20), rng.uniform(0.0, 0.6), "abcd"[:rng.randint(1, 4)])
             for _ in range(200)]
    pairs += [random_pair(rng, length, 0.15, "abcdefgh") for length in (50, 160, 300)]
    for ref, hyp in pairs:
        assert align_counts(ref, hyp, costs) == table_align(ref, hyp, costs).counts


class TestEditOp:
    def test_kind_string_becomes_member(self):
        op = EditOp("delete", ref_index=0)
        assert op.kind is OpKind.DELETE
        assert op == EditOp(OpKind.DELETE, ref_index=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            EditOp("bogus", ref_index=0)

    @pytest.mark.parametrize("kind, ref_index, hyp_index", [
        (OpKind.MATCH, 0, None), (OpKind.WORD_SUB, None, 1),
        (OpKind.INSERT, 0, 1), (OpKind.DELETE, 0, 1),
    ], ids=["match", "word_sub", "insert", "delete"])
    def test_rejects_bad_index_combination(self, kind, ref_index, hyp_index):
        shown = f"EditOp(kind={kind!r}, ref_index={ref_index!r}, hyp_index={hyp_index!r})"
        message = f"bad index combination for {kind}: {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EditOp(kind, ref_index, hyp_index)


# the turn-marker costs the batched DP is checked at, in milli-units
BATCH_COSTS = [1000, 1100, 1500, 2000, 3333]


def texts(seq):
    return [t.text for t in seq]


# the turn-marker costs the pure DP is checked at against the forced-match
# oracle; at 10**17 its keys run far past int64
ORACLE_COSTS = [1000, 1100, 1999, 10 ** 17]
WIDE_VOCAB = [f"w{i:03d}" for i in range(300)]


def assert_key_rows_equal_oracle(ref_text, hyp_text, st_cost):
    want = key_rows_oracle(ref_text, hyp_text, st_cost)
    rows, final = _key_rows(ref_text, hyp_text, st_cost, keep_rows=True)
    # the oracle's row 0 is the insert chain and its column 0 the delete chain
    assert [[q + want[0][j] + want[i][0] for j, q in enumerate(row)]
            for i, row in enumerate(rows)] == want
    assert final == divmod(want[-1][-1], len(ref_text) + len(hyp_text) + 1)
    assert _key_rows(ref_text, hyp_text, st_cost, keep_rows=False) == ([rows[-1]], final)


@pytest.mark.parametrize("st_cost", ORACLE_COSTS)
def test_key_rows_equal_oracle(st_cost):
    # 600 short pairs per cost, 2,400 in all: 0-20 tokens (either side may be
    # empty), turn shares up to 1 (all turns), vocabularies of 1, 2 and 8
    # words (heavy repeats) and of 300 words (reference words absent from the
    # hypothesis); then 50 and 160 tokens over 300 words
    rng = random.Random(f"key-rows-oracle-{st_cost}")
    for _ in range(600):
        vocab = rng.choice(["a", "ab", "abcdefgh", WIDE_VOCAB])
        ref, hyp = random_pair(rng, rng.randint(0, 20), rng.choice([0.0, 0.1, 0.4, 1.0]), vocab)
        assert_key_rows_equal_oracle(texts(ref), texts(hyp), st_cost)
    for length in (50, 160):
        ref, hyp = random_pair(rng, length, 0.08, WIDE_VOCAB)
        assert_key_rows_equal_oracle(texts(ref), texts(hyp), st_cost)


@pytest.mark.parametrize("ref_text", ["a x a y <st> x", "a x y"])
def test_match_steps_stay_out_of_the_shared_word_row(ref_text):
    # a reference that repeats "a", a word of the hypothesis, and one that
    # does not: rows of "a" read a copy of the word row with the match
    # patched in, and rows of "x" and "y", absent from the hypothesis, read
    # the shared row; a match step leaked into it would let "x" take the
    # hypothesis's "a" at a lower key than the oracle's
    ref, hyp = toks(ref_text), toks("b a <st>")
    for st_cost in ORACLE_COSTS:
        assert_key_rows_equal_oracle(texts(ref), texts(hyp), st_cost)
        costs = AlignmentCosts(st_cost_milli=st_cost)
        assert align(ref, hyp, costs) == table_align(ref, hyp, costs)


def random_nbest_list(rng, length, turn_share, vocab):
    """A seeded reference and 1-8 hypotheses edited from it, some of them empty,
    at least one not."""
    def tok():
        return SPEAKER_TURN if rng.random() < turn_share else word(rng.choice(vocab))
    ref = tuple(tok() for _ in range(length))
    hyps = [() if rng.random() < 0.15 else perturb(rng, ref, tok)
            for _ in range(rng.randint(1, 8))]
    if not any(hyps):
        hyps.append(ref)
    return ref, hyps


def assert_batch_equals_pure(ref, hyps, costs):
    st_cost = costs.st_cost_milli
    keys = _batch_keys(texts(ref), [texts(h) for h in hyps], st_cost)
    assert keys == [_key_rows(texts(ref), texts(h), st_cost, keep_rows=False)[1]
                    for h in hyps]
    assert _counts_batch(ref, hyps, st_cost) == [align_counts(ref, h, costs) for h in hyps]


@pytest.mark.parametrize("st_cost", BATCH_COSTS)
def test_batch_keys_equal_key_rows(st_cost):
    # 600 seeded lists per cost, 3,000 in all: empty hypotheses mixed with
    # non-empty ones, turn shares up to 0.9, vocabularies of 1 to 8 words
    rng = random.Random(f"batch-dp-{st_cost}")
    costs = AlignmentCosts(st_cost_milli=st_cost)
    for _ in range(600):
        turn_share = rng.choice([0.0, 0.1, 0.3, rng.uniform(0.5, 0.9)])
        ref, hyps = random_nbest_list(rng, rng.randint(1, 20), turn_share,
                                      "abcdefgh"[:rng.randint(1, 8)])
        assert_batch_equals_pure(ref, hyps, costs)


@pytest.mark.parametrize("st_cost", BATCH_COSTS)
def test_batch_keys_equal_key_rows_long(st_cost):
    rng = random.Random(f"batch-dp-long-{st_cost}")
    costs = AlignmentCosts(st_cost_milli=st_cost)
    for length in (50, 160):
        assert_batch_equals_pure(*random_nbest_list(rng, length, 0.15, "abcdefgh"), costs)


@pytest.mark.parametrize("st_cost", BATCH_COSTS)
def test_batch_keys_equal_key_rows_empty_sides(st_cost):
    # the lists the batch once handed to the pure DP: an empty reference,
    # hypotheses that are all empty, and no hypotheses at all
    rng = random.Random(f"batch-dp-empty-{st_cost}")
    costs = AlignmentCosts(st_cost_milli=st_cost)
    for _ in range(100):
        ref, hyps = random_nbest_list(rng, rng.randint(0, 12), rng.choice([0.0, 0.3, 1.0]), "abc")
        assert_batch_equals_pure((), hyps, costs)
        assert_batch_equals_pure(ref, [()] * len(hyps), costs)
        assert_batch_equals_pure(ref, [], costs)


def wide_nbest_list(rng, with_empty):
    """A reference of 3-60 tokens and 9-64 hypotheses of 0-60 tokens in random
    order, with a 60-token hypothesis just before an empty one (``with_empty``)
    and just before a one-token one.  The reference holds "all", a word every
    non-empty hypothesis holds (every hypothesis, without ``with_empty``),
    "none", a word no hypothesis holds, and "rep", a word some hypotheses
    hold several times."""
    def tok():
        return SPEAKER_TURN if rng.random() < 0.1 else word(rng.choice("abcdefgh"))

    def hyp(length):
        tokens = [tok() for _ in range(length)]
        for at in rng.sample(range(length), min(length, rng.choice([0, 0, 1, 3]))):
            tokens[at] = word("rep")
        tokens[rng.randrange(length)] = word("all")
        return tuple(tokens)

    ref = [tok() for _ in range(rng.randint(0, 57))]
    for w in ("all", "none", "rep"):
        ref.insert(rng.randint(0, len(ref)), word(w))
    lengths = [rng.randint(0 if with_empty else 1, 60) for _ in range(rng.randint(5, 60))]
    hyps = [hyp(length) if length else () for length in lengths]
    rng.shuffle(hyps)
    at = rng.randint(0, len(hyps))
    hyps[at:at] = [hyp(60), () if with_empty else hyp(1), hyp(60), hyp(1)]
    return tuple(ref), hyps


def assert_batch_keys_equal_key_rows(ref_text, hyp_texts, st_cost):
    assert _batch_keys(ref_text, hyp_texts, st_cost) == [
        _key_rows(ref_text, h, st_cost, keep_rows=False)[1] for h in hyp_texts]


@pytest.mark.parametrize("st_cost", BATCH_COSTS)
def test_batch_keys_equal_key_rows_wide(st_cost):
    # 30 lists per cost, half with empty hypotheses; a hypothesis's last column
    # sits just before the next one's column 0 in the batch's flat buffer, so
    # a long hypothesis before a short one shows any value carried across
    rng = random.Random(f"batch-dp-wide-{st_cost}")
    for i in range(30):
        ref, hyps = wide_nbest_list(rng, with_empty=i % 2 == 0)
        assert 9 <= len(hyps) <= 64 and max(map(len, hyps)) == 60
        assert_batch_keys_equal_key_rows(texts(ref), [texts(h) for h in hyps], st_cost)


@pytest.mark.parametrize("st_cost", BATCH_COSTS)
def test_batch_keys_equal_key_rows_on_an_enumerated_space(st_cost):
    # the trainer's one aligning call: a 256-candidate space within two edits
    ref = toks("a b <st> c d e f g")
    space = enumerate_candidates(ref, edit_budget=2, vocab=["a", "x", "y"], seed=3)
    assert len(space.candidates) == 256
    assert_batch_keys_equal_key_rows(texts(ref), [texts(h) for h in space.candidates], st_cost)


# (reference, hypotheses) run at the largest turn cost the batch accepts:
# unequal lengths give padding columns, and turn rows against word columns and
# word rows against turn columns take the forbidden-substitution step
GUARD_EDGE_LISTS = [
    ("a <st> b", ["<st> a b", "a", ""]),
    ("<st> <st> a <st> <st>", ["<st> a <st> <st> <st> b", "<st>", "a b c", "<st> <st>", ""]),
    ("<st> <st> <st>", ["<st>", "<st> <st> <st> <st> <st>", "a", "a <st> b <st> c <st>"]),
    ("a b <st> c d", ["<st> <st> <st> <st> <st> <st> <st> <st>", "d c <st> b a", "a"]),
    ("a", ["<st> <st> <st> <st> <st> <st> <st> <st> <st> <st> <st> <st>"]),
    # nine hypotheses of unequal lengths: each blocked column-0 cell follows a
    # last column that is padding, or a real token of the longest hypothesis
    ("a <st> b c <st> a", ["a b", "", "<st> a <st> b c <st> a d", "c", "<st> <st>",
                           "a a a a a a a a a", "b <st> c", "", "d <st> a b"]),
]


def test_largest_cost_inside_the_key_bound_is_exact():
    # numpy int64 wraps on overflow without a warning, so only keys equal to
    # _key_rows's show that every value the batch forms fits
    for ref_text, hyp_texts in GUARD_EDGE_LISTS:
        ref, hyps = toks(ref_text), [toks(h) for h in hyp_texts]
        top = len(ref) + max(map(len, hyps))  # n + M; the scale is n + M + 1
        st_cost = ((2 ** 62 - 1) // top - 1) // (top + 1)
        assert top * (st_cost * (top + 1) + 1) < 2 ** 62 <= top * ((st_cost + 1) * (top + 1) + 1)
        assert _batch_keys(texts(ref), [texts(h) for h in hyps], st_cost + 1) is None
        assert _batch_keys(texts(ref), [texts(h) for h in hyps], st_cost) is not None
        assert_batch_equals_pure(ref, hyps, AlignmentCosts(st_cost_milli=st_cost))


class TestBatchFallback:
    """Where the int64 batch could not be exact, the pure DP runs for each
    hypothesis; an empty reference or all-empty hypotheses stay on the batch."""

    def test_huge_turn_cost(self, key_rows_calls):
        ref, hyps = toks("a <st> b"), [toks("<st> a b"), toks("a")]
        costs = AlignmentCosts(st_cost_milli=10 ** 18)
        assert _batch_keys(texts(ref), [texts(h) for h in hyps], costs.st_cost_milli) is None
        got = _counts_batch(ref, hyps, costs.st_cost_milli)
        assert key_rows_calls == [len(hyps)]
        assert got == [align_counts(ref, h, costs) for h in hyps]

    def test_empty_reference_of_word_error_only(self, key_rows_calls):
        config = RiskConfig(risk_kind=RiskKind.WORD_ERROR_ONLY)
        hyps = [toks("a <st> b"), (), toks("c")]
        got = hypothesis_errors((), hyps, config)
        assert key_rows_calls == [0]
        want = [align_counts((), h, config.costs) for h in hyps]
        assert got == [(float(c.total_errors), c) for c in want]
        assert [c.word_errors for _, c in got] == [2, 0, 1]

    def test_all_hypotheses_empty(self, key_rows_calls):
        got = hypothesis_errors(toks("a <st> b"), [(), ()], RiskConfig())
        assert key_rows_calls == [0]
        # two words and the turn deleted: (1 * 2 + 10 * 1) / 3
        assert got == [(4.0, ErrorCounts(word_errors=2, st_deletions=1))] * 2


class TestBatchDispatch:
    def test_numpy_loaded_runs_no_pure_dp(self, key_rows_calls):
        ref = toks("a <st> b c")
        got = hypothesis_errors(ref, [toks("a b <st> c"), toks("a <st> d")], RiskConfig())
        assert key_rows_calls == [0]
        assert [c for _, c in got] == [align_counts(ref, toks("a b <st> c")),
                                      align_counts(ref, toks("a <st> d"))]

    def test_numpy_not_loaded_runs_the_pure_dp(self, key_rows_calls, monkeypatch):
        monkeypatch.delitem(sys.modules, "numpy")
        ref = toks("a <st> b c")
        got = hypothesis_errors(ref, [toks("a b <st> c"), toks("a <st> d")], RiskConfig())
        assert key_rows_calls == [2]
        assert [c for _, c in got] == [align_counts(ref, toks("a b <st> c")),
                                      align_counts(ref, toks("a <st> d"))]
