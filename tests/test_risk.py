import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

from _alignment_oracle import brute_force_align
from scdkit import alignment, cli
from scdkit.alignment import AlignmentCosts
from scdkit.dataio import parse_nbest, read_report, serialize_nbest
from scdkit.risk import (
    NBest,
    RiskConfig,
    RiskKind,
    ScoredHypothesis,
    batch_loss,
    expected_risk,
    hypothesis_errors,
    per_hyp_risk,
    pooled_loss,
    risk_gradient,
)
from scdkit.tokens import SPEAKER_TURN, word
from scdkit.trainer import TrainConfig, enumerate_candidates, st_vs_word_space, train

FIXTURES = Path(__file__).parent / "fixtures"


def toks(text):
    return tuple(SPEAKER_TURN if t == "<st>" else word(t) for t in text.split())


# Q=5 fixture: one word substitution plus one spurious turn marker.
RISK_REF = toks("u v w <st> x")
RISK_HYP = toks("u v y <st> x <st>")


def test_eq3_fixture_counts_verified_by_oracle():
    oracle = brute_force_align(RISK_REF, RISK_HYP, AlignmentCosts.from_k("1.1"))
    triples = {(c.word_errors, c.st_insertions, c.st_deletions) for c in oracle.optimal_counts}
    assert triples == {(1, 1, 0)}


class TestPerHypRisk:
    def test_identity_is_zero(self):
        assert per_hyp_risk(RISK_REF, RISK_REF) == 0.0

    def test_weighted_fixture(self):
        # (1*1 + 10*1 + 10*0) / 5
        assert per_hyp_risk(RISK_REF, RISK_HYP) == 2.2

    def test_word_error_only_fixture(self):
        cfg = RiskConfig(risk_kind=RiskKind.WORD_ERROR_ONLY)
        assert per_hyp_risk(RISK_REF, RISK_HYP, cfg) == 2.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            per_hyp_risk((), toks("a"))

    def test_scale_consistency(self):
        base = per_hyp_risk(RISK_REF, RISK_HYP, RiskConfig(alpha=1, beta=10, gamma=10))
        doubled = per_hyp_risk(RISK_REF, RISK_HYP, RiskConfig(alpha=2, beta=20, gamma=20))
        assert doubled == pytest.approx(2 * base, rel=0, abs=1e-15)

    def test_beta_monotonicity(self):
        fa_hyp = toks("u v w <st> x <st>")  # FA=1, no other errors
        clean_hyp = toks("u v w <st> x")
        lo = RiskConfig(beta=5)
        hi = RiskConfig(beta=6)
        assert per_hyp_risk(RISK_REF, fa_hyp, hi) > per_hyp_risk(RISK_REF, fa_hyp, lo)
        assert per_hyp_risk(RISK_REF, clean_hyp, hi) == per_hyp_risk(RISK_REF, clean_hyp, lo)

    def test_overflowing_risk_rejected(self):
        # One word error plus one missed turn, each weighted 1e308: the sum is inf.
        huge = RiskConfig(alpha=1e308, gamma=1e308)
        with pytest.raises(ValueError, match=r"risk is not finite \(inf\)"):
            per_hyp_risk(toks("a b <st>"), toks("c d"), huge)
        # The rows under it stay raw, and the same weights on a clean pair are finite.
        assert hypothesis_errors(toks("a b <st>"), (toks("c d"),), huge)[0][0] == math.inf
        assert per_hyp_risk(toks("a b <st>"), toks("a b <st>"), huge) == 0.0


def nbest_of(ref, hyps_with_scores, uid="utt"):
    return NBest(uid, ref, tuple(ScoredHypothesis(t, s) for t, s in hyps_with_scores))


class TestRecords:
    @pytest.mark.parametrize("bad", [True, False, "1", None, float("nan"), float("-inf"),
                                     10**400],
                             ids=["True", "False", "str", "None", "nan", "-inf", "10**400"])
    def test_log_score_must_be_a_finite_number(self, bad):
        message = f"log_score must be a finite number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScoredHypothesis(RISK_REF, bad)

    def test_log_score_is_stored_as_float(self):
        h = ScoredHypothesis(RISK_REF, -3)
        assert type(h.log_score) is float and h.log_score == -3.0

    @pytest.mark.parametrize("bad", ["", None, 7])
    def test_utterance_id_must_be_a_non_empty_string(self, bad):
        with pytest.raises(ValueError, match="^utterance_id must be a non-empty string$"):
            NBest(bad, RISK_REF, (ScoredHypothesis(RISK_REF, 0.0),))

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_int_too_large_for_a_float_weight_is_a_value_error(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
            RiskConfig(**{name: 10**400})

    @pytest.mark.parametrize("name", ["nll_weight", "nll"])
    def test_int_too_large_for_a_float_nll_is_a_value_error(self, name):
        args = {"nll_weight": 0.03, "nll": 2.0, name: 10**400}
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
            pooled_loss([], **args)


class TestExpectedRisk:
    def test_single_correct_hypothesis(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, -3.7)])
        assert expected_risk(nb).expected_risk == 0.0

    def test_equal_scores_average(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, -1.0), (RISK_HYP, -1.0)])
        b = expected_risk(nb)
        assert b.per_hyp_prob == (0.5, 0.5)
        assert b.expected_risk == pytest.approx(1.1, abs=1e-12)

    def test_unnormalized_probabilities(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, math.log(0.9)), (RISK_HYP, math.log(0.1))])
        b = expected_risk(nb, RiskConfig(normalize_scores=False))
        assert b.expected_risk == pytest.approx(0.22, abs=1e-12)

    def test_unnormalized_rejects_score_above_one(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, 0.5)], uid="u3")
        with pytest.raises(ValueError, match=r"^log_score 0\.5 of 'u3' exceeds 0"):
            expected_risk(nb, RiskConfig(normalize_scores=False))

    def test_unnormalized_rejects_mass_above_one(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, 0.0), (RISK_HYP, 0.0)], uid="u7")
        with pytest.raises(ValueError, match=r"probabilities of 'u7' sum to 2\.0, above 1"):
            expected_risk(nb, RiskConfig(normalize_scores=False))

    def test_unnormalized_mass_tolerance_is_1e_9(self):
        config = RiskConfig(normalize_scores=False)
        within = nbest_of(RISK_REF, [(RISK_REF, math.log(0.5)), (RISK_HYP, math.log(0.5 + 5e-10))])
        assert sum(expected_risk(within, config).per_hyp_prob) > 1
        beyond = nbest_of(RISK_REF, [(RISK_REF, math.log(0.5)), (RISK_HYP, math.log(0.5 + 2e-9))])
        with pytest.raises(ValueError, match="above 1"):
            expected_risk(beyond, config)

    def test_probs_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(20):
            hyps = [(RISK_REF, rng.uniform(-5, 5)) for _ in range(rng.randint(1, 8))]
            b = expected_risk(nbest_of(RISK_REF, hyps))
            assert abs(sum(b.per_hyp_prob) - 1.0) <= 1e-12

    def test_shift_invariance(self):
        hyps = [(RISK_REF, -0.3), (RISK_HYP, -1.9), (toks("u v w x"), -0.8)]
        b0 = expected_risk(nbest_of(RISK_REF, hyps))
        shifted = [(t, s + 11.25) for t, s in hyps]
        b1 = expected_risk(nbest_of(RISK_REF, shifted))
        assert b1.expected_risk == pytest.approx(b0.expected_risk, rel=1e-12)

    def test_expected_diagnostics(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, 0.0), (RISK_HYP, 0.0)])
        b = expected_risk(nb)
        assert b.expected_fa == pytest.approx(0.5, abs=1e-12)
        assert b.expected_fr == 0.0
        assert b.expected_w == pytest.approx(0.5, abs=1e-12)

    def test_overflowing_risk_rejected_and_not_remembered(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, -1.0), (RISK_HYP, -1.0)], uid="big")
        huge = RiskConfig(alpha=1e308, beta=1e308)
        with pytest.raises(ValueError, match="expected risk of 'big' is not finite"):
            expected_risk(nb, huge)
        # nothing was remembered, so the gradient's own call raises too
        with pytest.raises(ValueError, match="'big' is not finite"):
            risk_gradient(nb, huge)

    def test_string_risk_kind_is_the_member(self):
        cfg = RiskConfig(risk_kind="scd_weighted")
        assert cfg.risk_kind is RiskKind.SCD_WEIGHTED
        assert per_hyp_risk(RISK_REF, RISK_HYP, cfg) == 2.2
        with pytest.raises(ValueError):
            RiskConfig(risk_kind="no_such_kind")

    def test_costs_must_be_alignment_costs(self):
        assert RiskConfig().costs is alignment.DEFAULT_COSTS
        with pytest.raises(TypeError, match="costs must be an AlignmentCosts, got str"):
            RiskConfig(costs="1.1")


class TestBatchLoss:
    def test_all_correct_batch(self):
        batch = [nbest_of(RISK_REF, [(RISK_REF, -0.5)], uid=f"u{i}") for i in range(3)]
        b = batch_loss(batch, nll_weight=0.03, nll=2.0)
        assert b.expected_risk == 0.0
        assert b.total == pytest.approx(0.06, abs=1e-12)

    def test_zero_weight(self):
        batch = [nbest_of(RISK_REF, [(RISK_REF, -1.0), (RISK_HYP, -1.0)])]
        b = batch_loss(batch, nll_weight=0.0, nll=17.0)
        assert b.total == b.expected_risk

    def test_composition_with_expected_risk(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, -1.0), (RISK_HYP, -1.0)])
        b = batch_loss([nb], nll_weight=0.03, nll=0.0)
        assert b.total == pytest.approx(1.1, abs=1e-12)

    def test_negative_nll_rejected(self):
        with pytest.raises(ValueError):
            batch_loss([], nll_weight=0.03, nll=-1.0)
        nb = nbest_of(RISK_REF, [(RISK_REF, -1.0)])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nll must be finite and >= 0"):
                batch_loss([nb], nll_weight=0.03, nll=bad)
            with pytest.raises(ValueError, match="nll_weight must be finite and >= 0"):
                batch_loss([nb], nll_weight=bad, nll=0.0)

    def test_overflowing_total_rejected(self):
        nb = nbest_of(RISK_REF, [(RISK_HYP, -1.0)])
        with pytest.raises(ValueError, match="batch loss is not finite"):
            batch_loss([nb], nll_weight=1e308, nll=2.0)
        big = expected_risk(nb, RiskConfig(alpha=1e307, beta=1e307))
        with pytest.raises(ValueError, match="batch loss is not finite"):
            pooled_loss([big] * 100, nll_weight=0.0, nll=0.0)


def random_nbest(rng, max_hyps=8):
    pool = [word("a"), word("b"), SPEAKER_TURN]
    ref = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
    hyps = []
    for _ in range(rng.randint(1, max_hyps)):
        t = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        hyps.append(ScoredHypothesis(t, rng.gauss(0.0, 2.0)))
    return NBest("rand", ref, tuple(hyps))


def fd_gradient(nbest, config, h=1e-6):
    """Central finite differences of expected_risk w.r.t. each log score."""
    grads = []
    for j in range(len(nbest.hypotheses)):
        def shifted(delta):
            hyps = list(nbest.hypotheses)
            hyps[j] = ScoredHypothesis(hyps[j].tokens, hyps[j].log_score + delta)
            return NBest(nbest.utterance_id, nbest.reference, tuple(hyps))

        hi = expected_risk(shifted(+h), config).expected_risk
        lo = expected_risk(shifted(-h), config).expected_risk
        grads.append((hi - lo) / (2 * h))
    return grads


class TestGradient:
    def test_constant_risks_zero_gradient(self):
        nb = nbest_of(RISK_REF, [(RISK_HYP, -0.1), (RISK_HYP, -2.0)])
        g = risk_gradient(nb)
        assert all(x == pytest.approx(0.0, abs=1e-15) for x in g)

    def test_two_hypothesis_example(self):
        one_err = toks("u v z <st> x")  # single word substitution: risk 1 under these weights
        cfg = RiskConfig(alpha=5.0, beta=5.0, gamma=5.0)
        assert per_hyp_risk(RISK_REF, one_err, cfg) == 1.0
        nb = nbest_of(RISK_REF, [(RISK_REF, 0.0), (one_err, 0.0)])
        g = risk_gradient(nb, cfg)
        assert g[0] == pytest.approx(-0.25, abs=1e-12)
        assert g[1] == pytest.approx(+0.25, abs=1e-12)

    def test_rejected_without_normalization(self):
        nb = nbest_of(RISK_REF, [(RISK_REF, -0.5)])
        with pytest.raises(ValueError):
            risk_gradient(nb, RiskConfig(normalize_scores=False))

    def test_matches_finite_differences(self):
        rng = random.Random(12345)
        cfg = RiskConfig()
        for _ in range(100):
            nb = random_nbest(rng)
            g = risk_gradient(nb, cfg)
            fd = fd_gradient(nb, cfg)
            assert len(g) == len(nb.hypotheses)
            scale = max(1.0, max(abs(x) for x in g), max(abs(x) for x in fd))
            err = max(abs(a - b) for a, b in zip(g, fd)) / scale
            assert err <= 1e-6
            assert abs(sum(g)) <= 1e-12

    def test_mean_subtracted_risk_same_gradient(self):
        # feeding centered risks r_j - E[r] through the gradient formula
        # reproduces the raw-risk gradient (variance-reduction equivalence)
        rng = random.Random(99)
        for _ in range(25):
            nb = random_nbest(rng)
            b = expected_risk(nb)
            g = risk_gradient(nb)
            centered = [r - b.expected_risk for r in b.per_hyp_risk]
            centered_mean = sum(p * r for p, r in zip(b.per_hyp_prob, centered))
            g_centered = [p * (r - centered_mean) for p, r in zip(b.per_hyp_prob, centered)]
            assert g_centered == pytest.approx(g, abs=1e-12)


@pytest.fixture
def align_calls(monkeypatch):
    """Hypotheses passed to ``align_counts`` or to the batched DP's entry
    ``_counts_batch`` (which ``align_counts_batch`` calls) by any scdkit
    module, in call order."""
    calls = []
    single, batch = alignment.align_counts, alignment._counts_batch

    def counted_single(reference, hypothesis, *args, **kwargs):
        calls.append(tuple(hypothesis))
        return single(reference, hypothesis, *args, **kwargs)

    def counted_batch(reference, hypotheses, *args, **kwargs):
        hypotheses = [tuple(h) for h in hypotheses]
        calls.extend(hypotheses)
        return batch(reference, hypotheses, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("scdkit."):
            for attr, original, counted in (("align_counts", single, counted_single),
                                            ("_counts_batch", batch, counted_batch)):
                if vars(mod).get(attr) is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestAlignOncePerHypothesis:
    def test_cli_risk(self, align_calls, capsys):
        path = FIXTURES / "nbest_small.jsonl"
        hyps = [h.tokens for nb in parse_nbest(path.read_text()) for h in nb.hypotheses]
        assert cli.main(["risk", "--nbest", str(path), "--format", "machine"]) == 0
        assert align_calls == hyps
        assert len(json.loads(capsys.readouterr().out)["batch"]["per_hyp_risk"]) == len(hyps)

    def test_loss_then_gradient(self, align_calls):
        records = parse_nbest((FIXTURES / "nbest_small.jsonl").read_text())
        hyps = [h.tokens for nb in records for h in nb.hypotheses]
        for nb in records:
            loss = expected_risk(nb)
            grad = risk_gradient(nb)
            assert len(grad) == len(loss.per_hyp_risk) == len(nb.hypotheses)
        assert align_calls == hyps
        assert len(hyps) == 20

    def test_loss_then_gradient_builds_no_path(self, align_calls, monkeypatch):
        ops = []
        post_init = alignment.EditOp.__post_init__

        def counted(op):
            ops.append(op)
            post_init(op)

        monkeypatch.setattr(alignment.EditOp, "__post_init__", counted)
        records = parse_nbest((FIXTURES / "nbest_small.jsonl").read_text())
        for nb in records:
            expected_risk(nb)
            risk_gradient(nb)
        assert len(align_calls) == 20
        assert ops == []
        alignment.align(RISK_REF, RISK_HYP)  # the counter does see a path being built
        assert ops

    def test_config_change_between_loss_and_gradient(self):
        text = (FIXTURES / "nbest_small.jsonl").read_text()
        cfg = RiskConfig()
        changed = RiskConfig(beta=3.5)
        got, want, unchanged = [], [], []
        for nb, twin in zip(parse_nbest(text), parse_nbest(text)):
            assert twin == nb and twin is not nb
            expected_risk(nb, cfg)
            got.append(risk_gradient(nb, changed))
            want.append(risk_gradient(twin, changed))
            unchanged.append(risk_gradient(twin, cfg))
        assert got == want
        assert got != unchanged

    @pytest.mark.parametrize("space", [
        st_vs_word_space(),
        enumerate_candidates(toks("a <st> b c"), 1, ["a", "b"], seed=3),
    ], ids=["st-vs-word", "enumerated"])
    def test_train(self, align_calls, space):
        train(space, TrainConfig(steps=3, nbest_n=2))
        assert align_calls == list(space.candidates)


def random_scored_nbest(rng, uid, normalize):
    pool = [word("a"), word("b"), word("c"), SPEAKER_TURN]
    ref = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
    hyps = []
    for _ in range(rng.randint(1, 6)):
        tokens = tuple(rng.choice(pool) for _ in range(rng.randint(0, 9)))
        hyps.append((tokens, rng.gauss(0.0, 3.0) if normalize else rng.uniform(0.01, 1.0)))
    if not normalize:
        # log probabilities of a sub-distribution: a total mass of at most 1
        scale = rng.uniform(0.01, 1.0) / sum(p for _, p in hyps)
        hyps = [(tokens, math.log(p * scale)) for tokens, p in hyps]
    return NBest(uid, ref, tuple(ScoredHypothesis(tokens, s) for tokens, s in hyps))


@pytest.mark.parametrize("kind", list(RiskKind), ids=lambda k: k.value)
@pytest.mark.parametrize("normalize", [True, False], ids=["softmax", "log-probs"])
@pytest.mark.parametrize("nbest_n", [None, 1, 3], ids=["all", "top1", "top3"])
def test_cli_pooled_batch_equals_batch_loss(tmp_path, capsys, kind, normalize, nbest_n):
    """The batch `scd risk` pools from its per-utterance reports is `batch_loss`."""
    rng = random.Random(f"{kind.value}-{normalize}-{nbest_n}")
    path = tmp_path / "utts.jsonl"
    path.write_text(serialize_nbest(
        [random_scored_nbest(rng, f"u{i}", normalize) for i in range(12)]))
    argv = ["risk", "--nbest", str(path), "--format", "machine", "--risk-kind", kind.value,
            "--beta", "7.5", "--lambda", "0.25", "--nll", "1.75",
            "--nbest-n", "ALL" if nbest_n is None else str(nbest_n)]
    if not normalize:
        argv.append("--no-normalize")
    assert cli.main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["batch"]

    config = RiskConfig(beta=7.5, normalize_scores=normalize, risk_kind=kind)
    records = [cli._top_hypotheses(nb, nbest_n) for nb in parse_nbest(path.read_text())]
    assert read_report(json.dumps(printed)) == batch_loss(
        records, nll_weight=0.25, nll=1.75, config=config)
