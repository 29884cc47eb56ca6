"""Expected-risk loss over N-best hypotheses and its gradient.

The per-hypothesis risk weights word errors and turn-marker false
accepts/rejects from the constrained alignment, normalized by reference
length.  The batch loss adds a caller-supplied negative-log-probability
regularizer; no sequence model lives in this package.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .alignment import DEFAULT_COSTS, AlignmentCosts, ErrorCounts, _counts_batch
from .dataio import LossBreakdown, RiskKind
from .metrics import _Record, _is_number
from .tokens import Token, TokenSeq, as_token_seq

# exp(log_score) above this is not a probability, nor a sum of them above _MAX_PROB
_MAX_LOG_PROB = math.log1p(1e-9)
_MAX_PROB = 1 + 1e-9


def _finite(v: float) -> bool:
    """``math.isfinite`` of a number (``metrics._is_number``); False for any
    other type and for an int too large for a float, on which
    ``math.isfinite`` raises OverflowError."""
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:
        return False


def _check_utterance_id(value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError("utterance_id must be a non-empty string")


class ScoredHypothesis(_Record):
    tokens: TokenSeq
    log_score: float

    # Its own constructor in place of the record base's generic one, which
    # costs more per call: a reader builds one of these per hypothesis.
    def __init__(self, tokens: Sequence[Token], log_score: float) -> None:
        object.__setattr__(self, "tokens", as_token_seq(tokens))
        if not _finite(log_score):
            raise ValueError(f"log_score must be a finite number, got {log_score!r}")
        object.__setattr__(self, "log_score", float(log_score))


class NBest(_Record):
    utterance_id: str
    reference: TokenSeq
    hypotheses: tuple[ScoredHypothesis, ...]

    def __post_init__(self) -> None:
        _check_utterance_id(self.utterance_id)
        object.__setattr__(self, "reference", as_token_seq(self.reference))
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.reference:
            raise ValueError(f"reference of {self.utterance_id!r} is empty")
        if not self.hypotheses:
            raise ValueError(f"{self.utterance_id!r} has no hypotheses")


class RiskConfig(_Record):
    """Weights and alignment settings for the token-level risk."""

    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 10.0
    costs: AlignmentCosts = DEFAULT_COSTS
    normalize_scores: bool = True
    risk_kind: RiskKind = RiskKind.SCD_WEIGHTED

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (_finite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not isinstance(self.costs, AlignmentCosts):
            raise TypeError(f"costs must be an AlignmentCosts, got {type(self.costs).__name__}")
        # a plain string compares equal to its member but fails the `is` test
        object.__setattr__(self, "risk_kind", RiskKind(self.risk_kind))


def _risk_rows(reference: TokenSeq, hypotheses: Sequence[TokenSeq],
               config: RiskConfig) -> list[tuple[float, ErrorCounts]]:
    """``hypothesis_errors`` of token tuples its caller has already checked.

    The one place in the risk path that aligns: the whole list goes to
    ``alignment._counts_batch`` in one call, and no path is built.
    """
    weighted = config.risk_kind is RiskKind.SCD_WEIGHTED
    rows = []
    for c in _counts_batch(reference, hypotheses, config.costs.st_cost_milli):
        risk = ((config.alpha * c.word_errors + config.beta * c.st_insertions
                 + config.gamma * c.st_deletions) / len(reference)
                if weighted else float(c.total_errors))
        rows.append((risk, c))
    return rows


def hypothesis_errors(reference: Sequence[Token], hypotheses: Iterable[Sequence[Token]],
                      config: RiskConfig) -> list[tuple[float, ErrorCounts]]:
    """(risk, error counts) of each hypothesis, aligned once against ``reference``.

    The risk is (alpha*W + beta*FA + gamma*FR) / |reference| for the
    turn-weighted kind and raw W + FA + FR for the word-error-only kind.
    """
    ref = as_token_seq(reference)
    if config.risk_kind is RiskKind.SCD_WEIGHTED and not ref:
        raise ValueError("reference must contain at least one token")
    return _risk_rows(ref, [as_token_seq(h) for h in hypotheses], config)


def per_hyp_risk(reference: Sequence[Token], hypothesis: Sequence[Token],
                 config: RiskConfig = RiskConfig()) -> float:
    """Risk of a single hypothesis against its reference (see ``hypothesis_errors``).

    Raises ``ValueError`` when the risk overflows to a non-finite value.
    """
    ref = as_token_seq(reference)
    if not ref:
        raise ValueError("reference must contain at least one token")
    risk = _risk_rows(ref, [as_token_seq(hypothesis)], config)[0][0]
    if not math.isfinite(risk):
        raise ValueError(f"risk is not finite ({risk}): the risk weights are too large")
    return risk


def hypothesis_probs(nbest: NBest, normalize: bool) -> list[float]:
    """Per-hypothesis probabilities from the log scores of ``nbest``.

    Softmax over the list when ``normalize``; otherwise the scores must
    already be log probabilities, which are exponentiated and must sum to
    at most 1 (within 1e-9).
    """
    scores = [h.log_score for h in nbest.hypotheses]
    if normalize:
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        z = sum(exps)
        return [e / z for e in exps]
    for s in scores:
        if s > _MAX_LOG_PROB:
            raise ValueError(
                f"log_score {s} of {nbest.utterance_id!r} exceeds 0: scores are not "
                "probabilities (enable score normalization or fix the input)")
    probs = [math.exp(s) for s in scores]
    if sum(probs) > _MAX_PROB:
        raise ValueError(
            f"probabilities of {nbest.utterance_id!r} sum to {sum(probs)}, above 1: scores are "
            "not log probabilities (enable score normalization or fix the input)")
    return probs


# (nbest, config, breakdown) of the last expected_risk call that returned.
# risk_gradient calls expected_risk, so loss then gradient on the same N-best
# aligns each hypothesis once.  Both keys are frozen, so the same NBest object
# means the same values, and the strong references keep its id from reuse.
_last: tuple[NBest, RiskConfig, LossBreakdown] | None = None


def expected_risk(nbest: NBest, config: RiskConfig = RiskConfig()) -> LossBreakdown:
    """Probability-weighted risk across the hypotheses of one utterance.

    Raises ``ValueError`` when the expected risk overflows to a non-finite value.
    """
    global _last
    last = _last  # one read: a concurrent store can cost a miss, never a mismatch
    if last is not None and last[0] is nbest and last[1] == config:
        return last[2]
    probs = hypothesis_probs(nbest, config.normalize_scores)
    # NBest checked its tokens when it was built
    rows = _risk_rows(nbest.reference, [h.tokens for h in nbest.hypotheses], config)
    exp_risk = exp_fa = exp_fr = exp_w = 0.0
    for p, (r, counts) in zip(probs, rows):
        exp_risk += p * r
        exp_fa += p * counts.st_insertions
        exp_fr += p * counts.st_deletions
        exp_w += p * counts.word_errors
    if not math.isfinite(exp_risk):
        raise ValueError(f"expected risk of {nbest.utterance_id!r} is not finite "
                         f"({exp_risk}): the risk weights are too large")
    # by position, once per utterance: per_hyp_risk, per_hyp_prob,
    # expected_risk, nll_term, total, expected_fa, expected_fr, expected_w
    breakdown = LossBreakdown(tuple(r for r, _ in rows), tuple(probs), exp_risk, 0.0, exp_risk,
                              exp_fa, exp_fr, exp_w)
    _last = (nbest, config, breakdown)
    return breakdown


def pooled_loss(breakdowns: Iterable[LossBreakdown], nll_weight: float,
                nll: float) -> LossBreakdown:
    """Sum per-utterance breakdowns, in order, plus the weighted NLL regularizer.

    ``nll`` is the externally supplied negative log probability of the
    ground truth.  Both arguments are checked before ``breakdowns`` is consumed,
    and a total that overflows to a non-finite value raises ``ValueError``.
    """
    for name, v in (("nll_weight", nll_weight), ("nll", nll)):
        if not (_finite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    risks: list[float] = []
    probs: list[float] = []
    risk_sum = exp_fa = exp_fr = exp_w = 0.0
    for b in breakdowns:
        risks.extend(b.per_hyp_risk)
        probs.extend(b.per_hyp_prob)
        risk_sum += b.expected_risk
        exp_fa += b.expected_fa
        exp_fr += b.expected_fr
        exp_w += b.expected_w
    total = risk_sum + nll_weight * nll
    if not math.isfinite(total):
        raise ValueError(f"batch loss is not finite ({total}): expected risk {risk_sum} "
                         f"+ nll_weight {nll_weight} * nll {nll}")
    return LossBreakdown(
        per_hyp_risk=tuple(risks),
        per_hyp_prob=tuple(probs),
        expected_risk=risk_sum,
        nll_term=nll,
        total=total,
        expected_fa=exp_fa,
        expected_fr=exp_fr,
        expected_w=exp_w,
    )


def batch_loss(batch: Sequence[NBest], nll_weight: float, nll: float,
               config: RiskConfig = RiskConfig()) -> LossBreakdown:
    """Summed expected risk over a batch plus the weighted NLL regularizer."""
    return pooled_loss((expected_risk(nbest, config) for nbest in batch), nll_weight, nll)


def risk_gradient(nbest: NBest, config: RiskConfig = RiskConfig()) -> list[float]:
    """d(expected risk)/d(log_score_j); softmax scores only.

    g_j = p_j (r_j - E[r]); the components sum to zero.  Called right after
    ``expected_risk`` on the same ``NBest`` and an equal config, it reuses
    that call's alignments.
    """
    if not config.normalize_scores:
        raise ValueError("gradient is defined for softmax-normalized scores only")
    b = expected_risk(nbest, config)
    return [p * (r - b.expected_risk) for p, r in zip(b.per_hyp_prob, b.per_hyp_risk)]
