"""Expected-risk loss over N-best hypotheses and its gradient.

The per-hypothesis risk weights word errors and turn-marker false
accepts/rejects from the constrained alignment, normalized by reference
length.  The batch loss adds a caller-supplied negative-log-probability
regularizer; no sequence model lives in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Sequence, Tuple

from .alignment import AlignmentCosts, ErrorCounts, align
from .tokens import Token, TokenSeq, as_token_seq

# exp(log_score) above this is not a probability
_MAX_LOG_PROB = math.log1p(1e-9)


class RiskKind(str, Enum):
    # weighted turn-aware risk, normalized by reference length
    SCD_WEIGHTED = "scd_weighted"
    # plain expected-number-of-errors risk used by word-error-rate training
    WORD_ERROR_ONLY = "word_error_only"


@dataclass(frozen=True)
class ScoredHypothesis:
    tokens: TokenSeq
    log_score: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", as_token_seq(self.tokens))
        if not math.isfinite(self.log_score):
            raise ValueError(f"log_score must be finite, got {self.log_score}")


@dataclass(frozen=True)
class NBest:
    utterance_id: str
    reference: TokenSeq
    hypotheses: Tuple[ScoredHypothesis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reference", as_token_seq(self.reference))
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.reference:
            raise ValueError(f"reference of {self.utterance_id!r} is empty")
        if not self.hypotheses:
            raise ValueError(f"{self.utterance_id!r} has no hypotheses")


@dataclass(frozen=True)
class RiskConfig:
    """Weights and alignment settings for the token-level risk."""

    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 10.0
    costs: AlignmentCosts = field(default_factory=lambda: AlignmentCosts.from_k("1.1"))
    normalize_scores: bool = True
    risk_kind: RiskKind = RiskKind.SCD_WEIGHTED

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossBreakdown:
    per_hyp_risk: Tuple[float, ...]
    per_hyp_prob: Tuple[float, ...]
    expected_risk: float
    nll_term: float
    total: float
    expected_fa: float
    expected_fr: float
    expected_w: float


def hypothesis_errors(reference: Sequence[Token], hypotheses: Iterable[Sequence[Token]],
                      config: RiskConfig) -> List[Tuple[float, ErrorCounts]]:
    """(risk, error counts) of each hypothesis, aligned once against ``reference``.

    The one place in the risk path that aligns.  The risk is
    (alpha*W + beta*FA + gamma*FR) / |reference| for the turn-weighted
    kind and raw W + FA + FR for the word-error-only kind.
    """
    ref = as_token_seq(reference)
    weighted = config.risk_kind is RiskKind.SCD_WEIGHTED
    if weighted and not ref:
        raise ValueError("reference must contain at least one token")
    rows = []
    for hyp in hypotheses:
        c = align(ref, hyp, config.costs).counts
        risk = ((config.alpha * c.word_errors + config.beta * c.st_insertions
                 + config.gamma * c.st_deletions) / len(ref)
                if weighted else float(c.total_errors))
        rows.append((risk, c))
    return rows


def per_hyp_risk(reference: Sequence[Token], hypothesis: Sequence[Token],
                 config: RiskConfig = RiskConfig()) -> float:
    """Risk of a single hypothesis against its reference (see ``hypothesis_errors``)."""
    if not as_token_seq(reference):
        raise ValueError("reference must contain at least one token")
    return hypothesis_errors(reference, (hypothesis,), config)[0][0]


def hypothesis_probs(hypotheses: Sequence[ScoredHypothesis], normalize: bool) -> List[float]:
    """Per-hypothesis probabilities from log scores.

    Softmax over the list when ``normalize``; otherwise the scores must
    already be log probabilities and are simply exponentiated.
    """
    scores = [h.log_score for h in hypotheses]
    if normalize:
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        z = sum(exps)
        return [e / z for e in exps]
    for s in scores:
        if s > _MAX_LOG_PROB:
            raise ValueError(
                f"log_score {s} exceeds 0: scores are not probabilities "
                "(enable score normalization or fix the input)")
    return [math.exp(s) for s in scores]


def expected_risk(nbest: NBest, config: RiskConfig = RiskConfig()) -> LossBreakdown:
    """Probability-weighted risk across the hypotheses of one utterance."""
    probs = hypothesis_probs(nbest.hypotheses, config.normalize_scores)
    rows = hypothesis_errors(nbest.reference, (h.tokens for h in nbest.hypotheses), config)
    exp_risk = exp_fa = exp_fr = exp_w = 0.0
    for p, (r, counts) in zip(probs, rows):
        exp_risk += p * r
        exp_fa += p * counts.st_insertions
        exp_fr += p * counts.st_deletions
        exp_w += p * counts.word_errors
    return LossBreakdown(
        per_hyp_risk=tuple(r for r, _ in rows),
        per_hyp_prob=tuple(probs),
        expected_risk=exp_risk,
        nll_term=0.0,
        total=exp_risk,
        expected_fa=exp_fa,
        expected_fr=exp_fr,
        expected_w=exp_w,
    )


def pooled_loss(breakdowns: Iterable[LossBreakdown], nll_weight: float,
                nll: float) -> LossBreakdown:
    """Sum per-utterance breakdowns, in order, plus the weighted NLL regularizer.

    ``nll`` is the externally supplied negative log probability of the
    ground truth.  Both arguments are checked before ``breakdowns`` is consumed.
    """
    for name, v in (("nll_weight", nll_weight), ("nll", nll)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    risks: List[float] = []
    probs: List[float] = []
    risk_sum = exp_fa = exp_fr = exp_w = 0.0
    for b in breakdowns:
        risks.extend(b.per_hyp_risk)
        probs.extend(b.per_hyp_prob)
        risk_sum += b.expected_risk
        exp_fa += b.expected_fa
        exp_fr += b.expected_fr
        exp_w += b.expected_w
    return LossBreakdown(
        per_hyp_risk=tuple(risks),
        per_hyp_prob=tuple(probs),
        expected_risk=risk_sum,
        nll_term=nll,
        total=risk_sum + nll_weight * nll,
        expected_fa=exp_fa,
        expected_fr=exp_fr,
        expected_w=exp_w,
    )


def batch_loss(batch: Sequence[NBest], nll_weight: float, nll: float,
               config: RiskConfig = RiskConfig()) -> LossBreakdown:
    """Summed expected risk over a batch plus the weighted NLL regularizer."""
    return pooled_loss((expected_risk(nbest, config) for nbest in batch), nll_weight, nll)


def risk_gradient(nbest: NBest, config: RiskConfig = RiskConfig()) -> List[float]:
    """d(expected risk)/d(log_score_j); softmax scores only.

    g_j = p_j (r_j - E[r]); the components sum to zero.
    """
    if not config.normalize_scores:
        raise ValueError("gradient is defined for softmax-normalized scores only")
    b = expected_risk(nbest, config)
    return [p * (r - b.expected_risk) for p, r in zip(b.per_hyp_prob, b.per_hyp_risk)]
