"""Desk-scale optimizer demonstrating the turn-weighted risk loss.

The "model" is a logit vector over an enumerated candidate space per
utterance.  Each step forms an N-best list from the top-scoring
candidates, evaluates the expected-risk loss plus the NLL regularizer,
and takes a plain gradient-descent step on the logits.  With heavy
false-accept/false-reject weights the probability mass moves away from
candidates that confuse the turn marker even when they make fewer word
errors, which is the effect the loss exists to produce.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

import numpy as np

from .dataio import TrainStep, TrainTrace
from .metrics import _Record
from .risk import RiskConfig, _check_utterance_id, _finite, _risk_rows
from .tokens import SPEAKER_TURN, Token, TokenSeq, as_token_seq, word

CANDIDATE_CAP = 256


class HypothesisSpace(_Record):
    """Enumerated stand-in for a beam-search output space."""

    utterance_id: str
    reference: TokenSeq
    candidates: tuple[TokenSeq, ...]

    def __post_init__(self) -> None:
        _check_utterance_id(self.utterance_id)
        object.__setattr__(self, "reference", as_token_seq(self.reference))
        object.__setattr__(self, "candidates", tuple(map(as_token_seq, self.candidates)))
        if not self.reference:
            raise ValueError(f"reference of {self.utterance_id!r} is empty")
        if len(self.candidates) < 2:
            raise ValueError("need at least two candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be distinct")
        if self.reference not in self.candidates:
            raise ValueError("reference must be one of the candidates")

    @property
    def reference_index(self) -> int:
        return self.candidates.index(self.reference)


class TrainConfig(_Record):
    learning_rate: float = 0.5
    steps: int = 500
    nbest_n: int | None = None  # None selects the full candidate set
    nll_weight: float = 0.03
    risk: RiskConfig = RiskConfig()

    def __post_init__(self) -> None:
        if not (_finite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        # bool is not a count, and a float only failed later, inside train
        if type(self.steps) is not int or self.steps < 1:
            raise ValueError(f"steps must be an int >= 1, got {self.steps!r}")
        if self.nbest_n is not None and (type(self.nbest_n) is not int or self.nbest_n < 1):
            raise ValueError(f"nbest_n must be an int >= 1 or None, got {self.nbest_n!r}")
        if not (_finite(self.nll_weight) and self.nll_weight >= 0):
            raise ValueError(f"nll_weight must be finite and >= 0, got {self.nll_weight}")
        if not isinstance(self.risk, RiskConfig):
            raise TypeError(f"risk must be a RiskConfig, got {type(self.risk).__name__}")


TextSeq = tuple[str, ...]


def _single_edits(seq: TextSeq, vocab: Sequence[str]):
    """All text tuples one token edit away: turn ins/del, word sub/ins/del.

    ``""`` is the turn marker: a word is never empty, so it sorts before
    every word.
    """
    for pos in range(len(seq) + 1):
        head, tail = seq[:pos], seq[pos:]
        yield head + ("",) + tail
        for w in vocab:
            yield head + (w,) + tail
    for pos, t in enumerate(seq):
        head, tail = seq[:pos], seq[pos + 1:]
        yield head + tail
        if t:
            for w in vocab:
                if w != t:
                    yield head + (w,) + tail


def enumerate_candidates(reference: Sequence[Token], edit_budget: int,
                         vocab: Sequence[str], seed: int,
                         utterance_id: str = "toy") -> HypothesisSpace:
    """Candidate space of everything within ``edit_budget`` single-token edits.

    Deterministic for a given seed; capped at 256 candidates by seeded
    uniform downsampling that never drops the reference.  The space is
    enumerated as text tuples, and the candidates share one ``Token`` per
    distinct text: the reference's own tokens, ``SPEAKER_TURN`` and one
    ``word(w)`` per vocab word.
    """
    # bool is not a count
    if type(edit_budget) is not int or not 1 <= edit_budget <= 3:
        raise ValueError(f"edit_budget must be an int in [1, 3], got {edit_budget!r}")
    if not vocab:
        raise ValueError("vocab must be non-empty")
    ref = as_token_seq(reference)
    tokens = {}
    for w in vocab:
        # a text tuple holds only str; word("") raises, so "" stays the turn marker
        if not isinstance(w, str):
            raise TypeError(f"vocab entries must be str, got {type(w).__name__}")
        tokens[w] = word(w)
    words = tuple(tokens)
    tokens.update((t.text, t) for t in ref if t.text is not None)
    tokens[""] = SPEAKER_TURN

    ref_text = tuple(t.text or "" for t in ref)
    seen = {ref_text}
    frontier = [ref_text]
    for _ in range(edit_budget):
        frontier = set().union(*(_single_edits(seq, words) for seq in frontier)) - seen
        seen |= frontier
    candidates = sorted(sorted(seen), key=len)
    if len(candidates) > CANDIDATE_CAP:
        rng = random.Random(seed)
        others = [c for c in candidates if c != ref_text]
        kept = rng.sample(others, CANDIDATE_CAP - 1)
        candidates = sorted(sorted(kept + [ref_text]), key=len)
    return HypothesisSpace(utterance_id=utterance_id, reference=ref,
                           candidates=tuple(tuple(tokens[t] for t in c) for c in candidates))


def st_vs_word_space() -> HypothesisSpace:
    """Bundled scenario: a word-substitution error competes with a dropped turn.

    Candidate 0 is the reference, candidate 1 differs by one word, and
    candidate 2 drops the turn marker entirely (fewer word errors, one
    turn error).
    """
    ref = (word("a"), word("b"), SPEAKER_TURN, word("c"))
    word_sub = (word("a"), word("x"), SPEAKER_TURN, word("c"))
    turn_dropped = (word("a"), word("b"), word("c"))
    return HypothesisSpace(utterance_id="st-vs-word", reference=ref,
                           candidates=(ref, word_sub, turn_dropped))


def _softmax(logits: np.ndarray) -> np.ndarray:
    exp = np.exp(logits - np.maximum.reduce(logits))
    return exp / np.add.reduce(exp)


def train(space: HypothesisSpace, config: TrainConfig = TrainConfig()) -> TrainTrace:
    """Gradient-descent on zero-initialized logits; returns the full trace.

    Probabilities are the softmax over the whole candidate set; the risk
    term sums over the current top-``nbest_n`` candidates only.
    """
    n_cand = len(space.candidates)
    ref_idx = space.reference_index
    top_n = config.nbest_n if config.nbest_n is not None and config.nbest_n < n_cand else None

    # HypothesisSpace checked its tokens when it was built
    rows = _risk_rows(space.reference, space.candidates, config.risk)
    risks = np.array([r for r, _ in rows])
    fa = np.array([c.st_insertions for _, c in rows], dtype=float)
    fr = np.array([c.st_deletions for _, c in rows], dtype=float)
    w = np.array([c.word_errors for _, c in rows], dtype=float)

    logits = np.zeros(n_cand)
    records: list[TrainStep] = []
    for step in range(config.steps + 1):
        probs = _softmax(logits)
        # With no cut the mask would be all ones, and x * 1.0 == x.
        p_sel, r_sel = probs, risks
        if top_n is not None:
            sel_mask = np.zeros(n_cand)
            sel_mask[np.argsort(-logits, kind="stable")[:top_n]] = 1.0
            p_sel, r_sel = probs * sel_mask, risks * sel_mask
        risk_term = float(np.dot(p_sel, risks))
        nll = -float(np.log(probs[ref_idx]))
        loss = risk_term + config.nll_weight * nll
        if not math.isfinite(loss):
            raise RuntimeError(f"training diverged at step {step}: loss={loss}")
        # by position, once per step: loss_total, expected_fa, expected_fr,
        # expected_w, argmax_candidate
        records.append(TrainStep(loss, float(np.dot(p_sel, fa)), float(np.dot(p_sel, fr)),
                                 float(np.dot(p_sel, w)), int(logits.argmax())))
        if step == config.steps:
            break
        grad = probs * (r_sel - risk_term)
        grad += config.nll_weight * probs
        grad[ref_idx] -= config.nll_weight
        logits = logits - config.learning_rate * grad

    return TrainTrace(records=tuple(records), final_model=tuple(float(v) for v in logits))


def candidate_probs(trace: TrainTrace) -> tuple[float, ...]:
    """Softmax of the trace's final logits."""
    return tuple(float(v) for v in _softmax(np.array(trace.final_model)))
