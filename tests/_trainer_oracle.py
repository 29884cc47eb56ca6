"""Reference implementation of the toy trainer's candidate enumeration.

``token_enumerate_candidates`` is the earlier enumerator that edits, hashes
and sorts ``Token`` tuples directly.  ``scdkit.trainer.enumerate_candidates``
works on text tuples and must return exactly its candidates, in the same
order, with the same reference index.
"""

import random
from typing import Sequence

from scdkit.tokens import SPEAKER_TURN, Token, TokenSeq, as_token_seq, word
from scdkit.trainer import CANDIDATE_CAP, HypothesisSpace


def _token_sort_key(t: Token):
    return (0, "") if t.is_turn else (1, t.text)


def _seq_sort_key(seq: TokenSeq):
    return (len(seq), tuple(_token_sort_key(t) for t in seq))


def _single_edits(seq: TokenSeq, vocab: Sequence[str]):
    out = set()
    for pos in range(len(seq) + 1):
        out.add(seq[:pos] + (SPEAKER_TURN,) + seq[pos:])
        for w in vocab:
            out.add(seq[:pos] + (word(w),) + seq[pos:])
    for pos, tok in enumerate(seq):
        out.add(seq[:pos] + seq[pos + 1:])
        if not tok.is_turn:
            for w in vocab:
                if w != tok.text:
                    out.add(seq[:pos] + (word(w),) + seq[pos + 1:])
    return out


def token_enumerate_candidates(reference: Sequence[Token], edit_budget: int,
                               vocab: Sequence[str], seed: int,
                               utterance_id: str = "toy") -> HypothesisSpace:
    ref = as_token_seq(reference)
    seen = {ref}
    frontier = [ref]
    for _ in range(edit_budget):
        nxt = []
        for seq in frontier:
            for edited in _single_edits(seq, vocab):
                if edited not in seen:
                    seen.add(edited)
                    nxt.append(edited)
        frontier = nxt
    candidates = sorted(seen, key=_seq_sort_key)
    if len(candidates) > CANDIDATE_CAP:
        rng = random.Random(seed)
        others = [c for c in candidates if c != ref]
        kept = rng.sample(others, CANDIDATE_CAP - 1)
        candidates = sorted(kept + [ref], key=_seq_sort_key)
    return HypothesisSpace(utterance_id=utterance_id, reference=ref,
                           candidates=tuple(candidates))
