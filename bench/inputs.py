"""Seeded synthetic inputs, written in the file formats the CLI reads.

Everything here is stdlib-only and deterministic for a given
``random.Random``: the same seed gives byte-identical files.  Times are
generated in integer milliseconds and written as exact decimals, so the
parsers see the same values the generator chose.
"""

from __future__ import annotations

import json
import random
import string
from typing import List

SPEAKERS = ("spk_a", "spk_b", "spk_c", "spk_d")


def seconds(ms: int) -> str:
    return f"{ms // 1000}.{ms % 1000:03d}"


def rttm_and_stamps(rng: random.Random, n_recordings: int, n_segments: int,
                    prefix: str = "rec"):
    """A long-form RTTM corpus and one predicted change stamp per segment.

    Four speakers take turns with 0.5-8 s segments; consecutive segments
    overlap by up to 0.3 s or leave a gap of up to 0.5 s.  Each prediction
    lies within 0.6 s of a segment start; about 1% land outside the
    annotated span, so the scorer drops them.
    """
    rttm: List[str] = []
    stamps: List[str] = []
    for r in range(n_recordings):
        rec_id = f"{prefix}{r:03d}"
        t = rng.randint(1000, 3000)
        prev = None
        predictions = []
        outside = 0
        for _ in range(n_segments):
            speaker = rng.choice([s for s in SPEAKERS if s != prev])
            dur = rng.randint(500, 8000)
            rttm.append(f"SPEAKER {rec_id} 1 {seconds(t)} {seconds(dur)} "
                        f"<NA> <NA> {speaker} <NA> <NA>")
            predictions.append(max(0, t + rng.randint(-600, 600)))
            outside += rng.random() < 0.01
            prev = speaker
            t = t + dur + rng.randint(-300, 500)
        # t is now at least 0.3 s past the last segment end
        predictions.extend(t + 1000 * (i + 1) for i in range(outside))
        stamps.append(rec_id + "\t" + ",".join(seconds(p) for p in predictions))
    return "\n".join(rttm) + "\n", "\n".join(stamps) + "\n"


def vocabulary(rng: random.Random, size: int) -> List[str]:
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(string.ascii_lowercase)
                          for _ in range(rng.randint(2, 8))))
    return sorted(words)


def transcript(rng: random.Random, vocab: List[str], n_tokens: int,
               turn_share: float = 0.08, distinct: bool = False) -> List[str]:
    """``n_tokens`` tokens, ``round(turn_share * n_tokens)`` of them ``<st>``,
    never two turns in a row and never at either end.  With ``distinct``
    no word repeats, so the vocabulary size is fixed by ``n_tokens``."""
    n_turns = max(1, round(turn_share * n_tokens)) if n_tokens >= 3 else 0
    if distinct:
        words = rng.sample(vocab, n_tokens - n_turns)
    else:
        words = [rng.choice(vocab) for _ in range(n_tokens - n_turns)]
    slots = rng.sample(range(1, len(words)), n_turns)
    for pos in sorted(slots, reverse=True):
        words.insert(pos, "<st>")
    return words


def _perturb(rng: random.Random, ref: List[str], vocab: List[str], rate: float) -> List[str]:
    """A plausible recognizer output: word substitutions, insertions and
    deletions, turn markers dropped, shifted or inserted."""
    out: List[str] = []
    for tok in ref:
        u = rng.random()
        if tok == "<st>":
            if u < 2 * rate:
                continue  # false reject
            if u < 4 * rate and out:
                out.insert(len(out) - 1, tok)  # shifted one word early
                continue
            out.append(tok)
            continue
        if u < rate:
            out.append(rng.choice(vocab))  # substitution
        elif u < 1.3 * rate:
            continue  # deletion
        elif u < 1.6 * rate:
            out.extend((tok, rng.choice(vocab)))  # insertion
        elif u < 1.8 * rate:
            out.extend((tok, "<st>"))  # false accept
        else:
            out.append(tok)
    return out or [rng.choice(vocab)]


def nbest_lines(rng: random.Random, n_utterances: int, n_tokens: int, n_hyps: int,
                vocab_size: int = 300, rate: float = 0.1) -> str:
    """N-best JSON lines: each utterance has ``n_hyps`` perturbed copies of
    an ``n_tokens``-token reference, with descending log scores."""
    vocab = vocabulary(rng, vocab_size)
    lines = []
    for u in range(n_utterances):
        ref = transcript(rng, vocab, n_tokens)
        hyps = []
        score = 0.0
        for h in range(n_hyps):
            score -= rng.uniform(0.05, 2.0)
            hyps.append({"text": " ".join(_perturb(rng, ref, vocab, rate * (1 + h / n_hyps))),
                         "log_score": round(score, 6)})
        lines.append(json.dumps({"utterance_id": f"utt{u:05d}", "reference": " ".join(ref),
                                 "hypotheses": hyps}, sort_keys=True))
    return "\n".join(lines) + "\n"
