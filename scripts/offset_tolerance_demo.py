#!/usr/bin/env python3
"""Show how the turn-marker cost k sets the offset tolerance.

For a hypothesis whose turn marker sits m word positions away from its
reference position, the aligner can either pay 2m word edits to keep the
marker aligned or pay 2k to rewrite it.  The marker therefore counts as
correct exactly when m <= floor(k).
"""

from scdkit.alignment import AlignmentCosts, align_counts
from scdkit.tokens import SPEAKER_TURN, word


def shifted_pair(m):
    words = [f"w{i}" for i in range(8)]
    ref = [word(w) for w in words]
    ref.insert(4, SPEAKER_TURN)
    hyp = [word(w) for w in words]
    hyp.insert(4 - m, SPEAKER_TURN)
    return tuple(ref), tuple(hyp)


def main():
    ks = ["1.0", "1.1", "2.0", "2.5", "3.0"]
    print(f"{'offset m':>8} | " + " | ".join(f"k={k:>4}" for k in ks))
    print("-" * (11 + 9 * len(ks)))
    for m in range(5):
        ref, hyp = shifted_pair(m)
        cells = []
        for k in ks:
            c = align_counts(ref, hyp, AlignmentCosts.from_k(k))
            ok = c.st_insertions == 0 and c.st_deletions == 0
            cells.append(f"ok W={c.word_errors}" if ok else "fa+fr ")
        print(f"{m:>8} | " + " | ".join(f"{cell:<6}" for cell in cells))


if __name__ == "__main__":
    main()
