"""Exhaustive reference implementation of the constrained alignment.

``brute_force_align`` enumerates every legal monotone alignment, so it is
exponential and only usable on short sequences.  It is kept as the
differential oracle for ``scdkit.alignment.align``: the DP must reach the
same minimum cost and one of the error counts an optimal alignment can
have.  ``cost_from_ops`` recomputes an op trace's cost independently of
the DP.
"""

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence

from scdkit.alignment import (
    DEFAULT_COSTS,
    WORD_COST_MILLI,
    AlignmentCosts,
    EditOp,
    ErrorCounts,
    OpKind,
)
from scdkit.tokens import Token, TokenSeq, as_token_seq

BRUTE_FORCE_MAX_LEN = 8


def op_cost(op: EditOp, reference: TokenSeq, hypothesis: TokenSeq, costs: AlignmentCosts) -> int:
    if op.kind is OpKind.MATCH:
        return 0
    if op.kind is OpKind.WORD_SUB:
        return WORD_COST_MILLI
    if op.kind is OpKind.DELETE:
        tok = reference[op.ref_index]
    else:
        tok = hypothesis[op.hyp_index]
    return costs.st_cost_milli if tok.is_turn else WORD_COST_MILLI


def cost_from_ops(ops: Sequence[EditOp], reference: TokenSeq, hypothesis: TokenSeq,
                  costs: AlignmentCosts) -> int:
    return sum(op_cost(op, reference, hypothesis, costs) for op in ops)


@dataclass(frozen=True)
class BruteForceResult:
    cost_milli: int
    optimal_counts: FrozenSet[ErrorCounts]


def brute_force_align(reference: Sequence[Token], hypothesis: Sequence[Token],
                      costs: AlignmentCosts = DEFAULT_COSTS) -> BruteForceResult:
    """Exhaustively enumerate every legal monotone alignment.

    Returns the exact minimum cost and the set of error counts achieved by
    any minimum-cost alignment.  Rejects sequences longer than
    ``BRUTE_FORCE_MAX_LEN`` tokens (the enumeration is exponential).
    """
    ref = as_token_seq(reference)
    hyp = as_token_seq(hypothesis)
    if len(ref) > BRUTE_FORCE_MAX_LEN or len(hyp) > BRUTE_FORCE_MAX_LEN:
        raise ValueError(
            f"brute force is limited to sequences of at most {BRUTE_FORCE_MAX_LEN} tokens, "
            f"got {len(ref)} and {len(hyp)}")

    word_cost = WORD_COST_MILLI
    st_cost = costs.st_cost_milli
    n, m = len(ref), len(hyp)

    best_cost: Optional[int] = None
    optimal: set = set()

    def visit(i: int, j: int, c: int, w: int, fa: int, fr: int, stc: int) -> None:
        nonlocal best_cost
        # The cheapest completion from (i, j) needs at least |remaining length
        # difference| insertions or deletions, each costing at least one word
        # edit (the turn-marker cost is never below it).
        if best_cost is not None and c + word_cost * abs((n - i) - (m - j)) > best_cost:
            return
        if i == n and j == m:
            key = ErrorCounts(w, fa, fr, stc)
            if best_cost is None or c < best_cost:
                best_cost = c
                optimal.clear()
                optimal.add(key)
            elif c == best_cost:
                optimal.add(key)
            return
        if i < n and j < m:
            r, h = ref[i], hyp[j]
            if r == h:
                visit(i + 1, j + 1, c, w, fa, fr, stc + (1 if r.is_turn else 0))
            elif not r.is_turn and not h.is_turn:
                visit(i + 1, j + 1, c + word_cost, w + 1, fa, fr, stc)
        if i < n:
            if ref[i].is_turn:
                visit(i + 1, j, c + st_cost, w, fa, fr + 1, stc)
            else:
                visit(i + 1, j, c + word_cost, w + 1, fa, fr, stc)
        if j < m:
            if hyp[j].is_turn:
                visit(i, j + 1, c + st_cost, w, fa + 1, fr, stc)
            else:
                visit(i, j + 1, c + word_cost, w + 1, fa, fr, stc)

    visit(0, 0, 0, 0, 0, 0, 0)
    assert best_cost is not None
    return BruteForceResult(cost_milli=best_cost, optimal_counts=frozenset(optimal))
