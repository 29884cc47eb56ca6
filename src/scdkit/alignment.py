"""Constrained minimum-edit-distance alignment between token sequences.

Substitutions are only allowed between two (unequal) words; the
speaker-turn marker can only be matched, inserted, or deleted.  Inserting
or deleting the marker costs ``k`` (>= 1) while every word edit costs 1.
All arithmetic is exact integer arithmetic in milli-units (k = 1.1 is
stored as 1100), so cost ties are exact and the tie-break below is
deterministic:

    Match > path minimizing turn insertions+deletions > Delete > Insert > WordSub

The secondary criterion is what makes a turn marker within floor(k)
word positions of its reference position count as correctly aligned even
when the word-edit detour has exactly equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import FrozenSet, Optional, Sequence, Tuple

from .tokens import Token, TokenSeq, as_token_seq

BRUTE_FORCE_MAX_LEN = 8


def k_to_milli(k) -> int:
    """Convert a turn-marker cost k (at most 3 decimal places) to exact milli-units."""
    try:
        d = k if isinstance(k, Decimal) else Decimal(str(k))
    except InvalidOperation as exc:
        raise ValueError(f"k is not a decimal number: {k!r}") from exc
    scaled = d * 1000
    if scaled != scaled.to_integral_value():
        raise ValueError(f"k must have at most 3 decimal places, got {k!r}")
    milli = int(scaled)
    if milli < 1000:
        raise ValueError(f"k must be >= 1, got {k!r}")
    return milli


@dataclass(frozen=True)
class AlignmentCosts:
    """Edit costs in exact integer milli-units."""

    st_cost_milli: int = 1100
    word_ins_del_cost_milli: int = 1000
    word_sub_cost_milli: int = 1000

    def __post_init__(self) -> None:
        if self.st_cost_milli < 1000:
            raise ValueError(f"turn-marker cost must be >= 1000 milli, got {self.st_cost_milli}")
        if self.word_ins_del_cost_milli <= 0 or self.word_sub_cost_milli <= 0:
            raise ValueError("word edit costs must be positive")

    @classmethod
    def from_k(cls, k) -> "AlignmentCosts":
        return cls(st_cost_milli=k_to_milli(k))


DEFAULT_COSTS = AlignmentCosts.from_k("1.1")


class OpKind(str, Enum):
    MATCH = "match"
    WORD_SUB = "word_sub"
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class EditOp:
    kind: OpKind
    ref_index: Optional[int] = None
    hyp_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in (OpKind.MATCH, OpKind.WORD_SUB):
            ok = self.ref_index is not None and self.hyp_index is not None
        elif self.kind is OpKind.INSERT:
            ok = self.ref_index is None and self.hyp_index is not None
        else:
            ok = self.ref_index is not None and self.hyp_index is None
        if not ok:
            raise ValueError(f"bad index combination for {self.kind}: {self}")


@dataclass(frozen=True)
class ErrorCounts:
    """Word errors plus turn-marker confusion counts.

    ``st_insertions`` are false accepts (a predicted turn with no reference
    counterpart), ``st_deletions`` are false rejects.
    """

    word_errors: int = 0
    st_insertions: int = 0
    st_deletions: int = 0
    st_correct: int = 0

    @property
    def total_errors(self) -> int:
        return self.word_errors + self.st_insertions + self.st_deletions


@dataclass(frozen=True)
class Alignment:
    ops: Tuple[EditOp, ...]
    cost_milli: int
    counts: ErrorCounts


def op_cost(op: EditOp, reference: TokenSeq, hypothesis: TokenSeq, costs: AlignmentCosts) -> int:
    if op.kind is OpKind.MATCH:
        return 0
    if op.kind is OpKind.WORD_SUB:
        return costs.word_sub_cost_milli
    if op.kind is OpKind.DELETE:
        tok = reference[op.ref_index]
    else:
        tok = hypothesis[op.hyp_index]
    return costs.st_cost_milli if tok.is_turn else costs.word_ins_del_cost_milli


def counts_from_ops(ops: Sequence[EditOp], reference: TokenSeq, hypothesis: TokenSeq) -> ErrorCounts:
    """Recount errors from an op trace (also the test-side consistency check)."""
    w = fa = fr = stc = 0
    for op in ops:
        if op.kind is OpKind.MATCH:
            if reference[op.ref_index].is_turn:
                stc += 1
        elif op.kind is OpKind.WORD_SUB:
            w += 1
        elif op.kind is OpKind.INSERT:
            if hypothesis[op.hyp_index].is_turn:
                fa += 1
            else:
                w += 1
        else:
            if reference[op.ref_index].is_turn:
                fr += 1
            else:
                w += 1
    return ErrorCounts(word_errors=w, st_insertions=fa, st_deletions=fr, st_correct=stc)


def cost_from_ops(ops: Sequence[EditOp], reference: TokenSeq, hypothesis: TokenSeq,
                  costs: AlignmentCosts) -> int:
    return sum(op_cost(op, reference, hypothesis, costs) for op in ops)


# Tie-break ranks after (cost, turn-error count): Match > Delete > Insert > WordSub.
_RANK_MATCH = 0
_RANK_DELETE = 1
_RANK_INSERT = 2
_RANK_SUB = 3


def align(reference: Sequence[Token], hypothesis: Sequence[Token],
          costs: AlignmentCosts = DEFAULT_COSTS) -> Alignment:
    """Optimal constrained alignment of ``hypothesis`` against ``reference``.

    Total function: empty sequences are allowed and align at cost 0.
    """
    ref = as_token_seq(reference)
    hyp = as_token_seq(hypothesis)
    n, m = len(ref), len(hyp)
    word_cost = costs.word_ins_del_cost_milli
    sub_cost = costs.word_sub_cost_milli
    st_cost = costs.st_cost_milli

    cost = [[0] * (m + 1) for _ in range(n + 1)]
    sterr = [[0] * (m + 1) for _ in range(n + 1)]
    back = [[None] * (m + 1) for _ in range(n + 1)]

    for i in range(1, n + 1):
        turn = ref[i - 1].is_turn
        cost[i][0] = cost[i - 1][0] + (st_cost if turn else word_cost)
        sterr[i][0] = sterr[i - 1][0] + (1 if turn else 0)
        back[i][0] = OpKind.DELETE
    for j in range(1, m + 1):
        turn = hyp[j - 1].is_turn
        cost[0][j] = cost[0][j - 1] + (st_cost if turn else word_cost)
        sterr[0][j] = sterr[0][j - 1] + (1 if turn else 0)
        back[0][j] = OpKind.INSERT

    for i in range(1, n + 1):
        r = ref[i - 1]
        r_turn = r.is_turn
        for j in range(1, m + 1):
            h = hyp[j - 1]
            h_turn = h.is_turn
            if r == h:
                best = (cost[i - 1][j - 1], sterr[i - 1][j - 1], _RANK_MATCH)
                best_op = OpKind.MATCH
            else:
                best = None
                best_op = None
            cand = (cost[i - 1][j] + (st_cost if r_turn else word_cost),
                    sterr[i - 1][j] + (1 if r_turn else 0), _RANK_DELETE)
            if best is None or cand < best:
                best, best_op = cand, OpKind.DELETE
            cand = (cost[i][j - 1] + (st_cost if h_turn else word_cost),
                    sterr[i][j - 1] + (1 if h_turn else 0), _RANK_INSERT)
            if cand < best:
                best, best_op = cand, OpKind.INSERT
            if r != h and not r_turn and not h_turn:
                cand = (cost[i - 1][j - 1] + sub_cost, sterr[i - 1][j - 1], _RANK_SUB)
                if cand < best:
                    best, best_op = cand, OpKind.WORD_SUB
            cost[i][j], sterr[i][j], _ = best
            back[i][j] = best_op

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        kind = back[i][j]
        if kind is OpKind.MATCH or kind is OpKind.WORD_SUB:
            ops.append(EditOp(kind, ref_index=i - 1, hyp_index=j - 1))
            i -= 1
            j -= 1
        elif kind is OpKind.DELETE:
            ops.append(EditOp(kind, ref_index=i - 1))
            i -= 1
        else:
            ops.append(EditOp(kind, hyp_index=j - 1))
            j -= 1
    ops.reverse()

    trace = tuple(ops)
    return Alignment(ops=trace, cost_milli=cost[n][m],
                     counts=counts_from_ops(trace, ref, hyp))


@dataclass(frozen=True)
class BruteForceResult:
    cost_milli: int
    optimal_counts: FrozenSet[ErrorCounts]


def brute_force_align(reference: Sequence[Token], hypothesis: Sequence[Token],
                      costs: AlignmentCosts = DEFAULT_COSTS) -> BruteForceResult:
    """Exhaustively enumerate every legal monotone alignment (test oracle).

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

    word_cost = costs.word_ins_del_cost_milli
    sub_cost = costs.word_sub_cost_milli
    st_cost = costs.st_cost_milli
    n, m = len(ref), len(hyp)
    # The cheapest possible completion from (i, j) needs at least
    # |remaining length difference| insertions or deletions, each >= min edit cost.
    min_edit = min(word_cost, sub_cost, st_cost)

    best_cost: Optional[int] = None
    optimal: set = set()

    def visit(i: int, j: int, c: int, w: int, fa: int, fr: int, stc: int) -> None:
        nonlocal best_cost
        if best_cost is not None and c + min_edit * abs((n - i) - (m - j)) > best_cost:
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
                visit(i + 1, j + 1, c + sub_cost, w + 1, fa, fr, stc)
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
