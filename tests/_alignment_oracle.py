"""Reference implementations of the constrained alignment.

``brute_force_align`` enumerates every legal monotone alignment, so it is
exponential and only usable on short sequences.  It is kept as the
differential oracle for ``scdkit.alignment.align``: the DP must reach the
same minimum cost and one of the error counts an optimal alignment can
have.  ``cost_from_ops`` and ``counts_from_ops`` recompute an op trace's
cost and error counts independently of the DP.  ``table_align`` is the
earlier three-table DP with explicit tie-break tuples; ``align`` must
return exactly its ops, cost and counts.  ``k_to_milli`` is the earlier
``Decimal`` converter of the turn-marker cost; ``AlignmentCosts.from_k``
must give its milli-units wherever it accepts ``k``.  ``key_rows_oracle`` is
the earlier pure-Python DP on plain keys with a forced match on equal text;
``_key_rows``'s offset rows plus their delete and insert chains must equal
its rows.
"""

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from itertools import accumulate
from typing import FrozenSet, List, Optional, Sequence

from scdkit.alignment import (
    DEFAULT_COSTS,
    WORD_COST_MILLI,
    Alignment,
    AlignmentCosts,
    EditOp,
    ErrorCounts,
    OpKind,
)
from scdkit.tokens import Token, TokenSeq, as_token_seq

BRUTE_FORCE_MAX_LEN = 8


def k_to_milli(k) -> int:
    """Convert a turn-marker cost k (at most 3 decimal places) to exact milli-units."""
    try:
        d = k if isinstance(k, Decimal) else Decimal(str(k))
    except InvalidOperation as exc:
        raise ValueError(f"k is not a decimal number: {k!r}") from exc
    if not d.is_finite():
        raise ValueError(f"k must be finite, got {k!r}")
    scaled = d * 1000
    if scaled != scaled.to_integral_value():
        raise ValueError(f"k must have at most 3 decimal places, got {k!r}")
    milli = int(scaled)
    if milli < 1000:
        raise ValueError(f"k must be >= 1, got {k!r}")
    return milli


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


# Tie-break ranks after (cost, turn-error count): Match > Delete > Insert > WordSub.
_RANK_MATCH = 0
_RANK_DELETE = 1
_RANK_INSERT = 2
_RANK_SUB = 3


def table_align(reference: Sequence[Token], hypothesis: Sequence[Token],
                costs: AlignmentCosts = DEFAULT_COSTS) -> Alignment:
    """Reference DP: full ``cost``/``sterr``/``back`` tables and tie-break tuples.

    The (cost, turn errors, rank) tuple of each candidate is compared in
    each cell, and the counts are recounted from the op trace.
    """
    ref = as_token_seq(reference)
    hyp = as_token_seq(hypothesis)
    n, m = len(ref), len(hyp)
    word_cost = WORD_COST_MILLI
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
                cand = (cost[i - 1][j - 1] + word_cost, sterr[i - 1][j - 1], _RANK_SUB)
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


def key_rows_oracle(ref_text: Sequence[Optional[str]], hyp_text: Sequence[Optional[str]],
                    st_cost: int) -> List[List[int]]:
    """All n+1 key rows of the forced-match DP (a turn is ``None``).

    A key is ``cost_milli * (n + m + 1) + turn errors``.  On equal text the
    cell takes the match without comparing; else the least of delete,
    insert and (between two words) substitute.
    """
    scale = len(ref_text) + len(hyp_text) + 1
    word_step = WORD_COST_MILLI * scale
    turn_step = st_cost * scale + 1
    hyp_step = [turn_step if h is None else word_step for h in hyp_text]
    prev = list(accumulate(hyp_step, initial=0))
    rows = [prev]
    for r in ref_text:
        r_step = turn_step if r is None else word_step
        left = prev[0] + r_step
        cur = [left]
        for diag, up, h, h_step in zip(prev, prev[1:], hyp_text, hyp_step):
            if r == h:
                # deleting r and inserting h add the same step, so neither beats the match
                left = diag
            else:
                best = up + r_step
                if left + h_step < best:
                    best = left + h_step
                if r is not None and h is not None and diag + word_step < best:
                    best = diag + word_step
                left = best
            cur.append(left)
        prev = cur
        rows.append(cur)
    return rows
