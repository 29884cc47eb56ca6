"""Constrained minimum-edit-distance alignment between token sequences.

Substitutions are only allowed between two (unequal) words; the
speaker-turn marker can only be matched, inserted, or deleted.  Inserting
or deleting the marker costs ``k`` (>= 1) while every word edit costs 1.
All arithmetic is exact integer arithmetic in milli-units (k = 1.1 is
stored as 1100), and each DP cell holds one int key packing the cost and
the turn-marker error count, so cost ties are exact and the tie-break
below is deterministic:

    Match > path minimizing turn insertions+deletions > Delete > Insert > WordSub

The secondary criterion is what makes a turn marker within floor(k)
word positions of its reference position count as correctly aligned even
when the word-edit detour has exactly equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from itertools import accumulate
from typing import Optional, Sequence, Tuple

from .tokens import Token, as_token_seq

# Every word edit (insertion, deletion, substitution) costs 1.
WORD_COST_MILLI = 1000


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


@dataclass(frozen=True)
class AlignmentCosts:
    """Turn-marker insert/delete cost in exact integer milli-units."""

    st_cost_milli: int = 1100

    def __post_init__(self) -> None:
        # an exact int keeps the DP's packed cell keys exact; bool is not a cost
        if type(self.st_cost_milli) is not int or self.st_cost_milli < 1000:
            raise ValueError(f"turn-marker cost must be an int >= 1000 milli, "
                             f"got {self.st_cost_milli!r}")

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


def align(reference: Sequence[Token], hypothesis: Sequence[Token],
          costs: AlignmentCosts = DEFAULT_COSTS) -> Alignment:
    """Optimal constrained alignment of ``hypothesis`` against ``reference``.

    Total function: empty sequences are allowed and align at cost 0.
    """
    ref = as_token_seq(reference)
    hyp = as_token_seq(hypothesis)
    n, m = len(ref), len(hyp)
    st_cost = costs.st_cost_milli
    # key = cost_milli * scale + turn errors; turn errors <= n + m < scale,
    # so comparing keys compares (cost, turn errors) in that order.
    scale = n + m + 1
    word_step = WORD_COST_MILLI * scale
    turn_step = st_cost * scale + 1
    ref_text = [t.text for t in ref]
    hyp_text = [t.text for t in hyp]
    hyp_step = [turn_step if h is None else word_step for h in hyp_text]

    back = [[OpKind.INSERT] * (m + 1)]
    prev = list(accumulate(hyp_step, initial=0))
    for r in ref_text:
        r_step = turn_step if r is None else word_step
        row = [OpKind.DELETE] * (m + 1)
        left = prev[0] + r_step
        cur = [left]
        for j, h in enumerate(hyp_text):
            if r == h:
                # deleting r and inserting h add the same step, so neither beats the match
                left = prev[j]
                row[j + 1] = OpKind.MATCH
            else:
                best = prev[j + 1] + r_step
                cand = left + hyp_step[j]
                if cand < best:
                    best = cand
                    row[j + 1] = OpKind.INSERT
                if r is not None and h is not None and prev[j] + word_step < best:
                    best = prev[j] + word_step
                    row[j + 1] = OpKind.WORD_SUB
                left = best
            cur.append(left)
        back.append(row)
        prev = cur

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

    # Every turn is matched, inserted (FA) or deleted (FR), and every word
    # edit costs WORD_COST_MILLI, so the final key fixes all four counts.
    cost, turn_errors = divmod(prev[m], scale)
    ref_turns = ref_text.count(None)
    hyp_turns = hyp_text.count(None)
    fa = (turn_errors + hyp_turns - ref_turns) // 2
    return Alignment(ops=tuple(ops), cost_milli=cost, counts=ErrorCounts(
        word_errors=(cost - st_cost * turn_errors) // WORD_COST_MILLI,
        st_insertions=fa, st_deletions=turn_errors - fa, st_correct=hyp_turns - fa))
