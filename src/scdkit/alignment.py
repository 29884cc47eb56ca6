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

The one DP recurrence, ``_key_rows``, has two executions.  The pure-Python
one aligns one pair and is what ``align`` and ``align_counts`` run.
``align_counts_batch`` aligns a whole N-best list against its reference in
one numpy DP, but only when numpy is already loaded: this module never
imports it, so ``scd risk``, ``score``, ``align`` and ``segment`` start
without it (the import costs more than the batch saves on one such run).
Its rows hold offset keys, each key less its row's delete chain and its
column's insert chain; every offset is <= 0, and each reference row takes
three in-place numpy calls.  It falls back to the pure execution for an empty reference,
for a list whose hypotheses are all empty, and when a key could reach 2**62,
where int64 would not be exact.  Both executions give identical keys, so the
counts never depend on which one ran.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from enum import Enum
from itertools import accumulate

from .metrics import _Record, _ms
from .tokens import Token, TokenSeq, as_token_seq

# Every word edit (insertion, deletion, substitution) costs 1.
WORD_COST_MILLI = 1000

# The batched DP runs only where every key stays below this; its int64 offset
# keys then lie in (-2**62, 0], so each sum it forms is exact.
_BATCH_KEY_LIMIT = 2 ** 62


class AlignmentCosts(_Record):
    """Turn-marker insert/delete cost in exact integer milli-units."""

    st_cost_milli: int = 1100

    def __post_init__(self) -> None:
        # an exact int keeps the DP's packed cell keys exact; bool is not a cost
        if type(self.st_cost_milli) is not int or self.st_cost_milli < 1000:
            raise ValueError(f"turn-marker cost must be an int >= 1000 milli, "
                             f"got {self.st_cost_milli!r}")

    @classmethod
    def from_k(cls, k) -> "AlignmentCosts":
        """The costs for a turn-marker cost ``k`` >= 1, a number or its text.

        ``k`` follows the rule ``metrics._ms`` applies to seconds: finite,
        below 10**12 and with at most 3 decimal places, so its milli-units
        are exact.
        """
        try:
            if isinstance(k, bool):  # float() would read it as 0 or 1
                raise TypeError
            # an int goes to _ms as it is: one too large for a float fails its bound
            value = k if isinstance(k, int) else float(k)
        except (TypeError, ValueError):
            raise ValueError(f"k is not a number: {k!r}") from None
        milli = _ms(value, "k", unit="")
        if milli < 1000:
            raise ValueError(f"k must be >= 1, got {k!r}")
        return cls(st_cost_milli=milli)


DEFAULT_COSTS = AlignmentCosts.from_k("1.1")


class OpKind(str, Enum):
    MATCH = "match"
    WORD_SUB = "word_sub"
    INSERT = "insert"
    DELETE = "delete"


class EditOp(_Record):
    kind: OpKind
    ref_index: int | None = None
    hyp_index: int | None = None

    def __post_init__(self) -> None:
        # a str kind becomes its member (it would fail the `is` tests); an unknown one raises
        object.__setattr__(self, "kind", OpKind(self.kind))
        if self.kind in (OpKind.MATCH, OpKind.WORD_SUB):
            ok = self.ref_index is not None and self.hyp_index is not None
        elif self.kind is OpKind.INSERT:
            ok = self.ref_index is None and self.hyp_index is not None
        else:
            ok = self.ref_index is not None and self.hyp_index is None
        if not ok:
            raise ValueError(f"bad index combination for {self.kind}: {self}")


class ErrorCounts(_Record):
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


class Alignment(_Record):
    ops: tuple[EditOp, ...]
    cost_milli: int
    counts: ErrorCounts


def _key_rows(ref_text: Sequence[str | None], hyp_text: Sequence[str | None],
              st_cost: int, keep_rows: bool) -> list[list[int]]:
    """Key rows of the alignment DP: all n+1 rows when ``keep_rows``, else only the last.

    Ties go Match on equal text, then Delete, then Insert, then WordSub;
    ``align`` replays that order.
    """
    # key = cost_milli * scale + turn errors; turn errors <= n + m < scale,
    # so comparing keys compares (cost, turn errors) in that order.
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
        if keep_rows:
            rows.append(cur)
    return rows if keep_rows else [prev]


def _batch_keys(ref_text: Sequence[str | None],
                hyp_texts: Sequence[Sequence[str | None]], st_cost: int) -> list[int] | None:
    """``_key_rows``'s final key of each hypothesis, from one numpy DP over them all.

    Row i holds offset keys ``q = key - ins - D_i``: ``ins`` is each
    hypothesis's insert chain (the sum of its first j insert steps) and
    ``D_i`` the sum of the delete steps of reference rows 1..i.  A delete
    then adds 0 and the insert chain is a plain prefix minimum, so each
    reference row is three in-place calls on (H, W+1)-sized buffers: add the
    diagonal steps, take the minimum with the row above, accumulate the
    minimum along the row.  Deleting everything and then inserting everything
    bounds every key, so ``q <= 0``; a key is >= 0, so ``q >= -(ins + D_i)``,
    which the 2**62 guard bounds.  ``ins`` and ``D_n`` are added back once,
    at the end, in Python ints.

    None when numpy is not loaded, or when the int64 DP would not be exact
    or has nothing to do: an empty reference, no hypothesis token at all, or
    a key that could reach 2**62.
    """
    np = sys.modules.get("numpy")
    n = len(ref_text)
    lengths = [len(h) for h in hyp_texts]
    width = max(lengths, default=0)
    # one common scale; turn errors <= n + width < scale still, so key order is unchanged
    scale = n + width + 1
    if (np is None or not n or not width
            or (n + width) * (max(st_cost, WORD_COST_MILLI) * scale + 1) >= _BATCH_KEY_LIMIT):
        return None
    word_step = WORD_COST_MILLI * scale
    turn_step = st_cost * scale + 1
    # hypothesis tokens as codes: a word's vocabulary index, -1 the turn, -2 padding
    vocab = {}
    codes = np.full((len(hyp_texts), width), -2, dtype=np.int64)
    for row, hyp in zip(codes, hyp_texts):
        row[:len(hyp)] = [-1 if h is None else vocab.setdefault(h, len(vocab)) for h in hyp]
    # Diagonal steps minus the delete and the insert step, so a delete then an
    # insert adds 0: a forbidden substitution gets that 0 and never wins.
    # Padding steps like a word; no real column reads a padded one.
    turn_col = codes == -1
    word_match = -2 * word_step
    word_sub = np.where(turn_col, 0, -word_step)
    turn_row = np.where(turn_col, -2 * turn_step, 0)
    q = np.zeros((len(hyp_texts), width + 1), dtype=np.int64)
    diag = np.empty((len(hyp_texts), width), dtype=np.int64)
    for r in ref_text:
        if r is None:
            step = turn_row
        else:
            code = vocab.get(r)
            step = word_sub if code is None else np.where(codes == code, word_match, word_sub)
        # match or substitute, then delete; on equal text the match is the
        # minimum, the lemma _key_rows's forced match rests on
        np.add(q[:, :-1], step, out=diag)
        np.minimum(q[:, 1:], diag, out=q[:, 1:])
        # the insert chain
        np.minimum.accumulate(q, axis=1, out=q)
    # a sequence's chain of steps: a word step per token, plus the extra of each turn
    extra = turn_step - word_step
    deletes = n * word_step + ref_text.count(None) * extra
    keys = []
    for offset, hyp in zip(q[np.arange(len(hyp_texts)), lengths].tolist(), hyp_texts):
        key = offset + deletes + len(hyp) * word_step + hyp.count(None) * extra
        cost, turns = divmod(key, scale)
        keys.append(cost * (n + len(hyp) + 1) + turns)  # its own scale, as _counts_from_key reads it
    return keys


def _counts_from_key(key: int, ref_text: Sequence[str | None],
                     hyp_text: Sequence[str | None], st_cost: int) -> tuple[int, ErrorCounts]:
    """(cost_milli, error counts) from the final DP key.

    Every turn is matched, inserted (FA) or deleted (FR), and every word
    edit costs WORD_COST_MILLI, so the final key fixes all four counts.
    """
    cost, turn_errors = divmod(key, len(ref_text) + len(hyp_text) + 1)
    hyp_turns = hyp_text.count(None)
    fa = (turn_errors + hyp_turns - ref_text.count(None)) // 2
    # by position, once per hypothesis aligned: word_errors, st_insertions,
    # st_deletions, st_correct
    return cost, ErrorCounts((cost - st_cost * turn_errors) // WORD_COST_MILLI,
                             fa, turn_errors - fa, hyp_turns - fa)


def align_counts(reference: Sequence[Token], hypothesis: Sequence[Token],
                 costs: AlignmentCosts = DEFAULT_COSTS) -> ErrorCounts:
    """``align(reference, hypothesis, costs).counts``, read from the DP's last row, no path."""
    ref_text = [t.text for t in as_token_seq(reference)]
    hyp_text = [t.text for t in as_token_seq(hypothesis)]
    key = _key_rows(ref_text, hyp_text, costs.st_cost_milli, keep_rows=False)[-1][-1]
    return _counts_from_key(key, ref_text, hyp_text, costs.st_cost_milli)[1]


def align_counts_batch(reference: Sequence[Token], hypotheses: Iterable[Sequence[Token]],
                       costs: AlignmentCosts = DEFAULT_COSTS) -> list[ErrorCounts]:
    """``align_counts`` of each hypothesis against ``reference``, in order.

    One batched numpy DP over the whole list when numpy is already loaded and
    the batch is exact (see the module docstring); else one pure DP per
    hypothesis.  Both give the same counts.
    """
    return _counts_batch(as_token_seq(reference), [as_token_seq(h) for h in hypotheses],
                         costs.st_cost_milli)


def _counts_batch(reference: TokenSeq, hypotheses: Sequence[TokenSeq],
                  st_cost: int) -> list[ErrorCounts]:
    """``align_counts_batch`` of token tuples its caller has already checked."""
    ref_text = [t.text for t in reference]
    hyp_texts = [[t.text for t in h] for h in hypotheses]
    keys = _batch_keys(ref_text, hyp_texts, st_cost)
    if keys is None:
        keys = [_key_rows(ref_text, h, st_cost, keep_rows=False)[-1][-1] for h in hyp_texts]
    return [_counts_from_key(key, ref_text, h, st_cost)[1] for key, h in zip(keys, hyp_texts)]


def align(reference: Sequence[Token], hypothesis: Sequence[Token],
          costs: AlignmentCosts = DEFAULT_COSTS) -> Alignment:
    """Optimal constrained alignment of ``hypothesis`` against ``reference``.

    Total function: empty sequences are allowed and align at cost 0.
    """
    ref_text = [t.text for t in as_token_seq(reference)]
    hyp_text = [t.text for t in as_token_seq(hypothesis)]
    rows = _key_rows(ref_text, hyp_text, costs.st_cost_milli, keep_rows=True)
    # Walk back from the final cell, taking at each cell the op the DP chose
    # there.  Row 0 and column 0 sum the token steps, so they give each
    # token's delete or insert step, and on row 0 or column 0 the Insert or
    # Delete test always holds.
    ops = []
    i, j = len(ref_text), len(hyp_text)
    # by position, once per op of the path: kind, ref_index, hyp_index
    while i or j:
        key = rows[i][j]
        if i and j and ref_text[i - 1] == hyp_text[j - 1]:
            ops.append(EditOp(OpKind.MATCH, i - 1, j - 1))
            i -= 1
            j -= 1
        elif i and rows[i - 1][j] + rows[i][0] - rows[i - 1][0] == key:
            ops.append(EditOp(OpKind.DELETE, i - 1, None))
            i -= 1
        elif j and rows[i][j - 1] + rows[0][j] - rows[0][j - 1] == key:
            ops.append(EditOp(OpKind.INSERT, None, j - 1))
            j -= 1
        else:
            ops.append(EditOp(OpKind.WORD_SUB, i - 1, j - 1))
            i -= 1
            j -= 1
    ops.reverse()
    cost, counts = _counts_from_key(rows[-1][-1], ref_text, hyp_text, costs.st_cost_milli)
    return Alignment(ops=tuple(ops), cost_milli=cost, counts=counts)
