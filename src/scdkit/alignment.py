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

One recurrence, two executions, both on offset keys: each key less its
row's delete chain and its column's insert chain, so a delete or an insert
adds 0 and every offset is <= 0.  Both hand back the final (cost_milli,
turn errors), from which ``_counts`` reads all four counts.  The
pure-Python execution, ``_key_rows``, aligns one pair and is what ``align``
and ``align_counts`` run.  ``_batch_keys`` aligns a whole N-best list
(``risk.hypothesis_errors``) in one numpy DP of three in-place calls per
reference row, but only when numpy is already loaded: this module never
imports it, so ``scd risk``, ``score``, ``align`` and ``segment`` start
without it (the import costs more than the batch saves on one such run).
Where numpy is not loaded, or a key could reach 2**62 and int64 would not
be exact, each hypothesis gets the pure execution.  Both give identical
results, so the counts never depend on which one ran, and both equal the
keys of the earlier forced-match DP kept as the test oracle
(``tests/_alignment_oracle.py``, ``key_rows_oracle``).
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from enum import Enum

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
        if type(self.kind) is not OpKind:
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


def _chain(text: Sequence[str | None], word_step: int, turn_step: int) -> int:
    """The sum of a sequence's delete (or insert) steps: one step per token."""
    return len(text) * word_step + text.count(None) * (turn_step - word_step)


def _key_rows(ref_text: Sequence[str | None], hyp_text: Sequence[str | None],
              st_cost: int, keep_rows: bool) -> tuple[list[list[int]], tuple[int, int]]:
    """Offset-key rows of the alignment DP (all n+1 when ``keep_rows``, else
    only the last) and its final (cost_milli, turn errors).

    Row i holds ``q = key - ins_j - D_i``: ``ins_j`` is the hypothesis's
    insert chain (the sum of its first j insert steps) and ``D_i`` the sum of
    the delete steps of reference rows 1..i, so row 0 and column 0 are 0, a
    delete or an insert adds 0, and each cell is one add and two compares.
    ``align`` walks back through equal keys in the tie order Match on equal
    text, then Delete, then Insert, then WordSub.
    """
    # key = cost_milli * scale + turn errors; turn errors <= n + m < scale,
    # so comparing keys compares (cost, turn errors) in that order.
    scale = len(ref_text) + len(hyp_text) + 1
    word_step = WORD_COST_MILLI * scale
    turn_step = st_cost * scale + 1
    # Diagonal steps less the delete and the insert step, one list per
    # reference token: a word substitutes for a word and matches an equal
    # one, a turn matches a turn.  A forbidden substitution gets 0, the
    # delete-then-insert it can never beat.
    word_row = [0 if h is None else -word_step for h in hyp_text]
    positions = {}
    for j, h in enumerate(hyp_text):
        positions.setdefault(h, []).append(j)
    row_steps = {None: [-2 * turn_step if h is None else 0 for h in hyp_text]}
    q = [0] * (len(hyp_text) + 1)
    rows = [q[:]]
    for r in ref_text:
        steps = row_steps.get(r)
        if steps is None:
            # a word absent from the hypothesis shares word_row; a present one patches a copy
            steps = word_row
            matches = positions.get(r)
            if matches:
                steps = word_row.copy()
                for j in matches:
                    steps[j] = -2 * word_step
            row_steps[r] = steps
        # q is updated in place: until cell j is written, q[j] is the row
        # above.  On equal text diag + s is the minimum, so the plain minimum
        # gives the keys of a DP that forces the match.
        diag = left = 0
        for j, s in enumerate(steps, 1):
            up = q[j]
            d = diag + s
            if up < d:
                d = up
            if left < d:
                d = left
            q[j] = left = d
            diag = up
        if keep_rows:
            rows.append(q[:])
    key = q[-1] + _chain(ref_text, word_step, turn_step) + _chain(hyp_text, word_step, turn_step)
    return (rows if keep_rows else [q]), divmod(key, scale)


def _batch_keys(ref_text: Sequence[str | None], hyp_texts: Sequence[Sequence[str | None]],
                st_cost: int) -> list[tuple[int, int]] | None:
    """``_key_rows``'s final (cost_milli, turn errors) of each hypothesis, in one numpy DP.

    It runs ``_key_rows``'s offset-key recurrence on every hypothesis at
    once.  A delete adds 0 and the insert chain is a plain prefix minimum,
    so each reference row is three in-place calls on (H, W+1)-sized
    buffers: add the diagonal steps, take the minimum with the row above,
    accumulate the minimum along the row.  Deleting everything and then
    inserting everything bounds every key, so ``q <= 0``; a key is >= 0, so
    ``q >= -(ins_j + D_i)``, which the 2**62 guard bounds.  ``ins_m`` and
    ``D_n`` are added back once, at the end, in Python ints.

    None when numpy is not loaded, or when a key could reach 2**62, where
    the int64 DP would not be exact.
    """
    np = sys.modules.get("numpy")
    n = len(ref_text)
    lengths = [len(h) for h in hyp_texts]
    width = max(lengths, default=0)
    # one common scale; turn errors <= n + width < scale still, so key order is unchanged
    scale = n + width + 1
    if np is None or (n + width) * (max(st_cost, WORD_COST_MILLI) * scale + 1) >= _BATCH_KEY_LIMIT:
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
        # minimum, as in _key_rows
        np.add(q[:, :-1], step, out=diag)
        np.minimum(q[:, 1:], diag, out=q[:, 1:])
        # the insert chain
        np.minimum.accumulate(q, axis=1, out=q)
    deletes = _chain(ref_text, word_step, turn_step)
    return [divmod(offset + deletes + _chain(hyp, word_step, turn_step), scale)
            for offset, hyp in zip(q[np.arange(len(hyp_texts)), lengths].tolist(), hyp_texts)]


def _counts(cost: int, turn_errors: int, ref_text: Sequence[str | None],
            hyp_text: Sequence[str | None], st_cost: int) -> ErrorCounts:
    """The error counts of a pair from its DP's final (cost_milli, turn errors).

    Every turn is matched, inserted (FA) or deleted (FR), and every word
    edit costs WORD_COST_MILLI, so those two fix all four counts.
    """
    hyp_turns = hyp_text.count(None)
    fa = (turn_errors + hyp_turns - ref_text.count(None)) // 2
    # by position, once per hypothesis aligned: word_errors, st_insertions,
    # st_deletions, st_correct
    return ErrorCounts((cost - st_cost * turn_errors) // WORD_COST_MILLI,
                       fa, turn_errors - fa, hyp_turns - fa)


def align_counts(reference: Sequence[Token], hypothesis: Sequence[Token],
                 costs: AlignmentCosts = DEFAULT_COSTS) -> ErrorCounts:
    """``align(reference, hypothesis, costs).counts``, read from the DP's last row, no path."""
    ref_text = [t.text for t in as_token_seq(reference)]
    hyp_text = [t.text for t in as_token_seq(hypothesis)]
    final = _key_rows(ref_text, hyp_text, costs.st_cost_milli, keep_rows=False)[1]
    return _counts(*final, ref_text, hyp_text, costs.st_cost_milli)


def _counts_batch(reference: TokenSeq, hypotheses: Sequence[TokenSeq],
                  st_cost: int) -> list[ErrorCounts]:
    """``align_counts`` of each hypothesis, in order, for token tuples its
    caller has already checked: one ``_batch_keys`` DP over the whole list,
    else one ``_key_rows`` DP per hypothesis."""
    ref_text = [t.text for t in reference]
    hyp_texts = [[t.text for t in h] for h in hypotheses]
    finals = _batch_keys(ref_text, hyp_texts, st_cost)
    if finals is None:
        finals = [_key_rows(ref_text, h, st_cost, keep_rows=False)[1] for h in hyp_texts]
    return [_counts(*final, ref_text, h, st_cost) for final, h in zip(finals, hyp_texts)]


def align(reference: Sequence[Token], hypothesis: Sequence[Token],
          costs: AlignmentCosts = DEFAULT_COSTS) -> Alignment:
    """Optimal constrained alignment of ``hypothesis`` against ``reference``.

    Total function: empty sequences are allowed and align at cost 0.
    """
    ref_text = [t.text for t in as_token_seq(reference)]
    hyp_text = [t.text for t in as_token_seq(hypothesis)]
    rows, (cost, turns) = _key_rows(ref_text, hyp_text, costs.st_cost_milli, keep_rows=True)
    # Walk back from the final cell, taking at each cell the op the DP chose
    # there.  A delete or an insert leaves an offset key unchanged, and row 0
    # and column 0 are all 0, so on them the Insert or Delete test always holds.
    ops = []
    i, j = len(ref_text), len(hyp_text)
    # by position, once per op of the path: kind, ref_index, hyp_index
    while i or j:
        q = rows[i][j]
        if i and j and ref_text[i - 1] == hyp_text[j - 1]:
            ops.append(EditOp(OpKind.MATCH, i - 1, j - 1))
            i -= 1
            j -= 1
        elif i and rows[i - 1][j] == q:
            ops.append(EditOp(OpKind.DELETE, i - 1, None))
            i -= 1
        elif j and rows[i][j - 1] == q:
            ops.append(EditOp(OpKind.INSERT, None, j - 1))
            j -= 1
        else:
            ops.append(EditOp(OpKind.WORD_SUB, i - 1, j - 1))
            i -= 1
            j -= 1
    ops.reverse()
    return Alignment(ops=tuple(ops), cost_milli=cost,
                     counts=_counts(cost, turns, ref_text, hyp_text, costs.st_cost_milli))
