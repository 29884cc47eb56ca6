"""Token alphabet shared by alignment, risk, and the toy trainer.

A token is either a spoken word or the special speaker-turn marker that
separates two speakers' transcripts.  Word text is expected to be
case-folded at ingestion time (see :mod:`scdkit.dataio`), so token
equality is plain text equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

ST_TEXT = "<st>"


@dataclass(frozen=True)
class Token:
    """One alignment symbol: a word, or the turn marker when ``text`` is None."""

    text: Optional[str] = None

    def __post_init__(self) -> None:
        if self.text is not None:
            if not self.text:
                raise ValueError("word token needs non-empty text")
            if any(ch.isspace() for ch in self.text):
                raise ValueError(f"word token text contains whitespace: {self.text!r}")
            if self.text == ST_TEXT:
                raise ValueError(f"word token text is the reserved turn marker {ST_TEXT!r}")

    @property
    def is_turn(self) -> bool:
        return self.text is None

    def __str__(self) -> str:
        return ST_TEXT if self.text is None else self.text


SPEAKER_TURN = Token()

TokenSeq = Tuple[Token, ...]


def word(text: str) -> Token:
    return Token(text)


def as_token_seq(tokens: Sequence[Token]) -> TokenSeq:
    seq = tuple(tokens)
    for t in seq:
        if not isinstance(t, Token):
            raise TypeError(f"expected Token, got {type(t).__name__}")
    return seq


def seq_to_text(tokens: Sequence[Token]) -> str:
    """Space-join a token sequence back into transcript form."""
    return " ".join(str(t) for t in tokens)
