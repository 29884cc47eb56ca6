"""Closed time intervals and normalized interval sets.

Interval sets hold sorted, pairwise-disjoint closed intervals.
Normalization merges overlapping or touching intervals, which absorbs a
zero-length point lying inside or on the boundary of another interval;
standalone zero-length points are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


@dataclass(frozen=True)
class Interval:
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def intersects(self, start: float, end: float) -> bool:
        """Closed-interval intersection; shared endpoints count."""
        return max(self.start, start) <= min(self.end, end)

    def overlap(self, other: "Interval") -> float:
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))


class IntervalSet:
    """Immutable normalized set of closed intervals."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable = ()):
        items = [iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals]
        items.sort(key=lambda iv: (iv.start, iv.end))
        merged: list = []
        for iv in items:
            if merged and iv.start <= merged[-1].end:
                last = merged[-1]
                if iv.end > last.end:
                    merged[-1] = Interval(last.start, iv.end)
            else:
                merged.append(iv)
        self._intervals: Tuple[Interval, ...] = tuple(merged)

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return self._intervals

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = ", ".join(f"[{iv.start}, {iv.end}]" for iv in self._intervals)
        return f"IntervalSet({body})"

    @property
    def total_duration(self) -> float:
        return sum(iv.duration for iv in self._intervals)

    def intersects(self, start: float, end: float) -> bool:
        return any(iv.intersects(start, end) for iv in self._intervals)
