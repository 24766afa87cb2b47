"""Ordered sets of time ranges — T-DAT's central data structure.

The paper (section III-A) represents every TCP behaviour as an *event
series*: "an ordered set of time durations, i.e., a special set container
in which each element is a continuous time duration".  Measuring the
delay a behaviour induces is then "equivalent to calculating the set
size", and new series are derived with set algebra
(``SmallAdvBndOut := AdvBndOut ∩ SmallAdv``).

:class:`TimeRange` is one half-open interval ``[start, end)`` in integer
microseconds, optionally carrying a reference back to the detailed trace
data (the paper's ``event_data`` field).  :class:`TimeRangeSet` is the
ordered, coalesced container with union / intersection / complement /
difference, total-size measurement, gap extraction and range queries.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter
from typing import Any

_new = tuple.__new__
_start_of = itemgetter(0)


class TimeRange(tuple):
    """A half-open time interval ``[start, end)`` in integer microseconds.

    ``data`` is the paper's ``event_data``: an arbitrary reference to the
    underlying trace detail (packet indices, byte counts, ...).  It is
    excluded from ordering, equality and hashing so that set algebra
    compares ranges purely by extent.

    A range is an immutable ``(start, end, data)`` tuple: the analyzer
    builds hundreds of thousands of them per capture, and a tuple costs
    a fraction of a frozen dataclass to create.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, data: Any = None) -> "TimeRange":
        if end < start:
            raise ValueError(f"end {end} precedes start {start}")
        return _new(cls, (start, end, data))

    start = property(itemgetter(0), doc="First covered microsecond.")
    end = property(itemgetter(1), doc="First microsecond past the range.")
    data = property(itemgetter(2), doc="The attached event data, or None.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimeRange):
            return self[0] == other[0] and self[1] == other[1]
        # A plain tuple is not a range, whatever its items.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash((self[0], self[1]))

    def __lt__(self, other: "TimeRange") -> bool:
        if not isinstance(other, TimeRange):
            return NotImplemented
        return (self[0], self[1]) < (other[0], other[1])

    def __le__(self, other: "TimeRange") -> bool:
        if not isinstance(other, TimeRange):
            return NotImplemented
        return (self[0], self[1]) <= (other[0], other[1])

    def __gt__(self, other: "TimeRange") -> bool:
        if not isinstance(other, TimeRange):
            return NotImplemented
        return (self[0], self[1]) > (other[0], other[1])

    def __ge__(self, other: "TimeRange") -> bool:
        if not isinstance(other, TimeRange):
            return NotImplemented
        return (self[0], self[1]) >= (other[0], other[1])

    @property
    def duration(self) -> int:
        """Length of the interval in microseconds."""
        return self[1] - self[0]

    def is_empty(self) -> bool:
        """True for a zero-length (degenerate) range."""
        return self[1] == self[0]

    def contains(self, instant: int) -> bool:
        """True if ``instant`` lies inside the half-open interval."""
        return self[0] <= instant < self[1]

    def overlaps(self, other: "TimeRange") -> bool:
        """True if the two half-open intervals share any instant."""
        return self[0] < other[1] and other[0] < self[1]

    def touches(self, other: "TimeRange") -> bool:
        """True if the intervals overlap or are exactly adjacent."""
        return self[0] <= other[1] and other[0] <= self[1]

    def intersect(self, other: "TimeRange") -> "TimeRange | None":
        """The overlapping part of two ranges, or None when disjoint.

        The intersection carries ``data`` from ``self`` (the left operand
        is considered the primary series in T-DAT's algebra rules).
        """
        start = max(self[0], other[0])
        end = min(self[1], other[1])
        if start >= end:
            return None
        return _new(TimeRange, (start, end, self[2]))

    def shift(self, offset: int) -> "TimeRange":
        """Translate the range by ``offset`` microseconds."""
        return _new(TimeRange, (self[0] + offset, self[1] + offset, self[2]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeRange({self[0]}, {self[1]})"


class TimeRangeSet:
    """An ordered set of non-overlapping, coalesced time ranges.

    Invariants maintained at all times:

    * ranges are sorted by ``start``;
    * no two stored ranges overlap or touch (touching ranges coalesce);
    * no stored range is empty.

    Coalescing merges ``data`` payloads into a list when both sides carry
    payloads, preserving the cross-reference back to raw trace events
    that the paper highlights as essential for drill-down inspection.
    The order of the items inside a merged list is unspecified.

    Build a series in one call, ``TimeRangeSet(ranges)``: it sorts and
    coalesces in a single pass.  :meth:`add` is for incremental callers
    that query the set between insertions.
    """

    __slots__ = ("_ranges", "_starts")

    def __init__(self, ranges: Iterable[TimeRange | tuple] = ()) -> None:
        self._ranges: list[TimeRange] = (
            _coalesce([
                item if isinstance(item, TimeRange) else _coerce(item)
                for item in ranges
            ])
            if ranges
            else []
        )
        self._starts: list[int] = [r[0] for r in self._ranges]

    @classmethod
    def _from_sorted(cls, ranges: list[TimeRange]) -> "TimeRangeSet":
        """Adopt a list already satisfying the class invariants.

        Callers must guarantee the ranges are sorted, non-empty and
        pairwise non-touching — the outputs of the merge-walk algebra
        below qualify; arbitrary input does not.
        """
        self = cls.__new__(cls)
        self._ranges = ranges
        self._starts = [r[0] for r in ranges]
        return self

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add(self, item: TimeRange | tuple) -> None:
        """Insert a range, coalescing with any overlapping/adjacent ones."""
        rng = item if isinstance(item, TimeRange) else _coerce(item)
        start, end, data = rng
        if end == start:
            return
        ranges = self._ranges
        starts = self._starts
        if not ranges or start > ranges[-1][1]:
            # Strictly after everything stored: plain append.
            ranges.append(rng)
            starts.append(start)
            return
        last = ranges[-1]
        if start >= last[0]:
            # Touches or overlaps only the final stored range.
            if end > last[1] or data is not None:
                ranges[-1] = _new(TimeRange, (
                    last[0], end if end > last[1] else last[1],
                    _merge_data(data, last[2]),
                ))
            return
        idx = bisect.bisect_left(starts, start)
        # A predecessor may touch/overlap the new range.
        if idx > 0 and ranges[idx - 1][1] >= start:
            idx -= 1
        if idx < len(ranges) and data is None:
            first = ranges[idx]
            if first[0] <= start and end <= first[1]:
                return  # already covered, nothing to attach
        merged_start, merged_end = start, end
        stop = idx
        count = len(ranges)
        payload = data
        items = None  # the merged payload list, once two payloads meet
        while stop < count and ranges[stop][0] <= merged_end:
            existing = ranges[stop]
            if existing[0] < merged_start:
                merged_start = existing[0]
            if existing[1] > merged_end:
                merged_end = existing[1]
            extra = existing[2]
            if extra is not None:
                if payload is None:
                    payload = extra
                elif items is None:
                    payload = items = _merge_data(payload, extra)
                else:
                    _extend_data(items, extra)
            stop += 1
        ranges[idx:stop] = [
            _new(TimeRange, (merged_start, merged_end, payload))
        ]
        starts[idx:stop] = [merged_start]

    def add_span(self, start: int, end: int, data: Any = None) -> None:
        """Convenience: insert ``[start, end)`` with optional payload."""
        ranges = self._ranges
        if data is None and ranges and start < end:
            last = ranges[-1]
            if last[0] <= start <= last[1]:
                # The commonest case (a stream advancing in order) costs
                # no range object unless the final range grows.
                if end > last[1]:
                    ranges[-1] = _new(TimeRange, (last[0], end, last[2]))
                return
        self.add(TimeRange(start, end, data))

    def remove_span(self, start: int, end: int) -> None:
        """Delete the interval ``[start, end)`` from the set."""
        if end <= start:
            return
        self._ranges = self._difference_ranges([TimeRange(start, end)])
        self._starts = [r[0] for r in self._ranges]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterator[TimeRange]:
        return iter(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeRangeSet):
            return NotImplemented
        return self._starts == other._starts and [
            r[1] for r in self._ranges
        ] == [r[1] for r in other._ranges]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"[{r[0]},{r[1]})" for r in self._ranges[:8])
        if len(self._ranges) > 8:
            inner += ", ..."
        return f"TimeRangeSet({inner})"

    @property
    def ranges(self) -> Sequence[TimeRange]:
        """The stored ranges as an immutable view (sorted, coalesced)."""
        return tuple(self._ranges)

    def size(self) -> int:
        """Total covered duration in microseconds (the paper's set size)."""
        return sum([r[1] - r[0] for r in self._ranges])

    def span(self) -> TimeRange | None:
        """The bounding range from first start to last end, or None."""
        if not self._ranges:
            return None
        return _new(TimeRange, (self._ranges[0][0], self._ranges[-1][1], None))

    def contains(self, instant: int) -> bool:
        """True if some stored range covers ``instant``."""
        return self.range_at(instant) is not None

    def range_at(self, instant: int) -> TimeRange | None:
        """The stored range covering ``instant``, or None."""
        idx = bisect.bisect_right(self._starts, instant) - 1
        if idx >= 0 and instant < self._ranges[idx][1]:
            return self._ranges[idx]
        return None

    def overlapping(self, start: int, end: int) -> list[TimeRange]:
        """All stored ranges intersecting the query window ``[start, end)``.

        A zero-length query counts as intersecting a range that holds it
        strictly after the range's start: ``[5, 5)`` meets ``[0, 10)``.
        """
        if end < start:
            raise ValueError(f"end {end} precedes start {start}")
        ranges = self._ranges
        # The last range starting at or before ``start`` is the only
        # candidate that may begin outside the window; later ones begin
        # inside it for as long as they start before ``end``.
        lo = bisect.bisect_right(self._starts, start) - 1
        if lo < 0 or ranges[lo][1] <= start:
            lo += 1
        hi = bisect.bisect_left(self._starts, end)
        return ranges[lo:hi]

    def durations(self) -> list[int]:
        """The individual range durations, in order.

        This is what the timer-gap detector histograms (paper Fig. 17).
        """
        return [r[1] - r[0] for r in self._ranges]

    def gaps(self) -> "TimeRangeSet":
        """The uncovered intervals *between* consecutive stored ranges."""
        ranges = self._ranges
        return TimeRangeSet._from_sorted([
            _new(TimeRange, (prev[1], nxt[0], None))
            for prev, nxt in zip(ranges, ranges[1:])
        ])

    # ------------------------------------------------------------------
    # Set algebra (paper rule 4: series := series ⊕ series ...)
    # ------------------------------------------------------------------
    def union(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set union of this series with ``others``."""
        merged = list(self._ranges)
        for other in others:
            merged += other._ranges
        return TimeRangeSet._from_sorted(_coalesce(merged))

    def intersection(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set intersection of this series with ``others``."""
        current = self._ranges
        for other in others:
            current = _intersect_sorted(current, other._ranges)
        if current is self._ranges:
            current = list(current)
        return TimeRangeSet._from_sorted(current)

    def difference(self, other: "TimeRangeSet") -> "TimeRangeSet":
        """Ranges of this series with ``other``'s coverage removed."""
        return TimeRangeSet._from_sorted(self._difference_ranges(other._ranges))

    def complement(self, within: TimeRange | tuple) -> "TimeRangeSet":
        """The uncovered portion of ``within``.

        The paper uses complements to turn "time TCP spends transmitting"
        into "inter-transmission gaps to be explained".
        """
        window = _coerce(within)
        return TimeRangeSet([window]).difference(self)

    def clip(self, start: int, end: int) -> "TimeRangeSet":
        """Restrict the series to the analysis window ``[start, end)``."""
        return self.intersection(TimeRangeSet([TimeRange(start, end)]))

    def shift(self, offset: int) -> "TimeRangeSet":
        """Translate every range by ``offset`` microseconds."""
        return TimeRangeSet._from_sorted([
            _new(TimeRange, (r[0] + offset, r[1] + offset, r[2]))
            for r in self._ranges
        ])

    def dilate(self, margin_us: int) -> "TimeRangeSet":
        """Expand every range by ``margin_us`` on both sides.

        Used to test for *coincidence* between series whose ranges abut
        rather than overlap (e.g. a loss-recovery period starting the
        instant a zero-window episode ends).
        """
        if margin_us < 0:
            raise ValueError(f"negative margin {margin_us}")
        return TimeRangeSet._from_sorted(_coalesce([
            _new(TimeRange, (r[0] - margin_us, r[1] + margin_us, r[2]))
            for r in self._ranges
        ]))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _difference_ranges(self, subtrahend: list[TimeRange]) -> list[TimeRange]:
        out: list[TimeRange] = []
        j = 0
        count = len(subtrahend)
        for rng in self._ranges:
            start, end, data = rng
            while j < count and subtrahend[j][1] <= start:
                j += 1
            cursor = start
            while j < count:
                sub = subtrahend[j]
                if sub[0] >= end:
                    break
                if sub[0] > cursor:
                    out.append(_new(TimeRange, (cursor, sub[0], data)))
                if sub[1] > cursor:
                    cursor = sub[1]
                if sub[1] >= end:
                    break
                j += 1
            if cursor == start:
                out.append(rng)  # untouched by the subtrahend
            elif cursor < end:
                out.append(_new(TimeRange, (cursor, end, data)))
        return out


def _intersect_sorted(
    left: list[TimeRange], right: list[TimeRange]
) -> list[TimeRange]:
    """Merge-intersect two sorted, coalesced range lists."""
    out: list[TimeRange] = []
    i = j = 0
    count_left, count_right = len(left), len(right)
    while i < count_left and j < count_right:
        left_start, left_end, data = left[i]
        right_start, right_end, _ = right[j]
        start = left_start if left_start > right_start else right_start
        end = left_end if left_end < right_end else right_end
        if start < end:
            out.append(_new(TimeRange, (start, end, data)))
        if left_end <= right_end:
            i += 1
        else:
            j += 1
    return out


def _coalesce(ranges: list[TimeRange]) -> list[TimeRange]:
    """Sort ``ranges`` in place by start and merge the ones that touch.

    One pass over the sorted list: a range that starts at or before the
    open group's end joins it.  Empty ranges are dropped, payloads
    included, as :meth:`TimeRangeSet.add` drops them.  A group of one
    keeps its range object as is.
    """
    ranges.sort(key=_start_of)
    out: list[TimeRange] = []
    group: TimeRange | None = None
    group_end = 0
    payload = None
    items = None  # the group's payload list, once two payloads meet
    for rng in ranges:
        start, end, data = rng
        if end == start:
            continue
        if group is not None and start <= group_end:
            if end > group_end:
                group_end = end
            if data is not None:
                if payload is None:
                    payload = data
                elif items is None:
                    payload = items = _merge_data(payload, data)
                else:
                    _extend_data(items, data)
            continue
        if group is not None:
            out.append(
                group
                if group_end == group[1] and payload is group[2]
                else _new(TimeRange, (group[0], group_end, payload))
            )
        group = rng
        group_end = end
        payload = data
        items = None
    if group is not None:
        out.append(
            group
            if group_end == group[1] and payload is group[2]
            else _new(TimeRange, (group[0], group_end, payload))
        )
    return out


def _coerce(item: TimeRange | tuple) -> TimeRange:
    if isinstance(item, TimeRange):
        return item
    return TimeRange(*item)


def _merge_data(data: Any, other: Any) -> Any:
    """The payload of two coalesced ranges.

    None when neither carries one, the one payload when only one does,
    and otherwise a new flat list of both sides' items.
    """
    if other is None:
        return data
    if data is None:
        return other
    items = list(data) if isinstance(data, list) else [data]
    _extend_data(items, other)
    return items


def _extend_data(items: list, data: Any) -> None:
    """Append one payload (a list payload contributes its items)."""
    if isinstance(data, list):
        items.extend(data)
    else:
        items.append(data)
