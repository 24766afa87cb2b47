"""Property-based tests for TimeRangeSet set-algebra laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeranges import TimeRange, TimeRangeSet

# Keep coordinates small so overlaps are common.
spans = st.tuples(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
).map(lambda t: (min(t), max(t)))

range_sets = st.lists(spans, max_size=12).map(TimeRangeSet)


def covered(s: TimeRangeSet) -> set[int]:
    """Brute-force set of covered integer microsecond ticks."""
    ticks: set[int] = set()
    for rng in s:
        ticks.update(range(rng.start, rng.end))
    return ticks


@given(range_sets)
def test_invariants_sorted_coalesced_nonempty(s):
    prev_end = None
    for rng in s:
        assert rng.duration > 0
        if prev_end is not None:
            # Strictly separated: touching ranges must have coalesced.
            assert rng.start > prev_end
        prev_end = rng.end


@given(range_sets)
def test_size_matches_covered_ticks(s):
    assert s.size() == len(covered(s))


@given(range_sets, range_sets)
def test_union_semantics(a, b):
    assert covered(a.union(b)) == covered(a) | covered(b)


@given(range_sets, range_sets)
def test_intersection_semantics(a, b):
    assert covered(a.intersection(b)) == covered(a) & covered(b)


@given(range_sets, range_sets)
def test_difference_semantics(a, b):
    assert covered(a.difference(b)) == covered(a) - covered(b)


@given(range_sets, range_sets)
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(range_sets, range_sets)
def test_intersection_commutative(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(range_sets, range_sets, range_sets)
@settings(max_examples=50)
def test_distributivity(a, b, c):
    left = a.intersection(b.union(c))
    right = a.intersection(b).union(a.intersection(c))
    assert left == right


@given(range_sets)
def test_complement_partitions_window(s):
    window = (0, 250)
    comp = s.complement(window)
    clipped = s.clip(*window)
    assert comp.intersection(clipped).size() == 0
    assert comp.size() + clipped.size() == 250


@given(range_sets, st.integers(min_value=-100, max_value=100))
def test_shift_preserves_size_and_count(s, offset):
    shifted = s.shift(offset)
    assert shifted.size() == s.size()
    assert len(shifted) == len(s)


@given(range_sets)
def test_gaps_complement_relationship(s):
    span = s.span()
    if span is None:
        return
    assert s.gaps() == s.complement((span.start, span.end))


@given(range_sets, range_sets)
def test_de_morgan(a, b):
    window = (0, 250)
    lhs = a.union(b).complement(window)
    rhs = a.complement(window).intersection(b.complement(window))
    assert lhs == rhs


@given(st.lists(spans, max_size=12))
def test_insertion_order_irrelevant(items):
    forward = TimeRangeSet(items)
    backward = TimeRangeSet(reversed(items))
    assert forward == backward


@given(range_sets, spans)
def test_remove_then_query(s, span):
    start, end = span
    s.remove_span(start, end)
    for rng in s:
        assert rng.end <= start or rng.start >= end or start == end


# ---------------------------------------------------------------------- #
# One-pass construction and union against sequential adds                 #
# ---------------------------------------------------------------------- #
payloads = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=3),
)
payload_ranges = st.tuples(spans, payloads).map(
    lambda t: TimeRange(t[0][0], t[0][1], t[1])
)
payload_lists = st.lists(payload_ranges, max_size=14)


def extents(s: TimeRangeSet) -> list[tuple[int, int]]:
    return [(rng.start, rng.end) for rng in s]


def payload_items(ranges) -> list:
    """The multiset of payload items, flattened and sorted."""
    items = []
    for rng in ranges:
        if isinstance(rng.data, list):
            items.extend(rng.data)
        elif rng.data is not None:
            items.append(rng.data)
    return sorted(items)


def sequential(*groups) -> TimeRangeSet:
    result = TimeRangeSet()
    for group in groups:
        for rng in group:
            result.add(rng)
    return result


@given(payload_lists)
def test_one_pass_construction_equals_sequential_adds(items):
    built = TimeRangeSet(items)
    reference = sequential(items)
    assert extents(built) == extents(reference)
    assert payload_items(built) == payload_items(reference)
    # Only empty ranges lose their payloads.
    assert payload_items(built) == payload_items(r for r in items if r.duration)


@given(payload_lists, payload_lists, payload_lists)
def test_union_equals_sequential_adds(a_items, b_items, c_items):
    a, b, c = TimeRangeSet(a_items), TimeRangeSet(b_items), TimeRangeSet(c_items)
    merged = a.union(b, c)
    reference = sequential(a, b, c)
    assert extents(merged) == extents(reference)
    assert payload_items(merged) == payload_items(reference)
    assert payload_items(merged) == payload_items(list(a) + list(b) + list(c))


@given(payload_lists, st.lists(spans, max_size=6))
def test_add_span_equals_add(items, extra):
    by_span = TimeRangeSet(items)
    by_add = TimeRangeSet(items)
    for start, end in extra:
        by_span.add_span(start, end)
        by_add.add(TimeRange(start, end))
    assert extents(by_span) == extents(by_add)
    assert payload_items(by_span) == payload_items(by_add)


@given(payload_lists)
def test_untouched_single_ranges_keep_their_payload(items):
    """A range that coalesces with nothing comes out as it went in."""
    built = TimeRangeSet(items)
    for rng in built:
        alone = [r for r in items if r.duration and r.touches(rng)]
        if len(alone) == 1:
            assert rng.data is alone[0].data


# ---------------------------------------------------------------------- #
# TimeRange as a value                                                    #
# ---------------------------------------------------------------------- #
@given(spans, st.integers(min_value=0, max_value=50))
def test_range_pickles_at_every_protocol(span, packets):
    import pickle

    from repro.core.events import SeriesEventData

    rng = TimeRange(
        span[0], span[1],
        SeriesEventData(packets=packets, bytes=3 * packets, refs=[packets]),
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rng, protocol=protocol))
        assert type(back) is TimeRange
        assert (back.start, back.end) == (rng.start, rng.end)
        assert back.data == rng.data


def test_range_is_immutable():
    rng = TimeRange(1, 2)
    with pytest.raises(AttributeError):
        rng.start = 5
    with pytest.raises(AttributeError):
        rng.data = "x"


@given(spans, spans, payloads, payloads)
def test_equality_hash_and_order_ignore_data(first, second, data_a, data_b):
    a = TimeRange(first[0], first[1], data_a)
    a_other = TimeRange(first[0], first[1], data_b)
    b = TimeRange(second[0], second[1], data_b)
    assert a == a_other and not a != a_other
    assert hash(a) == hash(a_other)
    assert (a == b) == (first == second)
    assert (a < b) == (first < second)
    assert (a <= b) == (first <= second)
    assert (a > b) == (first > second)
    assert (a >= b) == (first >= second)
    assert sorted([b, a]) == sorted([TimeRange(*second), TimeRange(*first)])


def test_range_is_not_equal_to_a_plain_tuple():
    assert TimeRange(1, 2) != (1, 2, None)
    assert (1, 2, None) != TimeRange(1, 2)


# ---------------------------------------------------------------------- #
# overlapping(): bisect-bounded against the linear filter                 #
# ---------------------------------------------------------------------- #
@given(range_sets, st.integers(min_value=-5, max_value=205),
       st.integers(min_value=0, max_value=30))
def test_overlapping_matches_linear_filter(s, start, length):
    end = start + length
    expected = [rng for rng in s if rng.overlaps(TimeRange(start, end))]
    assert s.overlapping(start, end) == expected


@given(range_sets)
def test_overlapping_at_every_range_boundary(s):
    """Touching, zero-length and boundary queries, exhaustively."""
    points = sorted({p for rng in s for p in (rng.start, rng.end)})
    probes = sorted({q for p in points for q in (p - 1, p, p + 1)})
    for start in probes:
        for end in (start, start + 1):
            expected = [rng for rng in s if rng.overlaps(TimeRange(start, end))]
            assert s.overlapping(start, end) == expected


def test_zero_length_query_inside_a_range_overlaps():
    s = TimeRangeSet([(0, 10), (20, 30)])
    assert s.overlapping(5, 5) == [TimeRange(0, 10)]
    assert s.overlapping(0, 0) == []  # at a start: nothing before it
    assert s.overlapping(10, 10) == []  # at an end: half-open
    assert s.overlapping(10, 20) == []  # the gap exactly
    assert s.overlapping(9, 21) == [TimeRange(0, 10), TimeRange(20, 30)]
    with pytest.raises(ValueError):
        s.overlapping(3, 2)
