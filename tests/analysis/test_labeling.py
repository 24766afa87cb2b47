"""Unit tests for retransmission / out-of-sequence classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import labeling
from repro.analysis.labeling import (
    KIND_DOWNSTREAM,
    KIND_NEW,
    KIND_REORDERING,
    KIND_UPSTREAM,
    label_connection,
)

from tests.analysis.helpers import TraceBuilder


def in_order_connection():
    builder = TraceBuilder().handshake()
    t = 20_000
    for i in range(6):
        builder.data(t + i * 200, i * 1400, 1400)
    builder.ack(30_000, 6 * 1400)
    return builder.build()


class TestCleanStream:
    def test_all_new(self):
        result = label_connection(in_order_connection())
        assert result.count(KIND_NEW) == 6
        assert not result.retransmissions()


class TestDownstreamLoss:
    def test_seen_bytes_resent(self):
        """A segment seen at the tap and later resent = downstream loss."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_200, 1400, 1400)  # seen at tap, lost after tap
        builder.ack(21_000, 1400)  # receiver only got the first
        builder.data(320_000, 1400, 1400)  # RTO retransmission
        builder.ack(321_000, 2800)
        conn = builder.build()
        result = label_connection(conn)
        assert result.count(KIND_DOWNSTREAM) == 1
        label = result.by_kind(KIND_DOWNSTREAM)[0]
        assert label.trigger_time_us == 20_200  # original transmission
        assert label.recovery_time_us == 321_000

    def test_recovery_covers_ack(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 0)  # dupack-ish; no progress
        builder.data(320_000, 0, 1400)  # resend
        builder.ack(321_000, 1400)
        result = label_connection(builder.build())
        (retx,) = result.retransmissions()
        assert retx.kind == KIND_DOWNSTREAM
        assert retx.recovery_time_us == 321_000


class TestUpstreamLoss:
    def test_unseen_gap_filled_late(self):
        """A hole at the tap filled much later = upstream loss."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        # Segment [1400, 2800) was dropped before the tap: never seen.
        builder.data(20_400, 2800, 1400)
        builder.data(20_600, 4200, 1400)
        builder.ack(21_000, 1400)
        builder.ack(21_100, 1400)
        builder.ack(21_200, 1400)
        builder.data(50_000, 1400, 1400)  # retransmission fills the hole
        builder.ack(51_000, 5600)
        result = label_connection(builder.build())
        assert result.count(KIND_UPSTREAM) == 1
        label = result.by_kind(KIND_UPSTREAM)[0]
        # Triggered when the gap became visible (first packet past it).
        assert label.trigger_time_us == 20_400
        assert label.recovery_time_us == 51_000

    def test_reordering_not_loss(self):
        """A gap filled immediately by an earlier-sent packet = reordering."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400, ip_id=100)
        builder.data(20_100, 2800, 1400, ip_id=102)  # overtook its sibling
        builder.data(20_120, 1400, 1400, ip_id=101)  # arrives 20us later
        builder.ack(21_000, 4200)
        result = label_connection(builder.build())
        assert result.count(KIND_REORDERING) == 1
        assert result.count(KIND_UPSTREAM) == 0

    def test_late_fill_is_loss_even_with_early_ip_id(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400, ip_id=100)
        builder.data(20_100, 2800, 1400, ip_id=102)
        # Arrives 300ms later: beyond any plausible reordering window.
        builder.data(320_000, 1400, 1400, ip_id=101)
        builder.ack(321_000, 4200)
        result = label_connection(builder.build())
        assert result.count(KIND_UPSTREAM) == 1

    def test_quick_fill_with_later_ip_id_is_retransmission(self):
        """Fast retransmit can fill a gap quickly, but its IP ID is new."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400, ip_id=100)
        builder.data(20_100, 2800, 1400, ip_id=102)
        builder.data(20_120, 1400, 1400, ip_id=110)  # sent after the gap
        builder.ack(21_000, 4200)
        result = label_connection(builder.build())
        assert result.count(KIND_UPSTREAM) == 1


class TestMixed:
    def test_counts_are_disjoint(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_100, 1400, 1400)
        builder.data(20_200, 4200, 1400)  # gap at [2800, 4200)
        builder.ack(21_000, 2800)
        builder.data(50_000, 2800, 1400)  # upstream-loss fill
        builder.data(51_000, 4200, 1400)  # downstream-style resend
        builder.ack(52_000, 5600)
        result = label_connection(builder.build())
        total = sum(
            result.count(k)
            for k in (KIND_NEW, KIND_UPSTREAM, KIND_DOWNSTREAM, KIND_REORDERING)
        )
        assert total == len(result.labels) == 5
        assert result.count(KIND_UPSTREAM) == 1
        assert result.count(KIND_DOWNSTREAM) == 1


class LinearHoles:
    """The original hole list: a linear scan per lookup, and a filled
    hole's pieces appended at the end."""

    def __init__(self):
        self.holes = []

    def open(self, start, end, created, ip_id):
        self.holes.append([start, end, created, ip_id])

    def find(self, seq):
        for at, hole in enumerate(self.holes):
            if hole[0] <= seq < hole[1]:
                return at
        return None

    def fill(self, at, fill_start, fill_end):
        start, end, created, ip_id = self.holes.pop(at)
        if fill_start > start:
            self.holes.append([start, fill_start, created, ip_id])
        if fill_end < end:
            self.holes.append([fill_end, end, created, ip_id])


#: (relative sequence, length, time step, IP ID step) of data packets:
#: new data, jumps past holes, fills, overlaps and plain resends.
segments = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4_000),
        st.integers(min_value=-3, max_value=5),
    ),
    max_size=60,
)


def _labels(connection):
    return [
        (l.packet.index, l.kind, l.trigger_time_us, l.recovery_time_us)
        for l in label_connection(connection).labels
    ]


@given(steps=segments)
@settings(max_examples=200, deadline=None)
def test_sorted_holes_label_like_the_linear_scan(steps):
    """Bisection over sorted holes == the linear hole scan, label by
    label, on streams full of holes filled in every order."""
    builder = TraceBuilder().handshake()
    t = 20_000
    ip_id = 1_000
    for unit, length, dt, id_step in steps:
        t += dt
        ip_id += id_step
        builder.data(t, unit * 100, length * 100, ip_id=ip_id & 0xFFFF)
        if dt % 3 == 0:
            builder.ack(t + 500, unit * 100)
    connection = builder.build()
    sorted_labels = _labels(connection)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(labeling, "_Holes", LinearHoles)
        assert _labels(connection) == sorted_labels


@given(
    opens=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=1, max_value=30),
        ),
        min_size=1,
        max_size=20,
    ),
    fills=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=700),
            st.integers(min_value=1, max_value=40),
        ),
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_holes_find_and_fill_match_the_linear_scan(opens, fills):
    fast, slow = labeling._Holes(), LinearHoles()
    top = 0
    for number, (skip, width) in enumerate(opens):
        start = top + skip
        for holes in (fast, slow):
            holes.open(start, start + width, number, number)
        top = start + width
    for seq, length in fills:
        at_fast, at_slow = fast.find(seq), slow.find(seq)
        assert (at_fast is None) == (at_slow is None)
        if at_fast is None:
            continue
        assert fast.holes[at_fast] == slow.holes[at_slow]
        fast.fill(at_fast, seq, seq + length)
        slow.fill(at_slow, seq, seq + length)
        assert fast.holes == sorted(slow.holes)
        assert fast.starts == [hole[0] for hole in fast.holes]
