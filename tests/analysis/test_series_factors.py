"""Unit tests for series generation, step functions and factor vectors."""

import bisect
import random

import pytest

from repro.analysis.ackshift import shift_acks
from repro.analysis.factors import FACTORS, classify
from repro.analysis.flights import group_flights
from repro.analysis.labeling import label_connection
from repro.analysis.series import (
    SERIES_NAMES,
    FlightCycle,
    SeriesConfig,
    StepFunction,
    _flight_cycles,
    generate_series,
)

from tests.analysis.helpers import TraceBuilder


def shifted_series(conn, **kwargs):
    """Run the ACK shift first, as the full T-DAT pipeline does."""
    shift_acks(conn)
    return generate_series(conn, **kwargs)


def timer_gap_connection(gap_us=200_000, flights=10, rtt=9_000):
    """A sender emitting one small flight per timer tick."""
    builder = TraceBuilder().handshake(d1=1000, d2=rtt - 1000)
    t = 100_000
    seq = 0
    for _ in range(flights):
        builder.data(t, seq, 1400)
        builder.data(t + 150, seq + 1400, 1400)
        builder.ack(t + 1000, seq + 2800)
        seq += 2800
        t += gap_us
    return builder.build()


def window_bound_connection(window=16384, rtt=10_000, rounds=12):
    """A sender filling the advertised window every round trip."""
    builder = TraceBuilder().handshake(d1=500, d2=rtt - 500)
    t = 100_000
    seq = 0
    for _ in range(rounds):
        offset = 0
        while offset + 1400 <= window:
            builder.data(t + offset // 14, seq + offset, 1400)
            offset += 1400
        builder.ack(t + 1200, seq + offset, window=window)
        seq += offset
        t += rtt
    return builder.build()


class TestStepFunction:
    def test_initial_value(self):
        fn = StepFunction(initial=7)
        assert fn.value_at(100) == 7

    def test_value_lookup(self):
        fn = StepFunction()
        fn.add(10, 5)
        fn.add(20, 0)
        assert fn.value_at(9) == 0
        assert fn.value_at(10) == 5
        assert fn.value_at(19) == 5
        assert fn.value_at(25) == 0

    def test_same_time_overwrites(self):
        fn = StepFunction()
        fn.add(10, 5)
        fn.add(10, 8)
        assert fn.value_at(10) == 8

    def test_time_order_enforced(self):
        fn = StepFunction()
        fn.add(10, 5)
        with pytest.raises(ValueError):
            fn.add(5, 1)

    def test_ranges_where(self):
        fn = StepFunction()
        fn.add(10, 5)
        fn.add(20, 0)
        fn.add(30, 5)
        ranges = fn.ranges_where(lambda v: v > 0, 0, 40)
        assert [(r.start, r.end) for r in ranges] == [(10, 20), (30, 40)]

    def test_ranges_where_empty_window(self):
        fn = StepFunction()
        assert len(fn.ranges_where(lambda v: True, 10, 10)) == 0


class TestSeriesGeneration:
    def test_catalog_has_expected_series(self):
        conn = timer_gap_connection()
        result = generate_series(conn)
        for name in SERIES_NAMES:
            assert name in result.catalog, f"missing series {name}"

    def test_transmission_is_small_fraction(self):
        conn = timer_gap_connection()
        result = generate_series(conn)
        period = result.window.duration
        assert result.get("Transmission").size() < 0.05 * period

    def test_gaps_complement_transmission(self):
        conn = timer_gap_connection()
        result = generate_series(conn)
        gaps = result.get("InterTransmissionGaps")
        tx = result.get("Transmission")
        total = gaps.size() + tx.ranges.clip(
            result.window.start, result.window.end
        ).size()
        assert total == result.window.duration

    def test_send_app_limited_catches_timer_gaps(self):
        conn = timer_gap_connection(gap_us=200_000, flights=10)
        result = generate_series(conn)
        idle = result.get("SendAppLimited")
        # Nine inter-flight gaps of roughly (200ms - rtt).
        assert len(idle) >= 8
        ratio = idle.delay_ratio(result.window.duration)
        assert ratio > 0.8

    def test_window_bound_connection_is_adv_bound(self):
        conn = window_bound_connection()
        result = shifted_series(conn)
        adv = result.get("AdvBndOut")
        assert adv.delay_ratio(result.window.duration) > 0.5
        # 16KB max window minus outstanding is always < 3 MSS here and
        # the window sits at its max: the "large window" bound.
        large = result.get("LargeAdvBndOut")
        assert large.delay_ratio(result.window.duration) > 0.5
        assert result.get("SendAppLimited").delay_ratio(
            result.window.duration
        ) < 0.2

    def test_zero_window_series(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 1400, window=0)
        builder.ack(500_000, 1400, window=65535)
        builder.data(501_000, 1400, 1400)
        builder.ack(502_000, 2800)
        conn = builder.build()
        result = generate_series(conn)
        zero = result.get("ZeroAdvWindow")
        assert zero.size() >= 400_000

    def test_explicit_window_clips(self):
        conn = timer_gap_connection()
        result = generate_series(conn, window=(100_000, 300_000))
        assert result.window.duration == 200_000

    def test_requires_finalized_connection(self):
        from repro.analysis.profile import Connection

        conn = Connection(("a", 1, "b", 2))
        with pytest.raises(ValueError):
            generate_series(conn)


class TestFactors:
    def test_timer_connection_is_sender_app_limited(self):
        conn = timer_gap_connection()
        report = classify(generate_series(conn))
        assert report.major_groups() == ["sender"]
        assert report.major_factors()["sender"] == "bgp_sender_app"

    def test_window_connection_is_receiver_limited(self):
        conn = window_bound_connection()
        report = classify(shifted_series(conn))
        assert "receiver" in report.major_groups()
        assert report.major_factors()["receiver"] == "tcp_advertised_window"

    def test_vector_shapes(self):
        report = classify(generate_series(timer_gap_connection()))
        assert len(report.vector) == len(FACTORS) == 8
        assert len(report.group_vector) == 3
        assert all(0.0 <= r <= 1.0 for r in report.vector)
        assert all(0.0 <= r <= 1.0 for r in report.group_vector)

    def test_group_is_union_not_sum(self):
        report = classify(shifted_series(window_bound_connection()))
        sender_sum = sum(
            report.ratios[name]
            for name, (_, group) in FACTORS.items()
            if group == "sender"
        )
        assert report.group_ratios["sender"] <= sender_sum + 1e-9

    def test_unknown_when_nothing_major(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 1400)
        report = classify(generate_series(builder.build()))
        assert isinstance(report.is_unknown(), bool)

    def test_threshold_sensitivity(self):
        report = classify(generate_series(timer_gap_connection()))
        # The paper tests thresholds 0.3..0.5 without qualitative change.
        for threshold in (0.3, 0.4, 0.5):
            assert report.major_groups(threshold) == ["sender"]


def per_packet_flight_cycles(connection, rtt_us, gap_threshold_us):
    """The flight-cycle walk over per-packet objects, kept as the oracle.

    Flights are packet lists, and a flight's peak outstanding is the
    maximum over its packets of the flight's end sequence minus the ACK
    level at that packet's timestamp.
    """
    data = connection.data_packets()
    flights = group_flights(data, gap_threshold_us)
    pairs = sorted(
        (a.effective_time_us, connection.relative_ack(a))
        for a in connection.ack_packets()
    )
    ack_times = [t for t, _ in pairs]
    monotone, running = [], 0
    for _, value in pairs:
        running = max(running, value)
        monotone.append(running)

    def ack_level(time_us):
        idx = bisect.bisect_right(ack_times, time_us) - 1
        return monotone[idx] if idx >= 0 else 0

    cycles = []
    for i, flight in enumerate(flights):
        last_data = flight[-1].timestamp_us
        next_start = (
            flights[i + 1][0].timestamp_us if i + 1 < len(flights) else None
        )
        end_seq = max(connection.relative_seq(p) + p.payload_len for p in flight)
        start = bisect.bisect_left(ack_times, last_data)
        acked = next(
            (ack_times[j] for j in range(start, len(ack_times))
             if monotone[j] >= end_seq),
            None,
        )
        last_ack_before_next = None
        if next_start is not None:
            idx = bisect.bisect_right(ack_times, next_start) - 1
            if idx >= 0:
                last_ack_before_next = ack_times[idx]
        cycles.append(FlightCycle(
            start_us=flight[0].timestamp_us,
            last_data_us=last_data,
            end_us=next_start if next_start is not None else last_data + rtt_us,
            packets=len(flight),
            bytes=sum(p.payload_len for p in flight),
            peak_outstanding=max(
                end_seq - ack_level(p.timestamp_us) for p in flight
            ),
            acked_us=acked,
            next_start_us=next_start,
            last_ack_before_next_us=last_ack_before_next,
        ))
    return cycles


def reordered_flights_connection(seed=5, flights=12):
    """Flights whose packets are captured out of time order.

    Inside each flight a late-captured packet carries an earlier
    timestamp than its predecessor, and ACKs land between them, so the
    ACK level differs between a flight's first and earliest packet.
    """
    rng = random.Random(seed)
    builder = TraceBuilder().handshake()
    t = 100_000
    seq = 0
    acked = 0
    for _ in range(flights):
        first = t + rng.randrange(400, 900)
        builder.data(first, seq, 1400)
        builder.ack(t + 300, acked + rng.randrange(0, 2) * 1400)
        acked = max(acked, seq)
        builder.data(t, seq + 1400, 1400)  # earlier than its predecessor
        builder.data(first + 200, seq + 2800, 1400)
        builder.ack(first + 1500, seq + 4200)
        acked = seq + 4200
        seq += 4200
        t += rng.randrange(20_000, 60_000)
    return builder.build()


class TestFlightCycles:
    @pytest.mark.parametrize("make", [
        reordered_flights_connection,
        timer_gap_connection,
        window_bound_connection,
    ])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_index_walk_matches_per_packet_oracle(self, make, shifted):
        conn = make()
        if shifted:
            shift_acks(conn)
        for threshold in (1_000, 2_000, 30_000):
            assert _flight_cycles(
                conn, conn.data_packets(), conn.ack_packets(),
                conn.profile.rtt_us, gap_threshold_us=threshold,
            ) == per_packet_flight_cycles(conn, conn.profile.rtt_us, threshold)

    def test_peak_is_taken_at_the_earliest_packet(self):
        conn = reordered_flights_connection()
        cycles = _flight_cycles(
            conn, conn.data_packets(), conn.ack_packets(),
            conn.profile.rtt_us, gap_threshold_us=2_000,
        )
        # Each flight is the three data packets built together.
        assert [c.packets for c in cycles] == [3] * 12
        assert all(c.peak_outstanding > 0 for c in cycles)
