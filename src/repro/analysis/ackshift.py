"""Sniffer-location accommodation: shift ACK flights forward by d2_min.

The paper (section III-B1) rewrites the receiver-side capture into an
approximate sender-side trace.  For every *flight* of ACKs the per-ACK
``d2`` (ACK seen at the tap → released data seen at the tap) is
estimated and the whole flight shifted forward by the flight's minimum
d2, which is the most precise of its members: the ACKs that explicitly
free window space are answered within one sender turnaround, whereas
later ACKs in the flight could have arrived anywhere in a wide interval
without changing the packet arrivals.

When the capture is already sender-side (d2 ≈ 0) the step is a safe
no-op, as the paper requires.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.analysis.flights import flight_gap_threshold_us, group_flights
from repro.analysis.profile import Connection


@dataclass
class AckShiftStats:
    """What the shift step did, for reporting and tests."""

    flights: int = 0
    shifted_flights: int = 0
    total_shift_us: int = 0
    max_shift_us: int = 0


def shift_acks(
    connection: Connection,
    gap_threshold_us: int | None = None,
    max_reasonable_shift_us: int | None = None,
) -> AckShiftStats:
    """Annotate the connection's ACKs with shifted timestamps.

    Modifies ``shifted_timestamp_us`` on the ACK packets in place and
    returns summary statistics.  Data packets keep their timestamps.
    """
    stats = AckShiftStats()
    profile = connection.profile
    if profile is None:
        return stats
    if gap_threshold_us is None:
        gap_threshold_us = flight_gap_threshold_us(profile.rtt_us)
    if max_reasonable_shift_us is None:
        if profile.d2_us > 0:
            # The handshake gave a trustworthy tap->sender->tap delay;
            # anything much larger is application think time leaking
            # into the estimate (app-paced flows release data on their
            # own schedule, not the ACKs').
            max_reasonable_shift_us = int(profile.d2_us * 1.5) + 10_000
        else:
            max_reasonable_shift_us = profile.rtt_us + 100_000

    data = connection.data_packets()
    data_times = [p.timestamp_us for p in data]
    data_ends = [
        seq + p.payload_len for p, seq in zip(data, connection.data_seqs())
    ]
    acks = connection.ack_packets()

    # Right edge (ack + window) in effect *before* each ACK: the data a
    # given ACK releases is the first segment past that old edge, which
    # is the [16]-style estimate that survives pipelined flows.
    edges_before: list[int] = []
    edge = 0
    for ack, value in zip(acks, connection.ack_values()):
        edges_before.append(edge)
        edge = max(edge, value + ack.window)

    fallback = profile.d2_us if 0 < profile.d2_us <= max_reasonable_shift_us else None

    index = 0
    for flight in group_flights(acks, gap_threshold_us):
        stats.flights += 1
        d2_values = []
        for ack in flight:
            old_edge = edges_before[index]
            index += 1
            released = _first_release(
                data_times, data_ends, ack.timestamp_us, old_edge
            )
            if released is not None:
                d2_values.append(released - ack.timestamp_us)
        d2_min = min((d for d in d2_values if d > 0), default=None)
        if d2_min is None or d2_min > max_reasonable_shift_us:
            d2_min = fallback
        if d2_min is None:
            continue
        shift = d2_min - 1  # keep ACKs strictly before the data they free
        if shift <= 0:
            continue
        for ack in flight:
            ack.shifted_timestamp_us = ack.timestamp_us + shift
        stats.shifted_flights += 1
        stats.total_shift_us += shift
        stats.max_shift_us = max(stats.max_shift_us, shift)
    return stats


def _first_release(
    data_times: list[int],
    data_ends: list[int],
    after_us: int,
    old_edge: int,
) -> int | None:
    """Arrival time of the first data past ``old_edge`` after ``after_us``."""
    start = bisect.bisect_right(data_times, after_us)
    for i in range(start, len(data_times)):
        if data_ends[i] > old_edge:
            return data_times[i]
    return None
