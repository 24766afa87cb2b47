"""Flight grouping: split packet timelines on inter-arrival gaps.

Both the ACK-shift step and the congestion-window inference reason
about *flights* — bursts of packets separated by quiet periods, the
grouping technique of Zhang et al. [38] that the paper adopts for ACKs
as well as data.
"""

from __future__ import annotations

from repro.analysis.profile import TracePacket


def flight_gap_threshold_us(rtt_us: int, floor_us: int = 1_000) -> int:
    """The default split threshold: half an RTT, floored at 1 ms."""
    return max(rtt_us // 2, floor_us)


def group_flights(
    packets: list[TracePacket], gap_threshold_us: int
) -> list[list[TracePacket]]:
    """Partition time-ordered packets into flights.

    A gap of more than ``gap_threshold_us`` between consecutive packets
    starts a new flight.
    """
    bounds = flight_starts(
        [packet.timestamp_us for packet in packets], gap_threshold_us
    )
    return [
        packets[start:stop]
        for start, stop in zip(bounds, bounds[1:] + [len(packets)])
    ]


def flight_starts(times: list[int], gap_threshold_us: int) -> list[int]:
    """The index of each flight's first packet, for packet ``times``.

    The index form of :func:`group_flights`: flight ``k`` is
    ``times[starts[k]:starts[k + 1]]``.  Empty input has no flights.
    """
    if gap_threshold_us <= 0:
        raise ValueError(f"non-positive threshold {gap_threshold_us}")
    if not times:
        return []
    starts = [0]
    for index in range(1, len(times)):
        if times[index] - times[index - 1] > gap_threshold_us:
            starts.append(index)
    return starts


def flight_spans(
    flights: list[list[TracePacket]],
) -> list[tuple[int, int]]:
    """The [first, last] timestamp of each flight."""
    return [
        (flight[0].timestamp_us, flight[-1].timestamp_us)
        for flight in flights
        if flight
    ]
