"""Packet labeling: retransmissions, out-of-sequence, reordering.

Implements the classification of Jaiswal et al. [17] as used by the
paper (section II-B2):

* a data packet whose bytes were **already seen** at the tap is a
  retransmission caused by loss *downstream* of the tap (between the
  sniffer and the receiver, or the ACK path) — the paper's
  receiver-local loss when the tap sits next to the receiver;
* a data packet that fills a **never-seen sequence gap** is
  out-of-sequence: either in-network *reordering* or a retransmission
  after *upstream* loss.  Reordering is filtered out when the packet
  arrives within a small window of the gap's creation and its IPv4
  identification predates the gap-creating packet (it was sent earlier);
* everything else advances the stream normally.

Every loss event also carries a *recovery range*: from the moment the
loss became visible to the moment an ACK finally covered the hole.
These ranges — not the drop instants — are what the paper's loss series
measure ("the whole retransmission period spent in recovering the
loss").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.analysis.profile import Connection, TracePacket
from repro.core.timeranges import TimeRangeSet

# Out-of-order packets closer than this to the gap creation, with an
# earlier IP ID, are reordering rather than loss (Jaiswal threshold).
REORDER_WINDOW_US = 3_000

KIND_NEW = "new"
KIND_UPSTREAM = "upstream"
KIND_DOWNSTREAM = "downstream"
KIND_REORDERING = "reordering"


@dataclass
class PacketLabel:
    """The classification of one data packet."""

    packet: TracePacket
    kind: str
    trigger_time_us: int | None = None
    recovery_time_us: int | None = None

    @property
    def is_retransmission(self) -> bool:
        return self.kind in (KIND_UPSTREAM, KIND_DOWNSTREAM)


@dataclass
class LabelingResult:
    """All labels of one connection's data direction."""

    labels: list[PacketLabel]

    def retransmissions(self) -> list[PacketLabel]:
        return [l for l in self.labels if l.is_retransmission]

    def by_kind(self, kind: str) -> list[PacketLabel]:
        return [l for l in self.labels if l.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for l in self.labels if l.kind == kind)


def label_connection(connection: Connection) -> LabelingResult:
    """Classify every data packet of the connection's data direction."""
    data = connection.data_packets()
    ack_times = [a.timestamp_us for a in connection.ack_packets()]
    ack_values = connection.ack_values()

    labels: list[PacketLabel] = []
    seen = TimeRangeSet()  # sequence-space coverage
    first_seen_time: dict[int, int] = {}  # seg rel_seq -> first time
    holes = _Holes()
    max_seq_end = 0
    max_end_time = 0  # when max_seq_end was reached
    max_end_ip_id = 0

    for packet, seq in zip(data, connection.data_seqs()):
        end = seq + packet.payload_len
        if end <= max_seq_end:
            already = sum(
                min(r.end, end) - max(r.start, seq)
                for r in seen.overlapping(seq, end)
            )
            if already >= packet.payload_len:
                kind = KIND_DOWNSTREAM
                trigger = first_seen_time.get(seq, packet.timestamp_us)
            else:
                at = holes.find(seq)
                gap = holes.holes[at] if at is not None else None
                gap_time = gap[2] if gap else max_end_time
                gap_ip_id = gap[3] if gap else max_end_ip_id
                arrived_quickly = (
                    packet.timestamp_us - gap_time <= REORDER_WINDOW_US
                )
                sent_before_gap = _ip_id_before(packet.ip_id, gap_ip_id)
                if arrived_quickly and sent_before_gap:
                    kind = KIND_REORDERING
                    trigger = None
                else:
                    kind = KIND_UPSTREAM
                    trigger = gap_time
                if gap:
                    holes.fill(at, seq, end)
            recovery = None
            if kind in (KIND_UPSTREAM, KIND_DOWNSTREAM):
                recovery = _recovery_time(
                    ack_times, ack_values, packet.timestamp_us, seq
                )
            labels.append(
                PacketLabel(
                    packet=packet,
                    kind=kind,
                    trigger_time_us=trigger,
                    recovery_time_us=recovery,
                )
            )
        else:
            labels.append(PacketLabel(packet=packet, kind=KIND_NEW))
            if seq > max_seq_end:
                holes.open(
                    max_seq_end, seq, packet.timestamp_us, packet.ip_id
                )
            max_seq_end = end
            max_end_time = packet.timestamp_us
            max_end_ip_id = packet.ip_id
        seen.add_span(seq, end)
        first_seen_time.setdefault(seq, packet.timestamp_us)
    return LabelingResult(labels=labels)


class _Holes:
    """Sequence holes and when they became visible.

    Each hole is ``[start, end, created_time, creator_ip_id]``: a span
    never seen at the tap, and the arrival time and IP ID of the first
    packet that jumped past it.  Holes are disjoint and only ever open
    past the highest sequence seen, so they stay sorted by start and a
    lookup is a bisection.
    """

    __slots__ = ("starts", "holes")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.holes: list[list[int]] = []

    def open(self, start: int, end: int, created: int, ip_id: int) -> None:
        """Record a new hole past every existing one."""
        self.starts.append(start)
        self.holes.append([start, end, created, ip_id])

    def find(self, seq: int) -> int | None:
        """Position of the hole containing ``seq``, if any."""
        at = bisect.bisect_right(self.starts, seq) - 1
        if at >= 0 and seq < self.holes[at][1]:
            return at
        return None

    def fill(self, at: int, fill_start: int, fill_end: int) -> None:
        """Remove the filled part of hole ``at``, splitting it if needed."""
        start, end, created, ip_id = self.holes[at]
        pieces = []
        if fill_start > start:
            pieces.append([start, fill_start, created, ip_id])
        if fill_end < end:
            pieces.append([fill_end, end, created, ip_id])
        self.holes[at : at + 1] = pieces
        self.starts[at : at + 1] = [piece[0] for piece in pieces]


def _ip_id_before(candidate: int, reference: int) -> bool:
    """True if ``candidate`` precedes ``reference`` modulo 2^16."""
    return 0 < (reference - candidate) & 0xFFFF < 0x8000


def _recovery_time(
    ack_times: list[int], ack_values: list[int], after_us: int, seq: int
) -> int | None:
    """First ACK past ``seq`` observed after ``after_us``."""
    start = bisect.bisect_right(ack_times, after_us)
    for i in range(start, len(ack_times)):
        if ack_values[i] > seq:
            return ack_times[i]
    return None
