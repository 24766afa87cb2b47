"""Builders for hand-crafted traces used by analysis unit tests."""

from repro.analysis.profile import Connection, TracePacket, canonical_key
from repro.wire.tcpw import ACK, PSH, SYN

SENDER = "10.0.0.1"
RECEIVER = "10.0.0.2"
SPORT = 40000
DPORT = 179


class Unseekable:
    """A binary stream's ``read`` alone, with no ``tell`` or ``seek``.

    The pcap reader can only map a source it can position, so a capture
    read through this wrapper takes the streaming reader, as uploads to
    :mod:`repro.serve` do.
    """

    def __init__(self, stream):
        self.read = stream.read


class TraceBuilder:
    """Builds a Connection packet-by-packet with relative sequences.

    The sender's ISN is 1000 and the receiver's 2000, so relative data
    byte 0 is wire sequence 1001.
    """

    def __init__(self):
        self.connection = Connection(
            canonical_key(SENDER, SPORT, RECEIVER, DPORT)
        )
        self._index = 0
        self._sender_ip_id = 0
        self._receiver_ip_id = 0

    def _next(self, src):
        self._index += 1
        if src == SENDER:
            self._sender_ip_id += 1
            return self._index, self._sender_ip_id
        self._receiver_ip_id += 1
        return self._index, self._receiver_ip_id

    def syn(self, t):
        index, ip_id = self._next(SENDER)
        self.connection.add(TracePacket(
            index=index, timestamp_us=t, src_ip=SENDER, src_port=SPORT,
            dst_ip=RECEIVER, dst_port=DPORT, seq=1000, ack=0, flags=SYN,
            window=65535, payload_len=0, wire_len=58, ip_id=ip_id,
            mss_option=1400,
        ))
        return self

    def synack(self, t, window=65535):
        index, ip_id = self._next(RECEIVER)
        self.connection.add(TracePacket(
            index=index, timestamp_us=t, src_ip=RECEIVER, src_port=DPORT,
            dst_ip=SENDER, dst_port=SPORT, seq=2000, ack=1001,
            flags=SYN | ACK, window=window, payload_len=0, wire_len=58,
            ip_id=ip_id, mss_option=1400,
        ))
        return self

    def handshake_ack(self, t, window=65535):
        index, ip_id = self._next(SENDER)
        self.connection.add(TracePacket(
            index=index, timestamp_us=t, src_ip=SENDER, src_port=SPORT,
            dst_ip=RECEIVER, dst_port=DPORT, seq=1001, ack=2001, flags=ACK,
            window=window, payload_len=0, wire_len=54, ip_id=ip_id,
        ))
        return self

    def handshake(self, t0=0, d1=1000, d2=8000):
        """SYN at t0, SYN/ACK d1 later, final ACK d2 after that."""
        return self.syn(t0).synack(t0 + d1).handshake_ack(t0 + d1 + d2)

    def data(self, t, rel_seq, length, payload=None, ip_id=None):
        index, auto_ip_id = self._next(SENDER)
        self.connection.add(TracePacket(
            index=index, timestamp_us=t, src_ip=SENDER, src_port=SPORT,
            dst_ip=RECEIVER, dst_port=DPORT, seq=1001 + rel_seq, ack=2001,
            flags=ACK | PSH, window=65535, payload_len=length,
            wire_len=54 + length, ip_id=ip_id if ip_id is not None else auto_ip_id,
            payload=payload if payload is not None else bytes(length),
        ))
        return self

    def ack(self, t, rel_ack, window=65535):
        index, ip_id = self._next(RECEIVER)
        self.connection.add(TracePacket(
            index=index, timestamp_us=t, src_ip=RECEIVER, src_port=DPORT,
            dst_ip=SENDER, dst_port=SPORT, seq=2001, ack=1001 + rel_ack,
            flags=ACK, window=window, payload_len=0, wire_len=54,
            ip_id=ip_id,
        ))
        return self

    def build(self):
        self.connection.finalize()
        return self.connection
