"""The connection demultiplexer: linger semantics and the expiry heap.

``iter_connections`` is the one place captures become connections.
With ``linger_us=None`` (the buffered view, ``Trace.from_pcap``) no
flow is finalized before end of file; with a finite linger a closed
flow is finalized once it has been quiet that long, and later packets
on its 4-tuple are dropped as ``packet-after-close``.  Closable flows
wait on a heap ordered by their last packet time; the Hypothesis test
below holds it to the original linear sweep over every open flow.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import profile
from repro.analysis.budget import (
    POLICY_FINALIZE_IDLE,
    ResourceBudget,
    StateLedger,
)
from repro.analysis.profile import Trace, iter_connections
from repro.analysis.render import report_payload
from repro.analysis.tdat import analyze_pcap
from repro.core.health import STAGE_FRAME, TraceHealth
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import mangle
from repro.faults.stress import _segment
from repro.wire import frames
from repro.wire.pcap import PcapRecord, read_pcap
from repro.wire.tcpw import ACK, FIN, PSH, RST, SYN

SERVER = ("10.9.0.1", 179)


def _client(i):
    return f"10.9.1.{i + 1}", 40_000 + i


def transfer(t0, client, payloads=2, size=100):
    """One clean client->server transfer: handshake, data, FIN exchange."""
    ip, port = client
    sip, sport = SERVER
    c, s = 1000, 5000
    out = [
        _segment(t0, ip, port, sip, sport, c, 0, SYN),
        _segment(t0 + 100, sip, sport, ip, port, s, c + 1, SYN | ACK),
        _segment(t0 + 200, ip, port, sip, sport, c + 1, s + 1, ACK),
    ]
    t = t0 + 300
    for k in range(payloads):
        seq = c + 1 + k * size
        out.append(_segment(
            t, ip, port, sip, sport, seq, s + 1, ACK | PSH, b"\x55" * size
        ))
        out.append(_segment(
            t + 50, sip, sport, ip, port, s + 1, seq + size, ACK
        ))
        t += 100
    end = c + 1 + payloads * size
    out += [
        _segment(t, ip, port, sip, sport, end, s + 1, ACK | FIN),
        _segment(t + 50, sip, sport, ip, port, s + 1, end + 1, ACK | FIN),
        _segment(t + 100, ip, port, sip, sport, end + 1, s + 2, ACK),
    ]
    return out


@pytest.fixture(scope="module")
def reused_tuple():
    """Flow A, flow B 3 s later, then a second flow on A's 4-tuple.

    B's first packet arrives more than the default 2 s linger after A
    closed, so a finite linger finalizes A there; the second A flow
    then lands on an already-emitted 4-tuple.
    """
    first = transfer(1_000_000, _client(0))
    other = transfer(first[-1].timestamp_us + 3_000_000, _client(1))
    again = transfer(other[0].timestamp_us + 100, _client(0))
    return sorted(first + other + again, key=lambda r: r.timestamp_us), first


class TestLingerSemantics:
    def test_buffered_merges_a_reused_tuple(self, reused_tuple):
        records, first = reused_tuple
        trace = Trace.from_pcap(records)
        assert len(trace) == 2
        merged = trace.connections[next(iter(trace.connections))]
        assert len(merged.packets) == 2 * len(first)
        assert "packet-after-close" not in trace.health.by_kind()

    def test_streaming_drops_a_reused_tuple(self, reused_tuple):
        records, first = reused_tuple
        health = TraceHealth()
        connections = list(iter_connections(records, health=health))
        assert len(connections) == 2
        assert len(connections[0].packets) == len(first)
        issues = [
            issue for issue in health.issues
            if issue.kind == "packet-after-close"
        ]
        assert len(issues) == len(first)
        assert all(
            issue.benign and issue.stage == STAGE_FRAME for issue in issues
        )

    def test_analyze_pcap_modes_follow_the_linger(self, reused_tuple):
        records, _ = reused_tuple
        buffered = analyze_pcap(records)
        streaming = analyze_pcap(records, streaming=True)
        assert "packet-after-close" not in buffered.health.by_kind()
        assert streaming.health.by_kind()["packet-after-close"] > 0
        merged, _ = buffered
        alone, _ = streaming
        assert (
            merged.connection.profile.total_data_packets
            == 2 * alone.connection.profile.total_data_packets
        )


def _shape(connections):
    return [
        (c.key, [p.index for p in c.packets], c.complete, c.sender_ip)
        for c in connections
    ]


class TestBufferedView:
    @pytest.mark.parametrize("tolerant", [False, True])
    def test_from_pcap_is_iter_connections_without_linger(self, tolerant):
        blob = clean_trace_bytes(table_prefixes=300, duration_s=30)
        trace = Trace.from_pcap(io.BytesIO(blob), tolerant=tolerant)
        health = TraceHealth()
        streamed = list(iter_connections(
            io.BytesIO(blob), health, tolerant, linger_us=None
        ))
        assert _shape(trace) == _shape(streamed)
        assert trace.health.to_dict() == health.to_dict()
        assert trace.total_records == len(read_pcap(io.BytesIO(blob)))
        assert trace.skipped_frames == 0

    @pytest.mark.parametrize("ops", [
        ["corrupt-payload", "corrupt-record-header"],
        ["slice-frames", "truncate"],
    ])
    def test_damage_reads_alike_buffered_and_streaming(self, ops):
        """Pcap-level and frame-level damage in one capture: both modes
        record the issues in capture order, so the payloads match."""
        blob = mangle(
            clean_trace_bytes(table_prefixes=800, duration_s=60), ops, seed=0
        )
        buffered = analyze_pcap(io.BytesIO(blob))
        stages = buffered.health.by_stage()
        assert stages.get("pcap") and stages.get("frame")
        streaming = analyze_pcap(io.BytesIO(blob), streaming=True)
        assert report_payload(buffered) == report_payload(streaming)

    def test_counters_are_this_capture_s_share_of_a_shared_ledger(self):
        records = transfer(1_000_000, _client(0))
        junk = PcapRecord(records[0].timestamp_us, b"\x00" * 20)
        health = TraceHealth(records_read=7, frames_decoded=5)
        trace = Trace.from_pcap([junk] + records, health=health)
        assert trace.total_records == len(records) + 1
        assert trace.skipped_frames == 1
        assert health.records_read == 7 + len(records) + 1
        assert health.frames_decoded == 5 + len(records)


# ---------------------------------------------------------------------- #
# Oracle: the demultiplexer with the original linear linger sweep        #
# ---------------------------------------------------------------------- #
def linear_sweep_connections(records, health, linger_us, ledger=None):
    """Every decoded packet walks every open flow for expired closes."""
    open_flows = {}
    emitted = set()
    for index, record in enumerate(records):
        health.records_read += 1
        try:
            fields = frames.parse_packet(record.data)
        except (frames.FrameError, ValueError) as exc:
            health.record(
                STAGE_FRAME, "undecodable-frame",
                timestamp_us=record.timestamp_us,
                bytes_lost=record.captured_length,
                detail=str(exc),
                benign=True,
            )
            continue
        health.frames_decoded += 1
        key = profile.canonical_key(
            fields.src_ip, fields.src_port, fields.dst_ip, fields.dst_port
        )
        now = record.timestamp_us
        for other_key in list(open_flows):
            flow = open_flows[other_key]
            if (
                other_key != key
                and flow.closable
                and now - flow.last_ts_us > linger_us
            ):
                del open_flows[other_key]
                emitted.add(other_key)
                if ledger is not None:
                    ledger.discharge(other_key)
                flow.connection.finalize()
                yield flow.connection
        if key in emitted:
            health.record(
                STAGE_FRAME, "packet-after-close",
                timestamp_us=record.timestamp_us,
                bytes_lost=len(fields.payload),
                detail=f"{key}: flow already finalized and emitted",
                benign=True,
            )
            continue
        if ledger is not None and not ledger.admit(
            key, len(fields.payload), fields.flags, now
        ):
            flow = open_flows.get(key)
            if flow is not None:
                flow.connection.complete = False
                flow.last_ts_us = now
            continue
        packet = profile._packet_from_fields(index, record, fields)
        flow = open_flows.get(key)
        if flow is None:
            flow = profile._OpenFlow(profile.Connection(key), index)
            open_flows[key] = flow
        flow.connection.add(packet)
        flow.last_ts_us = now
        if packet.is_fin:
            flow.fin_from.add(packet.src_ip)
        if packet.is_rst:
            flow.saw_rst = True
        if ledger is not None:
            for victim_key, policy in ledger.plan_evictions(
                open_flows, key, now
            ):
                victim = open_flows.pop(victim_key)
                emitted.add(victim_key)
                if policy == POLICY_FINALIZE_IDLE:
                    victim.connection.complete = (
                        victim.connection.complete and victim.closable
                    )
                    victim.connection.finalize()
                    yield victim.connection
    for key, flow in open_flows.items():
        if ledger is not None:
            ledger.discharge(key)
        flow.connection.finalize()
        yield flow.connection
    if ledger is not None:
        ledger.finish()


#: (from_client, flags, payload bytes); ``None`` is an undecodable frame
_SEGMENT_KINDS = [
    (True, SYN, 0),
    (False, SYN | ACK, 0),
    (True, ACK | PSH, 40),
    (False, ACK, 0),
    (True, ACK | FIN, 0),
    (False, ACK | FIN, 0),
    (True, RST, 0),
    (False, RST, 0),
    (None, 0, 0),
]


@st.composite
def captures(draw):
    """Interleaved flows that open, close, reset, linger and restart.

    Times move in 500 us steps, sometimes backwards, so packets land
    exactly on, just inside and just past a flow's linger deadline.
    """
    steps = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=len(_SEGMENT_KINDS) - 1),
            st.integers(min_value=-3, max_value=6),
        ),
        max_size=80,
    ))
    t = 1_000_000
    records = []
    for flow, kind, delta in steps:
        t += 500 * delta
        from_client, flags, size = _SEGMENT_KINDS[kind]
        if from_client is None:
            records.append(PcapRecord(t, b"\x01" * 30))
            continue
        ip, port = _client(flow)
        sip, sport = SERVER
        seq = 1000 + len(records) * 40
        if from_client:
            records.append(_segment(
                t, ip, port, sip, sport, seq, 5001, flags, b"\x33" * size
            ))
        else:
            records.append(_segment(
                t, sip, sport, ip, port, seq, 1001, flags, b"\x44" * size
            ))
    return records


budgets = st.one_of(
    st.none(),
    st.builds(
        ResourceBudget,
        max_live_connections=st.one_of(
            st.none(), st.integers(min_value=1, max_value=4)
        ),
        max_connection_packets=st.one_of(
            st.none(), st.integers(min_value=1, max_value=4)
        ),
        max_state_bytes=st.one_of(
            st.none(), st.integers(min_value=200, max_value=2_000)
        ),
    ),
)


def _run(demux, records, linger_us, budget):
    health = TraceHealth()
    ledger = None
    if budget is not None and budget.bounded:
        ledger = StateLedger(budget, health=health)
    connections = list(demux(records, health, linger_us, ledger))
    summary = ledger.summary.to_dict() if ledger is not None else None
    return _shape(connections), health.to_dict(), summary


def _heap(records, health, linger_us, ledger):
    return iter_connections(
        records, health=health, linger_us=linger_us, ledger=ledger
    )


@given(
    records=captures(),
    linger_us=st.sampled_from([0, 500, 1_000, 2_500]),
    budget=budgets,
)
@settings(max_examples=300, deadline=None)
def test_expiry_heap_matches_linear_sweep(records, linger_us, budget):
    heap = _run(_heap, records, linger_us, budget)
    linear = _run(linear_sweep_connections, records, linger_us, budget)
    assert heap == linear
