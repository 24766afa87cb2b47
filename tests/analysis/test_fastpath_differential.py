"""Differential suite: every fast path vs. its pure-python reference.

The mmap pcap scanner and the fused frame decoder must be
**byte-identical** to the streaming reader and the layered decoder —
over clean captures, over the mangled-pcap fault corpus, and over
adversarial record layouts drawn by Hypothesis.  The reference reader
is selected by feeding the capture through a non-seekable stream,
which the reader cannot map.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tdat import analyze_pcap
from repro.core.health import TraceHealth
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import OPERATORS, mangle
from repro.analysis.render import analysis_to_dict
from repro.wire import frames
from repro.wire.pcap import PcapReader, PcapRecord, records_to_bytes
from tests.analysis.helpers import Unseekable


@pytest.fixture(scope="module")
def clean_blob():
    """One deterministic monitored table transfer, as pcap bytes."""
    return clean_trace_bytes(table_prefixes=800, duration_s=60)


def analyze_payload(blob: bytes, reference: bool = False, **knobs) -> dict:
    """The canonical {connections, health} JSON view of one analysis.

    ``reference=True`` feeds the capture through a non-seekable stream,
    so ingest runs on the streaming reader instead of the mmap scanner.
    """
    stream = io.BytesIO(blob)
    report = analyze_pcap(Unseekable(stream) if reference else stream, **knobs)
    payload = {
        "connections": {
            str(key): analysis_to_dict(analysis)
            for key, analysis in report.analyses.items()
        },
        "health": report.health.to_dict(),
    }
    # Round-trip through JSON so exotic value types can't compare
    # equal while serializing differently.
    return json.loads(json.dumps(payload, sort_keys=True))


def read_outcome(blob: bytes, reference: bool = False):
    """Records + health ledger the tolerant reader produces.

    ``reference=True`` reads through a non-seekable stream, so the
    streaming reader runs instead of the mmap scanner.
    """
    health = TraceHealth()
    stream = io.BytesIO(blob)
    records = list(
        PcapReader(
            Unseekable(stream) if reference else stream,
            tolerant=True, health=health,
        )
    )
    return records, health.to_dict()


class TestAnalyzeDifferential:
    """Full-pipeline identity: mmap scanner vs. streaming reader."""

    def test_reference_stream_takes_the_streaming_reader(
        self, clean_blob, monkeypatch
    ):
        """No ``tell``, no scan: the reference here, and every
        :mod:`repro.serve` upload, must reach the streaming reader."""
        scans = []
        fast = PcapReader._iter_fast

        def spy(self, *args):
            scans.append(self)
            return fast(self, *args)

        monkeypatch.setattr(PcapReader, "_iter_fast", spy)
        analyze_payload(clean_blob, reference=True)
        assert not scans
        analyze_payload(clean_blob)
        assert scans

    def test_clean_capture_all_knob_combinations(self, clean_blob):
        reference = analyze_payload(clean_blob, reference=True)
        assert reference["connections"], "corpus produced no analyses"
        for knobs in ({}, {"streaming": True}):
            assert analyze_payload(clean_blob, **knobs) == reference, knobs

    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    @pytest.mark.parametrize("seed", [3, 17])
    def test_mangled_corpus_identical(self, clean_blob, operator, seed):
        """Damage must produce identical reports AND identical health.

        Every fault operator forces some mix of truncation, resync and
        timestamp trouble; whatever the streaming reader records, the
        fast pre-scan must either reproduce it exactly (by falling
        back) or prove it could not happen (clean scan).
        """
        blob = mangle(clean_blob, [operator], seed=seed)
        fast = analyze_payload(blob)
        reference = analyze_payload(blob, reference=True)
        assert fast == reference

    def test_truncated_mid_record(self, clean_blob):
        cut = clean_blob[: len(clean_blob) - 11]
        assert analyze_payload(cut) == analyze_payload(cut, reference=True)

    def test_nanosecond_magic(self, clean_blob):
        records, _ = read_outcome(clean_blob)
        nano = records_to_bytes(records, nanosecond=True)
        assert analyze_payload(nano) == analyze_payload(nano, reference=True)


class TestReaderDifferential:
    """Record-level identity of the mmap scanner vs. streaming reads."""

    def test_clean_blob_records_and_health(self, clean_blob):
        ref_records, ref_health = read_outcome(clean_blob, reference=True)
        assert ref_records
        fast_records, fast_health = read_outcome(clean_blob)
        assert fast_records == ref_records
        assert fast_health == ref_health

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=120), max_size=12),
        jumps=st.lists(
            st.integers(min_value=-10**8, max_value=10**13), max_size=12
        ),
        cut=st.integers(min_value=0, max_value=400),
        nanosecond=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_layouts_identical(self, sizes, jumps, cut, nanosecond):
        """Hypothesis: mmap scanning == streaming, bytes and health.

        Layouts cover empty records, timestamp regressions, implausible
        jumps (which dirty the scan) and truncation at every offset.
        """
        timestamp = 1_000_000
        records = []
        for index, size in enumerate(sizes):
            timestamp = max(timestamp + (jumps[index] if index < len(jumps) else 250), 0)
            records.append(
                PcapRecord(
                    timestamp_us=timestamp,
                    data=bytes([index % 251]) * size,
                )
            )
        blob = records_to_bytes(records, nanosecond=nanosecond)
        blob = blob[: max(len(blob) - cut, 0)]
        fast = read_outcome(blob)
        reference = read_outcome(blob, reference=True)
        assert fast == reference

    def test_strict_mode_identical(self, clean_blob):
        for blob in (clean_blob, clean_blob[:-7]):
            fast_health = TraceHealth(strict=True)
            ref_health = TraceHealth(strict=True)
            fast = list(
                PcapReader(io.BytesIO(blob), health=fast_health)
            )
            reference = list(
                PcapReader(Unseekable(io.BytesIO(blob)), health=ref_health)
            )
            assert fast == reference
            assert fast_health.to_dict() == ref_health.to_dict()


class TestFrameDecodeDifferential:
    """parse_packet (fused) vs. parse_frame (layered) over real frames."""

    def test_corpus_frames_identical(self, clean_blob):
        records, _ = read_outcome(clean_blob)
        assert records
        for record in records:
            parsed = frames.parse_frame(record.data)
            fields = frames.parse_packet(record.data)
            assert fields.src_ip == parsed.ipv4.src
            assert fields.dst_ip == parsed.ipv4.dst
            assert fields.src_port == parsed.tcp.src_port
            assert fields.dst_port == parsed.tcp.dst_port
            assert fields.seq == parsed.tcp.seq
            assert fields.ack == parsed.tcp.ack
            assert fields.flags == parsed.tcp.flags
            assert fields.window == parsed.tcp.window
            assert fields.ip_id == parsed.ipv4.identification
            assert fields.payload == parsed.tcp.payload
            assert fields.mss_option == parsed.tcp.mss_option
            assert fields.wscale_option == parsed.tcp.wscale_option

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        flips=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=199),
                st.integers(min_value=1, max_value=255),
            ),
            min_size=1,
            max_size=6,
        ),
        cut=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=120, deadline=None)
    def test_damaged_frames_raise_identically(self, seed, flips, cut):
        """Mangled bytes: same decode result or the same FrameError."""
        base = _DAMAGE_CORPUS[seed % len(_DAMAGE_CORPUS)]
        data = bytearray(base)
        for offset, xor in flips:
            if data:
                data[offset % len(data)] ^= xor
        blob = bytes(data[: max(len(data) - cut, 0)])
        try:
            parsed = frames.parse_frame(blob)
            reference = ("ok", parsed.flow, parsed.tcp.payload)
        except frames.FrameError as exc:
            reference = ("error", str(exc))
        try:
            fields = frames.parse_packet(blob)
            fast = (
                "ok",
                (fields.src_ip, fields.src_port, fields.dst_ip, fields.dst_port),
                fields.payload,
            )
        except frames.FrameError as exc:
            fast = ("error", str(exc))
        assert fast == reference


def _damage_corpus() -> list[bytes]:
    blob = clean_trace_bytes(table_prefixes=50, duration_s=30)
    records, _ = read_outcome(blob)
    return [record.data for record in records[:24]]


_DAMAGE_CORPUS = _damage_corpus()

