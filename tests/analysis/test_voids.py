"""Tests for capture-void detection and exclusion (paper section II-A)."""

import random

import pytest

from repro.analysis.tdat import analyze_pcap
from repro.analysis.voids import find_capture_voids
from repro.bgp.table import generate_table
from repro.core.timeranges import TimeRangeSet
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams

from tests.analysis.helpers import TraceBuilder


class TestVoidDetectorUnit:
    def test_clean_connection_no_void(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_200, 1400, 1400)
        builder.ack(21_000, 2800)
        report = find_capture_voids(builder.build())
        assert not report.detected
        assert report.phantom_bytes == 0

    def test_acked_but_never_seen_bytes_are_a_void(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        # [1400, 2800) was transmitted and delivered but the sniffer
        # dropped it: the receiver acks straight through and the fill
        # never appears in the capture.
        builder.data(500_000, 2800, 1400)
        builder.ack(501_000, 4200)
        report = find_capture_voids(builder.build())
        assert report.detected
        assert report.phantom_bytes == 1400
        (window,) = report.void_windows.ranges
        assert window.start == 20_000
        assert window.end == 500_000

    def test_network_loss_is_not_a_void(self):
        """A real loss is eventually filled by a visible retransmission."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_200, 2800, 1400)  # hole at [1400, 2800)
        builder.ack(21_000, 1400)
        builder.data(400_000, 1400, 1400)  # the fill IS captured
        builder.ack(401_000, 4200)
        report = find_capture_voids(builder.build())
        assert not report.detected

    def test_multiple_voids(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(100_000, 2800, 1400)  # void 1: [1400, 2800)
        builder.data(200_000, 5600, 1400)  # void 2: [4200, 5600)
        builder.ack(201_000, 7000)
        report = find_capture_voids(builder.build())
        assert report.detected
        assert report.phantom_bytes == 2800
        # The two hole windows abut at the middle packet and coalesce.
        assert report.void_windows.contains(50_000)
        assert report.void_windows.contains(150_000)


class TestVoidExclusionEndToEnd:
    def run_with_drop_window(self, drop_windows):
        sim = Simulator()
        setup = MonitoringSetup(sim, sniffer_drop_windows=drop_windows)
        table = generate_table(30_000, random.Random(51))
        setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
        setup.start()
        sim.run(until_us=seconds(120))
        assert setup.collector.updates_archived == len(table.to_updates())
        report = analyze_pcap(setup.sniffer.sorted_records(), min_data_packets=2)
        return next(iter(report)), setup

    def test_sniffer_drops_detected_and_excluded(self):
        analysis, setup = self.run_with_drop_window([(30_000, 70_000)])
        assert setup.sniffer.dropped_records > 0
        voids = analysis.capture_voids
        assert voids.detected
        assert voids.phantom_bytes > 0
        # The void window covers the injected drop period.
        assert voids.void_windows.overlapping(30_000, 70_000)

    def test_clean_capture_not_flagged(self):
        analysis, setup = self.run_with_drop_window(None)
        assert not analysis.capture_voids.detected

    def test_exclusion_changes_ratios(self):
        from repro.analysis.factors import classify

        analysis, _ = self.run_with_drop_window([(30_000, 70_000)])
        with_exclusion = analysis.factors
        without_exclusion = classify(analysis.series, exclude=None)
        # The void period must not be attributed to any factor when
        # excluded; ratios are computed over a smaller period.
        assert (
            with_exclusion.analysis_period_us
            < without_exclusion.analysis_period_us
        )


def brute_force_voids(connection):
    """Phantom bytes and void windows by scanning every data event per
    hole, kept as the oracle for the bisection form."""
    data = connection.data_packets()
    seen = TimeRangeSet()
    for packet in data:
        seq = connection.relative_seq(packet)
        seen.add_span(seq, seq + packet.payload_len)
    highest_ack = max(connection.relative_ack(a) for a in connection.ack_packets())
    phantom = TimeRangeSet([(0, highest_ack)]).difference(seen)
    events = sorted((connection.relative_seq(p), p.timestamp_us) for p in data)
    voids = TimeRangeSet()
    for hole in phantom:
        before = [t for seq, t in events if seq < hole.start]
        after = [t for seq, t in events if seq >= hole.end]
        start_us = max(before) if before else connection.packets[0].timestamp_us
        end_us = min(after) if after else connection.packets[-1].timestamp_us
        if end_us > start_us:
            voids.add_span(start_us, end_us)
    return phantom.size(), [(r.start, r.end) for r in voids]


def holey_connection(seed, segments=300):
    """A tap that missed many segments, on a jittery, lossy path.

    About half of the segments never reach the capture; captured ones
    arrive with jitter (so seq order and time order disagree), some
    are captured twice as retransmissions, and the receiver acks
    straight through the missing bytes.
    """
    rng = random.Random(seed)
    builder = TraceBuilder().handshake()
    t = 20_000
    for i in range(segments):
        t += rng.randrange(50, 400)
        if rng.random() < 0.5:
            continue  # the sniffer dropped it
        builder.data(t + rng.randrange(-300, 300), i * 1000, 1000)
        if rng.random() < 0.1:
            builder.data(t + rng.randrange(5_000, 50_000), i * 1000, 1000)
        if rng.random() < 0.2:
            builder.ack(t + 500, (i + 1) * 1000)
    builder.ack(t + 100_000, segments * 1000)
    return builder.build()


class TestVoidsAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_many_hole_connections(self, seed):
        conn = holey_connection(seed)
        report = find_capture_voids(conn)
        phantom_bytes, windows = brute_force_voids(conn)
        assert report.detected
        assert report.phantom_bytes == phantom_bytes
        assert [(r.start, r.end) for r in report.void_windows] == windows

    def test_holes_at_both_ends(self):
        builder = TraceBuilder().handshake()
        builder.data(30_000, 1000, 1000)  # [0, 1000) never captured
        builder.data(40_000, 3000, 1000)
        builder.ack(90_000, 6000)  # [4000, 6000) never captured either
        conn = builder.build()
        report = find_capture_voids(conn)
        phantom_bytes, windows = brute_force_voids(conn)
        assert (report.phantom_bytes, phantom_bytes) == (4000, 4000)
        assert [(r.start, r.end) for r in report.void_windows] == windows
