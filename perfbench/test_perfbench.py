"""Tests of the benchmark's own arithmetic and inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class StepClock:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self._ticks = itertools.count()

    def __call__(self) -> float:
        return float(next(self._ticks))


def test_self_time_subtracts_children_on_a_hand_built_tree():
    tracer = layers.LayerTracer(clock=StepClock())
    # Readings: the origin takes t=0, so the root opens at t=1.
    with tracer.layer("workload"):                      # 1 .. 12
        with tracer.layer("netsim"):                    # 2 .. 9
            with tracer.layer("tcp", span=False):       # 3 .. 6
                with tracer.layer("bgp.decode", span=False):  # 4 .. 5
                    pass
            with tracer.layer("tcp", span=False):       # 7 .. 8
                pass
        with tracer.layer("render"):                    # 10 .. 11
            pass
    self_s = tracer.self_times()
    assert self_s == {
        "workload": 11 - 7 - 1,
        "netsim": 7 - 3 - 1,
        "tcp": (3 - 1) + 1,
        "bgp.decode": 1,
        "render": 1,
    }
    netsim = next(s for s in tracer.spans() if s["name"] == "netsim")
    workload = next(s for s in tracer.spans() if s["name"] == "workload")
    assert netsim["parent"] == workload["id"]
    assert (netsim["start"], netsim["end"]) == (2.0 - 0, 9.0 - 0)
    # Per-call layers are folded into the enclosing span, not kept.
    assert netsim["agg"] == {"tcp": [3.0, 2], "bgp.decode": [1.0, 1]}
    assert {s["name"] for s in tracer.spans()} == {"workload", "netsim", "render"}

    table = layers.layer_table(11.0, self_s, tracer.counts())
    layer_sum = sum(table[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_sum + table["trace.unattributed_s"] == pytest.approx(11.0)
    assert table["trace.unattributed_s"] == self_s["workload"]


def test_generator_layers_time_each_item_and_count_it():
    tracer = layers.LayerTracer(clock=StepClock())

    def records():
        yield from range(3)

    wrapped = tracer.wrap_generator(
        records, "pcap.read", item_counter="pcap.read.records"
    )
    with tracer.layer("workload"):
        assert list(wrapped()) == [0, 1, 2]
    assert tracer.counts() == {"pcap.read.records": 3}
    # Four next() calls (the last one ends the iteration), 1 s each.
    assert tracer.self_times()["pcap.read"] == 4.0


def test_chrome_trace_carries_parent_group_and_aggregates():
    tracer = layers.LayerTracer(clock=StepClock())
    with tracer.group("episode-3"), tracer.layer("netsim"):
        with tracer.layer("tcp", span=False):
            pass
    (event,) = [
        e for e in tracer.chrome_trace()["traceEvents"] if e["ph"] == "X"
    ]
    assert event["name"] == "netsim"
    assert event["args"]["group"] == "episode-3"
    assert event["args"]["tcp"] == {"calls": 1, "self_ms": 1000.0}


def test_instrument_restores_every_boundary():
    from repro.analysis import tdat
    from repro.netsim.simulator import Simulator
    from repro.wire import frames
    from repro.wire.pcap import PcapReader

    before = (
        frames.parse_packet, tdat.classify, tdat.iter_connections,
        Simulator.__dict__["run"], PcapReader.__dict__["__iter__"],
    )
    with layers.instrument(layers.LayerTracer()):
        assert frames.parse_packet is not before[0]
        assert tdat.classify is not before[1]
    after = (
        frames.parse_packet, tdat.classify, tdat.iter_connections,
        Simulator.__dict__["run"], PcapReader.__dict__["__iter__"],
    )
    assert after == before


def test_percentile_rule_needs_ten_samples_beyond():
    assert workloads.samples_beyond(200, 95) == 10
    assert workloads.samples_beyond(199, 95) == 9
    assert workloads.samples_beyond(workloads.MIN_SESSIONS, 95) >= 10
    values = list(range(1, 201))
    assert workloads.percentile(values, 50) == 100
    assert workloads.percentile(values, 95) == 190
    assert sum(v > workloads.percentile(values, 95) for v in values) == 10


def test_pathology_to_expected_group_table():
    assert inputs.EXPECTED_GROUP == {
        "timer": "sender",
        "rate-limited": "sender",
        "loaded-collector": "receiver",
        "zero-ack-bug": "receiver",
        "downstream-loss": "receiver",
        "upstream-loss": "network",
    }
    from repro.workloads.campaign import PATHOLOGIES

    assert set(PATHOLOGIES) - set(inputs.EXPECTED_GROUP) == {"clean"}
    assert inputs.largest_group({"sender": 0.2, "receiver": 0.2}) == "sender"
    assert inputs.attribution_agree([
        ("clean", {"sender": 0.9}),
        ("upstream-loss", {"sender": 0.5, "network": 0.3}),
        ("timer", {"sender": 0.9}),
    ]) == 0.5
    assert inputs.timer_err_pct([(100_000, None), (100_000, 90_000),
                                 (200_000, 200_000)]) == 10.0


def test_campaign_config_keeps_the_seed_and_fixes_the_table_size():
    from repro.workloads.campaign import _draw_specs

    config = workloads.campaign_config(7)
    assert (config.name, config.seed, config.transfers) == (
        "ISP_A-Quagga", 7, workloads.CAMPAIGN_TRANSFERS
    )
    specs, tables = _draw_specs(config)
    assert set(tables) == {workloads.CAMPAIGN_TABLE_PREFIXES}
    assert {len(spec.table) for spec in specs} == {
        workloads.CAMPAIGN_TABLE_PREFIXES
    }
    other, _ = _draw_specs(workloads.campaign_config(8))
    assert [s.pathology for s in specs] != [s.pathology for s in other]


def test_corpus_replication_is_byte_identical_for_one_seed(tmp_path):
    first = inputs.build_inputs("serve", 7, tmp_path / "a")
    second = inputs.build_inputs("serve", 7, tmp_path / "b")
    assert first == second
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 2 * inputs.SERVE_COPIES + 1
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    sizes = {capture["bytes"] for capture in first["captures"]}
    assert len(sizes) == 1, "every session uploads the same number of bytes"
    assert len(first["truth"]) == sum(c["connections"] for c in first["captures"])
