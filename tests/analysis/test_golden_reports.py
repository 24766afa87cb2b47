"""Golden digests of T-DAT's output.

The differential suites compare one analyzer path against another, so
a change that moves both the same way passes them.  These tests pin
the analyzer's output itself by SHA-256:

* the ``tdat analyze --json`` payload of the fuzzer's clean capture,
  of the seven campaign captures ``tests/bgp/test_golden_bytes.py``
  pins, of the RouteViews campaign's upstream- and downstream-loss
  episodes (retransmissions and a consecutive-loss episode, which the
  small captures lack), and of one mangled capture read by the
  tolerant reader;
* per connection, every catalog series' name, its ``(start, end)``
  extents and its packet total — the time-range kernel's output, not
  only the rounded ratios the report carries.

To re-derive a digest after an intentional change to the analysis,
print the digest of the same input and update the constant (and say
why in the change log).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

import pytest

from repro.analysis.render import report_payload
from repro.analysis.tdat import analyze_pcap
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import mangle
from repro.workloads.campaign import (
    _draw_specs,
    isp_quagga_config,
    routeviews_config,
    run_episode,
    run_zero_ack_bug_episode,
)

#: Mangling plan of the damaged capture: lost, duplicated and
#: reordered records plus a corrupt header the tolerant reader must
#: resynchronize past.
MANGLE_OPS = ["drop-records", "duplicate-records", "reorder-records",
              "corrupt-record-header"]
MANGLE_SEED = 3

#: name -> (report payload digest, catalog digest)
GOLDEN = {
    "clean": (
        "ece8c9f4004fc03ef812ffeeaabed4a0ad565e2905b958a088a47c2e98bb655c",
        "8b1f97751d8b9678133e13878d18d88525257074e67500e6913ee111fabb3e37",
    ),
    "episode-0": (
        "22f31c26b57fae185d91e7e099c5aac5deaaec76ffe68ef2f00dc1c362715696",
        "736d26a0b1d8dc2ac58cd290f8f0a6c2011d2a3dd3e48cc426e43a0823be8e79",
    ),
    "episode-1": (
        "aa9b2a2f435bcb2b0ccdd93da8bb6ed0efdb04619fce6c4c29debf09c2a62674",
        "661d792de865a056026db9495b18a83871384cba83767abb70ee8ca8bdad6180",
    ),
    "episode-2": (
        "09e567e726913be80bcc58f45fe4d735fba9febccf53584ec96fc9c73094b9b0",
        "c9448c72c0fc7e11176f9bd117845284c485929aaef045598629a442b18140e9",
    ),
    "episode-3": (
        "39faeb4ac3e1b45330b4da39126ad7dfcd4c610e3ea80b3d775f98e505d94376",
        "780a0a2b0498d52a5fca9f509e55a5c614ec61c291010aebc5dfdc86c52c51b4",
    ),
    "episode-4": (
        "c4842c167a60ce9647945a42133dc4807d0a2163d69560ca427dfb0a4595751e",
        "1c2e18fb7d312a81124f6cc71d468cbefe150ec33d876e4fbac170956476597c",
    ),
    "episode-5": (
        "792d4de677fedbf61b78f5bb9acf17a12a55219f1e070166e9adc5f5b57184e4",
        "54d82d29282c16d7309250a65d30428cee3b27b9928b58dfdf8f2863807a6243",
    ),
    "zero-ack-bug": (
        "a790cdbdc8c28c01cc482192c1b57bb695bc841179ea8f3a88b7d96afd107350",
        "40ecdff9bdb73ac40777ec4f110915ac4fbd1aafacf317d016a6068f702d06c1",
    ),
    "rv-upstream-loss": (
        "f6b01ca90800a86addcaca37b6ee54e34cc7c718566976a2fd6cadb8d359141c",
        "fd3f96470738a321834ae465cc1d55f7a542d0017c76797cd5b99e29eba7732a",
    ),
    "rv-downstream-loss": (
        "a83947b932a1aca44e77153b5e2caeffa68db7e8ee58142880e55cdd9f04e3f2",
        "3e9096e54293f0f85530df59ede76fd041882dedaa2ad7388998c8dab4fbf1e6",
    ),
    "mangled": (
        "f0cea2a50ea92ea329c0e70c6a2850840df7db2a11a6caa7a7386420f8718854",
        "9f3f2fce0a33b0895285a9fd3725194a936ad5631effd162fb29b72e06b4654b",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _small_campaign():
    config = isp_quagga_config(seed=13, transfers=6)
    return dataclasses.replace(config, table_sizes=(2_000, 5_000))


def pinned_captures() -> dict[str, bytes]:
    """Every pinned input, as pcap bytes, keyed like :data:`GOLDEN`."""
    blobs = {"clean": clean_trace_bytes()}
    specs, _ = _draw_specs(_small_campaign())
    for spec in specs[:6]:
        pcap = io.BytesIO()
        run_episode(spec, pcap_out=pcap)
        blobs[f"episode-{len(blobs) - 1}"] = pcap.getvalue()
    pcap = io.BytesIO()
    run_zero_ack_bug_episode(_small_campaign(), pcap_out=pcap)
    blobs["zero-ack-bug"] = pcap.getvalue()
    rv_specs, _ = _draw_specs(routeviews_config(transfers=6))
    for spec in rv_specs[3:5]:
        pcap = io.BytesIO()
        run_episode(spec, pcap_out=pcap)
        blobs[f"rv-{spec.pathology}"] = pcap.getvalue()
    blobs["mangled"] = mangle(blobs["clean"], MANGLE_OPS, MANGLE_SEED)
    return blobs


@pytest.fixture(scope="module")
def captures() -> dict[str, bytes]:
    return pinned_captures()


def report_digest(report) -> str:
    """SHA-256 of the payload exactly as ``tdat analyze --json`` prints it."""
    text = json.dumps(report_payload(report), indent=2)
    return _sha256(text.encode("utf-8"))


def catalog_digest(report) -> str:
    """SHA-256 over every connection's series names, extents and packets."""
    digest = hashlib.sha256()
    for analysis in report:
        digest.update(repr(analysis.key).encode("utf-8"))
        for series in analysis.series.catalog:
            extents = [(rng.start, rng.end) for rng in series]
            digest.update(
                repr((series.name, extents, series.total_packets()))
                .encode("utf-8")
            )
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_and_series_digests(captures, name):
    report = analyze_pcap(io.BytesIO(captures[name]))
    assert len(report) > 0
    assert (report_digest(report), catalog_digest(report)) == GOLDEN[name]


def test_mangled_capture_is_damaged(captures):
    """The damaged input really exercises the tolerant reader."""
    report = analyze_pcap(io.BytesIO(captures["mangled"]))
    assert report.health.issues
