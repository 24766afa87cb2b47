"""Golden digests of the simulator's wire output.

The simulator's bytes are its contract: every UPDATE a router sends,
every MRT archive and RIB dump a Quagga collector writes, and every
episode capture feed the analyses and the campaign journal.  These
tests pin each of them by SHA-256, so a codec change that moves one
byte fails here instead of silently shifting a paper result.

To re-derive a digest after an intentional format change, print
``_sha256(...)`` of the same input and update the constant (and say
why in the change log).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import random
from types import SimpleNamespace

import pytest

from repro.bgp.messages import encode_message
from repro.bgp.sender_models import SenderModel
from repro.bgp.speaker import BgpSession
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.campaign import (
    _draw_specs,
    isp_quagga_config,
    run_episode,
    run_zero_ack_bug_episode,
)
from repro.workloads.scenarios import MonitoringSetup, RouterParams

#: (table seed, wide_asn_fraction) -> digest of the UPDATE stream of a
#: 20k-prefix table.
TABLE_DIGESTS = {
    (5, 0.0): "e3fcec47cf11e8a53a0ef0164cb4717ab9ce4f37386ec621539a3ed06a5a4b57",
    (6, 0.08): "8e89d173853e38e0a264cb5fd2b4b02531d757045fee50e935cde5e4f9735693",
}

ARCHIVE_DIGEST = (
    "16195c3f8bcd14981946b375a09c6310a8003a67282ec7c135858537a096f965"
)
SNAPSHOT_DIGEST = (
    "9c0e32fa793fe5378937e8357d9c5938abf9d12971fbad762d36f0d7ad48f78d"
)

#: Digests of the captures of the first six episodes of the small
#: campaign below, in episode order.
EPISODE_PCAP_DIGESTS = (
    "12ca53a67f52296125347a669e222004b626972ea52ad4be58ed44e0109894b7",
    "45bf9d425a3156ab940bc7e56a0bd92c907445d6f6c19fd9c38030fe7123a457",
    "2a6676b49dfbc0979f529df2047e041b0f2f35dc4b632f202c163b7fe36231cf",
    "8218322d2bce04e8c47a81279ba16a9dfe9b7e8252cf1449b46d168ce3ee57fe",
    "f131c81dbd96d7796dafb0b6bb8e8f9786e1fcc7e5a9d451a61b66b85637f856",
    "9b976ec09c7ec74daa13cf690963aac06c82280b1953f398fb361b9317ba4be2",
)
ZERO_ACK_BUG_PCAP_DIGEST = (
    "b6e612ceac1e711c5ac0d5ad48adacc8f00f98bbbe51acd860e99e2f676eb4b5"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Recorder(SenderModel):
    """A sender model that keeps what it is handed and sends nothing."""

    def __init__(self) -> None:
        super().__init__()
        self.queued: list[bytes] = []

    def enqueue(self, messages) -> None:
        self.queued.extend(messages)


def _announced_bytes(rib) -> bytes:
    """The UPDATE stream a speaker queues for a full-table transfer."""
    recorder = _Recorder()
    session = BgpSession(
        Simulator(), SimpleNamespace(), local_as=65001, bgp_id="10.0.0.1",
        rib=rib, sender_model=recorder,
    )
    session.announce_table()
    return b"".join(recorder.queued)


@pytest.mark.parametrize("seed,wide", sorted(TABLE_DIGESTS))
def test_table_update_stream(seed, wide):
    rib = generate_table(
        20_000, random.Random(seed), wide_asn_fraction=wide
    )
    expected = TABLE_DIGESTS[(seed, wide)]
    assert _sha256(_announced_bytes(rib)) == expected
    fresh = b"".join(encode_message(u) for u in rib.to_updates())
    assert _sha256(fresh) == expected


def test_quagga_archive_and_rib_snapshot():
    sim = Simulator()
    setup = MonitoringSetup(sim)
    for i, wide in enumerate((0.0, 0.1)):
        table = generate_table(
            1_500, random.Random(40 + i), wide_asn_fraction=wide
        )
        setup.add_router(
            RouterParams(name=f"r{i}", ip=f"10.{i + 1}.0.1", table=table)
        )
    setup.start()
    sim.run(until_us=seconds(60))
    archive = io.BytesIO()
    assert setup.collector.write_archive(archive) > 0
    snapshot = io.BytesIO()
    assert setup.collector.write_rib_snapshot(
        snapshot, peer_as=65001, peer_ip="10.1.0.1"
    ) == 3_000
    assert _sha256(archive.getvalue()) == ARCHIVE_DIGEST
    assert _sha256(snapshot.getvalue()) == SNAPSHOT_DIGEST


def _small_campaign():
    config = isp_quagga_config(seed=13, transfers=6)
    return dataclasses.replace(config, table_sizes=(2_000, 5_000))


def test_campaign_episode_captures():
    specs, _ = _draw_specs(_small_campaign())
    digests = []
    for spec in specs[:6]:
        pcap = io.BytesIO()
        run_episode(spec, pcap_out=pcap)
        digests.append(_sha256(pcap.getvalue()))
    assert tuple(digests) == EPISODE_PCAP_DIGESTS


def test_zero_ack_bug_episode_capture():
    pcap = io.BytesIO()
    run_zero_ack_bug_episode(_small_campaign(), pcap_out=pcap)
    assert _sha256(pcap.getvalue()) == ZERO_ACK_BUG_PCAP_DIGEST
