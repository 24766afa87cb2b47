"""Seeded inputs and ground truth for the benchmark workloads.

Everything here is a pure function of the seed: two set-ups with one
seed write byte-identical captures, which the benchmark checks on every
run.  The captures come from the simulator, so each connection's
injected pathology (and timer value) is known and T-DAT's attribution
can be scored against it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from dataclasses import replace
from pathlib import Path

#: The factor group each injected pathology should be blamed on.  The
#: groups follow the paper's Table IV: a downstream blackout is
#: receiver-local (Fig. 7), a loaded collector and the zero-ACK bug sit
#: at the receiver, timers and rate limits at the sender.  Clean
#: transfers have no expected group and are not scored.
EXPECTED_GROUP = {
    "timer": "sender",
    "rate-limited": "sender",
    "loaded-collector": "receiver",
    "zero-ack-bug": "receiver",
    "downstream-loss": "receiver",
    "upstream-loss": "network",
}

GROUPS = ("sender", "receiver", "network")

#: The simulated episodes behind the analyze and serve captures are the
#: first six (one per pathology) of the default RV and ISP_A-Quagga
#: campaigns, the same on every seed: T-DAT's cost per record differs
#: threefold between episodes (a slow rate-limited sender's long
#: transfer costs most), so episodes drawn per seed would swamp any
#: bound.  The seed draws what a monitoring tap varies instead: the
#: anonymization keys (every address) and the copies' start offsets.
EPISODES = 6

#: The analyze capture: the RV episodes (3.6k records) copied under
#: distinct keys, each copy shifted by up to ``ANALYZE_SPREAD_US``.
ANALYZE_COPIES = 20
ANALYZE_SPREAD_US = 2_000_000

#: The serve captures: copies of the ISP_A-Quagga episodes over small
#: tables, so every session uploads the same number of bytes.
SERVE_COPIES = 8
SERVE_TABLE_PREFIXES = 2_000


def largest_group(groups: dict[str, float]) -> str:
    """The group with the largest ratio; ties go to the earlier group."""
    return max(GROUPS, key=lambda group: (groups.get(group, 0.0), -GROUPS.index(group)))


def attribution_agree(pairs: list[tuple[str, dict[str, float]]]) -> float:
    """Share of non-clean transfers blamed on their expected group.

    ``pairs`` holds ``(pathology, group_ratios)`` per transfer.
    """
    scored = [
        largest_group(groups) == EXPECTED_GROUP[pathology]
        for pathology, groups in pairs
        if pathology in EXPECTED_GROUP
    ]
    return sum(scored) / len(scored) if scored else 0.0


def timer_err_pct(pairs: list[tuple[int, int | None]]) -> float:
    """Median relative error of the inferred batching timer, in percent.

    ``pairs`` holds ``(true_timer_us, inferred_us or None)`` per timer
    transfer; an undetected timer counts as a 100% error.
    """
    errors = [
        100.0 if inferred is None else abs(inferred - true) * 100.0 / true
        for true, inferred in pairs
    ]
    return statistics.median(errors) if errors else 0.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(payload) -> str:
    """Digest of a JSON-able value, independent of key order."""
    return digest(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )


# ---------------------------------------------------------------------- #
# Simulated episodes                                                       #
# ---------------------------------------------------------------------- #
def simulate_episodes(config) -> list[dict]:
    """Simulate every episode of a campaign config, keeping captures.

    Returns one entry per episode: its pathology, true timer, capture
    records and the router addresses that send its tables.
    """
    from repro.wire import frames
    from repro.wire.pcap import read_pcap
    from repro.workloads.campaign import _draw_specs, run_episode

    specs, _tables = _draw_specs(config)
    episodes = []
    for spec in specs:
        buffer = io.BytesIO()
        run_episode(spec, pcap_out=buffer)
        records = read_pcap(io.BytesIO(buffer.getvalue()))
        senders = sorted({
            fields.src_ip
            for fields in (frames.parse_packet(r.data) for r in records)
            if fields.dst_port == 179
        })
        episodes.append({
            "pathology": spec.pathology,
            "true_timer_us": spec.timer_ms * 1000 if spec.timer_ms else None,
            "records": records,
            "senders": senders,
        })
    return episodes


def replicate(
    episodes: list[dict], keys: list[bytes], offsets: list[int]
) -> tuple[list, dict[str, list]]:
    """Anonymized copies of ``episodes`` merged on the timestamp axis.

    Copy ``i`` is anonymized under ``keys[i]`` and shifted by
    ``offsets[i]`` microseconds, like one tap facing many peers.
    Returns the merged records and the truth map
    ``anonymized sender -> [pathology, true_timer_us]``.
    """
    from repro.tools.anonymize import PrefixPreservingAnonymizer, anonymize_record
    from repro.wire.pcap import PcapRecord

    tagged = []
    truth: dict[str, list] = {}
    for copy, (key, offset) in enumerate(zip(keys, offsets)):
        anonymizer = PrefixPreservingAnonymizer(key)
        for number, episode in enumerate(episodes):
            for sender in episode["senders"]:
                truth[anonymizer.anonymize_ip(sender)] = [
                    episode["pathology"], episode["true_timer_us"],
                ]
            for index, record in enumerate(episode["records"]):
                anonymous = anonymize_record(record, anonymizer)
                tagged.append((
                    record.timestamp_us + offset, copy, number, index,
                    PcapRecord(
                        timestamp_us=record.timestamp_us + offset,
                        data=anonymous.data,
                        original_length=anonymous.original_length,
                    ),
                ))
    expected = len(keys) * sum(len(e["senders"]) for e in episodes)
    if len(truth) != expected:
        raise RuntimeError(
            f"anonymized senders collide: {len(truth)} of {expected} distinct"
        )
    tagged.sort(key=lambda item: item[:4])
    return [item[4] for item in tagged], truth


def _pcap_bytes(records) -> bytes:
    from repro.wire.pcap import write_pcap

    buffer = io.BytesIO()
    write_pcap(buffer, records)
    return buffer.getvalue()


def build_analyze_inputs(seed: int, out: Path) -> dict:
    """One large capture: anonymized copies of six RV episodes."""
    from repro.workloads.campaign import routeviews_config

    episodes = simulate_episodes(routeviews_config(transfers=EPISODES))
    rng = random.Random(f"perfbench-analyze-{seed}")
    keys = [f"analyze-{seed}-{copy}".encode() for copy in range(ANALYZE_COPIES)]
    offsets = [rng.randrange(ANALYZE_SPREAD_US) for _ in keys]
    records, truth = replicate(episodes, keys, offsets)
    data = _pcap_bytes(records)
    (out / "capture.pcap").write_bytes(data)
    return {
        "records": len(records),
        "connections": len(truth),
        "truth": truth,
        "digest": digest(data),
    }


def build_serve_inputs(seed: int, out: Path) -> dict:
    """``SERVE_COPIES`` equal-size captures plus each one's expected report.

    The base capture is the first six ISP_A-Quagga episodes (one per
    pathology) over small tables, merged; the copies differ only in
    their anonymization key.  The expected report is
    ``report_payload(analyze_pcap(...))`` on the same bytes.
    """
    from repro.analysis.render import report_payload
    from repro.analysis.tdat import analyze_pcap
    from repro.workloads.campaign import isp_quagga_config

    config = replace(
        isp_quagga_config(transfers=EPISODES),
        table_sizes=(SERVE_TABLE_PREFIXES,),
    )
    episodes = simulate_episodes(config)
    captures = []
    truth: dict[str, list] = {}
    for copy in range(SERVE_COPIES):
        records, copy_truth = replicate(
            episodes, [f"serve-{seed}-{copy}".encode()], [0]
        )
        truth.update(copy_truth)
        if len(truth) != (copy + 1) * len(copy_truth):
            raise RuntimeError("anonymized senders collide across copies")
        data = _pcap_bytes(records)
        (out / f"session-{copy}.pcap").write_bytes(data)
        payload = report_payload(analyze_pcap(io.BytesIO(data)))
        expected = json.loads(json.dumps(payload))
        (out / f"session-{copy}.json").write_text(json.dumps(expected))
        captures.append({
            "records": len(records),
            "connections": len(copy_truth),
            "bytes": len(data),
            "digest": digest(data),
            "report_digest": canonical_digest(expected),
        })
    return {
        "captures": captures,
        "truth": truth,
        "digest": canonical_digest([c["digest"] for c in captures]),
    }


def build_inputs(workload: str, seed: int, out: Path) -> dict:
    """Synthesize ``workload``'s inputs under ``out``; returns its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "analyze":
        manifest = build_analyze_inputs(seed, out)
    elif workload == "serve":
        manifest = build_serve_inputs(seed, out)
    else:
        # The campaign synthesizes its own tables inside the timed
        # call; its set-up is the imports alone.
        import repro.api  # noqa: F401

        manifest = {"digest": digest(b"")}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    return manifest
