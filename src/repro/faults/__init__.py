"""Failure injection: deterministic pcap mangling and fuzz campaigns.

The paper's premise is that real capture data is dirty — tcpdump drops
packets, sniffer placement loses frames, year-long traces arrive
truncated and bit-mangled.  This package damages clean simulated
captures in all of those ways, deterministically, so the ingest
pipeline's graceful-degradation guarantees can be asserted rather than
hoped for:

* :mod:`repro.faults.mangle` — composable, seeded fault operators over
  raw pcap bytes (truncation, header/payload corruption, record
  duplication/reordering/dropping, timestamp regression, frame
  slicing, BGP marker/length flips);
* :mod:`repro.faults.fuzz` — a campaign driver that runs the full
  T-DAT pipeline over N seeded mangled variants of a clean trace and
  asserts the robustness invariant: no mangled trace crashes the
  pipeline, every run yields a TraceHealth report, and a clean trace
  yields an empty one with unchanged factor vectors.
"""

from repro.faults.mangle import (
    OPERATORS,
    FaultOp,
    mangle,
    random_plan,
    split_pcap,
)

__all__ = [
    "FaultOp",
    "FuzzCase",
    "FuzzReport",
    "OPERATORS",
    "mangle",
    "random_plan",
    "run_fuzz",
    "split_pcap",
]


def __getattr__(name):
    # repro.faults.fuzz imports lazily so the mangler stays importable
    # without the simulator stack.
    if name in ("FuzzCase", "FuzzReport", "run_fuzz"):
        from repro.faults import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
