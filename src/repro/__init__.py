"""T-DAT: a TCP delay analyzer for BGP slow table transfers.

A faithful, self-contained reproduction of *"Explaining BGP Slow Table
Transfers: Implementing a TCP Delay Analyzer"* — the analyzer itself
plus every substrate it needs: a deterministic network simulator, a
window-based TCP, a BGP implementation with the pathologies the paper
studies, byte-faithful pcap capture, and the measurement campaigns
regenerating the paper's tables and figures.

Quick start::

    from repro import netsim, bgp, workloads
    from repro.api import Pipeline

    sim = netsim.Simulator()
    setup = workloads.MonitoringSetup(sim)
    setup.add_router(workloads.RouterParams(
        name="r1", ip="10.1.0.1",
        table=bgp.generate_table(1000, netsim.RandomStreams(1).stream("t")),
    ))
    setup.start()
    sim.run(until_us=60_000_000)
    report = Pipeline().analyze(setup.sniffer.sorted_records())
"""

from repro import (
    analysis,
    api,
    bgp,
    capture,
    core,
    exec,
    netsim,
    tcp,
    tools,
    wire,
    workloads,
)

__version__ = "2.0.0"

__all__ = [
    "analysis",
    "api",
    "exec",
    "bgp",
    "capture",
    "core",
    "netsim",
    "tcp",
    "tools",
    "wire",
    "workloads",
    "__version__",
]
