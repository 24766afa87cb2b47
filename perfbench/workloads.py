"""The three workloads: ``campaign``, ``analyze`` and ``serve``.

Each workload has a set-up (timed several times, in fresh processes),
a measured phase with tracing off, and a traced phase that reports the
per-layer table.  Every phase checks its outputs; a failed check is a
failed operation and turns ``correct`` false.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import http.client
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers

CAMPAIGN_TRANSFERS = 12
#: Every mixture episode transfers a table of this size (see
#: ``campaign_config``).
CAMPAIGN_TABLE_PREFIXES = 20_000
#: Fewest operations one measured run completes, whatever ``--seconds``
#: says: ``cpu_ms_per_op`` is a median over campaigns, passes or
#: session windows, and a session percentile needs ten samples beyond it.
MIN_CAMPAIGNS = 4
MIN_PASSES = 3
MIN_SESSIONS = 200
#: Sessions per sample of the server's CPU time (see ``serve_measured``).
SERVE_WINDOW = 25
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SERVE_CLIENTS = 2
SERVE_CHUNKS = 4
#: Sessions in the traced run's phases (see ``serve_traced``).
SERVE_TRACE_SESSIONS = 40
#: A run stops starting operations after this long, to finish in time.
HARD_STOP_S = 100.0


@dataclass
class Outcome:
    """What one run reports: counts, metrics and a readable summary."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


# ---------------------------------------------------------------------- #
# Statistics                                                               #
# ---------------------------------------------------------------------- #
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct * count / 100))


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_cpu_s() -> float:
    """User + system CPU seconds of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds another live process has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------- #
# Set-up                                                                   #
# ---------------------------------------------------------------------- #
class Setups:
    """The run's set-ups, each in a fresh process, one per :meth:`next`.

    The first set-up's inputs are the run's inputs; every later one
    must write identical inputs (it is then deleted).  For ``serve``
    each set-up also boots a server, and only the last one is kept.
    ``cpu`` and ``wall`` hold each set-up's CPU and wall seconds.
    """

    def __init__(
        self, workload: str, seed: int, repeats: int, work: Path,
        outcome: Outcome,
    ) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.outcome = outcome
        self.remaining = repeats
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.server: ServerProcess | None = None
        self.manifest: dict = {}
        self.inputs_dir = work / "setup-0"

    def next(self) -> None:
        attempt = len(self.cpu)
        out = self.work / f"setup-{attempt}"
        run_py = Path(__file__).resolve().parent / "run.py"
        if self.server is not None:
            self.server.stop()
            self.server = None
        start, start_cpu = time.perf_counter(), children_cpu_s()
        subprocess.run(
            [sys.executable, str(run_py), "--setup-only",
             "--workload", self.workload, "--seed", str(self.seed),
             "--out", str(out)],
            check=True, timeout=150,
        )
        used = children_cpu_s() - start_cpu
        if self.workload == "serve":
            self.server = ServerProcess(self.work / f"server-{attempt}.log")
            used += process_cpu_s(self.server.proc.pid)
        self.cpu.append(used)
        self.wall.append(time.perf_counter() - start)
        self.remaining -= 1
        manifest = json.loads((out / "manifest.json").read_text())
        if attempt == 0:
            self.manifest = manifest
            return
        if manifest["digest"] != self.manifest["digest"]:
            self.outcome.fail(
                f"set-up {attempt} wrote different inputs than set-up 0"
            )
        shutil.rmtree(out)


class ServerProcess:
    """``tdat serve --port 0`` in its own process."""

    def __init__(self, log: Path) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log_file = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.tdat_cli", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=self._log_file, env=env,
        )
        deadline = time.monotonic() + 60
        while True:
            text = log.read_text(errors="replace")
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"tdat serve did not start: {text!r}")
            time.sleep(0.01)

    def stop(self) -> None:
        """Ask for a drain, then make sure the process is gone."""
        if self.proc.poll() is None and hasattr(self, "port"):
            try:
                request_once(self.port, "POST", "/shutdown")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log_file.close()


# ---------------------------------------------------------------------- #
# Campaign                                                                 #
# ---------------------------------------------------------------------- #
def campaign_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th campaign of a run."""
    return seed * 100 + index


def campaign_config(seed: int):
    """The ISP_A-Quagga campaign of ``seed``, every table the same size.

    The seed still draws the pathology mixture and every episode's
    parameters.  The stock config also draws each clean, rate-limited
    and upstream-loss episode's table from 8k/20k/45k prefixes, and an
    episode's cost follows its table (an 8k-prefix episode costs about
    a fifth of a 45k one), so campaigns of different seeds cost from
    0.9 to 1.24 CPU seconds per transfer.
    """
    from repro.workloads.campaign import isp_quagga_config

    return dataclasses.replace(
        isp_quagga_config(seed=seed, transfers=CAMPAIGN_TRANSFERS),
        table_sizes=(CAMPAIGN_TABLE_PREFIXES,),
    )


def run_campaign(seed: int):
    """One campaign; returns it with its wall and CPU seconds."""
    from repro.api import Pipeline

    config = campaign_config(seed)
    gc.collect()
    start, start_cpu = time.perf_counter(), time.process_time()
    result = Pipeline(workers=1).campaign(config)
    return (
        result, time.perf_counter() - start, time.process_time() - start_cpu
    )


def check_campaign(result, outcome: Outcome, label: str) -> None:
    """Every episode produced a transfer record, and none crashed."""
    outcome.attempted += CAMPAIGN_TRANSFERS + 1  # + the zero-ACK episode
    for issue in result.health.failures:
        outcome.fail(f"{label}: {issue.kind}: {issue.detail}")
    missing = set(range(CAMPAIGN_TRANSFERS)) - {r.episode for r in result.records}
    for episode in sorted(missing):
        outcome.fail(f"{label}: episode {episode} has no transfer record")
    for record in result.records:
        ratios = record.factors.group_ratios.values()
        if not all(0.0 <= ratio <= 1.0 + 1e-9 for ratio in ratios):
            outcome.fail(f"{label}: episode {record.episode} ratios {ratios}")


def quality_pairs(result) -> tuple[list, list]:
    """What ``campaign_quality`` needs of a campaign's records."""
    return (
        [(r.pathology, r.factors.group_ratios) for r in result.records],
        [
            (r.true_timer_us, r.timer.timer_us if r.timer.detected else None)
            for r in result.records if r.true_timer_us
        ],
    )


def campaign_quality(agree_pairs: list, timer_pairs: list) -> dict[str, float]:
    return {
        "attribution_agree": inputs.attribution_agree(agree_pairs),
        "timer_err_pct": inputs.timer_err_pct(timer_pairs),
    }


def campaign_measured(seed: int, seconds: float, outcome: Outcome) -> None:
    """Campaigns until the time and count floors are met.

    Only small summaries of each campaign are kept: with the results
    held, six campaigns of one seed in a row grew from 9.0 to 11.3 CPU
    seconds each; with them dropped, they stayed near 10 s.
    """
    walls, cpus, records, packets, digests = [], [], [], [], {}
    agree_pairs, timer_pairs = [], []
    start = time.perf_counter()
    while len(walls) < MIN_CAMPAIGNS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        sub_seed = campaign_seed(seed, len(walls))
        result, wall, cpu = run_campaign(sub_seed)
        check_campaign(result, outcome, f"campaign seed {sub_seed}")
        walls.append(wall)
        cpus.append(cpu)
        records.append(len(result.records))
        packets.append(result.total_packets)
        digests[sub_seed] = inputs.canonical_digest(result.to_dict())
        agree, timers = quality_pairs(result)
        agree_pairs += agree
        timer_pairs += timers
        del result
    per_transfer_ms = [cpu * 1e3 / n for cpu, n in zip(cpus, records)]
    outcome.metrics.update({
        "cpu_ms_per_op": (statistics.median(per_transfer_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    })
    outcome.report.update({
        "campaigns": len(walls),
        "transfers": sum(records),
        "transfers_per_s": sum(records) / sum(walls),
        "pkts_per_s": sum(packets) / sum(walls),
        "campaign_s": walls,
        "campaign_cpu_s": cpus,
        "campaign_cpu_ms_per_transfer": per_transfer_ms,
        "campaign_pkts": packets,
        "digests": digests,
        **campaign_quality(agree_pairs, timer_pairs),
    })


def campaign_traced(seed: int, outcome: Outcome, tracer) -> dict:
    sub_seed = campaign_seed(seed, 0)

    def work(block):
        with block:
            result, wall, _ = run_campaign(sub_seed)
        check_campaign(result, outcome, f"campaign seed {sub_seed}")
        digest = inputs.canonical_digest(result.to_dict())
        return (digest, quality_pairs(result)), wall

    results, walls = three_runs(work, tracer)
    digests = {digest for digest, _ in results}
    if len(digests) != 1:
        outcome.fail("the traced campaign's records differ from the plain runs")
    outcome.report["digests"] = {sub_seed: sorted(digests)}
    return {**walls, **campaign_quality(*results[0][1])}


# ---------------------------------------------------------------------- #
# Analyze                                                                  #
# ---------------------------------------------------------------------- #
def render_json(report) -> tuple[dict, bytes]:
    """The ``tdat analyze --json`` payload and its encoded body."""
    from repro.analysis.render import report_payload

    payload = report_payload(report)
    return payload, (json.dumps(payload, indent=2) + "\n").encode()


def analyze_pass(capture: Path, render=render_json):
    """Analyze and render once; returns the output and its wall and CPU
    seconds."""
    from repro.api import Pipeline

    gc.collect()
    start, start_cpu = time.perf_counter(), time.process_time()
    report = Pipeline().analyze(str(capture))
    payload, body = render(report)
    return (
        payload, body,
        time.perf_counter() - start, time.process_time() - start_cpu,
    )


def check_report(payload: dict, manifest: dict, outcome: Outcome, label: str) -> None:
    """Record and connection counts match the input; nothing was lost."""
    health = payload["health"]
    if len(payload["connections"]) != manifest["connections"]:
        outcome.fail(
            f"{label}: {len(payload['connections'])} connections, "
            f"expected {manifest['connections']}"
        )
    if health["records_read"] != manifest["records"]:
        outcome.fail(
            f"{label}: read {health['records_read']} records, "
            f"expected {manifest['records']}"
        )
    if not health["ok"]:
        outcome.fail(f"{label}: health issues {health['by_kind']}")


def report_quality(payloads: list[dict], truth: dict) -> dict[str, float]:
    pairs, timers = [], []
    for payload in payloads:
        for connection in payload["connections"]:
            pathology, true_timer_us = truth[connection["sender"]]
            pairs.append((pathology, connection["factors"]["groups"]))
            if true_timer_us:
                gaps = connection["detectors"]["timer_gaps"]
                timers.append(
                    (true_timer_us, gaps["timer_us"] if gaps["detected"] else None)
                )
    return {
        "attribution_agree": inputs.attribution_agree(pairs),
        "timer_err_pct": inputs.timer_err_pct(timers),
    }


class AnalyzeMeasure:
    """The measured passes; :func:`run` interleaves them with the
    set-ups, so they sample the host over the whole run rather than
    during one stretch of it."""

    def __init__(self, manifest: dict, capture: Path, outcome: Outcome) -> None:
        self.manifest, self.capture, self.outcome = manifest, capture, outcome
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.digests: set[str] = set()
        self.payload: dict = {}

    def step(self) -> None:
        self.payload, body, wall, cpu = analyze_pass(self.capture)
        self.outcome.attempted += 1
        check_report(
            self.payload, self.manifest, self.outcome, f"pass {len(self.walls)}"
        )
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.digests.add(inputs.digest(body))

    def enough(self, seconds: float) -> bool:
        measured = sum(self.walls)
        return measured > HARD_STOP_S or (
            len(self.walls) >= MIN_PASSES and measured >= seconds
        )

    def finish(self) -> None:
        manifest, walls, outcome = self.manifest, self.walls, self.outcome
        if len(self.digests) != 1:
            outcome.fail(
                f"passes over one capture rendered {len(self.digests)} reports"
            )
        passes, total = len(walls), sum(walls)
        outcome.metrics.update({
            "cpu_ms_per_op": (statistics.median(self.cpus) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        })
        outcome.report.update({
            "passes": passes,
            "pkts_per_s": manifest["records"] * passes / total,
            "transfers_per_s": manifest["connections"] * passes / total,
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "records": manifest["records"],
            "connections": manifest["connections"],
            "pass_s": walls,
            "pass_cpu_s": self.cpus,
            "digests": {
                "capture": manifest["digest"], "report": sorted(self.digests),
            },
            **report_quality([self.payload], manifest["truth"]),
        })


def analyze_traced(
    manifest: dict, capture: Path, outcome: Outcome, tracer
) -> dict:
    render_traced = tracer.wrap(
        render_json, "render", True,
        lambda args, result: {"render.bytes": len(result[1])},
    )

    def work(block):
        with block:
            payload, body, wall, _ = analyze_pass(
                capture,
                render_traced if isinstance(block, TracedBlock) else render_json,
            )
        outcome.attempted += 1
        check_report(payload, manifest, outcome, "traced-run pass")
        return (payload, body), wall

    results, walls = three_runs(work, tracer)
    bodies = {inputs.digest(body) for _, body in results}
    if len(bodies) != 1:
        outcome.fail("the traced pass rendered a different report")
    outcome.report["digests"] = {
        "capture": manifest["digest"], "report": sorted(bodies),
    }
    return {**walls, **report_quality([results[0][0]], manifest["truth"])}


# ---------------------------------------------------------------------- #
# Serve                                                                    #
# ---------------------------------------------------------------------- #
class SessionFailed(Exception):
    pass


def request(conn, method, path, body=b"", headers=None):
    """One HTTP request; returns ``(status, response, body)``."""
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, response, response.read()


def request_once(port: int, method: str, path: str) -> bytes:
    """One request on a fresh connection; returns the body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        return request(conn, method, path)[2]
    finally:
        conn.close()


@dataclass
class SessionCapture:
    data: bytes
    expected: dict
    records: int
    connections: int


def load_session_captures(inputs_dir: Path, manifest: dict) -> list[SessionCapture]:
    return [
        SessionCapture(
            data=(inputs_dir / f"session-{n}.pcap").read_bytes(),
            expected=json.loads((inputs_dir / f"session-{n}.json").read_text()),
            records=capture["records"],
            connections=capture["connections"],
        )
        for n, capture in enumerate(manifest["captures"])
    ]


class Client:
    """One closed-loop client: each request waits for its reply."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.timings: dict[str, list[float]] = {
            "upload": [], "report_get": [], "revalidate": [], "finish": [],
        }
        self.report_gets = 0

    def _call(self, method, path, expect, body=b"", headers=None, timing=None):
        start = time.perf_counter()
        try:
            status, response, payload = request(
                self.conn, method, path, body, headers
            )
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            raise SessionFailed(f"{method} {path}: {exc}") from exc
        if timing is not None:
            self.timings[timing].append(time.perf_counter() - start)
        if status not in expect:
            raise SessionFailed(f"{method} {path}: HTTP {status} {payload[:200]!r}")
        return status, response, payload

    def session(self, capture: SessionCapture) -> float:
        """Run one session; returns its latency."""
        start = time.perf_counter()
        _, _, body = self._call("POST", "/sessions", (201,))
        base = f"/sessions/{json.loads(body)['id']}"
        size = len(capture.data)
        bounds = [size * n // SERVE_CHUNKS for n in range(SERVE_CHUNKS + 1)]
        etag = None
        for low, high in zip(bounds, bounds[1:]):
            self._call("POST", f"{base}/pcap", (202,),
                       body=capture.data[low:high], timing="upload")
            headers = {"If-None-Match": etag} if etag else {}
            _, response, _ = self._call(
                "GET", f"{base}/report", (200, 304), headers=headers,
                timing="report_get",
            )
            self.report_gets += 1
            etag = response.getheader("ETag")
        _, _, body = self._call("POST", f"{base}/finish?wait=1", (200,),
                                timing="finish")
        if json.loads(body)["state"] != "done":
            raise SessionFailed(f"{base}: finished in state {body[:200]!r}")
        _, response, body = self._call("GET", f"{base}/report", (200,),
                                       timing="report_get")
        self.report_gets += 1
        latency = time.perf_counter() - start
        if json.loads(body) != capture.expected:
            raise SessionFailed(f"{base}: final report differs from analyze_pcap")
        self._call("GET", f"{base}/report", (304,),
                   headers={"If-None-Match": response.getheader("ETag")},
                   timing="revalidate")
        self.report_gets += 1
        self._call("DELETE", base, (204,))
        return latency

    def close(self) -> None:
        self.conn.close()


@dataclass
class LoadResult:
    latencies: list[float] = field(default_factory=list)
    records: int = 0
    connections: int = 0
    wall: float = 0.0
    clients: list[Client] = field(default_factory=list)
    #: ``window_cpu()`` at the start and after every ``SERVE_WINDOW``
    #: completed sessions.
    window_cpu: list[float] = field(default_factory=list)


def drive_sessions(
    port: int,
    captures: list[SessionCapture],
    clients: int,
    outcome: Outcome,
    seconds: float = 0.0,
    min_sessions: int = 0,
    sessions: int | None = None,
    window_cpu=None,
) -> LoadResult:
    """Closed-loop clients until the time and sample floors are met.

    With ``sessions`` set, exactly that many sessions run instead.
    """
    result = LoadResult()
    if window_cpu is not None:
        result.window_cpu.append(window_cpu())
    lock = threading.Lock()
    started = [0]
    start = time.perf_counter()

    def next_capture() -> SessionCapture | None:
        with lock:
            elapsed = time.perf_counter() - start
            if sessions is not None:
                done = started[0] >= sessions
            else:
                done = (
                    elapsed >= seconds and len(result.latencies) >= min_sessions
                ) or elapsed > HARD_STOP_S
            if done:
                return None
            number = started[0]
            started[0] += 1
            outcome.attempted += 1
            return captures[number % len(captures)]

    def loop(client: Client) -> None:
        try:
            while (capture := next_capture()) is not None:
                try:
                    latency = client.session(capture)
                except SessionFailed as exc:
                    with lock:
                        outcome.fail(str(exc))
                    continue
                with lock:
                    result.latencies.append(latency)
                    result.records += capture.records
                    result.connections += capture.connections
                    done = len(result.latencies)
                    if window_cpu is not None and done % SERVE_WINDOW == 0:
                        result.window_cpu.append(window_cpu())
        finally:
            client.close()

    result.clients = [Client(port) for _ in range(clients)]
    threads = [threading.Thread(target=loop, args=(c,)) for c in result.clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - start
    return result


def serve_measured(
    server: ServerProcess, captures, manifest: dict, seconds: float,
    outcome: Outcome,
) -> None:
    """Closed-loop load; the server's CPU time is sampled every
    ``SERVE_WINDOW`` sessions, and ``cpu_ms_per_op`` is the median
    window's CPU milliseconds per session."""
    load = drive_sessions(
        server.port, captures, SERVE_CLIENTS, outcome,
        seconds=seconds, min_sessions=MIN_SESSIONS,
        window_cpu=lambda: process_cpu_s(server.proc.pid),
    )
    latencies = [latency * 1e3 for latency in load.latencies]
    marks = load.window_cpu
    window_ms = [
        (after - before) * 1e3 / SERVE_WINDOW
        for before, after in zip(marks, marks[1:])
    ]
    if not window_ms:
        raise RuntimeError(f"fewer than {SERVE_WINDOW} sessions completed")
    tail = 95 if samples_beyond(len(latencies), 95) >= 10 else 50
    outcome.metrics.update({
        "cpu_ms_per_op": (statistics.median(window_ms), "ms"),
        "peak_rss_mb": (process_peak_rss_mb(server.proc.pid), "MiB"),
    })
    outcome.report.update({
        "sessions": len(latencies),
        "server_cpu_ms_per_session": window_ms,
        "transfers_per_s": load.connections / load.wall,
        "pkts_per_s": load.records / load.wall,
        "sessions_per_s": len(latencies) / load.wall,
        "session_p50_ms": percentile(latencies, 50),
        f"session_p{tail}_ms": percentile(latencies, tail),
        "capture_bytes": len(captures[0].data),
        "digests": {
            "captures": manifest["digest"],
            "reports": [c["report_digest"] for c in manifest["captures"]],
        },
        **report_quality([c.expected for c in captures], manifest["truth"]),
    })


class InProcessServer:
    """The service hosted in this process (attribution only)."""

    def __init__(self) -> None:
        from repro.api import Pipeline, ServeRequest

        self.server = Pipeline().build_server(
            ServeRequest(host="127.0.0.1", port=0)
        )
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={"on_ready": lambda host, port: ready.set()},
        )
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.port

    def stop(self) -> None:
        self.server.request_shutdown()
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("in-process server did not drain")


def serve_traced(
    server: ServerProcess, captures, manifest: dict, outcome: Outcome, tracer
) -> dict:
    """Per-endpoint timings, then an untraced and a traced phase.

    The per-endpoint client timings and the cache-hit ratio come from
    the real set-up (server process, two clients).  Layer attribution
    needs the server's threads in this process, so the traced phase
    hosts it via ``Pipeline.build_server`` with one client, so that the
    layers of concurrent sessions do not overlap in time; an identical
    untraced phase is the base of the overhead ratio.
    """
    load = drive_sessions(
        server.port, captures, SERVE_CLIENTS, outcome,
        sessions=SERVE_TRACE_SESSIONS,
    )
    body = request_once(server.port, "GET", "/metrics")
    hits = json.loads(body).get("serve.cache_hits", {}).get("value", 0)
    gets = sum(client.report_gets for client in load.clients)
    timings = {
        name: [t for client in load.clients for t in client.timings[name]]
        for name in load.clients[0].timings
    }

    def work(block):
        hosted = InProcessServer()
        try:
            with block:
                phase = drive_sessions(
                    hosted.port, captures, 1, outcome,
                    sessions=SERVE_TRACE_SESSIONS,
                )
        finally:
            hosted.stop()
        return phase, phase.wall

    _, walls = three_runs(work, tracer)
    outcome.report["layer_times"] = (
        "attribution only: server hosted in the benchmark process, one client"
    )
    return {
        **walls,
        "serve.upload_ms_p50": median_or_zero(timings["upload"]) * 1e3,
        "serve.report_get_ms_p50": median_or_zero(timings["report_get"]) * 1e3,
        "serve.revalidate_ms_p50": median_or_zero(timings["revalidate"]) * 1e3,
        "serve.finish_ms_p50": median_or_zero(timings["finish"]) * 1e3,
        "serve.cache_hit_ratio": hits / gets if gets else 0.0,
        **report_quality([c.expected for c in captures], manifest["truth"]),
    }


# ---------------------------------------------------------------------- #
# Traced runs                                                              #
# ---------------------------------------------------------------------- #
class TracedBlock:
    """The traced part of a run: layer wrappers in, one root span."""

    def __init__(self, tracer) -> None:
        self._stack = contextlib.ExitStack()
        self._tracer = tracer

    def __enter__(self):
        self._stack.enter_context(layers.instrument(self._tracer))
        self._stack.enter_context(self._tracer.layer("workload"))
        return self

    def __exit__(self, *exc_info):
        return self._stack.__exit__(*exc_info)


def three_runs(work, tracer) -> tuple[list, dict[str, float]]:
    """Run ``work`` untraced, traced, then untraced again.

    ``work(block)`` times its own work inside ``with block`` and returns
    ``(result, wall)``.  The overhead ratio compares this process's CPU
    seconds, which host contention moves far less than wall time; the
    untraced side is the mean of the runs before and after, so neither
    a cold first run nor a warm last one biases it.
    """
    results, walls, cpus = [], [], []
    for block in (
        contextlib.nullcontext(), TracedBlock(tracer), contextlib.nullcontext()
    ):
        start_cpu = time.process_time()
        result, wall = work(block)
        cpus.append(time.process_time() - start_cpu)
        results.append(result)
        walls.append(wall)
    return results, {
        "traced_wall": walls[1],
        "overhead_ratio": cpus[1] / ((cpus[0] + cpus[2]) / 2),
    }


# ---------------------------------------------------------------------- #
# One run                                                                  #
# ---------------------------------------------------------------------- #
PER_LAYER_UNITS = {
    "self_s": "s",
    "us_per_event": "us",
    "mmap_share": "ratio",
    "bytes": "bytes",
    "overhead_ratio": "ratio",
    "cache_hit_ratio": "ratio",
    "wall_s": "s",
    "unattributed_s": "s",
    "attribution_agree": "ratio",
    "timer_err_pct": "%",
}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_ms_p50"):
        return "ms"
    return PER_LAYER_UNITS.get(suffix, "count")


def layer_metrics(tracer, traced: dict) -> dict[str, tuple[float, str]]:
    """The per-layer table of a traced run, with units."""
    counts = tracer.counts()
    table = layers.layer_table(
        traced["traced_wall"], tracer.self_times(), counts
    )
    fast = table.pop("pcap.read.fast_records")
    records = table["pcap.read.records"]
    events = table["netsim.events"]
    table["netsim.us_per_event"] = (
        table["netsim.self_s"] * 1e6 / events if events else 0.0
    )
    table["pcap.read.mmap_share"] = fast / records if records else 0.0
    table["trace.overhead_ratio"] = traced["overhead_ratio"]
    for name in (
        "serve.upload_ms_p50", "serve.report_get_ms_p50",
        "serve.revalidate_ms_p50", "serve.finish_ms_p50",
        "serve.cache_hit_ratio", "attribution_agree", "timer_err_pct",
    ):
        table[name] = traced.get(name, 0.0)
    return {name: (value, per_layer_unit(name)) for name, value in table.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    """Set up, measure (or trace) and check one workload."""
    outcome = Outcome()
    state = root / ".perfbench"
    work = state / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setups = None
    try:
        # The traced run reports no set-up time: one set-up will do.
        setups = Setups(
            workload, seed, 1 if trace else SETUP_REPEATS, work,
            outcome,
        )
        setups.next()
        manifest, inputs_dir = setups.manifest, setups.inputs_dir
        measure = None
        if workload == "analyze" and not trace:
            measure = AnalyzeMeasure(
                manifest, inputs_dir / "capture.pcap", outcome
            )
        while setups.remaining:
            if measure is not None:
                measure.step()
            setups.next()
        outcome.report["setup_cpu_s"] = setups.cpu
        outcome.report["setup_wall_s"] = setups.wall
        server = setups.server
        captures = (
            load_session_captures(inputs_dir, manifest)
            if workload == "serve" else None
        )
        if not trace:
            if workload == "campaign":
                campaign_measured(seed, seconds, outcome)
            elif measure is not None:
                while not measure.enough(seconds):
                    measure.step()
                measure.finish()
            else:
                serve_measured(server, captures, manifest, seconds, outcome)
            outcome.metrics["setup_s"] = (statistics.median(setups.cpu), "s")
            return outcome
        tracer = layers.LayerTracer()
        if workload == "campaign":
            traced = campaign_traced(seed, outcome, tracer)
        elif workload == "analyze":
            traced = analyze_traced(
                manifest, inputs_dir / "capture.pcap", outcome, tracer
            )
        else:
            traced = serve_traced(server, captures, manifest, outcome, tracer)
        outcome.metrics.update(layer_metrics(tracer, traced))
        trace_file = state / f"trace-{workload}-{seed}.json"
        tracer.write_chrome(trace_file)
        table = {name: value for name, (value, _) in outcome.metrics.items()}
        (state / f"layers-{workload}-{seed}.json").write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n"
        )
        outcome.report["trace_file"] = str(trace_file.relative_to(root))
        return outcome
    finally:
        if setups is not None and setups.server is not None:
            setups.server.stop()
        shutil.rmtree(work, ignore_errors=True)
