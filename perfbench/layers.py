"""Per-layer self times for the traced benchmark run.

The traced run never touches ``src/``: :func:`instrument` swaps the
public functions at each layer boundary for timing wrappers, from the
benchmark's side, and puts the originals back afterwards.  A span's
*self time* is its duration minus the time its child spans cover, so
the layers' self times plus the time spent outside every layer add up
to the traced wall time.

Two kinds of boundary:

* **span** layers run a few times per episode, connection or session
  (the simulator loop, each Figure-10 stage, rendering).  Each call is
  kept in memory as a span with a name, start, end, parent and a shared
  group id (episode, connection or session).
* **aggregate** layers run per packet, per message or per prefix
  (TCP, the BGP codec, the sniffer, pcap records, frame decode).  One
  span per call would cost more than the work, so their time and call
  count are summed into the nearest enclosing span instead.

State is per thread: the analysis service runs sessions on worker
threads, and each thread keeps its own stack and totals, merged when
the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Every layer the traced run reports, in pipeline order.
LAYERS = (
    "netsim",
    "tcp",
    "bgp.table",
    "bgp.encode",
    "bgp.decode",
    "bgp.collector",
    "capture",
    "analysis.mct",
    "pcap.read",
    "frame.decode",
    "analysis.profile",
    "analysis.ack_shift",
    "analysis.label",
    "analysis.series",
    "analysis.voids",
    "analysis.classify",
    "analysis.detectors",
    "render",
)

#: Work counts the layers report; each repeats exactly for one input.
COUNTS = (
    "netsim.events",
    "tcp.segments",
    "bgp.table.prefixes",
    "bgp.encode.messages",
    "bgp.encode.bytes",
    "bgp.decode.messages",
    "bgp.collector.routes",
    "capture.packets",
    "pcap.read.records",
    "pcap.read.fast_records",
    "frame.decode.packets",
    "analysis.connections",
    "render.bytes",
)

# Frame slots: a frame is a list, the cheapest mutable record here.
# OWNER is the nearest enclosing span's frame; RECORD is the span
# record (None for aggregate frames).
_NAME, _START, _CHILD, _OWNER, _RECORD = range(5)


class _ThreadState:
    __slots__ = ("tid", "stack", "self_s", "counts", "spans", "group")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.group: str | None = None


class LayerTracer:
    """Spans and aggregates kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []  # guarded-by: _lock
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enter(self, name: str, span: bool) -> tuple[_ThreadState, list]:
        """Open a frame for ``name``; pair with :meth:`exit`."""
        state = self._state()
        stack = state.stack
        owner = stack[-1][_OWNER] if stack else None
        if span:
            record = {
                "id": next(self._ids),
                "name": name,
                "parent": owner[_RECORD]["id"] if owner is not None else None,
                "group": state.group,
                "tid": state.tid,
                "agg": {},
            }
            state.spans.append(record)
            frame = [name, 0.0, 0.0, None, record]
            frame[_OWNER] = frame
        else:
            frame = [name, 0.0, 0.0, owner, None]
        stack.append(frame)
        frame[_START] = self.clock()
        return state, frame

    def exit(self, state: _ThreadState, frame: list) -> None:
        end = self.clock()
        stack = state.stack
        stack.pop()
        duration = end - frame[_START]
        own = duration - frame[_CHILD]
        name = frame[_NAME]
        state.self_s[name] += own
        if stack:
            stack[-1][_CHILD] += duration
        record = frame[_RECORD]
        if record is not None:
            record["start"] = frame[_START] - self.origin
            record["end"] = end - self.origin
        elif frame[_OWNER] is not None:
            agg = frame[_OWNER][_RECORD]["agg"]
            totals = agg.get(name)
            if totals is None:
                agg[name] = [own, 1]
            else:
                totals[0] += own
                totals[1] += 1

    def count(self, name: str, amount: int = 1) -> None:
        self._state().counts[name] += amount

    @contextmanager
    def layer(self, name: str, span: bool = True) -> Iterator[None]:
        state, frame = self.enter(name, span)
        try:
            yield
        finally:
            self.exit(state, frame)

    @contextmanager
    def group(self, label: str) -> Iterator[None]:
        """Tag every span this thread opens inside with ``label``."""
        state = self._state()
        saved, state.group = state.group, label
        try:
            yield
        finally:
            state.group = saved

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        span: bool,
        counter: Callable[[tuple, Any], dict[str, int]] | None = None,
    ) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            state, frame = enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(state, frame)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    state.counts[key] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(
        self,
        fn: Callable,
        name: str | None,
        span: bool = False,
        item_counter: str | None = None,
    ) -> Callable:
        """Time every ``next()`` of the generator ``fn`` returns.

        ``name=None`` only counts the items (a boundary nested inside
        another layer's time, such as the mmap fast path).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._drive(
                fn(*args, **kwargs), name, span, item_counter
            )

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, inner, name, span, item_counter):
        try:
            while True:
                if name is None:
                    state = self._state()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                else:
                    state, frame = self.enter(name, span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit(state, frame)
                if item_counter is not None:
                    state.counts[item_counter] += 1
                yield item
        finally:
            inner.close()

    def wrap_group(
        self,
        fn: Callable,
        label: Callable[[tuple, dict], str],
        counter: str | None = None,
    ) -> Callable:
        """Run ``fn`` with a group id derived from its arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            with tracer.group(label(args, kwargs)):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_group_generator(self, fn: Callable, prefix: str) -> Callable:
        """Give each generator ``fn`` returns its own group id."""
        tracer = self
        numbers = itertools.count(1)

        def wrapper(*args, **kwargs):
            return tracer._grouped(
                fn(*args, **kwargs), f"{prefix}-{next(numbers)}"
            )

        wrapper.__wrapped__ = fn
        return wrapper

    def _grouped(self, inner, label):
        try:
            while True:
                with self.group(label):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item
        finally:
            inner.close()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _merged(self, attr: str) -> dict:
        totals: dict = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, value in getattr(state, attr).items():
                totals[name] += value
        return dict(totals)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, summed over threads."""
        return self._merged("self_s")

    def counts(self) -> dict[str, int]:
        return self._merged("counts")

    def spans(self) -> list[dict]:
        with self._lock:
            threads = list(self._threads)
        out = [span for state in threads for span in state.spans if "end" in span]
        out.sort(key=lambda span: (span["start"], span["id"]))
        return out

    def chrome_trace(self) -> dict:
        """The spans as a Chrome ``trace_event`` document (Perfetto)."""
        tids: dict[int, int] = {}
        events = []
        for span in self.spans():
            tid = tids.setdefault(span["tid"], len(tids))
            args: dict[str, Any] = {"id": span["id"]}
            if span["parent"] is not None:
                args["parent"] = span["parent"]
            if span["group"] is not None:
                args["group"] = span["group"]
            for layer, (own, calls) in sorted(span["agg"].items()):
                args[layer] = {"calls": calls, "self_ms": round(own * 1e3, 3)}
            events.append({
                "name": span["name"],
                "cat": "perfbench",
                "ph": "X",
                "ts": round(span["start"] * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        metadata = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "perfbench traced run"},
        }]
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> None:
        path.write_text(json.dumps(self.chrome_trace()) + "\n")


def layer_table(
    wall_s: float, self_times: dict[str, float], counts: dict[str, int]
) -> dict[str, float]:
    """Per-layer metrics: ``<layer>.self_s``, counts, and the remainder.

    ``trace.unattributed_s`` is the traced wall time not covered by any
    layer's self time, so the layers plus it account for the wall time.
    """
    table: dict[str, float] = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    for name in COUNTS:
        table[name] = counts.get(name, 0)
    table["trace.wall_s"] = wall_s
    table["trace.unattributed_s"] = wall_s - sum(
        self_times.get(layer, 0.0) for layer in LAYERS
    )
    return table


# ---------------------------------------------------------------------- #
# The boundaries                                                          #
# ---------------------------------------------------------------------- #
def _replace_everywhere(original: Callable, replacement: Callable) -> list:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns what to restore."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _replace_method(owner: object, attr: str, make: Callable) -> list:
    """Replace a class's method (or a module's function) with
    ``make(original)``; returns what to restore."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make(static.__func__)))
    else:
        setattr(owner, attr, make(static))
    return [(owner, attr, static)]


def _results(key: str, measure: Callable[[Any], int]):
    return lambda args, result: {key: measure(result)}


@contextmanager
def instrument(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Install the layer wrappers for the duration of the block."""
    from repro.analysis import tdat
    from repro.analysis.detectors import (
        detect_consecutive_losses,
        detect_timer_gaps,
        detect_zero_ack_bug,
    )
    from repro.analysis.mct import minimum_collection_time
    from repro.analysis.profile import Trace
    from repro.analysis.render import ReportRenderer
    from repro.bgp import collector, messages, table
    from repro.capture.sniffer import SnifferTap
    from repro.netsim.simulator import Simulator
    from repro.serve import session
    from repro.tcp.socket import TcpEndpoint
    from repro.tools.pcap2bgp import pcap_to_bgp
    from repro.wire import frames
    from repro.wire.pcap import PcapReader
    from repro.workloads import campaign

    wrap = tracer.wrap
    undo: list = []
    functions = [
        (table.generate_table, "bgp.table", True,
         _results("bgp.table.prefixes", len)),
        (messages.encode_message, "bgp.encode", False,
         lambda args, result: {
             "bgp.encode.messages": 1, "bgp.encode.bytes": len(result),
         }),
        (minimum_collection_time, "analysis.mct", True, None),
        (pcap_to_bgp, "analysis.mct", True, None),
        (frames.parse_packet, "frame.decode", False,
         lambda args, result: {"frame.decode.packets": 1}),
        (tdat.shift_acks, "analysis.ack_shift", True, None),
        (tdat.label_connection, "analysis.label", True, None),
        (tdat.generate_series, "analysis.series", True, None),
        (tdat.find_capture_voids, "analysis.voids", True, None),
        (tdat.classify, "analysis.classify", True, None),
        (detect_timer_gaps, "analysis.detectors", True, None),
        (detect_consecutive_losses, "analysis.detectors", True, None),
        (detect_zero_ack_bug, "analysis.detectors", True, None),
    ]
    methods = [
        (Simulator, "run", "netsim", True, _results("netsim.events", int)),
        (TcpEndpoint, "_emit", "tcp", False,
         lambda args, result: {"tcp.segments": 1}),
        (TcpEndpoint, "_on_packet", "tcp", False, None),
        (table.Rib, "to_updates", "bgp.encode", False, None),
        (messages.MessageDecoder, "feed", "bgp.decode", False,
         _results("bgp.decode.messages", len)),
        (collector.BaseCollector, "_session_update", "bgp.collector", False,
         lambda args, result: {"bgp.collector.routes": len(args[2].announced)}),
        (SnifferTap, "_observe", "capture", False,
         lambda args, result: {"capture.packets": 1}),
        (Trace, "from_pcap", "analysis.profile", True, None),
        (ReportRenderer, "render_report", "render", True,
         lambda args, result: {"render.bytes": len(result[1])}),
    ]
    try:
        for fn, name, span, counter in functions:
            undo += _replace_everywhere(fn, wrap(fn, name, span, counter))
        for owner, attr, name, span, counter in methods:
            undo += _replace_method(
                owner, attr,
                lambda fn, name=name, span=span, counter=counter:
                    wrap(fn, name, span, counter),
            )
        undo += _replace_everywhere(
            tdat.iter_connections,
            tracer.wrap_generator(
                tdat.iter_connections, "analysis.profile", span=True
            ),
        )
        undo += _replace_method(
            PcapReader, "__iter__",
            lambda fn: tracer.wrap_generator(
                fn, "pcap.read", item_counter="pcap.read.records"
            ),
        )
        undo += _replace_method(
            PcapReader, "_iter_fast",
            lambda fn: tracer.wrap_generator(
                fn, None, item_counter="pcap.read.fast_records"
            ),
        )
        undo += _replace_everywhere(
            tdat.analyze_connection,
            tracer.wrap_group(
                tdat.analyze_connection,
                lambda args, kwargs: "{}:{}-{}:{}".format(*args[0].key),
                counter="analysis.connections",
            ),
        )
        undo += _replace_everywhere(
            campaign.run_episode,
            tracer.wrap_group(
                campaign.run_episode,
                lambda args, kwargs: f"episode-{args[0].episode}",
            ),
        )
        undo += _replace_everywhere(
            campaign.run_zero_ack_bug_episode,
            tracer.wrap_group(
                campaign.run_zero_ack_bug_episode,
                lambda args, kwargs: f"zero-ack-bug-{kwargs.get('index', 0)}",
            ),
        )
        undo += _replace_method(
            session, "iter_analyze_pcap",
            lambda fn: tracer.wrap_group_generator(fn, "session"),
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
