"""Per-layer spans for the traced run, installed from outside the program.

The traced run wraps the calls into each layer's public functions in
spans kept in memory by a private :class:`repro.obs.Tracer` (never the
process tracer, so the program's own instrumentation stays off).  Each
wrapper is installed where its caller looks the name up: the importing
module's global for ``from x import f`` callers, the defining module for
call-time imports, the class for methods.  No file under ``src/`` changes.

Counts ride on the spans as attributes (configs enumerated, store bytes,
hit flags), so they are recorded at the boundary where the work happens.
:func:`breakdown` turns the records of the timed operations into per-op
self times: a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict

from repro import obs

#: Span name -> ``[(caller module, attribute), ...]`` it wraps.
FUNCTIONS = {
    "api.optimize_encoder": [("repro", "optimize_encoder")],
    "transformer.build": [
        ("repro.baselines.frameworks", "build_encoder_graph"),
        ("repro.baselines.frameworks", "build_mha_graph"),
        ("repro.transformer.graph_builder", "build_encoder_graph"),
        ("repro.transformer.graph_builder", "build_mha_graph"),
    ],
    "fusion.apply": [
        ("repro.baselines.frameworks", "apply_paper_fusion"),
        ("repro.fusion.encoder_kernels", "apply_paper_fusion"),
        ("repro.fusion", "apply_paper_fusion"),
    ],
    "analysis.dm_report": [("repro.analysis.tables", "data_movement_reduction_report")],
    "baselines.schedule": [("repro.baselines.frameworks", "build_schedule")],
    "configsel.select": [
        ("repro.baselines.schedule", "select_configurations"),
        ("repro.configsel.selector", "select_configurations"),
    ],
    "engine.scheduler.sweep_graph": [
        ("repro.baselines.schedule", "sweep_graph"),
        ("repro.service.server", "sweep_graph"),
    ],
    "engine.space.enumerate": [
        ("repro.engine.store", "enumerate_kernel_space"),
        ("repro.engine.store", "enumerate_contraction_space"),
    ],
    "engine.batched.jitter": [("repro.engine.store", "kernel_jitter_units")],
    "engine.batched.evaluate": [
        ("repro.engine.store", "evaluate_kernel"),
        ("repro.engine.store", "evaluate_contraction"),
        ("repro.engine.store", "contraction_layout_units"),
    ],
    "engine.sweep.from_payload": [
        ("repro.engine.scheduler", "sweep_from_payload"),
        ("repro.service.server", "sweep_from_payload"),
    ],
    "engine.delta.resweep": [
        ("repro.engine.scheduler", "delta_payload_from_store"),
        ("repro.service.server", "delta_payload_from_store"),
    ],
    "service.protocol.parse": [
        ("repro.service.server", "parse_sweep_request"),
        ("repro.service.server", "parse_optimize_request"),
    ],
    "service.protocol.digest": [
        ("repro.service.server", "sweep_request_digest"),
        ("repro.service.server", "optimize_request_digest"),
    ],
    "service.protocol.encode": [
        ("repro.service.server", "sweep_response_from_sweep"),
        ("repro.service.server", "canonical_json_bytes"),
        ("repro.service.server", "pack_payload_bytes"),
    ],
}

#: Span name -> ``(module, class, [methods])`` it wraps.
METHODS = {
    "engine.store.load": ("repro.engine.store", "SweepStore", ["load"]),
    "engine.store.load_structural": ("repro.engine.store", "SweepStore", ["load_structural"]),
    "engine.store.save": ("repro.engine.store", "SweepStore", ["save"]),
    "service.server.handle": (
        "repro.service.server", "TuningService", ["handle_sweep_wire", "handle_optimize"]
    ),
    # The daemon's side of the transport: reading and decoding the request
    # body, writing the reply to the socket.
    "service.server.read": ("repro.service.server", "_Handler", ["_read_body"]),
    "service.server.write": ("repro.service.server", "_Handler", ["_send_reply"]),
}

#: Ring size of the in-memory span store (never reached by a 60 s run).
SPAN_CAPACITY = 5_000_000


def new_tracer() -> obs.Tracer:
    """A private span store: spans stay in memory until written out."""
    return obs.Tracer(buffer_spans=SPAN_CAPACITY)


#: Root span of one timed operation: the benchmark's loop around an
#: in-process call, or the client's round trip over HTTP.
LOOP_SPAN = "bench.loop"
CLIENT_SPAN = "service.transport"
#: The daemon's per-request span (it replaces the program's own
#: ``server/<endpoint>`` span and joins the client's trace).
SERVER_SPAN = "service.server.request"

#: Per-layer self-time metric (ms per op) -> the span names it sums.  The
#: coverage check adds these up; whatever of an operation they leave is
#: ``unattributed_ms``.  The self time of the entry spans stays out of the
#: sum (``api.optimize_encoder``, and the daemon's request span outside its
#: handler, body read and reply write), so a layer that goes unwrapped
#: directly beneath one of them shows up there.
SELF_MS = {
    "bench.loop_ms": (LOOP_SPAN,),
    "transformer.build_ms": ("transformer.build",),
    "fusion.apply_ms": ("fusion.apply",),
    "analysis.dm_report_ms": ("analysis.dm_report",),
    "baselines.schedule_ms": ("baselines.schedule",),
    "configsel.select_ms": ("configsel.select",),
    "engine.scheduler.sweep_graph_ms": ("engine.scheduler.sweep_graph",),
    "engine.space.enumerate_ms": ("engine.space.enumerate",),
    "engine.batched.jitter_ms": ("engine.batched.jitter",),
    "engine.batched.evaluate_ms": ("engine.batched.evaluate",),
    "engine.sweep.from_payload_ms": ("engine.sweep.from_payload",),
    "engine.store.load_ms": ("engine.store.load", "engine.store.load_structural"),
    "engine.store.save_ms": ("engine.store.save",),
    "engine.delta.resweep_ms": ("engine.delta.resweep",),
    "service.protocol.parse_ms": ("service.protocol.parse",),
    "service.protocol.digest_ms": ("service.protocol.digest",),
    "service.protocol.encode_ms": ("service.protocol.encode",),
    "service.server.handle_ms": ("service.server.handle",),
    # The issue's "client round trip minus handler time": the client's
    # round trip outside the daemon's request span, plus the daemon's
    # socket reads and writes.
    "service.transport_ms": (CLIENT_SPAN, "service.server.read", "service.server.write"),
}
#: Self-time metrics reported beside ``SELF_MS`` but left out of its sum.
ENTRY_MS = {"service.server.request_ms": (SERVER_SPAN,)}

#: The predicted split, as span names (``engine.memo.lookup`` counts L1
#: memo lookups) that each workload's timed operations must reach and must
#: not reach.  A wrapper that stops intercepting its layer fails the first
#: even where that layer's time would hide in its caller's self time.
_ENCODER = (
    "api.optimize_encoder", "transformer.build", "fusion.apply", "configsel.select",
    "analysis.dm_report", "baselines.schedule", "engine.scheduler.sweep_graph",
    "engine.memo.lookup",
)
_SAMPLER = ("engine.space.enumerate", "engine.batched.jitter")
_SERVICE = (
    CLIENT_SPAN, SERVER_SPAN, "service.server.handle", "service.server.read",
    "service.server.write", "service.protocol.parse", "service.protocol.digest",
    "service.protocol.encode", "engine.sweep.from_payload",
)
_STORE = (
    "engine.store.load", "engine.store.load_structural", "engine.store.save",
    "engine.delta.resweep",
)
REACHES = {
    "encoder-cold": _ENCODER + _SAMPLER + ("engine.batched.evaluate",),
    "encoder-warm": _ENCODER,
    "sweep-http-warm": _SERVICE,
    "sweep-store": _SERVICE + _STORE + ("engine.batched.evaluate",),
}
AVOIDS = {
    "encoder-cold": _STORE,
    "encoder-warm": _SAMPLER + _STORE + ("engine.batched.evaluate",),
    "sweep-http-warm": _SAMPLER + _STORE + ("engine.batched.evaluate",),
    "sweep-store": _SAMPLER,
}


def _after_enumerate(span, args, result) -> None:
    span.set_attr("configs", int(result.num_configs))


def _file_bytes(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _after_load(span, args, result) -> None:
    span.set_attr("hit", result is not None)
    if result is not None:
        span.set_attr("read_bytes", _file_bytes(args[0].path_for(result["digest"])))


def _after_delta(span, args, result) -> None:
    span.set_attr("hit", result is not None)


def _around_save(fn):
    """``SweepStore.save`` also rewrites the structural index in full
    whenever the saved twin changes its entry; count those bytes too."""

    def save(store, digest, payload):
        index = store.index_path
        before = _stat_key(index)
        path = fn(store, digest, payload)
        written = _file_bytes(path)
        if _stat_key(index) != before:
            written += _file_bytes(index)
        obs.set_attr("write_bytes", written)
        return path

    return save


def _stat_key(path):
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def _counting_memo_get(fn):
    """Counts L1 memo lookups on the enclosing span; no span of its own."""

    def memo_get(key):
        sweep = fn(key)
        span = obs.current_span()
        if span is not None:
            span.attrs["memo.calls"] = span.attrs.get("memo.calls", 0) + 1
            span.attrs["memo.hits"] = span.attrs.get("memo.hits", 0) + (sweep is not None)
        return sweep

    return memo_get


_AFTER = {
    "engine.space.enumerate": _after_enumerate,
    "engine.store.load": _after_load,
    "engine.store.load_structural": _after_load,
    "engine.delta.resweep": _after_delta,
}


def _spanned(tracer: obs.Tracer, name: str, fn):
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
        return result

    return wrapper


def install(tracer: obs.Tracer, *, server: bool = False) -> None:
    """Wrap every layer boundary of this process in ``tracer`` spans.

    ``server=True`` also adopts the daemon's per-request span: the
    program opens ``server/<endpoint>`` spans with the client's
    ``traceparent``; this process records them as :data:`SERVER_SPAN` in
    ``tracer``, so a request's daemon spans join the client's trace.
    """
    wrappers = {}  # one wrapper per original, shared by all its callers

    def patch(owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        if id(original) not in wrappers:
            fn = _around_save(original) if attr == "save" else original
            wrappers[id(original)] = _spanned(tracer, name, fn)
        setattr(owner, attr, wrappers[id(original)])

    for name, sites in FUNCTIONS.items():
        for module, attr in sites:
            patch(importlib.import_module(module), attr, name)
    for name, (module, cls, methods) in METHODS.items():
        for method in methods:
            patch(getattr(importlib.import_module(module), cls), method, name)
    scheduler = importlib.import_module("repro.engine.scheduler")
    scheduler.memo_get = _counting_memo_get(scheduler.memo_get)

    if server:
        program_span = obs.span

        def span(name, **kwargs):
            if name.startswith("server/"):
                return tracer.span(SERVER_SPAN, **kwargs)
            return program_span(name, **kwargs)

        obs.span = span


def _clipped_self_us(records: list[dict]) -> dict[str, float]:
    """Self time of every span, by span id.

    A span's interval is first clipped to its parent's (clipped) interval,
    so the self times of one operation's tree add up to its root span: a
    daemon span that outlives the client's receipt of the reply contributes
    only the part the client waited for.  Self time is then the clipped
    duration minus the union of the children's clipped intervals.
    """
    by_id = {r["span_id"]: r for r in records}
    children = defaultdict(list)
    for r in records:
        if r["parent_id"] in by_id:
            children[r["parent_id"]].append(r)
    window: dict[str, tuple[float, float]] = {}
    stack = []
    for r in records:
        if r["parent_id"] not in by_id:
            window[r["span_id"]] = (r["start_us"], r["start_us"] + r["dur_us"])
            stack.append(r)
    self_us = {}
    while stack:
        r = stack.pop()
        lo, hi = window[r["span_id"]]
        covered, cursor = 0.0, lo
        for child in sorted(children[r["span_id"]], key=lambda c: c["start_us"]):
            c_lo = min(max(child["start_us"], lo), hi)
            c_hi = max(min(child["start_us"] + child["dur_us"], hi), c_lo)
            window[child["span_id"]] = (c_lo, c_hi)
            stack.append(child)
            if c_hi > max(c_lo, cursor):
                covered += c_hi - max(c_lo, cursor)
                cursor = c_hi
        self_us[r["span_id"]] = hi - lo - covered
    return self_us


def breakdown(records: list[dict], ops: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-op layer metrics from the spans of ``ops`` timed operations,
    plus the number of spans of each name."""
    self_us = _clipped_self_us(records)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    hits = defaultdict(int)
    counts = defaultdict(float)
    for r in records:
        name, attrs = r["name"], r["attrs"]
        self_ms[name] += self_us[r["span_id"]] / 1000.0
        calls[name] += 1
        hits[name] += bool(attrs.get("hit"))
        counts["configs"] += attrs.get("configs", 0)
        counts["read_bytes"] += attrs.get("read_bytes", 0)
        counts["write_bytes"] += attrs.get("write_bytes", 0)
        counts["memo.calls"] += attrs.get("memo.calls", 0)
        counts["memo.hits"] += attrs.get("memo.hits", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        metric: sum(self_ms[n] for n in names) / ops
        for metric, names in {**SELF_MS, **ENTRY_MS}.items()
    }
    store_calls = sum(
        calls[n] for n in ("engine.store.load", "engine.store.load_structural", "engine.store.save")
    )
    out.update(
        {
            "engine.space.calls": calls["engine.space.enumerate"] / ops,
            "engine.space.configs": counts["configs"] / ops,
            "engine.memo.calls": counts["memo.calls"] / ops,
            "engine.memo.hit_ratio": ratio(counts["memo.hits"], counts["memo.calls"]),
            "engine.store.calls": store_calls / ops,
            # Exact-digest lookups only: a structural probe follows a miss.
            "engine.store.hit_ratio": ratio(
                hits["engine.store.load"], calls["engine.store.load"]
            ),
            "engine.store.read_bytes": counts["read_bytes"] / ops,
            "engine.store.write_bytes": counts["write_bytes"] / ops,
            "engine.delta.calls": calls["engine.delta.resweep"] / ops,
            "engine.delta.hit_ratio": ratio(
                hits["engine.delta.resweep"], calls["engine.delta.resweep"]
            ),
        }
    )
    calls["engine.memo.lookup"] = int(counts["memo.calls"])
    return out, dict(calls)
