"""One measured stretch of a workload, in a freshly spawned interpreter.

Usage (``run.py`` spawns it, with ``PYTHONPATH`` at the checkout's
``src``)::

    python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT WORKDIR [--oracle]

Sets the workload up, drives it in a closed loop for ``SECONDS``, checks
its outputs outside the timed region, and prints one JSON line of
measurements.  ``SPAWNED_AT`` is the ``time.monotonic()`` at which the
parent spawned this interpreter, so ``setup_s`` covers interpreter
start-up too.  Every stretch checks that repeated requests got identical
answers; with ``--oracle`` it also compares a seeded sample of operations
with the scalar oracles.  With ``TRACE`` set, layer spans are recorded
(see ``layers.py``) and written under ``.perfbench/traces`` at the end.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs as bench_inputs
from inputs import ENCODER_CAP, SWEEP_SEED, TOP_K

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACES = ROOT / ".perfbench" / "traces"

#: Per-request client timeout; a request that blows it counts as failed.
REQUEST_TIMEOUT_S = 30.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
    return kib / 1024.0


class ClosedLoop:
    """One client: each operation is sent only after the previous one
    returned, until ``seconds`` have passed."""

    def __init__(self, seconds: float, tracer, root_span: str) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.root_span = root_span
        self.latencies: list[float] = []
        self.failed = 0
        self.op_traces: set[str] = set()
        #: Set when the operations ran out before ``seconds`` had passed.
        self.exhausted = False

    def run(self, operations, do, between=None) -> float:
        """Drive ``do(index, item) -> ok`` over ``operations``, calling
        ``between()`` after each outside the measured time; returns the
        measured wall time."""
        start = time.perf_counter()
        paused = 0.0
        self.exhausted = True
        for index, item in enumerate(operations):
            t0 = time.perf_counter()
            if t0 - paused - start >= self.seconds:
                self.exhausted = False
                break
            if self.tracer is None:
                ok = do(index, item)
            else:
                with self.tracer.span(self.root_span, op=index) as span:
                    ok = do(index, item)
                self.op_traces.add(span.trace_id)
            t1 = time.perf_counter()
            self.latencies.append(t1 - t0)
            self.failed += not ok
            if between is not None:
                between()
                paused += time.perf_counter() - t1
        return time.perf_counter() - start - paused


class Workload:
    """Set-up, one timed operation, and the oracle check of a workload."""

    root_span = ""
    #: Called after each timed operation, outside the measured time.
    between = None

    def __init__(self, name: str, seed: int, workdir: Path, traced: bool) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.data = bench_inputs.inputs(name, seed)

    def before_timed(self, tracer) -> None:
        """Last set-up step of a traced run, outside the timed region."""

    def l1_hit_ratio(self) -> float | None:
        return None

    def teardown(self) -> None:
        pass

    def spans(self, tracer) -> list[dict]:
        return tracer.finished()


class EncoderWorkload(Workload):
    """``repro.optimize_encoder`` called in this interpreter."""

    root_span = "bench.loop"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.cold = self.name == "encoder-cold"
        self.reports: list = []
        if self.cold:
            # The L1 memo never drops an entry, so the peak RSS of a stream
            # of distinct envs would grow with the number of calls made and
            # measure the throughput again.  Emptying it after each call
            # keeps every call as cold as the first and the peak that of one.
            from repro.engine import clear_sweep_memo

            self.between = clear_sweep_memo

    def _env(self, pair):
        from repro.ir.dims import bert_large_dims

        return bert_large_dims(batch=pair[0], seq=pair[1])

    def setup(self) -> None:
        import repro

        if self.cold:
            # One call outside the stream fills the interpreter's one-time
            # caches (feasibility scans, imports) that every later call reuses.
            repro.optimize_encoder(self._env(self.data["warmup"]), cap=ENCODER_CAP)
        else:
            for pair in self.data["envs"] * 2:
                repro.optimize_encoder(self._env(pair), cap=ENCODER_CAP)

    def operations(self):
        pairs = self.data["stream"] if self.cold else itertools.cycle(self.data["envs"])
        return (self._env(pair) for pair in pairs)

    def do(self, index: int, env) -> bool:
        import repro

        try:
            report = repro.optimize_encoder(env, cap=ENCODER_CAP)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc()
            return False
        self.reports.append((env, report))
        return True

    def before_timed(self, tracer) -> None:
        import layers

        layers.install(tracer)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(os.getpid())

    def check(self, oracle: bool) -> tuple[int, list[str]]:
        """Every report of an env must equal the first; with ``oracle``, a
        seeded sample must equal the oracle.  Returns (failed ops, problems)."""
        from oracle import References

        first: dict = {}
        failed, problems = 0, []
        for env, report in self.reports:
            if first.setdefault(env, report) != report:
                failed += 1
                problems.append(f"optimize_encoder({dict(env)}) is not deterministic")
        if not oracle:
            return failed, problems
        sample = random.Random(self.seed).sample(sorted(first, key=str), k=min(1, len(first)))
        refs = References()
        for env in sample:
            if refs.encoder_report(env) != first[env]:
                failed += sum(1 for e, _ in self.reports if e == env)
                problems.append(f"optimize_encoder({dict(env)}) differs from the oracle")
        return failed, problems


class Daemon:
    """``repro serve`` in a subprocess (the traced launcher when tracing)."""

    def __init__(self, workdir: Path, store: Path | None, traced: bool) -> None:
        args = ["--port", "0"]
        if store is not None:
            args += ["--sweep-store", str(store)]
        self.spans_path = workdir / "daemon-spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "daemon.py"), str(self.spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"daemon printed no listen address: {banner!r}")
            from repro.service import TuningClient

            self.client = TuningClient(
                f"http://127.0.0.1:{match.group(1)}", timeout=REQUEST_TIMEOUT_S, retries=0
            )
            self.client.wait_until_ready(timeout=60, readiness=True)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> list[dict]:
        """SIGTERM, wait, and return the spans a traced daemon wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        if self.spans_path.exists():
            return json.loads(self.spans_path.read_text())
        return []


class HttpWorkload(Workload):
    """Shared client side of the two daemon workloads."""

    root_span = "service.transport"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.daemon: Daemon | None = None
        self.daemon_spans: list[dict] = []
        self.tiers_before: dict = {}

    def _op(self, model: str, name: str):
        return bench_inputs.kernel_ops(model)[name]

    def _sweep(self, op, env: dict, cap: int, *, packed=False, etag=None):
        from repro.ir.dims import DimEnv

        client = self.daemon.client
        if packed:
            return client.sweep_packed_raw(op, DimEnv(env), cap=cap, seed=SWEEP_SEED)
        return client.sweep_conditional(
            op, DimEnv(env), cap=cap, seed=SWEEP_SEED, top_k=TOP_K, etag=etag
        )

    def _call(self, fn) -> tuple[bool, object]:
        from repro.service import ServiceError

        try:
            return True, fn()
        except (ServiceError, OSError) as exc:  # TimeoutError is an OSError
            print(f"{self.name}: request failed: {exc}", file=sys.stderr)
            return False, None

    def start_daemon(self, store: Path | None) -> None:
        self.daemon = Daemon(self.workdir, store, self.traced)

    def resolve_tiers(self) -> dict:
        return self.daemon.client.metrics()["resolve_tiers"]

    def before_timed(self, tracer) -> None:
        self.tiers_before = self.resolve_tiers()

    def l1_hit_ratio(self) -> float:
        after = self.resolve_tiers()
        delta = {k: after.get(k, 0) - self.tiers_before.get(k, 0) for k in after}
        total = sum(delta.values())
        return delta.get("l1", 0) / total if total else 0.0

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.daemon.proc.pid)

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon_spans = self.daemon.stop()

    def spans(self, tracer) -> list[dict]:
        return tracer.finished() + self.daemon_spans


class SweepHttpWarm(HttpWorkload):
    """A storeless daemon whose L1 set-up warmed every request of the mix."""

    def setup(self) -> None:
        self.start_daemon(None)
        self.sweeps = [
            (self._op(s["model"], s["op"]), s["dims"], s["cap"]) for s in self.data["sweeps"]
        ]
        self.etags = []
        for op, env, cap in self.sweeps:
            status, etag, _ = self._sweep(op, env, cap)
            if status != 200 or not etag:
                raise RuntimeError(f"warming {op.name} answered {status} (ETag {etag!r})")
            self._sweep(op, env, cap, packed=True)
            self.etags.append(etag)
        for i in range(len(self.data["optimize"])):
            self._optimize(i)
        self.bodies: dict = {}  # (kind, index) -> first body received
        self.counts: dict = {}  # (kind, index) -> operations sent
        self.revalidations: list = []  # (index, etag index, status)

    def _optimize(self, i: int) -> bytes:
        from repro.ir.dims import DimEnv

        o = self.data["optimize"][i]
        return self.daemon.client.optimize_raw(
            model=o["model"], include_backward=o["include_backward"],
            env=DimEnv(o["dims"]), cap=o["cap"],
        )

    def operations(self):
        return iter(self.data["mix"])

    def do(self, index: int, entry) -> bool:
        kind, i = entry[0], entry[1]
        if kind == "optimize":
            ok, body = self._call(lambda: self._optimize(i))
            status = 200
        else:
            op, env, cap = self.sweeps[i]
            etag = self.etags[entry[2]] if kind == "revalidate" else None
            ok, reply = self._call(
                lambda: self._sweep(op, env, cap, packed=kind == "packed", etag=etag)
            )
            if not ok:
                return False
            status, _, body = reply
            if kind == "revalidate":
                self.revalidations.append((i, entry[2], status))
                if status == 304:
                    return True
                kind = "json"
            ok = status == 200
        if not ok:
            return False
        key = (kind, i)
        self.counts[key] = self.counts.get(key, 0) + 1
        # Responses are pure functions of the request: every body of a
        # request must equal the first, which the oracle checks below.
        return self.bodies.setdefault(key, body) == body

    def check(self, oracle: bool) -> tuple[int, list[str]]:
        """A 304 only under the request's own ETag; with ``oracle``, the
        bodies of a seeded sample of requests equal the oracle's."""
        from oracle import References

        refs = References()
        failed, problems = 0, []
        expected_etags = [refs.sweep_etag(op, env, cap) for op, env, cap in self.sweeps]
        for i, j, status in self.revalidations:
            if (status == 304) != (self.etags[j] == expected_etags[i]):
                failed += 1
                problems.append(f"revalidation of sweep {i} with ETag {j} answered {status}")
        if not oracle:
            return failed, problems
        rng = random.Random(self.seed)
        for i in rng.sample(range(len(self.sweeps)), k=4):
            op, env, cap = self.sweeps[i]
            body = self.bodies.get(("json", i))
            if body is not None and body != refs.sweep_json(op, env, cap):
                failed += self.counts[("json", i)]
                problems.append(f"JSON sweep {i} differs from the oracle")
            body = self.bodies.get(("packed", i))
            if body is not None and not refs.packed_matches(body, op, env, cap):
                failed += self.counts[("packed", i)]
                problems.append(f"packed sweep {i} differs from the oracle")
        i = rng.randrange(len(self.data["optimize"]))
        body = self.bodies.get(("optimize", i))
        o = self.data["optimize"][i]
        if body is not None:
            from repro.ir.dims import DimEnv
            from repro.service.protocol import optimize_request_wire

            wire = optimize_request_wire(
                model=o["model"], include_backward=o["include_backward"],
                env=DimEnv(o["dims"]), cap=o["cap"],
            )
            if body != refs.optimize_json(wire):
                failed += self.counts[("optimize", i)]
                problems.append(f"optimize {i} differs from the oracle")
        return failed, problems


class SweepStoreWorkload(HttpWorkload):
    """A fresh daemon over a pre-populated on-disk store; every request
    misses L1 and is served from L2 or by a delta re-sweep."""

    #: Requests (by list position) whose bodies the oracle checks.
    SAMPLE_FROM = 100
    SAMPLE = 6
    #: The daemon's L1 keeps every answer (up to 1024), so its peak RSS
    #: grows with each request served and a faster host would read higher.
    #: It is read after this many timed requests instead, which every
    #: 1.5 s stretch reaches even at half the usual speed.
    RSS_AFTER = 150

    def setup(self) -> None:
        from repro.engine import SweepStore, compute_payload, compute_payload_delta, sweep_digest
        from repro.hardware.spec import V100
        from repro.ir.dims import DimEnv

        store_dir = self.workdir / "store"
        store = SweepStore(store_dir)
        self.bases = []
        for base, variants in zip(self.data["bases"], self.data["stored"]):
            op = self._op("encoder", base["op"])
            cap = base["cap"]
            self.bases.append((op, cap))
            env = DimEnv(base["dims"])
            payload = compute_payload(op, env, V100, cap=cap, seed=SWEEP_SEED)
            store.save(sweep_digest(op, env, V100, cap=cap, seed=SWEEP_SEED), payload)
            for variant in variants:
                env = DimEnv(variant)
                store.save(
                    sweep_digest(op, env, V100, cap=cap, seed=SWEEP_SEED),
                    compute_payload_delta(
                        op, env, V100, cap=cap, seed=SWEEP_SEED, base=payload
                    ),
                )
        self.start_daemon(store_dir)
        requests = self.data["requests"]
        self.sample = set(
            random.Random(self.seed).sample(
                range(min(self.SAMPLE_FROM, len(requests))), self.SAMPLE
            )
        )
        self.bodies: dict = {}
        self.served = 0
        self.rss: float | None = None

    def between(self) -> None:
        self.served += 1
        if self.served == self.RSS_AFTER:
            self.rss = peak_rss_mb(self.daemon.proc.pid)

    def peak_rss_mb(self) -> float:
        return self.rss if self.rss is not None else super().peak_rss_mb()

    def operations(self):
        return iter(self.data["requests"])

    def do(self, index: int, request) -> bool:
        op, cap = self.bases[request["base"]]
        packed = request["repr"] == "packed"
        ok, reply = self._call(lambda: self._sweep(op, request["dims"], cap, packed=packed))
        if not ok or reply[0] != 200:
            return False
        if index in self.sample:
            self.bodies[index] = reply[2]
        return True

    def check(self, oracle: bool) -> tuple[int, list[str]]:
        """With ``oracle``, the sampled L2 and delta answers equal a cold
        reference sweep (every answer was already required to be a 200)."""
        from oracle import References

        failed, problems = 0, []
        if not oracle:
            return failed, problems
        refs = References()
        for index, body in sorted(self.bodies.items()):
            request = self.data["requests"][index]
            op, cap = self.bases[request["base"]]
            if request["repr"] == "packed":
                ok = refs.packed_matches(body, op, request["dims"], cap)
            else:
                ok = body == refs.sweep_json(op, request["dims"], cap)
            if not ok:
                failed += 1
                problems.append(f"{request['kind']} request {index} differs from the oracle")
        return failed, problems


WORKLOADS = {
    "encoder-cold": EncoderWorkload,
    "encoder-warm": EncoderWorkload,
    "sweep-http-warm": SweepHttpWarm,
    "sweep-store": SweepStoreWorkload,
}


def main(argv: list[str]) -> int:
    import numpy

    from repro.hardware.params import active_cost_model_version

    name, seed, seconds, trace, spawned_at, workdir = argv[:6]
    oracle = "--oracle" in argv[6:]
    seed, seconds, trace, spawned_at = int(seed), float(seconds), trace == "1", float(spawned_at)
    workload = WORKLOADS[name](name, seed, Path(workdir), trace)
    tracer = None
    try:
        workload.setup()
        setup_s = time.monotonic() - spawned_at
        if trace:
            import layers

            tracer = layers.new_tracer()
            workload.before_timed(tracer)
        loop = ClosedLoop(seconds, tracer, workload.root_span)
        elapsed = loop.run(workload.operations(), workload.do, workload.between)
        rss = workload.peak_rss_mb()
        l1 = workload.l1_hit_ratio() if trace else None
    finally:
        workload.teardown()
    failed, problems = workload.check(oracle)
    if loop.exhausted:
        problems.append(
            f"{name} ran out of inputs after {len(loop.latencies)} operations "
            f"and {elapsed:.2f} of {seconds:.2f} s"
        )
    result = {
        "setup_s": setup_s,
        "latencies_ms": [1000.0 * t for t in loop.latencies],
        "failed": min(len(loop.latencies), loop.failed + failed),
        "problems": problems,
        "elapsed_s": elapsed,
        "peak_rss_mb": rss,
        "numpy": numpy.__version__,
        "cost_model_version": active_cost_model_version(),
    }
    if trace:
        result["layers"], calls = write_trace(name, seed, workload, tracer, loop, l1)
        problems.extend(check_split(name, calls))
    print(json.dumps(result))
    return 0


def write_trace(name, seed, workload, tracer, loop, l1) -> tuple[dict, dict]:
    """Write the timed operations' spans out; return the per-layer metrics
    and the number of spans of each name."""
    from repro.obs import to_chrome_trace

    import layers

    records = [r for r in workload.spans(tracer) if r["trace_id"] in loop.op_traces]
    ops = len(loop.latencies)
    metrics, calls = layers.breakdown(records, ops)
    metrics["service.l1_hit_ratio"] = l1 if l1 is not None else 0.0
    metrics["server_spans_per_op"] = calls.get(layers.SERVER_SPAN, 0) / ops
    # The coverage check: layer self times plus the benchmark's own loop
    # should add up to the traced per-operation latency.  On the daemon
    # workloads the client's round trip outside the daemon is transport by
    # definition, so the check covers the daemon side only.
    mean = 1000.0 * sum(loop.latencies) / ops
    metrics["traced.latency_mean_ms"] = mean
    metrics["unattributed_ms"] = mean - sum(metrics[m] for m in layers.SELF_MS)
    TRACES.mkdir(parents=True, exist_ok=True)
    stem = TRACES / f"{name}-seed{seed}"
    Path(f"{stem}.spans.json").write_text(json.dumps(records))
    Path(f"{stem}.chrome.json").write_text(json.dumps(to_chrome_trace(records)))
    return metrics, calls


def check_split(name: str, calls: dict) -> list[str]:
    """The predicted split: the layers the timed operations reached."""
    import layers

    missing = [n for n in layers.REACHES[name] if not calls.get(n)]
    unexpected = [n for n in layers.AVOIDS[name] if calls.get(n)]
    problems = []
    if missing:
        problems.append(f"{name} never reached {', '.join(missing)}")
    if unexpected:
        problems.append(f"{name} unexpectedly reached {', '.join(unexpected)}")
    return problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
