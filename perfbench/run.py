"""The repository's benchmark: one command, four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs in ``inputs.py``, set-up and checks in ``workload.py``):

* ``encoder-cold`` — ``repro.optimize_encoder(cap=600)`` on a stream of
  ``bert_large_dims(batch, seq)`` values that never repeat, no L2 store:
  every call misses the L1 memo and sweeps both graphs cold.
* ``encoder-warm`` — the same call cycling over four envs set-up warmed:
  every sweep is an L1 memo hit, so graph building, fusion, selection and
  the data-movement report are what remain.
* ``sweep-http-warm`` — a storeless ``repro serve`` daemon, warmed with
  encoder and MHA kernel sweeps, under a closed-loop mix of JSON
  ``/v1/sweep`` requests, packed-npz requests, ``If-None-Match``
  revalidations and ``/v1/optimize`` hits, all served from L1.
* ``sweep-store`` — a fresh daemon over a pre-populated on-disk store; each
  request misses L1 and is an L2 read or a one-dimension perturbation
  (delta re-sweep plus save).

Each run spawns fresh interpreters for its workload, so no cache or peak
RSS leaks between workloads: ``STRETCHES`` of them (three, or ten for
``sweep-store``), each set up anew and measured for an equal share of
``--seconds``.  The load comes from one closed-loop client
thread: a request waits for the previous reply.  All processes of a run
share one CPU.

``--trace 0`` prints the end-to-end figures: latency median, p90 and p99
over the pooled operations, throughput, the working process's peak RSS
and set-up time (medians over the interpreters).  The result line
carries the ones ``BENCHMARK.json`` declares: p90, peak RSS and set-up
time.  On a shared host whose speed flips between two states ~1.6x apart
for tens of seconds, the median and the throughput of a run follow
whichever state held most of it, while p90 stays put.  ``--trace 1`` makes
such a run and then one traced stretch, as long as each untraced one,
with spans around every layer boundary (``layers.py``), and prints the
per-layer breakdown, the coverage check (``unattributed_ms``), the
predicted split and the tracing overhead.  A run takes its measured
seconds plus up to ``INTERPRETER_ALLOWANCE_S`` per interpreter; with
``--seconds 15`` that is well within three minutes.  The last
line of standard output is one JSON object; the full result, with
metadata, is kept under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Fresh interpreters per untraced run, each set up and then measured for
#: an equal share of the run; ``setup_s`` is the median of their set-ups.
#: The p90 of the other workloads sits in a narrow band of like operations,
#: so it reads the slow speed of a shared host whenever that holds for a
#: tenth of the run.  On ``sweep-store`` it falls among 3-10 ms requests
#: whose latencies spread widely, so it follows how fast the host and the
#: daemon process happened to be; a daemon keeps its speed for tens of
#: seconds, but the next one may be 25% slower or faster.  With three 5 s
#: stretches its ten-seed spread was 0.12-0.37 of the median on a shared
#: 2-vCPU host.  Ten 1.5 s stretches, each with a fresh daemon after its
#: own set-up, average over more daemons and more moments of the run.
STRETCHES = {"encoder-cold": 3, "encoder-warm": 3, "sweep-http-warm": 3, "sweep-store": 10}
#: The CPU every process of a run is pinned to.
CPU = min(os.sched_getaffinity(0))
#: Wall-clock allowance per interpreter beyond its measured stretch: start-up,
#: set-up (at most ~5 s seen), the oracle check and teardown.  A run's
#: budget is its measured seconds plus this for each interpreter; one still
#: running when the budget is spent is killed, with the daemon it started.
#: With ``--seconds 15`` the longest budget, a traced ``sweep-store`` run
#: of eleven interpreters, is 149 s.
INTERPRETER_ALLOWANCE_S = 12.0
#: Every end-to-end figure an untraced run prints, with its unit.  The
#: result line carries the ones ``BENCHMARK.json`` declares; the others are
#: printed and kept in the result file (``latency_p99_ms`` only where at
#: least ten samples lie beyond it).
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
#: Largest accepted ``|unattributed_ms|``, as a share of the traced mean
#: latency: the part of an operation no layer span accounts for.
UNATTRIBUTED_BOUND = 0.10


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics that
    ``BENCHMARK.json`` declares (the one list of what a run reports)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def child_env(workdir: Path) -> dict:
    """The workload interpreter's environment: this checkout's sources,
    temporary files and bytecode inside the checkout, no ``REPRO_*``
    settings inherited from the caller."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
        # The daemon starts a thread per connection; with glibc's default
        # per-thread malloc arenas its peak RSS differs by a third between
        # identical runs.  Two arenas make it repeat within a few percent.
        MALLOC_ARENA_MAX="2",
    )
    return env


def run_budget_s(workload: str, seconds: int, trace: bool) -> float:
    """Wall-clock budget of a run measuring ``seconds`` (plus, with
    ``trace``, one more stretch as long as each untraced one)."""
    stretches = STRETCHES[workload]
    interpreters = stretches + trace
    return seconds * interpreters / stretches + INTERPRETER_ALLOWANCE_S * interpreters


def spawn(
    workload: str, seed: int, seconds: float, trace: bool, *, oracle: bool, deadline: float
) -> dict:
    """Run one workload interpreter for ``seconds`` and return its result;
    kill it if it is still running at ``deadline`` (``time.monotonic()``)."""
    workdir = WORK / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env(workdir)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workload.py"), workload, str(seed), repr(seconds),
        "1" if trace else "0", repr(spawned_at), str(workdir),
    ]
    if oracle:
        cmd.append("--oracle")
    # Its own process group: on a timeout, the daemon it started goes too.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} run exceeded its time budget") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} interpreter exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the program measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(seed: int, child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": CPU,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "cost_model_version": child["cost_model_version"],
    }


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """The end-to-end measurements of one untraced run.

    The run is ``STRETCHES[workload]`` fresh interpreters, each set up anew and
    then driven for an equal share of ``seconds``; latencies and
    operation counts are pooled.  Spreading the measured time over the
    whole run, between the set-ups, keeps a slow spell of a shared
    machine from deciding a run's numbers.  The last stretch also checks
    a seeded sample of outputs against the oracles.
    """
    stretches = STRETCHES[workload]
    parts = [
        spawn(
            workload, seed, seconds / stretches, False,
            oracle=i == stretches - 1, deadline=deadline,
        )
        for i in range(stretches)
    ]
    latencies = sorted(t for p in parts for t in p["latencies_ms"])
    n = len(latencies)
    return {
        "attempted": n,
        "failed": sum(p["failed"] for p in parts),
        "problems": [q for p in parts for q in p["problems"]],
        "latency_mean_ms": sum(latencies) / n,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        # Only with at least ten samples beyond it.
        "latency_p99_ms": percentile(latencies, 99) if n >= 1000 else None,
        "throughput_per_s": n / sum(p["elapsed_s"] for p in parts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "stretches": [{k: v for k, v in p.items() if k != "latencies_ms"} for p in parts],
        "numpy": parts[0]["numpy"],
        "cost_model_version": parts[0]["cost_model_version"],
    }


def measure_traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """The per-layer measurements: an untraced run for the overhead base,
    then one traced stretch as long as each untraced one."""
    untraced = measure(workload, seed, seconds, deadline)
    traced = spawn(
        workload, seed, seconds / STRETCHES[workload], True, oracle=False, deadline=deadline
    )
    layers = traced["layers"]
    latencies = sorted(traced["latencies_ms"])
    layers["tracing.overhead_ratio"] = percentile(latencies, 50) / untraced["latency_p50_ms"]
    result = dict(untraced, layers=layers, traced_setup_s=traced["setup_s"])
    result["attempted"] += len(latencies)
    result["failed"] += traced["failed"]
    result["problems"] = untraced["problems"] + traced["problems"]
    mean = layers["traced.latency_mean_ms"]
    if abs(layers["unattributed_ms"]) > UNATTRIBUTED_BOUND * mean:
        result["problems"].append(
            f"layer spans leave {layers['unattributed_ms']:.3f} ms of a "
            f"{mean:.3f} ms operation unattributed (bound {UNATTRIBUTED_BOUND:.0%})"
        )
    if workload.startswith("sweep") and layers["server_spans_per_op"] != 1:
        result["problems"].append("daemon spans did not join the client operations")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Every process of the run (interpreters, daemon) shares one CPU.  One
    # closed-loop client never runs in parallel with the daemon anyway, and
    # on a shared 2-vCPU host the cross-CPU wake-ups of each request made
    # the HTTP p90 differ by 2x between identical runs.
    os.sched_setaffinity(0, {CPU})

    end_to_end, per_layer = declared_metrics()
    deadline = time.monotonic() + run_budget_s(args.workload, args.seconds, bool(args.trace))
    if args.trace:
        units = per_layer
        result = measure_traced(args.workload, args.seed, args.seconds, deadline)
        values = {name: result["layers"][name] for name in units}
    else:
        units = end_to_end
        result = measure(args.workload, args.seed, args.seconds, deadline)
        values = {name: result[name] for name in units}
    result["metadata"] = metadata(args.seed, result)
    result["metrics"] = values

    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in result["metadata"].items():
        print(f"  {key} = {value}")
    print(f"  operations = {result['attempted']} attempted, {result['failed']} failed")
    print(f"  failed_share = {result['failed'] / result['attempted']:.6g}")
    shown = units if args.trace else END_TO_END_UNITS
    for name, unit in shown.items():
        value = values[name] if args.trace else result[name]
        if value is not None:
            print(f"  {name} = {value:.6g} {unit}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
