"""One workload run in a fresh single-threaded process.

Usage: worker.py WORKLOAD SEED SECONDS {plain|traced|setup} [--corrupt-reference]

A single closed-loop client: op i+1 starts only after op i has finished
and been checked.  Between ops, outside op timings, a fixed speed probe
gauges the host.  `setup` mode stops where the first timed op would start
and then runs the probe.  The result is one JSON line on stdout.
"""

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np

import workloads
from tracing import Tracer

#: Warm-up ops, drawn from their own seed stream.
WARMUP_OPS = 10

#: Failures whose traceback is printed to stderr.
SHOWN_FAILURES = 3

#: Peak RSS is read after this many timed ops (or at the end of a shorter
#: run), so that a faster program, which fits more ops and more cache
#: entries into the run, does not read as a memory regression.
RSS_OPS = 4000


#: Address-space cap of a worker.  The contraction planner has a rare wide
#: tail (see workloads.EvalLarge); a plan needing gigabytes must fail as one
#: op with MemoryError instead of exhausting the shared host.
ADDRESS_SPACE_BYTES = 2 << 30

#: Seconds between speed probes in the timed phase, probes per round, and
#: probes after set-up in a `setup` run.
PROBE_INTERVAL_S = 0.25
PROBES_PER_ROUND = 3
SETUP_PROBES = 9


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_probe() -> float:
    """Seconds for a fixed task that never calls vlink.

    It mixes tuple, frozenset and dict work with small numpy contractions,
    as vlink does.  Its median over a run measures how fast the shared host
    ran during that run; run.py scales the run's timings by it.
    """
    t0 = time.perf_counter()
    pairs = [((i * 7919) % 613, (i * 104729) % 4) for i in range(600)]
    index = {}
    for a, b in sorted(frozenset(zip(pairs, pairs[1:]))):
        index[a] = b
        index.get(b)
    x = np.arange(256, dtype=complex).reshape(4, 4, 4, 4)
    for _ in range(20):
        np.tensordot(x, x, axes=([1, 2], [0, 1]))
    y = np.ones((48, 48), dtype=complex)
    float((y @ y).real.sum())
    return time.perf_counter() - t0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_op(workload, job):
    """Time one op; returns (seconds, ok, error text)."""
    t0 = time.perf_counter()
    try:
        result = workload.run(job)
    except Exception:
        return time.perf_counter() - t0, False, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, bool(workload.check(job, result)), "check failed"
    except Exception:
        return elapsed, False, traceback.format_exc()


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    corrupt = "--corrupt-reference" in argv[4:]
    cls = workloads.WORKLOADS[name]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        digest = workloads.input_digest(name, seed, workdir)
        warm = cls(seed, workloads.WARMUP, workdir)
        for i in range(WARMUP_OPS):
            run_op(warm, warm.prepare(i))
        workload = cls(seed, workloads.MEASURED, workdir, corrupt)
        tracer = Tracer() if mode == "traced" else None
        if tracer:
            tracer.install()
        ready = time.time()
        if mode == "setup":
            probes = [speed_probe() for _ in range(SETUP_PROBES)]
            print(json.dumps({"ready": ready, "probe_s": float(np.median(probes))}))
            return 0

        latencies, failed, shown, rss, probes = [], 0, 0, None, []
        deadline = time.perf_counter() + seconds
        next_probe = 0.0
        i = 0
        while time.perf_counter() < deadline:
            if time.perf_counter() >= next_probe:
                probes += [speed_probe() for _ in range(PROBES_PER_ROUND)]
                next_probe = time.perf_counter() + PROBE_INTERVAL_S
            job = workload.prepare(i)
            if tracer:
                tracer.op = i
            elapsed, ok, error = run_op(workload, job)
            if tracer:
                tracer.op = -1
            latencies.append(elapsed)
            if not ok:
                failed += 1
                if shown < SHOWN_FAILURES:
                    shown += 1
                    print(f"{name} op {i} failed: {error}", file=sys.stderr)
            i += 1
            if i == RSS_OPS:
                rss = peak_rss_mib()

        busy = float(sum(latencies))
        lat_ms = np.array(latencies) * 1e3
        out = {
            "ready": ready,
            "attempted": len(latencies),
            "failed": failed,
            "busy_s": busy,
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p95_ms": float(np.percentile(lat_ms, 95)),
            "peak_rss_mib": peak_rss_mib() if rss is None else rss,
            "probe_s": float(np.median(probes)),
            "digest": digest,
            "environment": environment(),
        }
        if tracer:
            out["wrappers_restored"] = tracer.restore()
            layers, top = tracer.layer_metrics(len(latencies), busy)
            out["layers"] = layers
            out["top_self_ms"] = top
            out["hook_errors"] = tracer.counts["hook_errors"]
            spans_dir = os.path.join(HERE, "_out")
            os.makedirs(spans_dir, exist_ok=True)
            tracer.write(os.path.join(spans_dir, f"spans-{name}.tsv"))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
