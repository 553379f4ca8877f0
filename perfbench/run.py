"""vlink benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload eval-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Each measured run is a fresh worker process with BLAS pinned to one thread,
acting as one closed-loop client.  With --trace 0 the run reports the
end-to-end metrics; set-up time is the median over SETUP_RUNS fresh
processes, each timed from spawn to the point where its first op would
start.  With --trace 1 an untraced worker and a traced worker each run for
half of --seconds; the traced one gives the per-layer metrics and the pair
gives the tracing overhead.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.

The host is shared, and its speed drifts by a fifth or more between runs a
few minutes apart.  So every end-to-end timing is scaled to a nominal host
speed: multiplied by NOMINAL_PROBE_S over the median time of the worker's
speed probe in the same process (see worker.speed_probe).  The unscaled
values are printed too, as raw.* lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-large", "characterize", "moves")

#: Fresh processes whose set-up time is measured in a --trace 0 run.
SETUP_RUNS = 5

#: Speed-probe time of the nominal host that timings are scaled to.
NOMINAL_PROBE_S = 1e-3

#: Upper bound on one worker's lifetime beyond its measuring time; with
#: SETUP_RUNS it keeps a whole run under three minutes.
WORKER_SLACK_S = 20


def spawn(args: list[str], seconds: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn wall time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    started = time.time()
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=seconds + WORKER_SLACK_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(res: dict) -> float:
    """Factor taking a worker's timings to the nominal host speed."""
    return NOMINAL_PROBE_S / res["probe_s"]


def run_plain(workload: str, seed: int, seconds: float, extra: list[str]):
    """Returns (worker result, metrics for the JSON line, printed-only metrics)."""
    setups, raw_setups = [], []
    for i in range(SETUP_RUNS):
        last = i == SETUP_RUNS - 1
        args = [str(seconds), "plain", *extra] if last else ["0", "setup"]
        started, res = spawn([workload, str(seed), *args], seconds if last else 0)
        raw_setups.append(res["ready"] - started)
        setups.append(raw_setups[-1] * host_scale(res))
    n, scale = res["attempted"], host_scale(res)
    throughput = (n - res["failed"]) / res["busy_s"]
    metrics = {
        "throughput_ops_s": (throughput / scale, "1/s", n),
        "op_p50_ms": (res["p50_ms"] * scale, "ms", n),
        "op_p95_ms": (res["p95_ms"] * scale, "ms", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB", 1),
    }
    printed = {
        "failed_ratio": (res["failed"] / n, "ratio", n),
        "raw.throughput_ops_s": (throughput, "1/s", n),
        "raw.op_p50_ms": (res["p50_ms"], "ms", n),
        "raw.op_p95_ms": (res["p95_ms"], "ms", n),
        "raw.setup_s": (statistics.median(raw_setups), "s", len(raw_setups)),
        "host.speed_probe_ms": (res["probe_s"] * 1e3, "ms", 1),
    }
    return res, metrics, printed


def run_traced(workload: str, seed: int, seconds: float, extra: list[str]):
    """Returns (traced worker result, per-layer metrics, printed-only metrics)."""
    half = seconds / 2.0
    _, plain = spawn([workload, str(seed), str(half), "plain", *extra], half)
    _, traced = spawn([workload, str(seed), str(half), "traced", *extra], half)
    if not traced["wrappers_restored"]:
        raise RuntimeError("tracing wrappers were not removed")
    ops = traced["attempted"]
    metrics = {name: (value, unit, ops) for name, (value, unit) in traced["layers"].items()}
    plain_rate = plain["attempted"] / plain["busy_s"] / host_scale(plain)
    traced_rate = ops / traced["busy_s"] / host_scale(traced)
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio", ops)
    printed = {"trace.hook_errors": (traced["hook_errors"], "count", ops)}
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced, metrics, printed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="perturb the reference values, so that correctness checks must fail",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "vlink", "__init__.py")):
        print(f"run.py: vlink sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    extra = ["--corrupt-reference"] if args.corrupt_reference else []
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = run_traced if args.trace else run_plain

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res, metrics, printed = runner(name, args.seed, args.seconds, extra)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        env = res["environment"]
        print(f"{name} environment nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas={env['blas']}")
        print(f"{name} inputs_sha256 {res['digest']} seed={args.seed}")
        for metric, (value, unit, samples) in {**metrics, **printed}.items():
            print(f"{name} {metric} {value:.6g} {unit} samples={samples}")
        for layer, ms in res.get("top_self_ms", []):
            print(f"{name} self_time {layer} {ms:.4g} ms/op")
        summary["correct"] = summary["correct"] and res["failed"] == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit, _) in metrics.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
