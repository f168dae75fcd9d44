"""Benchmark the memoized forward against the plain forward.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_b16 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``perfbench/README.md`` for why each was chosen):
``paper_b16``, ``paper_b1`` and ``serve_mix``; ``all`` runs each in turn
in its own process.  ``BENCHMARK.json`` gates the first two only.  With
``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it installs span wrappers around the timed layers and reports the
per-layer metrics instead.  On ``paper_*`` a time is the benchmark
thread's CPU time scaled to a reference host speed (``clock.py``).
Every run checks the program's outputs;
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``, and the exit code is non-zero if
any output check failed.
"""

from __future__ import annotations

import os

#: One BLAS thread, set before numpy loads (in this process and, through
#: the environment, in the server it starts).  On a shared 2-core host a
#: GEMM split over two threads waits at every call for the slower core,
#: so neighbours' load moves its time by up to 4x; one thread is slowed
#: only by what shares its own core.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import signal
import subprocess
import sys

from common import (benchmark_spec, cpu_steal_seconds, host_metadata, result_line,
                    use_checkout_source)

#: ``serve_mix`` is not in BENCHMARK.json: on a shared 2-core host its
#: latencies spread past any allowed bound (see README.md).  It is the
#: workload on which the serving layers are measured (``--trace 1``).
WORKLOADS = ("paper_b16", "paper_b1", "serve_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args: argparse.Namespace) -> int:
    use_checkout_source()
    steal_before = cpu_steal_seconds()
    if args.workload == "serve_mix":
        from serve_mix import run
    else:
        from paper import run
    trace = bool(args.trace)
    metrics, outcome, info = run(args.workload, args.seed, args.seconds, trace)
    names = [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]
    if trace:
        idle = [name for name in names if not metrics.get(name)]
        info["layers_not_exercised"] = idle
        metrics.update({name: 0.0 for name in idle})
    host = host_metadata(args.seed, args.workload)
    steal_after = cpu_steal_seconds()
    if steal_before is not None and steal_after is not None:
        host["cpu_steal_s_during_run"] = steal_after - steal_before
    print("host " + json.dumps(host, sort_keys=True))
    ungated = info.pop("ungated_metrics", {})
    print("info " + json.dumps(info, sort_keys=True, default=str))
    result = result_line(outcome, metrics, names)
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    for name, entry in ungated.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}  (not in BENCHMARK.json)")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  fail_ratio {ratio:.6f} ({outcome.failed} failed of {outcome.attempted} attempted)")
    for mismatch in outcome.mismatches:
        print(f"  MISMATCH {mismatch}")
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload} printed no result (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        code = code or done.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined), flush=True)
    return code


def main(argv=None) -> int:
    # A terminated run still unwinds, so it stops the server it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
