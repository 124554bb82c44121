#!/usr/bin/env python3
"""Cold-process benchmark for loopbrackets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src, and
the workloads and metrics are the ones listed in ./BENCHMARK.json.  Every
round of a workload is a fresh Python process (see worker.py), started
one after another from this process.

--trace 0: whole rounds start until S seconds have passed (at least
one); set-up-only processes between them give more set-up samples.
Reports the medians of setup_s, run_s and peak_rss_mib.
--trace 1: one untraced round, then one traced round that wraps the
package's layer functions (tracing.py).  Reports the per-layer metrics
and the tracing overhead, and writes the spans to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PER_ROUND = 1  # set-up-only processes started before each round
MIN_SETUPS = 5  # set-up samples per run, the rounds' own included
THREADS = str(min(2, os.cpu_count() or 1))
CHILD_TIMEOUT = 170


def _child_env() -> dict:
    env = dict(os.environ)
    path = [str(SRC), str(BENCH)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = THREADS
    return env


def _child(workload: str, seed: int, mode: str, trace_file: str = "") -> dict:
    args = [sys.executable, str(BENCH / "worker.py"), workload, str(seed)]
    spawn_t = time.monotonic()
    args += [repr(spawn_t), mode] + ([trace_file] if trace_file else [])
    proc = subprocess.run(args, env=_child_env(), cwd=str(ROOT),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} process for {workload} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _run_untraced(args, spec) -> dict:
    def setup():
        return _child(args.workload, args.seed, "setup")["setup_s"]

    setups, rounds = [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        setups += [setup() for _ in range(SETUP_PER_ROUND)]
        rounds.append(_child(args.workload, args.seed, "run"))
        r = rounds[-1]
        print(f"round {len(rounds)}: setup {r['setup_s']:.3f} s, "
              f"run {r['run_s']:.3f} s, peak {r['peak_rss_mib']:.1f} MiB, "
              f"{r['failed']}/{r['attempted']} failed {r['faults']}")
    setups += [r["setup_s"] for r in rounds]
    setups += [setup() for _ in range(MIN_SETUPS - len(setups))]
    values = {"setup_s": statistics.median(setups),
              "run_s": statistics.median(r["run_s"] for r in rounds),
              "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                                for r in rounds)}
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in spec["end_to_end"]}
    return _result(rounds, metrics)


def _run_traced(args, spec) -> dict:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json.gz"
    plain = _child(args.workload, args.seed, "run")
    traced = _child(args.workload, args.seed, "trace", str(trace_file))
    layers = dict(traced["layers"])
    layers["trace.run_s"] = (traced["run_s"], "s")
    layers["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    print(f"untraced run {plain['run_s']:.3f} s, traced run "
          f"{traced['run_s']:.3f} s, spans in {trace_file.relative_to(ROOT)}")
    metrics = {}
    for m in spec["per_layer"]:
        value, unit = layers[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = _metric(value, unit)
    return _result([plain, traced], metrics)


def _result(rounds, metrics) -> dict:
    for r in rounds:
        for line in r["unexpected"]:
            print("unexpected failure:", line)
    return {"correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "loopbrackets" / "verify.py").is_file():
        print(f"error: no package sources at {SRC}/loopbrackets; run from "
              "the root of a loopbrackets checkout", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        res = (_run_traced if args.trace else _run_untraced)(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
