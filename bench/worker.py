"""One fresh-process round of a workload.

    python worker.py WORKLOAD SEED SPAWN_T MODE [TRACE_FILE]

SPAWN_T is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes of the machine), so
set-up covers interpreter start, imports and input building.  MODE is
``setup`` (stop before the first call into the package), ``run`` or
``trace``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    workload, seed, spawn_t, mode = argv[0], int(argv[1]), float(argv[2]), \
        argv[3]
    import workloads  # imports loopbrackets

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    make_inputs, calls, verdicts = workloads.WORKLOADS[workload]
    inp = make_inputs(seed)

    t0 = time.monotonic()
    result = {"setup_s": t0 - spawn_t}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is not None:
        out = tracer.span("workload", calls)(inp)
    else:
        out = calls(inp)
    t1 = time.monotonic()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = verdicts(inp, out)

    failed = [op for op in ops if op.failed]
    unexpected = [op for op in failed if not op.known_fault]
    faults: dict[str, int] = {}
    for op in failed:
        key = op.known_fault or "unexpected"
        faults[key] = faults.get(key, 0) + 1
    result.update({
        "run_s": t1 - t0, "peak_rss_mib": peak,
        "attempted": len(ops), "failed": len(failed),
        "correct": not unexpected, "faults": faults,
        "unexpected": [f"{op.name}: {op.problems[:3]}"
                       for op in unexpected[:5]],
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if len(argv) > 4:
            tracer.write(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
