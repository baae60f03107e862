"""One process of a run: set-up, then a few repetitions of the job list.

    python3 perfbench/worker.py WORKLOAD SEED FIRST_REP REPS DEADLINE TRACE SIZE

Set-up is the import of the package (with numpy and scipy) and the drawing
of the inputs of repetitions FIRST_REP .. FIRST_REP + REPS - 1; a run of
the reference kernel (reference.py) follows it.  Each repetition then runs
the workload's jobs one after another, each timed on its own with a run of
the reference kernel after it (and one before the first), and checks every
result after the last job returns.  The `char_table` cache is cleared
before each repetition, so character tables are built cold, as in a fresh
command-line process.  With TRACE=1 the entry-point wrappers are installed
after set-up.  No repetition after the first starts once time.monotonic()
has passed DEADLINE.  Prints one JSON line: the monotonic time at which set-up
ended, the kernel time after it, peak RSS, versions, and per repetition the
wall and CPU seconds of each job, the kernel times, failures and (traced)
the per-layer report and spans.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy
import scipy
from beattysieve import chars

import reference
import workloads
from tracing import Tracer

clear_char_tables = chars.char_table.cache_clear  # taken before any wrapping


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_rep(workload, inputs, tracer):
    clear_char_tables()
    tracer.reset()
    yardstick = [reference.seconds()]
    results, seconds, cpu = {}, {}, {}
    for name, thunk in workloads.run_jobs(workload, inputs, tracer):
        tracer.active = tracer.installed
        cpu0, t0 = _cpu(), time.perf_counter()
        with tracer.span("bench", name):
            try:
                results[name] = ("ok", thunk())
            except Exception:
                results[name] = ("raised", traceback.format_exc(limit=3))
        seconds[name] = time.perf_counter() - t0
        cpu[name] = _cpu() - cpu0
        tracer.active = False
        yardstick.append(reference.seconds())
    rep = {"seconds": seconds, "cpu": cpu, "reference": yardstick,
           "attempted": len(results),
           "failures": workloads.check_results(workload, inputs, results)}
    if tracer.installed:
        rep["layers"] = tracer.report()
        rep["spans"] = tracer.spans
    return rep


def main(argv) -> int:
    workload, seed, first, reps, deadline, trace, size = argv
    all_inputs = [workloads.make_inputs(workload, int(seed), int(first) + i, size)
                  for i in range(int(reps))]
    ready = time.monotonic()
    after_setup = reference.seconds()
    tracer = Tracer()
    if trace == "1":
        tracer.install()
    done = []
    for inputs in all_inputs:
        if done and time.monotonic() > float(deadline):
            break
        done.append(run_rep(workload, inputs, tracer))
    out = {"ready": ready, "reference": after_setup, "reps": done,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "versions": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
