"""Benchmark of the beattysieve package.

    python3 perfbench/run.py --workload scan|sweep|certify --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the package is imported from
`src/` as it stands, nothing is installed.  A run is a closed loop with one
caller: it starts a worker process (worker.py), waits for it to return, and
starts the next while fewer than S seconds have passed.  Each process sets
up (imports, draws inputs) and then runs the workload's four jobs several
times, each repetition on inputs of its own, checking every result outside
the timed region.

With --trace 0 the run reports the end-to-end metrics:

    setup_s      fresh-process start and import of the package (numpy,
                 scipy) plus input generation, up to the first timed job
    wall_s       the job list: the four job times added up
    cpu_s        user + system CPU of the four jobs, children included
    peak_rss_mb  peak resident memory of a worker process
    job1_s ..    each job on its own; the job behind each slot:
      scan       find, member (torus_member sweep), s1s2, regcond
      sweep      bv float gamma, bv exact gamma, bdh float gamma, bdh exact gamma
      certify    mk, weights (+ invert_lambda), chain (+ region integrals), bilinear

Each time is the median over the run: over its processes for setup_s,
over its repetitions for the others; peak_rss_mb is the largest over the
processes.

Times are reported at a reference speed.  Other tenants of a shared
machine slow a job down by up to 2x, in bursts of seconds and in phases of
minutes; on a shared 2-vCPU virtual machine the median of the measured
seconds moved by 10-30% from one run to the next.  So the benchmark times
a fixed pure-Python kernel that does not use the package (reference.py)
before each job and after the last (and around each set-up), and scales
each job's seconds by REFERENCE_SECONDS / (mean of the two kernel times
around it).  The measured seconds are printed beside each metric, and every
repetition is kept in the `record` line.

`failed_frac` (failed jobs / jobs attempted) is printed with them; the
result line carries it as `failed` and `attempted`.

With --trace 1 every other process (the first included) runs with
entry-point wrappers around each module (tracing.py) and the run reports
per-layer self seconds (medians over traced repetitions), call counts and
counters (from the first repetition, so a seed always gives the same
counts), the benchmark's own time, and trace.overhead_s: the fastest traced
minus the fastest untraced job list.  Spans are written to
.perfbench/spans-<workload>-<seed>.json.

The last line of standard output is the JSON result; a line starting with
`record` before it holds versions, thread pins, load and the seed.  BLAS
and OpenMP pools are pinned to one thread.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference
from tracing import COUNTER_UNITS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
HARD_LIMIT_S = 170.0
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}

JOB_SLOTS = {
    "scan": ("find", "member", "s1s2", "regcond"),
    "sweep": ("bv_float", "bv_exact", "bdh_float", "bdh_exact"),
    "certify": ("mk", "weights", "chain", "bilinear"),
}
REPS_PER_PROCESS = 3
# typical time of the reference kernel on the shared 2-vCPU machine the
# bounds were set on; times are reported as if every kernel run took this long
REFERENCE_SECONDS = 0.04


class RunError(RuntimeError):
    pass


def _run_process(args, index, traced, started, env):
    """One worker process: set-up plus REPS_PER_PROCESS repetitions."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed),
           str(index * REPS_PER_PROCESS), str(REPS_PER_PROCESS),
           repr(started + args.seconds), "1" if traced else "0", args.size]
    before = reference.seconds()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, HARD_LIMIT_S - (spawned - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"process {index} did not finish within {HARD_LIMIT_S:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"process {index} exited {proc.returncode}:\n{err.strip()}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup"] = rec["ready"] - spawned
    rec["setup_scale"] = REFERENCE_SECONDS / ((before + rec["reference"]) / 2)
    rec["traced"] = traced
    return rec


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(rep):
    """Each job's wall and CPU seconds at the reference speed: scaled by
    REFERENCE_SECONDS / (mean of the kernel runs just before and after)."""
    ref = rep["reference"]
    scale = [REFERENCE_SECONDS * 2 / (a + b) for a, b in zip(ref, ref[1:])]
    return ({name: t * k for (name, t), k in zip(rep["seconds"].items(), scale)},
            {name: t * k for (name, t), k in zip(rep["cpu"].items(), scale)})


def end_to_end(workload, procs):
    """(measured, metrics): medians over the run of the measured times and
    of the same times at the reference speed."""
    reps = [rep for p in procs for rep in p["reps"]]
    scaled = [_scaled(rep) for rep in reps]
    series = {"setup_s": ([p["setup"] for p in procs],
                          [p["setup"] * p["setup_scale"] for p in procs]),
              "wall_s": ([sum(r["seconds"].values()) for r in reps],
                         [sum(wall.values()) for wall, _ in scaled]),
              "cpu_s": ([sum(r["cpu"].values()) for r in reps],
                        [sum(cpu.values()) for _, cpu in scaled])}
    for slot, name in enumerate(JOB_SLOTS[workload], 1):
        series[f"job{slot}_s"] = ([r["seconds"][name] for r in reps],
                                  [wall[name] for wall, _ in scaled])
    measured = {k: statistics.median(raw) for k, (raw, _) in series.items()}
    metrics = {k: _metric(statistics.median(norm), "s")
               for k, (_, norm) in series.items()}
    metrics["peak_rss_mb"] = _metric(max(p["rss_mb"] for p in procs), "MB")
    return measured, metrics


def per_layer(procs) -> dict:
    traced = [rep for p in procs if p["traced"] for rep in p["reps"]]
    plain = [rep for p in procs if not p["traced"] for rep in p["reps"]]
    first = traced[0]["layers"]
    out = {}
    for layer in LAYERS + ("bench",):
        key = f"{layer}.self_s"
        out[key] = _metric(statistics.median(r["layers"][key] for r in traced), "s")
    for layer in LAYERS:
        out[f"{layer}.calls"] = _metric(first[f"{layer}.calls"], "count")
    for key, unit in COUNTER_UNITS.items():
        out[key] = _metric(first[key], unit)
    wall = lambda reps: statistics.median(sum(_scaled(r)[0].values()) for r in reps)
    out["trace.overhead_s"] = _metric(wall(traced) - wall(plain), "s")
    out["trace.layer_share"] = _metric(statistics.median(
        1.0 - r["layers"]["bench.self_s"] / sum(r["seconds"].values())
        for r in traced), "ratio")
    return out


def _write_spans(args, procs):
    folder = os.path.join(ROOT, ".perfbench")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"spans-{args.workload}-{args.seed}.json")
    doc = {"fields": ["layer", "name", "start", "end", "parent"],
           "repetitions": [rep["spans"] for p in procs if p["traced"]
                           for rep in p["reps"]]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOB_SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "beattysieve", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    load_before = os.getloadavg()
    started = time.monotonic()
    procs = []
    try:
        while len(procs) < 1 + args.trace or time.monotonic() - started < args.seconds:
            traced = bool(args.trace) and len(procs) % 2 == 0
            procs.append(_run_process(args, len(procs), traced, started, env))
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1

    reps = [rep for p in procs for rep in p["reps"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(len(rep["failures"]) for rep in reps)
    for rep in reps:
        for job, msgs in rep["failures"].items():
            print(f"FAILED {job}: {msgs[0]}", file=sys.stderr)
    measured = {}
    if args.trace:
        metrics = per_layer(procs)
        _write_spans(args, procs)
    else:
        measured, metrics = end_to_end(args.workload, procs)
    for name, m in metrics.items():
        note = f"  (measured {measured[name]:.6g} s)" if name in measured else ""
        print(f"{name:30s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_frac':30s} {failed / attempted:.6g} ratio")
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "processes": len(procs), "repetitions": len(reps),
              "git_sha": _git_sha(), "versions": procs[0]["versions"],
              "nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
              "pythonhashseed": "0", "load_before": load_before,
              "load_after": os.getloadavg(),
              "jobs": dict(zip((f"job{i}_s" for i in range(1, 5)),
                               JOB_SLOTS[args.workload])),
              "reference_seconds": REFERENCE_SECONDS,
              "setup": [[p["setup"], p["setup_scale"]] for p in procs],
              "per_rep": [{k: rep[k] for k in ("seconds", "cpu", "reference")}
                          for rep in reps]}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
