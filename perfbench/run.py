#!/usr/bin/env python3
"""The quake98 benchmark: build, run, check and report.

One workload (the form runs are compared in):

    python3 perfbench/run.py --workload sf10-p8 --seed 1 --seconds 20 --trace 0

builds perfbench/quake98_bench from source on first use (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs the workload, checks its
outputs, and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
It exits non-zero when any correctness check fails.

Every workload, with medians over repetitions:

    python3 perfbench/run.py [--reps 3] [--seconds 20] [--trace 0|1]

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sf10-p8", "sf5-p8-ckpt", "sf5-seq", "service-mix"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def note(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            note("configuring the benchmark build (log: %s)" % log_path)
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log,
                               timeout=BUILD_TIMEOUT_S) != 0:
                raise SystemExit("benchmark configure failed; see " + log_path)
        if subprocess.call(["cmake", "--build", out, "--target", "quake98_bench",
                            "-j", jobs], stdout=log, stderr=log,
                           timeout=BUILD_TIMEOUT_S) != 0:
            raise SystemExit("benchmark build failed; see " + log_path)
    return os.path.join(out, "quake98_bench")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Run one workload; return (exit code, parsed result or None)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work] + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        note("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 124, None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        elif echo:
            print(line)
    if proc.stderr.strip():
        note(proc.stderr.rstrip())
    return proc.returncode, result


def result_line(spec, result, trace):
    """The result object of one run: correctness counts and metrics."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    reported = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        got = reported.get(m["name"])
        if got is None:
            # A layer this workload does not exercise spends nothing.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            raise SystemExit("metric %s reported in %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def run_all(binary, spec, args):
    """Every workload, --reps times each; medians with quartiles."""
    ok = True
    table = {}
    for w in WORKLOADS:
        runs = []
        for r in range(args.reps):
            code, res = run_workload(binary, w, args.seed + r, args.seconds,
                                     args.trace, echo=(r == 0))
            if res is None or code != 0:
                ok = False
            if res is not None:
                runs.append(result_line(spec, res, args.trace))
        table[w] = runs
    print("\n== medians over %d run(s) per workload (seeds %d..%d), "
          "quartiles in brackets" % (args.reps, args.seed,
                                     args.seed + args.reps - 1))
    for w, runs in table.items():
        if not runs:
            print("%s: no result" % w)
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print("%s  (error_rate %.4g = %d failed / %d checked)"
              % (w, failed / attempted if attempted else 1.0, failed,
                 attempted))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            lo, med, hi = quartiles(vals)
            print("  %-34s %14.6g %-8s [%.6g, %.6g]"
                  % (name, med, runs[0]["metrics"][name]["unit"], lo, hi))
    eng = table.get("sf5-p8-ckpt")
    seq = table.get("sf5-seq")
    if not args.trace and eng and seq:
        e = statistics.median(r["metrics"]["throughput_per_s"]["value"]
                              for r in eng)
        s = statistics.median(r["metrics"]["throughput_per_s"]["value"]
                              for r in seq)
        print("engine/floor: sf5-p8-ckpt %.6g steps/s over sf5-seq %.6g "
              "steps/s = %.3f (medians of %d and %d runs)"
              % (e, s, e / s, len(eng), len(seq)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="one of %s, or all" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=3,
                   help="runs per workload with --workload all")
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long smoke sizes")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one checked result (negative test)")
    args = p.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error("unknown workload %s" % args.workload)
    if args.seconds <= 0 or args.reps < 1:
        p.error("--seconds and --reps must be positive")

    spec = load_spec()
    binary = build()
    print("commit: %s" % git_commit())
    if args.workload == "all":
        return run_all(binary, spec, args)

    extra = (["--tiny"] if args.tiny else []) + \
        (["--corrupt"] if args.corrupt else [])
    code, result = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace, extra)
    if result is None:
        note("%s: no result (exit code %d)" % (args.workload, code))
        return 1
    line = result_line(spec, result, args.trace)
    print(json.dumps(line))
    return 0 if code == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
