#!/usr/bin/env python3
"""Seconds-long smoke test of the quake98 benchmark.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that
each passes its correctness checks and reports every metric of
BENCHMARK.json.  Then runs each workload with one checked result
corrupted and requires a non-zero error_rate and a failing exit code.
"""

import math
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    spec = run.load_spec()
    binary = run.build()
    problems = []
    for w in run.WORKLOADS:
        for trace in (0, 1):
            code, res = run.run_workload(binary, w, 7, 1.0, trace,
                                         ["--tiny"], echo=False)
            if res is None:
                problems.append("%s trace=%d: no result (exit %d)"
                                % (w, trace, code))
                continue
            line = run.result_line(spec, res, trace)
            found = []
            if code != 0 or not line["correct"]:
                found.append("failed %d of %d checks"
                             % (line["failed"], line["attempted"]))
            for name, m in line["metrics"].items():
                v = m["value"]
                if not math.isfinite(v) or (trace == 0 and v <= 0):
                    found.append("%s = %r" % (name, v))
            if trace == 1 and w != "service-mix":
                cov = line["metrics"]["trace.coverage"]["value"]
                if cov < 0.95:
                    found.append("trace coverage %.3f < 0.95" % cov)
            problems += ["%s trace=%d: %s" % (w, trace, f) for f in found]
            print("%-12s trace=%d %s" % (w, trace,
                                         "FAILED" if found else "ok"))

        # Negative case: a corrupted result must fail the run.
        code, res = run.run_workload(binary, w, 7, 1.0, 0,
                                     ["--tiny", "--corrupt"], echo=False)
        if code == 0 or res is None or res["failed"] == 0:
            problems.append("%s --corrupt: exit %d, failed %s (want a "
                            "failing run)" % (w, code,
                                              res and res["failed"]))
        else:
            print("%-12s corrupted result rejected (error_rate %.3g)"
                  % (w, res["failed"] / res["attempted"]))

    for p in problems:
        print("SMOKE FAILURE: " + p)
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
