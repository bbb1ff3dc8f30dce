#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag performance regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.15]
    bench_compare.py BASELINE.json CANDIDATE.json --report-only
    bench_compare.py --self-test

Records are matched by their "kernel" label.  For each metric present
in both records the relative change is computed; the run exits nonzero
when any matched record regresses by more than the threshold (default
15%):

  - lower-is-better metrics (tf_ns, seconds_per_smvp): regression when
    the candidate exceeds baseline * (1 + threshold);
  - higher-is-better metrics (gflops, steps_per_sec): regression when
    the candidate falls below baseline * (1 - threshold).

Informational metrics (bytes_per_flop, gbps, padding_ratio) are
reported but never gate: bytes/flop is a model constant, and GB/s moves
inversely with tf_ns, which already gates.

Kernels present in only one file are reported but do not fail the
comparison (new benchmarks appear, old ones are retired).  The intended
workflow (README.md "Benchmark workflow"): save BENCH_tf_kernels.json
from the baseline commit, rerun on the candidate, then diff.

Both files' host blocks are printed first.  When they differ, a
"different host: trajectory only" line precedes the diff: timings from
two machines say how the numbers moved, not whether the code got
slower.  The exit status does not depend on the hosts.

With --report-only the full diff (including regressions) is printed but
the exit status is always 0.  That is the mode the `perf` ctest tier
uses against the baselines committed under bench/baselines/: those were
produced on a different host, so absolute timings are trajectory
information, not a same-host gate.
"""

import argparse
import json
import os
import sys
import tempfile

# metric name -> True when lower is better.
GATED_METRICS = {
    "tf_ns": True,
    "seconds_per_smvp": True,
    "gflops": False,
    "steps_per_sec": False,
}

INFO_METRICS = ("bytes_per_flop", "gbps", "padding_ratio")


DIFFERENT_HOST = "different host: trajectory only"


def load_bench(path):
    """(host block, kernel label -> record dict) of a BENCH json file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    records = {}
    for rec in doc.get("records", []):
        records[rec["kernel"]] = rec
    return doc.get("host", {}), records


def host_lines(base_host, cand_host):
    """Both host blocks, after the DIFFERENT_HOST line when they differ."""
    def describe(host):
        if not host:
            return "(no host block)"
        return ", ".join("%s=%s" % (k, host[k]) for k in sorted(host))

    lines = [DIFFERENT_HOST] if base_host != cand_host else []
    lines.append("  baseline host:  " + describe(base_host))
    lines.append("  candidate host: " + describe(cand_host))
    return lines


def compare(baseline, candidate, threshold):
    """Return (report_lines, regressions) for two kernel->record maps."""
    lines = []
    regressions = []

    common = sorted(set(baseline) & set(candidate))
    only_base = sorted(set(baseline) - set(candidate))
    only_cand = sorted(set(candidate) - set(baseline))

    for kernel in common:
        b, c = baseline[kernel], candidate[kernel]
        for metric, lower_is_better in GATED_METRICS.items():
            if metric not in b or metric not in c:
                continue
            old, new = float(b[metric]), float(c[metric])
            if old == 0.0:
                continue
            rel = (new - old) / old
            worse = rel > threshold if lower_is_better else rel < -threshold
            tag = "REGRESSION" if worse else "ok"
            lines.append(
                "  %-24s %-16s %12.4g -> %12.4g  (%+6.1f%%)  %s"
                % (kernel, metric, old, new, 100.0 * rel, tag)
            )
            if worse:
                regressions.append((kernel, metric, old, new, rel))
        for metric in INFO_METRICS:
            if metric in b and metric in c and float(b[metric]) != 0.0:
                old, new = float(b[metric]), float(c[metric])
                rel = (new - old) / old
                lines.append(
                    "  %-24s %-16s %12.4g -> %12.4g  (%+6.1f%%)  info"
                    % (kernel, metric, old, new, 100.0 * rel)
                )

    for kernel in only_base:
        lines.append("  %-24s only in baseline (retired?)" % kernel)
    for kernel in only_cand:
        lines.append("  %-24s only in candidate (new)" % kernel)

    return lines, regressions


def exit_code(regressions, report_only):
    """Nonzero only when regressions exist and gating is requested."""
    return 1 if regressions and not report_only else 0


def self_test():
    """Exercise the comparison logic on embedded fixtures."""
    base = {
        "fast": {"kernel": "fast", "tf_ns": 1.0, "gflops": 2.0},
        "slow": {"kernel": "slow", "tf_ns": 4.0, "gflops": 0.5,
                 "steps_per_sec": 100.0},
        "gone": {"kernel": "gone", "tf_ns": 9.9},
    }

    # Within threshold: +10% tf_ns, -10% gflops -> no regression.
    ok_cand = {
        "fast": {"kernel": "fast", "tf_ns": 1.10, "gflops": 1.8},
        "slow": {"kernel": "slow", "tf_ns": 4.0, "gflops": 0.5,
                 "steps_per_sec": 95.0},
        "new": {"kernel": "new", "tf_ns": 0.5},
    }
    _, regressions = compare(base, ok_cand, 0.15)
    assert not regressions, "false positive: %r" % regressions

    # tf_ns +20% and steps_per_sec -20% must both be flagged.
    bad_cand = {
        "fast": {"kernel": "fast", "tf_ns": 1.20, "gflops": 2.0},
        "slow": {"kernel": "slow", "tf_ns": 4.0, "gflops": 0.5,
                 "steps_per_sec": 80.0},
    }
    _, regressions = compare(base, bad_cand, 0.15)
    flagged = {(k, m) for k, m, *_ in regressions}
    assert ("fast", "tf_ns") in flagged, flagged
    assert ("slow", "steps_per_sec") in flagged, flagged
    assert len(flagged) == 2, flagged

    # An improvement in a lower-is-better metric never flags.
    good_cand = {"fast": {"kernel": "fast", "tf_ns": 0.5, "gflops": 4.0}}
    _, regressions = compare(base, good_cand, 0.15)
    assert not regressions, regressions

    # Zero baselines are skipped, not divided by.
    zero_base = {"z": {"kernel": "z", "tf_ns": 0.0}}
    zero_cand = {"z": {"kernel": "z", "tf_ns": 1.0}}
    _, regressions = compare(zero_base, zero_cand, 0.15)
    assert not regressions, regressions

    # --report-only always exits 0, even with regressions; gating mode
    # exits nonzero exactly when regressions exist.
    _, regressions = compare(base, bad_cand, 0.15)
    assert regressions
    assert exit_code(regressions, report_only=True) == 0
    assert exit_code(regressions, report_only=False) == 1
    assert exit_code([], report_only=False) == 0

    # Host blocks round-trip through files; equal hosts print no
    # warning, differing ones print it first.
    host = {"hardware_threads": 4, "compiler": "12.2.0",
            "build": "optimized"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_fixture.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"host": host, "records": list(base.values())}, f)
        loaded_host, loaded = load_bench(path)
    assert loaded_host == host, loaded_host
    assert loaded == base, loaded
    same = host_lines(host, dict(host))
    assert DIFFERENT_HOST not in same, same
    assert len(same) == 2 and "hardware_threads=4" in same[1], same
    other = host_lines(host, dict(host, hardware_threads=1))
    assert other[0] == DIFFERENT_HOST, other
    assert "hardware_threads=4" in other[1], other
    assert "hardware_threads=1" in other[2], other
    assert host_lines({}, host)[0] == DIFFERENT_HOST

    print("bench_compare self-test: all assertions passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files; exit nonzero on "
        "performance regressions beyond the threshold."
    )
    parser.add_argument("baseline", nargs="?", help="baseline BENCH json")
    parser.add_argument("candidate", nargs="?", help="candidate BENCH json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative regression threshold (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded fixture checks and exit",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="print the diff but always exit 0 (trajectory reporting "
        "against baselines from another host)",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")

    base_host, baseline = load_bench(args.baseline)
    cand_host, candidate = load_bench(args.candidate)
    lines, regressions = compare(baseline, candidate, args.threshold)

    print(
        "bench_compare: %s -> %s (threshold %.0f%%)"
        % (args.baseline, args.candidate, 100.0 * args.threshold)
    )
    for line in host_lines(base_host, cand_host) + lines:
        print(line)

    if regressions:
        print(
            "\n%d regression(s) beyond %.0f%%%s:"
            % (
                len(regressions),
                100.0 * args.threshold,
                " (report-only; not gating)" if args.report_only else "",
            )
        )
        for kernel, metric, old, new, rel in regressions:
            print(
                "  %s %s: %.4g -> %.4g (%+.1f%%)"
                % (kernel, metric, old, new, 100.0 * rel)
            )
    else:
        print("\nno regressions beyond the threshold")
    return exit_code(regressions, args.report_only)


if __name__ == "__main__":
    sys.exit(main())
