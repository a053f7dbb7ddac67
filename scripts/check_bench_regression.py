#!/usr/bin/env python3
"""Compare a fresh pns_bench_report JSON against the checked-in baseline.

Usage:
    scripts/check_bench_regression.py FRESH.json [BASELINE.json]
    scripts/check_bench_regression.py --list-baseline

With no BASELINE argument the newest checked-in BENCH_*.json (highest
number) is used. Named micro benchmarks are compared on cpu_time_ns; a
slowdown beyond --threshold (default 15 %) is reported as a warning.

The exit code is 0 unless --strict is given (then any warning fails):
micro benchmarks on shared CI runners jitter far more than 15 %, so this
runs as a *non-blocking* smoke in CI -- a tap on the shoulder in the
logs, not a gate. Run it locally on a quiet machine before trusting a
number either way.
"""

import argparse
import glob
import json
import os
import re
import sys

# The watched subset: end-to-end and integrator-path benches that the
# BENCH trajectory is meant to track. Purely-synthetic micro benches
# (e.g. the never-firing event paths) jitter too much to gate on.
WATCHED = [
    "BM_Rk23SecondOfCircuit",
    "BM_Rk23PiSecondOfCircuit",
    "BM_EndToEndSimulatedMinute",
    "BM_EndToEndSimulatedMinuteTabulated",
    "BM_EndToEndSimulatedMinuteRk23Pi",
    "BM_CoastingQuiescentHour",
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def newest_baseline():
    candidates = []
    for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m:
            candidates.append((int(m.group(1)), path))
    if not candidates:
        return None
    return max(candidates)[1]


def micro_map(report):
    micro = report.get("micro")
    if not isinstance(micro, list):
        return {}
    return {
        row["name"]: row
        for row in micro
        if isinstance(row, dict) and "name" in row
    }


def compare_sweep_section(fresh, baseline, threshold, section):
    """Compares one sweep section's wall-clocks key by key.

    Used for "table2" and "table2_biglittle" (the 2-domain platform
    trajectory added in BENCH_9). The key set is learned from the
    reports themselves, so a newly added integrator entry (e.g.
    `rk23pi` in BENCH_5) or a whole new section shows up as `new`
    the first time -- informational, never a warning -- and is tracked
    automatically once a baseline containing it is checked in. Keys the
    baseline has but the fresh report lost are flagged: a silently
    dropped bench reads as "still fine" when nothing measured it.
    """
    fresh_t = fresh.get(section)
    base_t = baseline.get(section)
    if not isinstance(fresh_t, dict):
        if isinstance(base_t, dict):
            print(f"{section:42} {'missing!':>12}")
            return [(f"{section} (dropped from report)", 0.0)]
        return []
    if not isinstance(base_t, dict):
        base_t = {}

    def wall(section_obj, key):
        row = section_obj.get(key)
        if isinstance(row, dict) and "wall_s" in row:
            return float(row["wall_s"])
        return None

    keys = [k for k in list(fresh_t) + list(base_t)
            if wall(fresh_t, k) is not None or
            wall(base_t, k) is not None]
    keys = list(dict.fromkeys(keys))  # de-dup, report order preserved
    warnings = []
    for key in keys:
        name = f"{section} {key}"
        fresh_s = wall(fresh_t, key)
        base_s = wall(base_t, key)
        if fresh_s is None:
            print(f"{name:42} {'missing!':>12}")
            warnings.append((name + " (dropped from report)", 0.0))
            continue
        if base_s is None:
            print(f"{name:42} {'new':>12} {fresh_s:10.2f}s")
            continue
        if base_s <= 0:
            continue
        delta = fresh_s / base_s - 1.0
        flag = ""
        if delta > threshold:
            flag = "  <-- REGRESSION"
            warnings.append((name, delta))
        print(f"{name:42} {base_s:11.2f}s {fresh_s:11.2f}s "
              f"{delta:+7.1%}{flag}")
    return warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="?", help="freshly generated report")
    parser.add_argument("baseline", nargs="?", help="checked-in baseline")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that warns (default 0.15)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any bench regressed")
    parser.add_argument("--list-baseline", action="store_true",
                        help="print the baseline path that would be used")
    args = parser.parse_args()

    baseline_path = args.baseline or newest_baseline()
    if args.list_baseline:
        print(baseline_path or "")
        return 0
    if not args.fresh:
        parser.error("missing FRESH.json")
    if not baseline_path:
        print("check_bench_regression: no checked-in BENCH_*.json baseline")
        return 0

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    fresh_micro = micro_map(fresh)
    base_micro = micro_map(baseline)
    if not fresh_micro:
        print(f"check_bench_regression: {args.fresh} has no micro rows "
              "(bench_micro_hotpaths not built?); nothing to compare")
        return 0

    regressed = []
    print(f"baseline: {os.path.basename(baseline_path)}   "
          f"fresh: {os.path.basename(args.fresh)}")
    print(f"{'benchmark':42} {'base':>12} {'fresh':>12} {'delta':>8}")
    for name in WATCHED:
        base_row = base_micro.get(name)
        fresh_row = fresh_micro.get(name)
        if base_row is None:
            # First sight of a newly added bench: informational only.
            # It becomes tracked once a baseline containing it lands.
            fresh_ns = float(fresh_row["cpu_time_ns"]) if fresh_row else 0.0
            print(f"{name:42} {'new':>12} {fresh_ns:10.0f}ns")
            continue
        if fresh_row is None:
            print(f"{name:42} {'missing!':>12}")
            regressed.append((name + " (dropped from report)", 0.0))
            continue
        base_ns = float(base_row["cpu_time_ns"])
        fresh_ns = float(fresh_row["cpu_time_ns"])
        if base_ns <= 0:
            continue
        delta = fresh_ns / base_ns - 1.0
        flag = ""
        if delta > args.threshold:
            flag = "  <-- REGRESSION"
            regressed.append((name, delta))
        print(f"{name:42} {base_ns:10.0f}ns {fresh_ns:10.0f}ns "
              f"{delta:+7.1%}{flag}")

    regressed += compare_sweep_section(fresh, baseline, args.threshold,
                                       "table2")
    regressed += compare_sweep_section(fresh, baseline, args.threshold,
                                       "table2_biglittle")

    if regressed:
        print()
        for name, delta in regressed:
            if name.endswith("(dropped from report)"):
                print(f"warning: {name}")
            else:
                print(f"warning: {name} slowed down {delta:+.1%} "
                      f"(threshold {args.threshold:.0%})")
        if args.strict:
            return 1
    else:
        print("\nno regressions beyond "
              f"{args.threshold:.0%} on the watched benches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
