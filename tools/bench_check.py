#!/usr/bin/env python3
"""Regression gate over BENCH_backup.json files produced by
tools/benchrunner. The ratios it checks, their floors, and which of them
sit in the baseline band are declared in bench/registry.json.

Two layers of checks:

  1. Floors (always): every registry ratio with a floor must be present
     in the current file and at or above its floor. The default profile
     checks the simulated-device suite; --profile posix checks only the
     real-file ratios of the registry's posix entries, from
     `benchrunner --posix`.

  2. Baseline comparison (with --baseline): derived metrics are
     throughput *ratios* measured on one machine, so they transfer across
     hardware; each current ratio the registry marks "band" must be
     within --threshold (default 15%) below its committed baseline value.
     Absolute MB/s numbers do NOT transfer across machines and are only
     compared under --absolute (same-hardware runs).

Exit status 0 = pass, 1 = regression or malformed input.

Usage:
  tools/bench_check.py --current BENCH_backup.json \\
      [--baseline BENCH_backup.json] [--threshold 0.15] \\
      [--profile default|posix] [--absolute]
"""

import argparse
import json
import sys
from pathlib import Path

import bench_registry


def load(path):
    data = json.loads(Path(path).read_text())
    if data.get("schema") != "llb-bench-backup/1":
        raise ValueError("%s: unexpected schema %r" %
                         (path, data.get("schema")))
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression vs baseline")
    parser.add_argument("--profile", choices=("default", "posix"),
                        default="default",
                        help="which ratios to check: the simulated-device "
                             "suite (default) or the real-file posix suite "
                             "from `benchrunner --posix`")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare absolute bytes_per_second "
                             "(same-hardware baselines only)")
    args = parser.parse_args()

    checked = bench_registry.ratios(bench_registry.load(),
                                    args.profile == "posix")
    current = load(args.current)
    derived = current.get("derived", {})
    failures = []

    for entry, ratio in checked:
        if "floor" not in ratio:
            continue
        name, floor = ratio["name"], ratio["floor"]
        value = derived.get(name)
        if value is None:
            failures.append("current file has no %s (did %s run?)" %
                            (name, entry["binary"]))
        elif value < floor:
            failures.append("%s %.3fx < required %.2fx (%s)" %
                            (name, value, floor, ratio["reason"]))
        else:
            print("bench_check: %s %.3fx (>= %.2fx)" % (name, value, floor))

    if args.baseline:
        baseline = load(args.baseline)
        for _, ratio in checked:
            key = ratio["name"]
            base_value = baseline.get("derived", {}).get(key)
            if not ratio.get("band") or base_value is None or \
                    base_value <= 0:
                continue
            cur_value = derived.get(key)
            if cur_value is None:
                failures.append("derived metric %s missing from current"
                                % key)
                continue
            floor = base_value * (1.0 - args.threshold)
            status = "ok" if cur_value >= floor else "REGRESSION"
            print("bench_check: %s current=%.3f baseline=%.3f floor=%.3f %s"
                  % (key, cur_value, base_value, floor, status))
            if cur_value < floor:
                failures.append(
                    "%s regressed: %.3f < %.3f (baseline %.3f - %d%%)" %
                    (key, cur_value, floor, base_value,
                     round(args.threshold * 100)))
        if args.absolute:
            base_by_name = {
                (b["binary"], b["name"]): b
                for b in baseline.get("benchmarks", [])
                if "bytes_per_second" in b
            }
            for rec in current.get("benchmarks", []):
                key = (rec["binary"], rec["name"])
                if key not in base_by_name or "bytes_per_second" not in rec:
                    continue
                base_bps = base_by_name[key]["bytes_per_second"]
                floor = base_bps * (1.0 - args.threshold)
                if rec["bytes_per_second"] < floor:
                    failures.append(
                        "%s/%s throughput regressed: %.1f MB/s < floor "
                        "%.1f MB/s" % (key[0], key[1],
                                       rec["bytes_per_second"] / 1e6,
                                       floor / 1e6))

    if failures:
        for failure in failures:
            print("bench_check: FAIL: %s" % failure, file=sys.stderr)
        return 1
    print("bench_check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
