#!/usr/bin/env python3
"""Pins tools/benchrunner's derived metrics and tools/bench_check.py's
gate to bench/registry.json and the committed BENCH_backup.json.

Run: python3 tools/tests/bench_tooling_test.py (ctest label `tooling`).
"""

import copy
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent
REPO = TOOLS.parent
sys.path.insert(0, str(TOOLS))

import bench_registry  # noqa: E402

COMMITTED = json.loads((REPO / "BENCH_backup.json").read_text())

FLOORS = {"batched_speedup_best", "speedup_parallel_t4", "speedup_restore_t4",
          "ship_keepup_ratio", "ttft_speedup", "speedup_async_qd8",
          "speedup_async_restore_qd8", "backup_compression_ratio",
          "updater_scaling_t4"}
BAND = {"latch_reduction_k16", "speedup_async_qd8",
        "speedup_async_restore_qd8", "speedup_parallel_t2",
        "speedup_parallel_t4", "speedup_restore_t2", "speedup_restore_t4",
        "ttft_speedup"}


def check(report, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "current.json"
        path.write_text(json.dumps(report))
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "bench_check.py"), "--current",
             str(path), *args], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def with_derived(base, **values):
    report = copy.deepcopy(base)
    for key, value in values.items():
        if value is None:
            del report["derived"][key]
        else:
            report["derived"][key] = value
    return report


class DeriveTest(unittest.TestCase):
    def test_committed_rows_give_committed_derived_block(self):
        derived = bench_registry.derive(bench_registry.load(),
                                        COMMITTED["benchmarks"])
        self.assertEqual(derived, COMMITTED["derived"])

    def test_ratio_naming_an_unproduced_key_is_refused_at_load(self):
        registry = json.loads(bench_registry.DEFAULT_PATH.read_text())
        series = next(s for s in bench_registry.all_series(registry)
                      if s.get("name") == "parallel_sweep_mb_per_s")
        series["ratios"][0]["den"] = "qd1"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "registry.json"
            path.write_text(json.dumps(registry))
            with self.assertRaisesRegex(ValueError, "speedup_parallel_t2"):
                bench_registry.load(path)


class GateTest(unittest.TestCase):
    def test_committed_file_fails_only_on_updater_scaling(self):
        rc, out, err = check(COMMITTED, "--baseline",
                             str(REPO / "BENCH_backup.json"))
        self.assertEqual(rc, 1)
        passed = set(re.findall(r"^bench_check: (\w+) [\d.]+x \(>=", out,
                                re.M))
        self.assertEqual(passed, FLOORS - {"updater_scaling_t4"})
        banded = set(re.findall(r"^bench_check: (\w+) current=.* ok$", out,
                                re.M))
        self.assertEqual(banded, BAND)
        failures = re.findall(r"FAIL: (\w+)", err)
        self.assertEqual(failures, ["updater_scaling_t4"])
        self.assertIn("1.699x < required 2.00x", err)

    def test_each_floor_fails_when_missing_or_low(self):
        self.assertFloorsGate(with_derived(COMMITTED, updater_scaling_t4=2.5),
                              FLOORS)

    def test_posix_profile_checks_only_its_floors(self):
        posix = {"schema": "llb-bench-backup/1",
                 "derived": {"speedup_posix_qd8": 1.2,
                             "speedup_posix_restore_qd8": 1.1}}
        self.assertFloorsGate(posix, posix["derived"], "--profile", "posix")

    def assertFloorsGate(self, green, keys, *args):
        """`green` passes; dropping any one of `keys`, or putting it below
        its floor, fails on that key alone."""
        self.assertEqual(check(green, *args)[0], 0)
        for key in sorted(keys):
            for value, text in ((None, "has no " + key),
                                (0.1, key + " 0.100x < required")):
                rc, _, err = check(with_derived(green, **{key: value}), *args)
                self.assertEqual(rc, 1, key)
                self.assertIn(text, err)
                self.assertEqual(len(re.findall("FAIL", err)), 1, err)


if __name__ == "__main__":
    unittest.main()
