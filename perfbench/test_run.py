#!/usr/bin/env python3
"""Tests for the benchmark driver's input handling.

    python3 perfbench/test_run.py

run.py must reject bad input with exit code 2 before building anything:
an unknown workload, an unknown flag, a missing or malformed seed. It
must also fail, without printing a result, when the source tree is
absent. When a built perfbench/main.exe is present, its own parser is
held to the same rules.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
GOOD = ["--workload", "http_static", "--seed", "1", "--seconds", "1", "--trace", "0"]


def with_flag(flag, value):
    args = list(GOOD)
    args[args.index(flag) + 1] = value
    return args


def without_flag(flag):
    args = list(GOOD)
    i = args.index(flag)
    return args[:i] + args[i + 2:]


BAD = {
    "unknown workload": with_flag("--workload", "nope"),
    "unknown flag": GOOD + ["--verbose", "1"],
    "positional argument": GOOD + ["extra"],
    "flag without value": GOOD + ["--seed"],
    "duplicate flag": GOOD + ["--seed", "2"],
    "missing seed": without_flag("--seed"),
    "negative seed": with_flag("--seed", "-1"),
    "non-numeric seed": with_flag("--seed", "abc"),
    "fractional seed": with_flag("--seed", "1.5"),
    "empty seed": with_flag("--seed", ""),
    "zero seconds": with_flag("--seconds", "0"),
    "bad trace": with_flag("--trace", "2"),
    "abbreviated flag": ["--work", "http_static"] + GOOD[2:],
}


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=60)


class DriverRejectsBadInput(unittest.TestCase):
    def test_bad_arguments(self):
        for name, args in BAD.items():
            with self.subTest(name):
                p = run([sys.executable, RUN] + args)
                self.assertEqual(p.returncode, 2, p.stderr)
                self.assertEqual(p.stdout, "")
                self.assertIn("perfbench:", p.stderr)

    def test_no_source_tree(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            p = run([sys.executable, os.path.join("perfbench", "run.py")] + GOOD, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")

    def test_built_executable_rejects_bad_arguments(self):
        build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        exe = os.path.join(ROOT, build_dir, "default", "perfbench", "main.exe")
        if not os.path.exists(exe):
            self.skipTest("perfbench/main.exe is not built")
        for name, args in BAD.items():
            with self.subTest(name):
                p = run([exe] + args)
                self.assertEqual(p.returncode, 2, p.stderr)
                self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
