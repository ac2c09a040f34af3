#!/usr/bin/env python3
"""Tests of bench/trajectory.py's row schema and compare, on made-up
rows in a temporary file, and of ab's verdict on made-up samples.
Run: python3 bench/test_trajectory.py"""

import copy
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trajectory  # noqa: E402

ROW = {
    "commit": "0123456789abcdef0123456789abcdef01234567",
    "date": "2026-01-01T00:00:00+00:00",
    "seed": 1,
    "seconds": 25,
    "workloads": {
        "http_static": {
            "end_to_end": {"setup_s": 0.02, "ops_per_s": 8000.0, "host_us_mean": 120.0,
                           "host_us_p99": 650.0, "peak_rss_mb": 82.5},
            "probe_speed": 0.85,
            "self_us_per_op": {"LWIP": 150.0, "ALLOC": 70.0},
            "alloc_words_per_op": 20000.0,
            "sim_cycles_per_op": 1000000.0,
        }
    },
    "hw": {"window_churn": {"wall_ns": 7000000.0, "cycles": 2400000}},
}


def second(**changes):
    row = copy.deepcopy(ROW)
    row["commit"] = "fedcba9876543210fedcba9876543210fedcba98"
    for path, value in changes.items():
        *keys, last = path.split("__")
        d = row
        for k in keys:
            d = d[k]
        d[last] = value
    return row


class Trajectory(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.saved = trajectory.FILE
        trajectory.FILE = os.path.join(self.tmp.name, "BENCH_trajectory.json")

    def tearDown(self):
        trajectory.FILE = self.saved
        self.tmp.cleanup()

    def write(self, rows):
        with open(trajectory.FILE, "w") as f:
            json.dump(rows, f)

    def compare(self, a, b):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = trajectory.compare(a, b)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue()

    def test_committed_file_is_valid_and_head_has_no_moves(self):
        trajectory.FILE = self.saved
        code, out = self.compare("HEAD", "HEAD")
        self.assertEqual(code, 0, out)
        self.assertIn("0 moves", out)

    def test_moves_within_bounds_are_not_flagged(self):
        self.write([ROW, second(workloads__http_static__end_to_end__ops_per_s=9000.0)])
        code, out = self.compare(ROW["commit"][:7], "HEAD")
        self.assertEqual(code, 0, out)

    def test_a_move_beyond_a_bound_is_flagged_either_way(self):
        for ops in (5000.0, 11000.0):
            self.write([ROW, second(workloads__http_static__end_to_end__ops_per_s=ops)])
            code, out = self.compare(ROW["commit"], "HEAD")
            self.assertEqual(code, 1, out)
            self.assertIn("http_static ops_per_s", out)

    def test_changed_cycles_are_flagged(self):
        self.write([ROW, second(hw__window_churn__cycles=2400001)])
        code, out = self.compare("0123", "fedc")
        self.assertEqual(code, 1, out)
        self.assertIn("hw window_churn cycles", out)

    def test_malformed_rows_are_rejected(self):
        for bad in (second(commit="HEAD"), second(date="yesterday"),
                    second(workloads__http_static__end_to_end={"ops_per_s": 1.0}),
                    second(hw__window_churn={"wall_ns": "fast", "cycles": 1})):
            self.write([ROW, bad])
            code, _ = self.compare("HEAD", "HEAD")
            self.assertEqual(code, 1)

    def test_unknown_commit_is_rejected(self):
        self.write([ROW])
        code, _ = self.compare("beef", "HEAD")
        self.assertEqual(code, 1)


class Ab(unittest.TestCase):
    A = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]

    def test_pairs_alternate_abba(self):
        self.assertEqual(list(trajectory.pair_order(3)),
                         [(0, "A"), (0, "B"), (1, "B"), (1, "A"), (2, "A"), (2, "B")])

    def test_a_clear_gain_resolves(self):
        b = [x * 1.2 for x in self.A]
        v = trajectory.verdict(self.A, b, "higher")
        self.assertEqual((v["wins"], v["n"], v["verdict"]), (10, 10, "resolved better"))
        self.assertAlmostEqual(v["ratio"], 1.2)
        self.assertAlmostEqual(v["iqr"], 1.75)

    def test_lower_is_better_metrics_resolve_the_other_way(self):
        b = [x * 0.8 for x in self.A]
        verdict = trajectory.verdict
        self.assertEqual(verdict(self.A, b, "lower")["verdict"], "resolved better")
        self.assertEqual(verdict(self.A, b, "higher")["verdict"], "resolved worse")

    def test_eight_wins_in_ten_do_not_resolve(self):
        b = [x * 1.2 for x in self.A]
        b[3], b[7] = self.A[3] - 1, self.A[7]  # one loss and one tie
        v = trajectory.verdict(self.A, b, "higher")
        self.assertEqual((v["wins"], v["verdict"]), (8, "unresolved"))

    def test_a_gap_inside_the_parents_iqr_does_not_resolve(self):
        b = [x + 1.0 for x in self.A]  # wins every pair, but by less than A's IQR
        v = trajectory.verdict(self.A, b, "higher")
        self.assertEqual((v["wins"], v["verdict"]), (10, "unresolved"))
        self.assertLess(v["gap"], v["iqr"])

    def test_nine_wins_in_ten_resolve(self):
        b = [x * 1.2 for x in self.A]
        b[0] = self.A[0]
        v = trajectory.verdict(self.A, b, "higher")
        self.assertEqual((v["wins"], v["verdict"]), (9, "resolved better"))

    def test_unpaired_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            trajectory.verdict([1.0, 2.0], [1.0], "higher")


if __name__ == "__main__":
    unittest.main()
