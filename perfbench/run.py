#!/usr/bin/env python3
"""Two-clock benchmark for the CubicleOS reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source (dune, release profile, build dir
.bench_build), runs one workload in its own process and prints every
metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end list with --trace 0 and its
per_layer list with --trace 1. Full results and the traced run's spans
and counts go to .bench_out/.

Workloads: sql_speedtest, http_static, tenant_churn (see BENCHMARK.json).
Bad arguments, a missing source tree, a failed build, a failed
self-check or a result that does not match BENCHMARK.json all exit
non-zero without printing a result. Tests: python3 perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sql_speedtest", "http_static", "tenant_churn")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def natural(flag, value):
    if not value.isascii() or not value.isdigit():
        fail(2, f"{flag} expects a non-negative integer, got {value!r}")
    return int(value)


def parse_args(argv):
    seen = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in FLAGS:
            fail(2, f"unknown argument {flag!r}")
        if i + 1 >= len(argv):
            fail(2, f"{flag} needs a value")
        if flag in seen:
            fail(2, f"{flag} given twice")
        seen[flag] = argv[i + 1]
        i += 2
    for flag in FLAGS:
        if flag not in seen:
            fail(2, f"{flag} is required")
    if seen["--workload"] not in WORKLOADS:
        fail(2, f"unknown workload {seen['--workload']!r} (one of {', '.join(WORKLOADS)})")
    natural("--seed", seen["--seed"])
    if natural("--seconds", seen["--seconds"]) < 1:
        fail(2, "--seconds must be at least 1")
    if seen["--trace"] not in ("0", "1"):
        fail(2, f"--trace expects 0 or 1, got {seen['--trace']!r}")
    return seen


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail(3, f"{ROOT} holds no CubicleOS source tree to build")
    dune = shutil.which("dune")
    if dune is None:
        fail(3, "dune is not on PATH")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [dune, "build", "--root", ROOT, "--build-dir", build_dir, "--profile", "release",
           "--cache", "disabled", "./perfbench/main.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail(3, "build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def main():
    args = parse_args(sys.argv[1:])
    exe = build()
    cmd = [exe] + [x for flag in FLAGS for x in (flag, args[flag])]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(1, f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(1, f"the run exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(1, "the run printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(1, f"malformed result keys {sorted(result)}")
    want = expected_metrics(args["--trace"])
    if want is not None and sorted(want) != sorted(result["metrics"]):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail(1, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
