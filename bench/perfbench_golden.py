#!/usr/bin/env python3
"""Pin perfbench's simulated metrics.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 bench/perfbench_golden.py check W
    ... | tail -n 1 | python3 bench/perfbench_golden.py write W

Reads the result line of one traced perfbench run on standard input.
`check` compares the workload's simulated per-layer metrics with
bench/golden_perfbench.json and exits 1 on any difference, or on a
pinned metric the run no longer reports. `write` records them,
replacing that workload's entries and keeping the others.

The pinned metrics are the deterministic ones: the same at seed 1
whatever the run length, because they are computed over the traced
run's fixed window of simulated operations. Host-time metrics, and
httpd.bytes_per_op and core.builder.teardown_per_spawn (which average
over every operation of the run, so depend on its length), are not
pinned. Keys in the file are "<workload>.<metric>".
"""

import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_perfbench.json")
WORKLOADS = ("sql_speedtest", "http_static", "tenant_churn")
EXACT = (
    "sim_cycles_per_op",
    "sim_cycles_p99",
    "hw.wrpkru_per_op",
    "core.window.ops_per_op",
    "libos.vfs.calls_per_op",
    "telemetry.events_per_op",
)
PREFIXES = ("sim.", "hw.tlb.", "hw.keymux.", "core.trampoline.", "core.monitor.", "minidb.pager.")


def pinned(metric):
    return metric in EXACT or metric.startswith(PREFIXES)


def fail(msg):
    print(f"perfbench golden: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("check", "write") or sys.argv[2] not in WORKLOADS:
        print(f"usage: {sys.argv[0]} check|write {'|'.join(WORKLOADS)} < result-line",
              file=sys.stderr)
        sys.exit(2)
    mode, workload = sys.argv[1:]
    try:
        result = json.loads(sys.stdin.read())
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        fail("standard input is not a perfbench result line")
    if result.get("correct") is not True:
        fail(f"{workload}: the run is not correct")
    with open(GOLDEN) as f:
        golden = json.load(f)
    prefix = workload + "."
    if mode == "write":
        kept = {k: v for k, v in golden.items() if not k.startswith(prefix)}
        kept.update({prefix + m: v for m, v in metrics.items() if pinned(m)})
        order = {w: i for i, w in enumerate(WORKLOADS)}
        ordered = sorted(kept.items(), key=lambda kv: order[kv[0].split(".", 1)[0]])
        with open(GOLDEN, "w") as f:
            json.dump(dict(ordered), f, indent=2)
            f.write("\n")
        print(f"wrote {sum(1 for m in metrics if pinned(m))} {workload} metrics to {GOLDEN}")
        return
    want = {k[len(prefix):]: v for k, v in golden.items() if k.startswith(prefix)}
    if not want:
        fail(f"{GOLDEN} pins no {workload} metric")
    bad = [
        f"  {m}: golden {v!r}, run {metrics.get(m, 'missing')!r}"
        for m, v in want.items()
        if metrics.get(m) != v
    ]
    if bad:
        fail(f"{workload}: {len(bad)} simulated metric(s) drifted\n" + "\n".join(bad))
    print(f"golden check OK: {len(want)} {workload} simulated metrics match")


if __name__ == "__main__":
    main()
