#!/usr/bin/env python3
"""The committed two-clock performance trajectory.

    python3 bench/trajectory.py record [CHECKOUT...]
    python3 bench/trajectory.py compare A B
    python3 bench/trajectory.py ab A B [--pairs N] [--seconds S] [--workload W] [--seed K]

`record` measures each CHECKOUT (a git work tree of this repository;
default: the one holding this script) and appends one row per
CHECKOUT, in order, to BENCH_trajectory.json beside this script's
repository root. For every BENCHMARK.json workload it runs each
CHECKOUT's own perfbench/run.py at seed 1 and BENCHMARK.json's run
length three times untraced and once traced, then each CHECKOUT's
`bench/main.exe hw` eleven times (its scenarios last milliseconds, and
one run's wall-clock can be off by half). The checkouts take turns run by run,
and the order flips each round, so host-speed drift falls on all of
them alike. Nothing is written under a CHECKOUT except the build and
output directories perfbench and dune already use (.bench_build,
.bench_out).

A row holds the measured commit and the recording date; per workload,
the median of each of the five end-to-end metrics over the untraced
runs, the median machine-speed probe reading behind them, and from the
traced run each cubicle's self time, the host words allocated per
operation and the simulated cycles per operation; per `hw` scenario,
the median wall-clock (TLB on) and the simulated cycles. Rows are
indicative only: a gain is claimed from ten alternating pairs, not
from two rows.

`compare A B` prints B/A for every metric both rows hold. A and B are
commit prefixes, or HEAD for the newest row. An end-to-end metric that
moved by more than its BENCHMARK.json bound, in either direction, and
any simulated cycle count that differs are flagged; it exits 1 if
anything is flagged. Every command first checks the whole file against
the row schema and exits 1 on a malformed row.

`ab A B` is the verdict on a perf claim. A and B are checkouts, A the
parent. For each workload (all of BENCHMARK.json's, or W) it runs N
pairs of untraced perfbench runs (default 10 pairs of BENCHMARK.json's
run length, seed 1), A then B in even pairs and B then A in odd ones
(ABBA), so drift in host speed falls on both alike. Per end-to-end
metric it prints the median B/A ratio, how many pairs B won (k/N), the
gap between the medians of B's and A's runs, and the IQR of A's runs.
The verdict is "resolved better" (or "worse") only when B wins (or
loses) at least 9 pairs in 10 and the gap exceeds A's IQR; otherwise
"unresolved". Beside peak_rss_mb it prints the .text and .data section
sizes of each checkout's perfbench/main.exe, so that an RSS move that
comes from code size shows. It reads and writes no row.
"""

import argparse
import datetime
import json
import os
import statistics
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FILE = os.path.join(ROOT, "BENCH_trajectory.json")
SEED = 1
UNTRACED_RUNS = 3  # perfbench runs per workload and checkout
HW_RUNS = 11


def fail(msg):
    print(f"trajectory: {msg}", file=sys.stderr)
    sys.exit(1)


def benchmark_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


# --- schema ---------------------------------------------------------------

def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def num_map(v):
    return isinstance(v, dict) and all(isinstance(k, str) and is_num(x) for k, x in v.items())


def row_errors(row, end_to_end):
    """The ways [row] breaks the schema, [] for a valid row."""
    if not isinstance(row, dict):
        return ["not an object"]
    errs = []
    want = {"commit", "date", "seed", "seconds", "workloads", "hw"}
    if set(row) != want:
        errs.append(f"keys {sorted(row)} are not {sorted(want)}")
        return errs
    if not (isinstance(row["commit"], str) and len(row["commit"]) == 40
            and all(c in "0123456789abcdef" for c in row["commit"])):
        errs.append("commit is not a full hex sha")
    try:
        datetime.datetime.fromisoformat(row["date"])
    except (TypeError, ValueError):
        errs.append("date is not ISO 8601")
    if not (is_num(row["seed"]) and is_num(row["seconds"])):
        errs.append("seed and seconds must be numbers")
    if not (isinstance(row["workloads"], dict) and row["workloads"]):
        errs.append("workloads must be a non-empty object")
    else:
        for name, w in row["workloads"].items():
            keys = {"end_to_end", "probe_speed", "self_us_per_op", "alloc_words_per_op",
                    "sim_cycles_per_op"}
            if not isinstance(w, dict) or set(w) != keys:
                errs.append(f"workload {name}: keys must be {sorted(keys)}")
                continue
            if not num_map(w["end_to_end"]) or sorted(w["end_to_end"]) != sorted(end_to_end):
                errs.append(f"workload {name}: end_to_end must hold {sorted(end_to_end)}")
            if not num_map(w["self_us_per_op"]) or not w["self_us_per_op"]:
                errs.append(f"workload {name}: self_us_per_op must map cubicles to numbers")
            for k in ("probe_speed", "alloc_words_per_op", "sim_cycles_per_op"):
                if not is_num(w[k]):
                    errs.append(f"workload {name}: {k} must be a number")
    if not (isinstance(row["hw"], dict) and row["hw"]):
        errs.append("hw must be a non-empty object")
    else:
        for name, s in row["hw"].items():
            if not (num_map(s) and sorted(s) == ["cycles", "wall_ns"]):
                errs.append(f"hw {name}: must hold numbers wall_ns and cycles")
    return errs


def load():
    end_to_end = [m["name"] for m in benchmark_spec(ROOT)["end_to_end"]]
    if not os.path.exists(FILE):
        return []
    with open(FILE) as f:
        try:
            rows = json.load(f)
        except ValueError as e:
            fail(f"{FILE} is not JSON: {e}")
    if not isinstance(rows, list):
        fail(f"{FILE} must hold a list of rows")
    for i, row in enumerate(rows):
        errs = row_errors(row, end_to_end)
        if errs:
            fail(f"row {i}: " + "; ".join(errs))
    return rows


# --- record ---------------------------------------------------------------

def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return proc.stdout


def perfbench(checkout, workload, seconds, trace, seed=SEED):
    out = run([sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
              checkout)
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if result["correct"] is not True:
        fail(f"{workload}: the run is not correct")
    with open(os.path.join(checkout, ".bench_out",
                           f"{workload}-seed{seed}-trace{trace}.json")) as f:
        details = json.load(f)
    return {k: v["value"] for k, v in result["metrics"].items()}, details


def hw_exe(checkout):
    run(["dune", "build", "--root", checkout, "--build-dir",
         os.path.join(checkout, ".bench_build"), "--profile", "release", "./bench/main.exe"],
        checkout)
    return os.path.join(checkout, ".bench_build", "default", "bench", "main.exe")


def hw_run(exe):
    with tempfile.TemporaryDirectory() as tmp:
        run([exe, "hw", "--out", "hw.json"], tmp)
        with open(os.path.join(tmp, "hw.json")) as f:
            return json.load(f)


def turns(checkouts, rounds):
    """[rounds] rounds over [checkouts], the order flipped every round."""
    for i in range(rounds):
        yield from (checkouts if i % 2 == 0 else checkouts[::-1])


def record(checkouts):
    rows = load()
    checkouts = [os.path.abspath(c) for c in checkouts]
    spec = benchmark_spec(ROOT)
    seconds = spec["run_seconds"]
    workloads = {c: {} for c in checkouts}
    for w in (x["name"] for x in spec["workloads"]):
        untraced = {c: [] for c in checkouts}
        for c in turns(checkouts, UNTRACED_RUNS):
            untraced[c].append(perfbench(c, w, seconds, 0))
        for c in checkouts:
            traced, _ = perfbench(c, w, seconds, 1)
            workloads[c][w] = {
                "end_to_end": {
                    m["name"]: statistics.median(r[m["name"]] for r, _ in untraced[c])
                    for m in spec["end_to_end"]
                },
                "probe_speed": statistics.median(
                    x["speed"] for _, details in untraced[c] for x in details["windows"]),
                "self_us_per_op": {
                    k.split(".")[-2]: v for k, v in traced.items()
                    if k.endswith(".self_us_per_op")
                },
                "alloc_words_per_op": traced["host.alloc_words_per_op"],
                "sim_cycles_per_op": traced["sim_cycles_per_op"],
            }
    exes = {c: hw_exe(c) for c in checkouts}
    hw_runs = {c: [] for c in checkouts}
    for c in turns(checkouts, HW_RUNS):
        hw_runs[c].append(hw_run(exes[c]))
    for c in checkouts:
        names = [k[: -len(".wall_ns")] for k in hw_runs[c][0] if k.endswith(".wall_ns")]
        row = {
            "commit": run(["git", "rev-parse", "HEAD"], c).strip(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "seed": SEED,
            "seconds": seconds,
            "workloads": workloads[c],
            "hw": {
                n: {"wall_ns": statistics.median(r[n + ".wall_ns"] for r in hw_runs[c]),
                    "cycles": hw_runs[c][0][n + ".simulated_cycles"]}
                for n in names
            },
        }
        errs = row_errors(row, [m["name"] for m in spec["end_to_end"]])
        if errs:
            fail(f"the new row of {c} is malformed: " + "; ".join(errs))
        rows.append(row)
        print(f"appending the row of {row['commit'][:7]}")
    with open(FILE, "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")


# --- compare --------------------------------------------------------------

def pick(rows, ref):
    if not rows:
        fail(f"{FILE} holds no rows")
    if ref == "HEAD":
        return rows[-1]
    found = [r for r in rows if r["commit"].startswith(ref)]
    if not ref or not found:
        fail(f"no row for commit {ref!r}")
    if len({r["commit"] for r in found}) > 1:
        fail(f"commit prefix {ref!r} is ambiguous")
    return found[-1]


def ratio(a, b):
    return b / a if a else (1.0 if b == a else float("inf"))


def compare(ref_a, ref_b):
    rows = load()
    a, b = pick(rows, ref_a), pick(rows, ref_b)
    bounds = {m["name"]: m for m in benchmark_spec(ROOT)["end_to_end"]}
    moves = []
    print(f"B/A with A = {a['commit'][:7]} ({a['date']}), B = {b['commit'][:7]} ({b['date']})")

    def line(name, va, vb, note=""):
        print(f"  {name:44s} {va:14.4g} {vb:14.4g} {ratio(va, vb):8.3f}{note}")

    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        print(w)
        for m, va in wa["end_to_end"].items():
            vb = wb["end_to_end"][m]
            r = ratio(va, vb)
            worse = r - 1 if bounds[m]["better"] == "lower" else 1 - r
            note = ""
            if abs(worse) > bounds[m]["bound"]:
                note = f"  MOVED {'worse' if worse > 0 else 'better'} beyond ±{bounds[m]['bound']}"
                moves.append(f"{w} {m}")
            line(m, va, vb, note)
        for k in ("probe_speed", "alloc_words_per_op"):
            line(k, wa[k], wb[k])
        note = ""
        if wa["sim_cycles_per_op"] != wb["sim_cycles_per_op"]:
            note = "  CYCLES DIFFER"
            moves.append(f"{w} sim_cycles_per_op")
        line("sim_cycles_per_op", wa["sim_cycles_per_op"], wb["sim_cycles_per_op"], note)
        for c in sorted(set(wa["self_us_per_op"]) & set(wb["self_us_per_op"])):
            line(f"self_us_per_op {c}", wa["self_us_per_op"][c], wb["self_us_per_op"][c])
    print("hw")
    for s in [s for s in a["hw"] if s in b["hw"]]:
        line(f"{s} wall_ns", a["hw"][s]["wall_ns"], b["hw"][s]["wall_ns"])
        note = ""
        if a["hw"][s]["cycles"] != b["hw"][s]["cycles"]:
            note = "  CYCLES DIFFER"
            moves.append(f"hw {s} cycles")
        line(f"{s} cycles", a["hw"][s]["cycles"], b["hw"][s]["cycles"], note)
    print(f"{len(moves)} moves" + (": " + ", ".join(moves) if moves else ""))
    return 1 if moves else 0


# --- code size --------------------------------------------------------------

SECTIONS = (".text", ".data")


def section_sizes(path):
    """The sizes in bytes of the .text and .data sections of the ELF
    file at [path], read from its section headers (32- or 64-bit, either
    byte order). Raises ValueError if the file is not ELF or lacks one."""
    with open(path, "rb") as f:
        elf = f.read()
    if elf[:4] != b"\x7fELF" or elf[4] not in (1, 2) or elf[5] not in (1, 2):
        raise ValueError(f"{path}: not an ELF file")
    wide = elf[4] == 2
    order = "<" if elf[5] == 1 else ">"
    # e_shoff, then e_shentsize, e_shnum, e_shstrndx
    shoff = struct.unpack_from(order + ("Q" if wide else "I"), elf, 0x28 if wide else 0x20)[0]
    entsize, count, strndx = struct.unpack_from(order + "HHH", elf, 0x3A if wide else 0x2E)
    # per header: sh_name, and sh_offset and sh_size
    layout = order + ("I20xQQ" if wide else "I12xII")

    def header(i):
        return struct.unpack_from(layout, elf, shoff + i * entsize)

    strtab = header(strndx)[1]
    sizes = {}
    for i in range(count):
        name_at, _, size = header(i)
        start = strtab + name_at
        name = elf[start:elf.index(b"\0", start)].decode()
        if name in SECTIONS:
            sizes[name] = size
    missing = [n for n in SECTIONS if n not in sizes]
    if missing:
        raise ValueError(f"{path}: no section {', '.join(missing)}")
    return sizes


def perfbench_exe(checkout):
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(checkout, build, "default", "perfbench", "main.exe")


# --- ab -------------------------------------------------------------------

WIN_SHARE = 0.9  # a resolved move wins (or loses) at least 9 pairs in 10


def pair_order(n):
    """The runs of [n] ABBA pairs: A first in even pairs, B first in odd."""
    for i in range(n):
        yield from ((i, "A"), (i, "B")) if i % 2 == 0 else ((i, "B"), (i, "A"))


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def verdict(a, b, better):
    """The verdict on one metric from paired samples: [a[i]] and [b[i]]
    are pair i's runs of A and B; [better] is "higher" or "lower"."""
    if len(a) != len(b) or not a:
        raise ValueError("verdict needs the same number (> 0) of A and B runs")
    sign = 1 if better == "higher" else -1
    n = len(a)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    gap = statistics.median(b) - statistics.median(a)
    spread = iqr(a)
    if wins >= WIN_SHARE * n and sign * gap > spread:
        word = "resolved better"
    elif losses >= WIN_SHARE * n and -sign * gap > spread:
        word = "resolved worse"
    else:
        word = "unresolved"
    return {"ratio": statistics.median(ratio(x, y) for x, y in zip(a, b)), "wins": wins,
            "n": n, "gap": gap, "iqr": spread, "verdict": word}


def ab(a, b, pairs, seconds, workloads, seed):
    spec = benchmark_spec(ROOT)
    metrics = spec["end_to_end"]
    checkouts = {"A": os.path.abspath(a), "B": os.path.abspath(b)}
    print(f"B/A with A = {checkouts['A']}, B = {checkouts['B']}: {pairs} ABBA pairs "
          f"of {seconds} s runs, seed {seed}")
    for w in workloads:
        runs = {"A": [None] * pairs, "B": [None] * pairs}
        for i, side in pair_order(pairs):
            runs[side][i], _ = perfbench(checkouts[side], w, seconds, 0, seed)
            print(f"  {w} pair {i + 1}/{pairs} {side}: "
                  f"{runs[side][i]['ops_per_s']:.4g} ops/s", file=sys.stderr)
        print(w)
        print(f"  {'metric':14s} {'A median':>11s} {'B median':>11s} {'B/A':>7s} "
              f"{'wins':>6s} {'gap':>10s} {'A IQR':>10s}  verdict")
        for m in metrics:
            name = m["name"]
            xa = [r[name] for r in runs["A"]]
            xb = [r[name] for r in runs["B"]]
            v = verdict(xa, xb, m["better"])
            ma, mb = statistics.median(xa), statistics.median(xb)
            print(f"  {name:14s} {ma:11.4g} {mb:11.4g} {v['ratio']:7.3f} "
                  f"{v['wins']:>3d}/{v['n']:<2d} {v['gap']:10.4g} {v['iqr']:10.4g}  "
                  f"{v['verdict']}")
    sizes = {side: section_sizes(perfbench_exe(c)) for side, c in checkouts.items()}
    print("perfbench/main.exe")
    for sec in SECTIONS:
        sa, sb = sizes["A"][sec], sizes["B"][sec]
        print(f"  {sec + ' bytes':14s} {sa:11d} {sb:11d} {ratio(sa, sb):7.3f}")
    return 0


def ab_main(argv):
    p = argparse.ArgumentParser(prog="trajectory.py ab")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=SEED)
    args = p.parse_args(argv)
    spec = benchmark_spec(ROOT)
    names = [x["name"] for x in spec["workloads"]]
    for w in args.workload or []:
        if w not in names:
            p.error(f"unknown workload {w!r}; BENCHMARK.json has {', '.join(names)}")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.seconds is not None and args.seconds < 1:
        p.error("--seconds must be at least 1")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    return ab(args.a, args.b, args.pairs, seconds, args.workload or names, args.seed)


def main(argv):
    if argv and argv[0] == "record":
        record(argv[1:] or [ROOT])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if argv and argv[0] == "ab":
        return ab_main(argv[1:])
    print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
