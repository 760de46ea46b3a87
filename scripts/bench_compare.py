#!/usr/bin/env python3
"""Compare this run's BENCH_*.json against the previous run's artifact.

Artifacts expire; a trajectory does not. The nightly bench job downloads the
previous run's bench-json-* artifact into a directory, runs this script, and
publishes the emitted BENCH_compare.md in the job summary — so every nightly
shows its delta against the last one, and a silent throughput regression
fails the job instead of ageing out with the artifact.

    bench_compare.py <current_dir> <previous_dir>
                     [--threshold=0.25] [--out=BENCH_compare.md]

Regression rule: for every benchmark row present in BOTH runs of an
EXACTNESS-GATED bench (the sharded/remote/replica benches whose binaries
already fail on any wrong answer), a wall-time metric (time_unit "ms") more
than `threshold` above the previous value is a throughput regression and the
script exits 1. Non-time rows (round-trips, req/s, counts) and benches seen
on only one side are reported but never fail the run. A missing or empty
previous directory is the first run: report, exit 0.

Only the Python standard library is used.
"""

import glob
import json
import os
import sys

# Benches whose binaries gate on exactness — a time regression here is a real
# slowdown of a verified-correct path, so it fails the job.
EXACTNESS_GATED = {
    "BENCH_sharded.json",
    "BENCH_whynot_sharded.json",
    "BENCH_remote_shards.json",
    "BENCH_replica_failover.json",
    "BENCH_load.json",
}


def load_rows(directory):
    """{bench file name: {row name: (real_time, time_unit)}}."""
    rows = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)
        if name == "BENCH_compare.md":
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            print(f"bench_compare: skipping unreadable {path}: {error}",
                  file=sys.stderr)
            continue
        bench_rows = {}
        for row in doc.get("benchmarks", []):
            try:
                bench_rows[row["name"]] = (float(row["real_time"]),
                                           str(row.get("time_unit", "")))
            except (KeyError, TypeError, ValueError):
                continue
        rows[name] = bench_rows
    return rows


def main(argv):
    threshold = 0.25
    out_path = "BENCH_compare.md"
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        else:
            positional.append(arg)
    if len(positional) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    current_dir, previous_dir = positional

    current = load_rows(current_dir)
    previous = load_rows(previous_dir) if os.path.isdir(previous_dir) else {}

    lines = ["# Bench trajectory", ""]
    regressions = []
    if not previous:
        lines.append("No previous bench artifact found — this run seeds the "
                     "trajectory; nothing to compare against.")
    for bench in sorted(current):
        gated = bench in EXACTNESS_GATED
        prev_rows = previous.get(bench, {})
        lines.append(f"## {bench}" + ("" if gated else " (not gated)"))
        lines.append("")
        lines.append("| benchmark | previous | current | delta |")
        lines.append("|---|---:|---:|---:|")
        for name, (value, unit) in sorted(current[bench].items()):
            prev = prev_rows.get(name)
            if prev is None:
                lines.append(f"| {name} | — | {value:.3f} {unit} | new |")
                continue
            prev_value, _ = prev
            if prev_value > 0:
                delta = (value - prev_value) / prev_value
                delta_text = f"{delta * 100.0:+.1f}%"
            else:
                delta = 0.0
                delta_text = "n/a"
            regressed = (gated and unit == "ms" and prev_value > 0
                         and value > prev_value * (1.0 + threshold))
            marker = "  **REGRESSION**" if regressed else ""
            lines.append(f"| {name} | {prev_value:.3f} {unit} | "
                         f"{value:.3f} {unit} | {delta_text}{marker} |")
            if regressed:
                regressions.append(f"{bench}: {name} {prev_value:.3f} -> "
                                   f"{value:.3f} {unit} ({delta_text})")
        lines.append("")

    # Tail-latency rollup: p50/p99 rows (the failover bench's chaos latency
    # distribution) get their own table so the tail is visible at a glance
    # instead of buried per-bench. Same data as above — the "ms" regression
    # rule already gates these rows where their bench is exactness-gated.
    tail = []
    for bench in sorted(current):
        for name, (value, unit) in sorted(current[bench].items()):
            if "p99" not in name and "p50" not in name:
                continue
            prev = previous.get(bench, {}).get(name)
            tail.append((bench, name,
                         prev[0] if prev is not None else None, value, unit))
    if tail:
        lines.append("## Tail latency")
        lines.append("")
        lines.append("| bench | row | previous | current |")
        lines.append("|---|---|---:|---:|")
        for bench, name, prev_value, value, unit in tail:
            prev_text = (f"{prev_value:.3f} {unit}"
                         if prev_value is not None else "—")
            lines.append(f"| {bench} | {name} | {prev_text} | "
                         f"{value:.3f} {unit} |")
        lines.append("")

    # Round-trip rollup: the batching trajectory (Eqn. (3) sweep segments and
    # Eqn. (4) probe levels) in one table. These rows come from
    # exactness-gated benches whose binaries already fail on any divergence
    # or on round-trips their own counters do not predict, so here they are
    # reported, not re-gated.
    trips = []
    for bench in sorted(current):
        for name, (value, unit) in sorted(current[bench].items()):
            if unit != "roundtrips":
                continue
            prev = previous.get(bench, {}).get(name)
            trips.append((bench, name,
                          prev[0] if prev is not None else None, value))
    if trips:
        lines.append("## Round-trips per question")
        lines.append("")
        lines.append("| bench | row | previous | current |")
        lines.append("|---|---|---:|---:|")
        for bench, name, prev_value, value in trips:
            prev_text = (f"{prev_value:.1f}" if prev_value is not None
                         else "—")
            lines.append(f"| {bench} | {name} | {prev_text} | {value:.1f} |")
        lines.append("")

    if regressions:
        lines.append(f"## FAILED: {len(regressions)} regression(s) beyond "
                     f"{threshold * 100.0:.0f}%")
        lines.extend(f"- {r}" for r in regressions)
    elif previous:
        lines.append(f"All exactness-gated wall times within "
                     f"{threshold * 100.0:.0f}% of the previous run.")

    report = "\n".join(lines) + "\n"
    with open(out_path, "w") as f:
        f.write(report)
    print(report)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
