#!/usr/bin/env python3
"""Compares two sets of servebench runs: the parent commit and a change.

    python3 servebench/compare.py BASE_DIR CHANGE_DIR

Each directory holds one file per run: the stdout of
`python3 servebench/run.py ...`. The workload and seed come from the run's
"workload=... seed=..." line, the metrics from its last line. Runs of the
two sets are paired by seed.

For every workload and end-to-end metric the table gives each side's median
and quartiles (statistics.quantiles, n=4) and a verdict, following the
choosing-metrics rules for a small sandbox:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  unresolved  the parent's own spread (q3 - q1, as a share of its median)
              is wider than the metric's bound, unless every run of the
              change reads better than every run of the parent;
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json;
  same        none of the above.

The unguarded diagnostics every run prints (latency percentiles, host
steal) and the per-layer metrics of traced runs are listed with medians
only: they have no bound. Exit status is 1 when any metric is worse, else 0.
"""

import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(directory):
    """{workload: {seed: metrics}}; metrics is {name: value}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
        if not lines:
            continue
        header = next((l for l in lines if l.startswith("workload=")), None)
        if header is None:
            continue
        match = re.match(r"workload=(\S+) seed=(\d+)", header)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print("skipping %s: last line is not a result" % path,
                  file=sys.stderr)
            continue
        if not match or not result.get("correct", False):
            print("skipping %s: run was not correct" % path, file=sys.stderr)
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for line in lines:
            if line.startswith("diagnostics: "):
                diagnostics = json.loads(line[len("diagnostics: "):])
                metrics.update({"diag." + k: v["value"]
                                for k, v in diagnostics.items()})
        # A traced and an untraced run of one seed add up to one entry.
        runs.setdefault(match.group(1), {}).setdefault(
            int(match.group(2)), {}).update(metrics)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """base/change: {seed: value}. Returns (verdict, wins, pairs, delta)."""
    b = list(base.values())
    c = list(change.values())
    b_q1, b_med, b_q3 = quartiles(b)
    _, c_med, _ = quartiles(c)
    sign = 1.0 if better == "lower" else -1.0  # > 0 means the change is worse.

    def beats(x, y):  # x reads better than y
        return sign * (x - y) < 0

    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if beats(change[s], base[s]))
    pairs = len(seeds)
    delta = (c_med - b_med) / b_med if b_med else 0.0
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    all_better = all(beats(x, y) for x in c for y in b)
    if (pairs > 0 and wins >= 0.9 * pairs and beats(c_med, b_med)
            and abs(c_med - b_med) > (b_q3 - b_q1)):
        return "better", wins, pairs, delta
    if spread > bound and not all_better:
        return "unresolved", wins, pairs, delta
    if sign * delta > bound:
        return "worse", wins, pairs, delta
    return "same", wins, pairs, delta


def main():
    parser = argparse.ArgumentParser(description="compare two run sets")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    base = load_runs(args.base)
    change = load_runs(args.change)

    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = base.get(workload, {})
        c_runs = change.get(workload, {})
        if not b_runs or not c_runs:
            print("%s: no runs on %s side\n" % (
                workload, "base" if not b_runs else "change"))
            continue
        print("%s  (%d base runs, %d change runs)" % (
            workload, len(b_runs), len(c_runs)))
        print("  %-16s %-28s %-28s %8s %6s %6s  %s" % (
            "metric", "base median [q1, q3]", "change median [q1, q3]",
            "delta", "bound", "wins", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: m[name] for s, m in b_runs.items() if name in m}
            c = {s: m[name] for s, m in c_runs.items() if name in m}
            if not b or not c:
                continue
            v, wins, pairs, delta = verdict(b, c, metric["better"],
                                            metric["bound"])
            any_worse |= v == "worse"
            bq = quartiles(list(b.values()))
            cq = quartiles(list(c.values()))
            print("  %-16s %-28s %-28s %+7.1f%% %6.2f %6s  %s" % (
                name,
                "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                100 * delta, metric["bound"], "%d/%d" % (wins, pairs), v))
        diag_names = sorted({k for m in b_runs.values() for k in m
                             if k.startswith("diag.")})
        for title, names in (
                ("unguarded diagnostics", diag_names),
                ("per-layer", [m["name"] for m in spec["per_layer"]])):
            shown = False
            for name in names:
                b = [m[name] for m in b_runs.values() if name in m]
                c = [m[name] for m in c_runs.values() if name in m]
                if not b or not c:
                    continue
                if not shown:
                    print("  %s, medians (no bound):" % title)
                    shown = True
                print("    %-34s %14.4g -> %-14.4g" % (
                    name, statistics.median(b), statistics.median(c)))
        print()
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
