#!/usr/bin/env python3
"""Compare qcbench results of a parent commit and a change.

    python3 qcbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run: the stdout of `qcbench/run.py`
(its `workload metric value unit` lines). Runs are paired per workload in
file-name order, so name them so that the i-th parent run and the i-th
change run were taken back to back, alternating which side ran first.

For every (workload, end-to-end metric) it prints one row:

  improved    the change won at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range; needs at least 10 pairs
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beat every parent run
  unchanged   none of the above
"""
import argparse
import collections
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{workload: {metric: [value per run in file-name order]}}"""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            for line in f:
                fields = line.split()
                if len(fields) != 4:
                    continue
                try:
                    runs[fields[0]][fields[1]].append(float(fields[2]))
                except ValueError:
                    continue
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def classify(parent, change, better, bound):
    """Returns (verdict, pairs won, pairs lost, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr(parent):
        return "improved", wins, losses, len(pairs)
    if p_med and -gain > bound * abs(p_med):
        return "regressed", wins, losses, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and iqr(parent) / abs(p_med) > bound and not all_better:
        return "unresolved", wins, losses, len(pairs)
    return "unchanged", wins, losses, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':16} {'metric':16} {'parent med':>12} {'change med':>12} "
          f"{'parent IQR':>11} {'won':>7} {'lost':>5} {'verdict'}")
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        for metric in metrics:
            name = metric["name"]
            p, c = parent[workload].get(name, []), change[workload].get(name, [])
            if not p or not c:
                print(f"{workload:16} {name:16} {'missing':>12}")
                continue
            verdict, wins, losses, pairs = classify(p, c, metric["better"], metric["bound"])
            regressed |= verdict == "regressed"
            print(f"{workload:16} {name:16} {statistics.median(p):12.5g} {statistics.median(c):12.5g} "
                  f"{iqr(p):11.4g} {wins:3}/{pairs:<3} {losses:5} {verdict}")
    if any(len(v) < MIN_PAIRS for w in parent.values() for v in w.values()):
        print(f"note: fewer than {MIN_PAIRS} pairs on some workload; no gain can be claimed there",
              file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
