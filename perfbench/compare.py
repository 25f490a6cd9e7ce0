#!/usr/bin/env python3
"""Compares two sets of perfbench results, host by host.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines run.py appends to .bench_build/results/
results.jsonl. Results are compared only when both sets come from hosts
with the same nproc, ISA flags and compiler, and median effective
parallelism within 15% of each other: a number measured with other cores,
steal or CPU quota is not comparable. Single calibrations on one shared
host range over about ±15%, so the sets' medians are compared. Prints, per
workload and metric, the median of each side and the change as a share of
the base median.
"""

import json
import statistics
import sys

PARALLELISM_TOLERANCE = 0.15


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host_key(row):
    h = row["host"]
    return h["nproc"], tuple(h["isa"]), h["compiler"], h["flags"]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    hosts = {host_key(r) for r in base + change}
    if len(hosts) != 1:
        print(f"refusing: results come from {len(hosts)} different hosts",
              file=sys.stderr)
        return 1
    par = [statistics.median(r["host"]["effective_parallelism"] for r in rows)
           for rows in (base, change)]
    if abs(par[0] - par[1]) / max(par) > PARALLELISM_TOLERANCE:
        print(f"refusing: median effective parallelism {par[0]} vs {par[1]}",
              file=sys.stderr)
        return 1
    for workload in sorted({r["workload"] for r in base + change}):
        for trace in (0, 1):
            rows = {side: [r for r in data if r["workload"] == workload
                           and r["trace"] == trace and r["correct"]]
                    for side, data in (("base", base), ("change", change))}
            if not rows["base"] or not rows["change"]:
                continue
            print(f"{workload} (trace {trace}): {len(rows['base'])} vs "
                  f"{len(rows['change'])} runs")
            for name in rows["base"][0]["metrics"]:
                med = {side: statistics.median(
                    r["metrics"][name]["value"] for r in rs)
                    for side, rs in rows.items()}
                unit = rows["base"][0]["metrics"][name]["unit"]
                delta = ((med["change"] - med["base"]) / med["base"]
                         if med["base"] else float("nan"))
                print(f"  {name:34s} {med['base']:12.5g} {med['change']:12.5g}"
                      f" {unit:6s} {delta:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
