#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by ``run.py`` (``.bench_out/`` after a
series of runs; copy it aside between commits).  For every workload, pass
and metric the script prints the base and new medians over the seeds, the
change, and the metric's bound from ``BENCHMARK.json``.  It flags, before
any number, every environment field (core count, rayon workers, SIMD
level, CPU model) that differs between the records: such a comparison
measures the machines, not the code.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ("nproc", "rayon_workers", "simd", "cpu_model")


def load(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json") and not name.startswith("spans-"):
            with open(os.path.join(directory, name)) as fh:
                records.append(json.load(fh))
    return records


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    for key in ENV_KEYS:
        seen = {json.dumps(r["env"].get(key)) for r in base + new}
        if len(seen) > 1:
            print(f"WARNING: environments differ in {key}: {', '.join(sorted(seen))}")

    groups = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            for name, m in r["metrics"].items():
                if m["value"] is not None:
                    key = (r["workload"], r["trace"], name)
                    groups.setdefault(key, {"base": [], "new": []})[side].append(m["value"])
    print(f"{'workload':<20} {'metric':<32} {'base':>14} {'new':>14} {'change':>8}  bound")
    for (workload, trace, name), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        b, n = statistics.median(sides["base"]), statistics.median(sides["new"])
        change = f"{100 * (n - b) / b:+.1f}%" if b else "n/a"
        bound = spec.get(name, {}).get("bound") if not trace else None
        print(f"{workload:<20} {name:<32} {b:>14.6g} {n:>14.6g} {change:>8}  "
              f"{bound if bound is not None else ''}")


if __name__ == "__main__":
    main()
