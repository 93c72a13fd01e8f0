#!/usr/bin/env python3
"""Summarise the runs recorded in bench/out: per workload and trace mode,
the median, quartiles and spread ((q3 - q1) / median) of every metric.

    rm -rf bench/out
    for w in mc_abstain catch_up verify_dynamic; do
      for s in $(seq 11 20); do
        python3 bench/run.py --workload $w --seed $s --seconds 30 --trace 0
      done
      python3 bench/run.py --workload $w --seed 11 --seconds 30 --trace 1
    done
    python3 bench/figures.py
"""

import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main():
    runs = {}
    for f in sorted(OUT.glob("*.json")):
        d = json.loads(f.read_text())
        runs.setdefault((d["workload"], d["trace"]), []).append(d["result"])
    for (workload, trace), results in sorted(runs.items()):
        print(f"\n{workload}, trace {trace}: {len(results)} runs, "
              f"{sum(r['attempted'] for r in results)} operations, "
              f"{sum(r['failed'] for r in results)} failed, "
              f"{sum(not r['correct'] for r in results)} with failed checks\n")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("| --- | --- | ---: | ---: | ---: | ---: |")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")


if __name__ == "__main__":
    main()
