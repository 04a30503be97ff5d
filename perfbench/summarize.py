#!/usr/bin/env python3
"""Median and quartiles per workload and metric over recorded runs.

    python3 perfbench/summarize.py [--records PATH] [--last N] [--trace 0|1]

Reads the records ``run.py`` appends to ``.perfbench_work/records.jsonl``
(run it from the checkout root) and prints, for each workload and metric,
the number of runs, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) as a
share of the median.  ``host.calib_ms`` is reported beside them, so a
shift that every metric shares with the calibration loop reads as a host
window rather than a code change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--records",
                    default=os.path.join(".perfbench_work", "records.jsonl"))
    ap.add_argument("--last", type=int, default=0,
                    help="only the last N runs of each workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    runs = defaultdict(list)
    with open(args.records) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] == args.trace:
                runs[rec["workload"]].append(rec)
    for workload, recs in sorted(runs.items()):
        if args.last:
            recs = recs[-args.last:]
        print(f"{workload}: {len(recs)} runs, seeds "
              f"{sorted(r['seed'] for r in recs)}, failed "
              f"{sum(r['failed'] for r in recs)} of "
              f"{sum(r['attempted'] for r in recs)}")
        series = defaultdict(list)
        for r in recs:
            series["host.calib_ms"].append(statistics.median(r["calib_ms"]))
            for name, v in r["metrics"].items():
                series[name].append(v)
        for name, vals in series.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.3f}")


if __name__ == "__main__":
    main()
