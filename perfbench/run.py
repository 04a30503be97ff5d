#!/usr/bin/env python3
"""The repository's benchmark: one workload per call.

    python3 perfbench/run.py --workload {build,serve,nrt} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It prints each workload's metrics
under their user-facing names (with units and sample counts),
the host calibration and the failed-operation ratio, then, as the last
line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` list, measured with no
tracing; with ``--trace 1`` they are its ``per_layer`` list, from a run
that records spans around the calls into each layer (the span dump goes
to ``.perfbench_work/traces/``).  Every run appends its record to
``.perfbench_work/records.jsonl``; ``summarize.py`` reports medians and
quartiles over those records.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "serve", "nrt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "search_engine_ray",
                                        "__init__.py"))
            and os.path.isfile(spec_path)):
        print("perfbench: run from the root of a search_engine_ray checkout "
              "(search_engine_ray/ and BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [root, HERE]
    # temporary files of the libraries and of Ray's processes stay in
    # the checkout too
    tmp = os.path.join(root, ".perfbench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    with open(spec_path) as f:
        spec = json.load(f)

    import common
    import wl_build
    import wl_nrt
    import wl_serve
    from tracing import NullTracer, Tracer

    workloads = {"build": wl_build, "serve": wl_serve, "nrt": wl_nrt}
    calib = [common.calib_ms() for _ in range(3)]
    tracer = Tracer() if args.trace else NullTracer()
    # seeds feed numpy's generators, which take non-negative integers only
    seed = args.seed % (1 << 63)
    r = common.Run(args.workload, seed, args.seconds, tracer)
    try:
        res = workloads[args.workload].run(r)
    finally:
        tracer.close()
        r.cleanup()
    calib += [common.calib_ms() for _ in range(3)]

    res["e2e"]["peak_rss_mb"] = common.peak_rss_mb()
    values = res["e2e"]
    if args.trace:
        values = dict(res["layers"])
        values["host.calib_ms"] = common.median(calib)
        values["host.ray_start_s"] = res["ray_start_s"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}

    for line in res["info"]:
        print(f"[{args.workload}] {line}")
    print(f"[{args.workload}] host.calib_ms before "
          f"{common.median(calib[:3]):.2f} after "
          f"{common.median(calib[3:]):.2f} ms")
    print(f"[{args.workload}] failed_ops_ratio "
          f"{r.failed / max(r.attempted, 1):.6f} "
          f"({r.failed} of {r.attempted})")
    for note in r.notes[:20]:
        print(f"[{args.workload}] {note}")
    print(f"[{args.workload}] sizing {json.dumps(common.sizing())}")

    os.makedirs(common.WORK, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "time": time.time(), "calib_ms": calib,
              "attempted": r.attempted, "failed": r.failed,
              "metrics": {k: v["value"] for k, v in metrics.items()},
              "end_to_end": res["e2e"]}
    with open(os.path.join(common.WORK, "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        tdir = os.path.join(common.WORK, "traces")
        os.makedirs(tdir, exist_ok=True)
        tracer.dump(os.path.join(
            tdir, f"{args.workload}-seed{args.seed}.json"))

    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
