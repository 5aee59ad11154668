"""Repeat bench/run.py over seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 10 [--workloads n4-exact,n5-weyl]
                           [--trace 0|1] [--record LABEL]

For each workload it runs `bench/run.py` once per seed (0, 1, ...) with
the `run_seconds` of BENCHMARK.json and prints, per metric, the median,
the quartiles (statistics.quantiles with n=4) and the spread: the
distance between the quartiles as a share of the median.  An end-to-end
metric other than setup_s is marked STEADY when its spread is below a
third of its bound.

--record LABEL appends the medians and quartiles, with the run metadata,
as one point to bench/trajectory.json.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    meta = next((json.loads(line[5:]) for line in lines
                 if line.startswith("meta ")), None)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, meta, result


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    point = {"label": args.record, "trace": args.trace,
             "seconds": spec["run_seconds"], "seeds": args.seeds,
             "workloads": {}}
    failed = False
    for workload in args.workloads.split(","):
        values, metas = {}, []
        for seed in range(args.seeds):
            code, meta, result = run_once(workload, seed, spec["run_seconds"],
                                          args.trace)
            failed |= code != 0 or not result or not result["correct"]
            metas.append(meta)
            for name, metric in (result or {}).get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: exit %d, %s" % (
                workload, seed, code, {k: round(v[-1], 4) for k, v in
                                       values.items() if k in bounds}),
                flush=True)
        stats = {name: summarize(v) for name, v in values.items()}
        for name, s in stats.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "STEADY" if s["spread"] < bound / 3 else "UNSTEADY"
            print("  %-45s median %12.4f  q1 %12.4f  q3 %12.4f  spread"
                  " %6.3f  bound %-5s %s" % (name, s["median"], s["q1"],
                                             s["q3"], s["spread"], bound,
                                             verdict))
        point["workloads"][workload] = {"meta": metas[0], "metrics": stats}
    if args.record:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
