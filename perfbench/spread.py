#!/usr/bin/env python3
"""Same-code spread of the end-to-end metrics over a set of runs.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads slam_replica track_tum \
        --seeds 1-10 --out perfbench/evidence/set_a.json

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one run
at a time, and writes for every workload and end-to-end metric the ten
(or however many) values, their median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` that ``BENCHMARK.json``'s bounds are checked
against.  ``--compare`` adds, against an earlier output, how far each
median moved (positive = worse) as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "repeats_exactly": len(set(values)) == 1}


def markdown(report) -> str:
    """One table row per workload and metric (the notes' format)."""
    rows = ["| workload | metric | median | q1 | q3 | spread | bound "
            "| shift |", "|---|---|---|---|---|---|---|---|"]
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            spread = ("exact repeat" if m["repeats_exactly"]
                      else f"{m['spread']:.3f}")
            shift = (f"{m['median_shift']:+.3f}" if "median_shift" in m
                     else "")
            rows.append(f"| {workload} | {name} | {m['median']:.4g} "
                        f"| {m['q1']:.4g} | {m['q3']:.4g} | {spread} "
                        f"| {m['bound']} | {shift} |")
    return "\n".join(rows)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("# detail "):])
    return json.loads(lines[-1]), detail, elapsed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    p.add_argument("--compare", default=None)
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    report = {"started": time.strftime("%Y-%m-%d %H:%M:%S UTC",
                                       time.gmtime()),
              "seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        runs = []
        for seed in parse_seeds(args.seeds):
            result, detail, elapsed = run_once(workload, seed,
                                               spec["run_seconds"])
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: not correct")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            runs.append({"seed": seed, "process_s": elapsed,
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "probe_ms": detail["probe_ms"],
                         "host_factor": detail["host_factor"],
                         "setup_host_factor": detail["setup_host_factor"],
                         "raw": detail["raw"],
                         "track_ms_p50": detail["track_ms_p50"],
                         "ate_rmse_cm": detail["ate_rmse_cm"],
                         "psnr_db": detail["psnr_db"],
                         "track_ms_tail": detail.get("track_ms_tail")})
            print(f"{workload} seed {seed}: {elapsed:.1f} s "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  flush=True)
        metrics = {name: {**summarize(v), "bound": bounds[name]["bound"]}
                   for name, v in values.items()}
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
    report["finished"] = time.strftime("%Y-%m-%d %H:%M:%S UTC",
                                       time.gmtime())

    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]
        for workload, entry in report["workloads"].items():
            for name, m in entry["metrics"].items():
                before = earlier.get(workload, {}).get("metrics", {}).get(name)
                if before is None:
                    continue
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                m["median_shift"] = (sign * (m["median"] - before["median"])
                                     / before["median"])

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(markdown(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
