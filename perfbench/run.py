#!/usr/bin/env python3
"""SLAM host-time benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload slam_replica --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src/``.  One process runs
one workload single-threaded, in a closed loop (one frame in flight),
with the program's defaults as ``repro slam`` uses them: the kernel
backend and render cache resolve to their defaults (the environment
variables that would override them are cleared) and per-pixel record
lists are off.

``--trace 0`` measures the end-to-end metrics.  The program's only
instrumentation is one perf_counter pair around each
``Tracker.track_frame`` call; between frames, samples of a fixed probe
job measure the host's speed, and the three end-to-end timings are
scaled to the reference host (``PROBE_REF_MS``) by it.  The shared VMs
this runs on drift by up to 1.5x in speed over minutes; see NOTES.md.
``--trace 1`` runs the same episodes twice, untraced and then under the
layer timer (:mod:`layers`), checks that both produced identical
trajectories, counters, ATE and PSNR, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones ``BENCHMARK.json`` declares.  The line before it
(``# detail ...``) holds everything else a run measured.  A failed check
prints ``correct: false`` and exits with 1; a checkout without the
program exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Environment overrides of the program's execution defaults.
ENV_KNOBS = ("REPRO_KERNEL_BACKEND", "REPRO_RENDER_CACHE",
             "REPRO_KERNEL_WORKERS")
#: Native thread pools are pinned to one thread: one single-threaded
#: process per workload.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_PROBES = 4
EPISODE_SEED_STRIDE = 1000
#: Sanity limits of the correctness check (far outside what any seed
#: gives; a diverged or broken run crosses them).
MAX_ATE_CM = 50.0
MIN_PSNR_DB = 15.0
#: Host-speed probe: one sample per this much frame time (and
#: ``SETUP_PROBES`` after each set-up repetition), and the sample time
#: of the reference host the end-to-end timings are scaled to (the
#: median probe of a quiet 2-vCPU x86-64 VM).
PROBE_EVERY_S = 0.25
PROBE_REF_MS = 6.0


#: Self-time metrics named after the layer's role, not the layer.
SELF_METRICS = {"slam.track_self_s": "slam.track_frame",
                "slam.map_self_s": "slam.map_frame"}


class CheckFailed(Exception):
    """A correctness or passivity check failed; the message names it."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_sample_ms() -> float:
    """One run of a fixed numpy + pure-Python job, in milliseconds."""
    import numpy as np

    start = perf_counter()
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(8):
        a = np.tanh(a @ a.T / 160.0)
    total = 0
    for i in range(100_000):
        total += i % 7
    return (perf_counter() - start) * 1e3


def machine_probe_ms() -> float:
    """Median of five probe samples (host speed before or after a run)."""
    return statistics.median(probe_sample_ms() for _ in range(5))


def child_import_s() -> float:
    """Time a fresh interpreter takes to import the program."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import numpy, repro, workloads; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC, HERE],
                         check=True, capture_output=True, text=True,
                         timeout=120)
    return float(out.stdout)


def set_up(wl, workload, probes):
    """Import and synthesize ``SETUP_REPEATS`` times, with probe samples
    after each repetition.  Returns (median import, synthesis times,
    the last sequence)."""
    imports, synth = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(child_import_s())
        start = perf_counter()
        sequence = wl.make_sequence(workload)
        synth.append(perf_counter() - start)
        probes.extend(probe_sample_ms() for _ in range(SETUP_PROBES))
    return statistics.median(imports), synth, sequence


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def episode_seeds(workload, seed: int, seconds: float):
    """The run's episode seeds: a fixed count per ``seconds``.

    The count comes from the workload's nominal episode time, not from
    the clock, so a run's work depends only on the seed and
    ``seconds`` -- a slow host or a faster program runs the same episodes.
    """
    count = max(1, round(seconds / workload.nominal_episode_s))
    return [seed * EPISODE_SEED_STRIDE + j for j in range(count)]


def untraced(wl, workload, sequence, seeds, probes=None):
    """Run ``seeds`` with only the frame clock; returns (episodes, wall).

    With a ``probes`` list, host-speed probe samples run after every
    frame, about one per ``PROBE_EVERY_S`` of frame time, and land in
    it.  Their time is left out of the returned wall.
    """
    episodes = []
    times = []
    after = None
    if probes is not None:
        def after(frame_s):
            for _ in range(1 + int(frame_s / PROBE_EVERY_S)):
                probes.append(probe_sample_ms())
    with wl.frame_clock(times, after):
        start = perf_counter()
        for seed in seeds:
            mark = len(times)
            episode = wl.run_episode(workload, sequence, seed)
            episode.track_s = times[mark:]
            episodes.append(episode)
        wall = perf_counter() - start
    if probes:
        wall -= sum(probes) / 1e3
    return episodes, wall


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:  # the tail would sit at or below the median
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def check_episodes(name, episodes, qualities):
    import numpy as np

    for ep, q in zip(episodes, qualities):
        traj = ep.result.est_trajectory
        if not traj.size or not np.isfinite(traj).all():
            raise CheckFailed(f"{name}: trajectory not finite "
                              f"(episode seed {ep.seed})")
        if q["frames_evaluated"] <= 0:
            raise CheckFailed(f"{name}: frames_evaluated == 0 "
                              f"(episode seed {ep.seed})")
        if not q["ate_rmse_cm"] < MAX_ATE_CM:
            raise CheckFailed(f"{name}: ate_rmse_cm {q['ate_rmse_cm']:.3f} "
                              f">= {MAX_ATE_CM} (episode seed {ep.seed})")
        if not q["psnr_db"] > MIN_PSNR_DB:
            raise CheckFailed(f"{name}: psnr_db {q['psnr_db']:.3f} "
                              f"<= {MIN_PSNR_DB} (episode seed {ep.seed})")


def check_passive(name, plain, plain_q, traced, traced_q):
    """The traced run must reproduce the untraced one exactly."""
    for a, b, qa, qb in zip(plain, traced, plain_q, traced_q):
        where = f"{name} (episode seed {a.seed})"
        if (a.result.est_trajectory.tobytes()
                != b.result.est_trajectory.tobytes()):
            raise CheckFailed(f"{where}: traced trajectory differs")
        ca, cb = a.counters(), b.counters()
        for key in ca:
            if ca[key] != cb[key]:
                raise CheckFailed(f"{where}: traced {key} differs: "
                                  f"{ca[key]} != {cb[key]}")
        for key in ("ate_rmse_cm", "psnr_db", "frames_evaluated"):
            if qa[key] != qb[key]:
                raise CheckFailed(f"{where}: traced {key} differs: "
                                  f"{qa[key]!r} != {qb[key]!r}")


def evaluate(wl, sequence, episodes):
    """Quality of every episode; returns (qualities, mean seconds each)."""
    start = perf_counter()
    qualities = [wl.quality(sequence, ep.result) for ep in episodes]
    return qualities, (perf_counter() - start) / len(episodes)


def layer_metrics(wl, timer, wall):
    """Per-layer metrics of the traced run.

    A layer with no call has no ``_s`` or ``_share`` entry here; its
    ``_calls`` count reads 0.
    """
    m = {}
    for layer in wl.LAYERS:
        calls = timer.calls[layer]
        m[f"{layer}_calls"] = calls
        if calls:
            m[f"{layer}_s"] = timer.total[layer]
    m.update({f"{layer}_share": share
              for layer, share in timer.ledger(wall).items()})
    for name, layer in SELF_METRICS.items():
        if timer.calls[layer]:
            m[name] = timer.self_time[layer]
    if timer.calls["slam.track_frame"]:
        m["slam.track_converged_frac"] = (
            timer.counts["slam.track_converged"]
            / timer.calls["slam.track_frame"])
    for key in wl.COUNTS:
        m[key] = timer.counts[key]
    candidates = timer.counts["core.candidate_pairs"]
    if candidates:
        m["core.alpha_pass_rate"] = (timer.counts["core.contrib_pairs"]
                                     / candidates)
        m["core.ns_per_pair"] = 1e9 * (
            timer.total["core.render_sparse"]
            + timer.total["core.backward_sparse"]) / candidates
    hits = timer.counts["render.cache_hits"]
    lookups = hits + timer.counts["render.cache_misses"]
    if lookups:
        m["render.cache_hit_rate"] = hits / lookups
    return m


def result_metrics(spec_metrics, measured, uncalled):
    """The declared metrics, in declared order, with their units.

    A declared metric that was not measured is an error, except the time
    and share of a layer that was instrumented but never called: those
    are measured zeros (its ``_calls`` count, also reported, is 0).
    """
    out = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif any(name in (f"{layer}_s", f"{layer}_share")
                 or SELF_METRICS.get(name) == layer for layer in uncalled):
            value = 0.0
        else:
            raise CheckFailed(f"declared metric {name!r} was not measured")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def run(args, spec):
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {workload_names}")
    for var in ENV_KNOBS:
        os.environ.pop(var, None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Bytecode is built before the import is timed, so set-up time does
    # not depend on whether this checkout has run before.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    start = perf_counter()
    import numpy as np
    import repro
    import workloads as wl
    import_s = perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")

    name = args.workload
    workload = wl.WORKLOADS[name]
    setup_probes = []
    imports_s, synth, sequence = set_up(wl, workload, setup_probes)
    synth_s = statistics.median(synth)
    setup_host = statistics.mean(setup_probes) / PROBE_REF_MS
    defaults = wl.resolved_defaults()
    probe_before = machine_probe_ms()

    detail = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, **defaults,
        "import_s": import_s, "child_import_s": imports_s, "synth_s": synth,
    }
    if not args.trace:
        seeds = episode_seeds(workload, args.seed, args.seconds)
        probes = []
        episodes, wall = untraced(wl, workload, sequence, seeds, probes)
        # Host speed during the loop, relative to the reference host.
        host = statistics.mean(probes) / PROBE_REF_MS
        qualities, eval_s = evaluate(wl, sequence, episodes)
        check_episodes(name, episodes, qualities)
        t0 = perf_counter()
        sims = [wl.simulate(sequence, ep.result) for ep in episodes]
        hw_s = perf_counter() - t0
        frames = sum(ep.frames for ep in episodes)
        track = [1e3 * t for ep in episodes for t in ep.track_s]
        raw = {"fps": frames / wall,
               "track_ms_mean": statistics.mean(track),
               "setup_s": imports_s + synth_s}
        measured = {
            "fps": raw["fps"] * host,
            "track_ms_mean": raw["track_ms_mean"] / host,
            "setup_s": raw["setup_s"] / setup_host,
            "peak_rss_mb": peak_rss_mb(),
            "psnr_db": statistics.mean(q["psnr_db"] for q in qualities),
            "sim_track_speedup": statistics.mean(
                s["gpu_track_ms"] / s["sim_track_ms"] for s in sims),
            "sim_map_speedup": statistics.mean(
                s["gpu_map_ms"] / s["sim_map_ms"] for s in sims),
        }
        detail.update({
            "raw": raw, "host_factor": host,
            "setup_host_factor": setup_host,
            "loop_probe_ms": {"samples": len(probes),
                              "mean": statistics.mean(probes),
                              "median": statistics.median(probes),
                              "min": min(probes), "max": max(probes)},
            "track_ms": track,
            "track_ms_p50": statistics.median(track),
            "track_ms_tail": tail(track),
            "ate_rmse_cm": [q["ate_rmse_cm"] for q in qualities],
            "psnr_db": [q["psnr_db"] for q in qualities],
            "eval_s": eval_s, "hw_model_s": hw_s,
        })
        declared = spec["end_to_end"]
        uncalled = ()
    else:
        # Half the time untraced, then the same seeds traced.
        seeds = episode_seeds(workload, args.seed, args.seconds / 2)
        plain, plain_wall = untraced(wl, workload, sequence, seeds)
        traced, timer, wall = wl.traced_episodes(
            workload, sequence, seeds, defaults["kernel_backend"])
        plain_q, _ = evaluate(wl, sequence, plain)
        qualities, eval_s = evaluate(wl, sequence, traced)
        check_episodes(name, plain, plain_q)
        check_episodes(name, traced, qualities)
        check_passive(name, plain, plain_q, traced, qualities)
        t0 = perf_counter()
        sim = wl.simulate(sequence, traced[0].result)
        hw_s = perf_counter() - t0
        episodes = traced
        measured = layer_metrics(wl, timer, wall)
        measured.update({
            "bench.trace_overhead": wall / plain_wall,
            "slam.abandoned": sum(ep.abandoned for ep in traced),
            "slam.final_gaussians": statistics.mean(
                len(ep.result.cloud) for ep in traced),
            "metrics.ate_rmse_cm": statistics.mean(
                q["ate_rmse_cm"] for q in qualities),
            "metrics.psnr_db": statistics.mean(
                q["psnr_db"] for q in qualities),
            "datasets.synth_s": synth_s,
            "metrics.eval_s": eval_s,
            "hw.model_s": hw_s,
            **{f"hw.{k}": v for k, v in sim.items()},
        })
        uncalled = [layer for layer in wl.LAYERS if not timer.calls[layer]]
        detail["uncalled_layers"] = uncalled
        declared = spec["per_layer"]

    probe_after = machine_probe_ms()
    detail.update({"probe_ms": [probe_before, probe_after],
                   "episodes": [ep.seed for ep in episodes]})
    if args.trace:
        measured["bench.probe_ms"] = statistics.mean(
            [probe_before, probe_after])
    detail["measured"] = measured
    attempted = sum(ep.frames for ep in episodes)
    failed = sum(ep.abandoned for ep in episodes)
    metrics = result_metrics(declared, measured, uncalled)
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            raise CheckFailed(f"{name}: metric value not finite: {m}")
    return detail, {"correct": True, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing "
              f"(run from the root of a checkout)", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    try:
        detail, result = run(args, spec)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print("# detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
