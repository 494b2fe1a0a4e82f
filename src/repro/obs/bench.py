"""Benchmark orchestration: the curated perf-trajectory suite.

``run_suite`` executes a registry of scenarios — tracking / mapping
iteration workloads, a proxy SLAM end-to-end run, and hardware-unit
replays — under the span tracer, repeating each one ``repetitions``
times, and emits a canonical, schema-versioned ``BENCH_trajectory.json``:

- **counters** — deterministic workload counters (pixel–Gaussian pairs,
  sort keys, atomic adds, ...).  Exact across runs on the same code; the
  regression gate (:mod:`repro.obs.regress`) diffs them bit-for-bit.
- **model**   — modeled latencies/cycles/bytes from the hardware models.
  Deterministic functions of the counters; compared with a tiny relative
  tolerance.  All model metrics are oriented so *smaller is better*.
- **info**    — contextual rates (hit rates, utilization, speedups) that
  are reported but never gated.
- **wall**    — median + MAD wall-clock seconds over the repetitions,
  compared with a noise-aware tolerance.

The file also carries an environment fingerprint (python/numpy versions,
platform, CPU count) so a trajectory can be interpreted — and wall-time
comparisons distrusted — across machines.

This module keeps its imports stdlib-only at module level; scenario
bodies import the rest of the package lazily, so ``repro.obs`` stays
cycle-free.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .log import get_logger
from .tracing import trace

__all__ = [
    "SCHEMA_VERSION",
    "SIZES",
    "SCENARIOS",
    "SizeSpec",
    "SuiteConfig",
    "Scenario",
    "scenario",
    "median_mad",
    "environment_fingerprint",
    "run_suite",
    "write_trajectory",
]

log = get_logger("obs.bench")

#: Version of the ``BENCH_trajectory.json`` layout.  Bump on any breaking
#: change to the payload structure; the comparator refuses mismatches.
SCHEMA_VERSION = 1

#: Headline PipelineStats counters recorded per pass.
_PASS_COUNTERS = (
    "num_projected",
    "num_pixels",
    "num_candidate_pairs",
    "num_contrib_pairs",
    "num_sort_keys",
    "num_alpha_checks",
    "num_atomic_adds",
)


@dataclass(frozen=True)
class SizeSpec:
    """Proxy-scenario dimensions for one suite size."""

    width: int
    height: int
    frames: int
    tracking_tile: int
    mapping_tile: int


#: Suite sizes.  ``small`` is the CI point; ``tiny`` exists for tests.
SIZES: Dict[str, SizeSpec] = {
    "tiny": SizeSpec(32, 24, 6, 8, 4),
    "small": SizeSpec(48, 36, 6, 8, 4),
    "default": SizeSpec(96, 64, 10, 16, 4),
}


@dataclass(frozen=True)
class SuiteConfig:
    """One suite invocation: scenario dimensions + repetition policy."""

    size: str = "small"
    repetitions: int = 3
    sequence: str = "room0"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size not in SIZES:
            raise ValueError(
                f"unknown size {self.size!r}; choose from {sorted(SIZES)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def spec(self) -> SizeSpec:
        return SIZES[self.size]


@dataclass(frozen=True)
class Scenario:
    """A named, repeatable measurement.

    ``run(config)`` returns the deterministic sections —
    ``{"counters": {...}, "model": {...}, "info": {...}}`` — while the
    suite runner adds wall-clock statistics around it.
    """

    name: str
    description: str
    run: Callable[[SuiteConfig], Dict[str, Dict[str, float]]]


#: Registry of curated scenarios, in registration (execution) order.
SCENARIOS: Dict[str, Scenario] = {}


def scenario(name: str, description: str):
    """Register a suite scenario (decorator)."""
    def deco(fn):
        SCENARIOS[name] = Scenario(name, description, fn)
        return fn
    return deco


# ---------------------------------------------------------------------------
# Statistics + fingerprint
# ---------------------------------------------------------------------------

def median_mad(samples: Iterable[float]) -> Tuple[float, float]:
    """Median and median absolute deviation of ``samples``."""
    xs = sorted(float(s) for s in samples)
    if not xs:
        return 0.0, 0.0

    def _median(values: List[float]) -> float:
        n = len(values)
        mid = n // 2
        if n % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    med = _median(xs)
    mad = _median(sorted(abs(x - med) for x in xs))
    return med, mad


def environment_fingerprint() -> Dict[str, Any]:
    """Identify the machine/toolchain a trajectory was recorded on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


# ---------------------------------------------------------------------------
# Curated scenarios
# ---------------------------------------------------------------------------

def _bundle(cfg: SuiteConfig):
    from ..bench.scenarios import build_bundle

    spec = cfg.spec
    return build_bundle(cfg.sequence, width=spec.width, height=spec.height,
                        n_frames=spec.frames, seed=cfg.seed)


def _pass_counters(prefix: str, workloads) -> Dict[str, int]:
    counters: Dict[str, int] = {}
    for variant, workload in sorted(workloads.items()):
        for pass_name, stats in (("fwd", workload.fwd), ("bwd", workload.bwd)):
            for key in _PASS_COUNTERS:
                counters[f"{prefix}{variant}.{pass_name}.{key}"] = int(
                    getattr(stats, key))
    return counters


def _iteration_sections(workloads) -> Dict[str, Dict[str, float]]:
    """counters/model/info for one {dense, tile_sparse, pixel} workload set."""
    from ..hw import GpuModel, SplatonicAccelerator

    counters = _pass_counters("", workloads)
    model: Dict[str, float] = {}
    info: Dict[str, float] = {}

    gpu = GpuModel()
    gpu_total: Dict[str, float] = {}
    for variant, workload in sorted(workloads.items()):
        times = gpu.iteration_times(workload)
        gpu_total[variant] = times.total
        model[f"gpu.{variant}.forward_s"] = times.forward
        model[f"gpu.{variant}.backward_s"] = times.backward
        model[f"gpu.{variant}.total_s"] = times.total

    report = SplatonicAccelerator().iteration_report(workloads["pixel"])
    model["accel.forward_s"] = report.forward_s
    model["accel.backward_s"] = report.backward_s
    model["accel.total_s"] = report.total_s
    model["accel.energy_j"] = report.energy_j
    for stage, seconds in sorted(report.stage_seconds.items()):
        model[f"accel.stage.{stage}_s"] = seconds

    info["speedup.accel_over_dense_gpu"] = report.speedup_over(
        gpu_total["dense"])
    info["speedup.pixel_over_dense_gpu"] = (
        gpu_total["dense"] / gpu_total["pixel"] if gpu_total["pixel"] else 0.0)
    fwd = workloads["pixel"].fwd
    info["pixel.alpha_pass_rate"] = fwd.alpha_pass_rate
    info["pixel.warp_utilization"] = fwd.warp_utilization()
    return {"counters": counters, "model": model, "info": info}


#: Iterations of the temporal-coherence cache legs per scenario run —
#: matches the real mapping optimizer loop (~24 iters/keyframe) so the
#: cold-build cost amortizes the way it does in production; tracking
#: loops run even longer (~60 iters), so this understates that win.
_CACHE_ITERS = 24

#: Timing passes per leg; the wall clock is the best-of over passes (the
#: first pass doubles as the numpy warm-up), which keeps ``speedup.cache``
#: from being decided by a single noisy sample.
_CACHE_PASSES = 3

#: Backend the cache legs render with (the production fast path).
_CACHE_BACKEND = "vectorized"


def _cache_leg_sections(cfg: SuiteConfig, mode: str,
                        counters: Dict[str, float],
                        info: Dict[str, float]) -> None:
    """Measure the temporal-coherence render cache on one loop shape.

    Replays a deterministic optimizer-loop proxy — ``tracking``: fixed
    cloud, pose drifting by a constant twist per iteration (lattice
    candidate generation); ``mapping``: fixed camera/pixels, parameters
    drifting by a constant Adam-sized step (chunked candidate
    generation) — once uncached and once through a fresh
    :class:`repro.render.cache.RenderCache`.  Adds the bit-identity flag
    and hit/rebuild counts to ``counters`` (exact-gated: the drift is
    deterministic, so they are rep-stable) and the wall/speedup/hit-rate
    keys to ``info``.
    """
    import numpy as np

    from ..core.pixel_pipeline import backward_sparse, render_sparse
    from ..core.sampling import sample_tracking_pixels
    from ..gaussians.camera import Camera
    from ..gaussians.se3 import se3_exp
    from ..render.cache import RenderCache

    bundle = _bundle(cfg)
    spec = cfg.spec
    if mode == "tracking":
        tile = spec.tracking_tile
        lattice_tile = tile
        twist = np.array([2e-3, -1e-3, 1.5e-3, 1e-3, -5e-4, 8e-4])
        param_step = None
        pixel_seed = cfg.seed
    else:
        tile = spec.mapping_tile
        # The mapper's pixel sets are not the tracking lattice; route
        # through the chunked corner-test generator like mapping does.
        lattice_tile = None
        twist = None
        param_step = np.random.default_rng(cfg.seed + 1).normal(
            0.0, 1e-3, bundle.cloud.pack().size)
        pixel_seed = cfg.seed + 1
    pixels = sample_tracking_pixels(
        spec.width, spec.height, tile, "random",
        np.random.default_rng(pixel_seed))

    def run(make_cache):
        cache = make_cache()
        outs = []
        cloud = bundle.cloud
        pose = bundle.camera.pose_c2w
        wall = 0.0
        for _ in range(_CACHE_ITERS):
            camera = Camera(bundle.camera.intrinsics, pose)
            start = perf_counter()
            result = render_sparse(
                cloud, camera, pixels, backend=_CACHE_BACKEND,
                lattice_tile=lattice_tile, record_per_pixel=False,
                cache=cache)
            grads = backward_sparse(
                result, cloud, camera,
                np.ones_like(result.color), np.ones_like(result.depth),
                np.ones_like(result.silhouette))
            wall += perf_counter() - start
            outs.append((result, grads))
            if twist is not None:
                pose = pose @ se3_exp(twist)
            if param_step is not None:
                cloud = cloud.unpack(cloud.pack() + param_step)
        return outs, wall, cache

    # Each pass rebuilds its cache from cold, so every pass sees the same
    # deterministic hit/miss sequence; best-of-passes wall times keep one
    # noisy sample from flipping the reported speedup.
    off_outs = on_outs = cache = None
    wall_off = wall_on = float("inf")
    for _ in range(_CACHE_PASSES):
        off_outs, wall, _unused = run(lambda: None)
        wall_off = min(wall_off, wall)
    for _ in range(_CACHE_PASSES):
        on_outs, wall, cache = run(lambda: RenderCache(mode=mode))
        wall_on = min(wall_on, wall)

    identical = all(
        np.array_equal(a_r.color, b_r.color)
        and np.array_equal(a_r.depth, b_r.depth)
        and np.array_equal(a_r.silhouette, b_r.silhouette)
        and np.array_equal(a_g.d_means, b_g.d_means)
        and np.array_equal(a_g.d_colors, b_g.d_colors)
        and a_r.stats.as_dict() == b_r.stats.as_dict()
        and a_g.stats.as_dict() == b_g.stats.as_dict()
        for (a_r, a_g), (b_r, b_g) in zip(off_outs, on_outs))

    counters["cache.identical"] = int(identical)
    counters["cache.hits"] = int(cache.hits)
    counters["cache.misses"] = int(cache.misses)
    counters["cache.rebuilds"] = int(cache.rebuilds)
    info["wall.cache_off_s"] = wall_off / _CACHE_ITERS
    info["wall.cache_on_s"] = wall_on / _CACHE_ITERS
    info["speedup.cache"] = wall_off / wall_on if wall_on else 0.0
    info["cache.hit_rate"] = (cache.hits / (cache.hits + cache.misses)
                              if (cache.hits + cache.misses) else 0.0)
    info["cache.margin_px"] = float(cache.margin)


@scenario("tracking",
          "sparse tracking iteration: dense/Org.+S/pixel workload counters "
          "+ modeled GPU and SPLATONIC-HW latency + render-cache leg")
def _scn_tracking(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import tracking_workloads

    bundle = _bundle(cfg)
    workloads = tracking_workloads(bundle, tile=cfg.spec.tracking_tile,
                                   seed=cfg.seed)
    sections = _iteration_sections(workloads)
    _cache_leg_sections(cfg, "tracking", sections["counters"],
                        sections["info"])
    return sections


@scenario("mapping",
          "mapping iteration: dense/Org.+S/pixel workload counters "
          "+ modeled GPU and SPLATONIC-HW latency + render-cache leg")
def _scn_mapping(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import mapping_workloads

    bundle = _bundle(cfg)
    workloads = mapping_workloads(bundle, tile=cfg.spec.mapping_tile,
                                  seed=cfg.seed)
    sections = _iteration_sections(workloads)
    _cache_leg_sections(cfg, "mapping", sections["counters"],
                        sections["info"])
    return sections


@scenario("slam_e2e",
          "proxy SLAM end-to-end run: accumulated per-stage workload "
          "counters + wall time")
def _scn_slam_e2e(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..slam import SLAMSystem

    bundle = _bundle(cfg)
    # Per-pixel record lists are benchmark dead weight (nothing here reads
    # them); scalar counters are unaffected by the flag.
    result = SLAMSystem("splatam", mode="sparse", seed=cfg.seed,
                        record_per_pixel=False).run(bundle.sequence)

    counters: Dict[str, float] = {
        "frames": int(result.num_frames),
        "map_gaussians": int(len(result.cloud)),
        "mapping_invocations": int(result.mapping_invocations),
        "tracking_iterations": int(sum(result.tracking_iterations)),
    }
    for stage in SLAMSystem.STAGES:
        stats = result.stage_stats[stage]
        for key in _PASS_COUNTERS:
            counters[f"{stage}.{key}"] = int(getattr(stats, key))
        counters[f"{stage}.image_width"] = int(stats.image_width)
        counters[f"{stage}.image_height"] = int(stats.image_height)

    info: Dict[str, float] = {
        "ate_rmse_m": float(result.ate().rmse),
    }
    return {"counters": counters, "model": {}, "info": info}


#: Tracking lattice tile for the kernel-backend scenario — denser than the
#: suite's tracking tile so the K-pixel batch is large enough to expose
#: the per-pixel loop's Python overhead (the quantity being measured).
_KERNEL_TILE = 4

#: Forward+backward repetitions per backend inside one scenario run.
_KERNEL_REPS = 3


#: Worker-pool size of the kernel scenario's ``parallel`` leg.
_KERNEL_BENCH_WORKERS = 4


def _span_self_times(records) -> Dict[str, float]:
    """Sum tracer span self-times by name over a record slice."""
    out: Dict[str, float] = {}
    for record in records:
        out[record.name] = out.get(record.name, 0.0) + record.self_time
    return out


@scenario("kernels",
          "sparse tracking render, reference vs vectorized vs parallel "
          "kernel backend: bit-identity check + wall-clock speedup")
def _scn_kernels(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    import numpy as np

    from ..core.pixel_pipeline import backward_sparse, render_sparse
    from ..core.sampling import sample_tracking_pixels

    bundle = _bundle(cfg)
    spec = cfg.spec
    pixels = sample_tracking_pixels(
        spec.width, spec.height, _KERNEL_TILE, "random",
        np.random.default_rng(cfg.seed))

    counters: Dict[str, float] = {}
    walls: Dict[str, float] = {}
    outputs: Dict[str, Any] = {}
    stage_self: Dict[str, Dict[str, float]] = {}
    for backend in ("reference", "vectorized", "parallel"):
        workers = _KERNEL_BENCH_WORKERS if backend == "parallel" else None

        def iteration(record: bool = False):
            result = render_sparse(
                bundle.cloud, bundle.camera, pixels,
                backend=backend, lattice_tile=_KERNEL_TILE,
                kernel_workers=workers,
                record_per_pixel=record)
            grads = backward_sparse(
                result, bundle.cloud, bundle.camera,
                np.ones_like(result.color), np.ones_like(result.depth),
                np.ones_like(result.silhouette))
            return result, grads

        result, grads = iteration()  # warm-up + counter capture
        for pass_name, stats in (("fwd", result.stats), ("bwd", grads.stats)):
            for key in _PASS_COUNTERS:
                counters[f"{backend}.{pass_name}.{key}"] = int(
                    getattr(stats, key))
        span_cursor = len(trace.records)
        start = perf_counter()
        for _ in range(_KERNEL_REPS):
            result, grads = iteration()
        walls[backend] = (perf_counter() - start) / _KERNEL_REPS
        outputs[backend] = (result, grads)
        stage_self[backend] = _span_self_times(trace.records[span_cursor:])

    def _identical(a, b) -> bool:
        a_r, a_g = a
        b_r, b_g = b
        return (
            np.array_equal(a_r.color, b_r.color)
            and np.array_equal(a_r.depth, b_r.depth)
            and np.array_equal(a_r.silhouette, b_r.silhouette)
            and np.array_equal(a_g.d_means, b_g.d_means)
            and np.array_equal(a_g.d_colors, b_g.d_colors)
            and a_r.stats.as_dict() == b_r.stats.as_dict()
            and a_g.stats.as_dict() == b_g.stats.as_dict())

    counters["backends_identical"] = int(
        _identical(outputs["reference"], outputs["vectorized"]))
    # The sharded backend's determinism contract: bit-identical to the
    # vectorized kernel it decomposes (outputs, gradients, and counters).
    counters["parallel_identical"] = int(
        _identical(outputs["vectorized"], outputs["parallel"]))

    info = {
        "wall.reference_s": walls["reference"],
        "wall.vectorized_s": walls["vectorized"],
        "wall.parallel_s": walls["parallel"],
        "workers.parallel": _KERNEL_BENCH_WORKERS,
    }
    # Ratios only where both walls were measured: a zero wall would
    # otherwise read as a silent 0.0 speedup.
    if walls["reference"] > 0 and walls["vectorized"] > 0:
        info["speedup.vectorized_over_reference"] = (
            walls["reference"] / walls["vectorized"])
    # >1 needs real cores: thread shards only overlap where numpy
    # releases the GIL, so single-core hosts measure ~1x or below.
    if walls["vectorized"] > 0 and walls["parallel"] > 0:
        info["speedup.parallel_over_vectorized"] = (
            walls["vectorized"] / walls["parallel"])
    # Stage-split visibility: the candidate-generation share of the
    # forward pass (projection + candidate/α-check self-time vs
    # compositing) — the target the temporal-coherence render cache
    # attacks; tracked longitudinally per backend.  Only measured
    # inside a tracer capture (the suite runner's); absent otherwise.
    for backend, selfs in sorted(stage_self.items()):
        candidate = (selfs.get("render.project", 0.0)
                     + selfs.get("render.alpha_check", 0.0))
        total = candidate + selfs.get("render.composite", 0.0)
        if total > 0:
            info[f"candidate_stage_fraction.{backend}"] = candidate / total
    return {"counters": counters, "model": {}, "info": info}


@scenario("obs_overhead",
          "observability cost: proxy SLAM with every obs feature off vs "
          "tracer+metrics+flight+atlas+health all on, plus telemetry-bus "
          "legs (publishing with zero and one subscriber) — gated ratios")
def _scn_obs_overhead(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    import numpy as np

    from ..slam import SLAMSystem
    from .atlas import AtlasCollector, AtlasLog
    from .flight import FlightRecorder
    from .health import HealthMonitor
    from .metrics import MetricsRegistry, ingest_pipeline_stats
    from .telemetry import bus as telemetry_bus

    bundle = _bundle(cfg)

    def run_slam(flight=None, health=None, atlas=None):
        system = SLAMSystem("splatam", mode="sparse", seed=cfg.seed,
                            record_per_pixel=False)
        return system.run(bundle.sequence, flight=flight, health=health,
                          atlas=atlas)

    # All-off leg.  The suite runner keeps the global tracer enabled
    # around scenario bodies, so it must be disabled explicitly here —
    # otherwise the "off" leg would already pay the span cost.
    was_enabled = trace.enabled
    trace.disable()
    try:
        # Untimed warm-up: the first run pays allocator/cache cold-start
        # costs that would otherwise inflate the all-off leg and bias
        # the ratio below 1.
        run_slam()
        start = perf_counter()
        result_off = run_slam()
        off_s = perf_counter() - start
    finally:
        if was_enabled:
            trace.enable(reset=False)

    # All-on leg: tracer + in-memory flight recorder + health monitor +
    # in-memory atlas collector, then a metrics ingest of the results.
    flight = FlightRecorder()
    flight.enable()
    health = HealthMonitor()
    collector = AtlasCollector(tile=cfg.spec.tracking_tile)
    collector.enable()
    trace.enable(reset=False)
    spans_before = len(trace.records)
    try:
        start = perf_counter()
        result_on = run_slam(flight=flight, health=health, atlas=collector)
        on_s = perf_counter() - start
    finally:
        spans = len(trace.records) - spans_before
        if not was_enabled:
            trace.disable()
        flight.disable()
        collector.disable()

    registry = MetricsRegistry()
    for stage in SLAMSystem.STAGES:
        ingest_pipeline_stats(stage, result_on.stage_stats[stage],
                              registry=registry)

    # Telemetry-bus legs: publishing on with nobody listening, then with
    # one (promexport-style) subscriber whose ring is large enough that
    # nothing drops — both must stay passive and inside the gated
    # overhead budget.  The tracer stays off so the published-event
    # count is the deterministic run stream (header + frames + per-frame
    # metrics snapshots + summary + alerts), not span noise.
    trace.disable()
    telemetry_bus.enable()
    # The wall-time spike monitor publishes alerts keyed to real frame
    # timings — nondeterministic — so the bus legs run with it off to
    # keep the published-event count an exact gated counter.
    from .health import HealthConfig as _HealthConfig

    def bus_health() -> HealthMonitor:
        return HealthMonitor(_HealthConfig(frame_time_factor=0))
    try:
        start = perf_counter()
        result_bus = run_slam(health=bus_health())
        bus_on_s = perf_counter() - start
        published_no_sub = telemetry_bus.published()

        sub = telemetry_bus.subscribe(maxlen=8192, name="bench:obs_overhead")
        telemetry_bus.reset()
        start = perf_counter()
        result_bus_sub = run_slam(health=bus_health())
        bus_sub_s = perf_counter() - start
        published_sub = telemetry_bus.published()
        delivered = int(sub.delivered)
        bus_dropped = telemetry_bus.dropped()
        telemetry_bus.unsubscribe(sub)
    finally:
        telemetry_bus.disable()
        if was_enabled:
            trace.enable(reset=False)

    # Observability must be passive: the instrumented runs have to
    # produce the bit-identical trajectory, map, and counters.
    def _same(result) -> bool:
        return bool(
            np.array_equal(result_off.est_trajectory, result.est_trajectory)
            and len(result_off.cloud) == len(result.cloud)
            and all(result_off.stage_stats[s].as_dict()
                    == result.stage_stats[s].as_dict()
                    for s in SLAMSystem.STAGES))

    passive = _same(result_on)
    bus_passive = _same(result_bus) and _same(result_bus_sub)

    alog = AtlasLog.from_collector(collector)
    observed = alog.observed_totals()
    export = registry.export()
    counters = {
        "frames": int(result_on.num_frames),
        "obs_passive": int(passive),
        "obs_passive_bus": int(bus_passive),
        "flight.records": int(len(flight.records)),
        "atlas.frames": int(alog.num_frames),
        "atlas.candidates": int(sum(v["candidates"]
                                    for v in observed.values())),
        "atlas.atomics": int(sum(v["atomics"] for v in observed.values())),
        "spans": int(spans),
        "metrics.counters": int(len(export["counters"])),
        "metrics.gauges": int(len(export["gauges"])),
        "telemetry.published": int(published_no_sub),
        "telemetry.published_sub": int(published_sub),
        "telemetry.delivered": int(delivered),
        "telemetry.dropped": int(bus_dropped),
    }
    info = {
        "wall.all_off_s": off_s,
        "wall.all_on_s": on_s,
        "wall.bus_on_s": bus_on_s,
        "wall.bus_sub_s": bus_sub_s,
        "overhead_ratio": (on_s / off_s) if off_s > 0 else 0.0,
    }
    overhead = {
        "ratio": (on_s / off_s) if off_s > 0 else 0.0,
        "bus_ratio": (bus_on_s / off_s) if off_s > 0 else 0.0,
        "bus_sub_ratio": (bus_sub_s / off_s) if off_s > 0 else 0.0,
    }
    return {"counters": counters, "model": {}, "info": info,
            "overhead": overhead}


@scenario("hw_units",
          "hardware-unit replays on the mapping pixel workload: "
          "aggregation scoreboard, hierarchical sorter, DRAM traffic")
def _scn_hw_units(cfg: SuiteConfig) -> Dict[str, Dict[str, float]]:
    from ..bench.scenarios import mapping_workloads
    from ..hw import AggregationUnit, HierarchicalSorter, SortingUnitConfig

    bundle = _bundle(cfg)
    workloads = mapping_workloads(bundle, tile=cfg.spec.mapping_tile,
                                  seed=cfg.seed)
    pixel = workloads["pixel"]

    agg = AggregationUnit().simulate(pixel.bwd.pixel_contrib_ids)
    counters = {
        "aggregation.tuples": int(agg.tuples),
        "aggregation.cache_hits": int(agg.cache_hits),
        "aggregation.cache_misses": int(agg.cache_misses),
        "aggregation.unique_accumulations": int(agg.unique_accumulations),
        "sorter.keys": int(pixel.fwd.num_sort_keys),
    }
    sorter = HierarchicalSorter(SortingUnitConfig())
    model = {
        "aggregation.cycles": float(agg.cycles),
        "aggregation.stall_cycles": float(agg.stall_cycles),
        "aggregation.dram_bytes": float(agg.dram_bytes),
        "sorter.cycles": float(
            sorter.total_cycles(pixel.fwd.pixel_list_lengths)),
    }
    info = {
        "aggregation.hit_rate": agg.hit_rate,
        "aggregation.cycles_per_tuple": agg.cycles_per_tuple,
    }
    return {"counters": counters, "model": model, "info": info}


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def _resolve_scenarios(names: Optional[Iterable[str]]) -> List[Scenario]:
    if names is None:
        return list(SCENARIOS.values())
    out = []
    for name in names:
        if isinstance(name, Scenario):
            out.append(name)
            continue
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
        out.append(SCENARIOS[name])
    return out


def _run_scenario(scn: Scenario, cfg: SuiteConfig) -> Dict[str, Any]:
    samples: List[float] = []
    overhead_samples: Dict[str, List[float]] = {}
    sections: Optional[Dict[str, Dict[str, float]]] = None
    stable = True
    with trace.capture():
        for _rep in range(cfg.repetitions):
            start = perf_counter()
            out = scn.run(cfg)
            samples.append(perf_counter() - start)
            if sections is not None and out["counters"] != sections["counters"]:
                stable = False
            sections = out
            for key, value in (out.get("overhead") or {}).items():
                overhead_samples.setdefault(key, []).append(float(value))
        stage_rows = trace.stage_table()
    assert sections is not None

    med, mad = median_mad(samples)
    if not stable:
        log.warning(f"{scn.name}: counters varied across repetitions — "
                    f"the scenario is not deterministic")
    result: Dict[str, Any] = {
        "description": scn.description,
        "counters": {k: int(v) for k, v in sorted(sections["counters"].items())},
        "model": {k: float(v) for k, v in sorted(sections["model"].items())},
        "info": {k: float(v) for k, v in sorted(sections["info"].items())},
        "wall": {
            "median_s": round(med, 6),
            "mad_s": round(mad, 6),
            "samples_s": [round(s, 6) for s in samples],
            "repetitions": cfg.repetitions,
        },
        "stable_counters": stable,
        "trace_stages": sorted(
            ({"span": r["span"], "count": r["count"],
              "total_s": round(r["total_s"], 6),
              "self_s": round(r["self_s"], 6)} for r in stage_rows),
            key=lambda row: row["span"]),
    }
    if overhead_samples:
        # Optional gated section: the observability-overhead ratios
        # (instrumented / all-off wall time).  Compared by
        # repro.obs.regress against a hard budget — median + MAD like
        # the wall section.  The headline "ratio" key keeps the original
        # flat layout; any further named ratios the scenario reports
        # (e.g. the telemetry-bus legs) land under "extra" so old
        # baselines stay comparable.
        omed, omad = median_mad(overhead_samples.get("ratio", [0.0]))
        result["overhead"] = {
            "ratio": round(omed, 4),
            "mad": round(omad, 4),
            "samples": [round(s, 4)
                        for s in overhead_samples.get("ratio", [])],
            "repetitions": cfg.repetitions,
        }
        extra = {}
        for key in sorted(overhead_samples):
            if key == "ratio":
                continue
            emed, emad = median_mad(overhead_samples[key])
            extra[key] = {
                "ratio": round(emed, 4),
                "mad": round(emad, 4),
                "samples": [round(s, 4) for s in overhead_samples[key]],
            }
        if extra:
            result["overhead"]["extra"] = extra
    return result


def run_suite(config: Optional[SuiteConfig] = None,
              scenarios: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Execute the suite and return the ``BENCH_trajectory`` payload."""
    cfg = config or SuiteConfig()
    selected = _resolve_scenarios(scenarios)
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": cfg.size,
        "sequence": cfg.sequence,
        "repetitions": cfg.repetitions,
        "environment": environment_fingerprint(),
        "scenarios": {},
    }
    for scn in selected:
        log.info(f"scenario {scn.name} ({cfg.size}, "
                 f"{cfg.repetitions} repetitions) ...")
        result = _run_scenario(scn, cfg)
        payload["scenarios"][scn.name] = result
        wall = result["wall"]
        log.info(f"  {scn.name}: median {wall['median_s'] * 1e3:.1f} ms "
                 f"(MAD {wall['mad_s'] * 1e3:.1f} ms), "
                 f"{len(result['counters'])} counters")
    return payload


def write_trajectory(payload: Dict[str, Any], path: str) -> None:
    """Write a suite payload as canonical (key-sorted) JSON."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
